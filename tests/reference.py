"""Slow reference implementations that the library's fast paths are checked against."""

import itertools

from quandles import Permutation, QuandleMatrix, permute
from quandles.permutation import all_permutations


def np_count_explicit(m: QuandleMatrix) -> int:
    """Number of standard-form tables in m's class, by materializing the whole relabelling orbit."""
    seen = set()
    for images in itertools.permutations(range(1, m.n + 1)):
        seen.add(permute(m, Permutation(images)).rows)
    return len(seen)


def orbits_by_warshall(degree: int, maps) -> tuple[tuple[int, ...], ...]:
    """Orbits of {1..degree} under the 1-based image tuples `maps`, from Warshall's transitive closure.

    reach[i][j] says j is reached from i by the maps; for permutations the
    relation is symmetric, so the orbit of i is the row of i.
    """
    reach = [[i == j for j in range(degree)] for i in range(degree)]
    for images in maps:
        for i, v in enumerate(images):
            reach[i][v - 1] = True
    for k in range(degree):
        for i in range(degree):
            if reach[i][k]:
                reach[i] = [a or b for a, b in zip(reach[i], reach[k])]
    return tuple(sorted({tuple(j + 1 for j in range(degree) if reach[i][j]) for i in range(degree)}))


def least_witness(a: QuandleMatrix, b: QuandleMatrix) -> Permutation | None:
    """The least relabelling (by image array) with permute(a, p) == b, by trying all n!, or None."""
    if a.n != b.n:
        return None
    witnesses = [p for p in all_permutations(a.n) if permute(a, p) == b]
    return min(witnesses, key=lambda p: p.images, default=None)
