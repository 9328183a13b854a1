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


def least_witness(a: QuandleMatrix, b: QuandleMatrix) -> Permutation | None:
    """The least relabelling (by image array) with permute(a, p) == b, by trying all n!, or None."""
    if a.n != b.n:
        return None
    witnesses = [p for p in all_permutations(a.n) if permute(a, p) == b]
    return min(witnesses, key=lambda p: p.images, default=None)
