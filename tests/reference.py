"""Slow reference implementations that the library's fast paths are checked against."""

import itertools

from quandles import Permutation, QuandleMatrix, permute


def np_count_explicit(m: QuandleMatrix) -> int:
    """Number of standard-form tables in m's class, by materializing the whole relabelling orbit."""
    seen = set()
    for images in itertools.permutations(range(1, m.n + 1)):
        seen.add(permute(m, Permutation(images)).rows)
    return len(seen)
