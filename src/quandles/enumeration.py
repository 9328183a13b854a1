"""Exhaustive generation of standard-form quandle tables of a given order.

Candidate tables are assembled column by column: position i draws from the
(n-1)! columns that fix i, so every candidate already satisfies the diagonal
and column conditions and only self-distributivity needs checking.  Column j
is the right translation R_j, and self-distributivity reads
R_{R_k(j)} = R_k R_j R_k^-1.  The scan branches on the least unplaced
column and forces every column the identity determines from the placed
ones, so only branches count as placements.  Tables come out in
lexicographic column-index order, which keeps output files stable.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from math import factorial
from collections.abc import Iterator

from . import _kernel
from .matrix import QuandleMatrix
from .symmetry import ClassRecord, identify_group, stabilizer_group

DEFAULT_MAX_PLACEMENTS = 10**9


class ResourceLimitError(RuntimeError):
    """Raised when a scan exceeds its placement budget instead of hanging."""

    def __init__(self, n: int, placements: int, cap: int):
        super().__init__(
            f"enumeration of order {n} aborted after {placements} column "
            f"placements (cap {cap})"
        )
        self.n = n
        self.placements = placements
        self.cap = cap


@dataclass(frozen=True)
class EnumerationOptions:
    max_placements: int = DEFAULT_MAX_PLACEMENTS

    def __post_init__(self):
        if self.max_placements < 1:
            raise ValueError("max_placements must be positive")


@dataclass(frozen=True)
class EnumerationReport:
    """Classification of one order: class list plus run bookkeeping.

    Classes are sorted by their canonical representative (row-major lex);
    np summed over classes equals total_valid_matrices.
    """

    n: int
    total_valid_matrices: int
    classes: tuple[ClassRecord, ...]
    elapsed: float


def column_candidates(n: int, i: int) -> list[tuple[int, ...]]:
    """All columns for position i: permutations of {1..n} with value i at i.

    Returned in lexicographic order; there are exactly (n-1)! of them.
    """
    if not 1 <= i <= n:
        raise IndexError(f"position {i} outside 1..{n}")
    pools = _kernel.candidate_columns0(n)
    return [tuple(v + 1 for v in col) for col in pools[i - 1]]


def _scan_all(n: int, opts: EnumerationOptions) -> tuple[list[bytes], int]:
    flats, placements, hit = _kernel.scan(n, cap=opts.max_placements)
    if hit:
        raise ResourceLimitError(n, placements, opts.max_placements)
    return flats, placements


def enumerate_all(n: int, opts: EnumerationOptions | None = None) -> Iterator[QuandleMatrix]:
    """Every standard-form quandle table of order n, exactly once.

    Raises ResourceLimitError before yielding anything when the scan blows
    the placement budget; under the default cap that happens first at n = 8.
    """
    opts = opts or EnumerationOptions()
    flats, _ = _scan_all(n, opts)
    for flat in flats:
        yield QuandleMatrix.from_flat(flat, n)


def enumerate_classes(n: int, opts: EnumerationOptions | None = None) -> EnumerationReport:
    """Group the full table stream into isomorphism classes.

    The tables are visited in sorted byte order, and each one not yet
    claimed by a class makes a single orbit pass: it is the least member of
    its class, hence the canonical representative; the orbit's size is np
    and its stabilizer is Aut.  Each class keeps its representative,
    automorphism group data, np, and the latin and connectivity flags.
    """
    opts = opts or EnumerationOptions()
    start = time.perf_counter()
    flats, _ = _scan_all(n, opts)
    unclaimed = set(flats)
    records = []
    for flat in sorted(unclaimed):
        if flat not in unclaimed:
            continue
        images, stabilizer = _kernel.orbit(flat, n)
        rep = QuandleMatrix.from_flat(flat, n)
        # orbits are disjoint, so every member of this one must still be unclaimed
        missing = [image for image in images if image not in unclaimed]
        if missing or len(images) * len(stabilizer) != factorial(n):
            raise RuntimeError(
                f"orbit-stabilizer mismatch for {rep!r}: orbit size {len(images)}, "
                f"|Aut| = {len(stabilizer)}, {len(missing)} orbit members missing "
                f"from the scan"
            )
        unclaimed.difference_update(images)
        aut = stabilizer_group(n, stabilizer)
        records.append(
            ClassRecord(
                representative=rep,
                aut_order=aut.order,
                aut_id=identify_group(aut),
                np=len(images),
                latin=rep.is_latin(),
                connected=rep.is_connected(),
            )
        )
    return EnumerationReport(
        n=n,
        total_valid_matrices=len(flats),
        classes=tuple(records),
        elapsed=time.perf_counter() - start,
    )
