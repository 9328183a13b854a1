"""Exhaustive classification of standard-form quandle tables of a given order.

Candidate tables are assembled column by column: position i draws from the
(n-1)! columns that fix i, so every candidate already satisfies the diagonal
and column conditions and only self-distributivity needs checking.  Column j
is the right translation R_j, and self-distributivity reads
R_{R_k(j)} = R_k R_j R_k^-1.  The scan branches on the least unplaced
column and forces every column the identity determines from the placed
ones, so only branches count as placements.

Relabelling conjugates the columns, so the scan keeps only tables in a
normal form: R_0 has the greatest cycle type in the table and is the first
column of its type at position 0.  Every class has such a member, usually a
few.  One walk over the relabellings of one of them per class then yields
the class's least table (its representative), Aut and np, and the union of
the orbits is every standard-form table.  The walk also checks the scan:
the images sharing the walked table's column 0 are the class's normal
forms, and each must be a scanned table that no earlier class claimed.
"""

from __future__ import annotations

import operator
import time
from bisect import bisect_left
from collections.abc import Iterator
from dataclasses import dataclass
from itertools import chain
from math import factorial

from . import _kernel
from .matrix import QuandleMatrix
from .permutation import PermGroup
from .symmetry import ClassRecord, identify_group

class ResourceLimitError(RuntimeError):
    """Raised when an enumeration would exceed its budget instead of hanging.

    The budget is charged one unit per column placement of the scan and n!
    per table the scan keeps, the relabellings that one pass of the walk
    deduplicating it may visit; the scan stops at the first charge past the
    cap, before any walk.  The compiled walk adds a coset pass, so it visits
    up to 2 * n! relabellings per walked class under that charge.
    """

    def __init__(self, n: int, placements: int, cap: int, relabellings: int):
        self.charged = placements + relabellings
        super().__init__(
            f"enumeration of order {n} aborted: {placements} column placements and "
            f"{relabellings} relabellings make {self.charged} (cap {cap})"
        )
        self.n = n
        self.placements = placements
        self.relabellings = relabellings
        self.cap = cap

    def __reduce__(self):
        return (ResourceLimitError, (self.n, self.placements, self.cap, self.relabellings))


@dataclass(frozen=True)
class EnumerationReport:
    """Classification of one order: class list plus run bookkeeping.

    Classes are sorted by their canonical representative (row-major lex);
    total_valid_matrices is np summed over classes, the number of
    standard-form tables.
    """

    n: int
    total_valid_matrices: int
    classes: tuple[ClassRecord, ...]
    elapsed: float


def _class_orbits(n: int, cap: int, keep: int) -> Iterator[_kernel.Walk]:
    """One _kernel.orbit(flat, n, keep) result per class, for a normal-form flat of the class.

    The normal-form tables come from one scan whose budget `cap` covers
    their orbit walks.  `keep` is KEEP_COLUMN0, whose images are the class's
    normal forms, or KEEP_ALL.  Checks the scan with the walk's own images
    as it goes: those sharing `flat`'s column 0, one run of the sorted
    column tuples, are the class's normal forms, and each, turned back into
    its table, must be a scanned table not yet claimed; the walk then claims
    them.  A kept orbit must number n! / |Aut|.  A scanned table outside the
    normal forms of its class, or one that the class's walk lost from its
    normal forms, shows as a class walked twice.
    """
    if operator.index(cap) < 1:  # 0.5 is a TypeError, like every non-integral cap
        raise ValueError("cap must be positive")
    flats, placements, hit = _kernel.scan(n, cap=cap)
    if hit:
        raise ResourceLimitError(n, placements, cap, len(flats) * factorial(n))
    unclaimed = set(flats)
    if len(unclaimed) != len(flats):
        raise RuntimeError(f"the order-{n} scan emitted a table twice")
    walked = set()
    to_rows = _kernel._column_gather(n)  # a column tuple's table: transposing is its own inverse
    for flat in flats:
        if flat not in unclaimed:
            continue
        walk = _kernel.orbit(flat, n, keep)
        least, stabilizer, images = walk
        if least in walked:
            raise RuntimeError(
                f"class of {QuandleMatrix.from_flat(least, n)!r} walked twice, the second time from "
                f"{QuandleMatrix.from_flat(flat, n)!r}: either the scan kept a table outside its "
                "normal forms or an earlier walk of the class lost that table from its normal forms"
            )
        walked.add(least)
        if keep == _kernel.KEEP_ALL and len(images) * len(stabilizer) != factorial(n):
            raise RuntimeError(
                f"orbit-stabilizer mismatch for {QuandleMatrix.from_flat(flat, n)!r}: "
                f"{len(images)} images, |Aut| = {len(stabilizer)}"
            )
        # the run of images whose column 0 is flat's; every entry is below 0xff
        head = flat[::n]
        start = bisect_left(images, head)
        normal = [bytes(to_rows(image)) for image in images[start : bisect_left(images, head + b"\xff", start)]]
        if not unclaimed.issuperset(normal):
            missing = min(table for table in normal if table not in unclaimed)
            raise RuntimeError(
                f"orbit-stabilizer mismatch for {QuandleMatrix.from_flat(flat, n)!r}: its normal form "
                f"{QuandleMatrix.from_flat(missing, n)!r} is missing from the scan"
            )
        unclaimed.difference_update(normal)
        yield walk


_JOIN_CHUNK = 4096  # images per join, which holds a buffer view of each besides its result


def _table_blob(n: int, cap: int) -> bytes:
    """The all_tables(n, cap=cap) tables concatenated in their order, for callers that
    need no list of them.  Raises as all_tables does.  Each walk's images are a
    sorted run of column tuples, so the sort merges runs.  The sorted images go
    into one buffer a bounded join at a time, and the list is dropped before the
    transpose."""
    images = sorted(chain.from_iterable(images for _, _, images in _class_orbits(n, cap, _kernel.KEEP_ALL)))
    nn = n * n
    blob = bytearray(len(images) * nn)
    for k in range(0, len(images), _JOIN_CHUNK):
        blob[k * nn : (k + _JOIN_CHUNK) * nn] = b"".join(images[k : k + _JOIN_CHUNK])
    del images
    return _kernel.transpose(blob, n)


def all_tables(n: int, *, cap: int = _kernel.DEFAULT_CAP) -> list[bytes]:
    """Every standard-form quandle table of order n, as row-major 1-based bytes.

    The union of the class orbits in the lexicographic order of their
    column tuples, the order in which each walk returns its class's images;
    one sort merges those runs.  Raises ResourceLimitError before any orbit
    walk when the budget `cap` does not cover the scan and n! relabellings
    per scanned table; under the default cap that happens first at n = 9.
    The compiled walk visits up to 2 * n! relabellings per walked class, one
    pass for Aut and one coset pass for the images, under that same charge
    of n! per kept table.  A cap below 1 is a ValueError, a non-integral one
    a TypeError.
    """
    nn = n * n
    rows = _table_blob(n, cap)
    return [rows[k : k + nn] for k in range(0, len(rows), nn)]


def enumerate_all(n: int, *, cap: int = _kernel.DEFAULT_CAP) -> Iterator[QuandleMatrix]:
    """Every standard-form quandle table of order n, exactly once, in all_tables order.

    The tables are found at the call, so an order outside 1..MAX_ORDER or
    a cap below 1 raises ValueError there, as all_tables does, and so does
    ResourceLimitError when the budget is too small; under the default cap
    that happens first at n = 9.  Each QuandleMatrix is made as it is
    iterated.
    """
    flats = all_tables(n, cap=cap)
    return (QuandleMatrix.from_flat(flat, n) for flat in flats)


def enumerate_classes(n: int, *, cap: int = _kernel.DEFAULT_CAP) -> EnumerationReport:
    """Classify the standard-form tables of order n up to isomorphism.

    Each class makes a single walk from one of its normal-form tables that
    keeps only the class's normal forms: the least image is the canonical
    representative, the stabilizer's order is |Aut| (its group is conjugate
    to the representative's, so the label is the same) and np is n! / |Aut|.  Each class keeps its
    representative, automorphism group data, np, and the latin and
    connectivity flags.  Raises ResourceLimitError as all_tables does.
    """
    start = time.perf_counter()
    keyed = []  # (representative bytes, record): bytes order like the row tuples
    for least, stabilizer, _ in _class_orbits(n, cap, _kernel.KEEP_COLUMN0):
        rep = QuandleMatrix.from_flat(least, n)
        aut = PermGroup._of_words(n, stabilizer)
        record = ClassRecord(
            representative=rep,
            aut_order=aut.order,
            aut_id=identify_group(aut),
            np=factorial(n) // aut.order,
            latin=rep.is_latin(),
            connected=rep.is_connected(),
        )
        keyed.append((least, record))
    keyed.sort(key=lambda pair: pair[0])
    records = [record for _, record in keyed]
    return EnumerationReport(
        n=n,
        total_valid_matrices=sum(rec.np for rec in records),
        classes=tuple(records),
        elapsed=time.perf_counter() - start,
    )
