"""Quandle operation tables as integer matrices.

A quandle of order n is encoded by the n×n table whose (i, j) entry is i▷j,
columns acting on rows.  A table is *standard form* when its diagonal reads
1, 2, .., n; every valid table can be put in standard form by simultaneously
reordering rows and columns, because the diagonal of a valid table is always
a permutation of {1..n}.  Three conditions characterize the tables that come
from quandles:

  (i)   diagonal entries are pairwise distinct,
  (ii)  every column is a permutation of {1..n},
  (iii) t[t[i][j]][k] == t[t[i][k]][t[j][k]] for all i, j, k (checked in
        standard form).

With R_j the column permutation i -> t[i][j], (iii) says R_k∘R_j =
R_{R_k(j)}∘R_k for every pair (j, k): the condition is one equation between
two compositions of columns per pair, and `verify` checks it that way.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from collections.abc import Iterable

from . import _kernel
from .permutation import PermGroup, Permutation, closure, orbit_partition


class QuandleParseError(ValueError):
    """Malformed matrix text; carries the message and 1-based line/column of the offence."""

    def __init__(self, message: str, line: int, column: int = 0):
        super().__init__(f"line {line}" + (f", column {column}" if column else "") + f": {message}")
        self.message = message
        self.line = line
        self.column = column

    def __reduce__(self):
        return (QuandleParseError, (self.message, self.line, self.column))


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of the three-condition table check.

    `failures` holds at most one entry, for the first condition that fails in
    the order diagonal → column → distributivity.  Witness index tuples are
    1-based: ("diagonal", (i, j)) marks two rows with equal diagonal entries,
    ("column", (i, k, j)) marks equal entries in rows i, k of column j, and
    ("distributivity", (i, j, k)) is the lexicographically first failing
    triple, found on the standardized matrix.
    """

    valid: bool
    failures: tuple[tuple[str, tuple[int, ...]], ...]


class QuandleMatrix:
    """Immutable n×n table with entries in {1..n}.

    Construction checks only shape and entry range; call `verify` for the
    quandle conditions.  Operations documented as requiring a valid table
    assume `verify().valid` and standard form.
    """

    __slots__ = ("rows",)

    def __init__(self, rows: Iterable[Iterable[int]]):
        rows = tuple(tuple(r) for r in rows)
        n = len(rows)
        if n == 0:
            raise ValueError("empty matrix")
        for r in rows:
            if len(r) != n:
                raise ValueError(f"not square: row of length {len(r)} in a {n}-row matrix")
            for x in r:
                # bool is an int subclass but not an entry; exact ints skip both isinstance calls
                odd_type = type(x) is not int and (isinstance(x, bool) or not isinstance(x, int))
                if odd_type or not 1 <= x <= n:
                    raise ValueError(f"entry {x!r} outside 1..{n}")
        object.__setattr__(self, "rows", rows)

    @classmethod
    def _unchecked(cls, rows: tuple[tuple[int, ...], ...]) -> QuandleMatrix:
        """Wrap rows that are square tuples of ints in 1..n by construction, unchecked."""
        table = object.__new__(cls)
        object.__setattr__(table, "rows", rows)
        return table

    def __setattr__(self, name, value):
        raise AttributeError("QuandleMatrix is immutable")

    def __reduce__(self):
        return (QuandleMatrix, (self.rows,))

    @property
    def n(self) -> int:
        return len(self.rows)

    @classmethod
    def from_flat(cls, flat: bytes | Iterable[int], n: int) -> QuandleMatrix:
        """The n x n table with row-major entries `flat`; exactly n*n of them.

        Checked as the constructor checks, with the same errors; bytes of
        the right length are range-checked in one pass, by deleting the
        entries 1..n and looking at what is left.
        """
        if isinstance(flat, bytes) and n >= 1 and len(flat) == n * n:
            stray = flat.translate(None, bytes(range(1, min(n, 255) + 1)))
            if stray:
                raise ValueError(f"entry {stray[0]!r} outside 1..{n}")
            return cls._unchecked(_rows(flat, n))
        flat = list(flat)
        if len(flat) != n * n:
            raise ValueError(f"flat table has {len(flat)} entries, an order-{n} table has {n * n}")
        return cls(flat[i * n : (i + 1) * n] for i in range(n))

    def flat(self) -> bytes:
        """Row-major bytes of the 1-based entries (n ≤ 255)."""
        return bytes(itertools.chain.from_iterable(self.rows))

    def apply(self, i: int, j: int) -> int:
        """The product i▷j, i.e. the entry in row i, column j (1-based)."""
        if not (1 <= i <= self.n and 1 <= j <= self.n):
            raise IndexError(f"indices ({i}, {j}) outside 1..{self.n}")
        return self.rows[i - 1][j - 1]

    def row(self, i: int) -> tuple[int, ...]:
        if not 1 <= i <= self.n:
            raise IndexError(f"row {i} outside 1..{self.n}")
        return self.rows[i - 1]

    def column(self, j: int) -> tuple[int, ...]:
        if not 1 <= j <= self.n:
            raise IndexError(f"column {j} outside 1..{self.n}")
        return tuple(r[j - 1] for r in self.rows)

    def diagonal(self) -> tuple[int, ...]:
        return tuple(self.rows[i][i] for i in range(self.n))

    def is_standard(self) -> bool:
        return all(self.rows[i][i] == i + 1 for i in range(self.n))

    def column_permutation(self, j: int) -> Permutation:
        """The right-translation i ↦ i▷j; a bijection fixing j on valid tables."""
        return Permutation(self.column(j))

    def trace(self) -> int:
        """Sum of the diagonal; n(n+1)/2 on every valid standard-form table."""
        return sum(self.diagonal())

    def standardized(self) -> QuandleMatrix:
        """Reorder rows and columns together so the diagonal reads 1..n.

        Entries are not relabelled.  Requires the diagonal to be a permutation
        of {1..n}; idempotent on standard-form input.
        """
        diag = self.diagonal()
        if sorted(diag) != list(range(1, self.n + 1)):
            raise ValueError(f"diagonal {diag} is not a permutation of 1..{self.n}")
        if self.is_standard():
            return self
        where = {v: i for i, v in enumerate(diag)}  # row whose diagonal holds v
        order = [where[v] for v in range(1, self.n + 1)]
        return QuandleMatrix._unchecked(tuple(tuple(self.rows[i][j] for j in order) for i in order))

    def verify(self) -> VerificationReport:
        """Check the three table conditions, reporting the first failure.

        Up to order 255 the compiled kernel, when present, makes the whole
        check on the table's bytes (`_speedups.verify`): the same conditions
        in the same order, the same witnesses.  The pure check below is its
        mirror.  (i) and (ii) compare set sizes, and only a failed check
        looks for its witness.  (iii) is checked in column form on the
        standardized table: R_k∘R_j = R_{R_k(j)}∘R_k for every pair (j, k),
        where R_j is column j as the permutation i -> i▷j.  Entry i of the
        two sides is t[t[i][j]][k] and t[t[i][k]][t[j][k]], so the first
        failing triple (i, j, k) is the least over the failing pairs, with i
        the first point at which the pair's two compositions differ.
        """
        n = self.n
        speedups = _kernel._speedups
        if speedups is not None and n <= _kernel.MAX_DEGREE:
            failure = speedups.verify(self.flat(), n)
            return VerificationReport(failure is None, () if failure is None else (failure,))
        diag = self.diagonal()
        if len(set(diag)) < n:
            # the first point with a repeated value has all its repeats after it
            i = next(i for i, v in enumerate(diag) if diag.count(v) > 1)
            return VerificationReport(False, (("diagonal", (i + 1, diag.index(diag[i], i + 1) + 1)),))
        columns = list(zip(*self.standardized().rows))
        for j, col in enumerate(columns):
            if len(set(col)) < n:
                i = next(i for i, v in enumerate(col) if v in col[:i])
                return VerificationReport(False, (("column", (col.index(col[i]) + 1, i + 1, j + 1)),))
        triple = _first_nondistributive(columns)
        if triple is not None:
            return VerificationReport(False, (("distributivity", triple),))
        return VerificationReport(True, ())

    def dual(self) -> QuandleMatrix:
        """The table of a◁b, obtained by inverting every column permutation."""
        cols = [self.column_permutation(j).inverse() for j in range(1, self.n + 1)]
        return QuandleMatrix(
            tuple(cols[j](i) for j in range(self.n)) for i in range(1, self.n + 1)
        )

    def is_latin(self) -> bool:
        """True when every row is also a permutation of {1..n}."""
        n = self.n
        return all(len(set(r)) == n for r in self.rows)  # entries lie in 1..n

    def inner_group(self) -> PermGroup:
        """Group generated by the column permutations; a finite group holds their inverses."""
        return PermGroup.generate([self.column_permutation(j) for j in range(1, self.n + 1)], self.n)

    def orbits(self) -> tuple[tuple[int, ...], ...]:
        """Orbit partition under the inner group, generated by the columns; assumes a valid table."""
        return orbit_partition(self.n, zip(*self.rows))

    def is_connected(self) -> bool:
        """True when the inner group acts transitively; assumes a valid table.

        R_j(i) is row i's entry j, so closing {1} under "take every entry of
        the row" gives the orbit of 1 under the maps R_j; on a valid table
        they are permutations and that is its orbit under the inner group.
        """
        rows = self.rows
        return len(closure([1], lambda i: rows[i - 1])) == len(rows)

    def to_text(self) -> str:
        """The interchange format: n lines of n space-separated integers."""
        return "\n".join(" ".join(map(str, r)) for r in self.rows)

    def to_machine_line(self) -> str:
        """Row-major comma-separated entries on one line."""
        return ",".join(str(x) for row in self.rows for x in row)

    def __eq__(self, other) -> bool:
        return isinstance(other, QuandleMatrix) and self.rows == other.rows

    def __hash__(self) -> int:
        return hash(self.rows)

    def __repr__(self) -> str:
        return f"QuandleMatrix({[list(r) for r in self.rows]!r})"

    def __str__(self) -> str:
        return self.to_text()


def _rows(flat: bytes, n: int) -> tuple[tuple[int, ...], ...]:
    """The rows of a row-major n x n table of bytes, as tuples of ints."""
    return tuple(zip(*[iter(flat)] * n))  # n times one iterator: zip takes n entries per row


def _first_nondistributive(columns: list[tuple[int, ...]]) -> tuple[int, int, int] | None:
    """The least 1-based (i, j, k) with R_k(R_j(i)) != R_{R_k(j)}(R_k(i)), or None.

    `columns` are the n columns of a standard-form table, each a
    permutation of 1..n.  For each k, relabelling all the columns joined
    together through R_k gives R_k∘R_j for every j, and relabelling column
    k through each R_{R_k(j)} gives the other sides; the two are compared
    whole.  Up to order 255 a column is bytes and a relabelling one
    bytes.translate; past that, entries do not fit a byte, and tuples and
    itemgetter stand in.
    """
    n = len(columns)
    # sides yields, per k, both sides for every j, joined in order of j
    if n <= 255:
        cols = [bytes(c) for c in columns]
        pad = bytes(255 - n)
        images = [b""] + [b"\0" + c + pad for c in cols]  # images[x] sends y to R_x(y)
        joined = b"".join(cols)
        sides = (
            (joined.translate(images[k]), b"".join([ck.translate(images[x]) for x in ck]))
            for k, ck in enumerate(cols, start=1)
        )
    else:
        chain = itertools.chain.from_iterable
        images = [()] + [(0,) + c for c in columns]
        take_joined = operator.itemgetter(*chain(columns))
        sides = (
            (take_joined(images[k]), tuple(chain(map(operator.itemgetter(*ck), map(images.__getitem__, ck)))))
            for k, ck in enumerate(columns, start=1)
        )
    best = None
    for k, (left, right) in enumerate(sides):
        if left == right:
            continue
        for j in range(n):
            a, b = left[j * n : (j + 1) * n], right[j * n : (j + 1) * n]
            if a != b:
                i = next(i for i in range(n) if a[i] != b[i])
                best = min(best or (i, j, k), (i, j, k))
    return None if best is None else (best[0] + 1, best[1] + 1, best[2] + 1)


def parse_matrix(text: str) -> QuandleMatrix:
    """Parse the matrix text format.

    Lines starting with '#' and blank lines are ignored; the first data line
    fixes n.  The table is returned unvalidated (shape and entry range are
    still enforced).  Raises QuandleParseError with the physical line number.
    The compiled kernel, when present, reads the plain format that to_text()
    writes: ASCII, entries of the digits 0-9 separated by spaces or tabs,
    lines ended by \\n or \\r\\n, blank lines allowed, n lines of n entries in
    1..n with n <= 255.  It declines all other text, so comments, other
    whitespace and every malformed table come to the pure parser below, the
    one source of every error.  That parser converts and range-checks each
    line whole; only a line that fails is searched for its offending token.
    """
    speedups = _kernel._speedups
    flat = None if speedups is None else speedups.parse(text)
    if flat is not None:
        return QuandleMatrix._unchecked(_rows(flat, math.isqrt(len(flat))))
    rows: list[tuple[int, ...]] = []
    n: int | None = None
    lines = text.splitlines()
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        tokens = line.split()
        try:
            values = tuple(map(int, tokens))
        except ValueError:
            for col, tok in enumerate(tokens, start=1):
                try:
                    int(tok)
                except ValueError:
                    raise QuandleParseError(f"not an integer: {tok!r}", lineno, col) from None
        if n is None:
            n = len(values)
        if len(values) != n:
            raise QuandleParseError(f"expected {n} entries, got {len(values)}", lineno)
        if len(rows) == n:
            raise QuandleParseError(f"more than {n} data rows", lineno)
        if min(values) < 1 or max(values) > n:
            col, v = next((col, v) for col, v in enumerate(values, start=1) if not 1 <= v <= n)
            raise QuandleParseError(f"entry {v} outside 1..{n}", lineno, col)
        rows.append(values)
    if n is None:
        raise QuandleParseError("no data lines", 1)
    if len(rows) != n:
        raise QuandleParseError(f"expected {n} data rows, got {len(rows)}", len(lines) or 1)
    return QuandleMatrix._unchecked(tuple(rows))
