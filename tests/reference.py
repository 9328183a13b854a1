"""Slow reference implementations that the library's fast paths are checked against."""

import itertools

from quandles import Permutation, QuandleMatrix, QuandleParseError, VerificationReport, permute
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


def verify_by_triples(m: QuandleMatrix) -> VerificationReport:
    """QuandleMatrix.verify by definition: every pair of diagonal entries, then
    every pair in a column and every triple (i, j, k) of the standardized table."""
    n = m.n
    diag = m.diagonal()
    for i in range(n):
        for j in range(i + 1, n):
            if diag[i] == diag[j]:
                return VerificationReport(False, (("diagonal", (i + 1, j + 1)),))
    t = m.standardized().rows
    for j in range(n):
        seen: dict[int, int] = {}
        for i in range(n):
            v = t[i][j]
            if v in seen:
                return VerificationReport(False, (("column", (seen[v] + 1, i + 1, j + 1)),))
            seen[v] = i
    for i in range(n):
        ti = t[i]
        for j in range(n):
            tij = t[ti[j] - 1]
            tj = t[j]
            for k in range(n):
                if tij[k] != t[ti[k] - 1][tj[k] - 1]:
                    return VerificationReport(False, (("distributivity", (i + 1, j + 1, k + 1)),))
    return VerificationReport(True, ())


def parse_by_tokens(text: str) -> QuandleMatrix:
    """parse_matrix token by token: each line's tokens converted, then its
    length and row count checked, then its entries range-checked in order."""
    rows = []
    n = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        values = []
        for col, tok in enumerate(line.split(), start=1):
            try:
                values.append(int(tok))
            except ValueError:
                raise QuandleParseError(f"not an integer: {tok!r}", lineno, col) from None
        if n is None:
            n = len(values)
        if len(values) != n:
            raise QuandleParseError(f"expected {n} entries, got {len(values)}", lineno)
        if len(rows) == n:
            raise QuandleParseError(f"more than {n} data rows", lineno)
        for col, v in enumerate(values, start=1):
            if not 1 <= v <= n:
                raise QuandleParseError(f"entry {v} outside 1..{n}", lineno, col)
        rows.append(values)
    if n is None:
        raise QuandleParseError("no data lines", 1)
    if len(rows) != n:
        raise QuandleParseError(f"expected {n} data rows, got {len(rows)}", len(text.splitlines()) or 1)
    return QuandleMatrix(rows)
