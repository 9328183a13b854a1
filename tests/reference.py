"""Slow reference implementations that the library's fast paths are checked against."""

import itertools
from math import gcd

from quandles import Permutation, QuandleMatrix, QuandleParseError, VerificationReport, permute
from quandles._kernel import KEEP_ALL, KEEP_COLUMN0
from quandles.permutation import all_permutations


def np_count_explicit(m: QuandleMatrix) -> int:
    """Number of standard-form tables in m's class, by materializing the whole relabelling orbit."""
    seen = set()
    for images in itertools.permutations(range(1, m.n + 1)):
        seen.add(permute(m, Permutation(images)).rows)
    return len(seen)


def alexander_by_definition(modulus: int, coeffs) -> list[list[int]]:
    """The rows of construct.alexander's table, from its docstring's definition.

    Element k is the polynomial whose coefficients, constant first, are the
    base-modulus digits of k - 1, most significant first.  a▷b is the
    polynomial t·a + (1-t)·b, reduced mod p(t) by long division.
    """
    p = [c % modulus for c in coeffs]
    d = len(p) - 1
    size = modulus**d

    def element(k):
        return [(k - 1) // modulus ** (d - 1 - i) % modulus for i in range(d)]

    def times(f, g):
        product = [0] * (len(f) + len(g) - 1)
        for i, x in enumerate(f):
            for j, y in enumerate(g):
                product[i + j] += x * y
        return product

    def mod_p(f):
        f = f + [0] * (d + 1 - len(f))
        for top in range(len(f) - 1, d - 1, -1):  # p is monic: subtract f[top]·t^(top-d)·p
            lead = f[top]
            for i in range(d + 1):
                f[top - d + i] -= lead * p[i]
        return tuple(c % modulus for c in f[:d])

    index = {tuple(element(k)): k for k in range(1, size + 1)}
    rows = []
    for i in range(1, size + 1):
        ta = times([0, 1], element(i))
        row = []
        for j in range(1, size + 1):
            b = times([1, -1], element(j))
            row.append(index[mod_p([x + y for x, y in itertools.zip_longest(ta, b, fillvalue=0)])])
        rows.append(row)
    return rows


def alexander_presentations(max_size: int):
    """Every (modulus, coeffs) with p monic, t invertible and modulus**degree <= max_size."""
    for modulus in range(2, max_size + 1):
        d = 1
        while modulus**d <= max_size:
            for low in itertools.product(range(modulus), repeat=d):
                if gcd(low[0], modulus) == 1:
                    yield modulus, low + (1,)
            d += 1


def orbit_by_relabelling(flat: bytes, n: int, keep: int):
    """_kernel.orbit's walk one relabelling at a time, for a well-formed table.

    For each rho in lexicographic order: translate the entries through rho,
    invert rho with an n-step loop and move every entry to its new place.
    Returns (least, witness, stabilizer, images) as the kernel does.
    """
    least, witness = flat, bytes(range(1, n + 1))
    stabilizer: list[bytes] = []
    images: set[bytes] = set()
    column0 = flat[::n]
    values = bytearray(range(256))
    inverse = [0] * n
    rng = range(n)
    for p in itertools.permutations(rng):
        word = bytes(v + 1 for v in p)
        values[1 : n + 1] = word
        relabelled = flat.translate(values)
        for i in rng:
            inverse[p[i]] = i
        # out[a][b] = rho(flat[rho^-1(a)][rho^-1(b)])
        cand = bytes([relabelled[q * n + r] for q in inverse for r in inverse])
        if cand < least:
            least, witness = cand, word
        if cand == flat:
            stabilizer.append(word)
        if keep == KEEP_ALL or (keep == KEEP_COLUMN0 and cand[::n] == column0):
            images.add(cand)
    return least, witness, stabilizer, images


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
