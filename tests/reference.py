"""Slow reference implementations that the library's fast paths are checked against."""

import itertools
from collections import Counter
from math import factorial, gcd

from quandles import PermGroup, Permutation, QuandleMatrix, QuandleParseError, VerificationReport, permute
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
    Returns (least, stabilizer, images) as the kernel does, the
    stabilizer as a tuple and the images collected as a set and given as
    sorted column tuples.
    """
    least = flat
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
        least = min(least, cand)
        if cand == flat:
            stabilizer.append(word)
        if keep == KEEP_ALL or (keep == KEEP_COLUMN0 and cand[::n] == column0):
            images.add(cand)
    return least, tuple(stabilizer), sorted(columns(image, n) for image in images)


def columns(flat: bytes, n: int) -> bytes:
    """The column tuple of a row-major n x n table: its columns R_0 … R_{n-1} concatenated.

    It is the transpose, so it also turns a column tuple back into the table.
    """
    return bytes(flat[i * n + j] for j in range(n) for i in range(n))


def unrestricted_scan(n: int) -> list[bytes]:
    """Every quandle table of order n, row-major 1-based bytes, in column-tuple order.

    The column scan with no normal form: the least unset position draws
    from every column fixing it, in lexicographic order, and each placement
    forces R_{R_k(j)} = R_k R_j R_k^-1 for every pair of set positions, in
    both orders, until nothing new is set, rejecting a contradiction.  It
    shares neither the relabelling walk nor the normal form with all_tables.
    """
    rng = range(n)
    candidates = [[col for col in itertools.permutations(rng) if col[i] == i] for i in rng]
    cols: list[tuple[int, ...] | None] = [None] * n
    trail: list[int] = []  # positions in the order they were set
    out: list[bytes] = []

    def force(k, j):  # R_{R_k(j)} = R_k R_j R_k^-1; False when it contradicts a set column
        forced = [0] * n
        for y in rng:
            forced[cols[k][y]] = cols[k][cols[j][y]]
        t = cols[k][j]
        if cols[t] is None:
            cols[t] = tuple(forced)
            trail.append(t)
            return True
        return cols[t] == tuple(forced)

    def propagate(start):
        # a position's pairs with those set after it are met when those are dequeued
        q = start
        while q < len(trail):
            a = trail[q]
            if not all(force(a, b) and force(b, a) for b in trail[: q + 1]):
                return False
            q += 1
        return True

    def walk():
        d = cols.index(None)
        mark = len(trail)
        for col in candidates[d]:
            cols[d] = col
            trail.append(d)
            if propagate(mark):
                if len(trail) < n:
                    walk()
                else:
                    out.append(bytes(cols[j][i] + 1 for i in rng for j in rng))
            while len(trail) > mark:
                cols[trail.pop()] = None

    walk()
    return out


def normal_forms_in_class(flat: bytes, n: int, aut_order: int) -> int:
    """How many tables in the scan's normal form share the class of `flat`, itself one, by theory.

    A relabelling rho maps the table into normal form exactly when it sends
    some x whose R_x has the greatest cycle type t to 0 and conjugates R_x
    onto R_0; for each such x those rho are a coset of the centralizer of
    R_0 among permutations fixing 0, of order c(t) = prod k^m_k m_k! over t
    less one fixed point.  Each image is reached |Aut| times, so the count
    is #max * c(t) / |Aut|, #max the columns of type t.  Cycle types come
    from Permutation.cycles, not from the kernel.
    """

    def cycle_type(column):
        lengths = [len(c) for c in Permutation(column).cycles()]
        return tuple(sorted(lengths + [1] * (n - sum(lengths)), reverse=True))

    types = [cycle_type(flat[j::n]) for j in range(n)]
    centralizer = 1
    for length, mult in Counter(types[0][:-1]).items():
        centralizer *= length**mult * factorial(mult)
    return types.count(types[0]) * centralizer // aut_order


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


def named_groups() -> list[tuple[str, PermGroup]]:
    """The groups that symmetry's labels name, each generated from a few permutations."""

    def cyc(*entries) -> Permutation:
        n = max(x for c in entries for x in c)
        return Permutation.from_cycles(n, entries)

    def pad(p: Permutation, n: int) -> Permutation:
        return Permutation(tuple(p.images) + tuple(range(p.degree + 1, n + 1)))

    named: list[tuple[str, list[Permutation]]] = [
        ("Z1", [Permutation.identity(1)]),
        ("Z2", [cyc((1, 2))]),
        ("Z3", [cyc((1, 2, 3))]),
        ("Z4", [cyc((1, 2, 3, 4))]),
        ("Z2xZ2", [pad(cyc((1, 2)), 4), cyc((3, 4))]),
        ("Z5", [cyc((1, 2, 3, 4, 5))]),
        ("Z3xZ2", [cyc((1, 2, 3, 4, 5, 6))]),
        ("S3", [pad(cyc((1, 2)), 3), cyc((1, 2, 3))]),
        ("D8", [cyc((1, 2, 3, 4)), pad(cyc((1, 3)), 4)]),
        ("A4", [pad(cyc((1, 2, 3)), 4), cyc((2, 3, 4))]),
        ("S3xZ2", [pad(cyc((1, 2)), 5), pad(cyc((1, 2, 3)), 5), cyc((4, 5))]),
        ("D20", [cyc((1, 2, 3, 4, 5)), cyc((2, 3, 5, 4))]),  # x -> u*x + v on Z/5
        ("S4", [pad(cyc((1, 2)), 4), cyc((1, 2, 3, 4))]),
        ("S5", [pad(cyc((1, 2)), 5), cyc((1, 2, 3, 4, 5))]),
    ]
    return [(label, PermGroup.generate(gens)) for label, gens in named]
