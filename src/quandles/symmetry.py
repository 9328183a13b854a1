"""Relabelling action on quandle tables: isomorphism, automorphisms, canonical forms.

A permutation ρ acts on a standard-form table M by sending entry (i, j) to
position (ρ(i), ρ(j)) with value ρ(M[i][j]); the result is again standard
form, and two tables present isomorphic quandles exactly when one is the
image of the other under some ρ.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from math import factorial

from . import _kernel
from .matrix import QuandleMatrix
from .permutation import PermGroup, Permutation


def permute(m: QuandleMatrix, rho: Permutation) -> QuandleMatrix:
    """Relabel m by rho: result[rho(i)][rho(j)] = rho(m[i][j])."""
    if rho.degree != m.n:
        raise ValueError(f"degree {rho.degree} does not match order {m.n}")
    n = m.n
    p = rho.images
    out = [[0] * n for _ in range(n)]
    for i in range(n):
        row = m.rows[i]
        target = out[p[i] - 1]
        for j in range(n):
            target[p[j] - 1] = p[row[j] - 1]
    return QuandleMatrix(out)


def are_isomorphic(a: QuandleMatrix, b: QuandleMatrix) -> Permutation | None:
    """A witness rho with permute(a, rho) == b, or None.

    When several witnesses exist the one with lexicographically least image
    array is returned, so the output is reproducible.
    """
    if a.n != b.n:
        return None
    witness = _kernel.orbit(a.flat(), a.n)[0].get(b.flat())
    return None if witness is None else Permutation._unchecked(tuple(witness))


def stabilizer_group(n: int, stabilizer: list[bytes]) -> PermGroup:
    """The group of the relabellings in a stabilizer list from _kernel.orbit."""
    return PermGroup(n, (Permutation._unchecked(tuple(w)) for w in stabilizer), _trusted=True)


def automorphism_group(m: QuandleMatrix) -> PermGroup:
    """All permutations fixing m under the relabelling action."""
    return stabilizer_group(m.n, _kernel.orbit(m.flat(), m.n)[1])


def np_count(m: QuandleMatrix) -> int:
    """Number of standard-form tables in m's class: n! / |Aut| (orbit-stabilizer)."""
    return factorial(m.n) // automorphism_group(m).order


def np_count_explicit(m: QuandleMatrix) -> int:
    """Same count by materializing the whole relabelling orbit (debug path)."""
    seen = set()
    for images in itertools.permutations(range(1, m.n + 1)):
        seen.add(permute(m, Permutation(images)).rows)
    return len(seen)


def canonical_form(m: QuandleMatrix) -> QuandleMatrix:
    """Lexicographically least table (row-major) in m's relabelling orbit.

    Two valid standard-form tables are isomorphic iff their canonical forms
    are entrywise equal.
    """
    return QuandleMatrix.from_flat(_kernel.canon_min(m.flat(), m.n), m.n)


def determinant(m: QuandleMatrix) -> int:
    """Exact integer determinant of the entry matrix (Bareiss elimination).

    Not an isomorphism invariant; exposed to make that easy to demonstrate.
    """
    a = [list(row) for row in m.rows]
    n = m.n
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for r in range(k + 1, n):
                if a[r][k] != 0:
                    a[k], a[r] = a[r], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


@dataclass(frozen=True)
class GroupId:
    """Isomorphism-type label plus the fingerprint that produced it.

    The fingerprint (order, element-order histogram, abelian flag, center
    order) separates all groups in the built-in label table; anything else
    gets label "unidentified" with its fingerprint attached.
    """

    label: str
    order: int
    order_histogram: tuple[tuple[int, int], ...]
    abelian: bool
    center_order: int

    @property
    def fingerprint(self) -> tuple:
        return (self.order, self.order_histogram, self.abelian, self.center_order)

    def __str__(self) -> str:
        return self.label


def _fingerprint(g: PermGroup) -> tuple:
    # abelian is the same fact as a full center
    center = g.center_order()
    return (g.order, g.element_order_histogram(), center == g.order, center)


@lru_cache(maxsize=1)
def _label_table() -> dict[tuple, str]:
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
        # Z6 and Z3+Z2 are the same group; the classification tables for
        # small quandles write the direct-sum form, so that label wins.
        ("Z3xZ2", [cyc((1, 2, 3, 4, 5, 6))]),
        ("S3", [pad(cyc((1, 2)), 3), cyc((1, 2, 3))]),
        ("D8", [cyc((1, 2, 3, 4)), pad(cyc((1, 3)), 4)]),
        ("A4", [pad(cyc((1, 2, 3)), 4), cyc((2, 3, 4))]),
        ("S3xZ2", [pad(cyc((1, 2)), 5), pad(cyc((1, 2, 3)), 5), cyc((4, 5))]),
        # affine maps x -> u*x + v of Z/5, the order-20 subgroup of S5; the
        # customary label for it in small-quandle tables is D20
        ("D20", [cyc((1, 2, 3, 4, 5)), cyc((2, 3, 5, 4))]),
        ("S4", [pad(cyc((1, 2)), 4), cyc((1, 2, 3, 4))]),
        ("S5", [pad(cyc((1, 2)), 5), cyc((1, 2, 3, 4, 5))]),
    ]
    table: dict[tuple, str] = {}
    for label, gens in named:
        fp = _fingerprint(PermGroup.generate(gens))
        if fp in table:
            raise RuntimeError(f"fingerprint collision: {label} vs {table[fp]}")
        table[fp] = label
    return table


def identify_group(g: PermGroup) -> GroupId:
    """Match g's fingerprint against the built-in table of small-group labels."""
    fp = _fingerprint(g)
    label = _label_table().get(fp, "unidentified")
    return GroupId(label, fp[0], fp[1], fp[2], fp[3])


@dataclass(frozen=True)
class ClassRecord:
    """One isomorphism class: canonical representative plus its invariants."""

    representative: QuandleMatrix
    aut_order: int
    aut_id: GroupId
    np: int
    latin: bool
    connected: bool

    def __post_init__(self):
        if self.np * self.aut_order != factorial(self.representative.n):
            raise ValueError("np * |Aut| must equal n!")
