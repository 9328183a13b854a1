"""Relabelling action on quandle tables: isomorphism, automorphisms, canonical forms.

A permutation ρ acts on a standard-form table M by sending entry (i, j) to
position (ρ(i), ρ(j)) with value ρ(M[i][j]); the result is again standard
form, and two tables present isomorphic quandles exactly when one is the
image of the other under some ρ.
"""

from __future__ import annotations

from dataclasses import dataclass
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
    e = m._entries
    q = sorted(range(n), key=p.__getitem__)  # rho sends point q[a] + 1 to a + 1
    return QuandleMatrix._unchecked([p[e[i * n + j] - 1] for i in q for j in q], n)


def are_isomorphic(a: QuandleMatrix, b: QuandleMatrix) -> Permutation | None:
    """A witness rho with permute(a, rho) == b, or None.

    When several witnesses exist the one with lexicographically least image
    array is returned, so the output is reproducible.  It comes from one
    depth-first search over partial relabellings, `_kernel.isomorphism`:
    each choice of an image is extended by the table equations to every
    point they force, so neither table's n! relabellings are walked.
    """
    if a.n != b.n:
        return None
    witness = _kernel.isomorphism(a._entries, b._entries, a.n)
    return None if witness is None else Permutation._unchecked(tuple(witness))


def automorphism_group(m: QuandleMatrix) -> PermGroup:
    """All permutations fixing m under the relabelling action: one walk's stabilizer, held as it comes."""
    return PermGroup._of_words(m.n, _kernel.orbit(m._entries, m.n)[1])


def np_count(m: QuandleMatrix) -> int:
    """Number of standard-form tables in m's class: n! / |Aut| (orbit-stabilizer)."""
    return factorial(m.n) // len(_kernel.orbit(m._entries, m.n)[1])


def canonical_form(m: QuandleMatrix) -> QuandleMatrix:
    """Lexicographically least table (row-major) in m's relabelling orbit.

    Two valid standard-form tables are isomorphic iff their canonical forms
    are entrywise equal.  The least image comes from one walk that keeps
    no other image.
    """
    return QuandleMatrix.from_flat(_kernel.canon_min(m._entries, m.n), m.n)


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

    def __str__(self) -> str:
        return self.label


def _fingerprint(g: PermGroup) -> tuple:
    # abelian is the same fact as a full center
    center = g.center_order()
    return (g.order, g.element_order_histogram(), center == g.order, center)


# fingerprint -> label for the groups that labels name; tests/reference.py
# generates each group from a few permutations, and a test checks that they
# give exactly these fingerprints, no two alike.  Z6 and Z3+Z2 are the same
# group; small-quandle classification tables write the direct-sum form, so
# that label wins.  D20 is the affine group x -> u*x + v of Z/5, the order-20
# subgroup of S5, under its customary label in small-quandle tables.
_LABELS: dict[tuple, str] = {
    (1, ((1, 1),), True, 1): "Z1",
    (2, ((1, 1), (2, 1)), True, 2): "Z2",
    (3, ((1, 1), (3, 2)), True, 3): "Z3",
    (4, ((1, 1), (2, 1), (4, 2)), True, 4): "Z4",
    (4, ((1, 1), (2, 3)), True, 4): "Z2xZ2",
    (5, ((1, 1), (5, 4)), True, 5): "Z5",
    (6, ((1, 1), (2, 1), (3, 2), (6, 2)), True, 6): "Z3xZ2",
    (6, ((1, 1), (2, 3), (3, 2)), False, 1): "S3",
    (8, ((1, 1), (2, 5), (4, 2)), False, 2): "D8",
    (12, ((1, 1), (2, 3), (3, 8)), False, 1): "A4",
    (12, ((1, 1), (2, 7), (3, 2), (6, 2)), False, 2): "S3xZ2",
    (20, ((1, 1), (2, 5), (4, 10), (5, 4)), False, 1): "D20",
    (24, ((1, 1), (2, 9), (3, 8), (4, 6)), False, 1): "S4",
    (120, ((1, 1), (2, 25), (3, 20), (4, 30), (5, 24), (6, 20)), False, 1): "S5",
}


def identify_group(g: PermGroup) -> GroupId:
    """Match g's fingerprint against the built-in table of small-group labels."""
    fp = _fingerprint(g)
    label = _LABELS.get(fp, "unidentified")
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
