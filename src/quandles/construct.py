"""Constructors for the named quandle families.

All constructors return standard-form tables that pass verification: the
trivial quandle, dihedral quandles, Alexander quandles on quotients of
Z_m[t], and conjugation quandles on closed sets of group elements.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import gcd
from collections.abc import Sequence

from .matrix import QuandleMatrix
from .permutation import Permutation, closure


def trivial(n: int) -> QuandleMatrix:
    """The order-n table with i▷j = i."""
    if n < 1:
        raise ValueError("order must be positive")
    return QuandleMatrix([[i] * n for i in range(1, n + 1)])


def dihedral(n: int) -> QuandleMatrix:
    """The order-n table with i▷j = 2j - i reduced mod n."""
    if n < 1:
        raise ValueError("order must be positive")
    return QuandleMatrix(
        [((2 * j - i) % n) + 1 for j in range(n)] for i in range(n)
    )


@dataclass(frozen=True)
class AlexanderPresentation:
    """A quotient ring Z_modulus[t]/(p(t)) presenting an Alexander quandle.

    `coeffs` lists p's coefficients constant term first; p must be monic of
    degree ≥ 1.  The quandle has modulus**degree elements and its operation
    is a▷b = t·a + (1-t)·b, which needs t invertible in the quotient,
    equivalently gcd(coeffs[0], modulus) == 1.
    """

    modulus: int
    coeffs: tuple[int, ...]

    def __post_init__(self):
        if self.modulus < 2:
            raise ValueError("modulus must be at least 2")
        coeffs = tuple(c % self.modulus for c in self.coeffs)
        if len(coeffs) < 2:
            raise ValueError("polynomial must have degree at least 1")
        if coeffs[-1] != 1:
            raise ValueError(f"polynomial is not monic: leading coefficient {self.coeffs[-1]}")
        object.__setattr__(self, "coeffs", coeffs)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def size(self) -> int:
        return self.modulus ** self.degree

    def t_invertible(self) -> bool:
        return gcd(self.coeffs[0], self.modulus) == 1

    def quandle(self) -> QuandleMatrix:
        return alexander(self.modulus, self.coeffs)


def alexander(modulus: int, coeffs: Sequence[int]) -> QuandleMatrix:
    """The Alexander quandle of Z_modulus[t]/(p(t)) with a▷b = t·a + (1-t)·b.

    Ring elements are coefficient vectors enumerated lexicographically with
    the constant coefficient most significant, the zero vector becoming
    element 1; the resulting table is already in standard form.
    """
    pres = AlexanderPresentation(modulus, tuple(coeffs))
    if not pres.t_invertible():
        raise ValueError(
            f"t is not invertible in Z_{modulus}[t]/(p): constant term "
            f"{pres.coeffs[0]} shares a factor with {modulus}"
        )
    m, d = pres.modulus, pres.degree
    reduction = pres.coeffs[:-1]  # t**d = -(reduction) in the quotient
    elements = list(itertools.product(range(m), repeat=d))  # lexicographic, constant coefficient first
    index = {vec: k for k, vec in enumerate(elements, start=1)}

    def times_t(vec: tuple[int, ...]) -> tuple[int, ...]:
        lead = vec[-1]
        shifted = (0,) + vec[:-1]
        return tuple((s - lead * r) % m for s, r in zip(shifted, reduction))

    rows = []
    for a in elements:
        row = []
        for b in elements:
            diff = tuple((x - y) % m for x, y in zip(a, b))
            tdiff = times_t(diff)
            row.append(index[tuple((x + y) % m for x, y in zip(b, tdiff))])
        rows.append(row)
    return QuandleMatrix(rows)


def conjugation(elements: Sequence[Permutation], exponent: int = 1) -> QuandleMatrix:
    """Conjugation quandle a▷b = b^-e ∘ a ∘ b^e on an explicit closed set.

    Elements keep their given order (element k of the table is elements[k-1]).
    Raises if the list has duplicates or some product escapes the set.
    """
    elems = list(elements)
    if not elems:
        raise ValueError("element list is empty")
    lookup: dict[Permutation, int] = {}
    for k, g in enumerate(elems, start=1):
        if g in lookup:
            raise ValueError(f"duplicate element {g}")
        lookup[g] = k
    powers = [b ** exponent for b in elems]
    rows = []
    for a in elems:
        row = []
        for b, be in zip(elems, powers):
            product = be.inverse().compose(a.compose(be))
            if product not in lookup:
                raise ValueError(
                    f"set not closed: {a} conjugated by {b} gives {product}"
                )
            row.append(lookup[product])
        rows.append(row)
    return QuandleMatrix(rows)


def conjugation_class(
    generators: Sequence[Permutation],
    representative: Permutation,
    exponent: int = 1,
) -> QuandleMatrix:
    """Conjugation quandle on the conjugacy class of `representative`.

    Closes the class under conjugation by the group the generators produce,
    then orders the class by image array so the table is deterministic.
    """
    # conjugating by the generators alone reaches the group: it is finite
    pairs = [(g.inverse(), g) for g in generators]
    cls = closure([representative], lambda x: [g_inv.compose(x.compose(g)) for g_inv, g in pairs])
    return conjugation(sorted(cls), exponent)


def make(descriptor: str) -> QuandleMatrix:
    """Build a quandle from constructor syntax.

    Understood forms: `trivial:<n>`, `dihedral:<n>`,
    `alexander:<m>:<comma-separated coefficients, constant first>`, and
    `conj:<degree>:<cycle-notation elements separated by ';'>[:<exponent>]`.
    """
    parts = descriptor.split(":")
    kind = parts[0].strip().lower()
    try:
        if kind == "trivial" and len(parts) == 2:
            return trivial(int(parts[1]))
        if kind == "dihedral" and len(parts) == 2:
            return dihedral(int(parts[1]))
        if kind == "alexander" and len(parts) == 3:
            coeffs = [int(c) for c in parts[2].split(",")]
            return alexander(int(parts[1]), coeffs)
        if kind == "conj" and len(parts) in (3, 4):
            degree = int(parts[1])
            elems = [Permutation.parse(tok, degree) for tok in parts[2].split(";")]
            exponent = int(parts[3]) if len(parts) == 4 else 1
            return conjugation(elems, exponent)
    except ValueError as exc:
        raise ValueError(f"bad constructor {descriptor!r}: {exc}") from exc
    raise ValueError(
        f"bad constructor {descriptor!r}; expected trivial:<n>, dihedral:<n>, "
        "alexander:<m>:<coeffs>, or conj:<degree>:<elements>[:<exponent>]"
    )
