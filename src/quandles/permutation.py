"""Permutations of {1..n} and concrete finite permutation groups."""

from __future__ import annotations

import itertools
import re
from collections import Counter
from collections.abc import Iterable, Iterator, Sequence
from math import lcm
from operator import itemgetter

from . import _kernel

_CYCLE_RE = re.compile(r"\(([^()]*)\)")


class Permutation:
    """A bijection of {1, .., n}, stored as the tuple of images of 1, .., n.

    Instances are immutable and ordered by their image tuple, so "smallest
    witness" always means lexicographically least image array.
    """

    __slots__ = ("images",)

    def __init__(self, images: Iterable[int]):
        images = tuple(images)
        if sorted(images) != list(range(1, len(images) + 1)):
            raise ValueError(f"not a permutation of 1..{len(images)}: {images!r}")
        object.__setattr__(self, "images", images)

    @classmethod
    def _unchecked(cls, images: tuple[int, ...]) -> Permutation:
        """Wrap an image tuple that is a permutation by construction, unchecked."""
        p = object.__new__(cls)
        object.__setattr__(p, "images", images)
        return p

    def __setattr__(self, name, value):
        raise AttributeError("Permutation is immutable")

    @property
    def degree(self) -> int:
        return len(self.images)

    @classmethod
    def identity(cls, n: int) -> Permutation:
        return cls._unchecked(tuple(range(1, n + 1)))

    @classmethod
    def from_cycles(cls, n: int, cycles: Iterable[Sequence[int]]) -> Permutation:
        images = list(range(1, n + 1))
        seen: set[int] = set()
        for cycle in cycles:
            for x in cycle:
                if not 1 <= x <= n:
                    raise ValueError(f"cycle entry {x} outside 1..{n}")
                if x in seen:
                    raise ValueError(f"symbol {x} appears twice")
                seen.add(x)
            for a, b in zip(cycle, cycle[1:]):
                images[a - 1] = b
            if len(cycle) > 1:
                images[cycle[-1] - 1] = cycle[0]
        return cls(images)

    @classmethod
    def parse(cls, text: str, n: int) -> Permutation:
        """Parse disjoint-cycle notation such as "(1 5 3)(2 4)" or "()"."""
        normalized = text.strip().replace(",", " ")
        if not re.fullmatch(r"(\([0-9 ]*\)\s*)+", normalized):
            raise ValueError(f"bad cycle notation: {text!r}")
        cycles = []
        for body in _CYCLE_RE.findall(normalized):
            entries = [int(tok) for tok in body.split()]
            if entries:
                cycles.append(entries)
        return cls.from_cycles(n, cycles)

    def __call__(self, i: int) -> int:
        return self.images[i - 1]

    def compose(self, other: Permutation) -> Permutation:
        """Return self∘other, the permutation applying `other` first."""
        if other.degree != self.degree:
            raise ValueError("degree mismatch")
        img = self.images
        return Permutation._unchecked(tuple([img[x - 1] for x in other.images]))

    def inverse(self) -> Permutation:
        out = [0] * self.degree
        for i, v in enumerate(self.images):
            out[v - 1] = i + 1
        return Permutation._unchecked(tuple(out))

    def __pow__(self, k: int) -> Permutation:
        # self ** order() is the identity, and % is non-negative, so this covers k < 0 too
        result = Permutation.identity(self.degree)
        for _ in range(k % self.order()):
            result = self.compose(result)
        return result

    def cycles(self) -> tuple[tuple[int, ...], ...]:
        """Disjoint cycles, each starting at its least symbol, fixed points omitted."""
        seen: set[int] = set()
        out = []
        for start in range(1, self.degree + 1):
            if start in seen:
                continue
            cyc = [start]
            seen.add(start)
            x = self(start)
            while x != start:
                cyc.append(x)
                seen.add(x)
                x = self(x)
            if len(cyc) > 1:
                out.append(tuple(cyc))
        return tuple(out)

    def cycle_type(self) -> tuple[int, ...]:
        """Multiset of cycle lengths including fixed points, descending."""
        return _kernel.cycle_type([v - 1 for v in self.images])

    def order(self) -> int:
        return lcm(1, *(len(c) for c in self.cycles()))

    def is_identity(self) -> bool:
        return all(v == i + 1 for i, v in enumerate(self.images))

    def __str__(self) -> str:
        cycs = self.cycles()
        if not cycs:
            return "()"
        return "".join("(" + " ".join(map(str, c)) + ")" for c in cycs)

    def __repr__(self) -> str:
        return f"Permutation({self.images!r})"

    def __eq__(self, other) -> bool:
        return isinstance(other, Permutation) and self.images == other.images

    def __lt__(self, other: Permutation) -> bool:
        return self.images < other.images

    def __le__(self, other: Permutation) -> bool:
        return self.images <= other.images

    def __hash__(self) -> int:
        return hash(self.images)


def all_permutations(n: int) -> Iterator[Permutation]:
    """All permutations of {1..n} in lexicographic order of image arrays."""
    for images in itertools.permutations(range(1, n + 1)):
        yield Permutation._unchecked(images)


def orbit_partition(
    degree: int, maps: Iterable[Sequence[int]]
) -> tuple[tuple[int, ...], ...]:
    """Orbits of {1..degree} under the maps, each a tuple of 1-based images.

    Union-find over the edges i -> map(i); blocks are sorted by least element.
    """
    parent = list(range(degree + 1))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for images in maps:
        for i, v in enumerate(images, start=1):
            a, b = find(i), find(v)
            if a != b:
                parent[max(a, b)] = min(a, b)
    blocks: dict[int, list[int]] = {}
    for i in range(1, degree + 1):
        blocks.setdefault(find(i), []).append(i)
    return tuple(tuple(blocks[r]) for r in sorted(blocks))


class PermGroup:
    """A set of permutations of one degree, closed under composition and inverse."""

    __slots__ = ("degree", "_elements", "_sorted", "_cache")

    def __init__(self, degree: int, elements: Iterable[Permutation], *, _trusted: bool = False):
        elems = frozenset(elements)
        if not elems:
            elems = frozenset([Permutation.identity(degree)])
        for g in elems:
            if g.degree != degree:
                raise ValueError("mixed degrees in group")
        if not _trusted:
            for g in elems:
                if g.inverse() not in elems:
                    raise ValueError(f"not closed under inverse: {g}")
                for h in elems:
                    if g.compose(h) not in elems:
                        raise ValueError(f"not closed under composition: {g} * {h}")
        object.__setattr__(self, "degree", degree)
        object.__setattr__(self, "_elements", elems)
        object.__setattr__(self, "_sorted", None)
        object.__setattr__(self, "_cache", None)

    def __setattr__(self, name, value):
        if name in ("_sorted", "_cache"):
            object.__setattr__(self, name, value)
        else:
            raise AttributeError("PermGroup is immutable")

    @classmethod
    def generate(cls, generators: Iterable[Permutation], degree: int | None = None) -> PermGroup:
        """Breadth-first closure of the generators (inverses arise automatically)."""
        gens = list(generators)
        if degree is None:
            if not gens:
                raise ValueError("degree required for the empty generating set")
            degree = gens[0].degree
        elements = {Permutation.identity(degree)}
        frontier = [g for g in gens if g not in elements]
        elements.update(frontier)
        while frontier:
            new = []
            for g in frontier:
                for h in gens:
                    prod = h.compose(g)
                    if prod not in elements:
                        elements.add(prod)
                        new.append(prod)
            frontier = new
        return cls(degree, elements, _trusted=True)

    @property
    def order(self) -> int:
        return len(self._elements)

    def __len__(self) -> int:
        return len(self._elements)

    def __contains__(self, p: Permutation) -> bool:
        return p in self._elements

    def __iter__(self) -> Iterator[Permutation]:
        return iter(self.elements())

    def elements(self) -> tuple[Permutation, ...]:
        if self._sorted is None:
            self._sorted = tuple(sorted(self._elements))
        return self._sorted

    def _invariants(self) -> tuple:
        """(element-order histogram, strong generating set, center order), cached.

        One pass over the image tuples takes each element's order from its
        cycle lengths and keeps, for each pair (least moved point i, image
        j of i), the least element with that pair.  An element whose least
        moved point is i fixes 1..i-1, so these are the coset
        representatives of the stabilizer chain G ⊇ G_1 ⊇ G_{1,2} ⊇ …, a
        strong generating set (Sims 1970); every element is already at hand,
        so no Schreier–Sims closure is needed.  The center is then the
        elements that commute with those generators.
        """
        if self._cache is None:
            n = self.degree
            counts: Counter = Counter()
            reps: dict[tuple[int, int], tuple[int, ...]] = {}
            for g in self._elements:
                p = g.images
                seen = [False] * n
                order = 1
                key = None
                for s in range(n):
                    if seen[s]:
                        continue
                    length = 0
                    x = s
                    while not seen[x]:
                        seen[x] = True
                        x = p[x] - 1
                        length += 1
                    if length > 1:
                        order = lcm(order, length)
                        # the first nontrivial cycle starts at the least moved point
                        if key is None:
                            key = (s, p[s])
                counts[order] += 1
                if key is not None:
                    r = reps.get(key)
                    if r is None or p < r:
                        reps[key] = p
            strong = tuple(sorted(reps.values()))
            # z commutes with g iff z∘g and g∘z have the same image tuple
            checks = [(itemgetter(*[x - 1 for x in g]), ((0,) + g).__getitem__) for g in strong]
            center = sum(
                1
                for z in self._elements
                if all(zg(z.images) == tuple(map(g_of, z.images)) for zg, g_of in checks)
            )
            self._cache = (tuple(sorted(counts.items())), strong, center)
        return self._cache

    def generators(self) -> tuple[Permutation, ...]:
        """A strong generating set, least image tuple first.

        For each point i and each image j != i of i under the elements that
        fix 1..i-1, it holds the least such element sending i to j: the
        coset representatives of the pointwise stabilizer chain, so
        PermGroup.generate(generators()) is the group again.  Not minimal;
        the identity group gives ().
        """
        return tuple(Permutation._unchecked(g) for g in self._invariants()[1])

    def is_abelian(self) -> bool:
        return self.center_order() == self.order

    def center_order(self) -> int:
        return self._invariants()[2]

    def element_order_histogram(self) -> tuple[tuple[int, int], ...]:
        return self._invariants()[0]

    def orbits(self) -> tuple[tuple[int, ...], ...]:
        """Orbit partition of {1..degree}, blocks sorted by least element."""
        return orbit_partition(self.degree, self._invariants()[1])

    def is_transitive(self) -> bool:
        return len(self.orbits()) == 1

    def __repr__(self) -> str:
        return f"PermGroup(degree={self.degree}, order={self.order})"
