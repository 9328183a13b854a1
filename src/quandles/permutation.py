"""Permutations of {1..n} and concrete finite permutation groups."""

from __future__ import annotations

import itertools
import re
from collections.abc import Callable, Iterable, Iterator, Sequence
from math import lcm

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

    def __reduce__(self):
        return (Permutation, (self.images,))

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


def closure(seeds: Iterable, step: Callable[[object], Iterable]) -> set:
    """The set of items reached from `seeds` by repeated `step`, breadth first.

    step(x) lists the items one move from x; items must be hashable.
    """
    reached = set(seeds)
    queue = list(reached)
    for x in queue:  # grows as the loop runs
        for y in step(x):
            if y not in reached:
                reached.add(y)
                queue.append(y)
    return reached


def orbit_partition(degree: int, maps: Iterable[Sequence[int]]) -> tuple[tuple[int, ...], ...]:
    """Orbits of {1..degree} under the maps, each the 1-based image tuple of a permutation.

    Each block is the closure of its least point under the maps, followed
    forward: for permutations, that is the orbit under the group they
    generate.  Blocks are sorted and ordered by least element.
    """
    maps = list(maps)
    blocks = []
    seen: set[int] = set()
    for i in range(1, degree + 1):
        if i not in seen:
            block = closure([i], lambda x: [images[x - 1] for images in maps])
            seen |= block
            blocks.append(tuple(sorted(block)))
    return tuple(blocks)


class PermGroup:
    """A permutation group of degree 1..255, held as the 1-based image bytes of its elements.

    Bytes order like image tuples, so elements() lists the Permutations in
    the order of their images; they are made only on request, by
    elements(), iteration and generators().
    """

    __slots__ = ("degree", "_words", "_sorted", "_cache")

    def __init__(self, degree: int, elements: Iterable[Permutation]):
        """The group of the given permutations, or the trivial group for none.

        Raises ValueError on a degree outside 1..255, mixed degrees, or a
        set not closed under composition; closure is checked by generating
        the set from its strong generating set, never leaving it.
        """
        words = set()
        for g in elements:
            if g.degree != degree:
                raise ValueError("mixed degrees in group")
            words.add(bytes(g.images))
        self._hold(degree, words)
        if self._closure(degree, self._invariants()[1], self._words) != self._words:
            raise ValueError("not closed under composition")

    def _hold(self, degree: int, words: Iterable[bytes]) -> None:
        if not 1 <= degree <= _kernel.MAX_DEGREE:
            raise ValueError(f"degree must be in 1..{_kernel.MAX_DEGREE}")
        object.__setattr__(self, "degree", degree)
        object.__setattr__(self, "_words", frozenset(words) or frozenset([bytes(range(1, degree + 1))]))
        object.__setattr__(self, "_sorted", None)
        object.__setattr__(self, "_cache", None)

    @classmethod
    def _of_words(cls, degree: int, words: Iterable[bytes]) -> PermGroup:
        """The group whose elements are the image bytes `words`, which must form one."""
        group = object.__new__(cls)
        group._hold(degree, words)
        return group

    def __setattr__(self, name, value):
        if name in ("_sorted", "_cache"):
            object.__setattr__(self, name, value)
        else:
            raise AttributeError("PermGroup is immutable")

    def __reduce__(self):
        return (PermGroup._of_words, (self.degree, self._words))

    def __eq__(self, other) -> bool:
        """Equal groups have the same degree and the same elements."""
        return isinstance(other, PermGroup) and self.degree == other.degree and self._words == other._words

    def __hash__(self) -> int:
        return hash((self.degree, self._words))

    @staticmethod
    def _closure(degree: int, generators: Iterable[bytes], within: frozenset | None = None) -> set[bytes]:
        """The closure of the identity under the image bytes `generators`.

        h∘g is g's bytes translated through h's images.  With `within`, the
        first step with a product outside it raises ValueError instead.
        """
        tail = bytes(range(degree + 1, 256))
        tables = [b"\0" + h + tail for h in generators]

        def step(g: bytes) -> list[bytes]:
            products = list(map(g.translate, tables))
            if within is not None and not within.issuperset(products):
                raise ValueError("not closed under composition")
            return products

        return closure([bytes(range(1, degree + 1))], step)

    @classmethod
    def generate(cls, generators: Iterable[Permutation], degree: int | None = None) -> PermGroup:
        """Breadth-first closure of the generators (inverses arise automatically)."""
        gens = list(generators)
        if degree is None:
            if not gens:
                raise ValueError("degree required for the empty generating set")
            degree = gens[0].degree
        if not 1 <= degree <= _kernel.MAX_DEGREE:
            raise ValueError(f"degree must be in 1..{_kernel.MAX_DEGREE}")
        if any(g.degree != degree for g in gens):
            raise ValueError("mixed degrees in group")
        return cls._of_words(degree, cls._closure(degree, [bytes(g.images) for g in gens]))

    @property
    def order(self) -> int:
        return len(self._words)

    def __len__(self) -> int:
        return len(self._words)

    def __contains__(self, p: Permutation) -> bool:
        return isinstance(p, Permutation) and p.degree == self.degree and bytes(p.images) in self._words

    def __iter__(self) -> Iterator[Permutation]:
        return iter(self.elements())

    def elements(self) -> tuple[Permutation, ...]:
        if self._sorted is None:
            self._sorted = tuple(Permutation._unchecked(tuple(w)) for w in sorted(self._words))
        return self._sorted

    def _invariants(self) -> _kernel.Invariants:
        """(element-order histogram, strong generating set, center order), cached.

        One pass of _kernel.group_invariants over the elements' bytes.
        """
        if self._cache is None:
            self._cache = _kernel.group_invariants(b"".join(self._words), self.degree)
        return self._cache

    def generators(self) -> tuple[Permutation, ...]:
        """A strong generating set, least image tuple first.

        For each point i and each image j != i of i under the elements that
        fix 1..i-1, it holds the least such element sending i to j: the
        coset representatives of the pointwise stabilizer chain, so
        PermGroup.generate(generators()) is the group again.  Not minimal;
        the identity group gives ().
        """
        return tuple(Permutation._unchecked(tuple(g)) for g in self._invariants()[1])

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
