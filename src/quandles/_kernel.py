"""Hot-loop kernels with backend selection.

Four kernels dominate runtime: the column scan, the relabelling walk, the
isomorphism search and the one-pass invariants of a permutation group,
which label every Aut.  Each exists twice: compiled (quandles._speedups,
hand-written C in _speedups.c) and pure Python.  The compiled module is
picked at import when present; set QUANDLES_PURE_PYTHON=1 to force the
fallback.  Both backends are required to return byte-identical results,
including the placement counts used for resource capping.

Two more compiled kernels take in a single table: `parse` reads the plain
text format and `verify` checks the three table conditions.  Their pure
mirrors are quandles.matrix's parse_matrix and QuandleMatrix.verify, which
call them through this module's _speedups, so a test that swaps the
backend here swaps them too.  The compiled parse declines, with None, all
text but the plain format, and the pure parser then reads it.  Every kernel
reads a table as its row-major 1-based bytes, the form in which a
QuandleMatrix holds it up to order 255, so no table is converted on its way in.
The walk and the search check it with one intake per backend, _take_table
here and take_table in C, which the compiled verify shares: order, length,
then entries.

The isomorphism search walks neither table: it assigns images point by
point, closes each choice under the table equations with the scan's own
closure routine, _propagate, and returns the first complete relabelling,
the least.  So are_isomorphic needs no walk, and the walk serves canon,
Aut, np and classification; none reads a relabelling that reaches the
least, so the walk tracks none.

The compiled walk is one loop for every keep mode: it abandons an image
once it is greater than the least so far and is not the table itself.
When images are kept, one coset pass then builds the kept image of each
relabelling least in its coset of the stabilizer, so each image once, as its
column tuple, and one sort puts them in order.

The pure walk splits each relabelling rho as base∘s, where s permutes only
the last k = min(n - 1, 6) points and base takes rho's first n - k images,
then the values left in ascending order.  The k! moves s, each a gather of
n*n positions plus a value table, are built once per order and only one
order is held (under 1 MiB at order 10); each walk relabels its table by
every s once, and each prefix block builds one gather for its base.  A
relabelling then costs one gather, one bytes() and one bytes.translate,
and the walk holds one block of k! images at a time, never n! objects
beyond the stabilizer and the images it returns.  At the end it turns the
images it keeps into column tuples: the few of KEEP_COLUMN0 with one gather
each, the many of KEEP_ALL with one transpose of them all.
"""

from __future__ import annotations

import functools
import itertools
import operator
import os
from collections import Counter
from collections.abc import Sequence
from math import factorial, lcm

MAX_ORDER = 10  # entries are single bytes and the scan state is fixed-size
DEFAULT_CAP = 10**9  # the budget of scan and of an enumeration

if os.environ.get("QUANDLES_PURE_PYTHON", "") not in ("", "0"):
    _speedups = None
else:
    try:
        from . import _speedups  # type: ignore[attr-defined]
    except ImportError:
        _speedups = None


def backend() -> str:
    return "c" if _speedups is not None else "python"


def lift(perm, i: int) -> tuple[int, ...]:
    """The column fixing i that sends the k-th point other than i to the perm[k]-th.

    Lifting keeps the lexicographic order of permutations and adds a fixed point to each.
    """
    col = [v + (v >= i) for v in perm]
    col.insert(i, i)
    return tuple(col)


def cycle_type(perm) -> tuple[int, ...]:
    """Cycle lengths of a 0-indexed permutation, sorted descending."""
    seen = [False] * len(perm)
    lengths = []
    for start in range(len(perm)):
        length = 0
        x = start
        while not seen[x]:
            seen[x] = True
            x = perm[x]
            length += 1
        if length:
            lengths.append(length)
    return tuple(sorted(lengths, reverse=True))


@functools.lru_cache(maxsize=MAX_ORDER)
def cycle_type_ranks(n: int) -> bytes:
    """The cycle-type rank of every permutation of range(n - 1), in lexicographic order.

    Its k-th byte is also the rank of every position's k-th candidate
    column, since lifting adds one fixed point to every type.  Ranks order
    the types as tuples (cycle lengths sorted descending).  Computed once
    per order and process: the (n - 1)! cycle walks are most of a scan's
    set-up at order 10, and the result is immutable.
    """
    shared: dict = {}  # one tuple per type, not one per permutation
    types = [shared.setdefault(t, t) for t in map(cycle_type, itertools.permutations(range(n - 1)))]
    rank = {t: r for r, t in enumerate(sorted(shared))}
    return bytes(rank[t] for t in types)


def scan(n: int, *, cap: int = DEFAULT_CAP) -> tuple[list[bytes], int, bool]:
    """The standard-form quandle tables of order n in normal form, row-major 1-based bytes.

    Column j of a table is its right translation R_j (i -> i|>j); position
    i draws from the lifts of the permutations of range(n - 1), in order.  A
    table is in normal form when R_0 has the greatest cycle type in the
    table and is position 0's first candidate of that type; every class has
    such a member, since all columns of one orbit share a type.  So position
    0 tries only the first column of each cycle type, in candidate order, and
    every later position skips the candidates of greater type than R_0.
    The scan branches on the least unset position and then forces columns
    by self-distributivity, R_{R_k(j)} = R_k R_j R_k^-1, to a fixpoint,
    rejecting the branch when a forced column contradicts a set one; forced
    columns are conjugates of set ones, so they never exceed R_0's type.
    Tables come out lexicographic in the column-index tuple.  The charge is
    placements + n! * (kept tables): a placement is one tried candidate
    (skipped and forced columns are free), and n! the relabellings one pass
    of the walk over a kept table's class visits; the compiled walk that
    keeps images, as classification does, makes two.  The scan stops at
    the first placement or kept table that takes it past `cap`, returning
    (output so far, placements, True); otherwise it returns (every table,
    placements, False).
    """
    cap = operator.index(cap)  # a non-integral cap is a TypeError on both backends, before any placement
    if not 1 <= n <= MAX_ORDER:
        raise ValueError(f"order must be in 1..{MAX_ORDER}")
    ranks = cycle_type_ranks(n)
    if _speedups is not None:
        # the C cap is a long long; no scan gets near its limit, so clamping is exact
        return _speedups.scan(n, ranks, max(0, min(cap, 2**63 - 1)))
    return _scan_closure_pure(n, ranks, cap)


def _propagate(trail: list[int], start: int, force) -> bool:
    """Pair each index set from trail[start] on with every index set up to it, in both orders.

    force(a, b) appends each index it sets to `trail` and is False on a
    clash; pairs with an index set later are met when that index is
    dequeued.  False at the first clash, else True once no pair sets a new
    index.  The scan forces columns with it and the isomorphism search images.
    """
    q = start
    while q < len(trail):
        a = trail[q]
        for b in trail[: q + 1]:
            if not force(a, b) or (a != b and not force(b, a)):
                return False
        q += 1
    return True


def _scan_closure_pure(n, ranks, cap):
    out: list[bytes] = []
    cols: list[tuple[int, ...] | None] = [None] * n  # cols[t] is R_t once placed or forced
    trail: list[int] = []  # positions in the order they were set
    rng = range(n)

    def force(k, j):
        # R_{R_k(j)} = R_k R_j R_k^-1: the column F with F[R_k(y)] = R_k(R_j(y))
        ck = cols[k]
        cj = cols[j]
        forced = [0] * n
        for y in rng:
            forced[ck[y]] = ck[cj[y]]
        forced = tuple(forced)
        t = ck[j]
        ct = cols[t]
        if ct is None:
            cols[t] = forced
            trail.append(t)
            return True
        return ct == forced

    relabellings = factorial(n)
    placements = 0

    def walk(choices, base):  # deeper positions draw from base; False once the charge passes cap
        nonlocal placements
        d = cols.index(None)
        mark = len(trail)
        for perm in choices:
            placements += 1
            if placements + len(out) * relabellings > cap:
                return False
            cols[d] = lift(perm, d)
            trail.append(d)
            if _propagate(trail, mark, force):
                if len(trail) < n:
                    if not walk(base, base):
                        return False
                else:
                    out.append(bytes(cols[j][i] + 1 for i in rng for j in rng))
                    if placements + len(out) * relabellings > cap:
                        return False
            while len(trail) > mark:
                cols[trail.pop()] = None
        return True

    tried = set()
    for first, r0 in zip(itertools.permutations(range(n - 1)), ranks):
        if r0 in tried:
            continue
        tried.add(r0)
        # R_0 is the first column of its type; the rest draw from the columns of no greater type
        if not walk([first], [p for p, r in zip(itertools.permutations(range(n - 1)), ranks) if r <= r0]):
            return out, placements, True
    return out, placements, False


# which images orbit() returns: none, those sharing the input's column 0, or all
KEEP_NONE, KEEP_COLUMN0, KEEP_ALL = 0, 1, 2

# (least, stabilizer, images): the stabilizer an ascending tuple in every
# keep mode, the images a list of sorted column tuples
Walk = tuple[bytes, tuple[bytes, ...], list[bytes]]

_ONE_BASED = bytes(range(1, 256)) + b"\0"  # translate table adding 1 to every entry
_ZERO_BASED = b"\xff" + bytes(range(255))  # and the one taking 1 from every entry
_IDENTITY = bytes(range(256))  # translate table leaving every entry as it is


def orbit(flat: bytes, n: int, keep: int = KEEP_NONE) -> Walk:
    """One walk over the n! relabellings of a table, in lexicographic order.

    `flat` is the row-major 1-based byte encoding; a relabelling rho is the
    bytes of its 1-based image array and acts by
    out[rho(i)][rho(j)] = rho(flat[i][j]).  Returns
    (least, stabilizer, images): `least` is the row-major least image,
    `stabilizer` the ascending tuple of the relabellings fixing `flat`, and
    `images` the distinct images that `keep` selects: none (KEEP_NONE),
    those whose column 0 is `flat`'s (KEEP_COLUMN0; for a table in scan's
    normal form, exactly the normal forms of its class) or all of them
    (KEEP_ALL, with len(images) * len(stabilizer) == n!).  No relabelling
    that reaches `least` is kept, and no other image.  Each
    image is its column tuple, R_0 … R_{n-1} concatenated (byte j*n + i is
    entry (i, j)), and the list is in ascending order: the order of
    all_tables.  The compiled walk is one loop for every `keep`: it makes no
    object for an image and abandons it once it is greater than the least so
    far and differs from `flat`.  When images are kept, a coset pass then
    builds the kept image of each relabelling least in its coset rho∘Aut, so
    each image once, and sorts them (an image built twice is a
    RuntimeError).  The pure walk builds the images of one prefix block at a
    time (see the module docstring), so it holds at most 6! of them besides
    its results.
    Raises ValueError unless 1 <= n <= MAX_ORDER, len(flat) == n*n, every
    entry lies in 1..n and `keep` is one of the three.

    The last KEEP_NONE walk of a bytes table is remembered, so canon, Aut
    and np queries on one table share one walk, and its immutable
    stabilizer tuple; each call still gets its own image list.  Walks that
    keep images are never remembered.
    """
    if not 1 <= n <= MAX_ORDER:
        raise ValueError(f"order must be in 1..{MAX_ORDER}")
    if keep == KEEP_NONE and type(flat) is bytes:
        return _last_walk(flat, n, keep, _speedups) + ([],)
    return _walk(flat, n, keep, _speedups)


def _walk(flat: bytes, n: int, keep: int, speedups) -> Walk:
    if speedups is not None:
        return speedups.orbit(flat, n, keep)
    return _orbit_pure(flat, n, keep)


# one entry, keyed by the backend too, so a backend test never reads the
# other backend's walk; typed, so a keep of 0.0 or False is not taken for 0
@functools.lru_cache(maxsize=1, typed=True)
def _last_walk(flat: bytes, n: int, keep: int, speedups) -> tuple[bytes, tuple[bytes, ...]]:
    return _walk(flat, n, keep, speedups)[:2]


SUFFIX_POINTS = 6  # the pure walk caches the relabellings of at most this many last points


def _position_gather(perm, n: int) -> operator.itemgetter:
    """The gather taking a row-major n*n table M, n >= 2, to the tuple of
    G(M)[a][b] = M[perm[a]][perm[b]], row-major."""
    return operator.itemgetter(*[row + b for row in [a * n for a in perm] for b in perm])


def _value_table(perm, n: int) -> bytes:
    """The translate table sending each 1-based entry v to perm[v - 1] + 1."""
    return b"\0" + bytes(perm).translate(_ONE_BASED) + _IDENTITY[n + 1 :]


def transpose(blob: bytes, n: int) -> bytes:
    """The concatenation of n x n tables `blob` with each table transposed.

    Transposing turns row-major tables into column tuples, and back.
    """
    nn = n * n
    out = bytearray(len(blob))
    for i in range(n):
        for j in range(n):
            out[i * n + j :: nn] = blob[j * n + i :: nn]
    return bytes(out)


@functools.lru_cache(maxsize=1)
def _column_gather(n: int) -> operator.itemgetter:
    """The gather taking a row-major n*n table to its entries in column-tuple order, and back."""
    if n == 1:  # a gather of one index would give an int, not a sequence
        return operator.itemgetter(slice(None))
    return operator.itemgetter(*[i * n + j for j in range(n) for i in range(n)])


@functools.lru_cache(maxsize=1)
def _suffix_moves(n: int) -> tuple[int, tuple[tuple[operator.itemgetter, bytes, bytes], ...]]:
    """(m, moves) for the pure walk of order n >= 2, with m = n - min(n - 1, SUFFIX_POINTS).

    One move per permutation s fixing the first m points, in lexicographic
    order: the gather of G_{s^-1}, the value table of s and the 1-based word
    of s.  The gather and the table together make s . M from a table M.  At
    most 6! moves of n*n indices each; one order is held at a time.
    """
    m = n - min(n - 1, SUFFIX_POINTS)
    moves = []
    for tail in itertools.permutations(range(m, n)):
        s = tuple(range(m)) + tail
        inverse = sorted(range(n), key=s.__getitem__)
        moves.append((_position_gather(inverse, n), _value_table(s, n), bytes(s).translate(_ONE_BASED)))
    return m, tuple(moves)


def _take_table(t: bytes, n: int) -> None:
    """The pure table intake: the compiled one's ValueError unless t holds an
    order-n table, 1 <= n <= MAX_ORDER, of n*n entries in 1..n."""
    if not 1 <= n <= MAX_ORDER:
        raise ValueError("order out of range")
    if len(t) != n * n:
        raise ValueError("flat length does not match order")
    for x in t:
        if not 1 <= x <= n:
            raise ValueError(f"entry {x} outside 1..{n}")


def _orbit_pure(flat: bytes, n: int, keep: int = KEEP_NONE) -> Walk:
    _take_table(flat, n)
    if keep not in (KEEP_NONE, KEEP_COLUMN0, KEEP_ALL):
        raise ValueError(f"keep must be {KEEP_NONE}, {KEEP_COLUMN0} or {KEEP_ALL}")
    if n == 1:  # one relabelling; a gather of one index would give an int, not a tuple
        return flat, (flat,), [] if keep == KEEP_NONE else [flat]
    # rho = base∘s: base takes rho's first m images, then the values left in
    # ascending order, and s permutes the last points.  Prefixes in order,
    # then s in order within each, is rho in order, and rho . flat is
    # base . (s . flat): one gather and one translate per relabelling.
    m, moves = _suffix_moves(n)
    relabelled = [bytes(gather(flat)).translate(values) for gather, values, _ in moves]
    least = flat
    stabilizer: list[bytes] = []
    images: set[bytes] = set()
    column0 = flat[::n]
    points = range(n)
    for prefix in itertools.permutations(points, m):
        base = prefix + tuple(sorted(set(points).difference(prefix)))
        values = _value_table(base, n)
        gather = _position_gather(sorted(points, key=base.__getitem__), n)
        cands = [c.translate(values) for c in map(bytes, map(gather, relabelled))]
        least = min(least, min(cands))
        if flat in cands:
            stabilizer += [moves[i][2].translate(values) for i, c in enumerate(cands) if c == flat]
        if keep == KEEP_ALL:
            images.update(cands)
        elif keep == KEEP_COLUMN0:
            # every candidate's column 0, n bytes apiece; a match off that grid straddles two
            heads = b"".join(cands)[::n]
            at = heads.find(column0)
            while at >= 0:
                if at % n == 0:
                    images.add(cands[at // n])
                at = heads.find(column0, at + 1)
    if keep == KEEP_ALL:  # past about ten images one transpose of them all beats a gather each
        nn = n * n
        blob = transpose(b"".join(images), n)
        return least, tuple(stabilizer), sorted(blob[k : k + nn] for k in range(0, len(blob), nn))
    return least, tuple(stabilizer), sorted(map(bytes, map(_column_gather(n), images)))


def canon_min(flat: bytes, n: int) -> bytes:
    """Lexicographically least relabelling of a table, from one walk that keeps no image."""
    return orbit(flat, n)[0]


def isomorphism(a: bytes, b: bytes, n: int) -> bytes | None:
    """The least relabelling rho, as 1-based image bytes, that sends table a to table b, or None.

    rho sends a to b when rho(a[i][j]) = b[rho(i)][rho(j)] for every pair,
    the action of `orbit`; a and b are row-major 1-based bytes, checked or
    not.  A depth-first search branches on the least point x of a not yet
    assigned and tries each unused image y in ascending order.  After each
    choice it extends rho to a fixpoint: every pair (i, j) of assigned
    points forces rho(a[i][j]) = b[rho(i)][rho(j)], and the search backtracks
    on a clash, an image that differs from one already assigned or is
    taken.  Each level fixes every point below x, so the first complete rho
    is the least witness, and no n!-sized walk is made.  A point is only
    ever sent to one with the same key: the fixed points and distinct
    values of its column and of its row, which every relabelling keeps,
    whatever the table.  Keys that differ as multisets answer None at once.
    Raises ValueError unless 1 <= n <= MAX_ORDER (checked first, so a table
    past order 255 held as ints is never read), and then unless a, then b,
    has n*n entries, all in 1..n.
    """
    if not 1 <= n <= MAX_ORDER:
        raise ValueError(f"order must be in 1..{MAX_ORDER}")
    if _speedups is not None:
        return _speedups.isomorphism(a, b, n)
    return _isomorphism_pure(a, b, n)


def _point_keys(t: bytes, n: int) -> list[tuple[int, int, int, int]]:
    """Per point of a 0-based table: the fixed points and distinct values of its column and its row."""
    keys = []
    for x in range(n):
        col, row = t[x::n], t[x * n : x * n + n]
        keys.append((sum(c == i for i, c in enumerate(col)), sum(r == j for j, r in enumerate(row)),
                     len(set(col)), len(set(row))))
    return keys


def _isomorphism_pure(a: bytes, b: bytes, n: int) -> bytes | None:
    _take_table(a, n)
    _take_table(b, n)
    a, b = bytes(a).translate(_ZERO_BASED), bytes(b).translate(_ZERO_BASED)
    key_a, key_b = _point_keys(a, n), _point_keys(b, n)
    if sorted(key_a) != sorted(key_b):
        return None
    rho = [-1] * n  # rho[x] is x's image, inv[y] y's preimage, or -1
    inv = [-1] * n
    trail: list[int] = []  # points in the order they were assigned

    def force(i, j):
        p, v = a[i * n + j], b[rho[i] * n + rho[j]]
        if rho[p] >= 0:
            return rho[p] == v
        if inv[v] >= 0 or key_a[p] != key_b[v]:
            return False
        rho[p], inv[v] = v, p
        trail.append(p)
        return True

    def search():
        mark = len(trail)
        if mark == n:
            return True
        x = rho.index(-1)
        for y in range(n):
            if inv[y] < 0 and key_b[y] == key_a[x]:
                rho[x], inv[y] = y, x
                trail.append(x)
                if _propagate(trail, mark, force) and search():
                    return True
                while len(trail) > mark:
                    p = trail.pop()
                    inv[rho[p]] = -1
                    rho[p] = -1
        return False

    return bytes(rho).translate(_ONE_BASED) if search() else None


MAX_DEGREE = 255  # a permutation's image array is one byte per point

# (element-order histogram, strong generating set, center order)
Invariants = tuple[tuple[tuple[int, int], ...], tuple[bytes, ...], int]


def group_invariants(words: Sequence[bytes], n: int) -> Invariants:
    """The invariants of a permutation group from one pass over its elements.

    `words` holds every element's 1-based image bytes, in any order, and is
    read where it is: a group's tuple of elements is not copied or joined.
    n is the degree, 1..MAX_DEGREE.  Each element's order is the
    lcm of its cycle lengths.  Per pair (least moved point i, image j of i)
    the least element with that pair is kept: an element whose least moved
    point is i fixes 1..i-1, so these are the coset representatives of the
    stabilizer chain G ⊇ G_1 ⊇ G_{1,2} ⊇ …, a strong generating set (Sims
    1970), least image bytes first; with every element at hand no
    Schreier–Sims closure is needed.  The center is the elements that
    commute with those generators.  Closure is not checked.  Raises
    ValueError unless 1 <= n <= MAX_DEGREE, there is an element, each is n
    bytes, every entry lies in 1..n and each element is a permutation: a
    cycle of the walk that does not close on its start shows a repeated
    image.  Each check runs over all elements before the next, and names the
    first that fails it.
    """
    if _speedups is not None:
        return _speedups.group_invariants(words, n)
    return _group_invariants_pure(words, n)


def _group_invariants_pure(words: Sequence[bytes], n: int) -> Invariants:
    if not 1 <= n <= MAX_DEGREE:
        raise ValueError(f"degree must be in 1..{MAX_DEGREE}")
    if not words:
        raise ValueError("no elements")
    for k, p in enumerate(words):
        if not isinstance(p, bytes) or len(p) != n:
            raise ValueError(f"element {k} is not {n} bytes")
    points = bytes(range(1, n + 1))
    for p in words:
        stray = p.translate(None, points)
        if stray:
            raise ValueError(f"entry {stray[0]} outside 1..{n}")
    counts: Counter = Counter()
    reps: dict[tuple[int, int], bytes] = {}
    rng = range(n)
    for k, p in enumerate(words):
        seen = [False] * n
        order = 1
        key = None
        for s in rng:
            x = p[s] - 1
            # a fixed point is left unmarked: a walk that enters one ends off its start
            if x == s or seen[s]:
                continue
            seen[s] = True
            length = 1
            while not seen[x]:
                seen[x] = True
                x = p[x] - 1
                length += 1
            if x != s:
                raise ValueError(f"element {k} is not a permutation of 1..{n}")
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
    # z commutes with g iff z∘g and g∘z have the same image bytes; a
    # translate table sends v to the image of v
    head, tail = b"\0", bytes(range(n + 1, 256))
    tables = [(g, head + g + tail) for g in strong]
    center = 0
    for z in words:
        z_of = head + z + tail
        if all(g.translate(z_of) == z.translate(g_of) for g, g_of in tables):
            center += 1
    return tuple(sorted(counts.items())), strong, center
