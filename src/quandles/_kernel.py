"""Hot-loop kernels with backend selection.

The exhaustive column scan and the relabelling orbit dominate runtime, so
both exist twice: compiled (quandles._speedups, hand-written C in
_speedups.c) and pure Python.  The compiled module is picked at import
when present; set QUANDLES_PURE_PYTHON=1 to force the fallback.  Both
backends are required to return byte-identical results, including the
placement counts used for resource capping.
"""

from __future__ import annotations

import itertools
import os

MAX_ORDER = 10  # entries are single bytes and the scan state is fixed-size

if os.environ.get("QUANDLES_PURE_PYTHON", "") not in ("", "0"):
    _speedups = None
else:
    try:
        from . import _speedups  # type: ignore[attr-defined]
    except ImportError:
        _speedups = None


def backend() -> str:
    return "c" if _speedups is not None else "python"


def has_speedups() -> bool:
    return _speedups is not None


def candidate_columns0(n: int) -> list[list[tuple[int, ...]]]:
    """Per position i (0-based): the 0-indexed columns fixing i, lexicographic."""
    out = []
    for i in range(n):
        rest = [v for v in range(n) if v != i]
        out.append([perm[:i] + (i,) + perm[i:] for perm in itertools.permutations(rest)])
    return out


def scan(n: int, *, cap: int = 10**9) -> tuple[list[bytes], int, bool]:
    """All standard-form quandle tables of order n, row-major 1-based bytes.

    Column j of a table is its right translation R_j (i -> i|>j); position
    i draws from the lexicographic candidate list of columns fixing i.  The
    scan branches on the least unset position and then forces columns by
    self-distributivity, R_{R_k(j)} = R_k R_j R_k^-1, to a fixpoint,
    rejecting the branch when a forced column contradicts a set one.  Tables
    come out lexicographic in the column-index tuple.  Each tried candidate
    counts as one placement (forced columns are free); the scan stops once
    the count exceeds `cap`, returning (partial output, count, True).
    """
    if not 1 <= n <= MAX_ORDER:
        raise ValueError(f"order must be in 1..{MAX_ORDER}")
    cands = candidate_columns0(n)
    if _speedups is not None:
        packed = [b"".join(bytes(c) for c in pool) for pool in cands]
        # the C count is a long long; no scan gets near its limit, so clamping is exact
        return _speedups.scan(n, packed, len(cands[0]), max(0, min(cap, 2**63 - 1)))
    return _scan_closure_pure(n, cands, cap)


def _scan_closure_pure(n, cands, cap):
    out: list[bytes] = []
    cols: list[tuple[int, ...] | None] = [None] * n  # cols[t] is R_t once placed or forced
    trail: list[int] = []  # positions in the order they were set
    rng = range(n)

    def propagate(start):
        # pair each newly set position with every position set up to it;
        # pairs with positions set later are met when those are dequeued
        q = start
        while q < len(trail):
            a = trail[q]
            for b in trail[: q + 1]:
                for k, j in ((a, b), (b, a)) if a != b else ((a, a),):
                    ck = cols[k]
                    cj = cols[j]
                    # R_{R_k(j)} = R_k R_j R_k^-1: the column F with F[R_k(y)] = R_k(R_j(y))
                    forced = [0] * n
                    for y in rng:
                        forced[ck[y]] = ck[cj[y]]
                    forced = tuple(forced)
                    t = ck[j]
                    ct = cols[t]
                    if ct is None:
                        cols[t] = forced
                        trail.append(t)
                    elif ct != forced:
                        return False
            q += 1
        return True

    placements = 0
    hit = False

    def walk():
        nonlocal placements, hit
        d = cols.index(None)
        mark = len(trail)
        for col in cands[d]:
            placements += 1
            if placements > cap:
                hit = True
                return
            cols[d] = col
            trail.append(d)
            if propagate(mark):
                if len(trail) == n:
                    out.append(bytes(cols[j][i] + 1 for i in rng for j in rng))
                else:
                    walk()
                    if hit:
                        return
            while len(trail) > mark:
                cols[trail.pop()] = None

    walk()
    return out, placements, hit


def orbit(flat: bytes, n: int) -> tuple[dict[bytes, bytes], list[bytes]]:
    """One walk over the n! relabellings of a table, in lexicographic order.

    `flat` is the row-major 1-based byte encoding; a relabelling rho is the
    bytes of its 1-based image array and acts by
    out[rho(i)][rho(j)] = rho(flat[i][j]).  Returns (images, stabilizer):
    `images` maps every distinct relabelled table to the least relabelling
    that reaches it, and `stabilizer` lists the relabellings fixing `flat`,
    least first.  By orbit-stabilizer len(images) * len(stabilizer) == n!.
    Raises ValueError unless 1 <= n <= MAX_ORDER, len(flat) == n*n and every
    entry lies in 1..n.
    """
    if _speedups is not None:
        return _speedups.orbit(flat, n)
    return _orbit_pure(flat, n)


def _orbit_pure(flat: bytes, n: int) -> tuple[dict[bytes, bytes], list[bytes]]:
    if not 1 <= n <= MAX_ORDER:
        raise ValueError("order out of range")
    if len(flat) != n * n:
        raise ValueError("flat length does not match order")
    for x in flat:
        if not 1 <= x <= n:
            raise ValueError(f"entry {x} outside 1..{n}")
    images: dict[bytes, bytes] = {}
    stabilizer: list[bytes] = []
    values = bytearray(range(256))
    inverse = [0] * n
    rng = range(n)
    for p in itertools.permutations(rng):
        word = bytes(x + 1 for x in p)
        values[1 : n + 1] = word
        relabelled = flat.translate(values)
        for i in rng:
            inverse[p[i]] = i
        # out[a][b] = rho(flat[rho^-1(a)][rho^-1(b)])
        cand = bytes([relabelled[q * n + r] for q in inverse for r in inverse])
        images.setdefault(cand, word)
        if cand == flat:
            stabilizer.append(word)
    return images, stabilizer


def canon_min(flat: bytes, n: int) -> bytes:
    """Lexicographically least relabelling of a table: the least orbit member."""
    return min(orbit(flat, n)[0])
