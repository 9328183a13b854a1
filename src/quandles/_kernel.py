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

NAIVE = 0
BACKTRACKING = 1
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


def scan(n: int, strategy: int, *, cap: int = 10**9) -> tuple[list[bytes], int, bool]:
    """All standard-form quandle tables of order n, row-major 1-based bytes.

    Columns are placed left to right from the lexicographic candidate lists;
    output order is lexicographic in the column-index tuple for both
    strategies.  NAIVE materializes every full candidate and checks it
    whole; BACKTRACKING rejects a partial placement as soon as a fully
    determined triple fails.  Each column assignment counts as one
    placement; the scan stops once the count exceeds `cap`, returning
    (partial output, count, True).
    """
    if not 1 <= n <= MAX_ORDER:
        raise ValueError(f"order must be in 1..{MAX_ORDER}")
    if strategy not in (NAIVE, BACKTRACKING):
        raise ValueError(f"unknown strategy code {strategy}")
    cands = candidate_columns0(n)
    if _speedups is not None:
        packed = [b"".join(bytes(c) for c in pool) for pool in cands]
        # the C count is a long long; no scan gets near its limit, so clamping is exact
        return _speedups.scan(n, strategy, packed, len(cands[0]), max(0, min(cap, 2**63 - 1)))
    return _scan_pure(n, strategy, cands, cap)


def _scan_pure(n, strategy, cands, cap):
    out: list[bytes] = []
    cols: list[tuple[int, ...]] = [()] * n
    rng = range(n)
    compose_cache: dict[tuple, tuple] = {}

    def composed(a, b):
        key = (a, b)
        got = compose_cache.get(key)
        if got is None:
            got = compose_cache[key] = tuple(a[x] for x in b)
        return got

    def partial_ok(d):
        # pairs (j, k) whose columns j, k and cols[k][j] all complete at depth d
        for k in range(d + 1):
            ck = cols[k]
            for j in range(d + 1):
                t = ck[j]
                m = k if k > j else j
                if t > m:
                    m = t
                if m != d:
                    continue
                if composed(ck, cols[j]) != composed(cols[t], ck):
                    return False
        return True

    def full_ok():
        for k in rng:
            ck = cols[k]
            for j in rng:
                if composed(ck, cols[j]) != composed(cols[ck[j]], ck):
                    return False
        return True

    placements = 0
    hit = False
    check_partials = strategy == BACKTRACKING
    last = n - 1

    def walk(d):
        nonlocal placements, hit
        for col in cands[d]:
            placements += 1
            if placements > cap:
                hit = True
                return
            cols[d] = col
            if check_partials and not partial_ok(d):
                continue
            if d == last:
                if check_partials or full_ok():
                    out.append(bytes(cols[j][i] + 1 for i in rng for j in rng))
            else:
                walk(d + 1)
                if hit:
                    return

    walk(0)
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
