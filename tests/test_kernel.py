import hashlib
import itertools
import math
import os
import random
import subprocess
import sys
import threading
import tracemalloc
import types

import pytest
from reference import columns, orbit_by_relabelling

from quandles import (
    Permutation,
    QuandleMatrix,
    _kernel,
    alexander,
    all_tables,
    are_isomorphic,
    automorphism_group,
    canonical_form,
    dihedral,
    enumerate_classes,
    np_count,
    permute,
    trivial,
)
from quandles.cli import main


def _pure_scan(n, cap=_kernel.DEFAULT_CAP):
    return _kernel._scan_closure_pure(n, _kernel.cycle_type_ranks(n), cap)


def _candidates(n, i):
    """Position i's candidate columns by definition: the permutations of 1..n fixing i, in order."""
    return [col for col in itertools.permutations(range(1, n + 1)) if col[i - 1] == i]


def _cycle_type(col):
    """Cycle lengths of a 1-based column, fixed points included, descending; not the kernel's walk."""
    lengths = [len(c) for c in Permutation(col).cycles()]
    return sorted(lengths + [1] * (len(col) - sum(lengths)), reverse=True)


def _in_normal_form(cols):
    """R_0 has the table's greatest cycle type and is position 0's first candidate of that type."""
    types = [_cycle_type(col) for col in cols]
    first = next(col for col in _candidates(len(cols), 1) if _cycle_type(col) == types[0])
    return types[0] == max(types) and cols[0] == first


def _three_condition_reference(n):
    """Every candidate table that passes QuandleMatrix.verify(), in candidate order,
    and the normal-form ones among them."""
    valid, normal = [], []
    for cols in itertools.product(*(_candidates(n, i) for i in range(1, n + 1))):
        flat = bytes(cols[j][i] for i in range(n) for j in range(n))
        if QuandleMatrix.from_flat(flat, n).verify().valid:
            valid.append(flat)
            if _in_normal_form(cols):
                normal.append(flat)
    return valid, normal


def test_cycle_type_ranks():
    # types of the permutations of range(3): (1,1,1) < (2,1) < (3)
    assert _kernel.cycle_type_ranks(4) == bytes([0, 1, 1, 2, 2, 1])
    assert _kernel.cycle_type_ranks(1) == b"\x00"
    for n in range(1, 7):
        base = list(itertools.permutations(range(n - 1)))
        ranks = _kernel.cycle_type_ranks(n)
        types = sorted({_kernel.cycle_type(_kernel.lift(p, 0)) for p in base})
        assert len(types) == len(set(ranks))  # p(n - 1) types
        for i in range(n):
            # position i's lifted list is its lexicographic candidate list
            lifted = [_kernel.lift(p, i) for p in base]
            assert lifted == [col for col in itertools.permutations(range(n)) if col[i] == i]
            assert [types.index(_kernel.cycle_type(col)) for col in lifted] == list(ranks)


def test_cycle_type_ranks_are_computed_once_per_order():
    # every scan of one order shares one immutable rank table
    for n in (4, 10):
        assert _kernel.cycle_type_ranks(n) is _kernel.cycle_type_ranks(n)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_scan_matches_three_condition_reference(n, fastest_kernel):
    # the scan against the paper's definition, kept in normal form; placements
    # count branches only
    valid, normal = _three_condition_reference(n)
    assert len(valid) == [1, 1, 5, 36][n - 1]
    assert len(normal) == [1, 1, 3, 7][n - 1]
    assert _pure_scan(n) == (normal, [1, 2, 6, 24][n - 1], False)
    assert _kernel.scan(n)[0] == normal
    # the class orbits of the normal forms give back every valid table, in candidate order
    assert all_tables(n) == valid


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_backends_agree_exactly(n, compiled):
    assert _kernel.scan(n) == _pure_scan(n)


def test_backends_agree_on_caps(compiled):
    # identical partial output and placement count where the budget (1 per
    # placement, 6! per kept table) cuts the scan; 726 and 730 cut on a
    # placement after the first kept table
    cuts = {
        1: (0, 2), 10: (1, 6), 137: (1, 6), 1000: (2, 11), 2500: (4, 15),
        726: (1, 7), 730: (1, 11),
    }
    for cap, (tables, placements) in cuts.items():
        expected = _pure_scan(6, cap=cap)
        assert (len(expected[0]),) + expected[1:] == (tables, placements, True)
        assert _kernel.scan(6, cap=cap) == expected


@pytest.mark.parametrize("n, caps", [(4, range(193)), (5, [*range(0, 4169, 13), 4167, 4168])])
def test_backends_agree_on_every_cap(n, caps, fastest_kernel):
    # the charge is placements + n! per kept table: 24 + 7 * 4! = 192 for the
    # whole order-4 scan, 208 + 33 * 5! = 4,168 for order 5
    whole, whole_placements, _ = _pure_scan(n)
    full = whole_placements + len(whole) * math.factorial(n)
    assert full == {4: 192, 5: 4168}[n]
    for cap in caps:
        expected = tables, placements, hit = _pure_scan(n, cap=cap)
        assert _kernel.scan(n, cap=cap) == expected
        assert hit == (cap < full)
        if hit:
            # cut at the first charge past the cap, with the whole scan's first tables
            assert placements + len(tables) * math.factorial(n) > cap
            assert tables == whole[: len(tables)]


def test_order9_scan_is_pinned(compiled):
    # the order where the compiled scan does most of its work; about 1.5 s and 30 MB
    tables, placements, hit = _kernel.scan(9, cap=10**11)
    assert (len(tables), placements, hit) == (218025, 56465079, False)
    assert hashlib.md5(b"".join(tables)).hexdigest() == "a7a5ad7a6102d342cd627d354cbeb83f"


@pytest.mark.parametrize("n, tables, placements", [(5, 33, 208), (6, 181, 2577), (7, 1405, 48116)])
def test_backends_agree_closure(n, tables, placements, fastest_kernel):
    # forced and skipped columns are free: only the branches count; the pure
    # counts are pinned even where the compiled kernel does not build
    expected = _pure_scan(n)
    assert (len(expected[0]),) + expected[1:] == (tables, placements, False)
    assert _kernel.scan(n) == expected


def test_backends_agree_past_the_c_counter_range(compiled):
    # the compiled kernel counts in a long long; a larger cap is clamped, not an error
    expected = _pure_scan(3, cap=10**20)
    assert expected[2] is False
    assert _kernel.scan(3, cap=10**20) == expected
    assert _kernel.scan(3, cap=-(10**20)) == _pure_scan(3, cap=-(10**20))


def _ascending(images):
    return all(a < b for a, b in zip(images, images[1:]))


def _same_orbit(compiled, flat, n):
    # both backends give the same walk in every keep mode, and each mode keeps
    # its share of the whole orbit, as strictly ascending column tuples
    walks = {}
    for keep in (_kernel.KEEP_NONE, _kernel.KEEP_COLUMN0, _kernel.KEEP_ALL):
        walks[keep] = compiled.orbit(flat, n, keep)
        assert walks[keep] == _kernel._orbit_pure(flat, n, keep)
        assert _ascending(walks[keep][3])
    least, witness, stabilizer, orbit = walks[_kernel.KEEP_ALL]
    assert len(orbit) * len(stabilizer) == math.factorial(n)
    tables = [columns(image, n) for image in orbit]  # the transpose turns a column tuple back
    assert least == min(tables) and flat in tables
    assert stabilizer == sorted(stabilizer)
    table = QuandleMatrix.from_flat(flat, n)
    assert permute(table, Permutation(tuple(witness))).flat() == least
    assert walks[_kernel.KEEP_NONE] == (least, witness, stabilizer, [])
    same_column0 = [image for image in orbit if image[:n] == flat[::n]]
    assert walks[_kernel.KEEP_COLUMN0] == (least, witness, stabilizer, same_column0)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_orbit_backends_agree(n, compiled):
    for flat in all_tables(n):
        _same_orbit(compiled, flat, n)


def test_orbit_backends_agree_on_order6_classes(compiled, monkeypatch):
    # the class representatives, and the normal forms the classification walks:
    # on those KEEP_COLUMN0 keeps each class's normal forms, several for 40 of them
    walked = []
    orbit = _kernel.orbit
    monkeypatch.setattr(_kernel, "orbit", lambda flat, n, keep: walked.append(flat) or orbit(flat, n, keep))
    classes = enumerate_classes(6).classes
    assert len(classes) == len(walked) == 73
    for flat in [rec.representative.flat() for rec in classes] + walked:
        _same_orbit(compiled, flat, 6)
    normal = [compiled.orbit(flat, 6, _kernel.KEEP_COLUMN0)[3] for flat in walked]
    assert sum(len(images) > 1 for images in normal) == 40
    scanned = sorted(columns(flat, 6) for flat in _kernel.scan(6)[0])
    assert sorted(image for images in normal for image in images) == scanned


@pytest.mark.parametrize(
    "table",
    [trivial(7), trivial(8), dihedral(8), alexander(8, [3, 1])],
    ids=["trivial7", "trivial8", "dihedral8", "alexander8"],
)
def test_orbit_backends_agree_past_order6(table, compiled):
    # Aut of S_7, S_8, order 32 and order 128: many coset pairs for KEEP_ALL's second pass
    _same_orbit(compiled, table.flat(), table.n)


def test_orbit_backends_agree_on_connected_order7_classes(compiled):
    connected = [rec for rec in enumerate_classes(7).classes if rec.connected]
    assert len(connected) == 5
    for rec in connected:
        _same_orbit(compiled, rec.representative.flat(), 7)


def test_orbit_images_and_stabilizer(fastest_kernel):
    # the transposition quandle of order 3: Aut = S3, a single table in its class
    flat = bytes([1, 3, 2, 3, 2, 1, 2, 1, 3])
    least, witness, stabilizer, images = _kernel.orbit(flat, 3, _kernel.KEEP_ALL)
    assert (least, witness, images) == (flat, b"\x01\x02\x03", [columns(flat, 3)])
    assert stabilizer == sorted(stabilizer) and len(stabilizer) == 6
    # an order-3 class of size 3, walked from a member that is not its least:
    # (1 2 3) and (1 3) reach the least image, and 231 < 321 comes first
    flat = bytes([1, 1, 2, 2, 2, 1, 3, 3, 3])
    least = bytes([1, 1, 1, 3, 2, 2, 2, 3, 3])
    same_column0 = bytes([1, 3, 1, 2, 2, 2, 3, 1, 3])
    walk = _kernel.orbit(flat, 3, _kernel.KEEP_ALL)
    stabilizer = [b"\x01\x02\x03", b"\x02\x01\x03"]
    images = sorted(columns(image, 3) for image in (flat, least, same_column0))
    assert walk == (least, b"\x02\x03\x01", stabilizer, images)
    # no image is kept by default; KEEP_COLUMN0 keeps those whose column 0 is (1, 2, 3)
    assert _kernel.orbit(flat, 3) == walk[:3] + ([],)
    images = sorted(columns(image, 3) for image in (flat, same_column0))
    assert _kernel.orbit(flat, 3, _kernel.KEEP_COLUMN0) == walk[:3] + (images,)
    assert _kernel.canon_min(flat, 3) == least


def _same_as_relabelling(flat, n):
    for keep in (_kernel.KEEP_NONE, _kernel.KEEP_COLUMN0, _kernel.KEEP_ALL):
        assert _kernel._orbit_pure(flat, n, keep) == orbit_by_relabelling(flat, n, keep)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_pure_orbit_matches_relabelling_on_every_table(n):
    # the split walk against one relabelling at a time, needing no compiler
    for flat in all_tables(n):
        _same_as_relabelling(flat, n)


def test_pure_orbit_matches_relabelling_on_order5_normal_forms():
    tables = _kernel.scan(5)[0]
    assert len(tables) == 33
    for flat in tables:
        _same_as_relabelling(flat, 5)


def test_pure_orbit_matches_relabelling_on_order6_classes(report_for):
    classes = report_for(6).classes
    assert len(classes) == 73
    for rec in classes:
        _same_as_relabelling(rec.representative.flat(), 6)


@pytest.mark.parametrize(
    "table, aut_order", [(dihedral(8), 32), (alexander(8, [3, 1]), 128)], ids=["dihedral", "alexander"]
)
def test_pure_orbit_memory_is_bounded(table, aut_order):
    # one order-8 walk from a cold cache holds the gathers of one order (6!
    # of them, under 1 MiB even at order 10) and one prefix block of images;
    # a gather per relabelling, 8! of them, would hold 39 MiB
    assert _kernel._suffix_moves.cache_info().maxsize == 1
    _kernel._suffix_moves.cache_clear()
    flat = table.flat()
    tracemalloc.start()
    try:
        least, witness, stabilizer, _ = _kernel._orbit_pure(flat, 8, _kernel.KEEP_NONE)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 * 2**20
    assert len(_kernel._suffix_moves(8)[1]) == math.factorial(6)
    assert len(stabilizer) == aut_order
    assert permute(table, Permutation(tuple(witness))).flat() == least


@pytest.fixture(params=["python", "c"])
def walks(request, monkeypatch):
    """The keep mode of every walk the active backend makes, from an empty memo."""
    made = []
    if request.param == "c":
        compiled = request.getfixturevalue("compiled")

        def orbit(flat, n, keep):
            made.append(keep)
            return compiled.orbit(flat, n, keep)

        counted = types.ModuleType("counted")  # the compiled kernel, its walks counted
        for name in ("scan", "group_invariants", "verify", "parse"):
            setattr(counted, name, getattr(compiled, name))
        counted.orbit = orbit
        monkeypatch.setattr(_kernel, "_speedups", counted)
    else:
        pure = _kernel._orbit_pure

        def orbit(flat, n, keep):
            made.append(keep)
            return pure(flat, n, keep)

        monkeypatch.setattr(_kernel, "_speedups", None)
        monkeypatch.setattr(_kernel, "_orbit_pure", orbit)
    _kernel._last_walk.cache_clear()
    return made


def _queries(a, b):
    return canonical_form(a), automorphism_group(a), np_count(a), are_isomorphic(a, b)


def _fresh_queries(a, b):
    """The answers with the memo emptied before every call, as if no walk were remembered."""
    answers = []
    for query in (lambda: canonical_form(a), lambda: automorphism_group(a), lambda: np_count(a),
                  lambda: are_isomorphic(a, b)):
        _kernel._last_walk.cache_clear()
        answers.append(query())
    return tuple(answers)


def test_single_table_queries_share_one_walk_per_table(walks):
    rng = random.Random(6)
    reps = [rec.representative for rec in enumerate_classes(6).classes]
    walks.clear()
    perms = [Permutation(rng.sample(range(1, 7), 6)) for _ in range(3)]
    a, b, c = permute(reps[40], perms[0]), permute(reps[40], perms[1]), permute(reps[7], perms[2])
    # canon, Aut and np of a, and iso of a with b: one walk of a and one of b
    answers = _queries(a, b)
    assert walks == [_kernel.KEEP_NONE] * 2
    assert answers == _fresh_queries(a, b) and answers[3] is not None
    # a, then c, then a again: each switch walks again, and the answers are unchanged
    walks.clear()
    assert _queries(c, a) == _fresh_queries(c, a)
    walks.clear()
    assert _queries(a, c) == _fresh_queries(a, c)
    walks.clear()
    assert _queries(a, b) == answers
    assert len(walks) == 2


def test_props_makes_one_walk(walks, capsys, tmp_path):
    # Aut and np read one remembered walk
    path = tmp_path / "m.txt"
    path.write_text(dihedral(5).to_text())
    assert main(["props", str(path)]) == 0
    assert walks == [_kernel.KEEP_NONE]
    assert {"aut_order: 20", "np: 6"} <= set(capsys.readouterr().out.splitlines())


def test_remembered_walk_hands_out_copies(walks):
    flat = bytes([1, 3, 2, 3, 2, 1, 2, 1, 3])
    table = QuandleMatrix.from_flat(flat, 3)
    aut = automorphism_group(table)
    least, witness, stabilizer, images = _kernel.orbit(flat, 3)
    stabilizer.clear()
    images.append(flat)
    assert automorphism_group(table) == aut and aut.order == 6
    assert _kernel.orbit(flat, 3) == (least, witness, [bytes(g.images) for g in aut.elements()], [])
    assert len(walks) == 1
    # a malformed table raises on every call: errors are not remembered
    for _ in range(2):
        with pytest.raises(ValueError):
            _kernel.orbit(b"\x01\x03\x02\x01", 2)


def test_remembered_walk_is_safe_across_threads(fastest_kernel):
    # more threads than cores, switching often, each asking about the order-5
    # classes in its own order: every answer is the one computed alone
    rng = random.Random(5)
    reps = [rec.representative for rec in enumerate_classes(5).classes]
    pairs = [(permute(rep, Permutation(rng.sample(range(1, 6), 5))), rng.choice(reps)) for rep in reps]
    expected = [_fresh_queries(a, b) for a, b in pairs]
    wrong = []

    def ask(seed):
        order = random.Random(seed).sample(range(len(pairs)), len(pairs))
        for k in order * 3:
            if _queries(*pairs[k]) != expected[k]:
                wrong.append(k)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=ask, args=(seed,)) for seed in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert wrong == []


def test_classification_walks_are_not_remembered(walks):
    first = enumerate_classes(5)
    made = len(walks)
    assert made == len(first.classes) and set(walks) == {_kernel.KEEP_COLUMN0}
    assert enumerate_classes(5).classes == first.classes
    assert len(walks) == 2 * made


@pytest.fixture(params=["python", "c"])
def orbit_backend(request):
    if request.param == "python":
        return _kernel._orbit_pure
    return request.getfixturevalue("compiled").orbit


@pytest.mark.parametrize(
    "flat, n",
    [
        (b"\x00" * 4, 2),  # entry below 1
        (b"\x01\x09\x09\x02", 2),  # entry above n
        (b"\x01\x02\x03\x04", 2),  # entry n + 1
        (b"\x01\x01", 2),  # wrong length
        (b"", 0),  # order below 1
        (b"\x01" * 121, 11),  # order above MAX_ORDER
        (b"", 1 << 20),  # an order whose square overflows an int
    ],
)
def test_orbit_rejects_malformed_tables(orbit_backend, flat, n):
    with pytest.raises(ValueError):
        orbit_backend(flat, n, _kernel.KEEP_NONE)


def test_orbit_rejects_unknown_keep(orbit_backend):
    flat = b"\x01\x01\x02\x02"
    assert orbit_backend(flat, 2, _kernel.KEEP_ALL)[3] == [columns(flat, 2)]
    for keep in (_kernel.KEEP_NONE - 1, _kernel.KEEP_ALL + 1):
        with pytest.raises(ValueError):
            orbit_backend(flat, 2, keep)


@pytest.fixture(params=["python", "c"])
def invariants_backend(request):
    if request.param == "python":
        return _kernel._group_invariants_pure
    return request.getfixturevalue("compiled").group_invariants


@pytest.mark.parametrize(
    "blob, n, message",
    [
        (b"", 3, "blob length 0 is not a positive multiple of 3"),
        (b"\x01\x02\x03\x01", 3, "blob length 4 is not a positive multiple of 3"),
        (b"\x01", 0, "degree must be in 1..255"),
        (bytes(range(256)), 256, "degree must be in 1..255"),
        (b"\x01\x02\x03\x02\x02\x03", 3, "element 1 is not a permutation of 1..3"),
        (b"\x02\x03\x03", 3, "element 0 is not a permutation of 1..3"),
        # range is checked over the whole blob first, in blob order
        (b"\x01\x01\x03\x02\x00\x03", 3, "entry 0 outside 1..3"),
        (b"\x01\x02\x04", 3, "entry 4 outside 1..3"),
    ],
)
def test_group_invariants_rejects_malformed_input(invariants_backend, blob, n, message):
    with pytest.raises(ValueError) as exc:
        invariants_backend(blob, n)
    assert str(exc.value) == message


def test_group_invariants_backends_agree_on_random_blobs(compiled):
    # the same result or the same ValueError text, whichever element or entry fails first
    rng = random.Random(11)
    for _ in range(2000):
        n = rng.randint(1, 6)
        words = [rng.sample(range(1, n + 1), n) for _ in range(rng.randint(1, 4))]
        for word in words:
            if rng.random() < 0.2:
                word[rng.randrange(n)] = rng.choice([0, n + 1, rng.randint(1, n)])
        blob = bytes(x for word in words for x in word)
        outcomes = []
        for kernel in (compiled.group_invariants, _kernel._group_invariants_pure):
            try:
                outcomes.append(kernel(blob, n))
            except ValueError as exc:
                outcomes.append(str(exc))
        assert outcomes[0] == outcomes[1]


def test_group_invariants_of_small_groups(invariants_backend):
    # S3 in any element order: (histogram, least coset representatives, center)
    s3 = [bytes(p) for p in itertools.permutations((1, 2, 3))]
    expected = (((1, 1), (2, 3), (3, 2)), (b"\x01\x03\x02", b"\x02\x01\x03", b"\x03\x01\x02"), 1)
    assert invariants_backend(b"".join(s3), 3) == expected
    assert invariants_backend(b"".join(reversed(s3)), 3) == expected
    assert invariants_backend(b"\x01", 1) == (((1, 1),), (), 1)
    # closure is not checked, so the identity and one element of degree 255 will
    # do: its order lcm(2, 3, 5, 7, 11, 13, 17, 19, 23, 29) = 6469693230 needs 64 bits
    images, start = list(range(1, 256)), 0
    for length in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29):
        images[start : start + length] = images[start + 1 : start + length] + [start + 1]
        start += length
    hist, strong, center = invariants_backend(bytes(range(1, 256)) + bytes(images), 255)
    assert (hist, strong, center) == (((1, 1), (6469693230, 1)), (bytes(images),), 2)


def test_compiled_scan_rejects_malformed_ranks(compiled):
    assert compiled.scan(2, b"\x00", 100)[0] == [b"\x01\x01\x02\x02"]
    with pytest.raises(ValueError):
        compiled.scan(2, b"\x00\x00", 100)  # one rank per permutation of range(n - 1)
    with pytest.raises(ValueError):
        compiled.scan(4, b"\x00" * 5, 100)
    with pytest.raises(TypeError):
        compiled.scan(2, [0], 100)  # ranks must be bytes


def test_scan_argument_validation():
    with pytest.raises(ValueError):
        _kernel.scan(0)
    with pytest.raises(ValueError):
        _kernel.scan(11)
    with pytest.raises(TypeError):
        _kernel.scan(3, 99)  # the cap is keyword-only
    with pytest.raises(ValueError):
        _kernel.canon_min(b"\x01\x01", 2)


def test_env_var_forces_pure_backend():
    env = dict(os.environ, QUANDLES_PURE_PYTHON="1")
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env["PYTHONPATH"] = os.path.abspath(src) + os.pathsep + env.get("PYTHONPATH", "")
    out = subprocess.run(
        [sys.executable, "-c", "import quandles; print(quandles.backend())"],
        capture_output=True,
        text=True,
        env=env,
        check=True,
    )
    assert out.stdout.strip() == "python"
