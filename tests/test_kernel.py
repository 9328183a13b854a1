import itertools
import math
import os
import subprocess
import sys

import pytest

from quandles import (
    Permutation,
    QuandleMatrix,
    _kernel,
    all_tables,
    column_candidates,
    enumerate_classes,
    permute,
)


def _pure_scan(n, cap=_kernel.DEFAULT_CAP):
    return _kernel._scan_closure_pure(n, _kernel.cycle_type_ranks(n), cap)


def _in_normal_form(cols):
    """R_0 has the table's greatest cycle type and is position 0's first candidate of that type."""
    types = [Permutation(col).cycle_type() for col in cols]
    first = next(
        col for col in column_candidates(len(cols), 1) if Permutation(col).cycle_type() == types[0]
    )
    return types[0] == max(types) and cols[0] == first


def _three_condition_reference(n):
    """Every candidate table that passes QuandleMatrix.verify(), in candidate order,
    and the normal-form ones among them."""
    valid, normal = [], []
    for cols in itertools.product(*(column_candidates(n, i) for i in range(1, n + 1))):
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


def _same_orbit(compiled, flat, n):
    # both backends give the same walk in every keep mode, and each mode keeps
    # its share of the whole orbit
    walks = {}
    for keep in (_kernel.KEEP_NONE, _kernel.KEEP_COLUMN0, _kernel.KEEP_ALL):
        walks[keep] = compiled.orbit(flat, n, keep)
        assert walks[keep] == _kernel._orbit_pure(flat, n, keep)
    least, witness, stabilizer, orbit = walks[_kernel.KEEP_ALL]
    assert len(orbit) * len(stabilizer) == math.factorial(n)
    assert least == min(orbit) and flat in orbit
    assert stabilizer == sorted(stabilizer)
    table = QuandleMatrix.from_flat(flat, n)
    assert permute(table, Permutation(tuple(witness))).flat() == least
    assert walks[_kernel.KEEP_NONE] == (least, witness, stabilizer, set())
    same_column0 = {image for image in orbit if image[::n] == flat[::n]}
    assert walks[_kernel.KEEP_COLUMN0] == (least, witness, stabilizer, same_column0)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_orbit_backends_agree(n, compiled):
    for flat in all_tables(n):
        _same_orbit(compiled, flat, n)


def test_orbit_backends_agree_on_order6_classes(compiled):
    classes = enumerate_classes(6).classes
    assert len(classes) == 73
    for rec in classes:
        _same_orbit(compiled, rec.representative.flat(), 6)


def test_orbit_images_and_stabilizer(fastest_kernel):
    # the transposition quandle of order 3: Aut = S3, a single table in its class
    flat = bytes([1, 3, 2, 3, 2, 1, 2, 1, 3])
    least, witness, stabilizer, images = _kernel.orbit(flat, 3, _kernel.KEEP_ALL)
    assert (least, witness, images) == (flat, b"\x01\x02\x03", {flat})
    assert stabilizer == sorted(stabilizer) and len(stabilizer) == 6
    # an order-3 class of size 3, walked from a member that is not its least:
    # (1 2 3) and (1 3) reach the least image, and 231 < 321 comes first
    flat = bytes([1, 1, 2, 2, 2, 1, 3, 3, 3])
    least = bytes([1, 1, 1, 3, 2, 2, 2, 3, 3])
    same_column0 = bytes([1, 3, 1, 2, 2, 2, 3, 1, 3])
    walk = _kernel.orbit(flat, 3, _kernel.KEEP_ALL)
    stabilizer = [b"\x01\x02\x03", b"\x02\x01\x03"]
    assert walk == (least, b"\x02\x03\x01", stabilizer, {flat, least, same_column0})
    # no image is kept by default; KEEP_COLUMN0 keeps those whose column 0 is (1, 2, 3)
    assert _kernel.orbit(flat, 3) == walk[:3] + (set(),)
    assert _kernel.orbit(flat, 3, _kernel.KEEP_COLUMN0) == walk[:3] + ({flat, same_column0},)
    assert _kernel.canon_min(flat, 3) == least


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
    assert orbit_backend(flat, 2, _kernel.KEEP_ALL)[3] == {flat}
    for keep in (_kernel.KEEP_NONE - 1, _kernel.KEEP_ALL + 1):
        with pytest.raises(ValueError):
            orbit_backend(flat, 2, keep)


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
