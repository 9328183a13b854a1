import itertools
import math
import os
import subprocess
import sys

import pytest

from quandles import QuandleMatrix, _kernel, enumerate_classes


def _pure_scan(n, cap=10**9):
    return _kernel._scan_closure_pure(n, _kernel.candidate_columns0(n), cap)


def _three_condition_reference(n):
    """Every candidate table that passes QuandleMatrix.verify(), in candidate order."""
    out = []
    for cols in itertools.product(*_kernel.candidate_columns0(n)):
        flat = bytes(cols[j][i] + 1 for i in range(n) for j in range(n))
        if QuandleMatrix.from_flat(flat, n).verify().valid:
            out.append(flat)
    return out


def test_candidate_columns_fix_position():
    cols = _kernel.candidate_columns0(4)
    assert len(cols) == 4
    for i, pool in enumerate(cols):
        assert len(pool) == 6
        assert all(col[i] == i for col in pool)
        assert pool == sorted(pool)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_scan_matches_three_condition_reference(n, fastest_kernel):
    # the scan against the paper's definition; placements count branches only
    reference = _three_condition_reference(n)
    assert len(reference) == [1, 1, 5, 36][n - 1]
    assert _pure_scan(n) == (reference, [1, 2, 8, 114][n - 1], False)
    assert _kernel.scan(n)[0] == reference


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_backends_agree_exactly(n, compiled):
    assert _kernel.scan(n) == _pure_scan(n)


def test_backends_agree_on_caps(compiled):
    # identical partial output and placement count at the cap
    for cap in (1, 10, 137, 1000):
        assert _kernel.scan(4, cap=cap) == _pure_scan(4, cap=cap)


@pytest.mark.parametrize("n, placements", [(5, 3648), (6, 235800)])
def test_backends_agree_closure(n, placements, compiled):
    # forced columns are free: only the branches count
    expected = _pure_scan(n)
    assert expected[1:] == (placements, False)
    assert _kernel.scan(n) == expected


def test_backends_agree_past_the_c_counter_range(compiled):
    # the compiled kernel counts in a long long; a larger cap is clamped, not an error
    expected = _pure_scan(3, cap=10**20)
    assert expected[2] is False
    assert _kernel.scan(3, cap=10**20) == expected
    assert _kernel.scan(3, cap=-(10**20)) == _pure_scan(3, cap=-(10**20))


def _same_orbit(compiled, flat, n):
    images, stabilizer = compiled.orbit(flat, n)
    pure_images, pure_stabilizer = _kernel._orbit_pure(flat, n)
    # same entries in the same (lexicographic walk) order
    assert list(images.items()) == list(pure_images.items())
    assert stabilizer == pure_stabilizer
    assert len(images) * len(stabilizer) == math.factorial(n)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_orbit_backends_agree(n, compiled):
    flats, _, _ = _pure_scan(n)
    for flat in flats:
        _same_orbit(compiled, flat, n)


def test_orbit_backends_agree_on_order6_classes(compiled):
    classes = enumerate_classes(6).classes
    assert len(classes) == 73
    for rec in classes:
        _same_orbit(compiled, rec.representative.flat(), 6)


def test_orbit_images_and_stabilizer():
    # the transposition quandle of order 3: Aut = S3, a single table in its class
    flat = bytes([1, 3, 2, 3, 2, 1, 2, 1, 3])
    images, stabilizer = _kernel.orbit(flat, 3)
    assert images == {flat: b"\x01\x02\x03"}
    assert stabilizer == sorted(stabilizer) and len(stabilizer) == 6
    # order-3 class of size 3: the least witness of each image comes first
    flat = bytes([1, 1, 1, 3, 2, 2, 2, 3, 3])
    images, stabilizer = _kernel.orbit(flat, 3)
    assert stabilizer == [b"\x01\x02\x03", b"\x01\x03\x02"]
    assert list(images.values()) == [b"\x01\x02\x03", b"\x02\x01\x03", b"\x03\x01\x02"]
    assert _kernel.canon_min(flat, 3) == min(images)


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
    ],
)
def test_orbit_rejects_malformed_tables(orbit_backend, flat, n):
    with pytest.raises(ValueError):
        orbit_backend(flat, n)


def test_compiled_scan_rejects_malformed_pools(compiled):
    packed = [bytes([0, 1]), bytes([0, 1])]
    assert compiled.scan(2, packed, 1, 100)[0] == [b"\x01\x01\x02\x02"]
    with pytest.raises(ValueError):
        compiled.scan(2, [bytes([0, 7]), bytes([0, 1])], 1, 100)
    with pytest.raises(ValueError):
        compiled.scan(2, packed, 2, 100)
    with pytest.raises(ValueError):
        compiled.scan(2, packed[:1], 1, 100)


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
