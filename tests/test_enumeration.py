import hashlib
import inspect
import itertools
import math
import re
from collections import Counter

import pytest

from quandles import (
    QuandleMatrix,
    ResourceLimitError,
    all_tables,
    canonical_form,
    enumerate_all,
    enumerate_classes,
    trivial,
)
from quandles import _kernel, cli

import tables


def test_lift_gives_every_position_its_candidates():
    # position i's candidates: the permutations of range(n) that fix i, in
    # lexicographic order, (n - 1)! of them, lifted from one list
    assert [_kernel.lift(p, 0) for p in itertools.permutations(range(2))] == [(0, 1, 2), (0, 2, 1)]
    assert [_kernel.lift(p, 1) for p in itertools.permutations(range(2))] == [(0, 1, 2), (2, 1, 0)]
    for n in range(1, 7):
        base = list(itertools.permutations(range(n - 1)))
        for i in range(n):
            fixing_i = [col for col in itertools.permutations(range(n)) if col[i] == i]
            assert len(fixing_i) == math.factorial(n - 1)
            assert [_kernel.lift(p, i) for p in base] == fixing_i


def test_stream_counts_and_first_element(matrices_for):
    expected_totals = {1: 1, 2: 1, 3: 5, 4: 36, 5: 404}
    for n, total in expected_totals.items():
        stream = matrices_for(n)
        assert len(stream) == total
        assert len(set(stream)) == total
        assert stream[0] == trivial(n)
        assert all(m.verify().valid for m in stream[:40])
        assert all(m.trace() == n * (n + 1) // 2 for m in stream)


def test_class_counts(report_for):
    for n, expected in tables.EXPECTED_CLASS_COUNTS.items():
        assert len(report_for(n).classes) == expected


def test_report_invariants(report_for):
    for n in range(1, 6):
        report = report_for(n)
        assert report.n == n
        assert report.elapsed >= 0
        assert sum(rec.np for rec in report.classes) == report.total_valid_matrices
        reps = [rec.representative for rec in report.classes]
        assert reps == sorted(reps, key=lambda m: m.rows)
        for rec in report.classes:
            assert rec.np * rec.aut_order == math.factorial(n)
            assert canonical_form(rec.representative) == rec.representative
            assert rec.representative.verify().valid
            assert rec.latin == rec.representative.is_latin()
            assert rec.connected == rec.representative.is_connected()
            if rec.latin:
                assert rec.connected


def test_latin_classes_order5(report_for):
    latin = [rec for rec in report_for(5).classes if rec.latin]
    assert len(latin) == 3
    assert all(rec.connected for rec in latin)
    assert all(rec.aut_order == 20 for rec in latin)


def test_every_table_row_appears_as_class(report_for):
    for n, rows_and_labels in tables.CLASS_TABLES.items():
        by_rep = {rec.representative: rec for rec in report_for(n).classes}
        seen = set()
        for rows, label in rows_and_labels:
            rep = canonical_form(QuandleMatrix(rows))
            assert rep in by_rep
            assert by_rep[rep].aut_id.label == label
            seen.add(rep)
        assert len(seen) == len(by_rep)


def test_resource_cap(monkeypatch):
    # order 5: 208 placements keep 33 tables, charged 5! relabellings each
    enumerate_classes(5, cap=4168)
    monkeypatch.setattr(_kernel, "orbit", None)  # the budget is checked before any orbit walk
    with pytest.raises(ResourceLimitError) as exc:
        enumerate_classes(5, cap=4167)
    assert (exc.value.placements, exc.value.relabellings, exc.value.charged) == (208, 3960, 4168)
    # order 4: the first kept table, after 4 placements, is charged 4! and passes the cap
    with pytest.raises(ResourceLimitError) as exc:
        list(enumerate_all(4, cap=20))
    assert (exc.value.placements, exc.value.relabellings, exc.value.charged) == (4, 24, 28)


def test_options_validation(monkeypatch):
    # the budget is the only setting, one keyword-only cap, and it must be
    # positive; every entry point raises at the call, before iteration
    with pytest.raises(ValueError):
        enumerate_all(11)
    monkeypatch.setattr(_kernel, "scan", None)  # a bad cap is rejected before any scan
    for entry in (enumerate_classes, all_tables, enumerate_all):
        params = inspect.signature(entry).parameters.values()
        assert [(p.name, p.kind) for p in params] == [
            ("n", inspect.Parameter.POSITIONAL_OR_KEYWORD),
            ("cap", inspect.Parameter.KEYWORD_ONLY),
        ]
        assert inspect.signature(entry).parameters["cap"].default == _kernel.DEFAULT_CAP
        with pytest.raises(ValueError, match="cap must be positive"):
            entry(3, cap=0)


def test_order6_classification_pinned(fastest_kernel, capsys):
    report = enumerate_classes(6)
    assert len(report.classes) == 73
    assert report.total_valid_matrices == 6658
    assert sum(rec.np for rec in report.classes) == 6658
    cli._print_classes_machine(report)
    stream = capsys.readouterr().out.encode()
    assert hashlib.md5(stream).hexdigest() == "bb3b3f9fd60bfcb8b73c3c3f2846ff3f"


@pytest.mark.parametrize(
    "n, count, digest",
    [(5, 404, "7838ea2aaf7f55428a1dfdeea783cb9f"), (6, 6658, "fe6307986ee4a53527b92e853221a485")],
)
def test_all_tables_stream_pinned_on_pure_python(n, count, digest, monkeypatch, capsys):
    monkeypatch.setattr(_kernel, "_speedups", None)
    assert cli.main(["enumerate", str(n), "--all", "--machine"]) == 0
    stream = capsys.readouterr().out.encode()
    assert stream.count(b"\n") == count
    assert hashlib.md5(stream).hexdigest() == digest


def _normalize_labels(stream: bytes) -> bytes:
    return re.sub(rb"(?m)^(aut=\d+):\S+", rb"\1:*", stream)


def test_order7_classification_pinned(compiled, capsys):
    # pure Python takes seconds here, so this runs only on the compiled kernel
    flats, placements, hit = _kernel.scan(7)
    assert (len(flats), placements, hit) == (1405, 48116, False)
    report = enumerate_classes(7)
    assert len(report.classes) == 298
    assert report.total_valid_matrices == 152900
    assert sum(rec.np for rec in report.classes) == 152900
    assert cli.main(["enumerate", "7", "--machine"]) == 0
    stream = capsys.readouterr().out.encode()
    # group labels are fingerprint matches, not proofs, so the tables and
    # counts are pinned apart from them, and the labels as they stand
    digest = hashlib.md5(_normalize_labels(stream)).hexdigest()
    assert digest == "683415d7a7ed3c3ea1a388648748d23f"
    assert hashlib.md5(stream).hexdigest() == "a1f6a862951a6a1978f12589bfa2714e"
    labels = Counter(re.findall(rb"(?m)^aut=\d+:(\S+)", stream))
    assert labels == {
        b"unidentified": 220, b"Z3xZ2": 40, b"S3xZ2": 13, b"D8": 11, b"Z2xZ2": 6,
        b"S4": 3, b"Z5": 2, b"Z4": 1, b"S3": 1, b"A4": 1,
    }
    # every table, from the class orbits: the stream the exhaustive scan used to emit
    assert cli.main(["enumerate", "7", "--all", "--machine"]) == 0
    stream = capsys.readouterr().out.encode()
    assert stream.count(b"\n") == 152900
    assert hashlib.md5(stream).hexdigest() == "d1130964dc410313596cacbf2e860eeb"


def test_order8_classification_pinned(compiled, capsys):
    # order 8 fits the default budget: 1,345,916 placements + 14,584 x 8! relabellings.
    # The md5s match the exhaustive scan of all 5,225,916 tables that the
    # normal-form scan replaced.
    flats, placements, hit = _kernel.scan(8)
    assert (len(flats), placements, hit) == (14584, 1345916, False)
    assert cli.main(["enumerate", "8", "--machine"]) == 0
    stream = capsys.readouterr().out.encode()
    assert stream.count(b"aut=") == 1581
    assert sum(map(int, re.findall(rb"np=(\d+)", stream))) == 5225916
    assert (stream.count(b"connected=1"), stream.count(b"latin=1")) == (3, 2)
    assert hashlib.md5(_normalize_labels(stream)).hexdigest() == "72bd7742a5d36c2168ad94f163a29964"
    assert hashlib.md5(stream).hexdigest() == "d9b3ced0c92c6289e91870a86389711d"


def test_table_missing_from_scan_breaks_orbit_stabilizer(monkeypatch):
    flats, _, hit = _kernel.scan(5)
    assert (len(flats), hit) == (33, False)
    kept_in_class = Counter()
    class_of = {}
    for k, rec in enumerate(enumerate_classes(5).classes):
        for image in sorted(_kernel.orbit(rec.representative.flat(), 5, _kernel.KEEP_ALL)[3]):
            class_of[image] = k
    kept_in_class.update(class_of[flat] for flat in flats)
    # a class with one normal form leaves no trace when it is dropped; every other
    # drop shows, both where the walk keeps the normal forms and where it keeps all
    dropped = [k for k, flat in enumerate(flats) if kept_in_class[class_of[flat]] > 1]
    assert len(dropped) == 18
    for k in dropped:
        partial = flats[:k] + flats[k + 1 :]
        monkeypatch.setattr(_kernel, "scan", lambda n, cap: (partial, 0, False))
        with pytest.raises(RuntimeError, match="orbit-stabilizer mismatch"):
            enumerate_classes(5)
        with pytest.raises(RuntimeError, match="orbit-stabilizer mismatch"):
            all_tables(5)
    # and a table the scan should not have kept shows too, before or after its class
    stray = next(image for image in class_of if image not in flats)
    for extra in (flats + [stray], [stray] + flats):
        monkeypatch.setattr(_kernel, "scan", lambda n, cap: (extra, 0, False))
        with pytest.raises(RuntimeError, match="orbit-stabilizer mismatch|walked twice"):
            enumerate_classes(5)
        with pytest.raises(RuntimeError, match="orbit-stabilizer mismatch|walked twice"):
            all_tables(5)
