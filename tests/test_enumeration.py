import hashlib
import math

import pytest

from quandles import (
    EnumerationOptions,
    QuandleMatrix,
    ResourceLimitError,
    canonical_form,
    column_candidates,
    enumerate_all,
    enumerate_classes,
    trivial,
)
from quandles import _kernel, cli, enumeration

import tables


def test_column_candidates_small():
    assert column_candidates(3, 1) == [(1, 2, 3), (1, 3, 2)]
    assert column_candidates(3, 2) == [(1, 2, 3), (3, 2, 1)]
    for i in range(1, 6):
        cols = column_candidates(5, i)
        assert len(cols) == 24
        assert all(col[i - 1] == i for col in cols)
        assert cols == sorted(cols)
    with pytest.raises(IndexError):
        column_candidates(3, 4)
    with pytest.raises(IndexError):
        column_candidates(3, 0)


def test_stream_counts_and_first_element(matrices_for):
    expected_totals = {1: 1, 2: 1, 3: 5, 4: 36, 5: 404}
    for n, total in expected_totals.items():
        stream = matrices_for(n)
        assert len(stream) == total
        assert len(set(stream)) == total
        assert stream[0] == trivial(n)
        assert all(m.verify().valid for m in stream[:40])
        assert all(m.trace() == n * (n + 1) // 2 for m in stream)


def test_strategies_emit_identical_streams(matrices_for):
    for n in range(1, 5):
        assert matrices_for(n, "naive") == matrices_for(n, "backtracking")


def test_class_counts(report_for):
    for n, expected in tables.EXPECTED_CLASS_COUNTS.items():
        assert len(report_for(n).classes) == expected


def test_report_invariants(report_for):
    for n in range(1, 6):
        report = report_for(n)
        assert report.n == n
        assert report.strategy == "backtracking"
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


def test_naive_classes_match(report_for):
    for n in (3, 4, 5):
        naive = report_for(n, "naive")
        back = report_for(n, "backtracking")
        assert naive.total_valid_matrices == back.total_valid_matrices
        assert [r.representative for r in naive.classes] == [r.representative for r in back.classes]
        assert [(r.aut_order, r.np, r.latin, r.connected) for r in naive.classes] == [
            (r.aut_order, r.np, r.latin, r.connected) for r in back.classes
        ]


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


def test_resource_cap():
    with pytest.raises(ResourceLimitError) as exc:
        enumerate_classes(5, EnumerationOptions(max_placements=2000))
    assert exc.value.placements == 2001
    with pytest.raises(ResourceLimitError):
        list(enumerate_all(4, EnumerationOptions(strategy="naive", max_placements=100)))


def test_options_validation():
    with pytest.raises(ValueError):
        EnumerationOptions(strategy="magic")
    with pytest.raises(ValueError):
        EnumerationOptions(max_placements=0)
    with pytest.raises(ValueError):
        list(enumerate_all(11))


def test_order6_classification_pinned(fastest_kernel, capsys):
    report = enumerate_classes(6)
    assert len(report.classes) == 73
    assert report.total_valid_matrices == 6658
    assert sum(rec.np for rec in report.classes) == 6658
    cli._print_classes_machine(report)
    stream = capsys.readouterr().out.encode()
    assert hashlib.md5(stream).hexdigest() == "bb3b3f9fd60bfcb8b73c3c3f2846ff3f"


def test_table_missing_from_scan_breaks_orbit_stabilizer(monkeypatch):
    flats, placements = enumeration._scan_all(4, EnumerationOptions())
    np_of = {}
    for rec in enumerate_classes(4).classes:
        for image in _kernel.orbit(rec.representative.flat(), 4)[0]:
            np_of[image] = rec.np
    # a class of one table leaves no trace when dropped; every other drop shows
    dropped = [k for k, flat in enumerate(flats) if np_of[flat] > 1]
    assert len(dropped) == 35
    for k in dropped:
        partial = flats[:k] + flats[k + 1 :]
        monkeypatch.setattr(enumeration, "_scan_all", lambda n, opts: (partial, placements))
        with pytest.raises(RuntimeError, match="orbit-stabilizer mismatch"):
            enumerate_classes(4)
