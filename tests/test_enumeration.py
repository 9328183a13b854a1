import hashlib
import inspect
import itertools
import math
import re
import tracemalloc
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
from quandles.enumeration import _table_blob

import reference
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
            if rec.latin:
                assert rec.connected


# (classes, connected classes, latin classes) for each order
FLAG_COUNTS = {1: (1, 1, 1), 2: (1, 0, 0), 3: (3, 1, 1), 4: (7, 1, 1), 5: (22, 3, 3), 6: (73, 2, 0), 7: (298, 5, 5)}


def test_flags_match_independent_definitions(fastest_kernel):
    # connected: the inner group, generated by the columns, is transitive
    # (its orbits come from the group's strong generating set, not from the
    # row closure behind is_connected); latin: every row is a permutation
    for n in range(1, 7):
        classes = enumerate_classes(n).classes
        for rec in classes:
            rep = rec.representative
            assert rec.connected == rep.inner_group().is_transitive()
            assert rec.latin == all(sorted(row) == list(range(1, n + 1)) for row in rep.rows)
        counts = (len(classes), sum(rec.connected for rec in classes), sum(rec.latin for rec in classes))
        assert counts == FLAG_COUNTS[n]


def test_normal_forms_in_class_counts_the_scanned_tables_of_each_class(fastest_kernel):
    # the theory's count of normal forms, which no runtime check reads, against
    # the scanned tables in each class's whole orbit; order 7 on the compiled kernel
    sizes = {7: (1405, 298)} if fastest_kernel == "c" else {}
    for n in [*range(1, 7), *sizes]:
        flats = set(_kernel.scan(n)[0])
        classes = enumerate_classes(n).classes
        for rec in classes:
            _, stabilizer, images = _kernel.orbit(rec.representative.flat(), n, _kernel.KEEP_ALL)
            members = flats.intersection(reference.columns(image, n) for image in images)
            assert members
            for flat in members:
                assert reference.normal_forms_in_class(flat, n, len(stabilizer)) == len(members)
        if n in sizes:
            assert (len(flats), len(classes)) == sizes[n]


@pytest.mark.parametrize("backend", ["python", "c"])
def test_classification_by_the_isomorphism_search_alone(backend, request, monkeypatch, report_for):
    # a second route to the classes that reads no relabelling walk: the scanned
    # tables grouped by _kernel.isomorphism alone.  Every normal form of a class
    # has the same R_0, so a table joins the first class of its column-0 bucket
    # whose first member the search maps onto it.  |Aut| is the theory's count
    # of normal forms under the trivial group over the class size, and each
    # class meets its record by the search too.  Order 7 on the compiled kernel
    if backend == "c":
        request.getfixturevalue("compiled")
    else:
        monkeypatch.setattr(_kernel, "_speedups", None)
    for n in range(1, 8 if backend == "c" else 7):
        buckets: dict[bytes, list[list[bytes]]] = {}
        for flat in _kernel.scan(n)[0]:
            found = buckets.setdefault(flat[::n], [])
            members = next((c for c in found if _kernel.isomorphism(c[0], flat, n) is not None), None)
            if members is None:
                found.append([flat])
            else:
                members.append(flat)
        report = report_for(n)
        records = list(report.classes)
        assert sum(map(len, buckets.values())) == len(records)
        total = 0
        for members in itertools.chain.from_iterable(buckets.values()):
            aut_order, rest = divmod(reference.normal_forms_in_class(members[0], n, 1), len(members))
            assert rest == 0
            rec = next(r for r in records if _kernel.isomorphism(members[0], r.representative.flat(), n))
            records.remove(rec)
            assert (rec.aut_order, rec.np) == (aut_order, math.factorial(n) // aut_order)
            total += rec.np
        assert report.total_valid_matrices == total


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


@pytest.mark.parametrize("backend", ["python", "c"])
def test_non_integral_cap_is_a_type_error_on_both_backends(backend, request, monkeypatch):
    if backend == "c":
        request.getfixturevalue("compiled")
    else:
        monkeypatch.setattr(_kernel, "_speedups", None)
    assert _kernel.backend() == backend

    ranks = _kernel.cycle_type_ranks

    def no_scan(n):
        raise AssertionError("the scan started")

    monkeypatch.setattr(_kernel, "cycle_type_ranks", no_scan)
    for entry in (enumerate_classes, all_tables, enumerate_all):
        for cap in (1e9, 0.5):
            with pytest.raises(TypeError):
                entry(6, cap=cap)
    monkeypatch.setattr(_kernel, "cycle_type_ranks", ranks)
    # an integral cap past the C counter's range still runs on either backend
    assert _kernel.backend() == backend
    assert len(enumerate_classes(4, cap=10**30).classes) == 7


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


@pytest.mark.parametrize("backend", ["python", "c"])
def test_all_tables_match_the_unrestricted_scan(backend, request, monkeypatch):
    # a second route to every table, sharing neither the walk nor the normal
    # form: the same tables in the same order, as many as the classes' np add up to
    if backend == "c":
        request.getfixturevalue("compiled")
    else:
        monkeypatch.setattr(_kernel, "_speedups", None)
    for n in range(1, 6):
        expected = reference.unrestricted_scan(n)
        assert all_tables(n) == expected
        assert len(expected) == sum(rec.np for rec in enumerate_classes(n).classes)


def test_order6_tables_match_the_unrestricted_scan(fastest_kernel, report_for):
    expected = reference.unrestricted_scan(6)
    assert all_tables(6) == expected
    assert len(expected) == sum(rec.np for rec in report_for(6).classes) == 6658


def test_table_blob_drops_each_copy_once_the_next_is_made(compiled):
    # the peak, 5.3x the blob, is the first bounded join of the sorted
    # images: the images (2.2x), the blob (1x), the join's buffer view of
    # each of its 4,096 images (1.4x) and its result (0.6x); the transpose
    # after it holds 3x
    tracemalloc.start()
    try:
        blob = _table_blob(6, _kernel.DEFAULT_CAP)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(blob) == 6658 * 36
    assert peak <= 6 * len(blob)


def test_table_blob_joins_in_bounded_chunks(compiled):
    # at order 7 a join of 4,096 images is a small share of them all, so the
    # peak is the transpose's 3x: the blob, its transposed copy and that
    # copy's bytes; one join of every image, with a buffer view of each
    # besides the images and the result, read 4.5x
    tracemalloc.start()
    try:
        blob = _table_blob(7, _kernel.DEFAULT_CAP)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(blob) == 152900 * 49
    assert peak <= 3.5 * len(blob)


def test_classification_holds_the_scanned_tables_once(compiled):
    # the check keys its unclaimed set by the scanned tables themselves and
    # turns only each class's normal-form run back from column tuples, and
    # each Aut holds its walk's stabilizer as it comes (8.1x); a column-tuple
    # copy of the whole scan, as a set, reads 13.4x here, and a second copy
    # of the largest Aut, 8! automorphisms, 10.75x
    scanned = sum(map(len, _kernel.scan(8)[0]))
    tracemalloc.start()
    try:
        report = enumerate_classes(8)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (scanned, len(report.classes)) == (14584 * 64, 1581)
    assert peak <= 9 * scanned


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
    flags = (len(report.classes), stream.count(b"connected=1"), stream.count(b"latin=1"))
    assert flags == FLAG_COUNTS[7]
    assert all(rec.connected == rec.representative.inner_group().is_transitive() for rec in report.classes)
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
        images = _kernel.orbit(rec.representative.flat(), 5, _kernel.KEEP_ALL)[2]
        for image in sorted(reference.columns(image, 5) for image in images):
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


def test_walk_losing_a_normal_form_stops_the_run(monkeypatch):
    # the scan check reads the walk's own images, so a walk that loses a normal
    # form of its class, other than the table walked, stops the run in both keep modes
    orbit = _kernel.orbit
    flats = _kernel.scan(5)[0]
    walked = []

    def recorded(flat, n, keep):
        walked.append(flat)
        return orbit(flat, n, keep)

    monkeypatch.setattr(_kernel, "orbit", recorded)
    report = enumerate_classes(5)
    drops = [
        (table, lost)  # lost is a column tuple, as the walk gives its images
        for table in walked
        for lost in orbit(table, 5, _kernel.KEEP_COLUMN0)[2]
        if lost != reference.columns(table, 5)
    ]
    assert (len(walked), len(drops)) == (22, 11)

    def faulty(change):
        def walk(flat, n, keep):
            least, stabilizer, images = orbit(flat, n, keep)
            return least, stabilizer, change(flat, images)

        monkeypatch.setattr(_kernel, "orbit", walk)

    for table, lost in drops:
        faulty(lambda flat, images: [image for image in images if image != lost] if flat == table else images)
        # the lost normal form is walked again, and the message names both causes
        least = QuandleMatrix.from_flat(orbit(table, 5, _kernel.KEEP_NONE)[0], 5)
        message = (
            f"class of {least!r} walked twice, the second time from "
            f"{QuandleMatrix.from_flat(reference.columns(lost, 5), 5)!r}: "
            "either the scan kept a table outside its normal forms or an earlier walk of the class "
            "lost that table from its normal forms"
        )
        with pytest.raises(RuntimeError, match=f"^{re.escape(message)}$"):
            enumerate_classes(5)
        with pytest.raises(RuntimeError, match="orbit-stabilizer mismatch"):
            all_tables(5)
    # an added image with another column 0 (a scanned table of another class)
    # breaks the kept orbit's count; the classification reads no such image
    for table in walked:
        stray = reference.columns(next(flat for flat in flats if flat[::5] != table[::5]), 5)
        faulty(lambda flat, images: sorted(images + [stray]) if flat == table else images)
        with pytest.raises(RuntimeError, match="orbit-stabilizer mismatch"):
            all_tables(5)
        assert enumerate_classes(5).classes == report.classes


def test_scan_mismatch_names_the_missing_normal_form(monkeypatch):
    # with one scanned table dropped, its class's walk names that table
    flats = _kernel.scan(5)[0]
    shared = [k for k, flat in enumerate(flats) if len(_kernel.orbit(flat, 5, _kernel.KEEP_COLUMN0)[2]) > 1]
    assert len(shared) == 18
    for k in shared:
        partial = flats[:k] + flats[k + 1 :]
        monkeypatch.setattr(_kernel, "scan", lambda n, cap: (partial, 0, False))
        message = re.escape(f"normal form {QuandleMatrix.from_flat(flats[k], 5)!r} is missing from the scan")
        for run in (enumerate_classes, all_tables):
            with pytest.raises(RuntimeError, match=f"^orbit-stabilizer mismatch .*{message}$"):
                run(5)
