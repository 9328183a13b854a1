"""Acceptance suite: one test per release criterion, one PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every expected value here is pinned exactly (counts, labels,
determinants, witnesses), with the only tolerances being the wall-clock
budgets in criterion 1.
"""

import random
from math import factorial

from quandles import (
    QuandleMatrix,
    alexander,
    are_isomorphic,
    canonical_form,
    conjugation,
    determinant,
    dihedral,
    np_count,
    np_count_explicit,
    permute,
    trivial,
)
from quandles.permutation import Permutation

import tables


def _report(num: int, ok: bool, desc: str) -> None:
    print(f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'} {desc}")


def _check(num: int, ok: bool, desc: str) -> None:
    _report(num, ok, desc)
    assert ok, f"criterion {num}: {desc}"


def test_criterion_01_class_counts_and_runtime(report_for):
    counts = {n: len(report_for(n).classes) for n in range(1, 6)}
    ok = counts == {1: 1, 2: 1, 3: 3, 4: 7, 5: 22}
    for n in range(1, 5):
        ok = ok and report_for(n).elapsed < 1.0
    elapsed5 = report_for(5).elapsed
    ok = ok and elapsed5 < 10.0
    _check(1, ok, f"class counts 1,1,3,7,22 for n=1..5; n=5 in {elapsed5:.2f}s")


def test_criterion_02_published_tables_reproduced(report_for):
    ok = True
    for n, rows_and_labels in tables.CLASS_TABLES.items():
        by_rep = {rec.representative: rec for rec in report_for(n).classes}
        matched = set()
        for rows, label in rows_and_labels:
            rep = canonical_form(QuandleMatrix(rows))
            record = by_rep.get(rep)
            if record is None or record.aut_id.label != label:
                ok = False
                break
            matched.add(rep)
        ok = ok and len(matched) == len(by_rep)
    d20 = sum(1 for r in report_for(5).classes if r.aut_id.label == "D20")
    a4 = sum(1 for r in report_for(5).classes if r.aut_id.label == "A4")
    ok = ok and d20 == 3 and a4 == 1
    _check(2, ok, "all 3+7+22 classified tables match one enumerated class each, labels agree")


def test_criterion_03_orbit_stabilizer_identity(report_for):
    ok = True
    for n in range(1, 6):
        for rec in report_for(n).classes:
            ok = ok and rec.np * rec.aut_order == factorial(n)
            ok = ok and np_count_explicit(rec.representative) == rec.np
    _check(3, ok, "np * |Aut| = n! and explicit orbit counting agrees, all classes n <= 5")


def test_criterion_04_np_values_order3():
    ok = (
        np_count(trivial(3)) == 1
        and np_count(dihedral(3)) == 1
        and np_count(QuandleMatrix([[1, 1, 1], [3, 2, 2], [2, 3, 3]])) == 3
    )
    _check(4, ok, "class sizes at order 3 are 1, 1, 3")


def test_criterion_05_relabelling_worked_example():
    rho = Permutation.parse(tables.RELABEL_RHO, 4)
    got = permute(QuandleMatrix(tables.RELABEL_IN), rho)
    _check(5, got == QuandleMatrix(tables.RELABEL_OUT), "relabelling by (1 4 3 2) gives the stated table")


def test_criterion_06_determinant_example():
    a = QuandleMatrix(tables.DET_A)
    b = QuandleMatrix(tables.DET_B)
    ok = determinant(a) == tables.DET_A_VALUE and determinant(b) == tables.DET_B_VALUE
    witness = are_isomorphic(a, b)
    ok = ok and witness is not None and permute(a, witness) == b
    ok = ok and str(witness) == tables.DET_WITNESS_LEAST
    stated = Permutation.parse(tables.DET_WITNESS_B_TO_A, 5)
    ok = ok and permute(b, stated) == a
    _check(
        6,
        ok,
        "determinants -825 / -1875; pair isomorphic; (1 5 3)(2 4) relabels the "
        "second onto the first; deterministic witness is (4 5)",
    )


def test_criterion_07_transposition_quandle():
    printed = QuandleMatrix(tables.TRANSPOSITION_6)
    ok = printed.verify().valid and printed.is_connected() and not printed.is_latin()
    built = conjugation([Permutation.parse(s, 4) for s in tables.TRANSPOSITIONS_4])
    ok = ok and are_isomorphic(built, printed) is not None
    _check(7, ok, "transposition quandle: valid, connected, non-latin; constructor reproduces it")


def test_criterion_08_alexander_column():
    ok = True
    for (modulus, coeffs), rows in tables.ALEXANDER_CLASSES:
        ok = ok and are_isomorphic(alexander(modulus, coeffs), QuandleMatrix(rows)) is not None
    _check(8, ok, "all nine listed quotient-ring presentations match their tables")


def test_criterion_09_property_suite(matrices_for):
    ok = True
    population = []
    for n in range(1, 6):
        stream = matrices_for(n)
        population.extend(stream)
        for m in stream:
            ok = ok and m.trace() == n * (n + 1) // 2
            ok = ok and m.dual().dual() == m
            ok = ok and (m.is_connected() if m.is_latin() else True)
    rng = random.Random(20250808)
    for _ in range(200):
        m = rng.choice(population)
        rho = Permutation(rng.sample(range(1, m.n + 1), m.n))
        ok = ok and permute(m, rho).verify().valid
    _check(
        9,
        ok,
        "447 tables: trace/dual/latin-implies-connected hold; 200 random "
        "relabellings stay valid",
    )


def test_criterion_10_full_small_order_reproduction(report_for):
    ok = all(
        len(report_for(n).classes) == expected
        for n, expected in tables.EXPECTED_CLASS_COUNTS.items()
    )
    totals = {n: report_for(n).total_valid_matrices for n in range(1, 6)}
    ok = ok and totals == {1: 1, 2: 1, 3: 5, 4: 36, 5: 404}
    _check(10, ok, "complete n <= 5 result set reproduced; n >= 6 out of scope")
