"""Tests of the benchmark itself: python3 -m pytest perfbench -q

They build the extension once (into .bench_build/) and run every workload
at order 4 for a fraction of a second, untraced and traced.
"""

from __future__ import annotations

import copy
import dataclasses
import hashlib
import itertools
import json
import math
import random
import shutil
import subprocess
import sys

import pytest

import run

REFERENCE = run.load_reference()
BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def build():
    return run.set_up(run.ROOT, pure=False, runs=1)


def smoke(name, build, traced, reference=REFERENCE):
    workload = dataclasses.replace(run.WORKLOADS[name], order=4)
    return run.run_workload(name, workload, build, 7, 0.2, traced, reference)


@pytest.mark.parametrize("order", ["4", "5", "6"])
def test_reference_class_list_rebuilds_the_pinned_stream(order):
    ref = REFERENCE[order]
    n = int(order)
    stream = "".join(
        f"{c['table']}\naut={c['aut']}:* np={c['np']} latin={c['latin']} connected={c['connected']}\n"
        for c in ref["classes"]
    )
    assert hashlib.md5(stream.encode()).hexdigest() == ref["classes_md5"]
    assert all(c["aut"] * c["np"] == math.factorial(n) for c in ref["classes"])
    assert sum(c["np"] for c in ref["classes"]) == ref["tables_count"]


def test_reference_pins_the_published_order_six_counts():
    six = REFERENCE["6"]
    assert len(six["classes"]) == 73
    assert six["tables_count"] == 6658
    assert six["classes_md5_raw"] == "bb3b3f9fd60bfcb8b73c3c3f2846ff3f"
    assert six["tables_md5"] == "fe6307986ee4a53527b92e853221a485"
    assert REFERENCE["5"]["classes_md5_raw"] == "92295a9b6cb4b2f6dd33cb70f47ce197"


@pytest.mark.parametrize("traced", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("name", [w["name"] for w in BENCHMARK["workloads"]])
def test_order_four_smoke_run_prints_every_metric(name, traced, build):
    result, detail = smoke(name, build, traced)
    assert result["correct"], detail["failures"]
    assert result["attempted"] >= 1 and result["failed"] == 0
    metrics = BENCHMARK["per_layer" if traced else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {m["name"]: m["unit"] for m in metrics}
    values = {k: v["value"] for k, v in result["metrics"].items()}
    assert all(isinstance(v, (int, float)) for v in values.values())
    kind = run.WORKLOADS[name].kind
    if not traced:
        assert all(v > 0 for v in values.values()), values
    elif kind == "query":
        # np_count computes Aut itself, so each query makes two Aut calls
        assert (values["iso.calls"], values["aut.calls"], values["canon.calls"]) == (7, 14, 7)
        assert values["scan.placements"] == 0 and values["cli.startup_s"] == 0
    else:
        assert values["scan.tables"] == 36 and values["matrix.format_s"] > 0
        assert values["cli.startup_s"] > 0 and values["enumeration.glue_s"] > 0
        tables, classes = (36, 7) if kind == "classify" else (0, 0)
        assert (values["canon.calls"], values["aut.calls"], values["label.calls"]) == (tables, classes, classes)
    if kind == "classify":
        assert detail["labels_match"] is True
    json.dumps(result)


@pytest.mark.parametrize(
    "name, field, value",
    [
        ("classify6", "classes_md5", "0" * 32),
        ("tables6", "tables_md5", "0" * 32),
        ("query6", "classes", None),
    ],
)
def test_wrong_reference_counts_as_failed(name, field, value, build):
    reference = copy.deepcopy(REFERENCE)
    if value is None:
        reference["4"]["classes"][3]["aut"] += 1
    else:
        reference["4"][field] = value
    result, detail = smoke(name, build, False, reference)
    assert not result["correct"]
    assert result["failed"] >= 1
    assert detail["failed_frac"] == result["failed"] / result["attempted"] > 0


def test_changed_group_labels_are_reported_not_failed(build):
    reference = copy.deepcopy(REFERENCE)
    reference["4"]["classes_md5_raw"] = "0" * 32
    result, detail = smoke("classify6", build, False, reference)
    assert result["correct"] and detail["labels_match"] is False


def test_query_check_rejects_a_wrong_witness():
    rng = random.Random(3)
    classes = REFERENCE["4"]["classes"]
    q = next(q for q in run.make_batch(rng, classes, 4) if q.cls == q.partner)
    good = next(
        list(p)
        for p in itertools.permutations(range(1, 5))
        if run.relabel(q.a, 4, [x - 1 for x in p]) == q.b
    )
    answer = {"valid": True, "canon": classes[q.cls]["table"], "aut": classes[q.cls]["aut"],
              "np": classes[q.cls]["np"], "witness": good}
    assert run.check_answer(q, answer, classes, 4) is None
    assert "does not map" in run.check_answer(q, dict(answer, witness=[1, 1, 2, 3]), classes, 4)
    assert "no witness" in run.check_answer(q, dict(answer, witness=None), classes, 4)


def test_tail_is_the_highest_percentile_with_ten_samples_above():
    assert run.tail([float(x) for x in range(1, 101)]) == (90.0, 90.0)
    assert run.tail([3.0, 1.0, 2.0, 4.0]) == (3.0, 75.0)


def test_normalize_labels_masks_only_the_group_label():
    line = b"1,1,2,2\naut=2:Z2 np=1 latin=0 connected=0\n"
    assert run.normalize_labels(line) == b"1,1,2,2\naut=2:* np=1 latin=0 connected=0\n"


def test_checkout_without_sources_exits_nonzero_and_prints_nothing():
    lone = run.ROOT / ".bench_build" / "lone"
    shutil.rmtree(lone, ignore_errors=True)
    shutil.copytree(run.HERE, lone / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", lone)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "classify6", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=lone, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
