#!/usr/bin/env python3
"""Benchmark of the quandles package: classification, table listing, single-table queries.

    python3 perfbench/run.py --workload classify6 --seed 1 --seconds 18 --trace 0

Run it from the root of a source checkout; it reads and writes nothing
outside it.  Set-up builds the C extension with the repository's own
setup.py into .bench_build/ (never into src/), SETUP_RUNS times, timing each
build and the first import after it, and checks that the import gives the
backend the workload is meant to measure.  A checkout that cannot be built
ends the run with exit code 2 and no result.

Workloads.  Each is a closed loop with one client: the next request is sent
when the previous one has finished.

  classify6     `quandle enumerate 6 --machine` as a subprocess on the C
                backend (perfbench/child.py, which runs quandles.cli.main as
                the quandle command does): the paper's result, 73 classes
                from 6,658 tables.
                Canonicalization and the column scan are its largest layers.
  tables6       `quandle enumerate 6 --all --machine` on the C backend: the
                same scan with no canonicalization, Aut or labels, so a
                canonicalization change should leave it unchanged.
  query6        single-table API calls, in a child process that answers one
                batch per process (one "wall" sample): one query per
                order-6 class, in seeded order, each on a seeded relabelling
                of the class
                representative, through parse -> verify -> canonical_form ->
                automorphism_group + identify_group -> np_count ->
                are_isomorphic against a relabelled partner that is in the
                same class for every other query.  No scan runs.  |Aut|
                ranges from 4 to 720, so median and tail see different layers.
  classify5-py  `quandle enumerate 5 --machine` on the pure-Python fallback
                (QUANDLES_PURE_PYTHON=1), which users without a compiler get.
                Each run also checks it byte for byte against the C stream.

The CLI workloads take no input but the order, so their seed changes
nothing; query6 draws its queries from the seed.

Correctness.  Every CLI stream is compared with perfbench/reference.json:
the md5 of the class stream with each group label replaced by '*' (labels
are counted, not gated, so a corrected label is not a failure; the detail
line's labels_match tells whether the raw stream still matches the pinned
md5 with labels) and the md5 and line count of the table stream.  Each
query answer is checked against the pinned class data: canonical form, |Aut|, np, and that the isomorphism
witness w satisfies permute(a, w) == b, or that none exists.  A request with
a wrong output or exit code counts as failed.

--trace 0 reports the end-to-end metrics, measured with tracing off:

  setup_s        median over set-ups of build + first import
  wall_p50_s     spawn to exit of a measured process (a CLI invocation, or
  wall_tail_s      one query6 batch)
  query_p50_ms   one request inside its process: cli.main() for the CLI
  query_tail_ms    workloads, one query for query6
  queries_per_s  requests completed per second of the run
  peak_rss_mb    largest peak resident set (MiB) of a measured process

A tail is the highest nearest-rank percentile with at least ten samples
above it, and never below the median; the detail line gives its percentile
and sample count.

--trace 1 is a separate run that reports the per-layer metrics.  It runs
the workload's own measured process (perfbench/child.py) again, alternating
untraced and traced runs of the same input.  A traced run wraps the
package's layer functions in place (_kernel.scan, _kernel.canon_min,
automorphism_group, identify_group, are_isomorphic, np_count, the matrix
parse, verify, from_flat, flag and format methods, enumerate_classes and
enumerate_all) and records a span per call; the CLI workloads run
quandles.cli.main itself, in process.  Per-layer values are (low) medians
over traced runs; cli.startup_s is the median spawn-to-exit time minus
main() of the untraced CLI runs (0 on query6, which runs no CLI), and
trace.overhead_s the median traced-minus-untraced work time.  Every traced
and untraced output is checked as in the timed run.  Spans are written to
.bench_build/trace/<workload>/.

The second-to-last stdout line is {"detail": ...}: the environment, the
backend, sample counts, tail percentiles, failed_frac, labels_match and
the first failures.  The last line is the result: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import random
import re
import resource
import shutil
import statistics
import subprocess
import sys
import sysconfig
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_RUNS = 3
CHILD_TIMEOUT_S = 120
TAIL_BEYOND = 10

clock = time.perf_counter


def backend_name(pure: bool) -> str:
    return "python" if pure else "c"


@dataclass(frozen=True)
class Workload:
    kind: str  # "classify", "tables" or "query"
    order: int
    pure: bool = False

    def cli_args(self) -> list[str]:
        args = ["enumerate", str(self.order), "--machine", "--jobs", "1"]
        return args + ["--all"] if self.kind == "tables" else args


WORKLOADS = {
    "classify6": Workload("classify", 6),
    "tables6": Workload("tables", 6),
    "query6": Workload("query", 6),
    "classify5-py": Workload("classify", 5, pure=True),
}


def metric_units(kind: str) -> dict[str, str]:
    """Name -> unit of the "end_to_end" or "per_layer" metrics in BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec[kind]}


class SetupError(RuntimeError):
    """The checkout cannot be built, or its import gives the wrong backend."""


@dataclass
class Build:
    lib: Path
    compile_s: list[float]
    import_s: list[float]

    def env(self, pure: bool) -> dict[str, str]:
        env = dict(os.environ, PYTHONPATH=str(self.lib))
        env.pop("QUANDLES_PURE_PYTHON", None)
        if pure:
            env["QUANDLES_PURE_PYTHON"] = "1"
        return env


def set_up(root: Path, pure: bool, runs: int = SETUP_RUNS) -> Build:
    """Build the package with its setup.py into root/.bench_build, `runs` times."""
    if not (root / "setup.py").is_file() or not (root / "src" / "quandles").is_dir():
        raise SetupError(f"{root} holds no quandles source tree")
    out = root / ".bench_build" / "build"
    build = Build(out / "lib", [], [])
    extension = build.lib / "quandles" / ("_speedups" + sysconfig.get_config_var("EXT_SUFFIX"))
    want = backend_name(pure)
    for _ in range(runs):
        shutil.rmtree(out, ignore_errors=True)
        out.mkdir(parents=True)
        t0 = clock()
        proc = subprocess.run(
            [sys.executable, "setup.py", "-q", "egg_info", "--egg-base", str(out),
             "build", "--build-base", str(out), "--build-lib", str(build.lib)],
            cwd=root, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
        )
        t1 = clock()
        if proc.returncode != 0 or not extension.is_file():
            raise SetupError("the C extension did not build:\n" + proc.stderr[-2000:])
        proc = subprocess.run(
            [sys.executable, "-c", "import quandles; print(quandles.backend())"],
            cwd=root, env=build.env(pure), capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
        )
        t2 = clock()
        if proc.returncode != 0 or proc.stdout.strip() != want:
            raise SetupError(f"backend {proc.stdout.strip()!r}, expected {want!r}\n{proc.stderr[-2000:]}")
        build.compile_s.append(t1 - t0)
        build.import_s.append(t2 - t1)
    return build


def spawn(cmd: list[str], env: dict[str, str], stdin: bytes | None = None):
    """Run cmd to completion; (spawn-to-exit seconds, exit code, stdout, stderr).

    On Linux a child's peak RSS includes the peak of the process that forked
    it, so the harness stays small: it never imports quandles.
    """
    t0 = clock()
    with subprocess.Popen(
        cmd, cwd=ROOT, env=env, stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=subprocess.PIPE
    ) as proc:
        try:
            out, err = proc.communicate(stdin, timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            out, err = proc.communicate()
    return clock() - t0, proc.returncode, out, err


@dataclass
class ChildRun:
    """One child.py process and the statistics it printed ({} if none)."""

    wall_s: float
    code: int
    stdout: bytes
    stderr: bytes
    stats: dict


def run_child(build: Build, workload: Workload, pure: bool, trace_file: Path | None = None,
              stdin: bytes | None = None) -> ChildRun:
    cmd = [sys.executable, str(HERE / "child.py")]
    if trace_file:
        cmd += ["--spans", str(trace_file)]
    cmd += ["query"] if workload.kind == "query" else ["cli", *workload.cli_args()]
    wall, code, out, err = spawn(cmd, build.env(pure), stdin)
    try:
        stats = json.loads(err.decode(errors="replace").splitlines()[-1])
    except (IndexError, ValueError):
        stats = {}
    return ChildRun(wall, code, out, err, stats)


def child_error(run: ChildRun, pure: bool) -> str | None:
    """Why a child process failed as a whole, or None."""
    if run.code != 0 or not run.stats:
        return f"exit code {run.code}: {run.stderr.decode(errors='replace')[-300:]}"
    if run.stats["backend"] != backend_name(pure):
        return f"backend {run.stats['backend']}, expected {backend_name(pure)}"
    return None


def md5(data: bytes) -> str:
    return hashlib.md5(data).hexdigest()


def normalize_labels(stream: bytes) -> bytes:
    """Replace the group label in every `aut=<order>:<label>` token by '*'."""
    return re.sub(rb"(?m)^(aut=\d+):\S+", rb"\1:*", stream)


def check_stream(workload: Workload, ref: dict, stream: bytes, expected: bytes | None) -> str | None:
    """Why a CLI stream is wrong, or None."""
    if workload.kind == "classify":
        if md5(normalize_labels(stream)) != ref["classes_md5"]:
            return "class stream differs from the reference"
    elif md5(stream) != ref["tables_md5"] or stream.count(b"\n") != ref["tables_count"]:
        return "table stream differs from the reference"
    if expected is not None and stream != expected:
        return "pure-Python stream differs from the C stream"
    return None


def relabel(table: list[int], n: int, rho: list[int]) -> list[int]:
    """Row-major table of rho.M: out[rho(i)][rho(j)] = rho(M[i][j]); rho 0-based.

    Kept apart from quandles.symmetry.permute, whose results it checks.
    """
    out = [0] * (n * n)
    for i in range(n):
        for j in range(n):
            out[rho[i] * n + rho[j]] = rho[table[i * n + j] - 1] + 1
    return out


def to_text(table: list[int], n: int) -> str:
    return "".join(" ".join(map(str, table[i * n : (i + 1) * n])) + "\n" for i in range(n))


@dataclass(frozen=True)
class Query:
    cls: int
    partner: int
    a: list[int]
    b: list[int]


def make_batch(rng: random.Random, classes: list[dict], n: int) -> list[Query]:
    """One query per class in seeded order; even positions pair a class with itself."""
    tables = [[int(x) for x in c["table"].split(",")] for c in classes]
    batch = []
    for k, c in enumerate(rng.sample(range(len(classes)), len(classes))):
        partner = c if k % 2 == 0 else rng.choice([d for d in range(len(classes)) if d != c])
        a = relabel(tables[c], n, rng.sample(range(n), n))
        b = relabel(tables[partner], n, rng.sample(range(n), n))
        batch.append(Query(c, partner, a, b))
    return batch


def check_answer(q: Query, answer: dict, classes: list[dict], n: int) -> str | None:
    """Why a query's answer is wrong, or None."""
    want = classes[q.cls]
    if not answer["valid"]:
        return "verify rejected a valid table"
    if answer["canon"] != want["table"]:
        return f"canonical form of class {q.cls} differs"
    if (answer["aut"], answer["np"]) != (want["aut"], want["np"]):
        return f"|Aut|, np = {answer['aut']}, {answer['np']} for class {q.cls}"
    w = answer["witness"]
    if q.cls != q.partner:
        return None if w is None else f"witness between classes {q.cls} and {q.partner}"
    if w is None:
        return f"no witness for two tables of class {q.cls}"
    if sorted(w) != list(range(1, n + 1)) or relabel(q.a, n, [x - 1 for x in w]) != q.b:
        return f"witness {w} does not map a to b"
    return None


@dataclass
class Tally:
    attempted: int = 0
    failures: list[str] = field(default_factory=list)
    labels: list[bool] = field(default_factory=list)  # raw class stream matches, group labels too

    def record(self, error: str | None) -> None:
        self.attempted += 1
        if error:
            self.failures.append(error)


def tail(values: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest nearest-rank percentile with
    TAIL_BEYOND samples above it, never below the median."""
    xs = sorted(values)
    rank = max(len(xs) - TAIL_BEYOND, len(xs) // 2 + 1)
    return xs[rank - 1], 100.0 * rank / len(xs)


def run_unit(build: Build, workload: Workload, ref: dict, tally: Tally, expected: bytes | None,
             batch: list[Query] | None = None, trace_file: Path | None = None,
             pure: bool | None = None) -> ChildRun | None:
    """One measured process with its output checked and tallied, per query
    for a batch, else per stream.  None when the process failed as a whole."""
    n = workload.order
    pure = workload.pure if pure is None else pure
    stdin = None
    if batch is not None:
        stdin = json.dumps({"queries": [[to_text(q.a, n), to_text(q.b, n)] for q in batch]}).encode()
    run = run_child(build, workload, pure, trace_file, stdin)
    error = child_error(run, pure)
    if batch is None:
        tally.record(error or check_stream(workload, ref, run.stdout, expected))
        if error is None and workload.kind == "classify":
            tally.labels.append(md5(run.stdout) == ref["classes_md5_raw"])
    else:
        try:
            answers = [] if error else json.loads(run.stdout)
        except ValueError:
            answers = []
        if len(answers) != len(batch):
            error = error or f"{len(answers)} answers to {len(batch)} queries"
        for k, q in enumerate(batch):
            tally.record(error or check_answer(q, answers[k], ref["classes"], n))
    return None if error else run


def agreement_stream(workload: Workload, build: Build, ref: dict, tally: Tally) -> bytes | None:
    """For a pure-Python workload: the C backend's stream, checked, to compare against."""
    if not workload.pure:
        return None
    run = run_unit(build, workload, ref, tally, None, pure=False)
    return run.stdout if run else None


def batch_for(workload: Workload, rng: random.Random, ref: dict) -> list[Query] | None:
    return make_batch(rng, ref["classes"], workload.order) if workload.kind == "query" else None


def timed_run(workload: Workload, build: Build, seed: int, seconds: float, ref: dict, tally: Tally):
    """Untraced closed loop for `seconds`; (metrics, detail)."""
    expected = agreement_stream(workload, build, ref, tally)
    rng = random.Random(seed)
    walls: list[float] = []
    requests: list[float] = []
    rss_kb: list[int] = []
    start = clock()
    while True:
        batch = batch_for(workload, rng, ref)
        run = run_unit(build, workload, ref, tally, expected, batch)
        if run:
            walls.append(run.wall_s)
            requests.extend(run.stats["latencies"] if batch else [run.stats["work_s"]])
            rss_kb.append(run.stats["rss_kb"])
        if clock() - start >= seconds:
            break
    elapsed = clock() - start
    walls = walls or [0.0]
    requests = requests or [0.0]
    wall_tail, wall_pct = tail(walls)
    query_tail, query_pct = tail(requests)
    metrics = {
        "setup_s": statistics.median(c + i for c, i in zip(build.compile_s, build.import_s)),
        "wall_p50_s": statistics.median(walls),
        "wall_tail_s": wall_tail,
        "query_p50_ms": 1000 * statistics.median(requests),
        "query_tail_ms": 1000 * query_tail,
        "queries_per_s": len(requests) / elapsed,
        "peak_rss_mb": max(rss_kb, default=0) / 1024,
    }
    detail = {
        "samples": {"setup": len(build.compile_s), "wall": len(walls), "query": len(requests)},
        "percentiles": {"wall_tail_s": wall_pct, "query_tail_ms": query_pct},
        "measured_s": elapsed,
    }
    return metrics, detail


def derived(layers: dict, n: int) -> dict:
    """A traced run's layer figures plus those computed from them."""
    out = dict(layers)
    placements = out.get("scan.placements", 0)
    out["scan.yield"] = out.get("scan.tables", 0) / placements if placements else 0.0
    out["canon.relabellings"] = out.get("canon.calls", 0) * math.factorial(n)
    out["aut.relabellings"] = out.get("aut.calls", 0) * math.factorial(n)
    return out


def traced_run(name: str, workload: Workload, build: Build, seed: int, seconds: float, ref: dict, tally: Tally):
    """Untraced and traced runs of the same input, alternately, for `seconds`;
    (per-layer metrics, detail)."""
    expected = agreement_stream(workload, build, ref, tally)
    trace_dir = ROOT / ".bench_build" / "trace" / name
    shutil.rmtree(trace_dir, ignore_errors=True)
    trace_dir.mkdir(parents=True)
    rng = random.Random(seed)
    layers: list[dict] = []
    startup: list[float] = []
    overheads: list[float] = []
    start = clock()
    k = 0
    while True:
        batch = batch_for(workload, rng, ref)
        work = {}
        for traced in (False, True) if k % 2 == 0 else (True, False):
            trace_file = trace_dir / f"{name}-s{seed}-r{k}.jsonl" if traced else None
            run = run_unit(build, workload, ref, tally, expected, batch, trace_file)
            if run is None:
                continue
            work[traced] = run.stats["work_s"]
            if traced:
                layers.append(derived(run.stats["layers"], workload.order))
            elif batch is None:
                startup.append(run.wall_s - run.stats["work_s"])
        if len(work) == 2:
            overheads.append(work[True] - work[False])
        k += 1
        if clock() - start >= seconds:
            break
    metrics = {}
    for metric in metric_units("per_layer"):
        values = [sample[metric] for sample in layers if metric in sample]
        metrics[metric] = statistics.median_low(values) if values else 0
    metrics["cli.startup_s"] = statistics.median(startup) if startup else 0.0
    metrics["setup.compile_s"] = statistics.median(build.compile_s)
    metrics["setup.import_s"] = statistics.median(build.import_s)
    metrics["trace.overhead_s"] = statistics.median(overheads) if overheads else 0.0
    detail = {"samples": {"setup": len(build.compile_s), "traced_runs": len(layers), "startup": len(startup),
                          "overhead": len(overheads)}}
    return metrics, detail


def _first_line(cmd: list[str], **kwargs) -> str | None:
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=10, **kwargs)
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = proc.stdout.splitlines()
    return lines[0] if proc.returncode == 0 and lines else None


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor()


def environment(root: Path) -> dict:
    cc = (sysconfig.get_config_var("CC") or "gcc").split()[0]
    git_env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(root.parent))
    return {
        "python": platform.python_version(),
        "compiler": _first_line([cc, "--version"]),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": _cpu_model(),
        "platform": platform.platform(),
        "commit": _first_line(["git", "rev-parse", "HEAD"], cwd=root, env=git_env),
    }


def run_workload(name: str, workload: Workload, build: Build, seed: int, seconds: float,
                 traced: bool, reference: dict) -> tuple[dict, dict]:
    """Measure one workload; (result, detail) as printed on the last two lines."""
    ref = reference[str(workload.order)]
    tally = Tally()
    if traced:
        values, detail = traced_run(name, workload, build, seed, seconds, ref, tally)
        units = metric_units("per_layer")
    else:
        values, detail = timed_run(workload, build, seed, seconds, ref, tally)
        units = metric_units("end_to_end")
    detail.update(
        workload=name, seed=seed, trace=int(traced), order=workload.order, kind=workload.kind,
        backend=backend_name(workload.pure), failed_frac=len(tally.failures) / tally.attempted,
        failures=tally.failures[:5], labels_match=all(tally.labels) if tally.labels else None,
    )
    result = {
        "correct": not tally.failures,
        "attempted": tally.attempted,
        "failed": len(tally.failures),
        "metrics": {metric: {"value": values[metric], "unit": unit} for metric, unit in units.items()},
    }
    return result, detail


def load_reference() -> dict:
    with open(HERE / "reference.json", encoding="utf-8") as handle:
        return json.load(handle)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Benchmark of the quandles package.")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="measured time of the run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]
    try:
        build = set_up(ROOT, workload.pure)
    except (SetupError, subprocess.TimeoutExpired) as exc:
        print(f"set-up failed: {exc}", file=sys.stderr)
        return 2
    result, detail = run_workload(
        args.workload, workload, build, args.seed, args.seconds, bool(args.trace), load_reference()
    )
    detail["environment"] = environment(ROOT)
    detail["harness_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps({"detail": detail}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
