"""The benchmark's measured process: the quandle CLI, or a batch of API queries.

    python3 perfbench/child.py [--spans FILE] cli <quandle arguments>
    python3 perfbench/child.py [--spans FILE] query  < queries.json

The package must be importable (the benchmark puts its own build on
PYTHONPATH).  ``cli`` behaves like the installed ``quandle`` command: it
imports quandles.cli, runs main() in this process, writes main()'s stdout
and exits with its code.  ``query`` answers a batch read from stdin as
``{"queries": [[table_a, table_b], ...]}`` (matrix text format).  Each query
runs parse -> verify -> canonical_form -> automorphism_group +
identify_group -> np_count -> are_isomorphic(a, b), and the answers are
printed on stdout as JSON for the caller to check.

Both modes end stderr with one JSON line of statistics: import and work
seconds, peak RSS, the backend, and for ``query`` the per-query latencies.

With --spans the layer functions of the package are wrapped in place, where
they are defined and wherever the package has imported them by name, before
the work starts; the work itself is unchanged.  Each call records a span
(name, start, end, parent index, run id) in memory, and the spans are
written to FILE, one JSON list per line, when the work is done; the file's
stem is the run id.  The statistics then hold ``layers``: the summed self
time (span time minus child spans) and call count of each layer, plus the
counters the wrapped calls return.
"""

from __future__ import annotations

import functools
import inspect
import json
import pathlib
import resource
import sys
import time
from collections import Counter

clock = time.perf_counter

# span name -> (per-layer metric of its summed self time, metric of its call count)
SPAN_METRICS = {
    "scan": ("scan.busy_s", None),
    "canon": ("canon.busy_s", "canon.calls"),
    "aut": ("aut.busy_s", "aut.calls"),
    "label": ("label.busy_s", "label.calls"),
    "iso": ("iso.busy_s", "iso.calls"),
    "np": ("np.busy_s", None),
    "matrix.parse": ("matrix.parse_s", None),
    "matrix.verify": ("matrix.verify_s", None),
    "matrix.from_flat": ("matrix.from_flat_s", None),
    "matrix.flags": ("matrix.flags_s", None),
    "matrix.format": ("matrix.format_s", None),
    "enumeration": ("enumeration.glue_s", None),
}


def _count_scan(counters, out):
    flats, placements, _ = out
    counters["scan.placements"] += placements
    counters["scan.tables"] += len(flats)


def _count_label(counters, out):
    counters["label.unidentified"] += out.label == "unidentified"


def _count_iso(counters, out):
    counters["iso.found"] += out is not None


class Tracer:
    """Records one span per call into a wrapped function."""

    def __init__(self, run: str):
        self.spans: list = []
        self.open = -1
        self.run = run
        self.counters: Counter = Counter()

    def begin(self, name):
        self.spans.append([name, clock(), 0.0, self.open, self.run])
        self.open = len(self.spans) - 1

    def end(self):
        span = self.spans[self.open]
        span[2] = clock()
        self.open = span[3]

    def wrap(self, name, fn, observe=None):
        if inspect.isgeneratorfunction(fn):
            # the span lasts until the generator is exhausted
            def traced(*args, **kwargs):
                self.begin(name)
                try:
                    yield from fn(*args, **kwargs)
                finally:
                    self.end()
        else:
            def traced(*args, **kwargs):
                self.begin(name)
                try:
                    out = fn(*args, **kwargs)
                finally:
                    self.end()
                if observe is not None:
                    observe(self.counters, out)
                return out
        return functools.wraps(fn)(traced)

    def layers(self) -> dict:
        child = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict = {}
        for i, (name, start, end, _, _) in enumerate(self.spans):
            if name not in SPAN_METRICS:
                continue
            self_metric, calls_metric = SPAN_METRICS[name]
            out[self_metric] = out.get(self_metric, 0.0) + end - start - child[i]
            if calls_metric:
                out[calls_metric] = out.get(calls_metric, 0) + 1
        out.update(self.counters)
        return out


def install(tr: Tracer) -> None:
    """Wrap the package's layer functions in spans, in place."""
    from quandles import _kernel, enumeration, matrix, symmetry

    qm = matrix.QuandleMatrix
    modules = [m for name, m in sys.modules.items() if name == "quandles" or name.startswith("quandles.")]
    functions = [
        ("scan", _kernel, "scan", _count_scan),
        ("canon", _kernel, "canon_min", None),
        ("aut", symmetry, "automorphism_group", None),
        ("label", symmetry, "identify_group", _count_label),
        ("iso", symmetry, "are_isomorphic", _count_iso),
        ("np", symmetry, "np_count", None),
        ("matrix.parse", matrix, "parse_matrix", None),
        ("enumeration", enumeration, "enumerate_classes", None),
        ("enumeration", enumeration, "enumerate_all", None),
    ]
    for span, owner, attr, observe in functions:
        fn = getattr(owner, attr)
        traced = tr.wrap(span, fn, observe)
        for module in modules:
            for name, value in list(vars(module).items()):
                if value is fn:
                    setattr(module, name, traced)
    methods = [
        ("matrix.verify", "verify"),
        ("matrix.from_flat", "from_flat"),
        ("matrix.flags", "is_latin"),
        ("matrix.flags", "is_connected"),
        ("matrix.format", "to_machine_line"),
    ]
    for span, attr in methods:
        raw = inspect.getattr_static(qm, attr)
        if isinstance(raw, classmethod):
            setattr(qm, attr, classmethod(tr.wrap(span, raw.__func__)))
        else:
            setattr(qm, attr, tr.wrap(span, raw))


def run_queries(queries, tr: Tracer | None):
    """Answer each query through the package's public calls."""
    from quandles import matrix, symmetry

    latencies = []
    answers = []
    run = tr.run if tr else ""
    start = clock()
    for k, (a_text, b_text) in enumerate(queries):
        t0 = clock()
        if tr:
            tr.run = f"{run}.q{k}"
            tr.begin("query")
        a = matrix.parse_matrix(a_text)
        b = matrix.parse_matrix(b_text)
        valid = a.verify().valid and b.verify().valid
        canon = symmetry.canonical_form(a)
        aut = symmetry.automorphism_group(a)
        label = symmetry.identify_group(aut)
        np = symmetry.np_count(a)
        witness = symmetry.are_isomorphic(a, b)
        if tr:
            tr.end()
        latencies.append(clock() - t0)
        answers.append((valid, canon, aut, label, np, witness))
    work_s = clock() - start
    return work_s, latencies, [
        {
            "valid": valid,
            "canon": canon.to_machine_line(),
            "aut": aut.order,
            "label": label.label,
            "np": np,
            "witness": None if witness is None else list(witness.images),
        }
        for valid, canon, aut, label, np, witness in answers
    ]


def main(argv: list[str]) -> int:
    spans_file = None
    if argv[:1] == ["--spans"]:
        spans_file, argv = argv[1], argv[2:]
    mode, args = argv[0], argv[1:]
    t0 = clock()
    from quandles import _kernel, cli

    import_s = clock() - t0
    tr = Tracer(pathlib.Path(spans_file).stem) if spans_file else None
    if tr:
        install(tr)
    stats = {"import_s": import_s, "backend": _kernel.backend()}
    if mode == "cli":
        t1 = clock()
        code = cli.main(args)
        sys.stdout.flush()
        stats["work_s"] = clock() - t1
    else:
        queries = json.load(sys.stdin)["queries"]
        stats["work_s"], stats["latencies"], answers = run_queries(queries, tr)
        json.dump(answers, sys.stdout)
        code = 0
    sys.stdout.flush()
    if tr:
        stats["layers"] = tr.layers()
        with open(spans_file, "w", encoding="utf-8") as handle:
            for span in tr.spans:
                handle.write(json.dumps(span) + "\n")
    stats["rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    sys.stderr.write("\n" + json.dumps(stats) + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
