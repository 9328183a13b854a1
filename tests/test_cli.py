import argparse
import os
import random
import subprocess
import sys
import time
import tracemalloc

import pytest

from quandles import QuandleMatrix, _kernel, all_tables, dihedral, parse_matrix, trivial
from quandles.cli import COMMANDS, _machine_lines, build_parser, main
from quandles.enumeration import _table_blob

import tables


def _write(tmp_path, name, rows):
    path = tmp_path / name
    path.write_text("\n".join(" ".join(map(str, r)) for r in rows) + "\n")
    return str(path)


@pytest.fixture
def det_files(tmp_path):
    return (
        _write(tmp_path, "a.txt", tables.DET_A),
        _write(tmp_path, "b.txt", tables.DET_B),
    )


def _run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_verify_valid(capsys, tmp_path):
    path = _write(tmp_path, "m.txt", tables.TRANSPOSITION_6)
    code, out, _ = _run(capsys, ["verify", path])
    assert code == 0
    assert out.strip() == "valid"


def test_verify_invalid_diagonal(capsys, tmp_path):
    path = _write(tmp_path, "m.txt", tables.NONQUANDLE_LATIN)
    code, out, _ = _run(capsys, ["verify", path])
    assert code == 1
    assert out.startswith("invalid: diagonal")


def test_verify_parse_error(capsys, tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("1 2\n2\n")
    code, out, _ = _run(capsys, ["verify", str(path)])
    assert code == 1
    assert "line 2" in out


def test_props(capsys, tmp_path):
    path = _write(tmp_path, "d3.txt", dihedral(3).rows)
    code, out, _ = _run(capsys, ["props", path])
    assert code == 0
    assert out.splitlines() == [
        "n: 3",
        "trace: 6",
        "latin: yes",
        "connected: yes",
        "orbits: {1,2,3}",
        "aut_order: 6",
        "aut_label: S3",
        "np: 1",
    ]


def test_props_standardizes_input(capsys, tmp_path):
    path = _write(tmp_path, "m.txt", tables.STANDARDIZE_IN)
    code, out, _ = _run(capsys, ["props", path])
    assert code == 0
    assert "n: 4" in out


def test_iso_witness_and_exit_codes(capsys, det_files, tmp_path):
    a, b = det_files
    code, out, _ = _run(capsys, ["iso", a, b])
    assert code == 0
    assert out.strip() == tables.DET_WITNESS_LEAST
    t = _write(tmp_path, "t3.txt", trivial(3).rows)
    d = _write(tmp_path, "d3.txt", dihedral(3).rows)
    code, out, _ = _run(capsys, ["iso", t, d])
    assert code == 1
    assert out.strip() == "not isomorphic"


def test_aut(capsys, tmp_path):
    path = _write(tmp_path, "d3.txt", dihedral(3).rows)
    code, out, _ = _run(capsys, ["aut", path])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "order: 6"
    assert lines[1] == "label: S3"
    assert lines[2:] == ["()", "(2 3)", "(1 2)", "(1 2 3)", "(1 3 2)", "(1 3)"]


def test_np_dual_det(capsys, det_files):
    a, b = det_files
    assert _run(capsys, ["np", a])[1].strip() == "6"
    assert _run(capsys, ["det", a])[1].strip() == str(tables.DET_A_VALUE)
    assert _run(capsys, ["det", b])[1].strip() == str(tables.DET_B_VALUE)
    code, out, _ = _run(capsys, ["dual", a])
    assert code == 0
    dual = parse_matrix(out)
    assert dual.verify().valid


# dihedral(5) with rows and columns reordered together by (3 5 1 4 2), so its
# diagonal is a permutation but not 1..5; then with two entries of column 2
# swapped, which keeps every column a permutation; then with a repeated diagonal
NONSTANDARD_VALID = [[3, 2, 4, 5, 1], [1, 5, 2, 3, 4], [5, 4, 1, 2, 3], [2, 1, 3, 4, 5], [4, 3, 5, 1, 2]]
NONSTANDARD_INVALID = [[3, 1, 4, 5, 1], [1, 5, 2, 3, 4], [5, 4, 1, 2, 3], [2, 2, 3, 4, 5], [4, 3, 5, 1, 2]]
REPEATED_DIAGONAL = [[3, 1, 4, 5, 1], [1, 5, 2, 3, 4], [5, 4, 1, 2, 3], [2, 2, 3, 4, 5], [4, 3, 5, 1, 3]]


@pytest.mark.parametrize(
    "rows, built, dual, det, failure",
    [
        (NONSTANDARD_VALID, 1, "1 3 5 2 4\n5 2 4 1 3\n4 1 3 5 2\n3 5 2 4 1\n2 4 1 3 5\n", "-1875\n", None),
        (NONSTANDARD_INVALID, 1, None, None, "distributivity fails at triple (i, j, k) = (1, 2, 5)"),
        (REPEATED_DIAGONAL, 0, None, None, "diagonal condition fails: rows 1 and 5 share a diagonal value"),
    ],
    ids=["valid", "invalid", "diagonal"],
)
def test_loading_standardizes_once(capsys, tmp_path, monkeypatch, rows, built, dual, det, failure):
    # `dual` and `det` print what they printed when the table was verified and
    # then standardized apart; only one standardized() call builds a table
    path = _write(tmp_path, "m.txt", rows)
    made = []
    standardized = QuandleMatrix.standardized

    def counted(self):
        out = standardized(self)
        made.append(out is not self)
        return out

    monkeypatch.setattr(QuandleMatrix, "standardized", counted)
    for command, printed in (("dual", dual), ("det", det)):
        made.clear()
        if failure is None:
            assert _run(capsys, [command, path]) == (0, printed, "")
        else:
            assert _run(capsys, [command, path]) == (1, "", f"{path}: invalid: {failure}\n")
        assert made.count(True) == built
    assert _run(capsys, ["verify", path]) == (
        (0, "valid\n", "") if failure is None else (1, f"invalid: {failure}\n", "")
    )


def test_canon_output_is_class_least(capsys, det_files):
    a, b = det_files
    _, out_a, _ = _run(capsys, ["canon", a])
    _, out_b, _ = _run(capsys, ["canon", b])
    assert out_a == out_b
    assert parse_matrix(out_a).verify().valid


def test_make(capsys):
    code, out, _ = _run(capsys, ["make", "dihedral:3"])
    assert code == 0
    assert out == "1 3 2\n3 2 1\n2 1 3\n"
    code, _, err = _run(capsys, ["make", "dihedral:zero"])
    assert code == 1
    assert "bad constructor" in err


def test_enumerate_machine_golden(capsys):
    code, out, _ = _run(capsys, ["enumerate", "3", "--machine"])
    assert code == 0
    assert out == (
        "1,1,1,2,2,2,3,3,3\n"
        "aut=6:S3 np=1 latin=0 connected=0\n"
        "1,1,1,3,2,2,2,3,3\n"
        "aut=2:Z2 np=3 latin=0 connected=0\n"
        "1,3,2,3,2,1,2,1,3\n"
        "aut=6:S3 np=1 latin=1 connected=1\n"
    )


def test_enumerate_all_machine(capsys):
    code, out, _ = _run(capsys, ["enumerate", "3", "--all", "--machine"])
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 5
    assert lines[0] == "1,1,1,2,2,2,3,3,3"


@pytest.mark.parametrize("kernel", ["python", "c"])
def test_enumerate_all_human(kernel, request, capsys, monkeypatch):
    if kernel == "c":
        request.getfixturevalue("compiled")
    else:
        monkeypatch.setattr(_kernel, "_speedups", None)
    code, out, _ = _run(capsys, ["enumerate", "4", "--all"])
    flats = all_tables(4)
    assert (code, len(flats)) == (0, 36)
    # the header, then each table after one blank line, in all_tables order
    assert out == "order 4: 36 standard-form matrices\n" + "".join(
        "\n" + QuandleMatrix.from_flat(flat, 4).to_text() + "\n" for flat in flats
    )


def test_enumerate_human_header(capsys):
    code, out, _ = _run(capsys, ["enumerate", "4"])
    assert code == 0
    assert out.startswith("order 4: 7 classes, 36 standard-form matrices")
    assert "Aut = S4 (order 24)" in out


def test_enumerate_cap_exit_code(capsys):
    code, _, err = _run(capsys, ["enumerate", "5", "--cap", "100"])
    assert code == 3
    assert "aborted" in err
    assert "5 column placements and 120 relabellings make 125 (cap 100)" in err
    # one budget: each placement is charged 1 and each kept table 5! relabellings
    code, _, err = _run(capsys, ["enumerate", "5", "--cap", "2000"])
    assert code == 3
    assert "72 column placements and 2040 relabellings make 2112 (cap 2000)" in err
    assert _run(capsys, ["enumerate", "5", "--machine", "--cap", "4168"])[0] == 0
    assert _run(capsys, ["enumerate", "5", "--all", "--cap", "4167"])[0] == 3


@pytest.mark.parametrize("kernel", ["python", "c"])
def test_enumerate_order9_exits_on_the_budget_before_any_orbit_walk(
    kernel, request, capsys, monkeypatch
):
    # the whole scan makes 56,465,079 placements and keeps 218,025 tables, but the
    # default budget is spent once 2,756 of them are charged 9! relabellings each
    if kernel == "c":
        request.getfixturevalue("compiled")
    else:
        monkeypatch.setattr(_kernel, "_speedups", None)
    monkeypatch.setattr(_kernel, "orbit", None)
    start = time.perf_counter()
    code, out, err = _run(capsys, ["enumerate", "9"])
    assert (code, out) == (3, "")
    assert (
        "21621 column placements and 1000097280 relabellings make 1000118901 (cap 1000000000)"
        in err
    )
    assert time.perf_counter() - start < 60


_PEAK_RSS_SCRIPT = """
import importlib.util, resource, sys
from quandles import _kernel, cli
_kernel._speedups = None
if sys.argv[1]:
    spec = importlib.util.spec_from_file_location("quandles._speedups", sys.argv[1])
    _kernel._speedups = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(_kernel._speedups)
code = cli.main(sys.argv[2:])
# Linux carries the spawning process's peak into ru_maxrss across exec, so
# read this process's own high-water mark where /proc has it
try:
    with open("/proc/self/status") as status:
        peak = next(int(line.split()[1]) for line in status if line.startswith("VmHWM:"))
except OSError:
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
print(code, peak)
"""


def _run_peak_rss(kernel_path, argv):
    """The CLI run in a child process: (exit code, stdout lines, stderr, peak RSS in KiB)."""
    env = dict(os.environ)
    src = os.path.abspath(os.path.join(os.path.dirname(__file__), os.pardir, "src"))
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-c", _PEAK_RSS_SCRIPT, kernel_path, *argv],
        capture_output=True, text=True, env=env, timeout=120,
    )
    *lines, last = proc.stdout.splitlines()
    code, max_rss_kib = map(int, last.split())
    return code, lines, proc.stderr, max_rss_kib


@pytest.mark.parametrize("kernel", ["python", "c"])
def test_enumerate_order10_cap_bounds_set_up_memory(kernel, request):
    # the budget covers set-up: before its first placement the scan holds only the
    # ranks and, on the compiled kernel, one buffer of n * n! lifted column entries
    path = request.getfixturevalue("compiled").__file__ if kernel == "c" else ""
    code, _, err, max_rss_kib = _run_peak_rss(path, ["enumerate", "10", "--cap", "1"])
    assert code == 3
    assert "2 column placements and 0 relabellings make 2 (cap 1)" in err
    assert max_rss_kib < 150 * 1024


@pytest.mark.parametrize("kernel", ["python", "c"])
def test_enumerate_order10_default_cap_stops_when_the_budget_is_spent(kernel, request):
    # 276 kept tables are charged 10! each: the scan stops there, not after the
    # whole order-10 scan and the tables it would hold
    path = request.getfixturevalue("compiled").__file__ if kernel == "c" else ""
    code, lines, err, max_rss_kib = _run_peak_rss(path, ["enumerate", "10"])
    assert (code, lines) == (3, [])
    assert "1187 column placements and 1001548800 relabellings make 1001549987" in err
    assert max_rss_kib < 150 * 1024


ORDER10_AUT8 = [
    [1, 1, 1, 1, 1, 1, 1, 1, 1, 1],
    [2, 2, 2, 2, 2, 2, 3, 2, 3, 3],
    [3, 3, 3, 3, 3, 3, 2, 3, 2, 2],
    [4, 4, 4, 4, 4, 4, 4, 4, 4, 4],
    [5, 5, 5, 5, 5, 5, 5, 5, 5, 5],
    [6, 6, 6, 8, 6, 6, 6, 6, 6, 6],
    [7, 7, 7, 7, 7, 7, 7, 7, 7, 7],
    [8, 8, 8, 6, 8, 8, 8, 8, 8, 8],
    [10, 9, 9, 9, 9, 9, 9, 9, 9, 9],
    [9, 10, 10, 10, 10, 10, 10, 10, 10, 10],
]


def test_props_order10_walks_without_holding_the_orbit(compiled, tmp_path):
    # canon, Aut and np each walk the 10! relabellings of a table whose class has
    # 453,600 members; none of them keeps an image, so memory stays flat
    path = _write(tmp_path, "m.txt", ORDER10_AUT8)
    code, lines, _, max_rss_kib = _run_peak_rss(compiled.__file__, ["props", path])
    assert code == 0
    assert {"aut_order: 8", "aut_label: unidentified", "np: 453600"} <= set(lines)
    assert max_rss_kib < 64 * 1024


@pytest.mark.parametrize("kernel", ["python", "c"])
def test_relabelling_commands_reject_orders_past_ten(kernel, request, capsys, monkeypatch, tmp_path):
    # one message on both kernels, checked after parsing and before
    # verify; from order 256 on an entry no longer fits a byte
    if kernel == "c":
        request.getfixturevalue("compiled")
    else:
        monkeypatch.setattr(_kernel, "_speedups", None)
    monkeypatch.setattr(QuandleMatrix, "verify", None)
    for n in (11, 256):
        path = _write(tmp_path, f"trivial{n}.txt", trivial(n).rows)
        for argv in (["props", path], ["canon", path], ["np", path], ["aut", path], ["iso", path, path]):
            assert _run(capsys, argv) == (1, "", "error: order must be in 1..10\n")


def test_enumerate_cap_beyond_64_bits(fastest_kernel, capsys):
    code, out, _ = _run(capsys, ["enumerate", "3", "--machine", "--cap", str(10**20)])
    assert code == 0
    assert out.count("aut=") == 3


def test_enumerate_jobs_accepts_only_one(capsys):
    base = _run(capsys, ["enumerate", "4", "--machine"])[1]
    assert _run(capsys, ["enumerate", "4", "--machine", "--jobs", "1"]) == (0, base, "")
    with pytest.raises(SystemExit) as exc:
        main(["enumerate", "4", "--jobs", "2"])
    assert exc.value.code == 2


def test_enumerate_order_out_of_range(capsys):
    for n in ("0", "11"):
        code, _, err = _run(capsys, ["enumerate", n])
        assert code == 1
        assert "order must be in 1..10" in err


def test_usage_error_exit_code(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["enumerate"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["unknown-command"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["enumerate", "4", "--strategy", "closure"])  # one scan, no strategies
    assert exc.value.code == 2
    for cap, message in (
        ("0", "must be at least 1, got 0"),
        ("-5", "must be at least 1, got -5"),
        ("x", "must be a positive integer, got 'x'"),
    ):
        capsys.readouterr()
        with pytest.raises(SystemExit) as exc:
            main(["enumerate", "3", "--cap", cap])
        assert exc.value.code == 2
        assert capsys.readouterr().err.endswith(f"quandle enumerate: error: argument --cap: {message}\n")


USAGE = {
    "verify": "quandle verify [-h] file",
    "props": "quandle props [-h] file",
    "iso": "quandle iso [-h] file_a file_b",
    "aut": "quandle aut [-h] file",
    "canon": "quandle canon [-h] file",
    "np": "quandle np [-h] file",
    "dual": "quandle dual [-h] file",
    "det": "quandle det [-h] file",
    "make": "quandle make [-h] constructor",
    "enumerate": "quandle enumerate [-h] [--jobs {1}] [--all] [--machine] [--cap CAP] n",
    "backend": "quandle backend [-h]",
}
ALL_COMMANDS = "{verify,props,iso,aut,canon,np,dual,det,make,enumerate,backend}"


def test_main_builds_only_the_named_subparser(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    added = []
    add_parser = argparse._SubParsersAction.add_parser

    def counted(self, name, **kwargs):
        added.append(name)
        return add_parser(self, name, **kwargs)

    monkeypatch.setattr(argparse._SubParsersAction, "add_parser", counted)
    assert main(["enumerate", "4", "--machine"]) == 0
    assert added == ["enumerate"]
    # with no command named, every subparser is built, and help lists them all
    added.clear()
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    assert added == list(COMMANDS) == list(USAGE)
    help_lines = capsys.readouterr().out.splitlines()
    assert f"  {ALL_COMMANDS}" in help_lines
    assert [line.split()[0] for line in help_lines if line[:4] == "    " and line[4:5].isalpha()] == list(USAGE)
    for command, usage in USAGE.items():
        with pytest.raises(SystemExit) as exc:
            main([command, "--help"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.splitlines()[0] == f"usage: {usage}"
    # an error the top-level parser reports still shows every command, with one built
    added.clear()
    with pytest.raises(SystemExit) as exc:
        main(["backend", "extra"])
    assert (exc.value.code, added) == (2, ["backend"])
    err = capsys.readouterr().err
    assert ALL_COMMANDS in err
    assert err == build_parser().format_usage() + "quandle: error: unrecognized arguments: extra\n"


def test_machine_lines_match_each_tables_machine_line():
    # more than one 256-table block at order 10, each row a permutation of 1..10, so
    # the ':' -> '10' replacement lands in every row, at the start, middle and end of lines
    rng = random.Random(21)
    for n in range(1, 11):
        ms = [trivial(n), dihedral(n)]
        if n == 10:
            ms += [QuandleMatrix(rng.sample(range(1, 11), 10) for _ in range(10)) for _ in range(300)]
            assert {row.index(10) for m in ms[2:] for row in m.rows} == set(range(10))
        want = "".join(m.to_machine_line() + "\n" for m in ms).encode()
        assert _machine_lines(b"".join(m.flat() for m in ms), n) == want


def test_machine_lines_holds_one_copy_of_the_text(fastest_kernel):
    # the text is twice the blob; no temporary copy of the whole of it is made
    blob = _table_blob(6, _kernel.DEFAULT_CAP)
    assert len(blob) == 6658 * 36
    tracemalloc.start()
    try:
        text = _machine_lines(blob, 6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(text) == 2 * len(blob)
    assert peak <= 2 * len(blob) + 64 * 1024


def test_backend_subcommand(capsys):
    code, out, _ = _run(capsys, ["backend"])
    assert code == 0
    assert out.strip() in ("c", "python")


def test_canon_idempotent_through_pipe(tmp_path):
    env = dict(os.environ)
    src = os.path.abspath(os.path.join(os.path.dirname(__file__), os.pardir, "src"))
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    path = _write(tmp_path, "a.txt", tables.DET_A)
    cmd = [sys.executable, "-m", "quandles.cli"]
    first = subprocess.run(cmd + ["canon", path], capture_output=True, text=True, env=env)
    assert first.returncode == 0
    second = subprocess.run(
        cmd + ["canon", "-"], input=first.stdout, capture_output=True, text=True, env=env
    )
    assert second.returncode == 0
    assert second.stdout == first.stdout
    third = subprocess.run(
        cmd + ["verify", "-"], input=second.stdout, capture_output=True, text=True, env=env
    )
    assert third.returncode == 0
    assert third.stdout.strip() == "valid"


def test_stdin_dash(capsys, monkeypatch):
    import io

    monkeypatch.setattr(sys, "stdin", io.StringIO(trivial(2).to_text()))
    code, out, _ = _run(capsys, ["verify", "-"])
    assert code == 0
    assert out.strip() == "valid"
