"""Command-line front end.

Matrices travel as text files (or '-' for stdin): optional '#' comment
lines, then n lines of n space-separated integers.  Exit codes: 0 success,
1 invalid matrix / semantic failure (including "not isomorphic"), 2 usage
error, 3 resource cap exceeded.
"""

from __future__ import annotations

import argparse
import sys

from . import construct
from ._kernel import DEFAULT_CAP, MAX_ORDER, backend
from .enumeration import (
    EnumerationReport,
    ResourceLimitError,
    _table_blob,
    all_tables,
    enumerate_classes,
)
from .matrix import QuandleMatrix, QuandleParseError, VerificationReport, parse_matrix
from .symmetry import (
    are_isomorphic,
    automorphism_group,
    canonical_form,
    determinant,
    identify_group,
    np_count,
)

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_USAGE = 2
EXIT_RESOURCE = 3


def _failure_text(report: VerificationReport) -> str:
    cond, w = report.failures[0]
    if cond == "diagonal":
        return f"diagonal condition fails: rows {w[0]} and {w[1]} share a diagonal value"
    if cond == "column":
        return f"column condition fails: column {w[2]} repeats a value in rows {w[0]} and {w[1]}"
    return f"distributivity fails at triple (i, j, k) = ({w[0]}, {w[1]}, {w[2]})"


def _read_text(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as handle:
        return handle.read()


class _Invalid(Exception):
    def __init__(self, message: str):
        self.message = message


def _load(path: str, *, walked: bool = False) -> QuandleMatrix:
    """Parse, verify, and standardize one matrix argument.

    A table for the relabelling walk or the isomorphism search (`walked`),
    which take orders 1..MAX_ORDER only, is rejected past that before it is
    verified.
    """
    try:
        m = parse_matrix(_read_text(path))
    except (OSError, QuandleParseError) as exc:
        raise _Invalid(f"{path}: {exc}") from exc
    if walked and m.n > MAX_ORDER:
        raise ValueError(f"order must be in 1..{MAX_ORDER}")
    # standardize once: verify() on a standard table reuses it as it is, and
    # a diagonal that is no permutation fails verify() before any reordering
    if len(set(m.diagonal())) == m.n:
        m = m.standardized()
    report = m.verify()
    if not report.valid:
        raise _Invalid(f"{path}: invalid: {_failure_text(report)}")
    return m


def _yesno(flag: bool) -> str:
    return "yes" if flag else "no"


def _cmd_verify(args) -> int:
    try:
        m = parse_matrix(_read_text(args.file))
    except (OSError, QuandleParseError) as exc:
        print(f"invalid: {exc}")
        return EXIT_INVALID
    report = m.verify()
    if report.valid:
        print("valid")
        return EXIT_OK
    print(f"invalid: {_failure_text(report)}")
    return EXIT_INVALID


def _cmd_props(args) -> int:
    m = _load(args.file, walked=True)
    aut = automorphism_group(m)
    print(f"n: {m.n}")
    print(f"trace: {m.trace()}")
    print(f"latin: {_yesno(m.is_latin())}")
    print(f"connected: {_yesno(m.is_connected())}")
    print("orbits: " + " ".join("{" + ",".join(map(str, b)) + "}" for b in m.orbits()))
    print(f"aut_order: {aut.order}")
    print(f"aut_label: {identify_group(aut).label}")
    print(f"np: {np_count(m)}")
    return EXIT_OK


def _cmd_iso(args) -> int:
    a = _load(args.file_a, walked=True)
    b = _load(args.file_b, walked=True)
    witness = are_isomorphic(a, b)
    if witness is None:
        print("not isomorphic")
        return EXIT_INVALID
    print(str(witness))
    return EXIT_OK


def _cmd_aut(args) -> int:
    m = _load(args.file, walked=True)
    aut = automorphism_group(m)
    print(f"order: {aut.order}")
    print(f"label: {identify_group(aut).label}")
    for g in aut.elements():
        print(str(g))
    return EXIT_OK


def _cmd_make(args) -> int:
    try:
        m = construct.make(args.constructor)
    except ValueError as exc:
        raise _Invalid(str(exc)) from exc
    print(m.to_text())
    return EXIT_OK


def _print_classes_human(report: EnumerationReport) -> None:
    print(
        f"order {report.n}: {len(report.classes)} classes, "
        f"{report.total_valid_matrices} standard-form matrices "
        f"({report.elapsed:.2f}s)"
    )
    for k, rec in enumerate(report.classes, start=1):
        print()
        print(
            f"#{k}  Aut = {rec.aut_id.label} (order {rec.aut_order})  "
            f"N_p = {rec.np}  latin = {_yesno(rec.latin)}  "
            f"connected = {_yesno(rec.connected)}"
        )
        print(rec.representative.to_text())


# entry bytes 1..10 as one character each; ':' stands for 10 until the text is built
_DIGITS = bytes.maketrans(bytes(range(1, 11)), b"123456789:")


def _machine_lines(blob: bytes, n: int) -> bytearray:
    """to_machine_line of each row-major 1-based table in the concatenation `blob`, one
    per line, as bytes; built in bulk, 256 tables at a time, so that no temporary
    holds more than that much of the text."""
    step = 256 * n * n
    ends = (b"," * (n * n - 1) + b"\n") * 256
    text = bytearray(2 * len(blob))
    for at in range(0, len(blob), step):
        block = blob[at:at + step]
        text[2 * at:2 * (at + len(block)):2] = block.translate(_DIGITS)
        text[2 * at + 1:2 * (at + len(block)):2] = ends[:len(block)]
    return text.replace(b":", b"10") if n == 10 else text


def _print_classes_machine(report: EnumerationReport) -> None:
    tables = _machine_lines(b"".join(rec.representative.flat() for rec in report.classes), report.n)
    sys.stdout.flush()
    sys.stdout.buffer.write(b"".join(
        table + f"aut={rec.aut_order}:{rec.aut_id.label} np={rec.np} "
        f"latin={int(rec.latin)} connected={int(rec.connected)}\n".encode()
        for table, rec in zip(tables.splitlines(keepends=True), report.classes)
    ))


def _cmd_enumerate(args) -> int:
    if args.all:
        if args.machine:
            # both --machine streams go to the byte layer, after what the text layer holds
            sys.stdout.flush()
            sys.stdout.buffer.write(_machine_lines(_table_blob(args.n, args.cap), args.n))
        else:
            flats = all_tables(args.n, cap=args.cap)
            print(f"order {args.n}: {len(flats)} standard-form matrices")
            for flat in flats:
                print()
                print(QuandleMatrix.from_flat(flat, args.n).to_text())
        return EXIT_OK
    report = enumerate_classes(args.n, cap=args.cap)
    if args.machine:
        _print_classes_machine(report)
    else:
        _print_classes_human(report)
    return EXIT_OK


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {text}")
    return value


def _show(value) -> int:
    print(value)
    return EXIT_OK


_FILE = (("file", {}),)

# name -> (handler, help, arguments as (name or flag, add_argument keywords)), in
# the order `quandle --help` lists them
COMMANDS = {
    "verify": (_cmd_verify, "check the three quandle-table conditions",
               (("file", {"help": "matrix file, or - for stdin"}),)),
    "props": (_cmd_props, "print order, trace, latin/connected flags, orbits, Aut data", _FILE),
    "iso": (_cmd_iso, "find a relabelling witness between two tables", (("file_a", {}), ("file_b", {}))),
    "aut": (_cmd_aut, "print the automorphism group", _FILE),
    "canon": (lambda args: _show(canonical_form(_load(args.file, walked=True)).to_text()),
              "print the canonical form", _FILE),
    "np": (lambda args: _show(np_count(_load(args.file, walked=True))),
           "print the number of standard-form tables in the class", _FILE),
    "dual": (lambda args: _show(_load(args.file).dual().to_text()), "print the dual table", _FILE),
    "det": (lambda args: _show(determinant(_load(args.file))),
            "print the exact determinant of the entry matrix", _FILE),
    "make": (_cmd_make, "build a named quandle, e.g. trivial:3 or dihedral:5",
             (("constructor", {"help": "trivial:<n> | dihedral:<n> | alexander:<m>:<coeffs> | "
                                       "conj:<degree>:<elements>[:<exponent>]"}),)),
    "enumerate": (_cmd_enumerate, "classify all quandles of one order", (
        ("n", {"type": int}),
        ("--jobs", {"type": int, "choices": (1,), "default": 1,
                    "help": "accepted for compatibility; the scan is serial"}),
        ("--all", {"action": "store_true", "help": "emit every table instead of classes"}),
        ("--machine", {"action": "store_true", "help": "line-oriented machine format"}),
        ("--cap", {"type": _positive_int, "default": DEFAULT_CAP,
                   "help": "budget: the scan charges 1 per tried candidate column and n! "
                   "per kept table, and aborts (exit 3) at the first charge past it"}),
    )),
    "backend": (lambda args: _show(backend()), "report which scan kernel is active", ()),
}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The `quandle` parser, with the subparser of `command` alone when it names one,
    else with every subparser."""
    parser = argparse.ArgumentParser(
        prog="quandle",
        description="Finite quandle tables: validation, invariants, isomorphism, enumeration.",
    )
    names = [command] if command in COMMANDS else list(COMMANDS)
    # a usage line printed with one subparser built still lists every command
    sub = parser.add_subparsers(
        dest="command", required=True,
        metavar="{" + ",".join(COMMANDS) + "}" if len(names) == 1 else None,
    )
    for name in names:
        func, help_text, arguments = COMMANDS[name]
        p = sub.add_parser(name, help=help_text)
        for flag, keywords in arguments:
            p.add_argument(flag, **keywords)
        p.set_defaults(func=func)
    return parser


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = build_parser(argv[0] if argv else None).parse_args(argv)
    try:
        return args.func(args)
    except _Invalid as exc:
        print(exc.message, file=sys.stderr)
        return EXIT_INVALID
    except ResourceLimitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
