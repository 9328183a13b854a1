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

    A table for the relabelling walk (`walked`), which takes orders
    1..MAX_ORDER only, is rejected past that before it is verified.
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


def _cmd_canon(args) -> int:
    print(canonical_form(_load(args.file, walked=True)).to_text())
    return EXIT_OK


def _cmd_np(args) -> int:
    print(np_count(_load(args.file, walked=True)))
    return EXIT_OK


def _cmd_dual(args) -> int:
    print(_load(args.file).dual().to_text())
    return EXIT_OK


def _cmd_det(args) -> int:
    print(determinant(_load(args.file)))
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


def _machine_lines(flats: list[bytes], n: int) -> str:
    """to_machine_line of each row-major 1-based table, one per line, built in bulk."""
    nn = n * n
    text = bytearray(2 * nn * len(flats))
    text[0::2] = b"".join(flats).translate(_DIGITS)
    text[1::2] = (b"," * (nn - 1) + b"\n") * len(flats)
    return text.replace(b":", b"10").decode()


def _print_classes_machine(report: EnumerationReport) -> None:
    tables = _machine_lines([rec.representative.flat() for rec in report.classes], report.n)
    sys.stdout.write("".join(
        f"{table}"
        f"aut={rec.aut_order}:{rec.aut_id.label} np={rec.np} "
        f"latin={int(rec.latin)} connected={int(rec.connected)}\n"
        for table, rec in zip(tables.splitlines(keepends=True), report.classes)
    ))


def _cmd_enumerate(args) -> int:
    if args.all:
        flats = all_tables(args.n, cap=args.cap)
        if args.machine:
            sys.stdout.write(_machine_lines(flats, args.n))
        else:
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
    if int(text) < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {text}")
    return int(text)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="quandle",
        description="Finite quandle tables: validation, invariants, isomorphism, enumeration.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="check the three quandle-table conditions")
    p.add_argument("file", help="matrix file, or - for stdin")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("props", help="print order, trace, latin/connected flags, orbits, Aut data")
    p.add_argument("file")
    p.set_defaults(func=_cmd_props)

    p = sub.add_parser("iso", help="find a relabelling witness between two tables")
    p.add_argument("file_a")
    p.add_argument("file_b")
    p.set_defaults(func=_cmd_iso)

    p = sub.add_parser("aut", help="print the automorphism group")
    p.add_argument("file")
    p.set_defaults(func=_cmd_aut)

    p = sub.add_parser("canon", help="print the canonical form")
    p.add_argument("file")
    p.set_defaults(func=_cmd_canon)

    p = sub.add_parser("np", help="print the number of standard-form tables in the class")
    p.add_argument("file")
    p.set_defaults(func=_cmd_np)

    p = sub.add_parser("dual", help="print the dual table")
    p.add_argument("file")
    p.set_defaults(func=_cmd_dual)

    p = sub.add_parser("det", help="print the exact determinant of the entry matrix")
    p.add_argument("file")
    p.set_defaults(func=_cmd_det)

    p = sub.add_parser("make", help="build a named quandle, e.g. trivial:3 or dihedral:5")
    p.add_argument(
        "constructor",
        help="trivial:<n> | dihedral:<n> | alexander:<m>:<coeffs> | "
        "conj:<degree>:<elements>[:<exponent>]",
    )
    p.set_defaults(func=_cmd_make)

    p = sub.add_parser("enumerate", help="classify all quandles of one order")
    p.add_argument("n", type=int)
    p.add_argument("--jobs", type=int, choices=(1,), default=1,
                   help="accepted for compatibility; the scan is serial")
    p.add_argument("--all", action="store_true", help="emit every table instead of classes")
    p.add_argument("--machine", action="store_true", help="line-oriented machine format")
    p.add_argument("--cap", type=_positive_int, default=DEFAULT_CAP,
                   help="budget: the scan charges 1 per tried candidate column and n! "
                   "per kept table, and aborts (exit 3) at the first charge past it")
    p.set_defaults(func=_cmd_enumerate)

    p = sub.add_parser("backend", help="report which scan kernel is active")
    p.set_defaults(func=lambda args: (print(backend()), EXIT_OK)[1])

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
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
