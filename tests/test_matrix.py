import itertools
import random
import re
import time
from collections import Counter

import pytest

from quandles import (
    QuandleMatrix,
    QuandleParseError,
    VerificationReport,
    alexander,
    conjugation_class,
    dihedral,
    parse_matrix,
    permute,
    trivial,
)
from quandles import _kernel
from quandles.permutation import Permutation

import tables
from reference import orbits_by_warshall, parse_by_tokens, verify_by_triples


def test_parse_basic():
    m = parse_matrix("1 1\n2 2")
    assert m.rows == ((1, 1), (2, 2))
    assert m == trivial(2)


def test_parse_comments_and_blanks():
    text = "# dihedral of order 3\n\n1 3 2\n3 2 1\n# middle note\n2 1 3\n\n"
    assert parse_matrix(text) == dihedral(3)


def test_parse_ragged_row():
    with pytest.raises(QuandleParseError) as exc:
        parse_matrix("1 2\n2")
    assert exc.value.line == 2


def test_parse_entry_out_of_range():
    with pytest.raises(QuandleParseError) as exc:
        parse_matrix("1 3\n2 2")
    assert exc.value.line == 1
    assert exc.value.column == 2


def test_parse_bad_token_and_missing_rows():
    with pytest.raises(QuandleParseError):
        parse_matrix("1 x\n2 2")
    with pytest.raises(QuandleParseError):
        parse_matrix("1 2 2\n2 1 1")  # 3 columns but only 2 rows
    with pytest.raises(QuandleParseError):
        parse_matrix("# only comments\n")


def _parsed(parse, text):
    try:
        return parse(text)
    except QuandleParseError as exc:
        return (str(exc), exc.message, exc.line, exc.column)


@pytest.fixture(params=["python", "c"])
def backend(request, monkeypatch):
    """Each backend in turn: the freshly built compiled kernel, or the pure fallback."""
    if request.param == "c":
        request.getfixturevalue("compiled")
    else:
        monkeypatch.setattr(_kernel, "_speedups", None)
    return request.param


def _plain(text):
    """Text of the plain format's alphabet: ASCII digits, spaces, tabs and \\n or \\r\\n line ends."""
    return re.fullmatch(r"[0-9 \t\n]*", text.replace("\r\n", "\n")) is not None


def test_parse_matches_the_token_by_token_parser(backend):
    # seeded texts with every kind of fault, often several on one line, and
    # every line break and blank that str.splitlines and str.split know: the
    # same table, or the same message, line and column, as token by token.
    # The compiled parse takes exactly the valid tables of the plain format.
    rng = random.Random(7)
    tokens = ["1", "2", "3", "4", "0", "-1", "5", "x", "1.5", "+2", "07", "001", "1_0", "٣"]
    breaks = ["\n"] * 8 + ["\r\n"] * 4 + ["\r", "\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028"]
    blanks = [" "] * 4 + ["\t", "  ", " \t"]
    outcomes = Counter()
    taken = 0
    for _ in range(4000):
        n = rng.randint(1, 4)
        lines = []
        clean = rng.random() < 0.3  # a table of the right shape and range, only its blanks and breaks vary
        for _ in range(n if clean else rng.randint(0, n + 2)):
            roll = rng.uniform(0.1, 0.5) if clean else rng.random()
            if roll < 0.1:
                lines.append(rng.choice(["", "   ", "\t", "# note", "  # indented note", "\t# tabbed note"]))
            elif roll < 0.5:
                lines.append(rng.choice(blanks).join(str(rng.randint(1, n)) for _ in range(n)))
            else:
                width = n + rng.choice([-1, 0, 0, 0, 1])
                lines.append(rng.choice(blanks).join(rng.choice(tokens[:n] + tokens[4:]) for _ in range(max(width, 1))))
            if rng.random() < 0.2:
                lines[-1] = rng.choice(blanks) + lines[-1] + rng.choice(blanks)
        text = "".join(line + rng.choice(breaks) for line in lines)
        text = text[: -1] if text.endswith("\n") and rng.random() < 0.3 else text
        got = _parsed(parse_matrix, text)
        assert got == _parsed(parse_by_tokens, text), repr(text)
        outcomes[re.split(r"[-\d:]", got[1])[0] if isinstance(got, tuple) else "table"] += 1
        if backend == "c":
            flat = _kernel._speedups.parse(text)
            assert (flat is not None) == (_plain(text) and isinstance(got, QuandleMatrix)), repr(text)
            assert flat is None or flat == got.flat()
            taken += flat is not None
    assert set(outcomes) == {"table", "not an integer", "expected ", "more than ", "entry ", "no data lines"}
    assert backend == "python" or taken >= 200, taken
    table = parse_matrix(dihedral(5).to_text())
    assert all(type(row) is tuple and all(type(x) is int for x in row) for row in table.rows)


def test_compiled_parse_takes_the_plain_format(compiled, matrices_for, report_for):
    # what to_text() writes, also with \r\n line ends, a last line end and
    # blank lines, goes through the compiled parse and nowhere else
    tables = [m for n in range(1, 6) for m in matrices_for(n)]
    tables += [rec.representative for rec in report_for(6).classes] + [dihedral(255)]
    assert len(tables) == 1 + 1 + 5 + 36 + 404 + 73 + 1
    for m in tables:
        text = m.to_text()
        for variant in (text, text + "\n", text.replace("\n", "\r\n") + "\r\n", "\n \t\n" + text + "\n\n"):
            assert compiled.parse(variant) == m.flat()
        assert parse_matrix(text) == m
    for text in ("1 2\r2 1", "# c\n1", "1\n\n\n1", "1\x0b", "\u0661", "01 2\n2 1\r", "", "\n"):
        assert compiled.parse(text) is None, repr(text)
    assert compiled.parse(b"1") is None


def test_constructor_rejects_bad_shapes():
    with pytest.raises(ValueError):
        QuandleMatrix([[1, 2], [1]])
    with pytest.raises(ValueError):
        QuandleMatrix([[0, 1], [1, 2]])
    with pytest.raises(ValueError):
        QuandleMatrix([])
    # bool is an int subclass: True would pass as 1 and print as "True"
    with pytest.raises(ValueError):
        QuandleMatrix([[True, True], [2, 2]])


def test_verify_valid():
    assert dihedral(3).verify().valid
    assert trivial(5).verify().valid
    assert QuandleMatrix(tables.TRANSPOSITION_6).verify().valid


def test_verify_diagonal_failure():
    report = QuandleMatrix(tables.NONQUANDLE_LATIN).verify()
    assert not report.valid
    assert report.failures == (("diagonal", (1, 2)),)


def test_verify_column_failure():
    report = QuandleMatrix([[1, 1], [1, 2]]).verify()
    assert not report.valid
    assert report.failures == (("column", (1, 2, 1)),)


def test_verify_distributivity_failure_first_triple():
    # columns (2 3), (1 3), id: passes diagonal and column conditions only
    report = QuandleMatrix([[1, 3, 1], [3, 2, 2], [2, 1, 3]]).verify()
    assert not report.valid
    assert report.failures == (("distributivity", (1, 2, 1)),)


def test_verify_standardizes_first():
    assert QuandleMatrix(tables.STANDARDIZE_IN).verify().valid


def test_standardize_worked_example():
    m = QuandleMatrix(tables.STANDARDIZE_IN)
    assert m.standardized().rows == QuandleMatrix(tables.STANDARDIZE_OUT).rows


def test_standardize_idempotent_and_simple_swap():
    m = dihedral(4)
    assert m.standardized() is m
    assert QuandleMatrix([[2, 2], [1, 1]]).standardized() == QuandleMatrix([[1, 1], [2, 2]])


def test_standardize_rejects_non_permutation_diagonal():
    with pytest.raises(ValueError):
        QuandleMatrix(tables.NONQUANDLE_LATIN).standardized()


def test_apply():
    m = dihedral(3)
    assert m.apply(1, 2) == 3
    assert all(m.apply(i, i) == i for i in range(1, 4))
    assert trivial(4).apply(3, 1) == 3
    with pytest.raises(IndexError):
        m.apply(0, 1)
    with pytest.raises(IndexError):
        m.apply(1, 4)


def test_row_and_column_bounds():
    m = dihedral(3)
    assert m.row(3) == (2, 1, 3)
    assert m.column(3) == (2, 1, 3)
    for k in (0, -1, 4):
        with pytest.raises(IndexError):
            m.row(k)
        with pytest.raises(IndexError):
            m.column(k)


def test_column_permutation():
    assert dihedral(3).column_permutation(1) == Permutation.parse("(2 3)", 3)
    t = trivial(4)
    assert all(t.column_permutation(j).is_identity() for j in range(1, 5))
    six = QuandleMatrix(tables.TRANSPOSITION_6)
    assert six.column_permutation(1).images == (1, 4, 5, 2, 3, 6)
    # the column permutation always fixes its own index
    for j in range(1, 7):
        assert six.column_permutation(j)(j) == j


def test_dual():
    assert trivial(4).dual() == trivial(4)
    assert dihedral(3).dual() == dihedral(3)
    m = QuandleMatrix(tables.DUAL_IN)
    assert m.dual() == QuandleMatrix(tables.DUAL_OUT)
    assert m.dual().dual() == m
    assert m.dual().verify().valid


def test_is_latin():
    assert dihedral(3).is_latin()
    assert not trivial(2).is_latin()
    assert not QuandleMatrix(tables.TRANSPOSITION_6).is_latin()


def test_inner_group():
    assert trivial(5).inner_group().order == 1
    assert dihedral(3).inner_group().order == 6  # closure of three transpositions
    third = QuandleMatrix([[1, 1, 1], [3, 2, 2], [2, 3, 3]])
    inner = third.inner_group()
    assert inner.order == 2
    assert Permutation.parse("(2 3)", 3) in inner


def test_orbits_and_connected():
    assert trivial(3).orbits() == ((1,), (2,), (3,))
    assert QuandleMatrix([[1, 1, 1], [3, 2, 2], [2, 3, 3]]).orbits() == ((1,), (2, 3))
    assert dihedral(3).orbits() == ((1, 2, 3),)
    assert QuandleMatrix(tables.TRANSPOSITION_6).is_connected()
    assert not trivial(2).is_connected()
    assert trivial(1).is_connected()


def test_trace():
    assert dihedral(3).trace() == 6
    assert dihedral(5).trace() == 15
    assert trivial(1).trace() == 1


def test_text_roundtrip():
    m = dihedral(5)
    assert parse_matrix(m.to_text()) == m
    assert m.to_machine_line() == ",".join(str(x) for row in m.rows for x in row)
    assert QuandleMatrix.from_flat(m.flat(), 5) == m


def test_from_flat_needs_exactly_n_squared_entries():
    assert QuandleMatrix.from_flat([1, 1, 2, 2], 2) == trivial(2)
    for flat in (b"\x01\x01\x01\x01\x02", [1, 2, 1, 2, 2, 2, 2, 2, 2], [1, 1, 2], []):
        with pytest.raises(ValueError):
            QuandleMatrix.from_flat(flat, 2)


def test_from_flat_checks_bytes_like_the_constructor(matrices_for):
    for flat in (b"\x01\x00\x02\x02", b"\x01\x01\x03\x02", b"\x01\x01\x02", b"\x01" * 9):
        with pytest.raises(ValueError):
            QuandleMatrix.from_flat(flat, 2)
    # every 2x2 byte table with entries 0..3: the same table, or the same error, as from a list
    for entries in itertools.product(range(4), repeat=4):
        try:
            expected = QuandleMatrix.from_flat(list(entries), 2)
        except ValueError as exc:
            with pytest.raises(ValueError, match=re.escape(str(exc))):
                QuandleMatrix.from_flat(bytes(entries), 2)
        else:
            assert QuandleMatrix.from_flat(bytes(entries), 2) == expected
    for n in range(1, 5):
        for m in matrices_for(n):
            built = QuandleMatrix.from_flat(m.flat(), n)
            assert built == QuandleMatrix.from_flat(list(m.flat()), n) == m
            assert all(type(row) is tuple and all(type(x) is int for x in row) for row in built.rows)


def test_orbits_and_connected_match_warshall(matrices_for):
    # every table of orders 1..5 against a transitive closure that shares no code with the BFS
    for n in range(1, 6):
        for m in matrices_for(n):
            expected = orbits_by_warshall(n, zip(*m.rows))
            assert m.orbits() == expected
            assert m.is_connected() == (len(expected) == 1)


def _kind(report):
    return report.failures[0][0] if report.failures else "valid"


def test_verify_matches_the_triple_loop_on_every_small_table(backend, matrices_for):
    # every table of order <= 3 with entries in 1..n, valid or not, and every
    # valid standard-form table of orders 4 and 5
    kinds = Counter()
    for n in range(1, 4):
        for entries in itertools.product(range(1, n + 1), repeat=n * n):
            m = QuandleMatrix.from_flat(bytes(entries), n)
            report = m.verify()
            assert report == verify_by_triples(m), m
            kinds[_kind(report)] += 1
    assert set(kinds) == {"valid", "diagonal", "column", "distributivity"}
    for n in (4, 5):
        for m in matrices_for(n):
            assert m.verify() == verify_by_triples(m) == VerificationReport(True, ())


def _valid_tables(matrices_for):
    """Valid standard-form tables of orders 1..8: all of them up to order 5, named families past it."""
    s4 = [Permutation.parse("(1 2)", 4), Permutation.parse("(1 2 3 4)", 4)]
    families = [trivial(n) for n in (6, 7, 8)] + [dihedral(n) for n in (6, 7, 8)] + [
        alexander(7, [5, 1]),
        alexander(7, [4, 1]),
        alexander(2, [1, 1, 0, 1]),
        alexander(2, [1, 0, 1, 1]),
        conjugation_class(s4, s4[0]),
        conjugation_class(s4, s4[1]),
        conjugation_class(s4, Permutation.parse("(1 2 3)", 4)),
    ]
    return [m for n in range(1, 6) for m in matrices_for(n)] + families


def test_verify_matches_the_triple_loop_on_seeded_corruptions(backend, matrices_for):
    # 1 or 2 entries of a valid table overwritten (the second, half the time,
    # so that the first's column stays a permutation), and half the results
    # reordered by a simultaneous row and column permutation that leaves the
    # entries alone, so that verify must standardize first
    rng = random.Random(16)
    bases = _valid_tables(matrices_for)
    kinds = Counter()
    for _ in range(10_000):
        base = rng.choice(bases)
        if base.n > 5:
            base = permute(base, Permutation(rng.sample(range(1, base.n + 1), base.n)))
        n = base.n
        rows = [list(r) for r in base.rows]
        i, j, v = rng.randrange(n), rng.randrange(n), rng.randint(1, n)
        roll = rng.random()
        if roll < 0.25:
            # the entry of column j that holds v takes the old value instead
            rows[[r[j] for r in rows].index(v)][j] = rows[i][j]
        elif roll < 0.5:
            rows[rng.randrange(n)][rng.randrange(n)] = rng.randint(1, n)
        rows[i][j] = v
        if rng.random() < 0.5:
            order = rng.sample(range(n), n)
            rows = [[rows[a][b] for b in order] for a in order]
        m = QuandleMatrix(rows)
        report = m.verify()
        assert report == verify_by_triples(m), m
        kinds[_kind(report), m.is_standard()] += 1
    assert min(kinds[kind, standard] for kind in ("diagonal", "column", "distributivity", "valid")
               for standard in (True, False) if (kind, standard) != ("diagonal", True)) >= 250, kinds


def test_verify_at_order_101_matches_the_triple_loop(backend):
    rng = random.Random(101)
    for base in (dihedral(101), trivial(101)):
        assert base.verify() == verify_by_triples(base) == VerificationReport(True, ())
        for _ in range(3):
            rows = [list(r) for r in base.rows]
            i, j = rng.randrange(101), rng.randrange(101)
            rows[i][j] = rows[i][j] % 101 + 1
            m = QuandleMatrix(rows)
            report = m.verify()
            assert not report.valid and report == verify_by_triples(m)


def test_verify_at_order_255_is_fast_and_exact(backend):
    for base in (dihedral(255), trivial(255)):
        start = time.perf_counter()
        assert base.verify().valid
        assert time.perf_counter() - start < 0.5
    # R_1 = (3 4) and R_2 = (3 5) on the trivial table: every column is still a
    # permutation, but R_1 R_2 R_1^-1 = (4 5) is not R_{R_1(2)} = R_2
    rows = [list(r) for r in trivial(255).rows]
    rows[2][0], rows[3][0] = 4, 3
    rows[2][1], rows[4][1] = 5, 3
    m = QuandleMatrix(rows)
    assert m.verify() == verify_by_triples(m) == VerificationReport(False, (("distributivity", (3, 1, 2)),))


def test_verify_past_order_255():
    # entries no longer fit a byte, and the column algebra runs on tuples
    rows = [list(r) for r in trivial(256).rows]
    rows[2][0], rows[3][0] = 4, 3
    rows[2][1], rows[4][1] = 5, 3
    m = QuandleMatrix(rows)
    assert m.verify() == verify_by_triples(m) == VerificationReport(False, (("distributivity", (3, 1, 2)),))
