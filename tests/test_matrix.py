import itertools
import re

import pytest

from quandles import (
    QuandleMatrix,
    QuandleParseError,
    dihedral,
    parse_matrix,
    trivial,
)
from quandles.permutation import Permutation

import tables
from reference import orbits_by_warshall


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
