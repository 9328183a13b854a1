import pytest
from reference import alexander_by_definition, alexander_presentations

from quandles import (
    AlexanderPresentation,
    QuandleMatrix,
    alexander,
    are_isomorphic,
    automorphism_group,
    canonical_form,
    conjugation,
    conjugation_class,
    dihedral,
    make,
    np_count,
    trivial,
)
from quandles.permutation import Permutation, all_permutations

import tables


def test_trivial():
    assert trivial(3).rows == ((1, 1, 1), (2, 2, 2), (3, 3, 3))
    assert trivial(1).rows == ((1,),)
    assert trivial(4) == QuandleMatrix(tables.ORDER4[0][0])
    with pytest.raises(ValueError):
        trivial(0)


def test_dihedral():
    assert dihedral(3).rows == ((1, 3, 2), (3, 2, 1), (2, 1, 3))
    assert dihedral(1).rows == ((1,),)
    assert dihedral(2) == trivial(2)
    assert are_isomorphic(dihedral(5), QuandleMatrix(tables.ORDER5[19][0]))
    for n in range(1, 8):
        assert dihedral(n).verify().valid
    assert dihedral(5).is_latin() and not dihedral(4).is_latin()


def test_alexander_matches_dihedral():
    for m in range(2, 8):
        assert are_isomorphic(alexander(m, [1, 1]), dihedral(m)) is not None


def test_alexander_table_classes():
    for (modulus, coeffs), rows in tables.ALEXANDER_CLASSES:
        built = alexander(modulus, coeffs)
        assert built.verify().valid
        assert are_isomorphic(built, QuandleMatrix(rows)) is not None


def test_alexander_tables_follow_the_definition():
    # the element order too, not only the class: entry for entry
    presentations = list(alexander_presentations(27))
    assert len(presentations) == 295
    for modulus, coeffs in presentations:
        assert [list(r) for r in alexander(modulus, coeffs).rows] == alexander_by_definition(modulus, coeffs)


def test_alexander_latin_iff_one_minus_t_invertible():
    assert alexander(2, [1, 1, 1]).is_latin()       # 1-t = 1+t is invertible
    assert not alexander(2, [1, 0, 1]).is_latin()   # (1+t)^2 = 0 in Z_2[t]/(t^2+1)


def test_alexander_errors():
    with pytest.raises(ValueError):
        alexander(4, [2, 1])  # t = -2 shares a factor with 4
    with pytest.raises(ValueError):
        alexander(3, [1, 2])  # not monic
    with pytest.raises(ValueError):
        alexander(3, [2])  # degree 0
    with pytest.raises(ValueError):
        alexander(1, [1, 1])


def test_alexander_presentation_type():
    pres = AlexanderPresentation(2, (1, 1, 1))
    assert pres.degree == 2
    assert pres.size == 4
    assert pres.t_invertible()
    assert pres.quandle() == alexander(2, [1, 1, 1])
    assert not AlexanderPresentation(4, (2, 1)).t_invertible()


def test_conjugation_transpositions():
    elems = [Permutation.parse(s, 4) for s in tables.TRANSPOSITIONS_4]
    built = conjugation(elems)
    printed = QuandleMatrix(tables.TRANSPOSITION_6)
    assert built == printed  # natural element order reproduces the table exactly
    assert are_isomorphic(built, printed) is not None
    assert built.is_connected() and not built.is_latin()


def test_conjugation_one_element():
    assert conjugation([Permutation.parse("(1 2)", 2)]).rows == ((1,),)


def test_conjugation_abelian_is_trivial():
    z4 = [Permutation.identity(4)] + [Permutation.parse(s, 4) for s in ["(1 2 3 4)", "(1 3)(2 4)", "(1 4 3 2)"]]
    assert conjugation(z4) == trivial(4)


def test_conjugation_exponent():
    elems = [Permutation.parse(s, 4) for s in tables.TRANSPOSITIONS_4]
    # squaring transpositions gives the identity action
    assert conjugation(elems, exponent=2) == trivial(6)
    assert conjugation(elems, exponent=-1) == conjugation(elems)  # involutions
    # only the exponent modulo each element's order matters, so a huge one returns at once
    for k in (10**18, -(10**18)):
        assert make(f"conj:3:(1 2 3);(1 3 2):{k}") == make(f"conj:3:(1 2 3);(1 3 2):{k % 3}")


def test_conjugation_errors():
    a, b = Permutation.parse("(1 2)", 3), Permutation.parse("(1 3)", 3)
    with pytest.raises(ValueError, match="not closed"):
        conjugation([a, b])
    with pytest.raises(ValueError, match="duplicate"):
        conjugation([a, a])
    with pytest.raises(ValueError, match="empty"):
        conjugation([])


def test_conjugation_class_closure():
    gens = [Permutation.parse("(1 2)", 4), Permutation.parse("(1 2 3 4)", 4)]
    built = conjugation_class(gens, Permutation.parse("(1 2)", 4))
    assert built.n == 6
    assert are_isomorphic(built, QuandleMatrix(tables.TRANSPOSITION_6)) is not None
    # conjugating by S_4's two generators alone reaches every h^-1 x h, h in S_4
    for text, size in (("(1 2)", 6), ("(1 2 3)", 8)):
        x = Permutation.parse(text, 4)
        brute = {h.inverse().compose(x.compose(h)) for h in all_permutations(4)}
        assert len(brute) == size
        assert conjugation_class(gens, x) == conjugation(sorted(brute))


def test_families_land_on_their_classified_records(fastest_kernel, report_for):
    # every Alexander quandle of at most 7 elements, and the conjugation quandle
    # of every conjugacy class of S3, S4 or S5 with at most 7 elements: each
    # table's canonical form is a classified representative whose record has
    # the table's own |Aut|, np and flags.  Orders <= 6 on the pure kernel
    built = [alexander(modulus, coeffs) for modulus, coeffs in alexander_presentations(7)]
    for k in (3, 4, 5):
        cycle = "(" + " ".join(map(str, range(1, k + 1))) + ")"
        gens = [Permutation.parse("(1 2)", k), Permutation.parse(cycle, k)]
        seen: set = set()
        for x in all_permutations(k):
            if x not in seen:
                cls = {h.inverse().compose(x.compose(h)) for h in all_permutations(k)}
                seen |= cls
                if len(cls) <= 7:
                    built.append(conjugation_class(gens, x))
    assert (len(built), max(m.n for m in built)) == (27, 7)  # 19 Alexander, 8 conjugation
    top = 7 if fastest_kernel == "c" else 6
    for m in built:
        if m.n <= top:
            by_rep = {rec.representative: rec for rec in report_for(m.n).classes}
            rec = by_rep[canonical_form(m)]
            assert (rec.aut_order, rec.np) == (automorphism_group(m).order, np_count(m))
            assert (rec.latin, rec.connected) == (m.is_latin(), m.is_connected())


def test_make_syntax():
    assert make("trivial:3") == trivial(3)
    assert make("dihedral:5") == dihedral(5)
    assert make("alexander:2:1,1,1") == alexander(2, [1, 1, 1])
    assert make("conj:4:(1 2);(1 3);(1 4);(2 3);(2 4);(3 4)") == QuandleMatrix(tables.TRANSPOSITION_6)
    assert make("conj:4:(1 2);(1 3);(1 4);(2 3);(2 4);(3 4):2") == trivial(6)


@pytest.mark.parametrize(
    "bad",
    ["", "nope:3", "trivial", "trivial:x", "dihedral:0", "alexander:3", "conj:3:(1 2)(2 3)"],
)
def test_make_rejects(bad):
    with pytest.raises(ValueError):
        make(bad)


def test_every_constructor_output_verifies():
    outputs = [
        trivial(6),
        dihedral(6),
        alexander(3, [1, 1]),
        alexander(2, [1, 0, 1]),
        alexander(3, [2, 0, 1]),
        conjugation([Permutation.parse(s, 4) for s in tables.TRANSPOSITIONS_4]),
    ]
    for m in outputs:
        assert m.verify().valid
        assert m.is_standard()
