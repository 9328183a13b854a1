import functools
import itertools
import random
from collections import Counter

import pytest

from quandles import (
    QuandleMatrix,
    are_isomorphic,
    automorphism_group,
    canonical_form,
    determinant,
    dihedral,
    enumerate_classes,
    identify_group,
    np_count,
    permute,
    trivial,
)
from quandles import _kernel
from quandles.permutation import PermGroup, Permutation, all_permutations, orbit_partition
from quandles.symmetry import _LABELS, _fingerprint

import tables
from reference import least_witness, named_groups, np_count_explicit

# the n! oracle, remembered so that each backend's run of a test asks it once per pair
_least_witness = functools.cache(least_witness)


@pytest.fixture(params=["python", "c"])
def each_backend(request, monkeypatch):
    """Each backend in turn, active for the test."""
    if request.param == "c":
        request.getfixturevalue("compiled")
    else:
        monkeypatch.setattr(_kernel, "_speedups", None)
    return request.param


def test_permute_worked_example():
    m = QuandleMatrix(tables.RELABEL_IN)
    rho = Permutation.parse(tables.RELABEL_RHO, 4)
    assert permute(m, rho) == QuandleMatrix(tables.RELABEL_OUT)


def test_permute_identity_and_trivial():
    m = dihedral(4)
    assert permute(m, Permutation.identity(4)) == m
    t = trivial(5)
    for images in itertools.permutations(range(1, 6)):
        assert permute(t, Permutation(images)) == t


def test_permute_composition_law():
    rng = random.Random(7)
    m = QuandleMatrix(tables.DET_A)
    perms = list(all_permutations(5))
    for _ in range(25):
        sigma, tau = rng.choice(perms), rng.choice(perms)
        assert permute(permute(m, sigma), tau) == permute(m, tau.compose(sigma))


def test_permute_preserves_validity():
    m = QuandleMatrix(tables.TRANSPOSITION_6)
    rho = Permutation.parse("(1 3 5)(2 6)", 6)
    out = permute(m, rho)
    assert out.verify().valid
    assert out.is_standard()


def test_permute_degree_mismatch():
    with pytest.raises(ValueError):
        permute(trivial(3), Permutation.identity(4))


def test_isomorphic_determinant_pair():
    a = QuandleMatrix(tables.DET_A)
    b = QuandleMatrix(tables.DET_B)
    w = are_isomorphic(a, b)
    assert w is not None
    assert permute(a, w) == b
    # deterministic tie-break: least image array
    assert str(w) == tables.DET_WITNESS_LEAST
    # the classical witness maps b onto a
    rho = Permutation.parse(tables.DET_WITNESS_B_TO_A, 5)
    assert permute(b, rho) == a


def test_isomorphic_self_gives_identity():
    m = dihedral(5)
    assert are_isomorphic(m, m) == Permutation.identity(5)


def test_non_isomorphic():
    assert are_isomorphic(trivial(3), dihedral(3)) is None
    assert are_isomorphic(trivial(3), trivial(4)) is None


def test_isomorphism_is_class_function():
    # all three order-3 representatives are pairwise non-isomorphic
    reps = [QuandleMatrix(rows) for rows, _ in tables.ORDER3]
    for x, y in itertools.combinations(reps, 2):
        assert are_isomorphic(x, y) is None


def test_automorphism_groups():
    assert automorphism_group(trivial(4)).order == 24
    assert automorphism_group(QuandleMatrix([[1, 1, 1], [3, 2, 2], [2, 3, 3]])).order == 2
    a4 = automorphism_group(QuandleMatrix(tables.ORDER4[6][0]))
    assert a4.order == 12
    assert identify_group(a4).label == "A4"
    assert identify_group(a4).order_histogram == ((1, 1), (2, 3), (3, 8))


def test_automorphisms_fix_the_table():
    m = QuandleMatrix(tables.ORDER5[17][0])
    aut = automorphism_group(m)
    assert aut.order == 20
    assert identify_group(aut).label == "D20"
    for g in aut:
        assert permute(m, g) == m


def test_np_counts():
    assert np_count(trivial(3)) == 1
    assert np_count(dihedral(3)) == 1
    assert np_count(QuandleMatrix([[1, 1, 1], [3, 2, 2], [2, 3, 3]])) == 3


def test_np_explicit_matches_orbit_stabilizer():
    for rows, _ in tables.ORDER3 + tables.ORDER4:
        m = QuandleMatrix(rows)
        assert np_count_explicit(m) == np_count(m)


def test_canonical_form():
    assert canonical_form(trivial(4)) == trivial(4)
    a, b = QuandleMatrix(tables.DET_A), QuandleMatrix(tables.DET_B)
    assert canonical_form(a) == canonical_form(b)
    r_in, r_out = QuandleMatrix(tables.RELABEL_IN), QuandleMatrix(tables.RELABEL_OUT)
    assert canonical_form(r_in) == canonical_form(r_out)
    assert canonical_form(r_in) != canonical_form(trivial(4))
    # the canonical form is itself a class member
    assert are_isomorphic(canonical_form(a), a) is not None


def test_canonical_form_agrees_with_isomorphism(report_for):
    # witness exists iff canonical forms coincide, over every pair of
    # enumerated representatives at each order up to 5
    for n in range(1, 6):
        reps = [rec.representative for rec in report_for(n).classes]
        for x, y in itertools.combinations(reps, 2):
            assert are_isomorphic(x, y) is None
            assert canonical_form(x) != canonical_form(y)
        for x in reps:
            assert canonical_form(x) == x
            assert are_isomorphic(x, x) is not None


def test_isomorphism_witness_is_the_least(each_backend, report_for):
    # seeded relabellings of every class of order <= 6, paired with a relabelling
    # of the same class and of a random class: the witness is the least one
    # found by trying every relabelling, and None across classes
    rng = random.Random(11)
    for n in range(1, 7):
        perms = list(all_permutations(n))
        reps = [rec.representative for rec in report_for(n).classes]
        for rep in reps:
            a = permute(rep, rng.choice(perms))
            for partner in (rep, rng.choice(reps)):
                b = permute(partner, rng.choice(perms))
                witness = are_isomorphic(a, b)
                assert witness == _least_witness(a, b)
                assert (witness is None) == (partner is not rep)


def test_isomorphism_witness_on_every_pair_of_small_tables(each_backend, matrices_for):
    # every ordered pair of standard-form tables of orders 1..4, 1,296 pairs at order 4
    for n in range(1, 5):
        for a, b in itertools.product(matrices_for(n), repeat=2):
            assert are_isomorphic(a, b) == _least_witness(a, b)


def test_isomorphism_witness_on_random_tables(each_backend):
    # tables that are not quandles: the search may assume nothing of them.
    # Each is paired with a relabelling of itself and with that relabelling
    # changed in one entry, which is isomorphic to it or not
    rng = random.Random(29)
    for _ in range(2000):
        n = rng.randint(1, 5)
        a = QuandleMatrix.from_flat(bytes(rng.choices(range(1, n + 1), k=n * n)), n)
        b = permute(a, Permutation(rng.sample(range(1, n + 1), n)))
        changed = bytearray(b.flat())
        changed[rng.randrange(n * n)] = rng.randint(1, n)
        for partner in (b, QuandleMatrix.from_flat(bytes(changed), n)):
            assert are_isomorphic(a, partner) == _least_witness(a, partner)


@pytest.mark.parametrize("n", [7, 8])
def test_isomorphism_past_order6_is_the_least_of_the_coset(n, compiled, report_for):
    # each class relabelled twice, and relabelled against the next class: a
    # relabels to b exactly by rho_b∘Aut∘rho_a^-1, so the witness is the least
    # of that coset, and None across classes.  The pure search agrees at order 7
    rng = random.Random(n)
    reps = [rec.representative for rec in report_for(n).classes]
    assert len(reps) == {7: 298, 8: 1581}[n]
    for rep, neighbour in zip(reps, reps[1:] + reps[:1]):
        rho_a, rho_b = (Permutation(rng.sample(range(1, n + 1), n)) for _ in range(2))
        a, b, c = permute(rep, rho_a), permute(rep, rho_b), permute(neighbour, rho_b)
        to_a = rho_a.inverse()
        least = min((rho_b.compose(g).compose(to_a) for g in automorphism_group(rep)), key=lambda w: w.images)
        assert are_isomorphic(a, b) == least
        assert are_isomorphic(a, c) is None
        if n == 7:
            assert _kernel._isomorphism_pure(a.flat(), b.flat(), n) == bytes(least.images)
            assert _kernel._isomorphism_pure(a.flat(), c.flat(), n) is None


def test_isomorphism_backends_agree_at_order10(compiled):
    # order-10 quandles under seeded relabellings, and random tables that are
    # not quandles, with one entry changed or not: the same answer from both
    # searches, and a witness relabels a onto b
    rng = random.Random(10)
    tables10 = [trivial(10), dihedral(10), QuandleMatrix(tables.ORDER10_AUT8)]
    tables10 += [QuandleMatrix.from_flat(bytes(rng.choices(range(1, 11), k=100)), 10) for _ in range(20)]
    for a in tables10:
        b = permute(a, Permutation(rng.sample(range(1, 11), 10))).flat()
        changed = bytearray(b)
        changed[rng.randrange(100)] = rng.randint(1, 10)
        for partner in (b, bytes(changed)):
            witness = compiled.isomorphism(a.flat(), partner, 10)
            assert witness == _kernel._isomorphism_pure(a.flat(), partner, 10)
            assert witness is not None or partner is not b
            assert witness is None or permute(a, Permutation(tuple(witness))).flat() == partner


def test_identify_small_groups():
    assert identify_group(PermGroup.generate([Permutation.parse("(2 3)", 3)])).label == "Z2"
    assert identify_group(PermGroup.generate([], degree=1)).label == "Z1"
    assert identify_group(PermGroup.generate([Permutation.parse("(1 2 3 4 5 6)", 6)])).label == "Z3xZ2"
    unknown = identify_group(PermGroup.generate([Permutation.parse("(1 2 3 4 5 6 7)", 7)]))
    assert unknown.label == "unidentified"
    assert unknown.order == 7


def test_fingerprint_abelian_flag_matches_group(report_for):
    for rec in report_for(5).classes:
        aut = automorphism_group(rec.representative)
        assert rec.aut_id.abelian == aut.is_abelian()
        assert rec.aut_id.center_order == aut.center_order()
    s3 = PermGroup.generate([Permutation.parse("(1 2)", 3), Permutation.parse("(1 2 3)", 3)])
    s3 = identify_group(s3)
    assert (s3.label, s3.abelian, s3.center_order) == ("S3", False, 1)


def _assert_invariants_by_brute_force(g: PermGroup):
    elems = g.elements()
    assert all(Permutation(p.images) == p for p in elems)
    center = [z for z in elems if all(z.compose(h) == h.compose(z) for h in elems)]
    assert g.center_order() == len(center)
    assert g.is_abelian() == (len(center) == len(elems))
    assert dict(g.element_order_histogram()) == Counter(p.order() for p in elems)
    assert PermGroup.generate(g.generators(), g.degree).elements() == elems
    assert g.orbits() == orbit_partition(g.degree, (p.images for p in elems))


@pytest.mark.parametrize("backend", ["python", "c"])
def test_group_invariants_match_brute_force(backend, report_for, request, monkeypatch):
    # every Aut group of orders <= 6 (73 of them at order 6), built from each
    # backend's stabilizer, then the named groups and S_1..S_6; each
    # backend's group_invariants agrees with the pure one, in any element order
    if backend == "c":
        request.getfixturevalue("compiled")
    else:
        monkeypatch.setattr(_kernel, "_speedups", None)
    assert len(report_for(6).classes) == 73
    groups = []
    for n in range(1, 7):
        for rec in report_for(n).classes:
            aut = PermGroup._of_words(n, _kernel.orbit(rec.representative.flat(), n)[1])
            assert aut.order == rec.aut_order
            groups.append(aut)
    groups += [group for _, group in named_groups()]
    groups += [PermGroup(n, all_permutations(n)) for n in range(1, 7)]
    for g in groups:
        _assert_invariants_by_brute_force(g)
        words = [bytes(p.images) for p in g]
        for order in (words, words[::-1]):
            assert _kernel.group_invariants(order, g.degree) == _kernel._group_invariants_pure(order, g.degree)


@pytest.mark.parametrize("n", range(1, 8))
def test_group_labels_agree_across_backends(n, compiled, report_for, monkeypatch):
    # GroupId and the generator and orbit data of every class's Aut, from the
    # compiled stabilizers; order 7 takes seconds on the pure walk, so
    # the stabilizers come from the compiled one and only the invariants switch
    for rec in (report_for(n) if n < 7 else enumerate_classes(7)).classes:
        stabilizer = _kernel.orbit(rec.representative.flat(), n)[1]
        seen = []
        for speedups in (None, compiled):  # the compiled kernel last, for the next walk
            monkeypatch.setattr(_kernel, "_speedups", speedups)
            aut = PermGroup._of_words(n, stabilizer)
            seen.append((identify_group(aut), aut.order, aut.generators(), aut.orbits()))
        assert seen[0] == seen[1]
        assert seen[0][0] == rec.aut_id


def test_label_table_fingerprints_are_distinct():
    # the literal label table is exactly the fingerprints of the named groups,
    # generated from their permutations, and no two of them collide
    rebuilt: dict = {}
    for label, group in named_groups():
        fp = _fingerprint(group)
        assert fp not in rebuilt, f"fingerprint collision: {label} vs {rebuilt[fp]}"
        rebuilt[fp] = label
        assert identify_group(group).label == label
    assert rebuilt == _LABELS
    assert len(rebuilt) == 14
    assert set(rebuilt.values()) == {
        "Z1", "Z2", "Z3", "Z4", "Z5", "Z2xZ2", "Z3xZ2", "S3", "D8", "A4",
        "S3xZ2", "D20", "S4", "S5",
    }


def test_determinants():
    assert determinant(QuandleMatrix(tables.DET_A)) == tables.DET_A_VALUE
    assert determinant(QuandleMatrix(tables.DET_B)) == tables.DET_B_VALUE
    assert determinant(trivial(1)) == 1


def _det_leibniz(m: QuandleMatrix) -> int:
    total = 0
    for p in itertools.permutations(range(m.n)):
        sign = 1
        seen = [False] * m.n
        for i in range(m.n):
            if not seen[i]:
                length, j = 0, i
                while not seen[j]:
                    seen[j] = True
                    j = p[j]
                    length += 1
                if length % 2 == 0:
                    sign = -sign
        product = 1
        for i in range(m.n):
            product *= m.rows[i][p[i]]
        total += sign * product
    return total


def test_determinant_against_cofactor_oracle():
    cases = [
        QuandleMatrix(tables.DET_A),
        QuandleMatrix(tables.DET_B),
        dihedral(4),
        dihedral(5),
        trivial(3),
        QuandleMatrix(tables.TRANSPOSITION_6),
    ]
    for m in cases:
        assert determinant(m) == _det_leibniz(m)


def test_determinant_not_invariant_under_relabelling():
    a, b = QuandleMatrix(tables.DET_A), QuandleMatrix(tables.DET_B)
    assert are_isomorphic(a, b) is not None
    assert determinant(a) != determinant(b)
