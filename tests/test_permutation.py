import pytest

from quandles import PermGroup, Permutation, all_permutations


def test_identity():
    e = Permutation.identity(4)
    assert e.images == (1, 2, 3, 4)
    assert e.is_identity()
    assert str(e) == "()"


def test_rejects_non_bijection():
    with pytest.raises(ValueError):
        Permutation([1, 1, 3])
    with pytest.raises(ValueError):
        Permutation([1, 2, 4])
    # compose, inverse and identity skip the check; the public constructors keep it
    for bad in [(2, 2), (0, 1), (1, 3), (3, 1, 1)]:
        with pytest.raises(ValueError):
            Permutation(bad)
    with pytest.raises(ValueError):
        Permutation.from_cycles(3, [(1, 4)])


def test_unchecked_results_equal_checked_construction():
    perms = list(all_permutations(4))
    for p in perms:
        assert type(p.images) is tuple and Permutation(p.images) == p
        assert Permutation(p.inverse().images) == p.inverse()
        for q in perms[::5]:
            r = p.compose(q)
            assert type(r.images) is tuple and Permutation(r.images) == r
    assert Permutation(Permutation.identity(5).images) == Permutation.identity(5)


def test_parse_cycle_convention():
    # (1 4 3 2) sends 1->4, 4->3, 3->2, 2->1
    rho = Permutation.parse("(1 4 3 2)", 4)
    assert rho.images == (4, 1, 2, 3)
    assert str(rho) == "(1 4 3 2)"


def test_parse_multiple_cycles_and_identity():
    rho = Permutation.parse("(1 5 3)(2 4)", 5)
    assert rho.images == (5, 4, 1, 2, 3)
    assert Permutation.parse("()", 3) == Permutation.identity(3)
    with pytest.raises(ValueError):
        Permutation.parse("(1 2", 3)
    with pytest.raises(ValueError):
        Permutation.parse("(1 2)(2 3)", 3)
    with pytest.raises(ValueError):
        Permutation.parse("(1 9)", 3)


def test_compose_applies_right_factor_first():
    a = Permutation.parse("(1 2)", 3)
    b = Permutation.parse("(2 3)", 3)
    # (a∘b)(2) = a(b(2)) = a(3) = 3
    assert a.compose(b)(2) == 3
    assert a.compose(b).images == (2, 3, 1)


def test_inverse_and_pow():
    rho = Permutation.parse("(1 4 3 2)", 4)
    assert rho.compose(rho.inverse()).is_identity()
    assert rho ** 4 == Permutation.identity(4)
    assert rho ** -1 == rho.inverse()
    assert rho ** 2 == rho.compose(rho)
    assert rho ** -3 == rho and rho ** 0 == Permutation.identity(4)
    # the exponent is reduced modulo the order, not applied one compose at a time
    assert rho ** (10**18) == rho ** 0 and rho ** -(10**18 + 1) == rho ** 3


def test_cycle_type_and_order():
    rho = Permutation.parse("(1 5 3)(2 4)", 5)
    assert rho.cycle_type() == (3, 2)
    assert rho.order() == 6
    assert Permutation.identity(3).cycle_type() == (1, 1, 1)


def test_all_permutations_lexicographic():
    perms = list(all_permutations(3))
    assert len(perms) == 6
    assert perms[0].is_identity()
    assert [p.images for p in perms] == sorted(p.images for p in perms)


def test_group_generate_symmetric():
    g = PermGroup.generate([Permutation.parse("(1 2)", 3), Permutation.parse("(1 2 3)", 3)])
    assert g.order == 6
    assert Permutation.parse("(1 3)", 3) in g


def test_group_closure_verification():
    with pytest.raises(ValueError):
        PermGroup.from_elements([Permutation.identity(3), Permutation.parse("(1 2 3)", 3)])
    g = PermGroup.from_elements(
        [Permutation.identity(3), Permutation.parse("(1 2 3)", 3), Permutation.parse("(1 3 2)", 3)]
    )
    assert g.order == 3


def test_group_invariants():
    s3 = PermGroup.generate([Permutation.parse("(1 2)", 3), Permutation.parse("(1 2 3)", 3)])
    assert not s3.is_abelian()
    assert s3.center_order() == 1
    assert s3.element_order_histogram() == ((1, 1), (2, 3), (3, 2))
    z4 = PermGroup.generate([Permutation.parse("(1 2 3 4)", 4)])
    assert z4.is_abelian()
    assert z4.center_order() == 4
    assert z4.element_order_histogram() == ((1, 1), (2, 1), (4, 2))


def test_group_generators_are_a_strong_generating_set():
    # per (least moved point, its image): the least element, all sorted by image tuple
    s3 = PermGroup.generate([Permutation.parse("(1 2)", 3), Permutation.parse("(1 2 3)", 3)])
    assert [g.images for g in s3.generators()] == [(1, 3, 2), (2, 1, 3), (3, 1, 2)]
    z4 = PermGroup.generate([Permutation.parse("(1 2 3 4)", 4)])
    assert [g.images for g in z4.generators()] == [(2, 3, 4, 1), (3, 4, 1, 2), (4, 1, 2, 3)]
    assert PermGroup.generate([], degree=3).generators() == ()


def test_group_orbits():
    g = PermGroup.generate([Permutation.parse("(1 2)", 4), Permutation.parse("(3 4)", 4)])
    assert g.orbits() == ((1, 2), (3, 4))
    assert not g.is_transitive()
    assert PermGroup.generate([Permutation.parse("(1 2 3 4)", 4)]).is_transitive()
    trivial = PermGroup.generate([], degree=3)
    assert trivial.order == 1
    assert trivial.orbits() == ((1,), (2,), (3,))
