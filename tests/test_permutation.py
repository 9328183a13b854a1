import os
import pathlib
import pickle
import subprocess
import sys

import pytest

from quandles import (
    PermGroup,
    Permutation,
    all_permutations,
    automorphism_group,
    dihedral,
    identify_group,
    trivial,
)
from quandles import _kernel
from quandles.permutation import orbit_partition

from reference import named_groups, orbits_by_warshall


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
    assert Permutation.parse("(2 4)", 5).cycle_type() == (2, 1, 1, 1)


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
        PermGroup(3, [Permutation.identity(3), Permutation.parse("(1 2 3)", 3)])
    g = PermGroup(
        3, [Permutation.identity(3), Permutation.parse("(1 2 3)", 3), Permutation.parse("(1 3 2)", 3)]
    )
    assert g.order == 3


def test_group_equality_is_by_degree_and_elements():
    assert automorphism_group(dihedral(3)) == automorphism_group(dihedral(3))
    s3 = PermGroup.generate([Permutation.parse("(1 2)", 3), Permutation.parse("(1 2 3)", 3)])
    assert s3 == PermGroup(3, s3.elements()) == automorphism_group(dihedral(3))
    assert len({s3, PermGroup(3, s3.elements())}) == 1
    # the same elements at another degree, or a subgroup, is another group
    assert PermGroup.generate([], degree=3) != PermGroup.generate([], degree=4)
    assert PermGroup.generate([Permutation.parse("(1 2)", 3)]) != s3
    assert s3 != s3.elements()
    # D8 inside S4 from a walk's stabilizer, by generation, by the checked
    # constructor and through pickle: one group, equal and hashing alike
    walked = PermGroup._of_words(4, _kernel.orbit(dihedral(4).flat(), 4)[2])
    d8 = [
        walked,
        PermGroup.generate([Permutation.parse("(1 2 3 4)", 4), Permutation.parse("(1 3)", 4)]),
        PermGroup(4, reversed(walked.elements())),
        pickle.loads(pickle.dumps(walked)),
    ]
    assert all(g == walked for g in d8) and len({hash(g) for g in d8}) == 1
    assert identify_group(walked).label == "D8"
    elements = walked.elements()
    assert len(elements) == 8 and all(a < b for a, b in zip(elements, elements[1:]))
    # membership is a binary search over the ascending elements; a subgroup
    # whose greatest element is not S4's has members of S4 searched past it
    z2 = PermGroup.generate([Permutation.parse("(1 2)", 4)])
    for g in (walked, z2):
        assert [p for p in all_permutations(4) if p in g] == list(g.elements())
    for stranger in (Permutation.identity(3), Permutation.identity(5), b"\x01\x02\x03\x04", (1, 2, 3, 4)):
        assert stranger not in walked


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


def test_group_degree_range():
    # elements are held as one byte per point
    assert PermGroup.generate([Permutation.parse("(1 255)", 255)]).order == 2
    for make in (lambda: PermGroup(256, []), lambda: PermGroup.generate([], degree=256),
                 lambda: PermGroup.generate([Permutation.identity(256)]), lambda: PermGroup(0, [])):
        with pytest.raises(ValueError, match="degree must be in 1..255"):
            make()


def test_stabilizer_group_makes_permutations_only_on_request(monkeypatch):
    # the walk's stabilizer bytes are held as they are; labels, generators'
    # bytes and orbits need no Permutation object
    stabilizer = _kernel.orbit(trivial(4).flat(), 4)[2]
    g = PermGroup._of_words(4, stabilizer)

    def refuse(images):
        raise AssertionError("Permutation made")

    monkeypatch.setattr(Permutation, "_unchecked", staticmethod(refuse))
    assert identify_group(g).label == "S4"
    assert (g.order, g.center_order(), g.orbits()) == (24, 1, ((1, 2, 3, 4),))
    assert Permutation.parse("(1 2)", 4) in g and Permutation.parse("(1 2)", 3) not in g
    monkeypatch.undo()
    assert [p.images for p in g.elements()] == [tuple(w) for w in stabilizer]
    assert list(g) == list(g.elements()) == sorted(all_permutations(4))
    assert g.orbits() == orbit_partition(4, (p.images for p in g.generators()))


def test_group_orbits_match_warshall():
    # S_1..S_5, given as all their elements, and the 14 named groups, generated from a few
    groups = [PermGroup(n, all_permutations(n)) for n in range(1, 6)]
    groups += [group for _, group in named_groups()]
    assert len(groups) == 19
    for g in groups:
        expected = orbits_by_warshall(g.degree, (p.images for p in g.elements()))
        assert g.orbits() == expected
        assert g.is_transitive() == (len(expected) == 1)


def test_closure_check_stops_at_the_first_product_outside_the_set():
    # the strong generating set of these three spans S_255: a check that
    # generated the whole closure before comparing would never end, so the
    # child runs under a time and memory limit
    code = """
import resource
resource.setrlimit(resource.RLIMIT_AS, (1 << 28, 1 << 28))
from quandles import PermGroup, Permutation
elements = [Permutation.identity(255), Permutation.parse("(1 2)", 255),
            Permutation.from_cycles(255, [range(2, 256)])]
try:
    PermGroup(255, elements)
except ValueError as exc:
    print(exc)
"""
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src) + os.pathsep + os.environ.get("PYTHONPATH", ""))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60)
    assert out.stdout.strip() == "not closed under composition", out.stderr
