"""Spectrum points, component sets, closed subsets, and module data."""

import pytest

from qfilt.errors import QfiltError
from qfilt.fields import PrimeField, SymbolicAlgClosed
from qfilt.ideals import QuotientRing
from qfilt.poly import poly_from_str
from qfilt.schemes import AffineLine, AffineQuotient, DisjointUnion, ProjLine
from qfilt.spectrum import (
    ComponentSet,
    all_set,
    closed_point,
    cofinite_closed,
    component_set,
    empty_set,
    finite_closed,
    generic_point,
    inf_point,
    is_specialization_closed,
    module_data,
    sorted_points,
    spec,
    supp_ass,
)

A1 = AffineLine(SymbolicAlgClosed())
A1F2 = AffineLine(PrimeField(2))
P1 = ProjLine(SymbolicAlgClosed())
UZ = DisjointUnion.symbolic()
Q = AffineQuotient(QuotientRing.make(PrimeField(2), poly_from_str("x^3+x", 2)))


class TestComponentSet:
    def test_finite_algebra(self):
        a = ComponentSet.of([0, 1])
        b = ComponentSet.of([1, 2])
        assert a.union(b) == ComponentSet.of([0, 1, 2])
        assert a.intersect(b) == ComponentSet.of([1])

    def test_cofinite_algebra(self):
        a = ComponentSet.cofinite([0])
        b = ComponentSet.of([0, 1])
        assert a.intersect(b) == ComponentSet.of([1])
        assert a.union(b).is_all
        assert a.invert() == ComponentSet.of([0])

    def test_double_invert(self):
        a = ComponentSet.of([3])
        assert a.invert().invert() == a

    def test_normalize_in_finite_universe(self):
        a = ComponentSet.cofinite([0])
        assert a.normalize(3) == ComponentSet.of([1, 2])
        assert a.normalize(None) == a

    def test_issubset_matches_empty_difference(self):
        # decided on the members, as the difference a ∩ ¬b being empty
        # decides it, in each of the four finite/cofinite cases
        members = [[], [0], [1], [0, 1], [0, 2], [1, 2, 3]]
        patterns = ([ComponentSet.of(m) for m in members]
                    + [ComponentSet.cofinite(m) for m in members])
        for a in patterns:
            for b in patterns:
                assert a.issubset(b) == a.intersect(b.invert()).is_none, (a, b)

    def test_contains(self):
        assert ComponentSet.cofinite([0]).contains(5)
        assert not ComponentSet.cofinite([0]).contains(0)
        assert ComponentSet.of([2]).contains(2)


class TestPoints:
    def test_sorted_points_deterministic(self):
        pts = [closed_point("b"), closed_point("a"), generic_point(0)]
        assert sorted_points(pts) == sorted_points(reversed(pts))

    def test_scheme_membership(self):
        assert A1.has_point(closed_point("a"))
        assert not A1.has_point(inf_point())
        assert P1.has_point(inf_point())
        assert UZ.has_point(generic_point(7))
        assert not UZ.has_point(closed_point("a"))
        assert A1F2.has_point(closed_point(poly_from_str("x^2+x+1", 2)))
        assert not A1F2.has_point(closed_point(poly_from_str("x^2", 2)))
        # chart 1 of P1 holds "inf" in place of the zero point
        chart_one = P1.chart(1).scheme
        assert chart_one.has_point(inf_point()) and chart_one.has_point(closed_point("a"))
        assert not chart_one.has_point(closed_point("0"))
        assert not chart_one.has_point(closed_point("a", 1))

    def test_quotient_points(self):
        names = {str(pt.name) for pt, _ in Q.primes()}
        assert names == {"x", "x+1"}
        assert Q.closed_cap(Q.primes()[1][0]) == 2
        for scheme in (Q, UZ):
            with pytest.raises(QfiltError, match="^point pt:a does not lie on "):
                scheme.closed_cap(closed_point("a"))


def _atom_leq(a, b):
    """The atom order: a <= b iff b lies in the closure of {a}."""
    return a == b or a.kind == "generic" and a.component == b.component


class TestSpecPoset:
    def test_generic_below_all(self):
        poset = spec(A1F2, degree_bound=4)
        gen = poset.generic[0]
        assert len(poset.closed) == 2 + 1 + 2 + 3
        for pt in poset.closed:
            assert _atom_leq(gen, pt)
            assert not _atom_leq(pt, gen)
        assert poset.specializations == tuple((gen, pt) for pt in poset.closed)

    def test_labels_materialize(self):
        poset = spec(A1, labels=("a", "b"))
        assert len(poset.closed) == 2
        assert poset.symbolic_closed

    def test_repeated_label_rejected(self):
        with pytest.raises(QfiltError, match="label 'a' is listed more than once"):
            spec(A1, labels=("a", "b", "a"))

    def test_proj_line_has_inf(self):
        poset = spec(P1, labels=("a",))
        assert inf_point() in poset.closed

    def test_union_components(self):
        poset = spec(DisjointUnion.explicit([PrimeField(2), PrimeField(3)]))
        assert len(poset.generic) == 2
        assert not _atom_leq(generic_point(0), generic_point(1))
        assert poset.specializations == ()


class TestSpecClosed:
    def test_specialization_closed_descriptors(self):
        for s in (empty_set(A1), all_set(A1),
                  finite_closed(A1, [closed_point("a")]),
                  cofinite_closed(A1, [closed_point("a")]),
                  component_set(UZ, ComponentSet.of([0]))):
            assert is_specialization_closed(s, s.scheme)
        x1 = [pt for pt, _ in Q.primes() if str(pt.name) == "x+1"][0]
        assert component_set(Q, ComponentSet.of([1])) == finite_closed(Q, [x1])
        assert component_set(Q, ComponentSet.cofinite([0])) == finite_closed(Q, [x1])
        assert component_set(Q, ComponentSet.none()) == empty_set(Q)
        assert component_set(A1, ComponentSet.none()) == empty_set(A1)

    def test_explicit_point_sets(self):
        assert is_specialization_closed([closed_point("a")], A1)
        assert not is_specialization_closed([generic_point(0)], A1)
        assert is_specialization_closed([generic_point(0), closed_point("a")], A1) \
            is False
        assert is_specialization_closed([generic_point(3)], UZ)
        # every point is checked before the answer, whatever the set order
        with pytest.raises(QfiltError):
            is_specialization_closed([generic_point(0), inf_point()], A1)

    def test_finite_closed_rejects_generic(self):
        with pytest.raises(QfiltError):
            finite_closed(A1, [generic_point(0)])


class TestModuleData:
    def test_divisors_sorted_and_validated(self):
        m = module_data(A1, [(closed_point("b"), 1), (closed_point("a"), 2)])
        assert [str(pt.name) for pt, _ in m.divisors] == ["a", "b"]
        with pytest.raises(QfiltError):
            module_data(A1, [(closed_point("a"), 0)])
        with pytest.raises(QfiltError):
            module_data(A1, [(generic_point(0), 1)])

    def test_quotient_cap(self):
        x1 = [pt for pt, _ in Q.primes() if str(pt.name) == "x+1"][0]
        module_data(Q, [(x1, 2)])
        with pytest.raises(QfiltError):
            module_data(Q, [(x1, 3)])

    def test_free_forms(self):
        assert module_data(A1, free=True).free == ComponentSet.of([0])
        assert module_data(UZ, free=[1, 2]).free == ComponentSet.of([1, 2])
        cof = module_data(UZ, free=ComponentSet.cofinite([0]))
        assert cof.free.contains(9)

    def test_supp_ass(self):
        a = closed_point("a")
        m = module_data(A1, [(a, 2)])
        supp, ass = supp_ass(m)
        assert supp == finite_closed(A1, [a]) and ass == frozenset([a])
        free = module_data(A1, free=True)
        supp, ass = supp_ass(free)
        assert supp == component_set(A1, ComponentSet.of([0]))
        assert generic_point(0) in ass
        # a free summand on an Artinian component is torsion at its point
        x, x1 = [pt for pt, _ in Q.primes()]
        assert supp_ass(module_data(Q, free=[0])) == (finite_closed(Q, [x]), frozenset([x]))
        assert supp_ass(module_data(Q, [(x1, 1)], free=[0])) == (all_set(Q), frozenset([x, x1]))

    def test_supp_ass_symbolic_cofinite_free_rejected(self):
        m = module_data(UZ, free=ComponentSet.cofinite([0]))
        with pytest.raises(QfiltError):
            supp_ass(m)
