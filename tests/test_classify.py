"""Classification bijections: flags, supports, subschemes, clopen splittings."""

import pytest

from qfilt.classify import (
    biloc_to_clopen,
    classify,
    closed_to_subscheme,
    filter_from_modules,
    localizing_to_specclosed,
    member,
    points_to_localizing,
    specclosed_to_localizing,
)
from qfilt.config import INF
from qfilt.errors import QfiltError
from qfilt.fields import PrimeField, SymbolicAlgClosed
from qfilt.filters import improper_filter, presented, trivial_filter
from qfilt.ideals import QuotientRing
from qfilt.poly import poly_from_str
from qfilt.schemes import (
    AffineLine,
    AffineQuotient,
    DisjointUnion,
    ProjLine,
    sheaf,
    sheaf_is_idempotent,
    sheaf_product,
    sheaf_sum,
    unit_sheaf,
    zero_sheaf,
)
from qfilt.spectrum import (
    ComponentSet,
    all_set,
    closed_point,
    cofinite_closed,
    component_set,
    empty_set,
    finite_closed,
    generic_point,
    module_data,
)

A1 = AffineLine(SymbolicAlgClosed())
P1 = ProjLine(SymbolicAlgClosed())
UZ = DisjointUnion.symbolic()
U3 = DisjointUnion.explicit([PrimeField(2), PrimeField(3), PrimeField(5)])
Q = AffineQuotient(QuotientRing.make(PrimeField(2), poly_from_str("x^3+x", 2)))

A = closed_point("a")
B = closed_point("b")


def QPT(name):
    return [pt for pt, _ in Q.primes() if str(pt.name) == name][0]


class TestFlags:
    def test_trivial_is_bilocalizing(self):
        rep = classify(trivial_filter(A1))
        assert (rep.prelocalizing, rep.localizing, rep.closed, rep.bilocalizing) \
            == (True, True, True, True)

    def test_improper_is_bilocalizing(self):
        rep = classify(improper_filter(A1))
        assert rep.bilocalizing and rep.supp == all_set(A1)

    def test_finite_values_closed_not_localizing(self):
        rep = classify(presented(A1, 0, {A: 2}))
        assert rep.closed and not rep.localizing and not rep.bilocalizing

    def test_inf_values_localizing_not_closed(self):
        rep = classify(presented(A1, 0, {A: INF}))
        assert rep.localizing and not rep.closed
        assert rep.supp == finite_closed(A1, [A])

    def test_mixed_values_only_prelocalizing(self):
        rep = classify(presented(A1, INF, {A: 2}))
        assert rep.prelocalizing and not rep.localizing and not rep.closed


class TestLocalizingSupport:
    def test_four_descriptor_kinds_round_trip(self):
        cases = [
            trivial_filter(A1),
            improper_filter(A1),
            presented(A1, 0, {A: INF, B: INF}),
            presented(A1, INF, {A: 0}),
            presented(UZ, 0, killed=ComponentSet.of([0, 3])),
            presented(UZ, 0, killed=ComponentSet.cofinite([1])),
            presented(Q, 0, {QPT("x"): 1}),
        ]
        for flt in cases:
            supp = localizing_to_specclosed(flt)
            assert specclosed_to_localizing(supp) == flt

    def test_rejects_non_product_closed(self):
        with pytest.raises(QfiltError):
            localizing_to_specclosed(presented(A1, 0, {A: 2}))

    def test_rejects_raw_points(self):
        with pytest.raises(QfiltError, match="^pass a SpecClosedSet"):
            specclosed_to_localizing([A])

    def test_specclosed_to_localizing_kinds(self):
        assert specclosed_to_localizing(empty_set(A1)) == trivial_filter(A1)
        assert specclosed_to_localizing(all_set(A1)) == improper_filter(A1)
        assert specclosed_to_localizing(finite_closed(A1, [A])) \
            == presented(A1, 0, {A: INF})
        assert specclosed_to_localizing(cofinite_closed(A1, [A])) \
            == presented(A1, INF, {A: 0})

    def test_points_to_localizing(self):
        assert points_to_localizing(A1, [A, B]) \
            == presented(A1, 0, {A: INF, B: INF})
        assert points_to_localizing(UZ, [generic_point(2)]) \
            == presented(UZ, 0, killed=ComponentSet.of([2]))
        with pytest.raises(QfiltError):
            points_to_localizing(A1, [generic_point(0)])


class TestClosedSubscheme:
    def test_least_member_cuts_subscheme(self):
        sub = closed_to_subscheme(presented(A1, 0, {A: 2}))
        assert sub.ideal == sheaf(A1, {A: 2})
        assert sub.support == finite_closed(A1, [A])

    def test_rejects_non_principal(self):
        with pytest.raises(QfiltError):
            closed_to_subscheme(presented(A1, 0, {A: INF}))


class TestBilocalizing:
    def biloc_filters(self):
        yield trivial_filter(A1)
        yield improper_filter(A1)
        yield trivial_filter(Q)
        yield improper_filter(Q)
        yield presented(Q, 0, {QPT("x"): 1})
        yield presented(Q, 0, {QPT("x+1"): 2})
        yield presented(U3, 0, killed=ComponentSet.of([1]))
        yield presented(UZ, 0, killed=ComponentSet.of([0, 2]))
        yield presented(UZ, 0, killed=ComponentSet.cofinite([4]))

    def test_clopen_splitting_identities(self):
        for flt in self.biloc_filters():
            rep = classify(flt)
            assert rep.bilocalizing, flt
            clopen, complement = biloc_to_clopen(flt)
            assert clopen == rep.clopen and complement == rep.complement
            if flt.improper:
                least = zero_sheaf(flt.scheme)
            else:
                from qfilt.filters import is_principal
                least = is_principal(flt)[1]
            # the pair (least, complement) splits the structure sheaf
            assert sheaf_is_idempotent(least)
            assert sheaf_is_idempotent(complement)
            assert sheaf_product(least, complement) == zero_sheaf(flt.scheme)
            assert sheaf_sum(least, complement) == unit_sheaf(flt.scheme)

    def test_clopen_supports(self):
        clopen, _ = biloc_to_clopen(trivial_filter(A1))
        assert clopen == finite_closed(A1, [])
        clopen, _ = biloc_to_clopen(improper_filter(A1))
        assert clopen == all_set(A1)
        clopen, _ = biloc_to_clopen(presented(U3, 0, killed=ComponentSet.of([1])))
        assert clopen == component_set(U3, ComponentSet.of([1]))

    def test_rejects_non_bilocalizing(self):
        with pytest.raises(QfiltError):
            biloc_to_clopen(presented(A1, 0, {A: 2}))
        with pytest.raises(QfiltError):
            biloc_to_clopen(presented(A1, 0, {A: INF}))


class TestMember:
    def test_divisor_dominance(self):
        flt = presented(A1, 0, {A: 2})
        assert member(module_data(A1, [(A, 2)]), flt)
        assert member(module_data(A1, [(A, 1)]), flt)
        assert not member(module_data(A1, [(A, 3)]), flt)
        assert not member(module_data(A1, [(B, 1)]), flt)
        assert member(module_data(A1), flt)

    def test_free_needs_improper_on_curve(self):
        free = module_data(A1, free=True)
        assert not member(free, presented(A1, INF))
        assert member(free, improper_filter(A1))

    def test_union_free_patterns(self):
        flt = presented(UZ, 0, killed=ComponentSet.of([0, 1]))
        assert member(module_data(UZ, free=[0]), flt)
        assert not member(module_data(UZ, free=[2]), flt)
        cof = presented(UZ, 0, killed=ComponentSet.cofinite([0]))
        assert member(module_data(UZ, free=ComponentSet.cofinite([0])), cof)
        assert not member(module_data(UZ, free=ComponentSet.cofinite([1])), cof)

    def test_artinian_free_component(self):
        # a free summand over a primary component is admitted once the
        # filter reaches the cap at each of its primes
        flt = presented(Q, 0, {QPT("x"): 1})
        assert member(module_data(Q, free=[0]), flt)
        assert not member(module_data(Q, free=[1]), flt)

    def test_everything_in_improper(self):
        assert member(module_data(UZ, free=ComponentSet.cofinite([])),
                      improper_filter(UZ))


class TestFilterFromModules:
    def test_exponent_maxima(self):
        mods = [module_data(A1, [(A, 2)]), module_data(A1, [(A, 1), (B, 3)])]
        assert filter_from_modules(A1, mods) == presented(A1, 0, {A: 2, B: 3})

    def test_free_part_kills(self):
        mods = [module_data(UZ, free=[0]), module_data(UZ, free=[2])]
        assert filter_from_modules(UZ, mods) \
            == presented(UZ, 0, killed=ComponentSet.of([0, 2]))

    def test_free_curve_gives_improper(self):
        assert filter_from_modules(A1, [module_data(A1, free=True)]).improper

    def test_generated_filter_contains_inputs(self):
        mods = [module_data(Q, [(QPT("x+1"), 1)]),
                module_data(Q, free=[0])]
        flt = filter_from_modules(Q, mods)
        for m in mods:
            assert member(m, flt)

    def test_empty_family_is_trivial(self):
        assert filter_from_modules(A1, []) == trivial_filter(A1)
