"""Scheme models and ideal sheaves: arithmetic, restriction, gluing."""

import copy
import pickle

import pytest
from hypothesis import given, strategies as st

from qfilt.errors import GluingError, QfiltError, RingMismatchError
from qfilt.fields import PrimeField, SymbolicAlgClosed
from qfilt.filters import glue_filters, improper_filter, trivial_filter
from qfilt.ideals import QuotientRing
from qfilt.literals import point_from_literal, point_to_literal_on
from qfilt.poly import factored_from_str, poly_from_str
from qfilt.schemes import (
    AffineLine,
    AffineQuotient,
    DisjointUnion,
    ProjLine,
    Scheme,
    closed_subscheme,
    glue_ideals,
    restrict_sheaf,
    sheaf,
    sheaf_contains,
    sheaf_from_poly,
    sheaf_intersect,
    sheaf_is_idempotent,
    sheaf_product,
    sheaf_sum,
    subscheme_support,
    unit_sheaf,
    zero_sheaf,
)
from qfilt.spectrum import (
    ComponentSet,
    all_set,
    closed_point,
    component_set,
    finite_closed,
    generic_point,
    inf_point,
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


class TestSheafConstruction:
    def test_orders_normalized(self):
        s = sheaf(A1, {A: 2, B: 0})
        assert s.orders == ((A, 2),)

    def test_unit_and_zero(self):
        assert sheaf(A1, {}) == unit_sheaf(A1)
        assert zero_sheaf(A1).killed == ComponentSet.of([0])
        cases = [(unit_sheaf(A1), True, False), (sheaf(A1, {A: 1}), False, False),
                 (zero_sheaf(A1), False, True), (sheaf(Q, {QPT("x"): 1}), False, False),
                 (zero_sheaf(Q), False, True), (unit_sheaf(UZ), True, False),
                 (zero_sheaf(UZ), False, True),
                 (sheaf(UZ, {}, ComponentSet.cofinite([0])), False, False),
                 (sheaf(U3, {}, [0, 1, 2]), False, True), (sheaf(U3, {}, [0, 2]), False, False)]
        for s, unit, zero in cases:
            assert (s == unit_sheaf(s.scheme), s == zero_sheaf(s.scheme)) == (unit, zero), s

    def test_quotient_cap_folds_into_killed(self):
        x1 = QPT("x+1")
        s = sheaf(Q, {QPT("x"): 1, x1: 1})
        assert s.killed == ComponentSet.of([0])
        assert s.orders == ((x1, 1),)
        assert sheaf(Q, {QPT("x"): 1, x1: 2}) == zero_sheaf(Q)

    def test_excess_order_folds_into_killed(self):
        assert sheaf(Q, {QPT("x"): 2}) == sheaf(Q, {QPT("x"): 1})
        with pytest.raises(QfiltError):
            sheaf(Q, {QPT("x"): -1})

    def test_rejects_off_scheme_point(self):
        with pytest.raises(QfiltError):
            sheaf(A1, {inf_point(): 1})

    def test_from_affine_ideal(self):
        s = sheaf_from_poly(A1, factored_from_str("(x-a)^2*(x-b)"))
        assert s == sheaf(A1, {A: 2, B: 1})
        assert sheaf_from_poly(A1, factored_from_str("1")) == unit_sheaf(A1)

    @pytest.mark.parametrize("scheme", [P1, P1.chart(1).scheme, U3, UZ], ids=str)
    def test_from_poly_needs_affine_scheme(self, scheme):
        with pytest.raises(QfiltError, match="does not take affine-ideal input"):
            sheaf_from_poly(scheme, factored_from_str("(x-a)"))

    @pytest.mark.parametrize("scheme,gen", [
        (A1, poly_from_str("x", 2)),
        (AffineLine(PrimeField(2)), factored_from_str("(x-a)")),
        (AffineLine(PrimeField(2)), poly_from_str("x", 3)),
        (Q, poly_from_str("x", 3)),
        (Q, factored_from_str("(x-a)")),
    ], ids=str)
    def test_from_poly_rejects_foreign_generator(self, scheme, gen):
        with pytest.raises(RingMismatchError, match="generator is over a different field"):
            sheaf_from_poly(scheme, gen)


class TestSheafArithmetic:
    def test_product_adds_orders(self):
        assert sheaf_product(sheaf(A1, {A: 2}), sheaf(A1, {A: 3, B: 1})) \
            == sheaf(A1, {A: 5, B: 1})

    def test_sum_takes_min(self):
        assert sheaf_sum(sheaf(A1, {A: 2}), sheaf(A1, {A: 3, B: 1})) \
            == sheaf(A1, {A: 2})

    def test_intersect_takes_max(self):
        assert sheaf_intersect(sheaf(A1, {A: 2}), sheaf(A1, {B: 1})) \
            == sheaf(A1, {A: 2, B: 1})

    def test_zero_absorbs_product(self):
        assert sheaf_product(sheaf(A1, {A: 2}), zero_sheaf(A1)) == zero_sheaf(A1)
        assert sheaf_sum(sheaf(A1, {A: 2}), zero_sheaf(A1)) == sheaf(A1, {A: 2})

    def test_contains_is_order_dominance(self):
        assert sheaf_contains(sheaf(A1, {A: 1}), sheaf(A1, {A: 2}))
        assert not sheaf_contains(sheaf(A1, {A: 2}), sheaf(A1, {A: 1}))
        assert sheaf_contains(unit_sheaf(A1), zero_sheaf(A1))

    def test_killed_components_multiply_like_zero(self):
        s = sheaf(UZ, {}, ComponentSet.of([0]))
        t = sheaf(UZ, {}, ComponentSet.of([1]))
        assert sheaf_product(s, t).killed == ComponentSet.of([0, 1])
        assert sheaf_sum(s, t) == unit_sheaf(UZ)
        assert sheaf_intersect(s, t).killed == ComponentSet.of([0, 1])

    def test_idempotents(self):
        assert sheaf_is_idempotent(unit_sheaf(UZ))
        assert sheaf_is_idempotent(sheaf(UZ, {}, ComponentSet.of([0])))
        assert sheaf_is_idempotent(sheaf(UZ, {}, ComponentSet.cofinite([2])))
        assert not sheaf_is_idempotent(sheaf(A1, {A: 1}))
        # on the quotient, killing a whole primary component is idempotent
        assert sheaf_is_idempotent(sheaf(Q, {QPT("x"): 1}))
        assert not sheaf_is_idempotent(sheaf(Q, {QPT("x+1"): 1}))

    def test_cross_scheme_rejected(self):
        with pytest.raises(RingMismatchError):
            sheaf_product(sheaf(A1, {A: 1}), unit_sheaf(P1))


class TestRestrictGlue:
    def test_proj_restrict(self):
        s = sheaf(P1, {A: 2, inf_point(): 1})
        r0 = restrict_sheaf(s, 0)
        r1 = restrict_sheaf(s, 1)
        assert r0.orders == ((A, 2),)
        assert any(pt == inf_point() for pt, _ in r1.orders)
        glued = glue_ideals(P1, {0: r0, 1: r1})
        assert glued == s

    def test_union_restrict_glue(self):
        s = sheaf(U3, {}, ComponentSet.of([1]))
        charts = {c: restrict_sheaf(s, c) for c in range(3)}
        assert glue_ideals(U3, charts) == s

    def test_negative_component_rejected(self):
        # no component count bounds the symbolic union from above, so only
        # the sign tells that -1 is no component
        for scheme in (UZ, U3):
            assert not scheme.has_component(-1)
            with pytest.raises(QfiltError, match="no chart -1"):
                scheme.chart(-1)
            with pytest.raises(QfiltError, match="no component -1"):
                sheaf(scheme, {}, [-1])
        assert UZ.has_component(0) and UZ.chart(5).components == (5,)

    def test_union_glue_rest(self):
        chart0 = sheaf(UZ.chart(0).scheme, {}, ComponentSet.of([0]))
        zero_rest = glue_ideals(UZ, {0: chart0}, rest="zero")
        assert zero_rest == sheaf(UZ, {}, ComponentSet.cofinite([]))
        unit_rest = glue_ideals(UZ, {0: chart0}, rest="unit")
        assert unit_rest == sheaf(UZ, {}, ComponentSet.of([0]))

    def test_one_chart_restrict_glue(self):
        c1 = P1.chart(1).scheme
        for s in (sheaf(A1, {A: 2, B: 1}), sheaf(Q, {QPT("x+1"): 1}, [0]),
                  sheaf(c1, {A: 1, inf_point(): 2})):
            r = restrict_sheaf(s, 0)
            assert r == s
            assert glue_ideals(s.scheme, {0: r}) == s
        with pytest.raises(GluingError):
            glue_ideals(A1, {})

    def test_glue_conflict(self):
        with pytest.raises(GluingError):
            glue_ideals(P1, {0: sheaf(P1.chart(0).scheme, {A: 1, B: 1}),
                             1: sheaf(P1.chart(1).scheme, {A: 2})})


# (glue, chart data killed everywhere, chart data killed nowhere, the
# message of charts that disagree on being killed) for filters and sheaves
GLUERS = {
    "filters": (glue_filters, improper_filter, trivial_filter,
                "incompatible charts: improper on one chart only"),
    "ideals": (glue_ideals, zero_sheaf, unit_sheaf,
               "overlap mismatch: one chart is the zero sheaf and the other is not"),
}


@pytest.mark.parametrize("kind", sorted(GLUERS))
class TestGluingErrors:
    def test_rest_outside_its_choices(self, kind):
        glue, _, nowhere, _ = GLUERS[kind]
        with pytest.raises(GluingError, match="^rest must be .* not 'everything'$"):
            glue(UZ, {0: nowhere(UZ.chart(0).scheme)}, rest="everything")

    def test_proj_line_needs_chart_one(self, kind):
        glue, _, nowhere, _ = GLUERS[kind]
        with pytest.raises(GluingError, match="^the projective line needs chart data for "
                                              "charts 0 and 1$"):
            glue(P1, {0: nowhere(P1.chart(0).scheme)})

    def test_union_chart_names_no_component(self, kind):
        # U3 has components 0, 1 and 2
        glue, _, nowhere, _ = GLUERS[kind]
        with pytest.raises(GluingError, match="^no component 3 on "):
            glue(U3, {0: nowhere(U3.chart(0).scheme), 3: nowhere(U3.chart(0).scheme)})

    def test_proj_charts_killed_on_one_chart_only(self, kind):
        glue, everywhere, nowhere, message = GLUERS[kind]
        with pytest.raises(GluingError, match=f"^{message}$"):
            glue(P1, {0: everywhere(P1.chart(0).scheme), 1: nowhere(P1.chart(1).scheme)})
        with pytest.raises(GluingError, match=f"^{message}$"):
            glue(P1, {0: nowhere(P1.chart(0).scheme), 1: everywhere(P1.chart(1).scheme)})


class TestClosedSubscheme:
    def test_support(self):
        sub = closed_subscheme(sheaf(A1, {A: 2}))
        assert sub.support == finite_closed(A1, [A])
        assert subscheme_support(unit_sheaf(A1)) == finite_closed(A1, [])
        assert subscheme_support(zero_sheaf(A1)) == all_set(A1)
        assert subscheme_support(sheaf(UZ, {}, ComponentSet.of([0]))) \
            == component_set(UZ, ComponentSet.of([0]))


class TestMemo:
    def test_memo_is_outside_equality_and_copies(self):
        s = DisjointUnion.symbolic()
        improper_filter(s), trivial_filter(s), s.chart(7)
        assert set(s.memo) == {"improper", "trivial", 7}
        point_from_literal(s, "comp:2"), point_to_literal_on(s, generic_point(3))
        assert s.memo["points"] == {"comp:2": generic_point(2)}
        fresh = DisjointUnion.symbolic()
        assert fresh.memo == {}
        assert s == fresh and hash(s) == hash(fresh) and repr(s) == repr(fresh)
        for twin in (pickle.loads(pickle.dumps(s)), copy.deepcopy(s)):
            assert twin == s and twin.memo == {}

    def test_symbolic_union_builds_each_chart_once(self):
        assert UZ.chart(5) is UZ.chart(5)
        assert UZ.chart(5) != UZ.chart(6)
        assert UZ.chart(5).scheme is UZ.chart(6).scheme


@pytest.mark.parametrize("call,message", [
    (lambda: Scheme("foo"), "^unknown scheme kind 'foo'$"),
    (lambda: UZ.charts(), "^the symbolic union has no finite chart list$"),
], ids=["unknown_kind", "symbolic_union_charts"])
def test_refusals(call, message):
    with pytest.raises(QfiltError, match=message):
        call()


# patterns as the engine builds them: through of, cofinite, none and all
PATTERNS = st.one_of(
    st.builds(ComponentSet.of, st.frozensets(st.integers(0, 5), max_size=4)),
    st.builds(ComponentSet.cofinite, st.frozensets(st.integers(0, 5), max_size=4)),
    st.sampled_from([ComponentSet.none(), ComponentSet.all()]),
)
CHARTS = [scheme.chart(c) for scheme in (UZ, U3, P1, Q) for c in range(6)
          if scheme.component_count is None or c < len(scheme.chart_table)]


@given(PATTERNS, PATTERNS, st.sampled_from([None, 1, 3, 6]))
def test_every_empty_pattern_is_the_one_none(a, b, count):
    results = [a.union(b), a.intersect(b), a.invert(), a.normalize(count)]
    results += [chart.killed(a) for chart in CHARTS]
    for cs in results:
        assert cs.complement or cs.members or cs is ComponentSet.none()
