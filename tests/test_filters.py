"""The filter calculus: normal forms, lattice operations, locality."""

import pickle

import pytest
from hypothesis import given, settings, strategies as st

from qfilt.config import INF
from qfilt.errors import GluingError, QfiltError, RingMismatchError, UnsupportedFamilyError
from qfilt.fields import PrimeField, SymbolicAlgClosed
from qfilt.filters import (
    ALL_POWERS,
    EVERYTHING,
    FULL_ONLY,
    LocalFilter,
    cofinite_family,
    contains,
    enumerate_quotient_filters,
    filter_base,
    generate,
    glue_filters,
    improper_filter,
    is_local,
    is_prime,
    is_principal,
    is_product_closed,
    join,
    localize,
    meet,
    presented,
    product,
    restrict,
    trivial_filter,
    up_to,
)
from qfilt.ideals import QuotientRing
from qfilt.poly import irreducibles, poly_from_str
from qfilt.schemes import (
    AffineLine,
    AffineQuotient,
    Chart,
    DisjointUnion,
    ProjLine,
    restrict_sheaf,
    sheaf,
    sheaf_contains,
    sheaf_intersect,
    sheaf_product,
    sheaf_sum,
    unit_sheaf,
    zero_sheaf,
)
from qfilt.spectrum import (
    ComponentSet,
    closed_point,
    generic_point,
    inf_point,
    merge_tables,
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


QX = None
QX1 = None


def setup_module():
    global QX, QX1
    QX = QPT("x")
    QX1 = QPT("x+1")


class TestNormalForm:
    def test_default_exceptions_dropped(self):
        f = presented(A1, 0, {A: 0, B: 2})
        assert f.exceptions == ((B, 2),)

    def test_quotient_caps_clamp(self):
        f = presented(Q, 0, {QPT("x"): 5})
        assert f.value(QPT("x")) == 1

    def test_quotient_default_folds(self):
        f = presented(Q, INF, {QPT("x+1"): 1})
        assert f.default == 0
        assert f.value(QPT("x")) == 1 and f.value(QPT("x+1")) == 1

    def test_quotient_inf_default_reaches_zero_ideal(self):
        # orders at every cap cut out the zero ideal on an Artinian ring
        assert presented(Q, INF).improper

    def test_quotient_all_caps_is_improper(self):
        assert presented(Q, 0, {QPT("x"): 1, QPT("x+1"): 2}).improper

    def test_killed_curve_is_improper(self):
        assert presented(A1, 0, killed=ComponentSet.of([0])).improper

    def test_killed_artinian_becomes_caps(self):
        f = presented(Q, 0, killed=ComponentSet.of([1]))
        assert not f.improper
        assert f.killed.is_none
        assert f.value(QPT("x+1")) == 2 and f.value(QPT("x")) == 0

    def test_union_killed_universe_is_improper(self):
        assert presented(UZ, 0, killed=ComponentSet.cofinite([])).improper
        assert presented(U3, 0, killed=ComponentSet.of([0, 1, 2])).improper
        assert not presented(U3, 0, killed=ComponentSet.of([0, 1])).improper

    def test_rejects_generic_exception(self):
        with pytest.raises(QfiltError):
            presented(A1, 0, {generic_point(0): 1})

    def test_rejects_off_scheme(self):
        with pytest.raises(QfiltError):
            presented(A1, 0, {inf_point(): 1})

    def test_structural_equality_is_filter_equality(self):
        assert presented(A1, 0, {A: 0}) == trivial_filter(A1)
        assert presented(Q, 0, {QPT("x"): 3}) == presented(Q, 0, {QPT("x"): 1})


class TestContains:
    def test_value_dominance(self):
        f = presented(A1, 0, {A: 2})
        assert contains(f, sheaf(A1, {A: 2}))
        assert contains(f, sheaf(A1, {A: 1}))
        assert contains(f, unit_sheaf(A1))
        assert not contains(f, sheaf(A1, {A: 3}))
        assert not contains(f, sheaf(A1, {B: 1}))

    def test_improper_contains_zero(self):
        assert contains(improper_filter(A1), zero_sheaf(A1))
        assert not contains(presented(A1, INF), zero_sheaf(A1))

    def test_infinite_default_contains_all_divisors(self):
        f = presented(A1, INF)
        assert contains(f, sheaf(A1, {A: 100, B: 3}))

    def test_artinian_cap_exception_admits_killed_sheaf(self):
        # the sheaf normalizes a cap order into a killed component; the
        # filter records the same cut as a cap-valued exception
        f = presented(Q, 0, {QPT("x"): 1})
        assert contains(f, sheaf(Q, {QPT("x"): 1}))

    def test_union_killed_patterns(self):
        f = presented(UZ, 0, killed=ComponentSet.of([0, 1]))
        assert contains(f, sheaf(UZ, {}, ComponentSet.of([0])))
        assert contains(f, sheaf(UZ, {}, ComponentSet.of([0, 1])))
        assert not contains(f, sheaf(UZ, {}, ComponentSet.of([2])))
        assert not contains(f, sheaf(UZ, {}, ComponentSet.cofinite([5])))
        g = presented(UZ, 0, killed=ComponentSet.cofinite([0]))
        assert contains(g, sheaf(UZ, {}, ComponentSet.cofinite([0])))
        assert contains(g, sheaf(UZ, {}, ComponentSet.of([3, 7])))
        assert not contains(g, sheaf(UZ, {}, ComponentSet.cofinite([1])))


class TestLatticeOps:
    def test_meet_is_pointwise_min(self):
        f = presented(A1, 0, {A: 2, B: 1})
        g = presented(A1, 0, {A: 1})
        assert meet(f, g) == presented(A1, 0, {A: 1})
        assert join(f, g) == presented(A1, 0, {A: 2, B: 1})

    def test_meet_with_improper(self):
        f = presented(A1, 0, {A: 2})
        assert meet(improper_filter(A1), f) == f
        assert join(improper_filter(A1), f).improper

    def test_product_adds(self):
        f = presented(A1, 0, {A: 2})
        g = presented(A1, 0, {A: 3, B: 1})
        assert product(f, g) == presented(A1, 0, {A: 5, B: 1})

    def test_product_inf_absorbs(self):
        f = presented(A1, 0, {A: INF})
        g = presented(A1, 0, {A: 3})
        assert product(f, g) == presented(A1, 0, {A: INF})

    def test_product_clamps_at_caps(self):
        f = presented(Q, 0, {QPT("x+1"): 1})
        assert product(f, f) == presented(Q, 0, {QPT("x+1"): 2})
        assert product(product(f, f), f) == presented(Q, 0, {QPT("x+1"): 2})

    def test_product_improper_absorbs(self):
        assert product(improper_filter(A1), trivial_filter(A1)).improper

    def test_union_killed_ops(self):
        f = presented(UZ, 0, killed=ComponentSet.of([0, 1]))
        g = presented(UZ, 0, killed=ComponentSet.of([1, 2]))
        assert meet(f, g) == presented(UZ, 0, killed=ComponentSet.of([1]))
        assert join(f, g) == presented(UZ, 0, killed=ComponentSet.of([0, 1, 2]))
        assert product(f, g) == join(f, g)

    @pytest.mark.parametrize("op", [meet, join, product])
    def test_cross_scheme_rejected(self, op):
        with pytest.raises(RingMismatchError, match="^scheme mismatch: "):
            op(presented(A1, 0, {A: 1}), presented(P1, 0, {A: 1}))
        with pytest.raises(RingMismatchError, match="^scheme mismatch: "):
            op(presented(Q, 0, {QPT("x"): 1}), presented(A1, 0, {A: 1}))

    @pytest.mark.parametrize("op", [meet, join, product])
    def test_equal_schemes_combine(self, op):
        # operands on equal but distinct scheme objects combine as if on one
        twin_a1 = AffineLine(SymbolicAlgClosed())
        twin_q = AffineQuotient(QuotientRing.make(PrimeField(2), poly_from_str("x^3+x", 2)))
        assert twin_a1 is not A1 and twin_q is not Q
        f, g = presented(A1, 0, {A: 2, B: 1}), presented(A1, 0, {A: 1})
        assert op(f, presented(twin_a1, 0, {A: 1})) == op(f, g)
        f, g = presented(Q, 0, {QPT("x+1"): 1}), presented(Q, 0, {QPT("x"): 1})
        assert op(f, presented(twin_q, 0, {QPT("x"): 1})) == op(f, g)


class TestLocalize:
    def test_stalk_kinds(self):
        f = presented(A1, 0, {A: 2, B: INF})
        assert localize(f, A) == up_to(2)
        assert localize(f, B) == ALL_POWERS
        assert localize(f, closed_point("c")) == up_to(0)
        assert localize(improper_filter(A1), A) == EVERYTHING
        with pytest.raises(QfiltError, match="^point pt:inf does not lie on A1"):
            localize(f, inf_point())

    def test_each_bound_is_built_once(self):
        # localize hands out the one "up_to" filter of each bound
        f = presented(A1, 0, {A: 2, B: 2})
        assert localize(f, A) is localize(f, B) is up_to(2)
        assert up_to(3) is up_to(3) and up_to(3) != up_to(2)

    def test_generic_stalk(self):
        assert localize(presented(A1, 0, {A: 2}), generic_point(0)) == FULL_ONLY
        assert localize(presented(A1, INF), generic_point(0)) == FULL_ONLY

    def test_artinian_cap_gives_everything(self):
        f = presented(Q, 0, {QPT("x+1"): 2})
        assert localize(f, QPT("x+1")) == EVERYTHING
        assert localize(presented(Q, 0, {QPT("x+1"): 1}), QPT("x+1")) == up_to(1)

    def test_union_stalks(self):
        f = presented(UZ, 0, killed=ComponentSet.of([0]))
        assert localize(f, generic_point(0)) == EVERYTHING
        assert localize(f, generic_point(1)) == FULL_ONLY


class TestRestrict:
    def test_proj_charts_partition_exceptions(self):
        f = presented(P1, 0, {A: 2, inf_point(): 1})
        r1 = restrict(f, 1)
        assert r1.value(inf_point()) == 1 and r1.value(A) == 2
        r0 = restrict(f, 0)
        assert r0.value(A) == 2

    def test_union_chart(self):
        f = presented(UZ, 0, killed=ComponentSet.of([3]))
        assert restrict(f, 3).improper
        assert restrict(f, 5) == trivial_filter(UZ.chart(5).scheme)

    def test_single_chart_identity(self):
        f = presented(A1, 0, {A: 2})
        assert restrict(f, 0) is f


class TestGlue:
    def test_proj_round_trip(self):
        f = presented(P1, INF, {A: 2, inf_point(): 1})
        glued = glue_filters(P1, {0: restrict(f, 0), 1: restrict(f, 1)})
        assert glued == f

    def test_proj_conflict_names_point(self):
        c0 = presented(P1.chart(0).scheme, 0, {A: 1})
        c1 = presented(P1.chart(1).scheme, 0, {A: 2})
        with pytest.raises(GluingError, match="pt:a"):
            glue_filters(P1, {0: c0, 1: c1})

    def test_proj_default_conflict(self):
        c0 = presented(P1.chart(0).scheme, 0)
        c1 = presented(P1.chart(1).scheme, INF)
        with pytest.raises(GluingError):
            glue_filters(P1, {0: c0, 1: c1})

    def test_union_rest_trivial(self):
        chart = improper_filter(UZ.chart(4).scheme)
        glued = glue_filters(UZ, {4: chart})
        assert glued == presented(UZ, 0, killed=ComponentSet.of([4]))

    def test_union_rest_improper(self):
        chart = trivial_filter(UZ.chart(4).scheme)
        glued = glue_filters(UZ, {4: chart}, rest="improper")
        assert glued == presented(UZ, 0, killed=ComponentSet.cofinite([4]))

    def test_union_round_trip(self):
        f = presented(U3, 0, killed=ComponentSet.of([1]))
        glued = glue_filters(U3, {c: restrict(f, c) for c in range(3)})
        assert glued == f


class TestPointLookups:
    """Lookups compare a point by identity before equality: an equal point
    that is another object, here a pickled copy, gets the same answers."""

    @pytest.mark.parametrize("name", ["F2 line", "P1", "quotient"])
    def test_equal_copy_answers_as_the_point(self, name):
        if name == "F2 line":
            scheme = AffineLine(PrimeField(2))
            on = [closed_point(poly_from_str(f, 2)) for f in ("x", "x+1", "x^2+x+1")]
            off = [closed_point(poly_from_str("x^2+1", 2))]
        elif name == "P1":
            scheme, on, off = P1, [A, closed_point("0"), inf_point()], [closed_point("a", 1)]
        else:
            scheme, on, off = Q, [QX, QX1], [closed_point(poly_from_str("x^2+x+1", 2))]
        twins = {pt: pickle.loads(pickle.dumps(pt)) for pt in on + off}
        assert all(twin == pt and twin is not pt for pt, twin in twins.items())
        flt = presented(scheme, 1, {pt: i + 2 for i, pt in enumerate(on)})
        other = presented(scheme, 0, {on[-1]: 1})
        for pt in on:
            twin = twins[pt]
            assert flt.value(twin) == flt.value(pt)
            assert scheme.closed_cap(twin) == scheme.closed_cap(pt)
        for pt, twin in twins.items():
            assert scheme.has_point(twin) == scheme.has_point(pt)
            for cid in scheme.charts():
                assert scheme.chart(cid).has(twin) == scheme.chart(cid).has(pt)
        copied = [(twins[pt], v) for pt, v in other.exceptions]
        for op in (min, max):
            assert (merge_tables(flt.exceptions, copied, op, 1, 0)
                    == merge_tables(flt.exceptions, other.exceptions, op, 1, 0))


class TestPredicates:
    def test_principal_iff_finite_values(self):
        ok, least = is_principal(presented(A1, 0, {A: 2}))
        assert ok and least == sheaf(A1, {A: 2})
        ok, least = is_principal(improper_filter(A1))
        assert ok and least == zero_sheaf(A1)
        assert not is_principal(presented(A1, 0, {A: INF}))[0]
        assert not is_principal(presented(A1, INF))[0]

    def test_union_cofinite_kill_is_principal(self):
        ok, least = is_principal(presented(UZ, 0, killed=ComponentSet.cofinite([2])))
        assert ok and least == sheaf(UZ, {}, ComponentSet.cofinite([2]))

    def test_product_closed_iff_zero_cap_inf(self):
        assert is_product_closed(trivial_filter(A1))
        assert is_product_closed(improper_filter(A1))
        assert is_product_closed(presented(A1, 0, {A: INF}))
        assert is_product_closed(presented(A1, INF, {A: 0}))
        assert not is_product_closed(presented(A1, 0, {A: 2}))
        assert not is_product_closed(presented(A1, INF, {A: 1}))
        # artinian caps count as stable values
        assert is_product_closed(presented(Q, 0, {QPT("x"): 1}))
        assert not is_product_closed(presented(Q, 0, {QPT("x+1"): 1}))

    def test_prime_patterns_curve(self):
        assert is_prime(presented(A1, INF)) == generic_point(0)
        assert is_prime(presented(A1, INF, {A: 0})) == A
        assert is_prime(presented(A1, INF, {A: 0, B: 0})) is None
        assert is_prime(trivial_filter(A1)) is None
        assert is_prime(improper_filter(A1)) is None

    def test_prime_patterns_quotient(self):
        assert is_prime(presented(Q, 0, {QPT("x+1"): 2})) == QPT("x")
        assert is_prime(presented(Q, 0, {QPT("x"): 1})) == QPT("x+1")
        assert is_prime(trivial_filter(Q)) is None

    def test_prime_patterns_union(self):
        assert is_prime(presented(UZ, 0, killed=ComponentSet.cofinite([5]))) \
            == generic_point(5)
        assert is_prime(presented(UZ, 0, killed=ComponentSet.of([5]))) is None
        assert is_prime(presented(U3, 0, killed=ComponentSet.of([0, 1]))) \
            == generic_point(2)


class TestGenerate:
    def test_generated_is_principal_on_intersection(self):
        base = filter_base(A1, [sheaf(A1, {A: 2}), sheaf(A1, {A: 1, B: 1})])
        flt = generate(base)
        assert flt == presented(A1, 0, {A: 2, B: 1})
        local, closure = is_local(base)
        assert local and closure == flt

    def test_cofinite_family_not_local(self):
        base = cofinite_family(UZ)
        local, closure = is_local(base)
        assert not local
        assert closure.improper
        assert generate(base).improper

    def test_cofinite_family_needs_symbolic_union(self):
        with pytest.raises(UnsupportedFamilyError):
            cofinite_family(A1)
        with pytest.raises(UnsupportedFamilyError):
            cofinite_family(U3)

    def test_empty_base_rejected(self):
        with pytest.raises(QfiltError):
            filter_base(A1, [])


class TestEnumeration:
    def test_quotient_filter_counts(self):
        assert len(enumerate_quotient_filters(Q)) == 6
        q3 = AffineQuotient(QuotientRing.make(PrimeField(2), poly_from_str("x^3", 2)))
        assert len(enumerate_quotient_filters(q3)) == 4
        q11 = AffineQuotient(QuotientRing.make(PrimeField(2), poly_from_str("x^2+x", 2)))
        assert len(enumerate_quotient_filters(q11)) == 4

    def test_enumeration_is_duplicate_free(self):
        flts = enumerate_quotient_filters(Q)
        assert len(set(flts)) == len(flts)


# ---------------------------------------------------------------------------
# randomized laws (the large budgeted suites live in the acceptance tests)

VALUES = st.sampled_from([0, 1, 2, 3, INF])
POINTS = st.sampled_from([closed_point(l) for l in "abcd"])


@st.composite
def line_filters(draw):
    if draw(st.booleans()) and draw(st.integers(0, 9)) == 0:
        return improper_filter(A1)
    default = draw(st.sampled_from([0, INF]))
    pts = draw(st.lists(POINTS, unique=True, max_size=3))
    return presented(A1, default, {pt: draw(VALUES) for pt in pts})


@given(line_filters(), line_filters())
@settings(max_examples=300)
def test_meet_join_commute(f, g):
    assert meet(f, g) == meet(g, f)
    assert join(f, g) == join(g, f)
    assert product(f, g) == product(g, f)


@given(line_filters(), line_filters(), line_filters())
@settings(max_examples=300)
def test_lattice_laws(f, g, h):
    assert meet(f, meet(g, h)) == meet(meet(f, g), h)
    assert join(f, join(g, h)) == join(join(f, g), h)
    assert meet(f, join(f, g)) == f
    assert join(f, meet(f, g)) == f


@given(line_filters(), line_filters())
@settings(max_examples=300)
def test_product_contains_factors(f, g):
    p = product(f, g)
    assert meet(p, f) == f
    assert meet(p, g) == g


# ---------------------------------------------------------------------------
# engine results are in normal form: the trusted constructors behind meet,
# join, product and restrict, and behind the ideal-sheaf operations, rely
# on it, over the scheme shapes of the laws benchmark

F2 = PrimeField(2)
LINE_F2 = AffineLine(F2)
# (scheme, points for exceptions, a point outside them, killed patterns, charts)
NORMAL_FORM_SHAPES = [
    (A1, [closed_point(l) for l in "abcd"], closed_point("e"), [()], (0,)),
    (LINE_F2, [closed_point(q) for q in irreducibles(2, 1) + irreducibles(2, 2)],
     closed_point(irreducibles(2, 3)[0]), [()], (0,)),
    (Q, [pt for pt, _ in Q.primes()], None, [()], (0,)),
    (P1, [closed_point(l) for l in "abc"] + [inf_point()], closed_point("d"), [()], (0, 1)),
    (UZ, [], None, [ComponentSet.of(s) for s in ([], [0], [1], [0, 1], [2, 3])]
     + [ComponentSet.cofinite(s) for s in ([], [0], [0, 1])], (0, 1, 2, 3)),
    (U3, [], None, [ComponentSet.of(s) for s in ([], [0], [1], [2], [0, 2], [0, 1, 2])],
     (0, 1, 2)),
]


def shape_filter(data, shape):
    scheme, points, _, kills, _ = shape
    if data.draw(st.integers(0, 15)) == 0:
        return improper_filter(scheme)
    pts = data.draw(st.lists(st.sampled_from(points), unique=True, max_size=3)) if points else []
    return presented(scheme, data.draw(st.sampled_from([0, 1, 2, INF])),
                     {pt: data.draw(VALUES) for pt in pts}, data.draw(st.sampled_from(kills)))


def assert_normal(r):
    """r is what the validating constructor makes of its own parts, and in
    normal form: exceptions sorted, once each, off the default and within
    the stalk length."""
    if r.improper:
        assert r == improper_filter(r.scheme)
        return
    assert presented(r.scheme, r.default, r.exceptions, r.killed) == r
    keys = [pt.sort_key() for pt, _ in r.exceptions]
    assert keys == sorted(set(keys))
    assert all(v != r.default and v <= r.scheme.closed_cap(pt)
               for pt, v in r.exceptions)


def _dead(flt, c):
    return flt.improper or flt.killed.contains(c)


@given(st.data())
@settings(max_examples=400, deadline=None)
def test_engine_results_are_normal(data):
    shape = data.draw(st.sampled_from(NORMAL_FORM_SHAPES))
    scheme, points, outside, _, charts = shape
    f, g = shape_filter(data, shape), shape_filter(data, shape)
    m, j, p = meet(f, g), join(f, g), product(f, g)
    for r in (m, j, p):
        assert_normal(r)
    # pointwise min, max and sum, capped at each stalk length
    for pt in points + ([outside] if outside else []):
        cap = scheme.closed_cap(pt)
        vf, vg = min(f.value(pt), cap), min(g.value(pt), cap)
        assert tuple(min(r.value(pt), cap) for r in (m, j, p)) == \
            (min(vf, vg), max(vf, vg), min(vf + vg, cap))
    for c in range(4 if scheme.component_count is None else scheme.component_count):
        if scheme.component_type == "field":
            assert _dead(m, c) == (_dead(f, c) and _dead(g, c))
            assert _dead(j, c) == _dead(p, c) == (_dead(f, c) or _dead(g, c))
    for c in charts:
        chart = scheme.chart(c)
        for r in (f, m, j, p):
            rc = restrict(r, c)
            assert_normal(rc)
            assert all(rc.value(pt) == r.value(pt) for pt in points if chart.has(pt))
            if scheme.component_type == "field":
                assert _dead(rc, 0) == _dead(r, chart.components[0])


def shape_sheaf(data, shape):
    scheme, points, _, kills, _ = shape
    pts = data.draw(st.lists(st.sampled_from(points), unique=True, max_size=3)) if points else []
    return sheaf(scheme, {pt: data.draw(st.integers(0, 3)) for pt in pts},
                 data.draw(st.sampled_from(kills)))


def assert_normal_sheaf(r):
    """r is what the validating constructor makes of its own parts, with
    sorted, positive orders strictly below each stalk length."""
    assert sheaf(r.scheme, r.orders, r.killed) == r
    keys = [pt.sort_key() for pt, _ in r.orders]
    assert keys == sorted(set(keys))
    assert all(0 < n < r.scheme.closed_cap(pt) for pt, n in r.orders)


@given(st.data())
@settings(max_examples=400, deadline=None)
def test_engine_sheaves_are_normal(data):
    shape = data.draw(st.sampled_from(NORMAL_FORM_SHAPES))
    charts = shape[4]
    a, b = shape_sheaf(data, shape), shape_sheaf(data, shape)
    results = [sheaf_product(a, b), sheaf_intersect(a, b), sheaf_sum(a, b)]
    for r in results:
        assert_normal_sheaf(r)
    for c in charts:
        for r in [a, *results]:
            assert_normal_sheaf(restrict_sheaf(r, c))


# ---------------------------------------------------------------------------
# the one-pass merge of exception tables against the dict formula it
# replaced: whole results, over every pair from a grid of operands per
# shape (improper ones, default INF, disjoint and overlapping exception
# sets) and over random draws


def _filter_parts(f):
    """Default, exceptions and killed pattern; the improper filter is INF
    everywhere with every component killed."""
    if f.improper:
        return INF, {}, ComponentSet.all()
    return f.default, dict(f.exceptions), f.killed


def reference_pointwise(a, b, op, kills):
    """op over the union of the exception points through dicts, brought to
    normal form by the validating constructor."""
    da, va, ka = _filter_parts(a)
    db, vb, kb = _filter_parts(b)
    exponents = {pt: op(va.get(pt, da), vb.get(pt, db)) for pt in va.keys() | vb.keys()}
    return presented(a.scheme, op(da, db), exponents, kills(ka, kb))


FILTER_OPS = [
    (meet, min, ComponentSet.intersect),
    (join, max, ComponentSet.union),
    (product, lambda x, y: x + y, ComponentSet.union),
]


def _point_tables(points, values):
    """Exception tables on none, each half (disjoint) and all of the points,
    the values cycling through `values` from each start."""
    half = len(points) // 2
    subsets = [points[:half], points[half:], points] if points else []
    return [{}] + [{pt: values[(i + k) % len(values)] for k, pt in enumerate(pts)}
                   for pts in subsets for i in range(len(values))]


def grid_filters(shape):
    scheme, points, _, kills, _ = shape
    out = [improper_filter(scheme)]
    for table in _point_tables(points, [0, 1, 2, INF]):
        for default in (0, 1, INF):
            for killed in kills:
                out.append(presented(scheme, default, table, killed))
    return out


def assert_ops_match_reference(f, g):
    for engine_op, op, kills in FILTER_OPS:
        assert engine_op(f, g) == reference_pointwise(f, g, op, kills), (engine_op.__name__, f, g)


@pytest.mark.parametrize("shape", NORMAL_FORM_SHAPES, ids=lambda s: str(s[0]))
def test_merge_matches_dict_formula_on_grid(shape):
    flts = grid_filters(shape)
    for f in flts:
        for g in flts:
            assert_ops_match_reference(f, g)


@given(st.data())
@settings(max_examples=300, deadline=None)
def test_merge_matches_dict_formula(data):
    shape = data.draw(st.sampled_from(NORMAL_FORM_SHAPES))
    assert_ops_match_reference(shape_filter(data, shape), shape_filter(data, shape))


def reference_sheaf_op(a, b, op, kills):
    """op over effective orders (order_at) at the union of the listed
    points, brought to normal form by the validating constructor; points on
    the result's killed components are dropped, as the stored form does."""
    killed = kills(a.killed, b.killed)
    pts = {pt for pt, _ in a.orders} | {pt for pt, _ in b.orders}
    orders = {pt: op(a.order_at(pt), b.order_at(pt)) for pt in pts
              if not killed.contains(pt.component)}
    return sheaf(a.scheme, orders, killed)


def reference_sheaf_contains(a, b):
    pts = {pt for pt, _ in a.orders} | {pt for pt, _ in b.orders}
    return a.killed.issubset(b.killed) and all(a.order_at(pt) <= b.order_at(pt) for pt in pts)


SHEAF_OPS = [
    (sheaf_product, lambda x, y: x + y, ComponentSet.union),
    (sheaf_intersect, max, ComponentSet.union),
    (sheaf_sum, min, ComponentSet.intersect),
]


def grid_sheaves(shape):
    scheme, points, _, kills, _ = shape
    out = [unit_sheaf(scheme), zero_sheaf(scheme)]
    for table in _point_tables(points, [1, 2, 3]):
        for killed in kills:
            out.append(sheaf(scheme, table, killed))
    return out


def assert_sheaf_ops_match_reference(a, b):
    for engine_op, op, kills in SHEAF_OPS:
        assert engine_op(a, b) == reference_sheaf_op(a, b, op, kills), (engine_op.__name__, a, b)
    assert sheaf_contains(a, b) == reference_sheaf_contains(a, b), (a, b)


@pytest.mark.parametrize("shape", NORMAL_FORM_SHAPES, ids=lambda s: str(s[0]))
def test_sheaf_merge_matches_order_at_on_grid(shape):
    sheaves = grid_sheaves(shape)
    for a in sheaves:
        for b in sheaves:
            assert_sheaf_ops_match_reference(a, b)


@given(st.data())
@settings(max_examples=300, deadline=None)
def test_sheaf_merge_matches_order_at(data):
    shape = data.draw(st.sampled_from(NORMAL_FORM_SHAPES))
    assert_sheaf_ops_match_reference(shape_sheaf(data, shape), shape_sheaf(data, shape))


# ---------------------------------------------------------------------------
# each scheme builds its improper and trivial filters once, so restriction
# to a chart of a disjoint union, whose results are always one of the two,
# builds nothing

UNION_SHAPES = [shape for shape in NORMAL_FORM_SHAPES if shape[0].component_type == "field"]


def test_improper_filter_is_built_once():
    assert improper_filter(A1) is improper_filter(A1)
    twin = AffineLine(SymbolicAlgClosed())
    assert twin == A1 and twin is not A1
    assert improper_filter(twin) == improper_filter(A1)
    assert improper_filter(twin) is not improper_filter(A1)


def test_trivial_filter_is_built_once():
    assert trivial_filter(Q) is trivial_filter(Q)
    assert presented(U3, 0) is trivial_filter(U3)
    assert trivial_filter(U3) == presented(U3, 0, {}, ComponentSet.of([]))


@pytest.mark.parametrize("shape", UNION_SHAPES, ids=lambda s: str(s[0]))
def test_union_restrict_returns_a_chart_constant(shape):
    scheme, charts = shape[0], shape[4]
    for f in grid_filters(shape):
        for c in charts:
            chart_scheme = scheme.chart(c).scheme
            r = restrict(f, c)
            assert r is improper_filter(chart_scheme) or r is trivial_filter(chart_scheme)


def _count_inits(monkeypatch, cls) -> list:
    """Wrap cls.__init__ to count the objects built.  A NamedTuple's
    __init__ is object's, which refuses arguments once replaced, so it is
    not called."""
    built = [0]
    original = cls.__init__

    def init(self, *args):
        built[0] += 1
        if original is not object.__init__:
            original(self, *args)

    monkeypatch.setattr(cls, "__init__", init)
    return built


def test_second_union_pass_builds_no_filter_or_chart(monkeypatch):
    pools = [(shape[0], shape[4], grid_filters(shape)) for shape in UNION_SHAPES]

    def restrict_pass():
        return [(scheme, f, {c: restrict(f, c) for c in charts})
                for scheme, charts, flts in pools for f in flts]

    def glue_pass(restricted):
        return [glue_filters(scheme, data,
                             "improper" if f.improper or not f.killed.is_finite else "trivial")
                for scheme, f, data in restricted]

    glue_pass(restrict_pass())
    filters_built = _count_inits(monkeypatch, LocalFilter)
    charts_built = _count_inits(monkeypatch, Chart)
    restricted = restrict_pass()
    assert filters_built == charts_built == [0]
    glued = glue_pass(restricted)
    assert glued == [f for _, f, _ in restricted]
    assert charts_built == [0]
    # a glued improper or trivial filter is its scheme's constant, and
    # only the others are built
    constants = [g for g in glued if g.improper or g == trivial_filter(g.scheme)]
    assert all(g is improper_filter(g.scheme) or g is trivial_filter(g.scheme)
               for g in constants)
    assert 0 < len(constants) < len(glued)
    assert filters_built == [len(glued) - len(constants)]
