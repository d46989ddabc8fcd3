"""The eight acceptance criteria, each timed against its budget.

Every criterion prints one [PASS]/[FAIL] line in the terminal summary.
Budgets are wall-clock seconds; a criterion over budget fails even when
its assertions hold.
"""

import itertools
import random
import time
from contextlib import contextmanager

import pytest
from conftest import register_line

from qfilt.classify import classify, localizing_to_specclosed, member, specclosed_to_localizing
from qfilt.config import INF
from qfilt.fields import PrimeField, SymbolicAlgClosed
from qfilt.filters import (
    ALL_POWERS,
    EVERYTHING,
    FULL_ONLY,
    cofinite_family,
    contains,
    enumerate_quotient_filters,
    generate,
    glue_filters,
    improper_filter,
    is_local,
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
from qfilt.oracle import (
    _smul_rows,
    build_table,
    engine_filter_to_explicit,
    enumerate_filters,
    enumerate_subcategories,
    verify_ring,
)
from qfilt.poly import irreducibles, poly_from_str
from qfilt.schemes import (
    AffineLine,
    AffineQuotient,
    DisjointUnion,
    ProjLine,
    sheaf,
    sheaf_intersect,
    unit_sheaf,
)
from qfilt.spectrum import (
    ComponentSet,
    closed_point,
    generic_point,
    inf_point,
    module_data,
    spec,
)

A1 = AffineLine(SymbolicAlgClosed())
P1 = ProjLine(SymbolicAlgClosed())
UZ = DisjointUnion.symbolic()


@contextmanager
def criterion(num: int, label: str, budget: float):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        register_line(f"[FAIL] criterion {num}: {label}")
        raise
    elapsed = time.perf_counter() - start
    if elapsed > budget:
        register_line(f"[FAIL] criterion {num}: {label} "
                      f"(took {elapsed:.2f}s, budget {budget:.0f}s)")
        pytest.fail(f"criterion {num} exceeded its {budget:.0f}s budget: {elapsed:.2f}s")
    register_line(f"[PASS] criterion {num}: {label} ({elapsed:.2f}s <= {budget:.0f}s)")


def test_criterion_1_affine_line_table():
    pts = [closed_point(l) for l in "abc"]
    values = [0, 1, 2, 3, INF]
    with criterion(1, "affine-line classification table", 1.0):
        filters = [improper_filter(A1)]
        for default in (0, INF):
            for combo in itertools.product(values, repeat=3):
                filters.append(presented(A1, default, dict(zip(pts, combo))))
        assert len(filters) == 1 + 2 * 5 ** 3
        for flt in filters:
            rep = classify(flt)
            if flt.improper:
                expect_loc = expect_closed = expect_biloc = True
            else:
                vals = [flt.default] + [v for _, v in flt.exceptions]
                expect_loc = all(v in (0, INF) for v in vals)
                expect_closed = all(v != INF for v in vals)
                expect_biloc = all(v == 0 for v in vals)
            assert rep.prelocalizing
            assert rep.localizing == expect_loc, flt
            assert rep.closed == expect_closed, flt
            assert rep.bilocalizing == expect_biloc, flt


def test_criterion_2_product_exponent_law():
    a = closed_point("a")
    exps = list(range(9)) + [INF]
    with criterion(2, "product adds exponents", 1.0):
        for m in exps:
            for n in exps:
                fm = presented(A1, 0, {a: m})
                fn = presented(A1, 0, {a: n})
                s = INF if INF in (m, n) else m + n
                assert product(fm, fn) == presented(A1, 0, {a: s}), (m, n)


def test_criterion_3_proj_line():
    labels = [closed_point(l) for l in "ab"] + [inf_point()]
    with criterion(3, "projective-line bilocalizing pair and support round trip", 5.0):
        # a representative family has exactly two bilocalizing members
        family = [improper_filter(P1)]
        for default in (0, INF):
            for combo in itertools.product((0, 1, INF), repeat=3):
                family.append(presented(P1, default, dict(zip(labels, combo))))
        biloc = {flt for flt in family if classify(flt).bilocalizing}
        assert biloc == {trivial_filter(P1), improper_filter(P1)}

        # localizing <-> specialization-closed support is a round trip
        rng = random.Random(20260816)
        pool = [closed_point(l) for l in "abcdefghij"] + [inf_point()]
        for _ in range(500):
            chosen = rng.sample(pool, rng.randint(0, 4))
            flt = presented(P1, rng.choice((0, INF)),
                            {pt: rng.choice((0, INF)) for pt in chosen})
            assert is_product_closed(flt)
            assert specclosed_to_localizing(localizing_to_specclosed(flt)) == flt


def test_criterion_4_disjoint_union():
    with criterion(4, "cofinite family is not local; presented filters principal", 1.0):
        local, closure = is_local(cofinite_family(UZ))
        assert local is False
        assert closure.improper
        assert generate(cofinite_family(UZ)).improper

        patterns = [ComponentSet.of(s) for s in
                    ([], [0], [1], [0, 1], [0, 2, 5], [3])]
        patterns += [ComponentSet.cofinite(s) for s in
                     ([], [0], [0, 1], [2, 4])]
        for killed in patterns:
            flt = presented(UZ, 0, killed=killed)
            ok, least = is_principal(flt)
            assert ok
            if flt.improper:
                assert least.killed.invert().is_none
            else:
                assert least == sheaf(UZ, {}, killed)


def test_criterion_5_oracle_equivalence():
    rings = [
        (QuotientRing.make(PrimeField(2), poly_from_str("x^3", 2)),
         4, (4, 2, 4, 2)),
        (QuotientRing.make(PrimeField(2), poly_from_str("x^2+x", 2)),
         4, (4, 4, 4, 4)),
        (QuotientRing.make(PrimeField(3), poly_from_str("x^3+2x^2", 3)),
         6, (6, 4, 6, 4)),
    ]
    with criterion(5, "oracle equivalence on three finite rings", 30.0):
        for ring, n_filters, counts in rings:
            table = build_table(ring)
            assert len(enumerate_filters(table)) == n_filters
            subs = enumerate_subcategories(table)
            got = (len(subs),
                   sum(1 for s in subs if s.localizing),
                   sum(1 for s in subs if s.closed),
                   sum(1 for s in subs if s.bilocalizing))
            assert got == counts, ring
            report = verify_ring(ring)
            assert report.passed, [check for check in report.checks if not check[1]]


def test_criterion_6_membership():
    ring = QuotientRing.make(PrimeField(2), poly_from_str("x^3", 2))
    scheme = AffineQuotient(ring)
    x = scheme.primes()[0][0]
    with criterion(6, "membership agrees with elementwise annihilators", 10.0):
        table = build_table(ring)
        # the sums of R/(x^j), j = 1, 2, 3, as verify_ring builds them
        multisets = [()]
        for count in range(1, 5):
            for parts in itertools.combinations_with_replacement(
                    [(0, 1), (0, 2), (0, 3)], count):
                if sum(j for _, j in parts) <= 4:
                    multisets.append(parts)
        filters = enumerate_quotient_filters(scheme)
        assert len(filters) == 4
        pairs = 0
        for parts in multisets:
            smul = _smul_rows(table, parts)
            data = module_data(scheme, [(x, j) for _, j in parts])
            for flt in filters:
                explicit = engine_filter_to_explicit(flt, table)
                elementwise = all(
                    table.ideal_index[frozenset(r for r in range(table.size)
                                                if smul[r][m] == 0)]
                    in explicit.members
                    for m in range(len(smul[0])))
                assert member(data, flt) == elementwise, (parts, flt)
                pairs += 1
        assert pairs == len(multisets) * 4 and pairs >= 40


def test_criterion_7_spectrum_counts():
    with criterion(7, "irreducible counts and specialization order", 1.0):
        assert [len(irreducibles(2, d)) for d in (1, 2, 3, 4)] == [2, 1, 2, 3]
        poset = spec(AffineLine(PrimeField(2)), degree_bound=4)
        gen = poset.generic[0]
        assert len(poset.closed) == 8
        for pt in poset.closed:
            assert _atom_leq(gen, pt)
            assert not _atom_leq(pt, gen)
        for a in poset.closed:
            for b in poset.closed:
                assert _atom_leq(a, b) == (a == b)
        points = poset.generic + poset.closed
        assert poset.specializations == tuple(
            (a, b) for a in points for b in points if a != b and _atom_leq(a, b))


def _atom_leq(a, b):
    """The atom order: a <= b iff b lies in the closure of {a}."""
    return a == b or a.kind == "generic" and a.component == b.component


# ---------------------------------------------------------------------------
# criterion 8: randomized law suites, one per scheme shape


_LEVEL = {"full_only": 0, "up_to": 1, "all_powers": 2, "everything": 3}


def _rank(s):
    return (_LEVEL[s.kind], s.bound or 0)


def _stalk_min(s, t):
    return s if _rank(s) <= _rank(t) else t


def _stalk_max(s, t):
    return s if _rank(s) >= _rank(t) else t


def _stalk_product(s, t, cap):
    if EVERYTHING in (s, t):
        return EVERYTHING
    if s.kind == "full_only" and t.kind == "full_only":
        return FULL_ONLY
    m = s.bound if s.kind == "up_to" else INF
    n = t.bound if t.kind == "up_to" else INF
    total = m + n
    if cap != INF and total >= cap:
        return EVERYTHING
    if total == INF:
        return ALL_POWERS
    return up_to(total)


class Shape:
    """Random-filter generator for one scheme model."""

    def __init__(self, scheme, points, killed_pool=(), values=(0, 1, 2, INF)):
        self.scheme = scheme
        self.points = points
        self.killed_pool = killed_pool
        self.values = values

    def random_filter(self, rng):
        if rng.random() < 0.05:
            return improper_filter(self.scheme)
        default = rng.choice((0, 0, INF))
        exceptions = {}
        if self.points:
            for pt in rng.sample(self.points,
                                 rng.randint(0, min(3, len(self.points)))):
                exceptions[pt] = rng.choice(self.values)
        killed = rng.choice(self.killed_pool) if self.killed_pool else ()
        return presented(self.scheme, default, exceptions, killed)


def _shapes():
    f2 = PrimeField(2)
    quotient = AffineQuotient(QuotientRing.make(f2, poly_from_str("x^3+x", 2)))
    union_kills = [ComponentSet.of(s) for s in
                   ([], [0], [1], [0, 1], [2, 3])]
    union_kills += [ComponentSet.cofinite(s) for s in ([], [0], [0, 1])]
    return [
        ("affine line, symbolic",
         Shape(A1, [closed_point(l) for l in "abcd"])),
        ("affine line, F2",
         Shape(AffineLine(f2),
               [closed_point(q) for q in
                irreducibles(2, 1) + irreducibles(2, 2)])),
        ("artinian quotient",
         Shape(quotient, [pt for pt, _ in quotient.primes()])),
        ("projective line",
         Shape(P1, [closed_point(l) for l in "abc"] + [inf_point()])),
        ("symbolic disjoint union",
         Shape(UZ, [], killed_pool=union_kills)),
        ("explicit disjoint union",
         Shape(DisjointUnion.explicit([PrimeField(2), PrimeField(3), PrimeField(5)]),
               [], killed_pool=[ComponentSet.of(s) for s in
                                ([], [0], [1], [2], [0, 2], [0, 1, 2])])),
    ]


def _sample_points(scheme, shape):
    pts = list(shape.points[:2])
    if scheme.kind in ("affine_line", "proj_line"):
        pts.append(generic_point(0))
    if scheme.kind == "disjoint_union":
        pts = [generic_point(0), generic_point(2)]
    return pts


def _charts(scheme):
    if scheme.kind == "proj_line":
        return (0, 1)
    if scheme.kind == "disjoint_union":
        # wide enough to cover every killed pattern in the pools
        return (0, 1, 2, 3) if scheme.components is None else (0, 1, 2)
    return (0,)


def _check_lattice_laws(f, g, h):
    assert meet(f, g) == meet(g, f)
    assert join(f, g) == join(g, f)
    assert product(f, g) == product(g, f)
    assert meet(f, meet(g, h)) == meet(meet(f, g), h)
    assert join(f, join(g, h)) == join(join(f, g), h)
    assert meet(f, join(f, g)) == f
    assert join(f, meet(f, g)) == f
    assert meet(f, f) == f and join(f, f) == f


def _check_product_refines(f, g):
    p = product(f, g)
    assert meet(p, f) == f
    assert meet(p, g) == g


def _check_contains_axioms(f, g):
    scheme = f.scheme
    assert contains(f, unit_sheaf(scheme))
    ok_f, least_f = is_principal(f)
    ok_g, least_g = is_principal(g)
    if ok_f and not f.improper:
        assert contains(f, least_f)
        if ok_g and not g.improper:
            assert contains(join(f, g), sheaf_intersect(least_f, least_g))
        if least_f.orders:
            pt, n = least_f.orders[0]
            if n > 1:
                weaker = sheaf(scheme, dict(least_f.orders) | {pt: n - 1},
                               least_f.killed)
                assert contains(f, weaker)


def _check_restrict_hom(f, g, charts):
    for c in charts:
        for op in (meet, join, product):
            assert restrict(op(f, g), c) == op(restrict(f, c), restrict(g, c))


def _check_localize_hom(f, g, pts):
    scheme = f.scheme
    for pt in pts:
        cap = scheme.closed_cap(pt) if pt.kind == "closed" else INF
        lf, lg = localize(f, pt), localize(g, pt)
        assert localize(meet(f, g), pt) == _stalk_min(lf, lg)
        assert localize(join(f, g), pt) == _stalk_max(lf, lg)
        assert localize(product(f, g), pt) == _stalk_product(lf, lg, cap)


def _check_glue_round_trip(f, charts):
    scheme = f.scheme
    chart_data = {c: restrict(f, c) for c in charts}
    if scheme.kind == "disjoint_union":
        rest = "improper" if f.improper or not f.killed.is_finite else "trivial"
        glued = glue_filters(scheme, chart_data, rest)
    else:
        glued = glue_filters(scheme, chart_data)
    assert glued == f


def test_criterion_8_filter_lattice_laws():
    per_shape = 10_000
    with criterion(8, "randomized filter-lattice law suites", 60.0):
        for idx, (name, shape) in enumerate(_shapes()):
            rng = random.Random(1000 + idx)
            scheme = shape.scheme
            charts = _charts(scheme)
            sample_pts = _sample_points(scheme, shape)
            pool = [shape.random_filter(rng) for _ in range(64)]
            for i in range(per_shape):
                f = pool[rng.randrange(64)]
                g = pool[rng.randrange(64)]
                mode = i % 5
                if mode == 0:
                    _check_lattice_laws(f, g, pool[rng.randrange(64)])
                elif mode == 1:
                    _check_product_refines(f, g)
                elif mode == 2:
                    _check_contains_axioms(f, g)
                elif mode == 3:
                    _check_restrict_hom(f, g, charts)
                    _check_glue_round_trip(f, charts)
                else:
                    _check_localize_hom(f, g, sample_pts)
