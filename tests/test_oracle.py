"""Brute-force ground truth over finite rings and its engine cross-checks."""

import itertools

import pytest

from qfilt import oracle
from qfilt.errors import LatticeTooLargeError, QfiltError
from qfilt.fields import PrimeField
from qfilt.ideals import QuotientRing
from qfilt.oracle import (
    build_table,
    check_prelocalizing,
    cosets,
    cyclic_module,
    direct_sum,
    enumerate_filters,
    enumerate_subcategories,
    filter_min,
    indecomposable_modules,
    is_gabriel,
    iso_class,
    oracle_join,
    oracle_member,
    product_two_ways,
    submodules,
    verify_ring,
)
from qfilt.poly import PrimePoly, poly_from_str


def ring(p, mod):
    return QuotientRing.make(PrimeField(p), poly_from_str(mod, p))


R_X3 = ring(2, "x^3")
R_SPLIT = ring(2, "x^2+x")
R_MIXED = ring(2, "x^3+x")


class TestTable:
    def test_sizes(self):
        assert build_table(R_X3).size == 8
        assert build_table(R_SPLIT).size == 4
        assert build_table(ring(3, "x^2")).size == 9

    def test_ideal_counts(self):
        assert len(build_table(R_X3).ideals) == 4
        assert len(build_table(R_SPLIT).ideals) == 4
        assert len(build_table(R_MIXED).ideals) == 6

    def test_ideal_lattice_too_large(self):
        # x^4 (x+1)^4 has 25 ideals, one over the cap
        with pytest.raises(LatticeTooLargeError):
            build_table(ring(2, "x^8+x^4"))

    def test_ideal_count_checked_before_tables(self, monkeypatch):
        # the count prod(e_i + 1) follows from the factorization, so the cap
        # trips before the tables are laid out and self-checked
        monkeypatch.setattr(oracle, "_self_check",
                            lambda *args: pytest.fail("tables were built"))
        with pytest.raises(LatticeTooLargeError, match="more than 24 ideals"):
            build_table(ring(2, "x^8+x^4"))
        monkeypatch.setattr(oracle, "MAX_ORACLE_IDEALS", 3)
        with pytest.raises(LatticeTooLargeError, match="more than 3 ideals"):
            build_table(R_X3)

    def test_prime_powers_are_principal(self):
        table = build_table(R_MIXED)
        for i, e in enumerate(table.prime_exponents):
            for j in range(e + 1):
                idx = table.prime_power(i, j)
                assert 0 <= idx < table.size


class TestFilters:
    @pytest.mark.parametrize("rg,count", [(R_X3, 4), (R_SPLIT, 4), (R_MIXED, 6)])
    def test_filter_counts(self, rg, count):
        assert len(enumerate_filters(build_table(rg))) == count

    def test_all_filters_prelocalizing(self):
        table = build_table(R_X3)
        assert all(check_prelocalizing(f) for f in enumerate_filters(table))

    def test_product_two_ways_agree_on_all_pairs(self):
        table = build_table(R_X3)
        flts = enumerate_filters(table)
        assert len(flts) == 4
        for f1 in flts:
            for f2 in flts:
                _, _, equal = product_two_ways(f1, f2)
                assert equal

    def test_product_example(self):
        table = build_table(R_X3)
        by_size = sorted(enumerate_filters(table), key=lambda f: len(f.members))
        two = by_size[1]
        via_inv, via_ide, equal = product_two_ways(two, two)
        assert equal and len(via_inv.members) == 3

    def test_gabriel_iff_product_closed(self):
        for rg in (R_X3, R_SPLIT, R_MIXED):
            table = build_table(rg)
            for f in enumerate_filters(table):
                prod = product_two_ways(f, f)[0]
                assert is_gabriel(f) == (prod.members <= f.members)

    def test_join_is_upward_intersection_closure(self):
        table = build_table(R_MIXED)
        flts = enumerate_filters(table)
        member_sets = {f.members for f in flts}
        for a in flts:
            for b in flts:
                j = oracle_join(table, a, b)
                assert a.members <= j.members and b.members <= j.members
                assert j.members in member_sets

    def test_filter_min(self):
        table = build_table(R_X3)
        for f in enumerate_filters(table):
            least = filter_min(f)
            assert table.ideal_index(least) in f.members
            assert all(least <= table.ideals[i] for i in f.members)


class TestModules:
    def test_cyclic_sizes(self):
        table = build_table(R_X3)
        x2 = table.principal(table.prime_power(0, 2))
        assert len(cyclic_module(table, x2).elements) == 4

    def test_iso_class_separates_same_size(self):
        table = build_table(R_X3)
        x1 = table.principal(table.prime_power(0, 1))
        x2 = table.principal(table.prime_power(0, 2))
        chain = cyclic_module(table, x2)
        square = direct_sum([cyclic_module(table, x1), cyclic_module(table, x1)])
        assert len(chain.elements) == len(square.elements) == 4
        assert iso_class(chain) != iso_class(square)

    def test_submodule_count_of_square(self):
        # k[x]/(x) ^ 2 over F2 has 5 submodules: 0, three lines, itself
        table = build_table(R_X3)
        x1 = table.principal(table.prime_power(0, 1))
        square = direct_sum([cyclic_module(table, x1), cyclic_module(table, x1)])
        assert len(submodules(square)) == 5

    @pytest.mark.parametrize("p,mods", [(2, ("x^2", "x")), (3, ("x", "x"))])
    def test_submodules_match_closed_subsets(self, p, mods):
        # F2[x]/(x^2) + F2[x]/(x) and (F3)^2: every subset closed under
        # add and smul, against the cyclic-sum enumeration
        table = build_table(ring(p, "x^2"))
        mod = direct_sum(cyclic_module(table, table.principal(table.index(poly_from_str(m, p))))
                         for m in mods)
        reference = set()
        for bits in itertools.product((False, True), repeat=mod.size):
            sub = frozenset(x for x, keep in zip(mod.elements, bits) if keep)
            if sub and all(mod.add(x, y) in sub for x in sub for y in sub) and \
                    all(mod.smul(r, x) in sub for r in range(table.size) for x in sub):
                reference.add(sub)
        found = submodules(mod)
        assert len(found) == len(set(found))
        assert set(found) == reference

    def test_quotient_by_itself_is_zero(self):
        table = build_table(R_X3)
        mod = cyclic_module(table, table.principal(table.prime_power(0, 2)))
        total = max(submodules(mod), key=len)
        coset, reps = cosets(mod.add_table, total)
        assert reps == [mod.zero] and set(coset) == {0}

    def test_indecomposables(self):
        table = build_table(R_MIXED)
        # one per prime power: x, (x+1), (x+1)^2
        assert len(indecomposable_modules(table)) == 3


class TestSubcategories:
    @pytest.mark.parametrize("rg,counts", [
        (R_X3, (4, 2, 4, 2)),
        (R_SPLIT, (4, 4, 4, 4)),
        (R_MIXED, (6, 4, 6, 4)),
    ])
    def test_flag_counts(self, rg, counts):
        subs = enumerate_subcategories(build_table(rg))
        got = (len(subs),
               sum(1 for s in subs if s.localizing),
               sum(1 for s in subs if s.closed),
               sum(1 for s in subs if s.bilocalizing))
        assert got == counts

    def test_length_bound_cap(self):
        with pytest.raises(QfiltError):
            enumerate_subcategories(build_table(R_X3), length_bound=9)

    @pytest.mark.parametrize("bound", [2, 0, -1])
    def test_length_bound_below_largest_exponent(self, bound):
        # R/(x^3) has length 3, so a smaller bound cannot see it
        with pytest.raises(QfiltError, match="at least 3"):
            enumerate_subcategories(build_table(R_X3), length_bound=bound)


class TestMember:
    def test_member_matches_elementwise(self):
        table = build_table(R_X3)
        mod = cyclic_module(table, table.principal(table.prime_power(0, 2)))
        for flt in enumerate_filters(table):
            expected = all(
                table.ideal_index(frozenset(
                    r for r in range(table.size)
                    if mod.smul(r, m) == mod.zero)) in flt.members
                for m in mod.elements)
            assert oracle_member(mod, flt) == expected


class TestVerifyRing:
    @pytest.mark.parametrize("rg", [R_X3, R_SPLIT])
    def test_small_rings_pass(self, rg):
        report = verify_ring(rg)
        assert report.passed, "\n".join(report.lines())
        assert len(report.checks) == 11


def _monic_moduli():
    """Every monic modulus of degree <= 3 over F2 and F3 and of degree 2 over F5."""
    for p, degrees in ((2, (1, 2, 3)), (3, (1, 2, 3)), (5, (2,))):
        for d in degrees:
            for low in itertools.product(range(p), repeat=d):
                yield QuotientRing.make(PrimeField(p), PrimePoly.make(p, (*low, 1)))


SWEEP = list(_monic_moduli())


def test_sweep_covers_78_rings():
    assert len(SWEEP) == len(set(SWEEP)) == 78


@pytest.mark.parametrize("rg", SWEEP, ids=str)
def test_sweep_small_rings_pass(rg):
    """Every ring passes at the least length bound it admits."""
    report = verify_ring(rg, length_bound=max(m for _, m in rg.prime_factors()))
    assert report.passed, "\n".join(report.lines())
