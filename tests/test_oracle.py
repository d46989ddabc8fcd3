"""Brute-force ground truth over finite rings and its engine cross-checks."""

import functools
import itertools
import math
import operator

import pytest

from qfilt import oracle
from qfilt.errors import LatticeTooLargeError, QfiltError
from qfilt.fields import PrimeField
from qfilt.ideals import QuotientRing
from qfilt.oracle import (
    ExplicitModule,
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
    subquotient_classes,
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
        assert len(submodules(build_table(R_X3), ((0, 1), (0, 1)))) == 5

    @pytest.mark.parametrize("p,mods", [
        (2, ("x^2", "x")),
        (3, ("x", "x")),
        (2, ("x^2", "x^2")),  # a repeated summand
        (2, ("x^2+x+1", "x^2+x+1")),  # residue degree 2
        (2, ("x", "x+1")),  # two primes
    ])
    def test_submodules_match_closed_subsets(self, p, mods):
        # the sum of R/(m) over `mods`, R = F_p[x] modulo their product, such
        # as F2[x]/(x^2) + F2[x]/(x) and (F3)^2: every subset closed under
        # add and smul, against the enumeration through the last summand
        polys = [poly_from_str(m, p) for m in mods]
        modulus = functools.reduce(operator.mul, polys)
        table = build_table(QuotientRing.make(PrimeField(p), modulus))
        ideals = [table.principal(table.index(m)) for m in polys]
        keys = [(i, j) for i, e in enumerate(table.prime_exponents) for j in range(1, e + 1)]
        multiset = tuple(next(k for k in keys if table.principal(table.prime_power(*k)) == ideal)
                         for ideal in ideals)
        mod = direct_sum(cyclic_module(table, ideal) for ideal in ideals)
        reference = set()
        for bits in itertools.product((False, True), repeat=mod.size):
            sub = frozenset(x for x, keep in zip(mod.elements, bits) if keep)
            if sub and all(mod.add(x, y) in sub for x in sub for y in sub) and \
                    all(mod.smul(r, x) in sub for r in range(table.size) for x in sub):
                reference.add(sub)
        found = submodules(table, multiset)
        assert len(found) == len(set(found))
        assert set(found) == reference

    @pytest.mark.parametrize("rg,multiset", [
        (R_MIXED, ((0, 1), (1, 1), (1, 2))),
        (ring(3, "x^2"), ((0, 1), (0, 2), (0, 2))),
        (ring(2, "x^2+x+1"), ((0, 1), (0, 1))),
    ], ids=str)
    def test_subquotient_classes_match_image_sizes(self, rg, multiset):
        # each submodule and its quotient laid out as modules of their own,
        # their classes read from the sizes of the images p_i^j·X_i
        table = build_table(rg)
        mod = direct_sum(cyclic_module(table, table.principal(table.prime_power(*key)))
                         for key in multiset)
        subs = submodules(table, multiset)
        for sub, pair in zip(subs, subquotient_classes(mod, subs)):
            members = sorted(sub)
            name = {x: k for k, x in enumerate(members)}
            part = ExplicitModule(table,
                                  [[name[mod.add(x, y)] for y in members] for x in members],
                                  [[name[row[x]] for x in members] for row in mod.smul_table])
            coset, reps = cosets(mod.add_table, sub)
            quotient = ExplicitModule(table,
                                      [[coset[mod.add(x, y)] for y in reps] for x in reps],
                                      [[coset[row[x]] for x in reps] for row in mod.smul_table])
            assert pair == (_image_class(part), _image_class(quotient))

    def test_quotient_by_itself_is_zero(self):
        table = build_table(R_X3)
        mod = cyclic_module(table, table.principal(table.prime_power(0, 2)))
        total = max(submodules(table, ((0, 2),)), key=len)
        coset, reps = cosets(mod.add_table, total)
        assert reps == [mod.zero] and set(coset) == {0}

    def test_indecomposables(self):
        table = build_table(R_MIXED)
        # one per prime power: x, (x+1), (x+1)^2
        assert len(indecomposable_modules(table)) == 3


def _image_class(mod):
    """Multiplicities of the R/(p_i^j) in `mod`, from the sizes of the sets
    p_i^j·X_i, X_i the elements killed by p_i^(e_i)."""
    table = mod.table
    out = []
    for i, e in enumerate(table.prime_exponents):
        killer = mod.smul_table[table.prime_power(i, e)]
        part = [x for x in mod.elements if killer[x] == mod.zero]
        base = table.ring.modulus.p ** table.prime_degrees[i]
        logs = [round(math.log(len({mod.smul(table.prime_power(i, j), x) for x in part}), base))
                for j in range(e + 1)]
        ge = [logs[j - 1] - logs[j] for j in range(1, e + 1)]
        out.append(tuple(ge[j] - (ge[j + 1] if j + 1 < e else 0) for j in range(e)))
    return tuple(out)


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
    @pytest.mark.parametrize("rg", [R_X3, R_SPLIT, ring(5, "x^2")])
    def test_small_rings_pass(self, rg):
        report = verify_ring(rg)
        assert report.passed, "\n".join(report.lines())
        assert len(report.checks) == 11


def _monic_moduli():
    """Every monic modulus of degree <= 4 over F2, of degree <= 3 over F3 and
    of degree 2 over F5."""
    for p, degrees in ((2, (1, 2, 3, 4)), (3, (1, 2, 3)), (5, (2,))):
        for d in degrees:
            for low in itertools.product(range(p), repeat=d):
                yield QuotientRing.make(PrimeField(p), PrimePoly.make(p, (*low, 1)))


SWEEP = list(_monic_moduli())


def test_sweep_covers_94_rings():
    assert len(SWEEP) == len(set(SWEEP)) == 94


@pytest.mark.parametrize("rg", SWEEP, ids=str)
def test_sweep_small_rings_pass(rg):
    """Every ring passes at the least length bound it admits."""
    report = verify_ring(rg, length_bound=max(m for _, m in rg.prime_factors()))
    assert report.passed, "\n".join(report.lines())
