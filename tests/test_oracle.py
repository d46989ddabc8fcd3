"""Brute-force ground truth over finite rings and its engine cross-checks."""

import functools
import gc
import itertools
import math
import operator
import re

import pytest

from qfilt import oracle
from qfilt.errors import LatticeTooLargeError, QfiltError, RingMismatchError
from qfilt.fields import PrimeField
from qfilt.filters import (LocalFilter, enumerate_quotient_filters, is_product_closed,
                           kill_admitted)
from qfilt.ideals import QuotientRing
from qfilt.oracle import (
    build_table,
    check_prelocalizing,
    cosets,
    enumerate_filters,
    enumerate_subcategories,
    oracle_join,
    product_two_ways,
    submodules,
    subquotient_classes,
    verify_ring,
)
from qfilt.poly import PrimePoly, poly_from_str
from qfilt.schemes import AffineQuotient, Scheme, unit_sheaf


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

    def test_ideals_must_be_principal(self):
        # F2[x,y]/(x^2, xy, y^2), a + b·x + c·y numbered 4a + 2b + c, is a
        # ring whose ideal (x) + (y) = {0, x, y, x + y} is not principal
        def times(u, v):
            (a, b, c), (d, e, f) = ((w >> 2, w >> 1 & 1, w & 1) for w in (u, v))
            return a * d << 2 | (a * e + b * d) % 2 << 1 | (a * f + c * d) % 2

        add = tuple(tuple(u ^ v for v in range(8)) for u in range(8))
        mul = tuple(tuple(times(u, v) for v in range(8)) for u in range(8))
        oracle._self_check(8, add, mul, 4)
        with pytest.raises(QfiltError, match="^the ring has an ideal that is not principal$"):
            oracle._enumerate_ideals(add, mul)

    # (table, entry, new value, on both sides of the diagonal) of
    # F2[x]/(x^3), element 4 the one, and the law the broken table fails
    @pytest.mark.parametrize("which,a,b,value,symmetric,message", [
        ("add", 0, 0, 1, True, "ring tables fail the unit laws"),
        ("mul", 1, 3, 1, False, "ring tables are not commutative"),
        ("add", 1, 1, 1, True, "addition is not associative"),
        ("mul", 1, 1, 2, True, "multiplication is not associative"),
        ("mul", 1, 1, 1, True, "distributivity fails"),
    ])
    def test_self_check_names_the_broken_law(self, which, a, b, value, symmetric, message):
        table = build_table(R_X3)
        tables = {"add": table.add, "mul": table.mul}
        tables[which] = _with_entry(tables[which], a, b, value, symmetric)
        with pytest.raises(QfiltError, match=f"^{message}$"):
            oracle._self_check(table.size, tables["add"], tables["mul"], table.one)

    def test_self_check_samples_above_64_elements(self):
        # F3[x]/(x^4) has 81 elements, so only every second element is
        # sampled; 2 and 4 are among them
        table = build_table(ring(3, "x^4"))
        add = _with_entry(table.add, 2, 4, 0)
        with pytest.raises(QfiltError, match="^addition is not associative$"):
            oracle._self_check(table.size, add, table.mul, table.one)

    def test_self_check_reads_every_c_above_64_elements(self):
        # element 1 of F3[x]/(x^4) is x^3, odd and so never sampled: with
        # x^3·x^3 set to x^3, every triple of sampled elements still holds,
        # but a sampled pair (a, b) fails at some unsampled c
        table = build_table(ring(3, "x^4"))
        mul = _with_entry(table.mul, 1, 1, 1)
        sampled = range(0, table.size, 2)
        oracle._check_triples(table.add, mul, itertools.product(sampled, repeat=3))
        with pytest.raises(QfiltError, match="^multiplication is not associative$"):
            oracle._self_check(table.size, table.add, mul, table.one)

    @pytest.mark.parametrize("rg", [R_SPLIT, R_MIXED, ring(3, "x^2")], ids=str)
    def test_self_check_matches_entry_by_entry_scan(self, rg):
        # every one-entry change of either table, on both sides of the
        # diagonal or on one, fails the law the scan of every triple fails
        # first, or passes as it does: F2[x]/(x^3+x) has three additive
        # generators, and F3[x]/(x^2) adds mod 3
        table = build_table(rg)
        for which, (a, b), value, symmetric in itertools.product(
                ("add", "mul"), itertools.product(range(table.size), repeat=2),
                range(table.size), (True, False)):
            tables = {"add": table.add, "mul": table.mul}
            tables[which] = _with_entry(tables[which], a, b, value, symmetric)
            args = (table.size, tables["add"], tables["mul"], table.one)
            assert _law_failed(oracle._self_check, *args) == \
                _law_failed(_reference_self_check, *args), (which, a, b, value, symmetric)

    def test_additive_generators(self):
        # the monomials x, 1 on the table of F2[x]/(x^2+x); where 1 + 2 is
        # 1, 3 is reached from neither, and where x + x is x for every x, 0
        # is reached from none and comes last
        table = build_table(R_SPLIT)
        assert oracle._additive_generators(table.add) == [1, 2]
        assert oracle._additive_generators(_with_entry(table.add, 1, 2, 1)) == [1, 2, 3]
        idempotent = tuple(tuple(a if a == b else a ^ b for b in range(4)) for a in range(4))
        assert oracle._additive_generators(idempotent) == [1, 2, 0]

    def test_prime_powers_are_principal(self):
        table = build_table(R_MIXED)
        for i, e in enumerate(table.prime_exponents):
            for j in range(e + 1):
                idx = table.prime_power(i, j)
                assert 0 <= idx < table.size


def _with_entry(rows, a, b, value, symmetric=True):
    """The table with entry (a, b), and (b, a) too when symmetric, set to value."""
    rows = [list(row) for row in rows]
    rows[a][b] = value
    if symmetric:
        rows[b][a] = value
    return tuple(map(tuple, rows))


def _reference_self_check(n, add, mul, one):
    """The ring axioms entry by entry, every triple in order; 0 is the zero."""
    rng = range(n)
    for a in rng:
        if add[a][0] != a or mul[a][one] != a or mul[a][0] != 0:
            raise QfiltError("ring tables fail the unit laws")
        for b in rng:
            if add[a][b] != add[b][a] or mul[a][b] != mul[b][a]:
                raise QfiltError("ring tables are not commutative")
    for a, b, c in itertools.product(rng, repeat=3):
        if add[add[a][b]][c] != add[a][add[b][c]]:
            raise QfiltError("addition is not associative")
        if mul[mul[a][b]][c] != mul[a][mul[b][c]]:
            raise QfiltError("multiplication is not associative")
        if mul[a][add[b][c]] != add[mul[a][b]][mul[a][c]]:
            raise QfiltError("distributivity fails")


def _law_failed(check, *args):
    try:
        check(*args)
    except QfiltError as exc:
        return str(exc)
    return None


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
        # F*F inside F, by the inverse-ideal definition, exactly when the
        # engine finds the filter closed under products, and exactly when
        # its least member L is idempotent: F*F is the filter of L·L
        for rg in (R_X3, R_SPLIT, R_MIXED):
            table = build_table(rg)
            for flt in enumerate_quotient_filters(AffineQuotient(rg)):
                e = oracle.engine_filter_to_explicit(flt, table)
                gabriel = product_two_ways(e, e)[0].members <= e.members
                least = table.ideals[oracle._meet_all(table, e.members)]
                assert gabriel == is_product_closed(flt)
                assert gabriel == (_ideal_product(table, least, least) == least)

    def test_join_is_upward_intersection_closure(self):
        table = build_table(R_MIXED)
        flts = enumerate_filters(table)
        member_sets = {f.members for f in flts}
        for a in flts:
            for b in flts:
                j = oracle_join(table, a, b)
                assert a.members <= j.members and b.members <= j.members
                assert j.members in member_sets

    @pytest.mark.parametrize("kept,message", [
        (["(x)", "(x+1)", "(0)"], "a filter must contain the unit ideal"),
        (["(1)", "(0)"], "filter is not upward closed"),
        (["(1)", "(x)", "(x+1)"], "filter is not intersection closed"),
    ])
    def test_non_filters_are_rejected(self, kept, message):
        # F2[x]/(x^2+x): elements by coefficient digits, x is 1, 1 is 2
        table = build_table(R_SPLIT)
        ideals = {"(1)": frozenset(range(4)), "(x)": frozenset({0, 1}),
                  "(x+1)": frozenset({0, 3}), "(0)": frozenset({0})}
        assert set(ideals.values()) == set(table.ideals)
        members = frozenset(table.ideal_index[ideals[name]] for name in kept)
        with pytest.raises(QfiltError, match=f"^{message}$"):
            oracle.ExplicitFilter(table, members)

    def test_filter_min(self):
        # the fold of `meet` over a filter's members is its least member
        for rg in (R_X3, R_MIXED):
            table = build_table(rg)
            assert table.ideals[oracle._meet_all(table, [])] == frozenset(range(table.size))
            for f in enumerate_filters(table):
                least = table.ideals[oracle._meet_all(table, f.members)]
                assert table.ideal_index[least] in f.members
                assert all(least <= table.ideals[i] for i in f.members)


class _Module:
    """A finite module laid out on the elements 0..n-1, element 0 its zero:
    `add_table[x][y]` is x + y, None where only r·x is read, and
    `smul_table[r][x]` is r·x for the ring element of index r."""

    def __init__(self, table, add_table, smul_table):
        self.table, self.add_table, self.smul_table = table, add_table, smul_table

    @property
    def size(self) -> int:
        return len(self.smul_table[0])


def _cyclic_module(table, ideal):
    """R/I, one element per coset of I, numbered as `cosets` numbers them."""
    coset, leaders = cosets(table.add, ideal)
    return _Module(table, [[coset[table.add[a][b]] for b in leaders] for a in leaders],
                   [[coset[row[a]] for a in leaders] for row in table.mul])


def _direct_sum(mods):
    """M_1 + ... + M_k laid out tuple by tuple, its tuples numbered in the
    order of itertools.product, as the oracle numbers a direct sum."""
    mods = list(mods)
    tuples = list(itertools.product(*(range(m.size) for m in mods)))
    index = {t: k for k, t in enumerate(tuples)}
    # each row of the sum from the summands' rows, one per coordinate: the
    # row of s, for add, or of r, for smul
    at = operator.getitem
    add = tuple(tuple(index[tuple(map(at, rows, t))] for t in tuples)
                for rows in itertools.product(*(m.add_table for m in mods)))
    smul = [[index[tuple(map(at, rows, t))] for t in tuples]
            for rows in zip(*(m.smul_table for m in mods))]
    return _Module(mods[0].table, add, smul)


def _sum_module(table, multiset):
    """The direct sum of R/(p_i^j) over a multiset of keys (i, j), each
    summand laid out by _cyclic_module and the sum by _direct_sum; the
    empty sum is R/R, ideal 0 being the unit ideal."""
    ideals = [table.principal(table.prime_power(*key)) for key in multiset]
    return _direct_sum(_cyclic_module(table, ideal) for ideal in ideals or [table.ideals[0]])


class TestModules:
    def test_cyclic_sizes(self):
        table = build_table(R_X3)
        x2 = table.principal(table.prime_power(0, 2))
        assert _cyclic_module(table, x2).size == 4

    def test_iso_class_separates_same_size(self):
        table = build_table(R_X3)
        x1 = table.principal(table.prime_power(0, 1))
        x2 = table.principal(table.prime_power(0, 2))
        chain = _cyclic_module(table, x2)
        square = _direct_sum([_cyclic_module(table, x1), _cyclic_module(table, x1)])
        assert chain.size == square.size == 4
        assert _reference_iso_class(chain) != _reference_iso_class(square)
        built = [oracle._module_data(table, ms) for ms in (((0, 2),), ((0, 1), (0, 1)))]
        assert [data.iso_class for data in built] == \
            [_reference_iso_class(chain), _reference_iso_class(square)]

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
        pos = _pair_polys(p, modulus.degree)[1]
        ideals = [table.principal(pos[m % modulus]) for m in polys]
        keys = [(i, j) for i, e in enumerate(table.prime_exponents) for j in range(1, e + 1)]
        multiset = tuple(next(k for k in keys if table.principal(table.prime_power(*k)) == ideal)
                         for ideal in ideals)
        mod = _direct_sum(_cyclic_module(table, ideal) for ideal in ideals)
        reference = set()
        for bits in itertools.product((False, True), repeat=mod.size):
            sub = frozenset(x for x, keep in enumerate(bits) if keep)
            if sub and all(mod.add_table[x][y] in sub for x in sub for y in sub) and \
                    all(mod.smul_table[r][x] in sub for r in range(table.size) for x in sub):
                reference.add(sub)
        found = [_decode(sub) for sub in submodules(table, multiset)]
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
        mod = _sum_module(table, multiset)
        subs = submodules(table, multiset)
        data = oracle._module_data(table, multiset)
        for bits, pair in zip(subs, subquotient_classes(table, data, subs)):
            sub = _decode(bits)
            members = sorted(sub)
            name = {x: k for k, x in enumerate(members)}
            part = _Module(table,
                           [[name[mod.add_table[x][y]] for y in members] for x in members],
                           [[name[row[x]] for x in members] for row in mod.smul_table])
            coset, reps = cosets(mod.add_table, sub)
            quotient = _Module(table,
                               [[coset[mod.add_table[x][y]] for y in reps] for x in reps],
                               [[coset[row[x]] for x in reps] for row in mod.smul_table])
            assert pair == (_image_class(part), _image_class(quotient))

    def test_quotient_by_itself_is_zero(self):
        table = build_table(R_X3)
        mod = _cyclic_module(table, table.principal(table.prime_power(0, 2)))
        total = max(map(_decode, submodules(table, ((0, 2),))), key=len)
        coset, reps = cosets(mod.add_table, total)
        assert reps == [0] and set(coset) == {0}

    def test_empty_sum_is_quotient_by_unit_ideal(self):
        # R/R, ideal 0 being the unit ideal: one element, killed by everything
        table = build_table(R_MIXED)
        assert oracle._add_rows(table, 1) == ((0,),)
        assert oracle._smul_rows(table, ()) == [[0]] * table.size

    def test_indecomposables(self):
        table = build_table(R_MIXED)
        # one per prime power: x, (x+1), (x+1)^2; p_i is invertible on the
        # other primary parts, so R/(p_i^j) is the indecomposable of key (i, j)
        keys = [(0, 1), (1, 1), (1, 2)]
        assert [(i, j) for i, e in enumerate(table.prime_exponents)
                for j in range(1, e + 1)] == keys
        for i, j in keys:
            mod = _cyclic_module(table, table.principal(table.prime_power(i, j)))
            expected = [[0] * e for e in table.prime_exponents]
            expected[i][j - 1] = 1
            assert _reference_iso_class(mod) == tuple(map(tuple, expected))
            assert table.indecomposables[i, j].data.iso_class == tuple(map(tuple, expected))


def _decode(bits: int) -> frozenset:
    """The elements of a submodule given as a bitset, bit x for element x."""
    return frozenset(one.start() for one in re.finditer("1", bin(bits)[:1:-1]))


def _holds_exactly(bits: int, sub: frozenset) -> bool:
    """Whether the bitset decodes to the elements of `sub`: it holds each
    of them, and it holds as many elements.  Cheaper than _decode on the
    large modules, since only the members are looked up."""
    if bits.bit_count() != len(sub) or bits.bit_length() <= max(sub):
        return False
    digits = bin(bits)[:1:-1]  # digits[x] is bit x
    return set(map(digits.__getitem__, sub)) == {"1"}


def _image_class(mod):
    """Multiplicities of the R/(p_i^j) in `mod`, from the sizes of the sets
    p_i^j·X_i, X_i the elements killed by p_i^(e_i)."""
    table = mod.table
    out = []
    for i, e in enumerate(table.prime_exponents):
        killer = mod.smul_table[table.prime_power(i, e)]
        part = [x for x in range(mod.size) if killer[x] == 0]
        base = table.ring.modulus.p ** table.prime_degrees[i]
        images = [{mod.smul_table[table.prime_power(i, j)][x] for x in part}
                  for j in range(e + 1)]
        logs = [round(math.log(len(image), base)) for image in images]
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

    @pytest.mark.parametrize("rg", [R_MIXED, ring(3, "x^2"), ring(2, "x^2+x+1")], ids=str)
    def test_shared_submodule_pass_matches_fresh_enumeration(self, rg, monkeypatch):
        # every multiset's submodules, as the shared pass derives them from
        # its prefix's, against an enumeration of that multiset alone
        table = build_table(rg)
        calls = []

        def recording(table, multiset, prefix=None):
            calls.append((multiset, real(table, multiset, prefix)))
            return calls[-1][1]

        real = oracle.submodules
        monkeypatch.setattr(oracle, "submodules", recording)
        enumerate_subcategories(table)
        monkeypatch.undo()
        keys = [(i, j) for i, e in enumerate(table.prime_exponents) for j in range(1, e + 1)]
        assert {ms for ms, _ in calls} == set(oracle._all_multisets(keys, 4))
        for multiset, found in calls:
            fresh = submodules(table, multiset)
            assert len(found) == len(fresh) and set(found) == set(fresh), multiset

    @pytest.mark.parametrize("rg", [R_SPLIT, R_X3, ring(3, "x^3+2x^2")], ids=str)
    def test_only_extended_sums_are_laid_out(self, rg):
        # the criterion-5 rings: every sum's ModuleData is built, smul rows
        # only for the sums that submodules() extends, and add tables only
        # for their sizes
        table = build_table(rg)
        enumerate_subcategories(table)
        keys = oracle._indecomposable_keys(table)
        multisets = oracle._all_multisets(keys, 4)
        prefixes = {ms[:-1] for ms in multisets}
        assert set(table.sums) == set(multisets)
        assert set(table.smuls) == prefixes
        assert set(table.adds) == {table.sums[ms].size for ms in prefixes}

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
        mod = _cyclic_module(table, table.principal(table.prime_power(0, 2)))
        for flt in enumerate_filters(table):
            expected = all(
                table.ideal_index[frozenset(
                    r for r in range(table.size)
                    if mod.smul_table[r][m] == 0)] in flt.members
                for m in range(mod.size))
            assert (oracle._module_data(table, ((0, 2),)).annihilators <= flt.members) == \
                expected


class TestVerifyRing:
    @pytest.mark.parametrize("rg", [R_X3, R_SPLIT, ring(5, "x^2")])
    def test_small_rings_pass(self, rg):
        report = verify_ring(rg)
        assert report.passed, _failures(report)
        assert len(report.checks) == 11

    def test_product_checks_keep_their_own_detail(self, monkeypatch):
        # both product checks fail: the definitions disagree on every pair,
        # and the least filter, the unit ideal alone, is not the engine's
        # product of improper filters
        def broken(f1, f2):
            _, via_ide, _ = product_two_ways(f1, f2)
            unit = f1.table.ideal_index[frozenset(range(f1.table.size))]
            return oracle.ExplicitFilter(f1.table, frozenset({unit})), via_ide, False

        monkeypatch.setattr(oracle, "product_two_ways", broken)
        checks = {name: (ok, detail) for name, ok, detail in verify_ring(R_X3).checks}
        ok, detail = checks["product definitions agree"]
        assert not ok and detail.startswith("definitions differ on "), detail
        ok, detail = checks["engine product matches oracle"]
        assert not ok and detail.startswith("engine differs on "), detail

    def test_bridge_refuses_a_filter_on_another_scheme(self, monkeypatch):
        # the bridge memo leaves the scheme out of its key, so a filter on
        # an equal scheme built apart is refused rather than looked up
        real = oracle.fproduct

        def elsewhere(f1, f2):
            f = real(f1, f2)
            return LocalFilter(AffineQuotient(f.scheme.ring), f.improper, f.default,
                               f.exceptions, f.killed)

        monkeypatch.setattr(oracle, "fproduct", elsewhere)
        with pytest.raises(RingMismatchError, match="^the engine returned a filter on "):
            verify_ring(R_X3)


    def test_engine_and_table_share_one_scheme(self, monkeypatch):
        # the table is handed verify_ring's scheme, so no engine call on a
        # filter and an ideal sheaf compares two schemes
        tables = []
        real = oracle.build_table

        def recording(ring, scheme=None):
            tables.append(real(ring, scheme))
            return tables[-1]

        def refused(a, b):
            pytest.fail("two schemes compared")

        monkeypatch.setattr(oracle, "build_table", recording)
        monkeypatch.setattr(Scheme, "__eq__", refused)
        assert verify_ring(R_MIXED).passed
        (table,) = tables
        assert all(ideal.scheme is table.scheme for ideal in table.ideal_sheaves)

    # (engine name that verify_ring reads, a plausible slip of it, the
    # report lines the slip fails, in report order)
    SLIPS = {
        "meet_returns_an_operand": ("fmeet", lambda real: lambda a, b: a,
                                    ["meet and join match oracle"]),
        "join_returns_an_operand": ("fjoin", lambda real: lambda a, b: a,
                                    ["meet and join match oracle"]),
        "least_member_is_the_unit": ("is_principal",
                                     lambda real: lambda f: (real(f)[0], unit_sheaf(f.scheme)),
                                     ["least members match"]),
        "localizing_flipped": ("classify", lambda real: lambda f: _localizing_flipped(real(f)),
                               ["subcategory lattice matches classification"]),
        "member_negated": ("member", lambda real: lambda data, f: not real(data, f),
                           ["membership via annihilators matches"]),
        "product_of_the_first_operand": ("fproduct", lambda real: lambda a, b: real(a, a),
                                         ["engine product matches oracle"]),
        "product_closure_negated": ("is_product_closed", lambda real: lambda f: not real(f),
                                    ["Gabriel condition matches product closure"]),
        "containment_strict": ("contains", lambda real: _contains_strict,
                               ["filter enumerations biject", "engine product matches oracle",
                                "least members match",
                                "Gabriel condition matches product closure",
                                "membership via annihilators matches"]),
        "last_filter_dropped": ("enumerate_quotient_filters",
                                lambda real: lambda scheme: real(scheme)[:-1],
                                ["filter enumerations biject",
                                 "subcategory lattice matches classification"]),
    }

    @pytest.mark.parametrize("name,slip,lines", SLIPS.values(), ids=SLIPS.keys())
    def test_engine_slip_fails_its_line(self, monkeypatch, name, slip, lines):
        monkeypatch.setattr(oracle, name, slip(getattr(oracle, name)))
        report = verify_ring(R_MIXED)
        assert [check for check, ok, _ in report.checks if not ok] == lines

    def test_ring_table_freed_by_reference_count(self):
        # nothing verify_ring leaves in a reference cycle holds its table,
        # so the table is freed without the cyclic collector
        gc.collect()
        enabled = gc.isenabled()
        gc.disable()
        gc.set_debug(gc.DEBUG_SAVEALL)
        try:
            verify_ring(R_MIXED)
            gc.collect()
            left = [o for o in gc.garbage if isinstance(o, oracle.FiniteRingTable)]
        finally:
            gc.set_debug(0)
            gc.garbage.clear()
            if enabled:
                gc.enable()
        assert not left


def _contains_strict(flt, ideal):
    """filters.contains with < for <=: an ideal of exactly the filter's
    order at a point is left out."""
    if flt.improper:
        return True
    return kill_admitted(flt, ideal.killed) and all(n < flt.value(pt) for pt, n in ideal.orders)


def _localizing_flipped(report):
    """A ClassificationReport with its localizing flag the other way."""
    values = list(report._values())
    values[2] = not values[2]  # filter, prelocalizing, localizing, ...
    return type(report)(*values)


def _failures(report) -> str:
    return "\n".join(f"{name} ({detail})" for name, ok, detail in report.checks if not ok)


def _monic_moduli():
    """Every monic modulus of degree <= 4 over F2 and over F3, and of degree
    2 and 3 over F5."""
    for p, degrees in ((2, (1, 2, 3, 4)), (3, (1, 2, 3, 4)), (5, (2, 3))):
        for d in degrees:
            for low in itertools.product(range(p), repeat=d):
                yield QuotientRing.make(PrimeField(p), PrimePoly.make(p, (*low, 1)))


SWEEP = list(_monic_moduli())


def test_sweep_covers_300_rings():
    assert len(SWEEP) == len(set(SWEEP)) == 300


@functools.cache
def _pair_polys(p, d):
    """The polynomials of degree < d over F_p in the order build_table
    numbers them, the index of the sum of each pair (a sum needs no
    reduction), the distinct products of pairs, and the position of each
    pair's product among them.  Shared by every modulus of degree d."""
    reps = [PrimePoly.make(p, coeffs) for coeffs in itertools.product(range(p), repeat=d)]
    pos = {r: i for i, r in enumerate(reps)}
    sums = tuple(tuple(pos[a + b] for b in reps) for a in reps)
    products = {}
    where = [[products.setdefault(a * b, len(products)) for b in reps] for a in reps]
    return tuple(reps), pos, sums, list(products), where


def _ideal_product(table, i1, i2):
    """The span of the products xy, x in i1 and y in i2: their closure under
    addition."""
    prods = {table.mul[x][y] for x in i1 for y in i2}
    span = set(prods)
    frontier = list(prods)
    while frontier:
        v = frontier.pop()
        for w in list(span):
            s = table.add[v][w]
            if s not in span:
                span.add(s)
                frontier.append(s)
    return frozenset(span)


def _check_kernels(table):
    """The tables against PrimePoly arithmetic in the numbering of
    `_pair_polys`, the additive generators that _self_check reads against
    the monomials, at 1, p, ..., p^(d-1), and every entry of `generators`,
    `ideal_of`, `up`, `meet`, `colon`, `colon_range` and `product_up`
    against its definition: each generator against the least element whose
    multiples are its ideal, each a·R and each colon ideal a^{-1}L against
    its set-builder definition, and each set of products against {xy} and
    against their span, which is an ideal of the list: an ideal holds the
    products exactly when it holds their span."""
    f = table.ring.modulus
    _, pos, sums, products, where = _pair_polys(f.p, f.degree)
    reduced = [pos[q % f] for q in products]
    assert table.add == sums
    assert oracle._additive_generators(table.add) == [f.p ** k for k in range(f.degree)]
    assert table.mul == tuple(tuple(reduced[k] for k in row) for row in where)
    size = range(table.size)
    ideals = table.ideals
    n = len(ideals)
    assert ideals[0] == frozenset(size)
    position = {members: i for i, members in enumerate(ideals)}
    multiples = [frozenset(table.mul[a][b] for b in size) for a in size]
    assert len(position) == n and set(multiples) == set(ideals)
    assert table.generators == tuple(multiples.index(members) for members in ideals)
    assert table.ideal_of == tuple(position[members] for members in multiples)
    assert len(table.up) == len(table.meet) == n
    for i in range(n):
        assert table.up[i] == {j for j in range(n) if ideals[i] <= ideals[j]}
        assert len(table.meet[i]) == n
        for k in range(n):
            assert ideals[table.meet[i][k]] == ideals[i] & ideals[k]
    assert len(table.colon) == len(table.colon_range) == len(table.product_up) == n
    for l in range(n):
        colon = [position[frozenset(b for b in size if table.mul[a][b] in ideals[l])]
                 for a in size]
        assert [table.colon[l][table.ideal_of[a]] for a in size] == colon
        assert len(table.colon[l]) == len(table.colon_range[l]) == len(table.product_up[l]) == n
        for j in range(n):
            assert table.colon_range[l][j] == {colon[a] for a in ideals[j]}
            prods = {table.mul[x][y] for x in ideals[l] for y in ideals[j]}
            span = _ideal_product(table, ideals[l], ideals[j])
            assert table.product_up[l][j] == {k for k in range(n) if prods <= ideals[k]}
            assert table.product_up[l][j] == table.up[table.ideal_index[span]]


def _fixpoint_join(table, a, b):
    """The least filter holding a and b: their union closed under
    intersections and upward until nothing changes."""
    up, meet = table.up, table.meet
    members = set(a.members | b.members)
    changed = True
    while changed:
        changed = False
        for i, j in itertools.combinations(list(members), 2):
            k = meet[i][j]
            if k not in members:
                members.add(k)
                changed = True
        for i in list(members):
            if not members.issuperset(up[i]):
                members.update(up[i])
                changed = True
    return frozenset(members)


def _check_joins(table):
    """oracle_join against the fixpoint closure on every pair of filters."""
    flts = enumerate_filters(table)
    for a, b in itertools.product(flts, repeat=2):
        assert oracle_join(table, a, b).members == _fixpoint_join(table, a, b)


def _recursive_multisets(keys, length_bound):
    """Multisets of keys of total length <= bound, depth first: each
    multiset, then its extensions by keys from its last one on."""
    out = [()]

    def rec(start, used, acc):
        for k in range(start, len(keys)):
            ln = keys[k][1]
            if used + ln > length_bound:
                continue
            nxt = acc + (keys[k],)
            out.append(nxt)
            rec(k, used + ln, nxt)

    rec(0, 0, ())
    return out


def _check_multisets(table, least_bound):
    """_all_multisets against the depth-first enumeration at every bound
    from the least one to 4, each multiset listed once and after its prefix."""
    keys = oracle._indecomposable_keys(table)
    for bound in range(least_bound, 5):
        found = oracle._all_multisets(keys, bound)
        assert len(found) == len(set(found))
        assert set(found) == set(_recursive_multisets(keys, bound))
        position = {ms: k for k, ms in enumerate(found)}
        assert all(position[ms[:-1]] < k for k, ms in enumerate(found) if ms)


def _class_inside(cls, allowed: frozenset) -> bool:
    """Whether every indecomposable in the class is in the allowed set of
    (prime index, exponent) pairs."""
    return all(c == 0 or (i, j + 1) in allowed
               for i, per in enumerate(cls) for j, c in enumerate(per))


def _reference_subcategories(table, length_bound):
    """enumerate_subcategories with each subset of keys a frozenset, each
    class tested key by key and each least ideal's flags worked out anew."""
    keys = oracle._indecomposable_keys(table)
    triples = []
    for ms in oracle._all_multisets(keys, length_bound):
        mod = _sum_module(table, ms)
        subs = map(_decode, submodules(table, ms))
        triples.append((_reference_iso_class(mod), set(_reference_subquotient_classes(mod, subs))))
    out = []
    for subset in itertools.product(*([[False, True]] * len(keys))):
        allowed = frozenset(k for k, keep in zip(keys, subset) if keep)
        preloc = True
        for p_cls, pairs in triples:
            if not _class_inside(p_cls, allowed):
                continue
            if not all(_class_inside(k, allowed) and _class_inside(q, allowed)
                       for k, q in pairs):
                preloc = False
                break
        if not preloc:
            continue
        localizing = True
        for p_cls, pairs in triples:
            if _class_inside(p_cls, allowed):
                continue
            if any(_class_inside(k, allowed) and _class_inside(q, allowed)
                   for k, q in pairs):
                localizing = False
                break
        least = frozenset(range(table.size))
        for key in allowed:
            least = least & table.principal(table.prime_power(*key))
        closed = _class_inside(_reference_iso_class(_cyclic_module(table, least)), allowed)
        idem = _ideal_product(table, least, least) == least
        exponents = tuple(max((j for (i, j) in allowed if i == l), default=0)
                          for l in range(len(table.prime_exponents)))
        out.append(oracle.SubcategoryData(exponents, localizing, closed,
                                          localizing and closed and idem))
    return tuple(sorted(out, key=lambda s: s.exponents))


@pytest.mark.parametrize("rg", SWEEP, ids=str)
def test_sweep_small_rings_pass(rg, monkeypatch):
    """Every ring passes at the least length bound it admits, the table
    verify_ring built and the tables derived from it match their references,
    and so do the subcategories it enumerated, the element annihilators of
    each module it read, the joins of its filters and its multisets of
    indecomposables."""
    tables, subcategories = [], []

    def recording(ring, scheme=None):
        tables.append(build_table(ring, scheme))
        return tables[-1]

    def recording_subcategories(table, length_bound):
        subcategories.append(enumerate_subcategories(table, length_bound))
        return subcategories[-1]

    monkeypatch.setattr(oracle, "build_table", recording)
    monkeypatch.setattr(oracle, "enumerate_subcategories", recording_subcategories)
    bound = max(m for _, m in rg.factors)
    report = verify_ring(rg, length_bound=bound)
    assert report.passed, _failures(report)
    (table,) = tables
    _check_kernels(table)
    assert subcategories == [_reference_subcategories(table, bound)]
    for ms in oracle._all_multisets(oracle._indecomposable_keys(table), bound):
        assert oracle._module_data(table, ms).annihilators == \
            _reference_element_annihilators(_sum_module(table, ms)), ms
    _check_joins(table)
    _check_multisets(table, bound)


def _reference_submodules(table, multiset, prefix=None, head=None):
    """submodules with each submodule a frozenset of elements: the cosets
    of all of M'/A0 for each A0, kept where p_i^(j-a)·z is in A0, and each
    submodule listed element by element.  M' is `head`, the sum over
    multiset[:-1] as _sum_module lays it out, when the caller has it."""
    if not multiset:
        return (frozenset([0]),)
    if prefix is None:
        prefix = _reference_submodules(table, multiset[:-1])
    if head is None:
        head = _sum_module(table, multiset[:-1])
    smul, add = head.smul_table, head.add_table
    i, j = multiset[-1]
    coset, leaders = cosets(table.add, table.principal(table.prime_power(i, j)))
    n = len(leaders)
    levels = []
    for a in range(j + 1):
        row = table.mul[table.prime_power(i, a)]
        picks = {}
        for s in range(table.size):
            picks.setdefault(coset[row[s]], s)
        levels.append((smul[table.prime_power(i, j - a)], list(picks.items())[1:]))
    out = []
    for low in prefix:
        _, lifts = cosets(add, low)
        base = [x * n for x in low]
        for killer, picks in levels:
            for z in lifts:
                if killer[z] in low:
                    members = base.copy()
                    for c, s in picks:
                        shift = add[smul[s][z]]
                        members.extend([shift[x] * n + c for x in low])
                    out.append(frozenset(members))
    return tuple(out)


def _reference_class_from_sizes(table, sizes):
    """_class_from_sizes with each exponent read by a rounded float
    logarithm, worked out anew on every call."""
    out = []
    k = 0
    for i, e in enumerate(table.prime_exponents):
        base = table.ring.modulus.p ** table.prime_degrees[i]
        logs = [round(math.log(size, base)) for size in sizes[k:k + e]] + [0]
        k += e
        ge = [logs[j - 1] - logs[j] for j in range(1, e + 1)]
        out.append(tuple(ge[j] - (ge[j + 1] if j + 1 < e else 0) for j in range(e)))
    return tuple(out)


def _reference_iso_class(mod):
    """Multiplicities of the indecomposables R/(p_i^j), from the sizes
    |r·M| for the table's primary scalars r, read off the module's table."""
    sizes = tuple(len(set(mod.smul_table[r])) for r in mod.table.primary_scalars)
    return _reference_class_from_sizes(mod.table, sizes)


def _reference_element_annihilators(mod):
    """The ideal index of Ann(x) for every element x, one scan of the
    module's table per distinct column."""
    index = mod.table.ideal_index
    scalars = range(mod.table.size)  # r·x is zero where column[r] is 0
    return frozenset(index[frozenset(itertools.compress(scalars, map(operator.not_, column)))]
                     for column in set(zip(*mod.smul_table)))


def _reference_data(mod):
    """The ModuleData of a module, every part of it scanned off its table."""
    rows = [mod.smul_table[r] for r in mod.table.primary_scalars]
    return oracle.ModuleData(
        mod.size, tuple(sum(1 << x for x, y in enumerate(row) if not y) for row in rows),
        tuple(sum(1 << y for y in set(row)) for row in rows),
        _reference_element_annihilators(mod), _reference_iso_class(mod))


def _reference_subquotient_classes(mod, subs):
    """subquotient_classes on submodules given as frozensets, each count
    the size of a frozenset intersection, each class memoised per module."""
    table = mod.table
    rows = [mod.smul_table[r] for r in table.primary_scalars]
    elements = range(mod.size)
    kernels = [frozenset(itertools.compress(elements, map(operator.not_, row))) for row in rows]
    images = [frozenset(row) for row in rows]
    parts = kernels + images
    classes = {}
    pairs = {}

    def of(sizes):
        if sizes not in classes:
            classes[sizes] = _reference_class_from_sizes(table, sizes)
        return classes[sizes]

    out = []
    for sub in subs:
        counts = (len(sub), *map(len, map(sub.intersection, parts)))
        pair = pairs.get(counts)
        if pair is None:
            inside = counts[1:len(kernels) + 1]
            pair = pairs[counts] = (
                of(tuple(counts[0] // c for c in inside)),
                of(tuple(len(im) // c for im, c in zip(images, counts[len(kernels) + 1:]))))
        out.append(pair)
    return out


def _check_against_reference(rg, length_bound):
    """The bitset submodules of every multiset up to the bound, decoded,
    against the frozenset reference in the same order; the kernels, images,
    element annihilators and class that each sum's ModuleData builds from
    its summands against the scans of its smul rows, the oracle's; and the
    class pairs against the reference's.  Every module the oracle lays out
    adds digit by digit: each indecomposable and each sum that the
    enumeration extends, laid out tuple by tuple from cosets, has the
    oracle's add table of its size and the oracle's smul rows."""
    table = build_table(rg)
    keys = oracle._indecomposable_keys(table)
    found_of, reference_of = {}, {}  # each multiset's, for its extensions
    # each indecomposable and, as the loop reaches it, each prefix
    heads = {(key,): _sum_module(table, (key,)) for key in keys}
    for ms in oracle._all_multisets(keys, length_bound):
        found = found_of[ms] = submodules(table, ms, found_of.get(ms[:-1]))
        if ms and ms[:-1] not in heads:
            heads[ms[:-1]] = _sum_module(table, ms[:-1])
        reference = reference_of[ms] = _reference_submodules(
            table, ms, reference_of.get(ms[:-1]), heads.get(ms[:-1]))
        assert len(found) == len(reference), ms
        assert all(map(_holds_exactly, found, reference)), ms
        mod = _Module(table, None, oracle._smul_rows(table, ms))
        data = oracle._module_data(table, ms)
        assert data == _reference_data(mod), ms
        assert subquotient_classes(table, data, found) == \
            _reference_subquotient_classes(mod, reference), ms
    for ms, mod in heads.items():
        assert mod.add_table == oracle._add_rows(table, mod.size), ms
        assert mod.smul_table == oracle._smul_rows(table, ms), ms


def _admits_bound_4(rg) -> bool:
    try:
        oracle._check_length_bound(rg, 4)
    except QfiltError:
        return False
    return True


@pytest.mark.parametrize("rg", [rg for rg in SWEEP if _admits_bound_4(rg)], ids=str)
def test_sweep_bitsets_match_reference(rg):
    _check_against_reference(rg, 4)


def test_bitsets_match_reference_at_bound_6():
    # (F2)^6 has 2,825 subspaces, and every one of them is listed
    _check_against_reference(ring(2, "x"), 6)


def test_class_from_sizes_rejects_non_power():
    # |r·X| counts a module over F2, so 6 is a broken count
    table = build_table(R_X3)
    with pytest.raises(QfiltError, match="^module size 6 is not a power of 2$"):
        oracle._class_from_sizes(table, (6, 4, 2))
    assert table.classes == {}


# the nine rings of the oracle benchmark at length bound 4; F2[x]/(x^5)
# needs bound 5
BENCHMARK_RINGS = [(ring(2, "x^2"), 4), (ring(2, "x^2+x"), 4), (R_X3, 4), (R_MIXED, 4),
                   (ring(2, "x^4"), 4), (ring(2, "x^5"), 5), (ring(3, "x"), 4),
                   (ring(3, "x^2"), 4), (ring(3, "x^3+2x^2"), 4)]


@pytest.mark.parametrize("rg,bound", BENCHMARK_RINGS, ids=str)
def test_exact_classes_match_float_logs(rg, bound):
    # every class the subcategory enumeration reads passes through the
    # ring table's memo, keyed by the sizes it came from
    table = build_table(rg)
    enumerate_subcategories(table, bound)
    assert table.classes
    for sizes, cls in table.classes.items():
        assert cls == _reference_class_from_sizes(table, sizes), sizes
