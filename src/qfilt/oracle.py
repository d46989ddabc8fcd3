"""Brute-force ground truth over finite quotient rings.

Everything the symbolic engine claims about filters on an Artinian
quotient k[x]/(f) can be recomputed here by exhaustive enumeration: the
ring is laid out as explicit addition/multiplication tables, its ideals
are its principal ideals (k[x]/(f) is a principal ideal ring, and one pass
over the sums of pairs confirms it), filters are enumerated as up-closed
intersection-closed subsets of the ideal list, and both
definitions of the filter product are evaluated element by element.
The tables are built by index arithmetic on coefficient digits, each row
from an earlier one, with no polynomial arithmetic per entry, and
self-checked against the ring axioms; up to 64 elements the associative
and distributive laws are read at the additive generators, which is
complete by Light's test and bilinearity (see _self_check).  Only they
are |R|^2: each ideal keeps its least generator, and every table derived
from them is read off the generators.  For ideals L and J = h·R, J lies
in a^{-1}L exactly when ah is in L, and a^{-1}L depends on a only through
a·R, so `colon` holds g^{-1}L for each ideal L and each generator g.  What
the filter tests read is laid out beside them once per ring, as tables of
ideal indices: `up` (the ideals containing each ideal), `meet` (the
intersection of each pair), `colon_range` (the colon ideals a^{-1}L over
the a of each ideal, read off `colon`) and `product_up` (the ideals
holding the products xy of each pair of ideals, those that hold the
product of the generators).  A filter, and each element annihilator, is a
set of ideal indices, and the join of two filters is read off `up` and
`meet`.
Subcategories are enumerated independently of the filter lattice, as sets
of indecomposable module classes certified by explicit submodule
enumeration, each set a bitmask over the indecomposables, and the
bijection between the two enumerations is checked rather than assumed.

A finite module is its elements 0..n-1 (0 the zero) with one row for
multiplication by each ring element, and a submodule is an int bitset
over those elements, bit x set when x is in it.  Every module here adds
digit by digit mod p, so its add table depends only on its size and is
built once per size and ring table.  R numbers its elements by their
base-p coefficient digits.  R/I numbers each coset of I by its least
element, which is zero at the pivots of an echelon basis of I, so the
coset's number is the number its other digits spell, and R/R is the zero
module.  A direct sum numbers its element (x, c) as x·|C| + c, which
joins the digits of x to those of c.  The submodules of a direct sum
M' + R/(p^j) come from those of M' by Goursat's lemma, each exactly
once: a submodule is its intersection with M', the image p^a·R/(p^j) of
its last coordinate, and the coset of M' that the image's generator
lifts to.  The classes of a submodule N and of its quotient are read off
counts of set bits: for each scalar r that picks out p_i^j times the
p_i-primary part, |r·N| is |N| / |N ∩ ker r| and |r·(M/N)| is
|r·M| / |N ∩ r·M|.

Each indecomposable R/(p_i^j) is laid out once per ring table, from the
cosets of (p_i^j): its kernels and images of the primary scalars, the
annihilators of its elements, read off `colon`, and the picks that extend
submodules by it.  What is read of a direct sum M' + C, its ModuleData,
is built from its prefix's and its last summand's, with no table of the
sum: the kernel and the image of r on M' + C are those on M' times those
on C, and Ann(x, c) is Ann(x) ∩ Ann(c).  Only the sums that the submodule
enumeration extends get rows for multiplication, each from its prefix's
and its last summand's, so an indecomposable gets them only when it is
such a sum.  The subcategory enumeration
and the membership check share one ModuleData per sum, and the
membership check reads its element annihilators once for all filters.

verify_ring() bundles all of these cross-checks for one ring and reports
each as a named pass/fail line with counterexample details on failure.
Whatever the factorization of f decides (the element and ideal counts,
the modulus degree, the least length bound, the size of the largest
module) is checked before any table is laid out.  The engine's side of
the bridge is one scheme of the ring, verify_ring's, which its ring table
keeps, and the ideal sheaf of each ideal, built once per ring table.
"""

import itertools
import math
import operator
from functools import cached_property, reduce

from .classify import classify, member
from .config import MAX_ORACLE_ELEMENTS, MAX_ORACLE_IDEALS, MAX_SUBCAT_LENGTH
from .errors import LatticeTooLargeError, QfiltError, RingMismatchError
from .filters import (contains, enumerate_quotient_filters, is_principal, is_product_closed,
                      join as fjoin, meet as fmeet, product as fproduct)
from .ideals import QuotientRing
from .schemes import AffineQuotient, sheaf
from .spectrum import module_data
from .values import Value

IdealSet = frozenset


class FiniteRingTable(Value):
    """k[x]/(f) as explicit tables on the elements 0..n-1, element 0 the zero
    (see build_table for the numbering).

    `ideals` lists every ideal largest first, and `generators` the least
    element that generates each.  `add` and `mul` are the only tables of
    |R|^2 entries; the cached tables of ideal indices are read off the
    generators, each in at most ideals·|R| lookups.  `prime_elements`
    holds the element index of each prime factor, and `scheme` is the
    engine's scheme of the ring, one object for every engine call on the
    table.  Neither `scheme` nor the cached tables in __dict__, the
    per-module memos among them, stay in equality, repr or copies: a copy
    builds its own scheme."""

    __slots__ = ("ring", "add", "mul", "one", "ideals", "generators", "prime_exponents",
                 "prime_degrees", "prime_elements", "scheme", "__dict__")
    _fields = __slots__[:-2]  # neither scheme nor __dict__

    def __reduce__(self):
        return FiniteRingTable, (*self._values(), AffineQuotient(self.ring))

    @property
    def size(self) -> int:
        return len(self.add)

    def prime_power(self, i: int, j: int) -> int:
        """Element index of (i-th prime factor)**j."""
        out = self.one
        for _ in range(j):
            out = self.mul[out][self.prime_elements[i]]
        return out

    def principal(self, a: int) -> IdealSet:
        return frozenset(self.mul[a])

    @cached_property
    def ideal_index(self) -> dict[IdealSet, int]:
        """The position of each ideal in `ideals`."""
        return {members: i for i, members in enumerate(self.ideals)}

    @cached_property
    def ideal_of(self) -> tuple[int, ...]:
        """ideal_of[a] is the index of the ideal a·R: the last listed ideal
        that holds a, since every ideal that holds a holds a·R and the
        ideals are listed largest first."""
        where = {}
        for i, members in enumerate(self.ideals):
            where.update(dict.fromkeys(members, i))
        return tuple(map(where.__getitem__, range(self.size)))

    @cached_property
    def up(self) -> tuple[frozenset, ...]:
        """up[i] is the set of indices of the ideals that contain the i-th,
        those that hold its generator."""
        return tuple(frozenset(j for j, big in enumerate(self.ideals) if g in big)
                     for g in self.generators)

    @cached_property
    def meet(self) -> tuple[tuple[int, ...], ...]:
        """meet[i][k] is the index of the intersection of the i-th and k-th ideals."""
        return tuple(tuple(self.ideal_index[a & b] for b in self.ideals) for a in self.ideals)

    @cached_property
    def colon(self) -> tuple[tuple[int, ...], ...]:
        """colon[l][k] is the index of the colon ideal g^{-1}L = {b : gb in L},
        L the l-th ideal and g the generator of the k-th, which is a^{-1}L
        for every a with a·R the k-th ideal.  A listed J = h·R lies in it
        exactly when gh is in L, and the ideals are listed largest first,
        so it is the first such J."""
        gens = self.generators
        rows = [self.mul[g] for g in gens]
        return tuple(tuple(next(j for j, h in enumerate(gens) if row[h] in big) for row in rows)
                     for big in self.ideals)

    @cached_property
    def colon_range(self) -> tuple[tuple[frozenset, ...], ...]:
        """colon_range[l][j] is the set of indices of the colon ideals
        a^{-1}L = {b : ab in L}, L the l-th ideal, for a in the j-th ideal.
        The a·R for a in the j-th ideal are the ideals inside it, those that
        hold their generators.  Ideal 0 is the unit ideal, so
        colon_range[l][0] holds every a^{-1}L."""
        gens = self.generators
        return tuple(tuple(frozenset(c for c, g in zip(per, gens) if g in ideal)
                           for ideal in self.ideals)
                     for per in self.colon)

    @cached_property
    def product_up(self) -> tuple[tuple[frozenset, ...], ...]:
        """product_up[i][j] is the set of indices of the ideals that hold
        every product xy, x in the i-th ideal and y in the j-th: the product
        of g·R and h·R is gh·R, so they are the ideals that hold gh."""
        gens, up, ideal_of = self.generators, self.up, self.ideal_of
        return tuple(tuple(up[ideal_of[row[h]]] for h in gens)
                     for row in (self.mul[g] for g in gens))

    @cached_property
    def ideal_exponents(self) -> tuple[tuple[int, ...], ...]:
        """Vanishing order of each ideal at each prime factor."""
        powers = [[self.principal(self.prime_power(i, j)) for j in range(1, e + 1)]
                  for i, e in enumerate(self.prime_exponents)]
        return tuple(tuple(sum(members <= power for power in per) for per in powers)
                     for members in self.ideals)

    @cached_property
    def primary_scalars(self) -> tuple[int, ...]:
        """r_ij = p_i^j · prod_{l != i} p_l^(e_l) for each prime i and
        0 <= j < e_i, in that order.  The second factor kills every primary
        part but the i-th and is invertible on it, so r_ij·X is p_i^j times
        the p_i-primary part of X."""
        out = []
        for i, e in enumerate(self.prime_exponents):
            others = self.one
            for l, e_l in enumerate(self.prime_exponents):
                if l != i:
                    others = self.mul[others][self.prime_power(l, e_l)]
            out.extend(self.mul[others][self.prime_power(i, j)] for j in range(e))
        return tuple(out)

    @cached_property
    def classes(self) -> dict:
        """The class of a module from each tuple of image sizes worked out
        so far (see _class_from_sizes); the sums of one ring share most."""
        return {}

    @cached_property
    def indecomposables(self) -> dict:
        """The Indecomposable of each key (i, j), laid out once."""
        return {key: _lay_out(self, key) for key in _indecomposable_keys(self)}

    @cached_property
    def sums(self) -> dict:
        """The ModuleData of the direct sum over each multiset worked out so
        far (see _module_data), from the empty sum R/R on."""
        return {(): _quotient_data(self, 0, *cosets(self.add, self.ideals[0]))}

    @cached_property
    def smuls(self) -> dict:
        """The rows r·x, one per ring element r, of the direct sum over each
        multiset that submodules() extends (see _smul_rows), from the empty
        sum R/R on."""
        return {(): [[0]] * self.size}

    @cached_property
    def adds(self) -> dict:
        """The add table of each module size asked for so far (see
        _add_rows)."""
        return {}

    @cached_property
    def ideal_sheaves(self) -> tuple:
        """The engine's ideal sheaf of each ideal, from its vanishing orders."""
        points = [pt for pt, _ in self.scheme.primes()]
        return tuple(sheaf(self.scheme, dict(zip(points, exps))) for exps in self.ideal_exponents)


def _checked_primes(ring: QuotientRing):
    """The prime factors of the modulus, once the element count p^deg and
    the ideal count prod(e_i + 1) are within the oracle's caps.  k[x]/(f)
    is a principal ideal ring whose ideals are the monic divisors of f, so
    the ideal count is exact."""
    n = ring.modulus.p ** ring.modulus.degree
    if n > MAX_ORACLE_ELEMENTS:
        raise LatticeTooLargeError(
            f"{n} ring elements exceed the oracle limit {MAX_ORACLE_ELEMENTS}")
    primes = ring.factors
    if math.prod(e + 1 for _, e in primes) > MAX_ORACLE_IDEALS:
        raise LatticeTooLargeError(
            f"more than {MAX_ORACLE_IDEALS} ideals; lattice too large")
    return primes


def build_table(ring: QuotientRing, scheme=None) -> FiniteRingTable:
    """Lay out k[x]/(f) as tables, self-check the axioms, enumerate ideals.
    The caps are checked from the factorization before any table is laid
    out.
    `scheme` is the engine's scheme of the ring when the caller has one;
    otherwise the table builds its own.

    Element i is the polynomial whose coefficients of x^0..x^(deg-1) are
    the base-p digits of i, most significant first, in the order of
    itertools.product; element 0 is the zero polynomial, so the zero of
    every module is 0.  The tables are built by index arithmetic: `add`
    adds the digits mod p (_digit_sums), and the `mul` row for a is the row
    for a - x^k plus x^k·b, x^k·b read off the companion matrix of f, each
    entry looked up in `add`.  _enumerate_ideals lists the ideals with
    their least generators, from which the tables of ideal indices are
    derived when first read (see FiniteRingTable)."""
    primes = _checked_primes(ring)
    modulus = ring.modulus
    p, deg = modulus.p, modulus.degree
    n = p ** deg
    digits = list(itertools.product(range(p), repeat=deg))  # coefficients of x^0..
    weights = [p ** (deg - 1 - k) for k in range(deg)]  # the index of x^k

    def index(coeffs) -> int:
        return sum(c % p * w for c, w in zip(coeffs, weights))

    # times_x[b] is x·b by the companion matrix of the monic
    # f = x^deg + sum_k tail[k]·x^k
    tail = modulus.coeffs[:deg]
    times_x = [index([-d[-1] * tail[0]] + [d[k - 1] - d[-1] * tail[k] for k in range(1, deg)])
               for d in digits]
    powers = [list(range(n))]  # powers[k][b] is x^k·b
    for _ in range(1, deg):
        powers.append([times_x[b] for b in powers[-1]])
    add = _digit_sums(p, deg)
    # last[a] is the k of a's last nonzero coefficient, that of x^k:
    # deg - 1 - v_p(a), since x^k has index p^(deg-1-k)
    last = [deg - 1] * n
    for k in range(deg - 2, -1, -1):
        last[::weights[k]] = [k] * (n // weights[k])
    mul = [(0,) * n]
    for a in range(1, n):
        # a is a - x^k plus x^k
        k = last[a]
        mul.append(tuple(map(operator.getitem, map(add.__getitem__, mul[a - weights[k]]),
                             powers[k])))
    mul = tuple(mul)
    one = index((1,))
    _self_check(n, add, mul, one)
    ideals, generators = _enumerate_ideals(add, mul)
    return FiniteRingTable(ring, add, mul, one, ideals, generators,
                           tuple(m for _, m in primes),
                           tuple(q.degree for q, _ in primes),
                           tuple(index((q % modulus).coeffs) for q, _ in primes),
                           AffineQuotient(ring) if scheme is None else scheme)


def _self_check(n: int, add, mul, one: int) -> None:
    """The ring axioms on tables whose rows are tuples.  The unit laws are
    read off columns, and commutativity compares, for each block of 64
    rows, their entries from the block's first column on with the same
    block of each later row; when either fails, each row is compared with
    its unit entries and its column in order, so the first failing a names
    the law.

    Associativity and distributivity compare, for each pair (a, b), the
    row over c of each side.  Up to 64 elements, b runs only over the
    additive generators G (_additive_generators): every element is reached
    from G by adding elements of G, one at a time.  That is complete, since
    the b at which a law holds for all a and c are closed under +:
    - for (a + b) + c = a + (b + c) by Light's test, so + is associative;
    - for a·(b + c) = a·b + a·c once + is, so each row is additive;
    - for (a·b)·c = a·(b·c) once · is commutative and each row additive,
      since both sides are then additive in b.
    A pair that differs fails some triple, so the pairs are then read again
    with b over every element in order.  A row that differs is scanned
    entry by entry, so the first failing (a, b, c) names the law, as an
    entry-by-entry scan of every triple would.  Above 64 elements only a
    fixed stride sample of the pairs (a, b) is checked, each still over
    every c."""
    rng = range(n)
    column = operator.itemgetter
    units = (list(map(column(0), add)) == list(rng) and list(map(column(one), mul)) == list(rng)
             and not any(map(column(0), mul)))
    if not (units and _commutes(add) and _commutes(mul)):
        for a in rng:
            if add[a][0] != a or mul[a][one] != a or mul[a][0] != 0:
                raise QfiltError("ring tables fail the unit laws")
            if add[a] != tuple(map(column(a), add)) or mul[a] != tuple(map(column(a), mul)):
                raise QfiltError("ring tables are not commutative")
    if n > 64:
        sample = range(0, n, n // 32)
        _check_pairs(add, mul, sample, sample)
    else:
        try:
            _check_pairs(add, mul, rng, _additive_generators(add))
        except QfiltError:
            _check_pairs(add, mul, rng, rng)


def _check_pairs(add, mul, sample, middles) -> None:
    """Compare, for each a in `sample` and b in `middles` (a subset of
    it), the rows over c of the two sides of each law, and where one
    differs scan the triples (a, b, c) entry by entry, raising at the
    first that fails."""
    rng = range(len(add))
    # at_add[b](row) is the row read at add[b][c] for each c, at_mul alike
    at_add = {b: operator.itemgetter(*add[b]) for b in middles}
    at_mul = {b: operator.itemgetter(*mul[b]) for b in sample}
    for a, b in itertools.product(sample, middles):
        add_a, mul_a = add[a], mul[a]
        if (add[add_a[b]] != at_add[b](add_a) or mul[mul_a[b]] != at_mul[b](mul_a)
                or at_add[b](mul_a) != at_mul[a](add[mul_a[b]])):
            _check_triples(add, mul, ((a, b, c) for c in rng))


def _additive_generators(add) -> list[int]:
    """The additive generators G: the elements, least first from 1 and
    with 0 last, that the maps x -> x + g for g among those taken before do
    not reach from them.  So the maps x -> x + g for g in G reach every
    element from G.  On build_table's tables G is the monomials x^(d-1),
    ..., x, 1, at 1, p, ..., p^(d-1); a table that fails the ring axioms
    may need more."""
    n = len(add)
    gens = []
    reached = bytearray(n)
    for g in itertools.chain(range(1, n), (0,)):
        if not reached[g]:
            gens.append(g)
            reached[g] = 1
            todo = list(itertools.compress(range(n), reached))
            while todo:
                x = todo.pop()
                for y in map(add[x].__getitem__, gens):
                    if not reached[y]:
                        reached[y] = 1
                        todo.append(y)
    return gens


def _commutes(rows) -> bool:
    """Whether a square table is symmetric, one block of 64 rows at a time:
    the block read from its first column on, a column at a time, against
    the same block of each row from the block's first on."""
    for start in range(0, len(rows), 64):
        block = rows[start:start + 64]
        head = operator.itemgetter(slice(start, start + 64))
        if any(map(operator.ne, zip(*(row[start:] for row in block)), map(head, rows[start:]))):
            return False
    return True


def _check_triples(add, mul, triples) -> None:
    for a, b, c in triples:
        if add[add[a][b]][c] != add[a][add[b][c]]:
            raise QfiltError("addition is not associative")
        if mul[mul[a][b]][c] != mul[a][mul[b][c]]:
            raise QfiltError("multiplication is not associative")
        if mul[a][add[b][c]] != add[mul[a][b]][mul[a][c]]:
            raise QfiltError("distributivity fails")


def _enumerate_ideals(add, mul) -> tuple[tuple[IdealSet, ...], tuple[int, ...]]:
    """The ideals of a principal ideal ring, its principal ideals a·R,
    largest first, and the least generator a of each.  A sum of two of them
    that is not among them shows the tables are not of such a ring; the sum
    I1 + I2 is the union of the cosets y + I1, one for each y of I2 not yet
    in it."""
    found = {}
    for a, row in enumerate(mul):
        found.setdefault(frozenset(row), a)
    for i1, i2 in itertools.combinations(found, 2):
        total = set(i1)
        for y in i2:
            if y not in total:
                total.update(map(add[y].__getitem__, i1))
        if frozenset(total) not in found:
            raise QfiltError("the ring has an ideal that is not principal")
    ideals = tuple(sorted(found, key=lambda s: (-len(s), sorted(s))))
    return ideals, tuple(map(found.__getitem__, ideals))


class ExplicitFilter(Value):
    """A filter as an explicit subset of the ideal list."""

    __slots__ = ("table", "members")

    def __init__(self, table: FiniteRingTable, members: frozenset[int]):
        set_table, set_members = ExplicitFilter._setters
        set_table(self, table)
        set_members(self, members)
        up, meet = table.up, table.meet
        if 0 not in members:  # the ideals are listed largest first
            raise QfiltError("a filter must contain the unit ideal")
        for i in members:
            if not members.issuperset(up[i]):
                raise QfiltError("filter is not upward closed")
            if not members.issuperset(map(meet[i].__getitem__, members)):
                raise QfiltError("filter is not intersection closed")


def enumerate_filters(table: FiniteRingTable) -> tuple[ExplicitFilter, ...]:
    """All filters of the ideal lattice: the up-sets that hold the unit
    ideal and are closed under intersection.  The ideals are listed largest
    first, so each up-set of the first i + 1 ideals is one of the first i,
    with the i-th added where it holds every larger ideal."""
    meet = table.meet
    upsets = [frozenset()]
    for i, up in enumerate(table.up):
        larger = up - {i}
        upsets += [chosen | {i} for chosen in upsets if chosen >= larger]
    out = [ExplicitFilter(table, chosen) for chosen in upsets
           if 0 in chosen and all(meet[a][b] in chosen
                                  for a, b in itertools.combinations(chosen, 2))]
    return tuple(sorted(out, key=lambda f: (-len(f.members), sorted(f.members))))


def check_prelocalizing(flt: ExplicitFilter) -> bool:
    """Whether a^{-1}L stays in the filter for every a and member L.  It
    always does: in a commutative ring a^{-1}L contains L, and the
    ExplicitFilter constructor enforces up-closure."""
    colon_range = flt.table.colon_range
    return all(flt.members.issuperset(colon_range[i][0]) for i in flt.members)


def product_two_ways(f1: ExplicitFilter, f2: ExplicitFilter):
    """The filter product by its two definitions.

    via_inverse: L is a member when some L' in f1 contains L with a^{-1}L
    in f2 for every a in L', that is when colon_range[L][L'] lies in f2.
    via_ideals: L contains a product of members, that is L is in
    product_up[i][j] for some member i of f1 and j of f2.
    Returns (via_inverse, via_ideals, equal)."""
    table = f1.table
    in_f1, in_f2 = f1.members, f2.members
    via_inv = frozenset(l for l, (up, ranges) in enumerate(zip(table.up, table.colon_range))
                        if any(in_f2.issuperset(ranges[j]) for j in up if j in in_f1))
    # an ideal holds the span of the products exactly when it holds the
    # products, since it is closed under addition
    product_up = table.product_up
    via_ide = frozenset().union(*(product_up[i][j] for i in in_f1 for j in in_f2))
    a = ExplicitFilter(table, via_inv)
    b = ExplicitFilter(table, via_ide)
    return a, b, a.members == b.members


def _meet_all(table: FiniteRingTable, indices) -> int:
    """The index of the intersection of the ideals of the given indices;
    the unit ideal, index 0, for none."""
    return reduce(lambda a, b: table.meet[a][b], indices, 0)


# ---------------------------------------------------------------------------
# explicit modules


class ModuleData(Value):
    """What the oracle reads of a finite module M: its size; `kernels` and
    `images`, the kernel of each primary scalar r on M and the image r·M,
    int bitsets over M's elements in the order of table.primary_scalars;
    `annihilators`, the ideal index of Ann(x) for every element x, so that
    a filter's subcategory holds M exactly when each is a member; and
    `iso_class`, the multiplicities of the indecomposables in M."""

    __slots__ = ("size", "kernels", "images", "annihilators", "iso_class")


class Indecomposable(Value):
    """The indecomposable C = R/(p_i^j) of a key (i, j), laid out once per
    ring table from the cosets of (p_i^j): `data` is its ModuleData, and
    `levels` holds, for each a = 0..j, the element index of p_i^(j-a) and
    the picks of p_i^a·C, each nonzero element c of p_i^a·C with one ring
    element s that takes p_i^a·1 to it (see submodules).  C adds digit by
    digit, as every module here does, so it keeps no add table, and its
    rows for multiplication are the one-summand sum's (see _smul_rows)."""

    __slots__ = ("data", "levels")


def cosets(add_table, sub) -> tuple[list[int], list[int]]:
    """The cosets of the subgroup `sub` of a group given by its addition
    table: the coset index of every element, and one representative per
    coset, its least element (the coset's leader).  Cosets are numbered by
    their leaders, so the coset of 0 is 0."""
    coset = [-1] * len(add_table)
    leaders: list[int] = []
    for x, row in enumerate(add_table):
        if coset[x] < 0:
            for s in sub:
                coset[row[s]] = len(leaders)
            leaders.append(x)
    return coset, leaders


def _quotient_data(table: FiniteRingTable, l: int, coset: list[int],
                   leaders: list[int]) -> ModuleData:
    """The ModuleData of R/I, I the l-th ideal, its elements the cosets of I
    as `cosets` numbers them, read off the ring's tables: r kills the coset
    of a when r·a is in I, that is in coset 0, r·(R/I) is the set of cosets
    of the r·a, and Ann(a + I) is the colon ideal a^{-1}I, read off
    `colon` by the ideal a·R."""
    kernels, images = [], []
    for r in table.primary_scalars:
        row = table.mul[r]
        kernels.append(_bitset(c for c, a in enumerate(leaders) if not coset[row[a]]))
        images.append(_bitset(set(map(coset.__getitem__, row))))
    annihilators = frozenset(map(table.colon[l].__getitem__,
                                 map(table.ideal_of.__getitem__, leaders)))
    return ModuleData(len(leaders), tuple(kernels), tuple(images), annihilators,
                      _class_from_sizes(table, tuple(map(int.bit_count, images))))


def _key_cosets(table: FiniteRingTable, key: tuple[int, int]) -> tuple[list[int], list[int]]:
    """The cosets of (p_i^j) for the key (i, j), as `cosets` gives them."""
    return cosets(table.add, table.principal(table.prime_power(*key)))


def _lay_out(table: FiniteRingTable, key: tuple[int, int]) -> Indecomposable:
    """The Indecomposable of the key (i, j), from the cosets of (p_i^j):
    the ring element r is coset[r] in C, so p_i^a·s·1 is coset[p_i^a·s].
    Its rows for multiplication are left to _smul_rows, which lays them
    out only for the sums that the submodule enumeration extends."""
    i, j = key
    coset, leaders = _key_cosets(table, key)
    levels = []
    for a in range(j + 1):
        row = table.mul[table.prime_power(i, a)]
        picks = {}  # each element of p_i^a·C, with one s reaching it from 1
        for s, c in enumerate(map(coset.__getitem__, row)):
            picks.setdefault(c, s)
        # the first pick is 0, reached by s = 0: its part of N is A0 itself
        levels.append((table.prime_power(i, j - a), tuple(picks.items())[1:]))
    data = _quotient_data(table, table.ideal_of[table.prime_power(i, j)], coset, leaders)
    return Indecomposable(data, tuple(levels))


def _module_data(table: FiniteRingTable, multiset: tuple) -> ModuleData:
    """The ModuleData of the direct sum over a multiset of keys, each built
    once per ring table from its prefix's and its last summand's, with no
    table of the sum.  The element (x, c) of M' + C is x·|C| + c, and a
    scalar acts on each coordinate, so the kernel and the image of r on
    M' + C are those on M' times those on C: the bitset over M' spread out
    to every |C|-th bit, shifted by each bit of the one over C.  Ann(x, c)
    is Ann(x) ∩ Ann(c), and the class comes from the sizes of the images."""
    data = table.sums.get(multiset)
    if data is None:
        head = _module_data(table, multiset[:-1])
        last = table.indecomposables[multiset[-1]].data
        gap = "0" * (last.size - 1)

        def product(bits: int, part: int) -> int:
            # bit x goes to bit x·|C|; the product sets x·|C| + c for each
            # bit c of part, with no carries since every c is below |C|
            return int(gap.join(bin(bits)[2:]), 2) * part

        images = tuple(map(product, head.images, last.images))
        meet = table.meet
        data = table.sums[multiset] = ModuleData(
            head.size * last.size, tuple(map(product, head.kernels, last.kernels)), images,
            frozenset(meet[a][b] for a in head.annihilators for b in last.annihilators),
            _class_from_sizes(table, tuple(map(int.bit_count, images))))
    return data


def _sum_rows(pairs, n: int) -> list[list[int]]:
    """The rows of a direct sum's table from pairs of summand rows, the
    second summand of size n."""
    return [[x * n + y for x in ra for y in rb] for ra, rb in pairs]


def _smul_rows(table: FiniteRingTable, multiset: tuple) -> list[list[int]]:
    """The rows r·x of the direct sum over a multiset of keys, each built
    once per ring table from its prefix's and its last summand's, since
    r·(x, c) is (r·x, r·c).  The last summand's are those of its one-summand
    sum R/(p_i^j), where r·c is the coset of r·a, a the leader of c.  When
    the submodule enumeration extends a sum that ends in C, it extends C
    alone too, so it lays out rows only for the sums it extends."""
    rows = table.smuls.get(multiset)
    if rows is None:
        if len(multiset) == 1:
            coset, leaders = _key_cosets(table, multiset[0])
            at_leaders = operator.itemgetter(*leaders)
            rows = [list(map(coset.__getitem__, at_leaders(row))) for row in table.mul]
        else:
            last = _smul_rows(table, multiset[-1:])
            rows = _sum_rows(zip(_smul_rows(table, multiset[:-1]), last), len(last[0]))
        table.smuls[multiset] = rows
    return rows


def _digit_sums(p: int, k: int) -> tuple[tuple[int, ...], ...]:
    """The add table of the elements 0..p^k-1, each read as k base-p digits
    and added digit by digit mod p, one leading digit joined at a time.
    With n elements below it, the element h·n + u adds g·n + v to make
    ((h + g) mod p)·n + (u + v).  So the row of u spells out, for g =
    0..p-1, the block g·n + (u + v) over v, and the row of h·n + u is that
    row with its first h blocks moved to its end."""
    rows = [(0,)]
    for _ in range(k):
        n = len(rows)
        numbers = list(range(n * p))
        blocks = [numbers[g * n:(g + 1) * n].__getitem__ for g in range(p)]
        out = [None] * (n * p)
        for u, low in enumerate(rows):
            row = tuple(itertools.chain.from_iterable(map(block, low) for block in blocks))
            for cut in range(0, n * p, n):
                out[cut + u] = row[cut:] + row[:cut]
        rows = out
    return tuple(rows)


def _add_rows(table: FiniteRingTable, size: int) -> tuple[tuple[int, ...], ...]:
    """The add table of every module of `size` elements, built once per
    ring table: each adds digit by digit mod p (see the module docstring)."""
    rows = table.adds.get(size)
    if rows is None:
        p = table.ring.modulus.p
        rows = table.adds[size] = _digit_sums(p, _exact_log(size, p))
    return rows


_FLAG = bytes.maketrans(b"01", b"\x00\x01")


def _flags(bits: int, size: int) -> bytes:
    """flags[x] is 1 when element x is in the bitset and 0 otherwise, for
    the elements 0..size-1."""
    return bin(bits)[:1:-1].ljust(size, "0").encode().translate(_FLAG)


def submodules(table: FiniteRingTable, multiset: tuple, prefix=None) -> tuple[int, ...]:
    """All submodules of the direct sum over `multiset`, each exactly once,
    each an int bitset over the sum's elements; the empty sum's one
    submodule is (1,).

    The sum is M = M' + C, with M' the sum over multiset[:-1] and C =
    R/(p_i^j) its last summand.  By Goursat's lemma a submodule N is one
    triple: its part A0 = N ∩ M', a submodule of M'; the level a with
    pi_C(N) = p_i^a·C; and a coset z + A0 of M'/A0 with p_i^(j-a)·z in A0,
    since (p_i^(j-a)) annihilates y_a = p_i^a·1 in C.  N is then the set
    of (s·z + x, s·y_a) for x in A0 and one ring element s per element of
    p_i^a·C, the picks of C's level a.  Every such z lies in the preimage
    B = {z : p_i^j·z in A0}, a submodule of M' and a union of cosets of A0,
    so only the cosets inside B are laid out, each named by its least
    element.  The element (x, c) of M is x·|C| + c, so the elements
    (w + x, c) for x in A0 are the bitset of the coset w + A0 spread out
    to every |C|-th bit, shifted by c.  `prefix` is submodules(table,
    multiset[:-1]), a tuple of bitsets over M', when the caller has it."""
    if not multiset:
        return (1,)
    if prefix is None:
        prefix = submodules(table, multiset[:-1])
    smul = _smul_rows(table, multiset[:-1])
    add = _add_rows(table, len(smul[0]))
    last = table.indecomposables[multiset[-1]]
    n = last.data.size
    elements = range(len(add))
    spread = [1 << (x * n) for x in elements]  # the element (x, 0)
    levels = [(smul[r], picks) for r, picks in last.levels]
    deepest = levels[0][0]  # p_i^j, whose preimage of A0 is B
    out = []
    for low in prefix:
        flags = _flags(low, len(add))
        members = list(itertools.compress(elements, flags))  # A0
        # the cosets inside B by their least elements z, in increasing
        # order: the index of the coset of each element of B, and parts[k],
        # the k-th coset spread out, the elements (w, 0) for w in it
        coset_of = [-1] * len(add)
        parts = []
        lifts = []
        for z in itertools.compress(elements, map(flags.__getitem__, deepest)):
            if coset_of[z] < 0:
                k = len(lifts)
                row = add[z]
                part = 0
                for x in members:
                    y = row[x]
                    coset_of[y] = k
                    part |= spread[y]
                parts.append(part)
                lifts.append(z)
        base = parts[0]
        for killer, picks in levels:
            for z in lifts:
                if flags[killer[z]]:
                    sub = base
                    for c, s in picks:
                        sub |= parts[coset_of[smul[s][z]]] << c
                    out.append(sub)
    return tuple(out)


def _bitset(elements) -> int:
    """The bitset of a collection of distinct elements."""
    return sum(1 << x for x in elements)


def subquotient_classes(table: FiniteRingTable, data: ModuleData, subs) -> list[tuple]:
    """The (submodule, quotient) class pair of each submodule N in `subs`,
    a sequence of int bitsets over the elements of the module of `data`,
    from counts: |r·N| = |N| / |N ∩ ker r| and |r·(M/N)| = |r·M| / |N ∩ r·M|
    for each primary scalar r, the kernels and images those of `data`.
    The pair depends only on |N| and those intersection sizes, so it is
    worked out once per tuple of them.  Returns a list of pairs of classes,
    one per submodule, in the order of `subs`."""
    image_sizes = [image.bit_count() for image in data.images]
    split = len(data.kernels) + 1
    # the counts of each submodule, a column per kernel and image
    columns = [map(int.bit_count, map(part.__and__, subs)) for part in data.kernels + data.images]
    pairs = {}
    out = []
    for counts in zip(map(int.bit_count, subs), *columns):
        pair = pairs.get(counts)
        if pair is None:
            pair = pairs[counts] = (
                _class_from_sizes(table, tuple(counts[0] // c for c in counts[1:split])),
                _class_from_sizes(table, tuple(size // c for size, c
                                               in zip(image_sizes, counts[split:]))))
        out.append(pair)
    return out


def _exact_log(size: int, base: int) -> int:
    """log_base of a size that counts a module over a field of `base`
    elements, so a power of `base`; anything else is a broken count."""
    log, rest = 0, size
    while rest > 1 and rest % base == 0:
        rest //= base
        log += 1
    if rest != 1:
        raise QfiltError(f"module size {size} is not a power of {base}")
    return log


def _class_from_sizes(table: FiniteRingTable, sizes: tuple) -> tuple[tuple[int, ...], ...]:
    """The class of a module X from |r·X| for each primary scalar r, in the
    order of table.primary_scalars; each tuple of sizes is worked out once
    per ring table."""
    cls = table.classes.get(sizes)
    if cls is None:
        out = []
        k = 0
        for i, e in enumerate(table.prime_exponents):
            base = table.ring.modulus.p ** table.prime_degrees[i]
            # log_base |p_i^j · X_i| for j = 0..e, the last one 0
            logs = [_exact_log(size, base) for size in sizes[k:k + e]] + [0]
            k += e
            ge = [logs[j - 1] - logs[j] for j in range(1, e + 1)]  # count with exp >= j
            out.append(tuple(ge[j] - (ge[j + 1] if j + 1 < e else 0) for j in range(e)))
        cls = table.classes[sizes] = tuple(out)
    return cls


# ---------------------------------------------------------------------------
# subcategories


class SubcategoryData(Value):
    """A subcategory as per-prime exponent ceilings plus certified flags;
    every subcategory enumerated is prelocalizing."""

    __slots__ = ("exponents", "localizing", "closed", "bilocalizing")


class OracleReport(Value):
    """The checks of one ring, recorded as they run; since its list of
    checks grows, a report is not hashable."""

    __slots__ = ("ring", "checks")
    __hash__ = None

    def record(self, name: str, ok: bool, detail: str = ""):
        self.checks.append((name, ok, detail))

    @property
    def passed(self) -> bool:
        return all(ok for _, ok, _ in self.checks)


def _indecomposable_keys(table: FiniteRingTable):
    return [(i, j) for i, e in enumerate(table.prime_exponents) for j in range(1, e + 1)]


def _all_multisets(keys, length_bound: int):
    """Multisets of indecomposable keys with total length <= bound, the
    length of (i, j) being j, by number of summands: each after its prefix."""
    return [ms for size in range(length_bound + 1)
            for ms in itertools.combinations_with_replacement(keys, size)
            if sum(j for _, j in ms) <= length_bound]


def enumerate_subcategories(table: FiniteRingTable,
                            length_bound: int = 4) -> tuple[SubcategoryData, ...]:
    """All prelocalizing subcategories with certified flags.

    Candidates are sets of indecomposable classes; closure under
    subquotients and extensions is decided by enumerating every submodule
    of every direct sum up to the length bound.  Closedness is the
    existence of a least annihilator ideal (the intersection of the
    members' annihilators must itself have its cyclic module inside), and
    bilocalizing additionally demands that least ideal be idempotent.

    The bound must reach the largest prime exponent e: R/(p^e) has length
    e, and below that no module tells the subcategories with and without
    it apart."""
    _check_length_bound(table.ring, length_bound)
    keys = _indecomposable_keys(table)
    # a set of keys is a bitmask, the first key the highest bit, so that
    # counting through the masks visits the subsets in itertools.product order
    bits = {key: 1 << (len(keys) - 1 - k) for k, key in enumerate(keys)}
    masks = {}

    def mask(cls) -> int:
        """The keys of the indecomposables in a class."""
        if cls not in masks:
            masks[cls] = sum(bits[i, j + 1] for i, per in enumerate(cls)
                             for j, c in enumerate(per) if c)
        return masks[cls]

    # one shared pass of submodule enumeration: for each module its mask,
    # the union of the masks of its (submodule, quotient) pairs and the set
    # of those masks.  Each multiset's submodules come from its prefix's,
    # listed before it; only prefixes' are kept
    multisets = _all_multisets(keys, length_bound)
    prefixes = {ms[:-1] for ms in multisets}
    triples = []
    subs_of = {}
    for ms in multisets:
        subs = submodules(table, ms, subs_of.get(ms[:-1]))
        if ms in prefixes:
            subs_of[ms] = subs
        data = _module_data(table, ms)
        pairs = {mask(k) | mask(q) for k, q in set(subquotient_classes(table, data, subs))}
        triples.append((mask(data.iso_class), reduce(operator.or_, pairs, 0), pairs))
    # R/I is annihilated by I exactly, so the least annihilator is the meet
    # of the ideals (p_i^j) over the keys kept
    killers = {key: table.ideal_of[table.prime_power(*key)] for key in keys}
    least_data = {}  # the class mask of R/L and whether L is idempotent
    out = []
    for allowed in range(1 << len(keys)):
        outside = ~allowed
        # prelocalizing: every module inside has its subquotients inside
        if any(union & outside for m, union, _ in triples if not m & outside):
            continue
        # localizing: no module outside is an extension of modules inside
        localizing = not any(not pair & outside for m, _, pairs in triples if m & outside
                             for pair in pairs)
        kept = [key for key in keys if bits[key] & allowed]
        least = _meet_all(table, map(killers.get, kept))
        if least not in least_data:
            # L·L is in the ideal list, which holds every ideal, so it is L
            # exactly when the same ideals contain both
            data = _quotient_data(table, least, *cosets(table.add, table.ideals[least]))
            least_data[least] = (mask(data.iso_class),
                                 table.product_up[least][least] == table.up[least])
        least_mask, idem = least_data[least]
        # closed: the category is exactly the modules killed by `least`,
        # certified by R/least itself landing inside
        closed = not least_mask & outside
        exponents = tuple(max((j for (i, j) in kept if i == l), default=0)
                          for l in range(len(table.prime_exponents)))
        out.append(SubcategoryData(exponents, localizing, closed,
                                   localizing and closed and idem))
    return tuple(sorted(out, key=lambda s: s.exponents))


def _check_length_bound(ring: QuotientRing, length_bound: int) -> None:
    """The length bound must stay within the cap and reach the largest
    prime exponent, and the largest module it builds, (p^d)^L for the
    largest residue degree d, must stay within the element cap."""
    if length_bound > MAX_SUBCAT_LENGTH:
        raise QfiltError(f"length bound {length_bound} exceeds {MAX_SUBCAT_LENGTH}")
    least_bound = max((e for _, e in ring.factors), default=0)
    if length_bound < least_bound:
        raise QfiltError(f"length bound {length_bound} is below the largest prime exponent "
                         f"of {ring}; use a length bound of at least {least_bound}")
    n = (ring.modulus.p ** max((q.degree for q, _ in ring.factors), default=0)) ** length_bound
    if n > MAX_ORACLE_ELEMENTS:
        raise LatticeTooLargeError(f"modules of length {length_bound} over {ring} reach {n} "
                                   f"elements, over the oracle limit {MAX_ORACLE_ELEMENTS}")


def oracle_join(table: FiniteRingTable, a: ExplicitFilter, b: ExplicitFilter) -> ExplicitFilter:
    """Smallest filter containing both: the ideals that contain A ∩ B for
    some member A of a and B of b.  They form a filter, since a and b are
    closed under intersection, and every filter holding a and b holds them."""
    up, meet = table.up, table.meet
    return ExplicitFilter(table, frozenset().union(
        *(up[meet[i][j]] for i in a.members for j in b.members)))


# ---------------------------------------------------------------------------
# bridge to the symbolic engine, and the verification bundle


def engine_filter_to_explicit(flt, table: FiniteRingTable) -> ExplicitFilter:
    """Membership of every explicit ideal, asked of the symbolic engine."""
    return ExplicitFilter(table, frozenset(
        idx for idx, ideal in enumerate(table.ideal_sheaves) if contains(flt, ideal)))


def verify_ring(ring: QuotientRing, length_bound: int = 4) -> OracleReport:
    """Cross-check the symbolic engine against brute force on one ring."""
    report = OracleReport(ring, [])
    # what follows from the factorization is checked before build_table
    # lays out a table, in the order the stages below would check it: the
    # element and ideal counts, the modulus degree, the length bound and
    # the largest module
    _checked_primes(ring)
    scheme = AffineQuotient(ring)
    engine_filters = enumerate_quotient_filters(scheme)
    _check_length_bound(ring, length_bound)
    table = build_table(ring, scheme)
    report.record("ring axioms", True)

    expected = math.prod(m + 1 for m in table.prime_exponents)
    report.record("ideal lattice is the divisor lattice",
                  len(table.ideals) == expected and
                  len(set(table.ideal_exponents)) == len(table.ideals),
                  f"{len(table.ideals)} ideals")

    oracle_filters = enumerate_filters(table)
    # the engine's results repeat; each distinct one is asked of it once.
    # Every one is on `scheme`, so the memo is keyed by the other fields
    # and never hashes the scheme
    bridge = {}

    def explicit(flt) -> ExplicitFilter:
        if flt.scheme is not scheme:
            raise RingMismatchError(f"the engine returned a filter on {flt.scheme}, "
                                    f"not on {scheme}")
        key = (flt.improper, flt.default, flt.exceptions, flt.killed)
        out = bridge.get(key)
        if out is None:
            out = bridge[key] = engine_filter_to_explicit(flt, table)
        return out

    pairing = [(f, explicit(f)) for f in engine_filters]
    mapped = {e.members for _, e in pairing}
    report.record("filter enumerations biject",
                  len(oracle_filters) == len(engine_filters) == len(mapped)
                  and mapped == {f.members for f in oracle_filters},
                  f"{len(oracle_filters)} filters")

    report.record("every filter is prelocalizing",
                  all(check_prelocalizing(f) for f in oracle_filters))

    # each check's detail names the last pair it fails on; empty when it holds
    definitions = engine = ""
    squares = []  # F*F of each filter, by the inverse-ideal definition
    for a, b in itertools.product(range(len(pairing)), repeat=2):
        (fa, ea), (fb, eb) = pairing[a], pairing[b]
        via_inv, via_ide, eq = product_two_ways(ea, eb)
        if a == b:
            squares.append(via_inv)
        if not eq:
            definitions = f"definitions differ on {sorted(ea.members)} * {sorted(eb.members)}"
        if explicit(fproduct(fa, fb)).members != via_inv.members:
            engine = f"engine differs on {sorted(ea.members)} * {sorted(eb.members)}"
    report.record("product definitions agree", not definitions, definitions)
    report.record("engine product matches oracle", not engine, engine)

    lattice_ok = True
    for (fa, ea), (fb, eb) in itertools.combinations(pairing, 2):
        if explicit(fmeet(fa, fb)).members != ea.members & eb.members:
            lattice_ok = False
        if explicit(fjoin(fa, fb)).members != oracle_join(table, ea, eb).members:
            lattice_ok = False
    report.record("meet and join match oracle", lattice_ok)

    principal_ok = True
    gabriel_ok = True
    for (f, e), square in zip(pairing, squares):
        ok, least = is_principal(f)
        if not ok or least != table.ideal_sheaves[_meet_all(table, e.members)]:
            principal_ok = False
        # Gabriel: F*F inside F, by the inverse-ideal definition
        if (square.members <= e.members) != is_product_closed(f):
            gabriel_ok = False
    report.record("least members match", principal_ok)
    report.record("Gabriel condition matches product closure", gabriel_ok)

    subs = enumerate_subcategories(table, length_bound)
    by_exponents = {}
    for f in engine_filters:
        key = tuple(mult if f.improper else int(f.value(pt))
                    for pt, mult in scheme.primes())
        by_exponents[key] = classify(f)
    flags_ok = len(subs) == len(engine_filters)
    for s in subs:
        rep = by_exponents.get(s.exponents)
        if rep is None or (s.localizing, s.closed, s.bilocalizing) != \
                (rep.localizing, rep.closed, rep.bilocalizing):
            flags_ok = False
    report.record("subcategory lattice matches classification",
                  flags_ok, f"{len(subs)} subcategories")

    keys = _indecomposable_keys(table)
    primes = scheme.primes()
    membership_ok = True
    for ms in _all_multisets(keys, length_bound):
        anns = _module_data(table, ms).annihilators
        data = module_data(scheme, [(primes[i][0], j) for i, j in ms])
        for f, e in pairing:
            if member(data, f) != (anns <= e.members):
                membership_ok = False
    report.record("membership via annihilators matches", membership_ok)
    return report
