"""Brute-force ground truth over finite quotient rings.

Everything the symbolic engine claims about filters on an Artinian
quotient k[x]/(f) can be recomputed here by exhaustive enumeration: the
ring is laid out as explicit addition/multiplication tables, its ideals
are found by closing principal ideals under sums, filters are enumerated
as up-closed intersection-closed subsets of the ideal list, and both
definitions of the filter product are evaluated element by element.
Subcategories are enumerated independently of the filter lattice, as sets
of indecomposable module classes certified by explicit submodule
enumeration, and the bijection between the two enumerations is checked
rather than assumed.

A finite module is its elements 0..n-1 (0 the zero) with list tables for
addition and for multiplication by each ring element.  R/I numbers the
cosets of I, and a direct sum numbers its tuples by mixed radix, so every
table is built by index arithmetic.  The submodules of a direct sum
M' + R/(p^j) come from those of M' by Goursat's lemma, each exactly once:
a submodule is its intersection with M', the image p^a·R/(p^j) of its
last coordinate, and the coset of M' that the image's generator lifts to.
The classes of a submodule N and of its quotient are read off counts: for
each scalar r that picks out p_i^j times the p_i-primary part, |r·N| is
|N| / |N ∩ ker r| and |r·(M/N)| is |r·M| / |N ∩ r·M|.  The direct sums of
indecomposables are built once per ring table and shared by the
subcategory enumeration and the membership check.

verify_ring() bundles all of these cross-checks for one ring and reports
each as a named pass/fail line with counterexample details on failure.
Whatever the factorization of f decides (the element and ideal counts,
the modulus degree, the least length bound, the size of the largest
module) is checked before any table is laid out.  The engine's side of
the bridge, its scheme of the ring and the ideal sheaf of each ideal, is
built once per ring table.
"""

import itertools
import math
from collections.abc import Callable
from dataclasses import dataclass, field
from functools import cached_property

from .config import MAX_ORACLE_ELEMENTS, MAX_ORACLE_IDEALS, MAX_SUBCAT_LENGTH
from .errors import LatticeTooLargeError, QfiltError
from .ideals import QuotientRing
from .poly import PrimePoly

Element = int
IdealSet = frozenset


@dataclass(frozen=True)
class FiniteRingTable:
    """k[x]/(f) as explicit tables; elements are indices into `reps`."""

    ring: QuotientRing
    reps: tuple[PrimePoly, ...]
    add: tuple[tuple[int, ...], ...]
    mul: tuple[tuple[int, ...], ...]
    zero: int
    one: int
    ideals: tuple[IdealSet, ...]
    prime_exponents: tuple[int, ...]
    prime_degrees: tuple[int, ...]
    prime_elements: tuple[int, ...]  # element index of each prime factor
    # [add table, smul table] of the direct sum of indecomposables of each
    # multiset, each built once, the add table when first read; tables
    # alone, so that no cycle keeps them alive
    modules: dict = field(default_factory=dict, compare=False, repr=False)

    @property
    def size(self) -> int:
        return len(self.reps)

    def index(self, poly: PrimePoly) -> int:
        return self.reps.index(poly % self.ring.modulus)

    def prime_power(self, i: int, j: int) -> int:
        """Element index of (i-th prime factor)**j."""
        out = self.one
        for _ in range(j):
            out = self.mul[out][self.prime_elements[i]]
        return out

    def principal(self, a: int) -> IdealSet:
        return frozenset(self.mul[a][r] for r in range(self.size))

    def ideal_index(self, members: IdealSet) -> int:
        return self.ideals.index(members)

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
    def scheme(self):
        """The engine's scheme of the ring."""
        from .schemes import AffineQuotient

        return AffineQuotient(self.ring)

    @cached_property
    def ideal_sheaves(self) -> tuple:
        """The engine's ideal sheaf of each ideal, from its vanishing orders."""
        from .schemes import sheaf

        points = [pt for pt, _ in self.scheme.primes()]
        return tuple(sheaf(self.scheme, dict(zip(points, exps))) for exps in self.ideal_exponents)

    def annihilator(self, smul, zero, x) -> IdealSet:
        return frozenset(r for r in range(self.size) if smul(r, x) == zero)


def _checked_primes(ring: QuotientRing):
    """The prime factors of the modulus, once the element count p^deg and
    the ideal count prod(e_i + 1) are within the oracle's caps.  k[x]/(f)
    is a principal ideal ring whose ideals are the monic divisors of f, so
    the ideal count is exact."""
    n = ring.modulus.p ** ring.modulus.degree
    if n > MAX_ORACLE_ELEMENTS:
        raise LatticeTooLargeError(
            f"{n} ring elements exceed the oracle limit {MAX_ORACLE_ELEMENTS}")
    primes = ring.prime_factors()
    if math.prod(e + 1 for _, e in primes) > MAX_ORACLE_IDEALS:
        raise LatticeTooLargeError(
            f"more than {MAX_ORACLE_IDEALS} ideals; lattice too large")
    return primes


def build_table(ring: QuotientRing) -> FiniteRingTable:
    """Lay out k[x]/(f) as tables, self-check the axioms, enumerate ideals.
    The caps are checked from the factorization before any table is laid
    out; the enumeration keeps its own cap on the ideals it finds."""
    primes = _checked_primes(ring)
    modulus = ring.modulus
    p, deg = modulus.p, modulus.degree
    n = p ** deg
    # reps[0] is the zero polynomial, so the zero of every module is 0
    reps = tuple(PrimePoly.make(p, coeffs)
                 for coeffs in itertools.product(range(p), repeat=deg))
    pos = {r: i for i, r in enumerate(reps)}
    add = tuple(tuple(pos[(a + b) % modulus] for b in reps) for a in reps)
    mul = tuple(tuple(pos[(a * b) % modulus] for b in reps) for a in reps)
    zero = pos[PrimePoly.make(p, (0,))]
    one = pos[PrimePoly.make(p, (1,))]
    _self_check(n, add, mul, zero, one)
    ideals = _enumerate_ideals(n, add, mul)
    return FiniteRingTable(ring, reps, add, mul, zero, one, ideals,
                           tuple(m for _, m in primes),
                           tuple(q.degree for q, _ in primes),
                           tuple(pos[q % modulus] for q, _ in primes))


def _self_check(n: int, add, mul, zero: int, one: int) -> None:
    rng = range(n)
    for a in rng:
        if add[a][zero] != a or mul[a][one] != a or mul[a][zero] != zero:
            raise QfiltError("ring tables fail the unit laws")
        for b in rng:
            if add[a][b] != add[b][a] or mul[a][b] != mul[b][a]:
                raise QfiltError("ring tables are not commutative")
    # full associativity/distributivity scan is cubic; cap it at sizes where
    # that stays instant and fall back to a fixed stride sample above
    triples = (itertools.product(rng, repeat=3) if n <= 64 else
               itertools.product(range(0, n, max(1, n // 32)), repeat=3))
    for a, b, c in triples:
        if add[add[a][b]][c] != add[a][add[b][c]]:
            raise QfiltError("addition is not associative")
        if mul[mul[a][b]][c] != mul[a][mul[b][c]]:
            raise QfiltError("multiplication is not associative")
        if mul[a][add[b][c]] != add[mul[a][b]][mul[a][c]]:
            raise QfiltError("distributivity fails")


def _enumerate_ideals(n: int, add, mul) -> tuple[IdealSet, ...]:
    found: set[IdealSet] = set()
    for a in range(n):
        found.add(frozenset(mul[a][r] for r in range(n)))
    # close principal ideals under pairwise sums
    changed = True
    while changed:
        changed = False
        for i1, i2 in itertools.combinations(sorted(found, key=sorted), 2):
            s = frozenset(add[x][y] for x in i1 for y in i2)
            if s not in found:
                found.add(s)
                changed = True
        if len(found) > MAX_ORACLE_IDEALS:
            raise LatticeTooLargeError(
                f"more than {MAX_ORACLE_IDEALS} ideals; lattice too large")
    return tuple(sorted(found, key=lambda s: (-len(s), sorted(s))))


@dataclass(frozen=True)
class ExplicitFilter:
    """A filter as an explicit subset of the ideal list."""

    table: FiniteRingTable
    members: frozenset[int]

    def __post_init__(self):
        ideals = self.table.ideals
        unit = frozenset(range(self.table.size))
        if self.table.ideal_index(unit) not in self.members:
            raise QfiltError("a filter must contain the unit ideal")
        for i in self.members:
            for j in range(len(ideals)):
                if ideals[i] <= ideals[j] and j not in self.members:
                    raise QfiltError("filter is not upward closed")
            for k in self.members:
                if self.table.ideal_index(ideals[i] & ideals[k]) not in self.members:
                    raise QfiltError("filter is not intersection closed")


def enumerate_filters(table: FiniteRingTable) -> tuple[ExplicitFilter, ...]:
    """All filters of the ideal lattice, by up-set search plus the
    intersection-closure test."""
    ideals = table.ideals
    n = len(ideals)
    order = sorted(range(n), key=lambda i: -len(ideals[i]))
    supersets = {i: [j for j in range(n) if i != j and ideals[i] <= ideals[j]]
                 for i in range(n)}
    unit_idx = table.ideal_index(frozenset(range(table.size)))
    out: list[ExplicitFilter] = []

    def walk(k: int, chosen: set[int]):
        if k == len(order):
            if unit_idx not in chosen:
                return
            for i, j in itertools.combinations(chosen, 2):
                if table.ideal_index(ideals[i] & ideals[j]) not in chosen:
                    return
            out.append(ExplicitFilter(table, frozenset(chosen)))
            return
        i = order[k]
        if all(j in chosen for j in supersets[i]):
            walk(k + 1, chosen | {i})
        walk(k + 1, chosen)

    walk(0, set())
    return tuple(sorted(out, key=lambda f: (-len(f.members), sorted(f.members))))


def inverse_ideal(table: FiniteRingTable, a: int, members: IdealSet) -> IdealSet:
    """a^{-1}L = {b : ab in L}."""
    return frozenset(b for b in range(table.size) if table.mul[a][b] in members)


def check_prelocalizing(flt: ExplicitFilter) -> bool:
    """Whether a^{-1}L stays in the filter for every a and member L."""
    table = flt.table
    member_sets = {table.ideals[i] for i in flt.members}
    for i in flt.members:
        for a in range(table.size):
            if inverse_ideal(table, a, table.ideals[i]) not in member_sets:
                return False
    return True


def product_two_ways(f1: ExplicitFilter, f2: ExplicitFilter):
    """The filter product by its two definitions.

    via_inverse: L is a member when some L' in f1 contains L with a^{-1}L
    in f2 for every a in L'.  via_ideals: L contains a product of members.
    Returns (via_inverse, via_ideals, equal)."""
    table = f1.table
    ideals = table.ideals
    f2_sets = {ideals[i] for i in f2.members}
    via_inv = set()
    for li, l in enumerate(ideals):
        for j in f1.members:
            lp = ideals[j]
            if l <= lp and all(inverse_ideal(table, a, l) in f2_sets for a in lp):
                via_inv.add(li)
                break
    via_ide = set()
    for i1 in f1.members:
        for i2 in f2.members:
            span = _ideal_product(table, ideals[i1], ideals[i2])
            for li, l in enumerate(ideals):
                if span <= l:
                    via_ide.add(li)
    a = ExplicitFilter(table, frozenset(via_inv))
    b = ExplicitFilter(table, frozenset(via_ide))
    return a, b, a.members == b.members


def _ideal_product(table: FiniteRingTable, i1: IdealSet, i2: IdealSet) -> IdealSet:
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


def filter_min(flt: ExplicitFilter) -> IdealSet:
    out = frozenset(range(flt.table.size))
    for i in flt.members:
        out = out & flt.table.ideals[i]
    return out


def is_gabriel(flt: ExplicitFilter) -> bool:
    """F*F inside F, by the inverse-ideal product definition."""
    prod, _, _ = product_two_ways(flt, flt)
    return prod.members <= flt.members


# ---------------------------------------------------------------------------
# explicit modules


@dataclass(frozen=True, eq=False)
class ExplicitModule:
    """A finite module on the elements 0..n-1, element 0 its zero.

    `add_table[x][y]` is x + y and `smul_table[r][x]` is r·x for the ring
    element of index r; the rows are read-only.  `addition` is the add
    table, or a function that builds it when first read: the add table of
    a long direct sum is the largest table there is, and often unread."""

    table: FiniteRingTable
    addition: list[list[int]] | Callable[[], list[list[int]]]
    smul_table: list[list[int]]

    zero = 0

    @cached_property
    def add_table(self) -> list[list[int]]:
        return self.addition() if callable(self.addition) else self.addition

    @property
    def size(self) -> int:
        return len(self.smul_table[0])

    @property
    def elements(self) -> range:
        return range(self.size)

    def add(self, x: int, y: int) -> int:
        return self.add_table[x][y]

    def smul(self, r: int, x: int) -> int:
        return self.smul_table[r][x]


def cosets(add_table, sub) -> tuple[list[int], list[int]]:
    """The cosets of the subgroup `sub` of a group given by its addition
    table: the coset index of every element, and one representative per
    coset, its least element.  Cosets are numbered by that least element,
    so the coset of 0 is 0."""
    coset = [-1] * len(add_table)
    reps: list[int] = []
    for x, row in enumerate(add_table):
        if coset[x] < 0:
            for s in sub:
                coset[row[s]] = len(reps)
            reps.append(x)
    return coset, reps


def cyclic_module(table: FiniteRingTable, ideal: IdealSet) -> ExplicitModule:
    """R/I, one element per coset of I."""
    coset, reps = cosets(table.add, ideal)
    return ExplicitModule(table,
                          [[coset[table.add[a][b]] for b in reps] for a in reps],
                          [[coset[row[a]] for a in reps] for row in table.mul])


def direct_sum(mods) -> ExplicitModule:
    """The direct sum of M_1, ..., M_k, its tuples numbered by mixed radix:
    (x_1, ..., x_k) is ((x_1 n_2 + x_2) n_3 + ...) n_k + x_k, the order of
    itertools.product."""
    mods = list(mods)
    out = mods[0]
    for mod in mods[1:]:
        out = ExplicitModule(
            out.table,
            _sum_rows(itertools.product(out.add_table, mod.add_table), mod.size),
            _sum_rows(zip(out.smul_table, mod.smul_table), mod.size))
    return out


def _sum_rows(pairs, n: int) -> list[list[int]]:
    """The rows of a direct sum's table from pairs of summand rows, the
    second summand of size n."""
    return [[x * n + y for x in ra for y in rb] for ra, rb in pairs]


def zero_module(table: FiniteRingTable) -> ExplicitModule:
    return ExplicitModule(table, [[0]], [[0]] * table.size)


def submodules(table: FiniteRingTable, multiset: tuple, prefix=None) -> tuple[frozenset, ...]:
    """All submodules of the direct sum over `multiset`, each exactly once.

    The sum is M = M' + C, with M' the sum over multiset[:-1] and C =
    R/(p_i^j) its last summand.  By Goursat's lemma a submodule N is one
    triple: its part A0 = N ∩ M', a submodule of M'; the level a with
    pi_C(N) = p_i^a·C; and a coset z + A0 of M'/A0 with p_i^(j-a)·z in A0,
    since (p_i^(j-a)) annihilates y_a = p_i^a·1 in C.  N is then the set
    of (s·z + x, s·y_a) for x in A0 and one ring element s per element of
    p_i^a·C.  `prefix` is submodules(table, multiset[:-1]) when the caller
    has it."""
    if not multiset:
        return (frozenset([0]),)
    if prefix is None:
        prefix = submodules(table, multiset[:-1])
    head = _multiset_module(table, multiset[:-1])
    add, smul = head.add_table, head.smul_table
    i, j = multiset[-1]
    # the ring element r is coset[r] in C, as in cyclic_module
    coset, reps = cosets(table.add, table.principal(table.prime_power(i, j)))
    n = len(reps)
    levels = []
    for a in range(j + 1):
        row = table.mul[table.prime_power(i, a)]
        picks = {}  # each element of p_i^a·C, with one s reaching it from 1
        for s in range(table.size):
            picks.setdefault(coset[row[s]], s)
        levels.append((smul[table.prime_power(i, j - a)], picks.items()))
    out = []
    for low in prefix:
        _, lifts = cosets(add, low)
        for killer, picks in levels:
            for z in lifts:
                if killer[z] in low:
                    members = []
                    for c, s in picks:
                        shift = add[smul[s][z]]
                        members.extend([shift[x] * n + c for x in low])
                    out.append(frozenset(members))
    return tuple(out)


def iso_class(mod: ExplicitModule) -> tuple[tuple[int, ...], ...]:
    """Multiplicities of the indecomposables R/(p_i^j), from the sizes
    |r·M| for the table's primary scalars r."""
    sizes = [len(set(mod.smul_table[r])) for r in mod.table.primary_scalars]
    return _class_from_sizes(mod.table, sizes)


def subquotient_classes(mod: ExplicitModule, subs) -> list[tuple]:
    """The (submodule, quotient) class pair of each submodule N in `subs`,
    from counts: |r·N| = |N| / |N ∩ ker r| and |r·(M/N)| = |r·M| / |N ∩ r·M|
    for each primary scalar r."""
    table = mod.table
    rows = [mod.smul_table[r] for r in table.primary_scalars]
    kernels = [frozenset(x for x, y in enumerate(row) if y == mod.zero) for row in rows]
    images = [frozenset(row) for row in rows]
    classes = {}

    def of(sizes):
        if sizes not in classes:
            classes[sizes] = _class_from_sizes(table, sizes)
        return classes[sizes]

    return [(of(tuple(len(sub) // len(sub & k) for k in kernels)),
             of(tuple(len(im) // len(sub & im) for im in images))) for sub in subs]


def _class_from_sizes(table: FiniteRingTable, sizes) -> tuple[tuple[int, ...], ...]:
    """The class of a module X from |r·X| for each primary scalar r, in the
    order of table.primary_scalars."""
    out = []
    k = 0
    for i, e in enumerate(table.prime_exponents):
        base = table.ring.modulus.p ** table.prime_degrees[i]
        # log_base |p_i^j · X_i| for j = 0..e, the last one 0
        logs = [round(math.log(size, base)) for size in sizes[k:k + e]] + [0]
        k += e
        ge = [logs[j - 1] - logs[j] for j in range(1, e + 1)]  # count with exp >= j
        out.append(tuple(ge[j] - (ge[j + 1] if j + 1 < e else 0) for j in range(e)))
    return tuple(out)


def class_inside(cls, allowed: frozenset) -> bool:
    """Whether every indecomposable in the class is in the allowed set of
    (prime index, exponent) pairs."""
    return all(c == 0 or (i, j + 1) in allowed
               for i, per in enumerate(cls) for j, c in enumerate(per))


# ---------------------------------------------------------------------------
# subcategories


@dataclass(frozen=True)
class SubcategoryData:
    """A subcategory as per-prime exponent ceilings plus certified flags."""

    exponents: tuple[int, ...]
    prelocalizing: bool
    localizing: bool
    closed: bool
    bilocalizing: bool


@dataclass
class OracleReport:
    ring: QuotientRing
    checks: list = field(default_factory=list)

    def record(self, name: str, ok: bool, detail: str = ""):
        self.checks.append((name, ok, detail))

    @property
    def passed(self) -> bool:
        return all(ok for _, ok, _ in self.checks)

    def lines(self):
        for name, ok, detail in self.checks:
            mark = "ok" if ok else "FAIL"
            yield f"[{mark}] {self.ring}: {name}" + (f" ({detail})" if detail else "")


def _indecomposable_keys(table: FiniteRingTable):
    return [(i, j) for i, e in enumerate(table.prime_exponents) for j in range(1, e + 1)]


def indecomposable_modules(table: FiniteRingTable):
    """R/(p_i^j) for every prime factor and exponent.  p_i is invertible on
    the other primary components, so the principal ideal covers them and the
    cyclic module is genuinely indecomposable."""
    return {key: _multiset_module(table, (key,)) for key in _indecomposable_keys(table)}


def _all_multisets(keys, length_bound: int):
    """Multisets of indecomposable keys with total length <= bound; the
    length of (i, j) is j."""
    out = [()]
    def rec(start: int, used: int, acc):
        for k in range(start, len(keys)):
            ln = keys[k][1]
            if used + ln > length_bound:
                continue
            nxt = acc + (keys[k],)
            out.append(nxt)
            rec(k, used + ln, nxt)
    rec(0, 0, ())
    return out


def _multiset_module(table: FiniteRingTable, multiset: tuple) -> ExplicitModule:
    """The direct sum of R/(p_i^j) over a multiset of keys (i, j), its
    tables kept on the table; each sum adds one indecomposable to its
    prefix's module.  A sum's add table is built when first read: only the
    sums that submodules() extends read it."""
    tables = table.modules.get(multiset)
    if tables is None:
        if len(multiset) > 1:
            head = _multiset_module(table, multiset[:-1])
            last = _multiset_module(table, multiset[-1:])
            tables = [None, _sum_rows(zip(head.smul_table, last.smul_table), last.size)]
        else:
            mod = (cyclic_module(table, table.principal(table.prime_power(*multiset[0])))
                   if multiset else zero_module(table))
            tables = [mod.add_table, mod.smul_table]
        table.modules[multiset] = tables
    if tables[0] is None:
        return ExplicitModule(table, lambda: _multiset_add(table, multiset), tables[1])
    return ExplicitModule(table, *tables)


def _multiset_add(table: FiniteRingTable, multiset: tuple) -> list[list[int]]:
    """The add table of a sum of two or more summands, kept with its smul
    table once built."""
    tables = table.modules[multiset]
    if tables[0] is None:
        last = _multiset_module(table, multiset[-1:])
        tables[0] = _sum_rows(itertools.product(
            _multiset_module(table, multiset[:-1]).add_table, last.add_table), last.size)
    return tables[0]


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
    _check_length_bound(table.ring, table.prime_exponents, table.prime_degrees,
                        length_bound)
    keys = _indecomposable_keys(table)
    # one shared pass of submodule enumeration: for each module the set of
    # (submodule class, quotient class) pairs.  Each multiset's submodules
    # come from its prefix's, listed before it; only prefixes' are kept
    multisets = _all_multisets(keys, length_bound)
    prefixes = {ms[:-1] for ms in multisets}
    triples = []
    subs_of = {}
    for ms in multisets:
        subs = submodules(table, ms, subs_of.get(ms[:-1]))
        if ms in prefixes:
            subs_of[ms] = subs
        mod = _multiset_module(table, ms)
        triples.append((iso_class(mod), set(subquotient_classes(mod, subs))))
    out = []
    for subset in itertools.product(*([[False, True]] * len(keys))):
        allowed = frozenset(k for k, keep in zip(keys, subset) if keep)
        preloc = True
        for p_cls, pairs in triples:
            if not class_inside(p_cls, allowed):
                continue
            if not all(class_inside(k, allowed) and class_inside(q, allowed)
                       for k, q in pairs):
                preloc = False
                break
        if not preloc:
            continue
        localizing = True
        for p_cls, pairs in triples:
            if class_inside(p_cls, allowed):
                continue
            if any(class_inside(k, allowed) and class_inside(q, allowed)
                   for k, q in pairs):
                localizing = False
                break
        least = frozenset(range(table.size))
        for key in allowed:  # R/I is annihilated by I exactly
            least = least & table.principal(table.prime_power(*key))
        # closed: the category is exactly the modules killed by `least`,
        # certified by R/least itself landing inside
        closed = class_inside(iso_class(cyclic_module(table, least)), allowed)
        idem = _ideal_product(table, least, least) == least
        exponents = tuple(max((j for (i, j) in allowed if i == l), default=0)
                          for l in range(len(table.prime_exponents)))
        out.append(SubcategoryData(exponents, preloc, localizing, closed,
                                   localizing and closed and idem))
    return tuple(sorted(out, key=lambda s: s.exponents))


def _check_length_bound(ring: QuotientRing, exponents, degrees, length_bound: int) -> None:
    """The length bound must stay within the cap and reach the largest
    prime exponent, and the largest module it builds, (p^d)^L for the
    largest residue degree d, must stay within the element cap."""
    if length_bound > MAX_SUBCAT_LENGTH:
        raise QfiltError(f"length bound {length_bound} exceeds {MAX_SUBCAT_LENGTH}")
    least_bound = max(exponents, default=0)
    if length_bound < least_bound:
        raise QfiltError(f"length bound {length_bound} is below the largest prime exponent "
                         f"of {ring}; use a length bound of at least {least_bound}")
    n = (ring.modulus.p ** max(degrees, default=0)) ** length_bound
    if n > MAX_ORACLE_ELEMENTS:
        raise LatticeTooLargeError(f"modules of length {length_bound} over {ring} reach {n} "
                                   f"elements, over the oracle limit {MAX_ORACLE_ELEMENTS}")


def oracle_member(mod: ExplicitModule, flt: ExplicitFilter) -> bool:
    """Elementwise annihilator test: Ann(x) in F for every x."""
    table = flt.table
    member_sets = {table.ideals[i] for i in flt.members}
    for x in mod.elements:
        ann = frozenset(r for r in range(table.size) if mod.smul(r, x) == mod.zero)
        if ann not in member_sets:
            return False
    return True


def oracle_join(table: FiniteRingTable, a: ExplicitFilter, b: ExplicitFilter) -> ExplicitFilter:
    """Smallest filter containing both: close the union under intersections
    and upward."""
    ideals = table.ideals
    members = set(a.members | b.members)
    changed = True
    while changed:
        changed = False
        for i, j in itertools.combinations(list(members), 2):
            k = table.ideal_index(ideals[i] & ideals[j])
            if k not in members:
                members.add(k)
                changed = True
        for i in list(members):
            for j in range(len(ideals)):
                if ideals[i] <= ideals[j] and j not in members:
                    members.add(j)
                    changed = True
    return ExplicitFilter(table, frozenset(members))


# ---------------------------------------------------------------------------
# bridge to the symbolic engine, and the verification bundle


def engine_filter_to_explicit(flt, table: FiniteRingTable) -> ExplicitFilter:
    """Membership of every explicit ideal, asked of the symbolic engine."""
    from .filters import contains

    return ExplicitFilter(table, frozenset(
        idx for idx, ideal in enumerate(table.ideal_sheaves) if contains(flt, ideal)))


def sheaf_to_ideal_set(ideal_sheaf, table: FiniteRingTable) -> IdealSet:
    """The explicit element set of an ideal sheaf on the quotient."""
    elem = table.one
    for i, (pt, mult) in enumerate(table.scheme.primes()):
        e = mult if ideal_sheaf.killed.contains(i) else int(ideal_sheaf.order_at(pt))
        elem = table.mul[elem][table.prime_power(i, e)]
    return table.principal(elem)


def verify_ring(ring: QuotientRing, length_bound: int = 4) -> OracleReport:
    """Cross-check the symbolic engine against brute force on one ring."""
    from .classify import classify, member
    from .filters import (enumerate_quotient_filters, is_principal,
                          is_product_closed, join as fjoin, meet as fmeet,
                          product as fproduct)
    from .schemes import AffineQuotient
    from .spectrum import module_data

    report = OracleReport(ring)
    # what follows from the factorization is checked before build_table
    # lays out a table, in the order the stages below would check it: the
    # element and ideal counts, the modulus degree, the length bound and
    # the largest module
    primes = _checked_primes(ring)
    scheme = AffineQuotient(ring)
    engine_filters = enumerate_quotient_filters(scheme)
    _check_length_bound(ring, [e for _, e in primes], [q.degree for q, _ in primes],
                        length_bound)
    table = build_table(ring)
    report.record("ring axioms", True)

    expected = math.prod(m + 1 for m in table.prime_exponents)
    report.record("ideal lattice is the divisor lattice",
                  len(table.ideals) == expected and
                  len(set(table.ideal_exponents)) == len(table.ideals),
                  f"{len(table.ideals)} ideals")

    oracle_filters = enumerate_filters(table)
    pairing = [(f, engine_filter_to_explicit(f, table)) for f in engine_filters]
    mapped = {e.members for _, e in pairing}
    report.record("filter enumerations biject",
                  len(oracle_filters) == len(engine_filters) == len(mapped)
                  and mapped == {f.members for f in oracle_filters},
                  f"{len(oracle_filters)} filters")

    report.record("every filter is prelocalizing",
                  all(check_prelocalizing(f) for f in oracle_filters))

    products_ok = engine_products_ok = True
    detail = ""
    for (fa, ea), (fb, eb) in itertools.product(pairing, repeat=2):
        via_inv, via_ide, eq = product_two_ways(ea, eb)
        if not eq:
            products_ok = False
            detail = f"definitions differ on {sorted(ea.members)} * {sorted(eb.members)}"
        if engine_filter_to_explicit(fproduct(fa, fb), table).members != via_inv.members:
            engine_products_ok = False
            detail = f"engine differs on {sorted(ea.members)} * {sorted(eb.members)}"
    report.record("product definitions agree", products_ok, detail if not products_ok else "")
    report.record("engine product matches oracle", engine_products_ok,
                  detail if not engine_products_ok else "")

    lattice_ok = True
    for (fa, ea), (fb, eb) in itertools.combinations(pairing, 2):
        if engine_filter_to_explicit(fmeet(fa, fb), table).members != ea.members & eb.members:
            lattice_ok = False
        if engine_filter_to_explicit(fjoin(fa, fb), table).members != \
                oracle_join(table, ea, eb).members:
            lattice_ok = False
    report.record("meet and join match oracle", lattice_ok)

    principal_ok = True
    gabriel_ok = True
    for f, e in pairing:
        ok, least = is_principal(f)
        if not ok or sheaf_to_ideal_set(least, table) != filter_min(e):
            principal_ok = False
        if is_gabriel(e) != is_product_closed(f):
            gabriel_ok = False
    report.record("least members match", principal_ok)
    report.record("Gabriel condition matches product closure", gabriel_ok)

    subs = enumerate_subcategories(table, length_bound)
    by_exponents = {}
    for f in engine_filters:
        key = tuple(mult if f.improper else int(f.exponents.value(pt))
                    for pt, mult in scheme.primes())
        by_exponents[key] = classify(f)
    flags_ok = len(subs) == len(engine_filters)
    for s in subs:
        rep = by_exponents.get(s.exponents)
        if rep is None or (s.prelocalizing, s.localizing, s.closed, s.bilocalizing) != \
                (rep.prelocalizing, rep.localizing, rep.closed, rep.bilocalizing):
            flags_ok = False
    report.record("subcategory lattice matches classification",
                  flags_ok, f"{len(subs)} subcategories")

    keys = _indecomposable_keys(table)
    primes = scheme.primes()
    membership_ok = True
    for ms in _all_multisets(keys, length_bound):
        mod = _multiset_module(table, ms)
        data = module_data(scheme, [(primes[i][0], j) for i, j in ms])
        for f, e in pairing:
            if member(data, f) != oracle_member(mod, e):
                membership_ok = False
    report.record("membership via annihilators matches", membership_ok)
    return report
