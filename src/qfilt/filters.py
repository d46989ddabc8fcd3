"""The calculus of local filters of ideal subsheaves.

A filter here is a set of ideal subsheaves of the structure sheaf that
contains the unit ideal, is closed upward and under finite intersections,
and is local: membership can be tested chart by chart.  On the schemes in
this package every such filter that the engine can reach has a finite
presentation, and LocalFilter stores exactly that presentation:

  Improper            the filter of all ideal subsheaves (zero included);
  Presented           exponents r on closed points (a default value plus
                      finitely many exceptions, values in 0,1,2,... or INF)
                      together with a ComponentSet of killed components,
                      field components whose zero ideal belongs to the
                      filter.

A Presented filter contains an ideal sheaf exactly when the sheaf's
vanishing order at every closed point x is at most r(x) and its vanishing
components are all killed.  Stalkwise this reads as a chain filter at each
point, which is what StalkFilter reports: the ideals of the local ring
down to a power of the maximal ideal ("up_to"), all powers ("all_powers"),
everything including zero ("everything"), or just the unit ideal at a
residue-field stalk ("full_only").

Normal form makes structural equality agree with equality of filters: an
exception equal to the default is dropped; on an Artinian component the
values are clamped to the stalk length (reaching it means the stalk zero
ideal is in the filter) and the default is folded into explicit values;
killing a curve component upgrades the whole filter to Improper, since an
upward-closed set containing the zero sheaf contains everything; killing
every component is Improper as well.

Filters are built two ways.  presented() is the one validating entry,
for literals, classification and callers of the API: it checks that every
point is a closed point of the scheme, listed once, with an exponent in
0,1,2,... or INF, and that the killed pattern lists only components of
the scheme, and brings it to the scheme's normal form.  _normal() is the
trusted constructor that every engine operation uses: it only clamps,
folds and drops.  It relies on one invariant: its parts come from filters
(or ideal sheaves) already in normal form, combined by min, max or sum or
cut down to a chart, so the points still lie on the scheme, the exponents
stay valid, and the killed pattern stays normal (unions and intersections
of explicit patterns are explicit, and a chart's pattern is listed on its
own components).  Its exponents arrive as (point, exponent) pairs in point
order: meet, join and product merge the operands' sorted exception tables
in one pass (spectrum.merge_tables), and restriction and gluing keep that
order, so _normal sorts nothing; presented(), the one caller that hands
it unsorted parts, sorts them first.  So every result of meet, join,
product and restrict is a fixed point of presented().

The constant filters are built once per scheme and kept in its memo:
improper_filter() and trivial_filter() hand out the one improper and the
one trivial filter of a scheme, and _normal() returns them whenever its
result is improper, or trivial on a disjoint union, so restriction to a
chart of a union builds no filter.

Meet and join of filters are the pointwise min and max of exponents, the
product adds them (INF absorbing), and all three preserve this
presentation class.  Restriction to a chart keeps the data of the chart's
points.  Generation from finitely many ideal sheaves is the principal
filter of their intersection; the only genuinely non-principal base here,
the family of ideals vanishing on finitely many components of the
symbolic disjoint union, fails to be local and its local closure is
Improper.
"""

import itertools
import operator
from functools import reduce

from .config import INF, MAX_QUOTIENT_DEGREE
from .errors import GluingError, QfiltError, UnsupportedFamilyError, echo
from .schemes import (
    IdealSheaf,
    Scheme,
    check_same_scheme,
    glue_components,
    glue_points,
    gluing_charts,
    sheaf_intersect,
    zero_sheaf,
)
from .schemes import _normal as _normal_sheaf
from .spectrum import ComponentSet, SpecPoint, generic_point, merge_tables, sorted_table
from .values import Value


class LocalFilter(Value):
    """A finitely presented local filter of ideal subsheaves: closed-point
    exponents, a default plus finitely many exceptions, and the killed
    components.  An improper filter carries default 0 and no exceptions."""

    __slots__ = ("scheme", "improper", "default", "exceptions", "killed")

    def __init__(self, scheme, improper: bool, default: int | float,
                 exceptions: tuple[tuple[SpecPoint, int | float], ...], killed: ComponentSet):
        set_scheme, set_improper, set_default, set_exceptions, set_killed = LocalFilter._setters
        set_scheme(self, scheme)
        set_improper(self, improper)
        set_default(self, default)
        set_exceptions(self, exceptions)
        set_killed(self, killed)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return ((self.scheme, self.improper, self.default, self.exceptions, self.killed)
                    == (other.scheme, other.improper, other.default, other.exceptions,
                        other.killed))
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.scheme, self.improper, self.default, self.exceptions, self.killed))

    def value(self, pt: SpecPoint) -> int | float:
        """The exponent at a closed point; INF on the improper filter."""
        if self.improper:
            return INF
        for p, v in self.exceptions:
            if p == pt:
                return v
        return self.default


def _show_exp(v) -> str:
    return "inf" if v == INF else str(v)


class StalkFilter(Value):
    """A filter of ideals of a stalk ring: kind "up_to" (with bound),
    "all_powers", "everything", or "full_only"."""

    __slots__ = ("kind", "bound")

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.kind, self.bound) == (other.kind, other.bound)
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.kind, self.bound))


_UP_TO: dict[int, StalkFilter] = {}  # the "up_to" filter of each bound built so far


def up_to(n: int) -> StalkFilter:
    """The stalk filter "up_to" n, built once per bound."""
    flt = _UP_TO.get(n)
    if flt is None:
        flt = _UP_TO[n] = StalkFilter("up_to", n)
    return flt


ALL_POWERS = StalkFilter("all_powers", None)
EVERYTHING = StalkFilter("everything", None)
FULL_ONLY = StalkFilter("full_only", None)


# ---------------------------------------------------------------------------
# constructors


def improper_filter(scheme) -> LocalFilter:
    """The filter of all ideal sheaves, built once per scheme."""
    flt = scheme.memo.get("improper")
    if flt is None:
        flt = scheme.memo["improper"] = LocalFilter(scheme, True, 0, (), ComponentSet.none())
    return flt


def presented(scheme, default: int | float = 0, exceptions=(), killed=()) -> LocalFilter:
    """Build a Presented filter in normal form from caller-supplied parts:
    the one validating entry (see the module docstring)."""
    kcs = killed if isinstance(killed, ComponentSet) else ComponentSet.of(killed)
    kcs = scheme.checked_pattern(kcs)
    default = _check_exp(default)
    acc: dict[SpecPoint, int | float] = {}
    for pt, v in exceptions.items() if isinstance(exceptions, dict) else exceptions:
        scheme.check_closed_point(pt)
        if pt in acc:
            raise QfiltError(f"duplicate exponent for {pt}")
        acc[pt] = _check_exp(v, pt)
    return _normal(scheme, default, sorted_table(acc.items()), kcs)


def _normal(scheme, default, exponents, killed: ComponentSet) -> LocalFilter:
    """The normal form of valid parts: `exponents` lists (point, exponent)
    pairs at closed points of the scheme in point order, each point once,
    and `killed` is in the scheme's normal form.  Nothing is checked here."""
    # an Artinian component is its one point, killed at the stalk length,
    # and the default folds into explicit values there; killing every
    # component (on a curve, its one component) swallows the filter; field
    # components have no closed points, so the default is moot there
    if scheme.component_type == "artinian":
        values = [default] * len(scheme.closed)
        for pt, v in exponents:
            values[pt.component] = v
        for c in killed.members:
            values[c] = INF
        exc, improper = [], True
        for (pt, cap), v in zip(scheme.closed, values):
            if v < cap:
                improper = False
            else:
                v = cap
            if v:
                exc.append((pt, v))
        if improper:
            return improper_filter(scheme)
        return LocalFilter(scheme, False, 0, tuple(exc), ComponentSet.none())
    if not killed.is_none and scheme.covers(killed):
        return improper_filter(scheme)
    if scheme.component_type == "field":
        if killed.is_none:
            return trivial_filter(scheme)
        default = 0
    return LocalFilter(scheme, False, default,
                       tuple([kv for kv in exponents if kv[1] != default]), killed)


def _check_exp(v, pt: SpecPoint | None = None):
    """An exponent, checked: the default when no point is given."""
    if v == INF:
        return INF
    if isinstance(v, int) and not isinstance(v, bool) and v >= 0:
        return v
    what = "default" if pt is None else f"value at {pt}"
    raise QfiltError(f"{what} must be a nonnegative integer or INF, not {echo(v)}")


def trivial_filter(scheme) -> LocalFilter:
    """The filter containing only the unit ideal, built once per scheme:
    exponent 0 everywhere and nothing killed is normal on every scheme."""
    flt = scheme.memo.get("trivial")
    if flt is None:
        flt = scheme.memo["trivial"] = LocalFilter(scheme, False, 0, (), ComponentSet.none())
    return flt


def principal_filter(scheme, ideal: IdealSheaf) -> LocalFilter:
    """The filter of all ideal sheaves containing the given one."""
    check_same_scheme(scheme, ideal.scheme)
    return _normal(scheme, 0, ideal.orders, ideal.killed)


# ---------------------------------------------------------------------------
# membership and stalkwise views


def kill_admitted(flt: LocalFilter, pattern: ComponentSet) -> bool:
    """Whether a proper filter admits vanishing on every component of the
    pattern; callers decide the improper filter, which admits everything.

    Both patterns are in normal form.  Field components must be killed in
    the filter; an Artinian component is admitted when every point of it
    sits at its cap, and a proper filter on an Artinian scheme kills
    nothing in normal form; a curve component needs the improper filter."""
    if pattern.issubset(flt.killed):
        return True
    scheme = flt.scheme
    if scheme.component_type != "artinian":
        return False
    return all(flt.value(pt) >= cap
               for pt, cap in (scheme.closed[c] for c in pattern.members))


def contains(flt: LocalFilter, ideal: IdealSheaf) -> bool:
    """Whether the filter contains an ideal sheaf."""
    check_same_scheme(flt.scheme, ideal.scheme)
    if flt.improper:
        return True
    if not kill_admitted(flt, ideal.killed):
        return False
    return all(n <= flt.value(pt) for pt, n in ideal.orders)


def localize(flt: LocalFilter, pt: SpecPoint) -> StalkFilter:
    """The stalk of the filter at a point."""
    scheme = flt.scheme
    if not scheme.has_point(pt):
        raise QfiltError(f"point {pt} does not lie on {scheme}")
    if flt.improper:
        return EVERYTHING
    if pt.kind == "generic":
        # only field components stay killed in normal form
        return EVERYTHING if flt.killed.contains(pt.component) else FULL_ONLY
    v = flt.value(pt)
    cap = scheme.closed_cap(pt)
    if v == INF:
        return ALL_POWERS
    if cap != INF and v >= cap:
        return EVERYTHING
    return up_to(int(v))


def restrict(flt: LocalFilter, cid: int) -> LocalFilter:
    """Restrict a filter to a chart; the result lives on the chart scheme."""
    chart = flt.scheme.chart(cid)
    if chart.scheme is flt.scheme:
        return flt
    if flt.improper:
        return improper_filter(chart.scheme)
    kept = [kv for kv in flt.exceptions if chart.has(kv[0])] if flt.exceptions else ()
    return _normal(chart.scheme, flt.default, kept, chart.killed(flt.killed))


# ---------------------------------------------------------------------------
# the lattice and the product


def meet(a: LocalFilter, b: LocalFilter) -> LocalFilter:
    """Intersection of filters: pointwise min of exponents."""
    if a.scheme is not b.scheme:
        check_same_scheme(a.scheme, b.scheme)
    if a.improper:
        return b
    if b.improper:
        return a
    return _pointwise(a, b, min, a.killed.intersect(b.killed))


def join(a: LocalFilter, b: LocalFilter) -> LocalFilter:
    """Smallest local filter containing both: pointwise max of exponents."""
    if a.scheme is not b.scheme:
        check_same_scheme(a.scheme, b.scheme)
    if a.improper:
        return a
    if b.improper:
        return b
    return _pointwise(a, b, max, a.killed.union(b.killed))


def product(a: LocalFilter, b: LocalFilter) -> LocalFilter:
    """The product filter, generated by products of members; exponents add."""
    if a.scheme is not b.scheme:
        check_same_scheme(a.scheme, b.scheme)
    if a.improper:
        return a
    if b.improper:
        return b
    return _pointwise(a, b, operator.add, a.killed.union(b.killed))


def _pointwise(a: LocalFilter, b: LocalFilter, op, killed: ComponentSet) -> LocalFilter:
    da, db = a.default, b.default
    return _normal(a.scheme, op(da, db), merge_tables(a.exceptions, b.exceptions, op, da, db),
                   killed)


# ---------------------------------------------------------------------------
# predicates


def is_principal(flt: LocalFilter) -> tuple[bool, IdealSheaf | None]:
    """Whether the filter has a least member, and that member if so."""
    if flt.improper:
        return True, zero_sheaf(flt.scheme)
    if flt.default != 0:
        return False, None
    if any(v == INF for _, v in flt.exceptions):
        return False, None
    # the exceptions are finite orders >= 1 in point order and the killed
    # pattern is normal, so the trusted constructor suffices; it folds an
    # order at the stalk length into killed, as sheaf() does
    return True, _normal_sheaf(flt.scheme, flt.exceptions, flt.killed)


def is_product_closed(flt: LocalFilter) -> bool:
    """Whether the filter is closed under products of members."""
    if flt.improper:
        return True
    if flt.default not in (0, INF):
        return False
    return all(v == INF or v == flt.scheme.closed_cap(pt) or v == 0
               for pt, v in flt.exceptions)


def is_prime(flt: LocalFilter) -> SpecPoint | None:
    """The point x with flt = {I : I_x = O_x}, if there is one: the only
    point whose stalk filter stops short of everything, which must admit
    just the unit ideal when it is a closed point."""
    scheme = flt.scheme
    if flt.improper:
        return None
    # in normal form only field components are killed
    if scheme.component_type == "curve":
        if flt.default != INF:
            return None
        low = [pt for pt, _ in flt.exceptions] or [generic_point(0)]
    elif scheme.component_type == "artinian":
        low = [pt for pt, cap in scheme.closed if flt.value(pt) < cap]
    else:
        alive = scheme.normal_pattern(flt.killed.invert())
        if not alive.is_finite:
            return None
        low = [generic_point(c) for c in sorted(alive.members)]
    if len(low) == 1 and (low[0].kind == "generic" or flt.value(low[0]) == 0):
        return low[0]
    return None


# ---------------------------------------------------------------------------
# generation and locality


class FilterBase(Value):
    """A generating set for a filter: finitely many ideal sheaves, or the
    family of ideal sheaves vanishing on finitely many components of the
    symbolic disjoint union (cofinite=True)."""

    __slots__ = ("scheme", "generators", "cofinite")


def filter_base(scheme, generators) -> FilterBase:
    gens = tuple(generators)
    for g in gens:
        check_same_scheme(scheme, g.scheme)
    if not gens:
        raise QfiltError("a filter base needs at least one generator")
    return FilterBase(scheme, gens, False)


def cofinite_family(scheme) -> FilterBase:
    """The family of ideal sheaves vanishing on finitely many components of
    the symbolic disjoint union."""
    if scheme.component_count is not None:
        raise UnsupportedFamilyError(
            "the cofinite-components family lives on the symbolic disjoint union only"
        )
    return FilterBase(scheme, (), True)


def generate(base: FilterBase) -> LocalFilter:
    """Smallest local filter containing the base."""
    if base.cofinite:
        # every component admits a member vanishing there, so the local
        # closure contains every ideal sheaf
        return improper_filter(base.scheme)
    least = reduce(sheaf_intersect, base.generators)
    return principal_filter(base.scheme, least)


def is_local(base: FilterBase) -> tuple[bool, LocalFilter]:
    """Whether the plain filter generated by the base is already local,
    together with the local closure.

    A finite base generates the principal filter of the intersection of
    its members, which is local on every model here.  The cofinite family
    on the symbolic disjoint union is the counterexample: it is a filter
    but not a local one, and its local closure is Improper."""
    return not base.cofinite, generate(base)


# ---------------------------------------------------------------------------
# gluing


def glue_filters(scheme, chart_data: dict, rest: str | None = None) -> LocalFilter:
    """Assemble a filter from per-chart filters.

    Chart filters must agree on shared points (same default, same
    exceptional values).  On a disjoint union, components missing from
    chart_data take `rest`: "trivial" (the unit-ideal filter, the default)
    or "improper"."""
    rest, pieces = gluing_charts(scheme, chart_data, rest, ("trivial", "improper"))
    dead, alive = glue_components(
        pieces, lambda flt, i: flt.improper or flt.killed.contains(i),
        "incompatible charts: improper on one chart only")
    live = [(cid, chart, flt) for cid, chart, flt in pieces if not flt.improper]
    default = live[0][2].default if live else 0
    for cid, _chart, flt in live[1:]:
        if flt.default != default:
            raise GluingError(
                f"incompatible defaults: {_show_exp(default)} in chart {live[0][0]}, "
                f"{_show_exp(flt.default)} in chart {cid}"
            )
    exceptions = glue_points(
        live, lambda flt: [pt for pt, _ in flt.exceptions], LocalFilter.value,
        lambda pt, c0, v0, c1, v1:
            f"incompatible at point {pt}: {_show_exp(v0)} in chart {c0}, {_show_exp(v1)} in chart {c1}")
    killed = ComponentSet.of(dead) if rest == "trivial" else ComponentSet.cofinite(alive)
    return _normal(scheme, default, exceptions, scheme.normal_pattern(killed))


# ---------------------------------------------------------------------------
# finite enumeration


def enumerate_quotient_filters(scheme: Scheme) -> tuple[LocalFilter, ...]:
    """All local filters on an Artinian quotient, one per exponent vector."""
    if scheme.ring.degree > MAX_QUOTIENT_DEGREE:
        raise QfiltError(
            f"lattice too large: modulus degree {scheme.ring.degree} "
            f"exceeds {MAX_QUOTIENT_DEGREE}"
        )
    prime_pts = scheme.primes()
    ranges = [range(cap + 1) for _, cap in prime_pts]
    out = []
    for exps in itertools.product(*ranges):
        exceptions = [(pt, e) for (pt, _), e in zip(prime_pts, exps)]
        out.append(_normal(scheme, 0, exceptions, ComponentSet.none()))
    return tuple(out)
