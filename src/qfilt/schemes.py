"""Desk-scale scheme models, their charts, and quasi-coherent ideal sheaves.

Every scheme is one Scheme value: connected components of one type (a
curve, an Artinian chain of length e, or a field point), covered by affine
charts.  Its defining fields are the kind plus the line's field, the
quotient ring, or the union's component fields:

  affine_line      A1(k) over a prime or symbolic field; one chart.
  proj_line        P1(k): the line plus "inf".  Chart 0 is the affine line
                   (missing "inf"), chart 1 the proj_chart_one scheme.
  proj_chart_one   the line with "inf" in place of the zero point.
  affine_quotient  Spec k[x]/(f): one component per prime factor of f, each
                   a single closed point whose stalk is a chain ring of
                   length the multiplicity of that prime; one chart.
  disjoint_union   finitely many Spec k_i, or the symbolic Z-indexed family
                   (components=None); each component is a single generic
                   point and its own chart.

Everything else is derived once at construction: the number of
components (None on the symbolic family) and their type, the finite closed
points with their stalk lengths (None on a curve, whose closed points are
the line's), the closed points a chart of P1 adds to or removes from the
line, and the chart table.  Points are intrinsic and shared by charts by
name, so restriction and gluing never rewrite coordinates; both read the
chart table and nothing else.  What is built later is built once too:
each scheme keeps a memo, which no comparison reads, of its improper and
trivial filters and, on the symbolic union, of the Chart of each chart id
asked for, so restriction and gluing on a union build no chart and no
constant filter; the literals module keeps its point memo there too.
Only Scheme knows the component count, so it alone answers the two
questions asked of a component pattern: its normal form (an explicit list
on finitely many components) and whether it holds every component.

An ideal subsheaf of the structure sheaf is stored intrinsically as
IdealSheaf: a ComponentSet of components where it vanishes, plus finitely
many (closed point, order) pairs away from those; everything else is the
unit ideal.  On an Artinian component, an order equal to the stalk length
means the stalk is zero, so such orders are normalized into the killed
pattern and stored orders stay strictly below the cap.  This normal form
makes structural equality coincide with equality of subsheaves.

Ideal sheaves are built two ways, as filters are.  sheaf() is the one
validating entry, for literals, classification and callers of the API: it
checks that every point is a closed point of the scheme with an order in
0,1,2,..., and that every component a killed pattern lists is one of the
scheme's.  sheaf_from_poly() reads the ideal of a polynomial on a
one-chart scheme.  _normal() is the trusted constructor behind every
engine result: it only folds and drops.  Its parts come from ideal
sheaves already in normal form, combined pointwise or cut down to a chart,
so the points still lie on the scheme, the orders stay integers (INF only
on killed components), and the killed pattern stays normal; its orders
arrive in point order, as the filters' exponents do, so it sorts nothing.
Every engine result is a fixed point of sheaf().

Products, sums and intersections of ideal sheaves act pointwise on
effective orders (the order at a vanishing component counts as INF), and
containment is the reversed pointwise comparison.  glue_ideals assembles a
global sheaf from per-chart data and reports the first point where charts
disagree on the overlap.
"""

import operator
from types import SimpleNamespace
from typing import NamedTuple

from .config import INF, MAX_UNION_COMPONENTS
from .errors import GluingError, QfiltError, RingMismatchError
from .fields import BaseField, PrimeField, SymbolicAlgClosed
from .ideals import QuotientRing
from .poly import PrimePoly, factor, is_irreducible, poly_gcd
from .spectrum import (
    ComponentSet,
    SpecClosedSet,
    SpecPoint,
    closed_point,
    component_set,
    generic_point,
    inf_point,
    INF_NAME,
    merge_tables,
    sorted_table,
)
from .values import Value


class Chart(NamedTuple):
    """An affine chart: its scheme, the component of the whole scheme
    behind each chart component, and the closed points of the whole scheme
    that the chart leaves out.  Only field components, which have no closed
    points, are ever renumbered, so a closed point has the same name and
    component on every chart that holds it."""

    scheme: "Scheme"
    components: tuple[int, ...]
    dropped: tuple[SpecPoint, ...] = ()

    def has(self, pt: SpecPoint) -> bool:
        return pt.component in self.components and (not self.dropped or pt not in self.dropped)

    def killed(self, cs: ComponentSet) -> ComponentSet:
        """A component pattern of the whole scheme, as seen on the chart."""
        if cs.is_none:
            return cs
        if len(self.components) == 1:
            return _FIRST_COMPONENT if cs.contains(self.components[0]) else ComponentSet.none()
        return ComponentSet.of([i for i, c in enumerate(self.components) if cs.contains(c)])


_FIRST_COMPONENT = ComponentSet.of((0,))  # what a one-component chart sees killed


_LINE_NAMES = {"affine_line": "A1", "proj_line": "P1", "proj_chart_one": "P1-chart1"}


class Scheme(Value):
    """A desk-scale scheme; see the module docstring for the shapes.

    Equality and hashing use the defining fields only.  The derived fields:
    component_count (None on the symbolic union), component_type ("curve",
    "artinian" or "field", shared by every component), closed (((point,
    stalk length), ...) in component order when there are finitely many
    closed points, else None; closed[c] is the one point of Artinian
    component c), added/removed (closed points beyond or missing from the
    line), chart_table (one Chart per chart id; on the symbolic union the
    template every component's chart follows), affine (polynomials in x
    name the ideals) and name (str).  normal_pattern and covers answer the
    two questions asked of a component pattern; check_closed_point and
    checked_pattern vet a caller's points and patterns.

    memo starts empty and holds the scheme's constants once built: the
    filters module keeps its improper and trivial filters there under
    those names, chart() on the symbolic union keeps each chart id's Chart
    under the id, and the literals module keeps its point memo under
    "points" (text -> point), which grows only with the distinct texts
    read on this scheme.  No comparison, hash, repr or copy reads it; a
    pickle or copy starts with an empty memo.  The improper filter refers
    back to its scheme, so a scheme that built one sits in a reference
    cycle, which the cyclic garbage collector frees."""

    __slots__ = ("kind", "field", "ring", "components", "component_count", "component_type",
                 "closed", "added", "removed", "chart_table", "affine", "name", "memo")
    _fields = ("kind", "field", "ring", "components")

    def __init__(self, kind: str, field: BaseField | None = None, ring: QuotientRing | None = None,
                 components: tuple[BaseField, ...] | None = None):
        set_kind, set_field, set_ring, set_components = Scheme._setters[:4]
        set_kind(self, kind)
        set_field(self, field)
        set_ring(self, ring)
        set_components(self, components)
        derived = _derive(self)
        for name, set_field in zip(Scheme.__slots__[4:-1], Scheme._setters[4:-1]):
            set_field(self, derived[name])
        Scheme._setters[-1](self, {})

    def charts(self):
        if self.component_count is None:
            raise QfiltError("the symbolic union has no finite chart list")
        return tuple(range(len(self.chart_table)))

    def chart(self, cid: int) -> Chart:
        symbolic = self.component_count is None
        if not isinstance(cid, int) or cid < 0 or not symbolic and cid >= len(self.chart_table):
            raise QfiltError(f"{self} has no chart {cid}")
        if symbolic:  # chart c is component c, built once per id
            chart = self.memo.get(cid)
            if chart is None:
                chart = self.memo[cid] = Chart(self.chart_table[0].scheme, (cid,))
            return chart
        return self.chart_table[cid]

    def has_component(self, c: int) -> bool:
        """Whether c indexes a component: 0, 1, 2, ... below the count."""
        return c >= 0 and (self.component_count is None or c < self.component_count)

    def check_closed_point(self, pt: SpecPoint) -> None:
        if pt.kind != "closed":
            raise QfiltError(f"{pt} is not a closed point")
        if not self.has_point(pt):
            raise QfiltError(f"point {pt} does not lie on {self}")

    def checked_pattern(self, cs: ComponentSet) -> ComponentSet:
        """The normal form of a caller's pattern, whose every listed index
        must name a component."""
        for c in cs.members:
            if not self.has_component(c):
                raise QfiltError(f"{self} has no component {c}")
        return self.normal_pattern(cs)

    def normal_pattern(self, cs: ComponentSet) -> ComponentSet:
        """The normal form of a component pattern on this scheme."""
        return cs.normalize(self.component_count)

    def covers(self, cs: ComponentSet) -> bool:
        """Whether a component pattern in normal form holds every component."""
        return cs.is_all if self.component_count is None else len(cs.members) == self.component_count

    def generic_points(self):
        if self.component_type == "artinian" or self.component_count is None:
            return ()
        return tuple(generic_point(c) for c in range(self.component_count))

    def primes(self) -> tuple[tuple[SpecPoint, int], ...] | None:
        """((point, stalk length), ...) in component order."""
        return self.closed

    def point_named(self, name) -> SpecPoint | None:
        """The closed point named by a monic prime or a label, if any."""
        if self.closed is None:
            pt = closed_point(name)
            return pt if self.has_point(pt) else None
        return next((pt for pt, _ in self.closed if pt.name == name), None)

    def has_point(self, pt: SpecPoint) -> bool:
        if pt.kind == "generic":
            return self.component_type != "artinian" and self.has_component(pt.component)
        if self.closed is not None:
            return any(pt == p for p, _ in self.closed)
        if pt in self.added:
            return True
        if pt.component != 0 or pt in self.removed:
            return False
        name = pt.name
        if isinstance(self.field, PrimeField):
            return isinstance(name, PrimePoly) and name.p == self.field.p and is_irreducible(name)
        return isinstance(name, str) and name != INF_NAME

    def closed_cap(self, pt: SpecPoint):
        if self.closed is None:
            return INF
        for p, cap in self.closed:
            if p == pt:
                return cap
        raise QfiltError(f"point {pt} does not lie on {self}")

    def __str__(self) -> str:
        return self.name


def _derive(s: Scheme) -> dict:
    """The derived fields of a scheme, from its defining fields."""
    if s.kind in _LINE_NAMES:
        zero = closed_point(PrimePoly(s.field.p, (0, 1)) if isinstance(s.field, PrimeField)
                            else "0")
        charts = (Chart(s, (0,)),)
        if s.kind == "proj_line":
            charts = (Chart(Scheme("affine_line", s.field), (0,), (inf_point(),)),
                      Chart(Scheme("proj_chart_one", s.field), (0,), (zero,)))
        return dict(component_count=1, component_type="curve", closed=None,
                    added=() if s.kind == "affine_line" else (inf_point(),),
                    removed=(zero,) if s.kind == "proj_chart_one" else (),
                    chart_table=charts, affine=s.kind == "affine_line",
                    name=f"{_LINE_NAMES[s.kind]}({s.field})")
    if s.kind == "affine_quotient":
        closed = tuple((SpecPoint("closed", i, q), e)
                       for i, (q, e) in enumerate(s.ring.factors))
        return dict(component_count=len(closed), component_type="artinian",
                    closed=closed, added=(), removed=(),
                    chart_table=(Chart(s, tuple(range(len(closed)))),), affine=True,
                    name=str(s.ring))
    if s.kind == "disjoint_union":
        if s.components is None:
            count, name = None, "coprod_Z Spec k_i"
            charts = (Chart(Scheme("disjoint_union", components=(SymbolicAlgClosed(),)), (0,)),)
        else:
            count, name = len(s.components), f"coprod of {len(s.components)} points"
            charts = (Chart(s, (0,)),) if len(s.components) == 1 else tuple(
                Chart(Scheme("disjoint_union", components=(f,)), (i,))
                for i, f in enumerate(s.components))
        return dict(component_count=count, component_type="field", closed=(), added=(),
                    removed=(), chart_table=charts, affine=False, name=name)
    raise QfiltError(f"unknown scheme kind {s.kind!r}")


def AffineLine(field: BaseField) -> Scheme:
    """The affine line over a prime or symbolic algebraically closed field."""
    return Scheme("affine_line", field)


def ProjLine(field: BaseField) -> Scheme:
    """The projective line with intrinsic points: the points of the affine
    line plus "inf".  Chart 0 misses "inf"; chart 1 misses the zero point."""
    return Scheme("proj_line", field)


def ProjChartOne(field: BaseField) -> Scheme:
    """Chart 1 of the projective line: the line with "inf" in place of the
    zero point."""
    return Scheme("proj_chart_one", field)


def AffineQuotient(ring: QuotientRing) -> Scheme:
    """Spec k[x]/(f): one closed point per prime factor of f, each its own
    connected component with a chain-ring stalk of length the multiplicity."""
    return Scheme("affine_quotient", ring.field, ring)


def _explicit_union(fields) -> Scheme:
    """The disjoint union of finitely many spectra of fields."""
    fields = tuple(fields)
    if not fields:
        raise QfiltError("a disjoint union needs at least one component")
    if len(fields) > MAX_UNION_COMPONENTS:
        raise QfiltError(
            f"{len(fields)} components exceed the explicit limit {MAX_UNION_COMPONENTS}"
        )
    return Scheme("disjoint_union", components=fields)


def _symbolic_union() -> Scheme:
    """The symbolic Z-indexed family of spectra of fields."""
    return Scheme("disjoint_union")


DisjointUnion = SimpleNamespace(explicit=_explicit_union, symbolic=_symbolic_union)


def check_same_scheme(a, b) -> None:
    # engine operands nearly always share one scheme object
    if a is not b and a != b:
        raise RingMismatchError(f"scheme mismatch: {a} vs {b}")


def gluing_charts(scheme: Scheme, chart_data: dict, rest, choices) -> tuple[str, list]:
    """Check per-chart data for gluing against the chart table.

    On a disjoint union charts may be left out and take `rest`, one of
    `choices` (the first by default); elsewhere every chart is needed and
    `rest` is ignored.  Returns the rest value and (chart id, chart, data)
    triples in chart order."""
    partial = scheme.kind == "disjoint_union"
    if partial:
        rest = rest or choices[0]
        if rest not in choices:
            raise GluingError(f"rest must be {choices[0]!r} or {choices[1]!r}, not {rest!r}")
    else:
        rest = choices[0]
        if set(chart_data) != set(scheme.charts()):
            raise GluingError("expected exactly chart 0" if scheme.charts() == (0,) else
                              "the projective line needs chart data for charts 0 and 1")
    pieces = []
    for cid in sorted(chart_data):
        if partial and not scheme.has_component(cid):
            raise GluingError(f"no component {cid} on {scheme}")
        chart = scheme.chart(cid)
        check_same_scheme(chart_data[cid].scheme, chart.scheme)
        pieces.append((cid, chart, chart_data[cid]))
    return rest, pieces


def glue_components(pieces, killed_on, mismatch: str) -> tuple[set, set]:
    """The components the chart data kills and keeps; killed_on(data, i)
    tells whether chart component i is killed.  Charts sharing a component
    must agree on it."""
    dead, alive, seen = set(), set(), {}
    for _cid, chart, data in pieces:
        for i, c in enumerate(chart.components):
            killed = killed_on(data, i)
            if seen.setdefault(c, killed) != killed:
                raise GluingError(mismatch)
            (dead if killed else alive).add(c)
    return dead, alive


def glue_points(pieces, points_of, value_at, mismatch) -> list:
    """Merge per-chart values at closed points into one table in point
    order: points_of(data) lists the points a chart records, value_at(data,
    pt) reads a value.  Charts holding the same point must agree there, else
    mismatch(pt, chart, value, other chart, other value) names the first
    disagreement."""
    points = {pt for _cid, _chart, data in pieces for pt in points_of(data)}
    merged = []
    for pt in sorted(points, key=SpecPoint.sort_key):
        held = [(cid, value_at(data, pt)) for cid, chart, data in pieces if chart.has(pt)]
        (c0, v0), *others = held
        for c1, v1 in others:
            if v1 != v0:
                raise GluingError(mismatch(pt, c0, v0, c1, v1))
        merged.append((pt, v0))
    return merged


# ---------------------------------------------------------------------------
# ideal sheaves


class IdealSheaf(Value):
    """Canonical form of a quasi-coherent ideal subsheaf of the structure
    sheaf: vanishing components plus finitely many positive orders at
    closed points elsewhere (strictly below the stalk length where that is
    finite); the sheaf is the unit ideal away from all of that."""

    __slots__ = ("scheme", "killed", "orders")

    def __init__(self, scheme, killed: ComponentSet, orders: tuple[tuple[SpecPoint, int], ...]):
        set_scheme, set_killed, set_orders = IdealSheaf._setters
        set_scheme(self, scheme)
        set_killed(self, killed)
        set_orders(self, orders)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return ((self.scheme, self.killed, self.orders)
                    == (other.scheme, other.killed, other.orders))
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.scheme, self.killed, self.orders))

    def order_at(self, pt: SpecPoint) -> int | float:
        """Effective vanishing order; INF over killed components."""
        if self.killed.contains(pt.component):
            return INF
        for p, n in self.orders:
            if p == pt:
                return n
        return 0


def sheaf(scheme, orders=(), killed=()) -> IdealSheaf:
    """Build an IdealSheaf in normal form from caller-supplied parts: the
    one validating entry (see the module docstring).

    orders maps closed points to vanishing orders >= 1; killed lists
    components (iterable or ComponentSet) where the sheaf is zero.  Orders
    at or above a finite stalk length are folded into killed; a point given
    twice is rejected."""
    kcs = killed if isinstance(killed, ComponentSet) else ComponentSet.of(killed)
    kcs = scheme.checked_pattern(kcs)
    acc: dict[SpecPoint, int] = {}
    for pt, n in orders.items() if isinstance(orders, dict) else orders:
        scheme.check_closed_point(pt)
        if not isinstance(n, int) or isinstance(n, bool) or n < 0:
            raise QfiltError(f"order at {pt} must be a nonnegative integer")
        if pt in acc:
            raise QfiltError(f"duplicate order for {pt}")
        acc[pt] = n
    return _normal(scheme, sorted_table(acc.items()), kcs)


def _normal(scheme, orders, killed: ComponentSet) -> IdealSheaf:
    """The normal form of valid parts: `orders` lists (point, order) pairs
    at closed points of the scheme in point order, each point once (0 and
    INF allowed; INF only on killed components), and `killed` is in the
    scheme's normal form.  Nothing is checked here."""
    if scheme.component_type == "artinian":
        # an order at the stalk length kills the component
        full = [pt.component for pt, n in orders if n >= scheme.closed[pt.component][1]]
        if full:
            killed = killed.union(ComponentSet.of(full))
    if killed.is_none:
        kept = [kv for kv in orders if kv[1]]
    else:
        kept = [(pt, n) for pt, n in orders if n and not killed.contains(pt.component)]
    return IdealSheaf(scheme, killed, tuple(kept))


def unit_sheaf(scheme) -> IdealSheaf:
    return _normal(scheme, (), ComponentSet.none())


def zero_sheaf(scheme) -> IdealSheaf:
    return _normal(scheme, (), scheme.normal_pattern(ComponentSet.all()))


def sheaf_from_poly(scheme, gen) -> IdealSheaf:
    """The ideal sheaf of (gen) on a one-chart scheme whose coordinate ring
    is k[x] (the affine line) or k[x]/(f) (an Artinian quotient): its orders
    are the multiplicities of the prime factors of gen, or of gcd(gen, f) on
    a quotient, since that generates the same ideal there."""
    if not scheme.affine:
        raise QfiltError(f"{scheme} does not take affine-ideal input; use point orders")
    prime = isinstance(gen, PrimePoly)
    if prime != isinstance(scheme.field, PrimeField) or prime and gen.p != scheme.field.p:
        raise RingMismatchError("ring mismatch: generator is over a different field")
    if scheme.ring is not None:
        gen = poly_gcd(gen, scheme.ring.modulus)
    elif prime and gen.is_zero:
        return zero_sheaf(scheme)
    return _normal(scheme, sorted_table((scheme.point_named(q), m) for q, m in factor(gen)),
                   ComponentSet.none())


def sheaf_product(a: IdealSheaf, b: IdealSheaf) -> IdealSheaf:
    return _pointwise(a, b, operator.add, a.killed.union(b.killed))


def sheaf_intersect(a: IdealSheaf, b: IdealSheaf) -> IdealSheaf:
    return _pointwise(a, b, max, a.killed.union(b.killed))


def sheaf_sum(a: IdealSheaf, b: IdealSheaf) -> IdealSheaf:
    return _pointwise(a, b, min, a.killed.intersect(b.killed))


def _pointwise(a: IdealSheaf, b: IdealSheaf, op, killed: ComponentSet) -> IdealSheaf:
    check_same_scheme(a.scheme, b.scheme)
    return _normal(a.scheme, merge_tables(_effective(a, b), _effective(b, a), op, 0, 0), killed)


def _effective(a: IdealSheaf, b: IdealSheaf):
    """a's orders, plus INF at each point b lists on a component that a
    kills: with 0 everywhere else, a's effective order at every point that
    a or b lists."""
    if a.killed.is_none:
        return a.orders
    dead = [(pt, INF) for pt, _ in b.orders if a.killed.contains(pt.component)]
    return sorted_table(a.orders + tuple(dead)) if dead else a.orders


def sheaf_contains(a: IdealSheaf, b: IdealSheaf) -> bool:
    """Whether a contains b, i.e. a has everywhere smaller effective order."""
    check_same_scheme(a.scheme, b.scheme)
    if not a.killed.issubset(b.killed):
        return False
    return all(le for _, le in merge_tables(_effective(a, b), _effective(b, a), operator.le, 0, 0))


def sheaf_is_idempotent(a: IdealSheaf) -> bool:
    return sheaf_product(a, a) == a


def restrict_sheaf(a: IdealSheaf, cid: int) -> IdealSheaf:
    """Restrict to a chart; restriction is localization, so data at points
    outside the chart is simply dropped."""
    chart = a.scheme.chart(cid)
    if chart.scheme is a.scheme:
        return a
    kept = [kv for kv in a.orders if chart.has(kv[0])] if a.orders else ()
    return _normal(chart.scheme, kept, chart.killed(a.killed))


def glue_ideals(scheme, chart_data: dict, rest: str | None = None) -> IdealSheaf:
    """Assemble a global ideal sheaf from per-chart IdealSheaf data.

    chart_data maps chart ids to sheaves on the corresponding chart
    schemes.  On a disjoint union, components missing from chart_data take
    the value `rest` ("unit" or "zero", default "unit"); that is also the
    only way to describe cofinitely many components of the symbolic
    family."""
    rest, pieces = gluing_charts(scheme, chart_data, rest, ("unit", "zero"))
    dead, alive = glue_components(
        pieces, lambda data, i: data.killed.contains(i),
        "overlap mismatch: one chart is the zero sheaf and the other is not")
    orders = glue_points(
        pieces, lambda data: [pt for pt, _ in data.orders], IdealSheaf.order_at,
        lambda pt, c0, n0, c1, n1:
            f"overlap mismatch at point {pt}: order {n0} in chart {c0}, {n1} in chart {c1}")
    killed = ComponentSet.of(dead) if rest == "unit" else ComponentSet.cofinite(alive)
    return _normal(scheme, orders, scheme.normal_pattern(killed))


# ---------------------------------------------------------------------------
# closed subschemes


class ClosedSubscheme(Value):
    """A closed subscheme presented by its ideal sheaf and its support."""

    __slots__ = ("ideal", "support")


def closed_subscheme(ideal: IdealSheaf) -> ClosedSubscheme:
    return ClosedSubscheme(ideal, subscheme_support(ideal))


def subscheme_support(ideal: IdealSheaf) -> SpecClosedSet:
    """Support of the quotient by an ideal sheaf: the points where the
    stalk of the ideal is proper."""
    return component_set(ideal.scheme, ideal.killed, [pt for pt, _ in ideal.orders])
