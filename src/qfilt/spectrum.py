"""Points of desk-scale spectra, their specialization order, and supports.

A SpecPoint is either a closed point or the generic point of one connected
component.  Closed points of a line over a prime field are named by monic
irreducible polynomials; over a symbolic algebraically closed field by
opaque labels; the extra point of the projective line is named "inf".
Points of an Artinian quotient k[x]/(f) are the prime factors of f, one
connected component per prime; components of a disjoint union of fields
carry a single generic point each and no closed points.

The specialization order used throughout is the atom order: x <= y exactly
when y lies in the closure of {x}, so the generic point of a component sits
below every closed point of that component and closed points are
incomparable.  A subset is specialization closed when it is upward closed
for that order; on the schemes here this means that it either avoids the
generic points or contains whole components.

Tables of (point, value) pairs, the exceptions of a filter and the orders
of an ideal sheaf, are stored in point order (SpecPoint.sort_key):
sorted_table puts a caller's pairs in that order, and merge_tables
combines two stored tables pointwise in one pass.

ComponentSet is a finite-or-cofinite pattern of connected components, the
only component patterns the engine ever needs; over a symbolic Z-indexed
disjoint union the cofinite side is genuinely infinite.  Every stored
pattern (the killed components of ideal sheaves and filters, the free
components of TorsionSheafData) is in the normal form of its scheme: an
explicit list on finitely many components, so an empty pattern is
ComponentSet.none() and nothing else.  That is one object: of, intersect,
invert and normalize return it for every empty finite pattern, and union
returns an operand, so no empty pattern is built twice.  Its predicates
is_none, is_all and is_finite are stored, worked out from the fields when
a pattern is built, so they hold for a pattern a caller builds too.

SpecClosedSet is a decidable descriptor of a specialization-closed
subset: empty, all, a finite set of closed points, a cofinite set of
closed points (all but a finite exclusion list, generic points excluded),
or a ComponentSet worth of whole components.

TorsionSheafData describes the quasi-coherent sheaves this engine can
test membership for: a finite multiset of (closed point, exponent) pairs,
meaning a torsion summand killed by the exponent-th power of the point's
maximal ideal, plus a pattern of components carrying a free summand.
"""

from collections import Counter

from .errors import QfiltError, echo
from .fields import PrimeField, check_label
from .poly import PrimePoly, irreducibles, poly_to_str
from .values import Value

INF_NAME = "inf"


class SpecPoint(Value):
    """A point of a scheme: kind "closed" or "generic", the index of its
    connected component, and a name (poly/label/"inf"; None for generic).
    text is the point's literal, derived from the other fields: "comp:N"
    for the generic point of component N, "pt:" and the name for a closed
    point."""

    # text, _hash and _sort_key are computed once per point: points are
    # written in every literal, key every exponent table and sort every
    # normal form
    __slots__ = ("kind", "component", "name", "text", "_hash", "_sort_key")
    _fields = ("kind", "component", "name")

    def __init__(self, kind: str, component: int, name: PrimePoly | str | None = None):
        if kind == "generic":
            tag, text = (0,), f"comp:{component}"
        elif isinstance(name, PrimePoly):
            tag, text = (1, *name.sort_key()), "pt:" + poly_to_str(name)
        else:
            tag = (3,) if name == INF_NAME else (2, name)
            text = f"pt:{name}"
        set_kind, set_component, set_name, set_text, set_hash, set_sort_key = SpecPoint._setters
        set_kind(self, kind)
        set_component(self, component)
        set_name(self, name)
        set_text(self, text)
        set_hash(self, hash((kind, component, name)))
        set_sort_key(self, (component, tag))

    def __eq__(self, other):
        # points on one scheme are shared objects, and equal points hash
        # alike, so identity and the stored hash settle most comparisons
        if other is self:
            return True
        if other.__class__ is self.__class__:
            return (self._hash == other._hash
                    and (self.kind, self.component, self.name)
                    == (other.kind, other.component, other.name))
        return NotImplemented

    def __hash__(self) -> int:
        return self._hash

    def sort_key(self):
        return self._sort_key

    def __str__(self) -> str:
        return self.text


def closed_point(name, component: int = 0) -> SpecPoint:
    return SpecPoint("closed", component, name)


def generic_point(component: int = 0) -> SpecPoint:
    return SpecPoint("generic", component)


def inf_point() -> SpecPoint:
    return SpecPoint("closed", 0, INF_NAME)


def sorted_points(points) -> tuple[SpecPoint, ...]:
    return tuple(sorted(points, key=SpecPoint.sort_key))


def _point_of(pair):
    return pair[0]._sort_key


def sorted_table(pairs) -> list:
    """(point, value) pairs in point order, the order of every stored table."""
    return sorted(pairs, key=_point_of)


def merge_tables(ta, tb, op, da, db) -> list:
    """op(a's value, b's value) at each point that table ta or tb lists, as
    one table in point order.  Both tables hold (point, value) pairs in
    point order, each point once, and a point that a table lacks reads da
    (for ta) or db (for tb).  On one scheme distinct closed points have
    distinct sort keys, so comparing keys decides both order and identity."""
    if not tb:
        return [(pt, op(v, db)) for pt, v in ta] if ta else []
    if not ta:
        return [(pt, op(da, v)) for pt, v in tb]
    out = []
    i = j = 0
    na, nb = len(ta), len(tb)
    while i < na and j < nb:
        pa, va = ta[i]
        pb, vb = tb[j]
        ka, kb = pa._sort_key, pb._sort_key
        if pa is pb or ka == kb:
            out.append((pa, op(va, vb)))
            i += 1
            j += 1
        elif ka < kb:
            out.append((pa, op(va, db)))
            i += 1
        else:
            out.append((pb, op(da, vb)))
            j += 1
    out += [(pt, op(v, db)) for pt, v in ta[i:]]
    out += [(pt, op(da, v)) for pt, v in tb[j:]]
    return out


# ---------------------------------------------------------------------------
# component patterns


class ComponentSet(Value):
    """A finite or cofinite set of connected-component indices.

    complement=False means exactly `members`; complement=True means all
    components except `members`.  Set algebra stays inside this class of
    patterns, which is what makes disjoint-union filters finitely
    presentable.  The predicates is_none (no component), is_all (every
    component) and is_finite (not cofinite) are stored, derived from the
    two fields in the constructor."""

    # the predicates are read about twenty times per filter operation
    __slots__ = ("complement", "members", "is_none", "is_all", "is_finite")
    _fields = ("complement", "members")

    def __init__(self, complement: bool, members: frozenset[int]):
        set_complement, set_members, set_none, set_all, set_finite = ComponentSet._setters
        set_complement(self, complement)
        set_members(self, members)
        set_none(self, not complement and not members)
        set_all(self, complement and not members)
        set_finite(self, not complement)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.complement, self.members) == (other.complement, other.members)
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.complement, self.members))

    @staticmethod
    def of(indices) -> "ComponentSet":
        return _finite(frozenset(indices))

    @staticmethod
    def cofinite(excluded) -> "ComponentSet":
        return ComponentSet(True, frozenset(excluded))

    @staticmethod
    def none() -> "ComponentSet":
        return _NO_COMPONENTS

    @staticmethod
    def all() -> "ComponentSet":
        return _ALL_COMPONENTS

    def contains(self, index: int) -> bool:
        if self.complement:
            return index not in self.members
        return index in self.members

    def union(self, other: "ComponentSet") -> "ComponentSet":
        # the empty pattern, which every curve and quotient filter stores,
        # leaves the other operand as it is
        if other.is_none:
            return self
        if self.is_none:
            return other
        if not self.complement and not other.complement:
            return ComponentSet(False, self.members | other.members)
        if self.complement and other.complement:
            return ComponentSet(True, self.members & other.members)
        fin, cof = (self, other) if not self.complement else (other, self)
        return ComponentSet(True, cof.members - fin.members)

    def intersect(self, other: "ComponentSet") -> "ComponentSet":
        if self.is_none:
            return self
        if other.is_none:
            return other
        if not self.complement and not other.complement:
            return _finite(self.members & other.members)
        if self.complement and other.complement:
            return ComponentSet(True, self.members | other.members)
        fin, cof = (self, other) if not self.complement else (other, self)
        return _finite(fin.members - cof.members)

    def invert(self) -> "ComponentSet":
        if self.complement:
            return _finite(self.members)
        return ComponentSet(True, self.members)

    def issubset(self, other: "ComponentSet") -> bool:
        """Whether every component of this pattern is in the other, decided
        on the members: a cofinite pattern lies in no finite one."""
        if self.complement:
            return other.complement and other.members <= self.members
        if other.complement:
            return self.members.isdisjoint(other.members)
        return self.members <= other.members

    def normalize(self, count: int | None) -> "ComponentSet":
        """Rewrite against `count` components (None: the symbolic family)
        so equal sets compare equal."""
        if count is not None:
            all_idx = frozenset(range(count))
            explicit = (all_idx - self.members) if self.complement else (self.members & all_idx)
            return _finite(explicit)
        return self if self.complement or self.members else _NO_COMPONENTS


_NO_COMPONENTS = ComponentSet(False, frozenset())
_ALL_COMPONENTS = ComponentSet(True, frozenset())


def _finite(members: frozenset) -> ComponentSet:
    """The finite pattern of exactly `members`: ComponentSet.none() itself
    when there are none."""
    return ComponentSet(False, members) if members else _NO_COMPONENTS


# ---------------------------------------------------------------------------
# specialization-closed subsets


class SpecClosedSet(Value):
    """Decidable descriptor of a specialization-closed subset.

    kind "empty" | "all" | "finite" (the listed closed points) |
    "cofinite_closed" (every closed point except the listed ones, no
    generic points) | "components" (whole components per ComponentSet)."""

    __slots__ = ("scheme", "kind", "points", "components")


def empty_set(scheme) -> SpecClosedSet:
    return SpecClosedSet(scheme, "empty", (), None)


def all_set(scheme) -> SpecClosedSet:
    return SpecClosedSet(scheme, "all", (), None)


def finite_closed(scheme, points) -> SpecClosedSet:
    pts = sorted_points(set(points))
    for pt in pts:
        scheme.check_closed_point(pt)
    if not pts:
        return empty_set(scheme)
    if scheme.closed is not None and len(pts) == len(scheme.closed):
        # every closed point, since the points are distinct and lie on the
        # scheme: only an Artinian quotient lists its closed points, and it
        # has no generic points, so this is everything
        return all_set(scheme)
    return SpecClosedSet(scheme, "finite", pts, None)


def cofinite_closed(scheme, excluded) -> SpecClosedSet:
    """Every closed point but the excluded ones, on a curve: an Artinian or
    union scheme lists its closed points, so finite_closed names any set of
    them."""
    pts = sorted_points(set(excluded))
    for pt in pts:
        scheme.check_closed_point(pt)
    return SpecClosedSet(scheme, "cofinite_closed", pts, None)


def component_set(scheme, components: ComponentSet, points=()) -> SpecClosedSet:
    """The whole components of a pattern plus finitely many closed points.

    An Artinian component is its one closed point; a curve scheme has one
    component, so any pattern there is empty or everything."""
    cs = scheme.normal_pattern(components)
    if scheme.component_type == "artinian":
        return finite_closed(scheme, [*points, *(scheme.closed[c][0] for c in cs.members)])
    if cs.is_none:
        return finite_closed(scheme, points)
    if scheme.covers(cs):
        return all_set(scheme)
    return SpecClosedSet(scheme, "components", (), cs)


def is_specialization_closed(subset, scheme) -> bool:
    """Whether a subset of points is closed under specialization.

    Accepts a SpecClosedSet (true by construction) or an explicit finite
    iterable of SpecPoints; a generic point in an explicit set demands every
    point of its component, which no finite set provides on a curve."""
    if isinstance(subset, SpecClosedSet):
        return True
    pts = list(subset)
    for pt in pts:
        if not scheme.has_point(pt):
            raise QfiltError(f"point {pt} does not lie on {scheme}")
    # the generic point of a field component is the whole component
    return scheme.component_type != "curve" or all(pt.kind == "closed" for pt in pts)


# ---------------------------------------------------------------------------
# the spectrum as a poset


class SpecPoset(Value):
    """Enumerated part of a spectrum with its specialization order.

    Fields, in order: scheme, the listed closed and generic points,
    specializations (the pairs x < y of the atom order, each a generic point
    and a closed point of its component, sorted by x, then y), and the flags
    symbolic_closed (a line: closed points run on past those listed) and
    symbolic_components (infinitely many components)."""

    __slots__ = ("scheme", "closed", "generic", "specializations", "symbolic_closed",
                 "symbolic_components")


def spec(scheme, degree_bound: int | None = None, labels=()) -> SpecPoset:
    """Enumerate the spectrum of a scheme model.

    degree_bound (default 1) caps the degree of closed points on a line over
    a prime field; labels lists the points to materialize on a line over a
    symbolic field.  Either is an error on any other scheme.  The closed
    points of a line beyond the enumerated part, and the components of the
    symbolic union, are reported by the symbolic_* flags."""
    labels = tuple(labels)
    line = scheme.closed is None
    prime_line = line and isinstance(scheme.field, PrimeField)
    if degree_bound is not None and not prime_line:
        raise QfiltError(f"a degree bound needs a line over a prime field, not {scheme}")
    if labels and (not line or prime_line):
        raise QfiltError(f"labels need a line over a symbolic field, not {scheme}")
    if degree_bound is not None and degree_bound < 1:
        raise QfiltError(f"degree bound must be a positive integer, not {degree_bound}")
    if prime_line:
        # highest degree first, so that a bound past the enumeration cap
        # fails before any work; the points are sorted below
        names = [q for d in range(degree_bound or 1, 0, -1)
                 for q in irreducibles(scheme.field.p, d)]
    else:
        names = [check_label(l) for l in labels]
        repeated = [l for l, count in Counter(names).items() if count > 1]
        if repeated:
            raise QfiltError(f"label {echo(repeated[0])} is listed more than once")
    if line:
        closed = [pt for pt in map(closed_point, names) if pt not in scheme.removed]
        closed += scheme.added
    else:
        closed = [pt for pt, _ in scheme.closed]
    closed, generic = sorted_points(closed), sorted_points(scheme.generic_points())
    pairs = tuple((g, pt) for g in generic for pt in closed if pt.component == g.component)
    return SpecPoset(scheme, closed, generic, pairs, line, scheme.component_count is None)


# ---------------------------------------------------------------------------
# torsion sheaf data


class TorsionSheafData(Value):
    """A sheaf given by elementary divisors plus free components.

    divisors: sorted ((closed point, e), ...) with e >= 1, the summand
    killed by the e-th power of the point's maximal ideal; free: components
    carrying a summand with zero annihilator."""

    __slots__ = ("scheme", "divisors", "free")


def module_data(scheme, divisors=(), free=False) -> TorsionSheafData:
    out: list[tuple[SpecPoint, int]] = []
    for pt, e in divisors.items() if isinstance(divisors, dict) else divisors:
        scheme.check_closed_point(pt)
        if not isinstance(e, int) or isinstance(e, bool) or e < 1:
            raise QfiltError(f"divisor exponent at {pt} must be a positive integer")
        cap = scheme.closed_cap(pt)
        if e > cap:
            raise QfiltError(f"exponent {e} at {pt} exceeds the stalk length {cap}")
        out.append((pt, e))
    if free is True:
        cs = ComponentSet.all()
    elif free is False:
        cs = ComponentSet.none()
    elif isinstance(free, ComponentSet):
        cs = free
    else:
        cs = ComponentSet.of(free)
    cs = scheme.checked_pattern(cs)
    divisor_key = lambda pair: (pair[0].sort_key(), pair[1])
    return TorsionSheafData(scheme, tuple(sorted(out, key=divisor_key)), cs)


def supp_ass(data: TorsionSheafData):
    """Support and associated points of a TorsionSheafData.

    Returns (SpecClosedSet, frozenset of SpecPoint).  The support of a
    direct sum is the union of supports, so the descriptor is computed
    from the divisors and free components directly.  A free summand over
    an Artinian component is torsion at its one point, at the full stalk
    length; elsewhere it is associated to the generic point."""
    scheme, free = data.scheme, data.free
    if not free.is_finite:
        raise QfiltError(
            "associated points of a cofinitely-free sheaf on a symbolic union are not enumerable; "
            "list the free components explicitly"
        )
    torsion = [pt for pt, _ in data.divisors]
    if scheme.component_type == "artinian":
        free_pts = [scheme.closed[c][0] for c in free.members]
    else:
        free_pts = [generic_point(c) for c in free.members]
    return component_set(scheme, free, torsion), frozenset(torsion + free_pts)
