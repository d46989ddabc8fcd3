"""Classification of the subcategory attached to a local filter.

A local filter F cuts out the full subcategory of sheaves all of whose
elements have annihilator in F.  That subcategory is always prelocalizing
(closed under subobjects, quotients and direct sums); it is localizing
exactly when F is closed under products, closed exactly when F has a
least member, and bilocalizing when both hold, in which case the least
member is an idempotent ideal sheaf and the structure sheaf splits.

classify() reports the flags together with the attached geometric data:
the specialization-closed support for a localizing filter, the closed
subscheme of the least member for a closed filter, and the clopen
support plus complementary idempotent for a bilocalizing one.  The
bijections behind those attachments are exposed separately as
localizing_to_specclosed / specclosed_to_localizing, closed_to_subscheme
and biloc_to_clopen.  member() tests whether a sheaf presented by
elementary divisors lies in the subcategory, and filter_from_modules()
inverts that: the smallest local filter whose subcategory contains the
given sheaves.
"""

from .config import INF
from .errors import QfiltError
from .filters import (
    LocalFilter,
    improper_filter,
    is_principal,
    is_product_closed,
    is_prime,
    kill_admitted,
    presented,
    trivial_filter,
)
from .schemes import (
    ClosedSubscheme,
    IdealSheaf,
    check_same_scheme,
    closed_subscheme,
    _normal,
    subscheme_support,
)
from .spectrum import (
    ComponentSet,
    SpecClosedSet,
    SpecPoint,
    TorsionSheafData,
    all_set,
    component_set,
    cofinite_closed,
    finite_closed,
    is_specialization_closed,
)
from .values import Value


class ClassificationReport(Value):
    """Flags and attachments for the subcategory of a local filter.

    Fields, in order: the filter; the flags prelocalizing, localizing,
    closed and bilocalizing; the point the filter is prime at, or None; and
    supp, subscheme, clopen and complement, the attachments of a localizing,
    a closed and (the last two) a bilocalizing filter, None otherwise."""

    __slots__ = ("filter", "prelocalizing", "localizing", "closed", "bilocalizing", "prime",
                 "supp", "subscheme", "clopen", "complement")


def classify(flt: LocalFilter) -> ClassificationReport:
    localizing = is_product_closed(flt)
    closed, least = is_principal(flt)
    bilocalizing = localizing and closed
    prime = is_prime(flt)
    supp = _support(flt) if localizing else None
    sub = closed_subscheme(least) if closed else None
    clopen = complement = None
    if bilocalizing:
        clopen, complement = _clopen(least)
    return ClassificationReport(
        flt, True, localizing, closed, bilocalizing, prime, supp, sub, clopen, complement
    )


# ---------------------------------------------------------------------------
# localizing <-> specialization-closed subsets


def localizing_to_specclosed(flt: LocalFilter) -> SpecClosedSet:
    """The set of points where the filter has a nontrivial stalk."""
    if not is_product_closed(flt):
        raise QfiltError("the filter is not closed under products")
    return _support(flt)


def _support(flt: LocalFilter) -> SpecClosedSet:
    """localizing_to_specclosed of a filter known to be product closed."""
    scheme = flt.scheme
    if flt.improper:
        return all_set(scheme)
    if not flt.killed.is_none:
        # disjoint unions: exactly the killed components contribute
        return component_set(scheme, flt.killed)
    if flt.default == 0:
        return finite_closed(scheme, [pt for pt, v in flt.exceptions if v > 0])
    return cofinite_closed(scheme, [pt for pt, v in flt.exceptions if v == 0])


def specclosed_to_localizing(subset: SpecClosedSet) -> LocalFilter:
    """The product-closed filter with the given support, a SpecClosedSet;
    points_to_localizing takes raw points."""
    if isinstance(subset, SpecClosedSet):
        scheme = subset.scheme
        if subset.kind == "empty":
            return trivial_filter(scheme)
        if subset.kind == "all":
            return improper_filter(scheme)
        if subset.kind == "finite":
            return presented(scheme, 0, {pt: INF for pt in subset.points})
        if subset.kind == "cofinite_closed":
            return presented(scheme, INF, {pt: 0 for pt in subset.points})
        return presented(scheme, killed=subset.components)
    raise QfiltError("pass a SpecClosedSet, or use points_to_localizing for raw points")


def points_to_localizing(scheme, points) -> LocalFilter:
    """specclosed_to_localizing for an explicit finite set of points."""
    pts = list(points)
    if not is_specialization_closed(pts, scheme):
        raise QfiltError("the point set is not closed under specialization")
    killed = ComponentSet.of(pt.component for pt in pts if pt.kind == "generic")
    exps = {pt: INF for pt in pts if pt.kind == "closed"}
    return presented(scheme, 0, exps, killed)


# ---------------------------------------------------------------------------
# closed <-> subschemes, bilocalizing <-> clopen splittings


def closed_to_subscheme(flt: LocalFilter) -> ClosedSubscheme:
    """The closed subscheme cut out by the least member of the filter."""
    ok, least = is_principal(flt)
    if not ok:
        raise QfiltError("the filter has no least member")
    return closed_subscheme(least)


def biloc_to_clopen(flt: LocalFilter) -> tuple[SpecClosedSet, IdealSheaf]:
    """Clopen support of a bilocalizing filter plus the complementary
    idempotent: least ⊕ complement = O, least · complement = 0."""
    ok, least = is_principal(flt)
    if not (ok and is_product_closed(flt)):
        raise QfiltError("the filter is not bilocalizing")
    return _clopen(least)


def _clopen(least: IdealSheaf) -> tuple[SpecClosedSet, IdealSheaf]:
    """biloc_to_clopen from the least member of a bilocalizing filter,
    which is idempotent."""
    scheme = least.scheme
    complement = _normal(scheme, (), scheme.normal_pattern(least.killed.invert()))
    return subscheme_support(least), complement


# ---------------------------------------------------------------------------
# membership and generation by modules


def member(data: TorsionSheafData, flt: LocalFilter) -> bool:
    """Whether the sheaf lies in the subcategory of the filter: every free
    component must be admitted and every elementary divisor must sit at or
    below the filter's exponent."""
    check_same_scheme(data.scheme, flt.scheme)
    if flt.improper:
        return True
    if not kill_admitted(flt, data.free):
        return False
    return all(e <= flt.value(pt) for pt, e in data.divisors)


def filter_from_modules(scheme, modules) -> LocalFilter:
    """Smallest local filter whose subcategory contains all the sheaves."""
    exps: dict[SpecPoint, int] = {}
    free = ComponentSet.none()
    for data in modules:
        check_same_scheme(scheme, data.scheme)
        for pt, e in data.divisors:
            exps[pt] = max(e, exps.get(pt, 0))
        free = free.union(data.free)
    return presented(scheme, 0, exps, free)
