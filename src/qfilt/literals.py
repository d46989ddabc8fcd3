"""The JSON literal grammar shared by job files and CLI output.

Schemes:  {"kind": "affine_line", "field": {"p": 2} | "symbolic"}
          {"kind": "affine_quotient", "p": 2, "modulus": "x^3"}
          {"kind": "proj_line", "field": ...}
          {"kind": "disjoint_union", "components": "Z" | [field, ...]}
Points:   "pt:a", "pt:x^2+x+1", "pt:inf", "gen", "comp:3"
Ideals:   polynomial strings "x^3+x", "(x-a)^2*(x-b)", "0", "1" on affine
          charts, or {"orders": {point: n}, "kill": [comp, ...],
          "kill_all_but": [comp, ...]} anywhere
Filters:  {"kind": "improper"}
          {"kind": "exponents", "default": 0 | "inf" | n,
           "exceptions": {point: n | "inf"}, "kill": [...], "kill_all_but": [...]}
          {"kind": "principal", "ideal": ideal literal}
          {"kind": "generated", "ideals": [ideal literal, ...]}
          {"kind": "cofinite-family"}
Modules:  {"divisors": [[point, e], ...] | {point: e}, "free":
          true | false | [comp, ...] | {"all_but": [comp, ...]}}

Formatting is the exact inverse of parsing on normal forms, with sorted
keys throughout so that serialized output is deterministic.

Each point carries its own text (SpecPoint.text), which the writers read.
Which point a text names depends on the scheme, so each scheme's memo
keeps a "points" memo (text -> SpecPoint, filled by point_from_literal
with each text that parses; a text that does not is never kept), and a job
parses each point text once however many literals name it.  It grows only
with the distinct texts read on that scheme, and no comparison or copy
reads it.
"""

from .config import INF
from .errors import ParseError, QfiltError, echo
from .fields import PrimeField, check_label, field_from_literal, field_to_literal, parse_decimal
from .filters import (
    FilterBase,
    LocalFilter,
    StalkFilter,
    cofinite_family,
    filter_base,
    generate,
    improper_filter,
    is_principal,
    presented,
    principal_filter,
)
from .ideals import QuotientRing
from .poly import poly_from_literal, poly_from_str, poly_to_str
from .schemes import (
    AffineLine,
    AffineQuotient,
    DisjointUnion,
    IdealSheaf,
    ProjLine,
    sheaf,
    sheaf_from_poly,
)
from .spectrum import (
    INF_NAME,
    ComponentSet,
    SpecClosedSet,
    SpecPoint,
    TorsionSheafData,
    generic_point,
    inf_point,
    module_data,
)

SCHEMA_VERSION = 1


# ---------------------------------------------------------------------------
# keys and value types

# the keys each kind of literal may carry; any other key is rejected, so a
# misspelled key cannot fall back to a default silently
_SCHEME_KEYS = {
    "affine_line": {"kind", "field"},
    "proj_line": {"kind", "field"},
    "affine_quotient": {"kind", "p", "modulus"},
    "disjoint_union": {"kind", "components"},
}
_FILTER_KEYS = {
    "improper": {"kind"},
    "exponents": {"kind", "default", "exceptions", "kill", "kill_all_but"},
    "principal": {"kind", "ideal"},
    "generated": {"kind", "ideals"},
    "cofinite-family": {"kind"},
}
_IDEAL_KEYS = {"orders", "kill", "kill_all_but"}
_MODULE_KEYS = {"divisors", "free"}
_FREE_KEYS = {"all_but"}


def _check_keys(lit: dict, allowed, what: str) -> None:
    for key in lit:
        if key not in allowed:
            raise ParseError(f"unknown key {echo(key)} in {what}; "
                             f"expected one of {', '.join(sorted(allowed))}")


def _kind(lit, keys: dict, what: str) -> str:
    """The kind of a scheme or filter literal, after checking its keys."""
    if not isinstance(lit, dict) or "kind" not in lit:
        raise ParseError(f"{what} literal must be an object with 'kind': {echo(lit)}")
    kind = lit["kind"]
    if not isinstance(kind, str) or kind not in keys:
        raise ParseError(f"unknown {what} kind {echo(kind)}")
    _check_keys(lit, keys[kind], f"{kind} {what} literal")
    return kind


def _typed(lit: dict, key: str, default, types, expected: str):
    """lit[key] (default when absent), which must have one of the types."""
    value = lit.get(key, default)
    if not isinstance(value, types):
        raise ParseError(f"{key!r} must be {expected}, not {echo(value)}")
    return value


# ---------------------------------------------------------------------------
# schemes


def scheme_from_literal(lit) -> object:
    kind = _kind(lit, _SCHEME_KEYS, "scheme")
    if kind == "affine_line":
        return AffineLine(field_from_literal(lit.get("field", "symbolic")))
    if kind == "proj_line":
        return ProjLine(field_from_literal(lit.get("field", "symbolic")))
    if kind == "affine_quotient":
        if "p" not in lit or "modulus" not in lit:
            raise ParseError("affine_quotient needs 'p' and 'modulus'")
        field = field_from_literal({"p": lit["p"]})
        modulus = poly_from_str(_typed(lit, "modulus", "", str, "a polynomial string"), field.p)
        return AffineQuotient(QuotientRing.make(field, modulus))
    comps = lit.get("components", "Z")
    if comps == "Z":
        return DisjointUnion.symbolic()
    if not isinstance(comps, list):
        raise ParseError(f"'components' must be \"Z\" or a list of fields, not {echo(comps)}")
    return DisjointUnion.explicit([field_from_literal(c) for c in comps])


def scheme_to_literal(scheme) -> dict:
    if scheme.kind not in _SCHEME_KEYS:
        raise QfiltError(f"unknown scheme {scheme}")
    lit = {"kind": scheme.kind}
    if scheme.ring is not None:
        lit.update(p=scheme.ring.modulus.p, modulus=poly_to_str(scheme.ring.modulus))
    elif scheme.field is not None:
        lit["field"] = field_to_literal(scheme.field)
    elif scheme.components is None:
        lit["components"] = "Z"
    else:
        lit["components"] = [field_to_literal(f) for f in scheme.components]
    return lit


# ---------------------------------------------------------------------------
# points


def point_from_literal(scheme, text: str) -> SpecPoint:
    """The point that text names on scheme, parsed once per scheme: a text
    that parses is kept in the scheme's "points" memo, one that does not
    raises on every read and is never kept."""
    if not isinstance(text, str):
        raise ParseError(f"point literal must be a string: {echo(text)}")
    points = scheme.memo.get("points")
    if points is None:
        points = scheme.memo["points"] = {}
    pt = points.get(text)
    if pt is None:
        pt = points[text] = _parse_point(scheme, text)
    return pt


def _parse_point(scheme, text: str) -> SpecPoint:
    if text == "gen":
        pt = generic_point(0)
        if not scheme.has_point(pt):
            raise ParseError(f"{scheme} has no generic point 'gen'")
        return pt
    if text.startswith("comp:"):
        c = parse_decimal(text[5:], "component")
        pt = generic_point(c)
        if not scheme.has_point(pt):
            raise ParseError(f"{scheme} has no component {c}")
        return pt
    name = text[3:] if text.startswith("pt:") else text
    if name == INF_NAME:
        pt = inf_point()
        if not scheme.has_point(pt):
            raise ParseError(f"{scheme} has no point at infinity")
        return pt
    pt = _closed_point_on(scheme, name)
    if pt is None:
        raise ParseError(f"point {echo(text)} does not lie on {scheme}")
    return pt


def _closed_point_on(scheme, name: str):
    field = scheme.field
    if field is None:
        return None
    try:
        name = poly_from_str(name, field.p).monic() if isinstance(field, PrimeField) \
            else check_label(name)
    except QfiltError:
        return None
    return scheme.point_named(name)


def point_to_literal_on(scheme, pt: SpecPoint) -> str:
    if pt.kind == "generic" and scheme.component_type != "field":
        return "gen"
    return pt.text


# ---------------------------------------------------------------------------
# component patterns


def _components_from_literal(lit: dict) -> ComponentSet:
    kill = _typed(lit, "kill", None, (list, type(None)), "a list of components")
    all_but = _typed(lit, "kill_all_but", None, (list, type(None)), "a list of components")
    if kill and all_but:
        raise ParseError("use either 'kill' or 'kill_all_but', not both")
    if all_but is not None:
        return ComponentSet.cofinite(_component_indices(all_but))
    return ComponentSet.of(_component_indices(kill or []))


def _component_indices(items) -> list[int]:
    out = []
    for item in items:
        if isinstance(item, int) and not isinstance(item, bool) and item >= 0:
            out.append(item)
        elif isinstance(item, str) and item.startswith("comp:"):
            out.append(parse_decimal(item[5:], "component"))
        else:
            raise ParseError(f"bad component {echo(item)}; use an index 0, 1, 2, ... or 'comp:N'")
    return out


def components_to_literal(cs: ComponentSet) -> dict:
    if cs.is_finite:
        return {"kill": sorted(cs.members)} if cs.members else {}
    return {"kill_all_but": sorted(cs.members)}


# ---------------------------------------------------------------------------
# ideal sheaves


def ideal_from_literal(scheme, lit) -> IdealSheaf:
    if isinstance(lit, str):
        if not scheme.affine:
            raise ParseError(f"polynomial ideal literals need an affine chart, not {scheme}")
        return sheaf_from_poly(scheme, poly_from_literal(lit, scheme.field))
    if isinstance(lit, dict):
        _check_keys(lit, _IDEAL_KEYS, "ideal literal")
        # pairs, not a dict, so that two spellings of one point ("pt:a" and
        # "a") reach sheaf() as a repeat; exceptions are read the same way
        orders = [(point_from_literal(scheme, k), v) for k, v in
                  _typed(lit, "orders", {}, dict, "an object of point: order").items()]
        return sheaf(scheme, orders, _components_from_literal(lit))
    raise ParseError(f"bad ideal literal {echo(lit)}")


def ideal_to_literal(ideal: IdealSheaf) -> dict:
    out = {"orders": {pt.text: n for pt, n in ideal.orders}}
    out.update(components_to_literal(ideal.killed))
    return out


# ---------------------------------------------------------------------------
# filters


def _exponent_from_literal(v):
    if v == "inf":
        return INF
    if isinstance(v, int) and not isinstance(v, bool):
        return v
    if isinstance(v, str):
        return parse_decimal(v, "exponent")
    raise ParseError(f"bad exponent {echo(v)}; use an integer or \"inf\"")


def _exponent_to_literal(v):
    return "inf" if v == INF else int(v)


def filter_from_literal(scheme, lit) -> LocalFilter:
    kind = _kind(lit, _FILTER_KEYS, "filter")
    if kind in ("generated", "cofinite-family"):
        base = _base_from_literal(scheme, lit, kind)
        if base.cofinite:
            raise QfiltError(
                "the cofinite-components family is not a local filter; "
                "apply 'op generate' to it instead")
        return generate(base)
    if kind == "improper":
        return improper_filter(scheme)
    if kind == "exponents":
        default = _exponent_from_literal(lit.get("default", 0))
        exceptions = [(point_from_literal(scheme, k), _exponent_from_literal(v)) for k, v in
                      _typed(lit, "exceptions", {}, dict, "an object of point: exponent").items()]
        return presented(scheme, default, exceptions, _components_from_literal(lit))
    return principal_filter(scheme, ideal_from_literal(scheme, lit.get("ideal")))


def _base_from_literal(scheme, lit: dict, kind: str) -> FilterBase:
    if kind == "cofinite-family":
        return cofinite_family(scheme)
    ideals = _typed(lit, "ideals", [], list, "a list of ideals")
    return filter_base(scheme, [ideal_from_literal(scheme, i) for i in ideals])


def base_from_literal(scheme, lit) -> FilterBase:
    """A generating set: 'generated' and 'cofinite-family' literals, plus
    any filter literal with a least member as a one-generator base."""
    kind = _kind(lit, _FILTER_KEYS, "filter")
    if kind in ("generated", "cofinite-family"):
        return _base_from_literal(scheme, lit, kind)
    flt = filter_from_literal(scheme, lit)
    ok, least = is_principal(flt)
    if not ok:
        raise QfiltError("this filter has no least member to generate from")
    return filter_base(scheme, [least])


def filter_to_literal(flt: LocalFilter) -> dict:
    if flt.improper:
        return {"kind": "improper"}
    out = {"kind": "exponents", "default": _exponent_to_literal(flt.default)}
    if flt.exceptions:
        out["exceptions"] = {pt.text: _exponent_to_literal(v) for pt, v in flt.exceptions}
    out.update(components_to_literal(flt.killed))
    return out


def stalk_to_literal(stalk: StalkFilter) -> dict:
    if stalk.kind == "up_to":
        return {"kind": "up_to", "bound": stalk.bound}
    return {"kind": stalk.kind}


# ---------------------------------------------------------------------------
# modules


def module_from_literal(scheme, lit) -> TorsionSheafData:
    if not isinstance(lit, dict):
        raise ParseError(f"module literal must be an object: {echo(lit)}")
    _check_keys(lit, _MODULE_KEYS, "module literal")
    raw = _typed(lit, "divisors", [], (list, dict), "a list of [point, exponent] pairs or an object")
    pairs = raw.items() if isinstance(raw, dict) else raw
    for pair in pairs:
        if not isinstance(pair, (list, tuple)) or len(pair) != 2:
            raise ParseError(f"bad divisor {echo(pair)}; use [point, exponent]")
    divisors = [(point_from_literal(scheme, k), v) for k, v in pairs]
    free = _typed(lit, "free", False, (bool, list, dict),
                  'true, false, a list of components or {"all_but": [...]}')
    if isinstance(free, dict):
        _check_keys(free, _FREE_KEYS, "free pattern")
        free = ComponentSet.cofinite(_component_indices(
            _typed(free, "all_but", [], list, "a list of components")))
    elif isinstance(free, list):
        free = ComponentSet.of(_component_indices(free))
    return module_data(scheme, divisors, free)


def module_to_literal(data: TorsionSheafData) -> dict:
    out = {"divisors": [[pt.text, e] for pt, e in data.divisors]}
    if data.free.is_none:
        out["free"] = False
    elif data.free.is_finite:
        out["free"] = sorted(data.free.members)
    else:
        out["free"] = {"all_but": sorted(data.free.members)}
    return out


# ---------------------------------------------------------------------------
# closed sets and reports


def specclosed_to_literal(s: SpecClosedSet) -> dict:
    if s.kind in ("empty", "all"):
        return {"kind": s.kind}
    if s.kind in ("finite", "cofinite_closed"):
        key = "points" if s.kind == "finite" else "excluded"
        return {"kind": s.kind, key: [p.text for p in s.points]}
    cs = s.components
    if cs.is_finite:
        return {"kind": "components", "components": sorted(cs.members)}
    return {"kind": "components", "components": {"all_but": sorted(cs.members)}}
