"""An independent model of presented filters, for checking answers.

The benchmark does not trust the engine to grade itself.  This module
recomputes, from the exponents a test input was generated with, what the
engine must answer: the normal form of a filter, meet/join/product as the
pointwise min/max/sum of exponents clamped to each point's cap, stalks,
and the least member of a principal filter.  It imports nothing from
qfilt.

A shape is one scheme model with a fixed list of points.  A filter is
IMPROPER or a triple (default, {point: value}, killed), where killed is a
component pattern ("fin", set) or ("cof", set) of excluded components.
"""

from dataclasses import dataclass

INF = float("inf")
IMPROPER = "improper"
NO_KILL = ("fin", frozenset())


@dataclass(frozen=True)
class Shape:
    """One scheme model: its literal, its points with caps (in component
    order on a quotient), and how components behave."""

    name: str
    scheme: dict
    points: tuple[tuple[str, float], ...] = ()
    kind: str = "curve"  # curve | quotient | union_explicit | union_symbolic
    n_components: int = 0  # explicit disjoint unions only

    @property
    def caps(self) -> dict:
        return dict(self.points)


def _covers(shape: Shape, killed) -> bool:
    mode, members = killed
    if shape.kind == "union_explicit":
        return mode == "fin" and set(range(shape.n_components)) <= members
    return mode == "cof" and not members


def normalize(shape: Shape, default, exceptions: dict, killed=NO_KILL):
    """The normal form the engine must reach for these exponents."""
    caps = shape.caps
    if shape.kind == "quotient":
        values = {pt: min(exceptions.get(pt, default), cap) for pt, cap in caps.items()}
        if all(values[pt] >= cap for pt, cap in caps.items()):
            return IMPROPER
        return (0, {pt: v for pt, v in values.items() if v != 0}, NO_KILL)
    if shape.kind.startswith("union"):
        if _covers(shape, killed):
            return IMPROPER
        return (0, {}, killed)
    return (default, {pt: v for pt, v in exceptions.items() if v != default}, NO_KILL)


def _union(a, b):
    (ma, sa), (mb, sb) = a, b
    if ma == mb == "fin":
        return ("fin", sa | sb)
    if ma == mb == "cof":
        return ("cof", sa & sb)
    fin, cof = (sa, sb) if ma == "fin" else (sb, sa)
    return ("cof", cof - fin)


def _intersect(a, b):
    (ma, sa), (mb, sb) = a, b
    if ma == mb == "fin":
        return ("fin", sa & sb)
    if ma == mb == "cof":
        return ("cof", sa | sb)
    fin, cof = (sa, sb) if ma == "fin" else (sb, sa)
    return ("fin", fin - cof)


def value(f, pt):
    if f == IMPROPER:
        return INF
    default, exc, _ = f
    return exc.get(pt, default)


def _pointwise(shape: Shape, f, g, op, killed):
    pts = set(f[1]) | set(g[1])
    return normalize(shape, op(f[0], g[0]),
                     {pt: op(value(f, pt), value(g, pt)) for pt in pts}, killed)


def meet(shape: Shape, f, g):
    if f == IMPROPER:
        return g
    if g == IMPROPER:
        return f
    return _pointwise(shape, f, g, min, _intersect(f[2], g[2]))


def join(shape: Shape, f, g):
    if IMPROPER in (f, g):
        return IMPROPER
    return _pointwise(shape, f, g, max, _union(f[2], g[2]))


def product(shape: Shape, f, g):
    if IMPROPER in (f, g):
        return IMPROPER
    return _pointwise(shape, f, g, lambda x, y: x + y, _union(f[2], g[2]))


OPS = {"meet": meet, "join": join, "product": product}


def stalk(shape: Shape, f, pt) -> dict:
    """The stalk literal at a closed point of a curve shape."""
    v = value(f, pt)
    if f == IMPROPER:
        return {"kind": "everything"}
    if v == INF:
        return {"kind": "all_powers"}
    return {"kind": "up_to", "bound": v}


def is_principal(f) -> bool:
    return f == IMPROPER or (f[0] == 0 and all(v != INF for v in f[1].values()))


def _exp_literal(v):
    return "inf" if v == INF else v


def _kill_literal(killed) -> dict:
    mode, members = killed
    if mode == "cof":
        return {"kill_all_but": sorted(members)}
    return {"kill": sorted(members)} if members else {}


def to_literal(f) -> dict:
    """The engine's JSON literal for a normal-form filter."""
    if f == IMPROPER:
        return {"kind": "improper"}
    default, exc, killed = f
    out = {"kind": "exponents", "default": _exp_literal(default)}
    if exc:
        out["exceptions"] = {pt: _exp_literal(v) for pt, v in exc.items()}
    out.update(_kill_literal(killed))
    return out


def least_member_literal(shape: Shape, f) -> dict:
    """The ideal literal of the least member of a proper principal filter:
    orders at the exceptional points; on a quotient a point at its cap
    kills its component instead."""
    _, exc, killed = f
    if shape.kind == "quotient":
        index = {pt: i for i, (pt, _) in enumerate(shape.points)}
        caps = shape.caps
        dead = sorted(index[pt] for pt, v in exc.items() if v >= caps[pt])
        out = {"orders": {pt: v for pt, v in exc.items() if v < caps[pt]}}
        return out | ({"kill": dead} if dead else {})
    return {"orders": dict(exc)} | _kill_literal(killed)
