"""The `laws` workload: the filter-lattice law mix through the Python API.

Each operation checks one law on filters drawn by the seed from a fixed
pool of 64 filters per scheme shape: the lattice laws, product refinement,
containment, restrict/glue, or localization.  There is no parsing, and
the same filter objects come back again and again, so a cache inside the
engine shows here.  A law that fails is a wrong answer.  After each lattice
operation the benchmark also recomputes meet, join and product pointwise
from the operands' exponents (`exponents_ok`).

Engine functions are looked up on their modules at call time, so the
per-layer trace sees every call.
"""

import random

OPS_PER_SHAPE = 960  # fifteen draws of each pool filter as f, g and h
POOL = 64
POOL_SEED = 1000  # the pools are the same for every --seed
MODES = 5
TAIL_PERCENTILE = 99
INF = float("inf")

_LEVEL = {"full_only": 0, "up_to": 1, "all_powers": 2, "everything": 3}


def _rank(s):
    return (_LEVEL[s.kind], s.bound or 0)


class Shape:
    """A scheme with the points, killed patterns and charts that laws use."""

    def __init__(self, name, scheme, points, kills=(), charts=(0,), sample=(), components=()):
        self.name = name
        self.scheme = scheme
        self.points = points
        self.kills = kills
        self.charts = charts
        self.sample = sample
        self.components = components


def make_shapes():
    from qfilt import fields, ideals, poly, schemes, spectrum

    f2 = fields.PrimeField(2)
    a1 = schemes.AffineLine(fields.SymbolicAlgClosed())
    p1 = schemes.ProjLine(fields.SymbolicAlgClosed())
    quotient = schemes.AffineQuotient(ideals.QuotientRing.make(f2, poly.poly_from_str("x^3+x", 2)))
    line_f2 = schemes.AffineLine(f2)
    uz = schemes.DisjointUnion.symbolic()
    ux = schemes.DisjointUnion.explicit([f2, fields.PrimeField(3), fields.PrimeField(5)])
    cs, pt, gen = spectrum.ComponentSet, spectrum.closed_point, spectrum.generic_point

    def curve(name, scheme, points, charts=(0,)):
        return Shape(name, scheme, points, charts=charts, sample=points[:2] + [gen(0)])

    return [
        curve("affine line, symbolic", a1, [pt(c) for c in "abcd"]),
        curve("affine line, F2", line_f2,
              [pt(q) for q in poly.irreducibles(2, 1) + poly.irreducibles(2, 2)]),
        Shape("artinian quotient", quotient, [p for p, _ in quotient.primes()],
              sample=[p for p, _ in quotient.primes()]),
        curve("projective line", p1, [pt(c) for c in "abc"] + [spectrum.inf_point()], (0, 1)),
        Shape("symbolic disjoint union", uz, [],
              kills=[cs.of(s) for s in ([], [0], [1], [0, 1], [2, 3])]
              + [cs.cofinite(s) for s in ([], [0], [0, 1])],
              charts=(0, 1, 2, 3), sample=[gen(0), gen(2)], components=range(6)),
        Shape("explicit disjoint union", ux, [],
              kills=[cs.of(s) for s in ([], [0], [1], [2], [0, 2], [0, 1, 2])],
              charts=(0, 1, 2), sample=[gen(0), gen(2)], components=range(3)),
    ]


def pool_filter(shape: Shape, i: int, rng: random.Random):
    """The i-th pool filter: its structure (improper or not, default,
    number of exceptions, killed pattern) follows from i, its points and
    values from rng."""
    from qfilt import filters as F

    if i % 16 == 0:
        return F.improper_filter(shape.scheme)
    default = (0, 0, INF)[i % 3]
    exceptions = {}
    for p in rng.sample(shape.points, min(i % 4, len(shape.points))):
        exceptions[p] = rng.choice((0, 1, 2, INF))
    killed = shape.kills[i % len(shape.kills)] if shape.kills else ()
    return F.presented(shape.scheme, default, exceptions, killed)


# ---------------------------------------------------------------------------
# the laws; each returns whether it held, plus what exponents_ok rechecks


def law_lattice(F, S, shape, f, g, h):
    m, j, p = F.meet(f, g), F.join(f, g), F.product(f, g)
    ok = (m == F.meet(g, f) and j == F.join(g, f) and p == F.product(g, f)
          and F.meet(f, F.meet(g, h)) == F.meet(m, h)
          and F.join(f, F.join(g, h)) == F.join(j, h)
          and F.meet(f, j) == f and F.join(f, m) == f
          and F.meet(f, f) == f and F.join(f, f) == f)
    return ok, (m, j, p)


def law_product_refines(F, S, shape, f, g, h):
    p = F.product(f, g)
    return F.meet(p, f) == f and F.meet(p, g) == g, None


def law_contains(F, S, shape, f, g, h):
    scheme = f.scheme
    if not F.contains(f, S.unit_sheaf(scheme)):
        return False, None
    ok_f, least_f = F.is_principal(f)
    ok_g, least_g = F.is_principal(g)
    if not ok_f or f.improper:
        return True, None
    if not F.contains(f, least_f):
        return False, None
    if ok_g and not g.improper and not F.contains(F.join(f, g), S.sheaf_intersect(least_f, least_g)):
        return False, None
    if least_f.orders:
        pt, n = least_f.orders[0]
        if n > 1:
            weaker = S.sheaf(scheme, dict(least_f.orders) | {pt: n - 1}, least_f.killed)
            return F.contains(f, weaker), None
    return True, None


def law_restrict_glue(F, S, shape, f, g, h):
    for c in shape.charts:
        for op in (F.meet, F.join, F.product):
            if F.restrict(op(f, g), c) != op(F.restrict(f, c), F.restrict(g, c)):
                return False, None
    chart_data = {c: F.restrict(f, c) for c in shape.charts}
    if shape.kills:
        rest = "improper" if f.improper or not f.killed.is_finite else "trivial"
        glued = F.glue_filters(shape.scheme, chart_data, rest)
    else:
        glued = F.glue_filters(shape.scheme, chart_data)
    return glued == f, None


def law_localize(F, S, shape, f, g, h):
    scheme = f.scheme
    for pt in shape.sample:
        cap = scheme.closed_cap(pt) if pt.kind == "closed" else INF
        lf, lg = F.localize(f, pt), F.localize(g, pt)
        low, high = sorted((lf, lg), key=_rank)
        if F.localize(F.meet(f, g), pt) != low or F.localize(F.join(f, g), pt) != high:
            return False, None
        if F.localize(F.product(f, g), pt) != _stalk_product(F, lf, lg, cap):
            return False, None
    return True, None


def _stalk_product(F, s, t, cap):
    if F.EVERYTHING in (s, t):
        return F.EVERYTHING
    if s.kind == t.kind == "full_only":
        return F.FULL_ONLY
    total = (s.bound if s.kind == "up_to" else INF) + (t.bound if t.kind == "up_to" else INF)
    if cap != INF and total >= cap:
        return F.EVERYTHING
    return F.ALL_POWERS if total == INF else F.up_to(total)


LAWS = (law_lattice, law_product_refines, law_contains, law_restrict_glue, law_localize)


def exponents_ok(shape: Shape, f, g, results) -> bool:
    """Meet, join and product as pointwise min, max and capped sum of the
    operands' exponents, or as the intersection and unions of their killed
    components on a disjoint union."""
    m, j, p = results
    if shape.components:
        def dead(x, c):
            return x.improper or x.killed.contains(c)
        return all(dead(m, c) == (dead(f, c) and dead(g, c))
                   and dead(j, c) == (dead(f, c) or dead(g, c))
                   and dead(p, c) == (dead(f, c) or dead(g, c))
                   for c in shape.components)
    for pt in shape.sample:
        cap = shape.scheme.closed_cap(pt) if pt.kind == "closed" else INF
        if pt.kind != "closed":
            continue
        vf, vg = min(f.value(pt), cap), min(g.value(pt), cap)
        if (min(m.value(pt), cap), min(j.value(pt), cap), min(p.value(pt), cap)) != \
                (min(vf, vg), max(vf, vg), min(vf + vg, cap)):
            return False
    return True


class Laws:
    name = "laws"
    tail = TAIL_PERCENTILE

    def __init__(self, seed: int, root=None, workdir=None):
        self.seed = seed
        self.ops = None

    def write_inputs(self) -> None:
        pass

    def load(self) -> None:
        """Build the pools and the fixed op list (engine work, so it counts
        as set-up)."""
        from qfilt import filters, schemes

        self.F, self.S = filters, schemes
        self.ops = []
        draw = random.Random(self.seed)
        for idx, shape in enumerate(make_shapes()):
            rng = random.Random(POOL_SEED + idx)
            pool = [pool_filter(shape, i, rng) for i in range(POOL)]
            # every pool filter is drawn equally often as f, g and h; the
            # seed decides which filters meet which
            for i in range(OPS_PER_SHAPE):
                if i % POOL == 0:
                    picks = [draw.sample(pool, POOL) for _ in range(3)]
                f, g, h = (p[i % POOL] for p in picks)
                self.ops.append((shape, LAWS[i % MODES], f, g, h))

    def cycle(self) -> list:
        return self.ops

    def run_op(self, op):
        shape, law, f, g, h = op
        return law(self.F, self.S, shape, f, g, h)

    def trace_with(self, tracer) -> None:
        self.F, self.S = tracer.facade("filters"), tracer.facade("schemes")

    def check(self, op, result) -> tuple[bool, str | None]:
        shape, law, f, g, _ = op
        held, extra = result
        if not held:
            return False, f"{shape.name}: {law.__name__} fails"
        if extra is not None and not exponents_ok(shape, f, g, extra):
            return False, f"{shape.name}: meet/join/product differ from the exponent rules"
        return True, None

    def warm_up(self) -> None:
        for op in self.ops[::OPS_PER_SHAPE // MODES]:
            self.run_op(op)

    def gate(self) -> list[str]:
        return []
