"""The `oracle` workload: `verify_ring` over a fixed list of finite rings.

Each operation verifies one ring k[x]/(f) end to end.  The list holds
chain rings x^n and split rings over F2 and F3, among them the three rings
of acceptance criterion 5.  `submodules` dominates the F3 rings and
repeated factoring dominates the F2 rings.

Rings that run for minutes on the seed program stay out, so that a run
ends in bounded time: F3[x]/(x^2+1) took more than 4 min, and
F5[x]/(x^2) and F2[x]/(x^12) run past 10 min; F4-style rings such as
F2[x]/(x^2+x+1) take about 17 s.  F3[x]/(x^3+2x^2), at about 12 s, is the
heaviest ring kept.

F2[x]/(x^5) is a seed defect: at length bound 4 its subcategory lattice
does not match the classification, so the report fails (the CLI exits 3).
It counts as a failed operation, not as a wrong answer.

Independent checks: a ring whose modulus factors with multiplicities m_i
has prod(m_i + 1) ideals and as many filters, and the criterion-5 rings
have known subcategory counts (total, localizing, closed, bilocalizing).
"""

import functools
import math
import random

# (p, modulus, multiplicities of its prime factors, criterion-5 counts)
RINGS = (
    (2, "x^2", (2,), None),
    (2, "x^2+x", (1, 1), (4, 4, 4, 4)),
    (2, "x^3", (3,), (4, 2, 4, 2)),
    (2, "x^3+x", (1, 2), None),
    (2, "x^4", (4,), None),
    (2, "x^5", (5,), None),
    (3, "x", (1,), None),
    (3, "x^2", (2,), None),
    (3, "x^3+2x^2", (2, 1), (6, 4, 6, 4)),
)
WARM_UP_RING = (2, "x^2")
# about ten operations a run: p75 is the highest percentile with any
# samples beyond it, and the run prints how many there are
TAIL_PERCENTILE = 75


class Oracle:
    name = "oracle"
    tail = TAIL_PERCENTILE

    def __init__(self, seed: int, root=None, workdir=None):
        self.rings = list(RINGS)
        random.Random(seed).shuffle(self.rings)
        self.captured = None

    def write_inputs(self) -> None:
        pass

    def load(self) -> None:
        from qfilt import oracle

        self.oracle = oracle
        inner = oracle.enumerate_subcategories

        @functools.wraps(inner)
        def capture(*args, **kwargs):
            self.captured = inner(*args, **kwargs)
            return self.captured

        # verify_ring looks the stage up in its module at call time
        oracle.enumerate_subcategories = capture

    def cycle(self) -> list:
        return self.rings

    def run_op(self, op):
        from qfilt.fields import PrimeField
        from qfilt.ideals import QuotientRing
        from qfilt.poly import poly_from_str

        p, modulus = op[0], op[1]
        self.captured = None
        ring = QuotientRing.make(PrimeField(p), poly_from_str(modulus, p))
        return self.oracle.verify_ring(ring), self.captured

    def trace_with(self, tracer) -> None:
        self.oracle = tracer.facade("oracle")

    def check(self, op, result) -> tuple[bool, str | None]:
        p, modulus, mults, counts = op
        report, subs = result
        details = {name: detail for name, _, detail in report.checks}
        n = math.prod(m + 1 for m in mults)
        where = f"F{p}[x]/({modulus})"
        if details.get("ideal lattice is the divisor lattice") != f"{n} ideals" or \
                details.get("filter enumerations biject") != f"{n} filters":
            return False, f"{where}: ideal or filter count is not {n}"
        if counts is not None:
            got = (len(subs), sum(s.localizing for s in subs), sum(s.closed for s in subs),
                   sum(s.bilocalizing for s in subs))
            if got != counts:
                return False, f"{where}: subcategory counts {got}, expected {counts}"
        return report.passed, None

    def warm_up(self) -> None:
        p, modulus = WARM_UP_RING
        self.run_op((p, modulus))

    def gate(self) -> list[str]:
        return []
