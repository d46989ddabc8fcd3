"""Self-tests of the benchmark's own machinery.

    python3 qbench/selftest.py

Covers the calibration factor, the tail-percentile choice, the workload
seed argument and the answer model.  They need no time budget; the seed
tests import qfilt from ./src for the laws pools.
"""

import json
import statistics
import sys
import time
import unittest
from pathlib import Path

import calib
import model
import run

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))


class CalibrationTest(unittest.TestCase):
    def test_constant_rate_scales_by_rate_over_nominal(self):
        rate = 2 * calib.NOMINAL_RATE
        cal = calib.Calibrator()
        cal.times, cal.rates = [0.0, 1.0, 2.0], [rate] * 3
        self.assertAlmostEqual(cal.calibrated(0.5, 1.5), 2.0)
        self.assertAlmostEqual(cal.calibrated(-1.0, 3.0), 8.0)  # nearest slice outside

    def test_rate_between_slices_is_their_mean(self):
        self.assertAlmostEqual(calib.integrate_rate([0.0, 1.0], [10.0, 30.0], 0.0, 1.0), 20.0)
        self.assertAlmostEqual(calib.integrate_rate([0.0, 1.0, 2.0], [10.0, 30.0, 50.0],
                                                    0.5, 1.5), 0.5 * 20 + 0.5 * 40)
        self.assertEqual(calib.integrate_rate([0.0], [10.0], 2.0, 2.0), 0.0)

    def test_slices_stay_off_the_clock(self):
        with calib.Calibrator(interval=0.01, units=20) as cal:
            wall0, net0 = time.perf_counter(), cal.now()
            deadline = wall0 + 0.2
            while time.perf_counter() < deadline:
                sum(range(1000))
            wall, net = time.perf_counter() - wall0, cal.now() - net0
        self.assertGreater(len(cal.rates), 3)
        self.assertLess(net, wall)
        self.assertAlmostEqual(net + cal.stolen, wall, delta=0.2)

    def test_kernel_is_fixed_work(self):
        self.assertEqual(calib.reference_kernel(50), calib.reference_kernel(50))


class TailTest(unittest.TestCase):
    def test_percentile_matches_inclusive_quantiles(self):
        values = sorted([3.0, 1.0, 4.0, 1.5, 9.0, 2.6, 5.0, 3.5])
        cuts = statistics.quantiles(values, n=4, method="inclusive")
        for q, want in zip((25, 50, 75), cuts):
            self.assertAlmostEqual(run.percentile(values, q), want)

    def test_highest_percentile_with_ten_beyond(self):
        self.assertEqual(run.tail_choice(1000), 99)
        self.assertEqual(run.tail_choice(900), 95)
        self.assertEqual(run.tail_choice(200), 95)
        self.assertEqual(run.tail_choice(101), 90)
        self.assertEqual(run.tail_choice(41), 75)
        self.assertEqual(run.tail_choice(9), 75)  # none has ten: the lowest offered
        for n in (41, 101, 200, 1000):
            self.assertGreaterEqual(run.beyond(n, run.tail_choice(n)), 10)

    def test_workload_tails_match_benchmark_json(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        whys = {w["name"]: w["why"] for w in spec["workloads"]}
        self.assertEqual(set(whys), set(run.WORKLOADS))
        for name, cls in run.WORKLOADS.items():
            self.assertIn(f"tail p{cls.tail}", whys[name])


class SeedTest(unittest.TestCase):
    def test_jobs_inputs_follow_the_seed(self):
        def files(seed):
            return [(f[0], f[1]) for f in run.Jobs(seed, ROOT, ROOT / "unused").files]
        self.assertEqual(files(3), files(3))
        self.assertNotEqual(files(3), files(4))

    def test_laws_pools_follow_the_seed(self):
        def ops(seed):
            w = run.Laws(seed)
            w.load()
            return [(law.__name__, f, g, h) for _, law, f, g, h in w.cycle()]
        self.assertEqual(ops(3), ops(3))
        self.assertNotEqual(ops(3), ops(4))

    def test_oracle_order_follows_the_seed(self):
        self.assertEqual(run.Oracle(3).cycle(), run.Oracle(3).cycle())
        self.assertNotEqual(run.Oracle(3).cycle(), run.Oracle(4).cycle())
        self.assertEqual(sorted(run.Oracle(3).cycle()), sorted(run.Oracle(4).cycle()))


class ModelTest(unittest.TestCase):
    quotient = model.Shape("q", {}, (("pt:x", 1), ("pt:x+1", 2)), "quotient")

    def test_quotient_folds_default_and_clamps(self):
        f = model.normalize(self.quotient, model.INF, {"pt:x": 0})
        self.assertEqual(f, (0, {"pt:x+1": 2}, model.NO_KILL))
        self.assertEqual(model.product(self.quotient, f, (0, {"pt:x": 1}, model.NO_KILL)),
                         model.IMPROPER)
        self.assertEqual(model.least_member_literal(self.quotient, f),
                         {"orders": {}, "kill": [1]})

    def test_symbolic_union_patterns(self):
        shape = model.Shape("u", {}, (), "union_symbolic")
        f = model.normalize(shape, 0, {}, ("cof", frozenset({1, 2})))
        g = model.normalize(shape, 0, {}, ("fin", frozenset({2, 5})))
        self.assertEqual(model.to_literal(model.meet(shape, f, g)),
                         {"kind": "exponents", "default": 0, "kill": [5]})
        self.assertEqual(model.to_literal(model.join(shape, f, g)),
                         {"kind": "exponents", "default": 0, "kill_all_but": [1]})


if __name__ == "__main__":
    unittest.main()
