"""Benchmark for qfilt: one closed-loop client, calibrated timings.

    python3 qbench/run.py --workload jobs|laws|oracle --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from ./src.
Inputs come from --seed only.  One client in this process runs the
workload's cycle of operations again and again, each one after the
previous has returned and been checked, for the number of whole cycles
that comes closest to --seconds; metrics cover whole cycles, so the mix is
fixed.  Every timing is calibrated against the reference kernel (see
calib.py) and printed next to its raw value.

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones
from a traced half-run, against an untraced half-run for the overhead.
The last line of stdout is one JSON object: correct, attempted, failed,
metrics.  A wrong answer makes `correct` false.  Exits 2 without a result
when the checkout holds no qfilt sources.
"""

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from array import array
from pathlib import Path

import calib
from jobs import Jobs
from laws import Laws
from rings import Oracle
from spans import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = {"jobs": Jobs, "laws": Laws, "oracle": Oracle}
SETUP_SAMPLES = 7
IMPORT_SAMPLES = 5
CHILD_TIMEOUT_S = 120
TAIL_CHOICES = (99, 95, 90, 75)
MIN_BEYOND = 10


def percentile(values: list[float], q: float) -> float:
    """Linear interpolation between closest ranks of sorted values."""
    pos = (len(values) - 1) * q / 100
    lo = math.floor(pos)
    hi = min(lo + 1, len(values) - 1)
    return values[lo] + (values[hi] - values[lo]) * (pos - lo)


def beyond(n: int, q: float) -> int:
    """How many of n samples lie above the q-th percentile."""
    return n - 1 - math.floor((n - 1) * q / 100)


def tail_choice(n: int) -> int:
    """The highest of p99/p95/p90/p75 with at least MIN_BEYOND samples
    beyond it; p75 when none has."""
    for q in TAIL_CHOICES:
        if beyond(n, q) >= MIN_BEYOND:
            return q
    return TAIL_CHOICES[-1]


class Phase:
    """One measured stretch: per-operation net-clock intervals and outcomes."""

    def __init__(self, cal: calib.Calibrator):
        self.cal = cal
        self.start = array("d")
        self.end = array("d")
        self.ok = bytearray()
        self.wrong: list[str] = []
        self.cycle_ends: list[int] = []  # operation count at the end of each cycle
        self.peak_rss_mb = 0.0

    def latencies(self) -> tuple[list[float], list[float]]:
        cal = [self.cal.calibrated(a, b) for a, b in zip(self.start, self.end)]
        raw = [b - a for a, b in zip(self.start, self.end)]
        return cal, raw

    def throughput(self, latencies: list[float]) -> float:
        """Median over cycles of operations per second of that cycle."""
        rates, begin = [], 0
        for end in self.cycle_ends:
            rates.append((end - begin) / sum(latencies[begin:end]))
            begin = end
        return statistics.median(rates)

    @property
    def failed(self) -> int:
        return len(self.ok) - sum(self.ok)


def measure(workload, seconds: float, cal: calib.Calibrator) -> Phase:
    """Whole cycles, as many as bring the run's end closest to `seconds`
    (at least one)."""
    ops = workload.cycle()
    phase = Phase(cal)
    with cal:
        start = time.perf_counter()
        while True:
            for op in ops:
                a = cal.now()
                try:
                    result = workload.run_op(op)
                except Exception as e:  # noqa: BLE001 -- an engine error is a failed op
                    result = e
                b = cal.now()
                if isinstance(result, Exception):
                    ok, wrong = False, None
                else:
                    ok, wrong = workload.check(op, result)
                phase.start.append(a)
                phase.end.append(b)
                phase.ok.append(ok)
                if wrong:
                    phase.wrong.append(wrong)
            phase.cycle_ends.append(len(phase.ok))
            elapsed = time.perf_counter() - start
            next_end = elapsed * (len(phase.cycle_ends) + 1) / len(phase.cycle_ends)
            if next_end - seconds >= seconds - elapsed:
                # before the latency lists exist, so only 16 bytes of
                # bookkeeping per operation count against the program
                phase.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
                return phase


def run_child(cmd: list[str]) -> subprocess.CompletedProcess:
    out = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, timeout=CHILD_TIMEOUT_S)
    if out.returncode != 0:
        fail(f"{' '.join(cmd[1:3])} failed:\n{out.stderr[-2000:]}")
    return out


def measure_setup(name: str, seed: int, workdir: Path) -> tuple[float, float]:
    """Median calibrated and raw set-up seconds over fresh interpreters; the
    first one writes bytecode caches and is discarded."""
    cmd = [sys.executable, str(HERE / "setup_probe.py"), name, str(seed), str(workdir)]
    samples = [json.loads(run_child(cmd).stdout.splitlines()[-1])
               for _ in range(SETUP_SAMPLES + 1)][1:]
    return (statistics.median(s["setup_s"] for s in samples),
            statistics.median(s["raw_s"] for s in samples))


def measure_import() -> tuple[float, float]:
    """Median cumulative import time of qfilt.cli from `python -X importtime`,
    calibrated by a reference slice just before each interpreter."""
    cmd = [sys.executable, "-X", "importtime", "-c",
           "import sys; sys.path.insert(0, 'src'); import qfilt.cli"]
    cal_s, raw_s = [], []
    for _ in range(IMPORT_SAMPLES):
        ref = calib.Calibrator()
        ref.slice()
        err = run_child(cmd).stderr
        line = next(l for l in err.splitlines() if l.split("|")[-1].strip() == "qfilt.cli")
        raw = int(line.split("|")[1]) / 1e6
        raw_s.append(raw)
        cal_s.append(raw * ref.rates[0] / calib.NOMINAL_RATE)
    return statistics.median(cal_s), statistics.median(raw_s)


def fail(msg: str) -> None:
    print(f"qbench: {msg}", file=sys.stderr)
    sys.exit(2)


def machine_line(name: str, args) -> str:
    load = ",".join(f"{x:.2f}" for x in os.getloadavg())
    return (f"qbench {name} seed={args.seed} seconds={args.seconds} trace={args.trace} "
            f"python={platform.python_version()} cores={os.cpu_count()} loadavg={load}")


def rate_line(phase: Phase) -> str:
    rates = phase.cal.rates
    return (f"reference rate: median {statistics.median(rates):.0f} min {min(rates):.0f} "
            f"max {max(rates):.0f} units/s over {len(rates)} slices "
            f"(nominal {calib.NOMINAL_RATE:.0f})")


def end_to_end(workload, phase: Phase, setup: tuple[float, float]) -> dict:
    cal, raw = phase.latencies()
    n = len(cal)
    q = workload.tail
    scal, sraw = sorted(cal), sorted(raw)
    rows = [
        ("setup_s", setup[0], "s", f"raw {setup[1]:.4f}, median of {SETUP_SAMPLES}"),
        ("ops_per_s", phase.throughput(cal), "1/s",
         f"raw {phase.throughput(raw):.2f}, median of {len(phase.cycle_ends)} cycles"),
        ("latency_p50_ms", percentile(scal, 50) * 1e3, "ms", f"raw {percentile(sraw, 50) * 1e3:.4f}"),
        ("latency_tail_ms", percentile(scal, q) * 1e3, "ms",
         f"p{q}, {beyond(n, q)} samples beyond it of {n}, rule picks p{tail_choice(n)}, "
         f"raw {percentile(sraw, q) * 1e3:.4f}"),
        ("ok_frac", 1 - phase.failed / n, "frac", f"{n - phase.failed} of {n} ended as the contract says"),
        ("peak_rss_mb", phase.peak_rss_mb, "MB", "measuring process"),
    ]
    for name, value, unit, note in rows:
        print(f"  {name:<16} {value:12.4f} {unit:<5} ({note})")
    return {name: {"value": value, "unit": unit} for name, value, unit, _ in rows}


def per_layer(untraced: Phase, traced: Phase, tracer: Tracer) -> dict:
    cal, raw = traced.latencies()
    n = len(cal)
    scale = sum(cal) / sum(raw)  # calibrates self times by the phase's ratio
    ucal, _ = untraced.latencies()
    calls = tracer.calls
    imp = measure_import()
    values = {f"{layer}.self_s": (tracer.self_s[layer] * scale / n, "s/op")
              for layer in ("poly", "schemes", "ideals", "spectrum", "filters",
                            "literals", "classify", "cli", "oracle")}
    values |= {
        "poly.factor.calls": (calls["poly.factor"] / n, "calls/op"),
        "poly.factor.repeat_frac": (tracer.factor_repeats / max(1, calls["poly.factor"]), "frac"),
        "filters.presented.calls": (calls["filters.presented"] / n, "calls/op"),
        "literals.rejected": (tracer.rejected / n, "count/op"),
        "oracle.submodules.calls": (calls["oracle.submodules"] / n, "calls/op"),
        "import.qfilt_cli_s": (imp[0], "s"),
        "trace.overhead_frac": (untraced.throughput(ucal) / traced.throughput(cal) - 1, "frac"),
    }
    for stage in ("build_table", "enumerate_filters", "submodules", "enumerate_subcategories"):
        values[f"oracle.{stage}_s"] = (tracer.stage_s[f"oracle.{stage}"] * scale / n, "s/op")
    print(f"  traced ops {n}, untraced ops {len(ucal)}, import.qfilt_cli_s raw {imp[1]:.4f}")
    for name, (value, unit) in values.items():
        print(f"  {name:<32} {value:14.6g} {unit}")
    return {name: {"value": value, "unit": unit} for name, (value, unit) in values.items()}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "qfilt" / "cli.py").is_file():
        fail(f"no qfilt sources under {ROOT / 'src'}")
    sys.path.insert(0, str(ROOT / "src"))

    workdir = HERE / "_work" / f"{args.workload}-{os.getpid()}"
    workload = WORKLOADS[args.workload](args.seed, ROOT, workdir)
    print(machine_line(args.workload, args))
    try:
        workload.write_inputs()
        setup = None if args.trace else measure_setup(args.workload, args.seed, workdir)
        workload.load()
        workload.warm_up()
        errors = workload.gate()
        if args.trace:
            untraced = measure(workload, args.seconds / 2, calib.Calibrator())
            cal = calib.Calibrator()
            tracer = Tracer(cal.now)
            tracer.install()
            try:
                workload.trace_with(tracer)
                phase = measure(workload, args.seconds / 2, cal)
            finally:
                tracer.uninstall()
            phases = [untraced, phase]
            print(rate_line(phase))
            metrics = per_layer(untraced, phase, tracer)
        else:
            phase = measure(workload, args.seconds, calib.Calibrator())
            phases = [phase]
            print(rate_line(phase))
            metrics = end_to_end(workload, phase, setup)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass  # another run still uses it
    for p in phases:
        errors += p.wrong
    for err in errors[:20]:
        print(f"WRONG: {err}", file=sys.stderr)
    print(json.dumps({"correct": not errors, "attempted": sum(len(p.ok) for p in phases),
                      "failed": sum(p.failed for p in phases), "metrics": metrics}))


if __name__ == "__main__":
    main()
