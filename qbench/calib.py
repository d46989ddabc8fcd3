"""A fixed reference kernel, and timings calibrated against it.

The machine this benchmark runs on changes speed by tens of percent from
one second to the next, and the process cannot see it: its CPU time equals
its wall time.  So every timing is taken next to a measurement of how fast
the machine runs a fixed piece of pure-Python work right then.

`reference_kernel` is that work.  It imports nothing from qfilt, so no
change to the program can move its speed.  A `Calibrator` runs it in short
slices on a one-shot interval timer: the SIGALRM handler runs one slice in
the measuring thread, between bytecodes of whatever was executing, and
re-arms the timer.  The slice's own time is kept off the clock that the
benchmark reads (`now`), so a timing taken with `now` is raw program time.

A raw duration [a, b] on that clock converts to calibrated seconds as

    calibrated = integral over [a, b] of rate(t) / NOMINAL_RATE dt

where rate(t) is the reference rate measured around t: between two slices
it is their mean, before the first and after the last it is the nearest
slice's.  Calibrated seconds read as seconds on a machine that runs the
kernel at exactly NOMINAL_RATE units per second.
"""

import bisect
import signal
import time
from dataclasses import dataclass

# units per second that one calibrated second stands for; the typical
# rate of this kernel on a 2-core x86-64 VM under Python 3.11
NOMINAL_RATE = 40000.0
SLICE_UNITS = 400  # about 0.01 s at the nominal rate
INTERVAL_S = 0.05  # wall time between the end of one slice and the next


@dataclass(frozen=True)
class _Node:
    key: tuple
    weight: int


def reference_kernel(units: int) -> int:
    """Fixed work of the kind qfilt does: frozen dataclass instances, dicts
    of lists, sorting by a key function, string building and frozensets.
    Returns a checksum that depends on all of it."""
    acc = 0
    for u in range(units):
        nodes = [_Node((i % 7, (i * u) % 5), i) for i in range(12)]
        by_key: dict = {}
        for n in nodes:
            by_key.setdefault(n.key, []).append(n.weight)
        items = sorted(by_key.items(), key=lambda kv: (-len(kv[1]), kv[0]))
        text = ",".join(f"{k[0]}:{k[1]}={sum(v)}" for k, v in items)
        odd = frozenset(n.key for n in nodes if n.weight & 1)
        acc = (acc * 31 + len(text) + len(odd) + (nodes[3] == nodes[u % 12])) % 1_000_003
    return acc


class Calibrator:
    """Reference slices on an interval timer, and the clock they stay off.

    Use as a context manager around the work to be timed; the handler is
    installed on entry and removed on exit, with one slice at each end."""

    def __init__(self, interval: float = INTERVAL_S, units: int = SLICE_UNITS):
        self.interval = interval
        self.units = units
        self.stolen = 0.0          # wall seconds spent in slices so far
        self.times: list[float] = []   # slice positions on the net clock
        self.rates: list[float] = []   # kernel units per wall second
        self._previous = None

    def now(self) -> float:
        """Wall time minus time spent in reference slices."""
        while True:
            stolen = self.stolen
            t = time.perf_counter()
            if stolen == self.stolen:
                return t - stolen

    def slice(self) -> None:
        t0 = time.perf_counter()
        reference_kernel(self.units)
        t1 = time.perf_counter()
        self.times.append(t0 - self.stolen)
        self.rates.append(self.units / (t1 - t0))
        self.stolen += t1 - t0

    def _on_alarm(self, signum, frame) -> None:
        self.slice()
        signal.setitimer(signal.ITIMER_REAL, self.interval)

    def __enter__(self) -> "Calibrator":
        reference_kernel(2)  # let the adaptive interpreter specialise it
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        self.slice()
        signal.setitimer(signal.ITIMER_REAL, self.interval)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self.slice()

    def calibrated(self, a: float, b: float) -> float:
        """Calibrated seconds for the net-clock interval [a, b]."""
        return integrate_rate(self.times, self.rates, a, b) / NOMINAL_RATE


def integrate_rate(times: list[float], rates: list[float], a: float, b: float) -> float:
    """Integral of the measured rate over [a, b] (see the module docstring);
    `times` is sorted and pairs with `rates`."""
    if b <= a:
        return 0.0
    n = len(times)
    if n == 1:
        return rates[0] * (b - a)
    total = 0.0
    i = bisect.bisect_right(times, a)
    t = a
    while t < b:
        if i == 0:
            end, rate = min(b, times[0]), rates[0]
        elif i >= n:
            end, rate = b, rates[-1]
        else:
            end, rate = min(b, times[i]), (rates[i - 1] + rates[i]) / 2
        total += rate * (end - t)
        t = end
        i += 1
    return total
