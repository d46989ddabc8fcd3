"""Per-layer spans, recorded by wrapping qfilt's functions from outside.

Only module boundaries are wrapped: a public module-level function is
replaced where another qfilt module (or the benchmark) refers to it, not
inside its own module, plus the public methods of the scheme classes,
QuotientRing and ComponentSet.  The oracle's element-level classes
(FiniteRingTable, ExplicitModule, ...) are left alone: they run millions
of times per ring.  A few functions whose calls are counted, or which are
oracle stages timed on their own, are wrapped inside their module too.

A span's self time is its duration minus the time of the spans it
caused; the clock is the calibrator's, so reference slices never land in
a span.
"""

import importlib
import types
from collections import Counter, defaultdict

LAYERS = ("poly", "ideals", "schemes", "spectrum", "filters", "literals",
          "classify", "oracle", "cli")
CLASSES = {"schemes": ("AffineLine", "AffineQuotient", "ProjLine", "ProjChartOne",
                       "DisjointUnion"),
           "ideals": ("QuotientRing",),
           "spectrum": ("ComponentSet",)}
COUNTED = {("poly", "factor"), ("filters", "presented")}
STAGES = {("oracle", n) for n in ("build_table", "enumerate_filters", "submodules",
                                  "enumerate_subcategories")}


class Tracer:
    def __init__(self, clock):
        self.clock = clock
        self.stack: list[float] = []  # child time of each open span
        self.self_s: dict[str, float] = defaultdict(float)
        self.stage_s: dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.factored: set = set()
        self.factor_repeats = 0
        self.rejected = 0
        self._undo: list = []

    def span(self, layer: str, name: str, fn):
        """`fn` wrapped in a span of `layer`."""
        key = f"{layer}.{name}"
        stage = (layer, name) in STAGES
        clock, stack = self.clock, self.stack

        def wrapper(*args, **kwargs):
            if key == "poly.factor":
                if args[0] in self.factored:
                    self.factor_repeats += 1
                self.factored.add(args[0])
            t0 = clock()
            stack.append(0.0)
            try:
                return fn(*args, **kwargs)
            except Exception:
                if layer == "literals":
                    self.rejected += 1
                raise
            finally:
                dur = clock() - t0
                self.self_s[layer] += dur - stack.pop()
                if stack:
                    stack[-1] += dur
                self.calls[key] += 1
                if stage:
                    self.stage_s[key] += dur

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        modules = {name: importlib.import_module(f"qfilt.{name}") for name in LAYERS}
        origin = {}  # original function -> (layer, name)
        for layer, mod in modules.items():
            for name, obj in vars(mod).items():
                if (callable(obj) and not name.startswith("_") and not isinstance(obj, type)
                        and getattr(obj, "__module__", None) == mod.__name__
                        and hasattr(obj, "__code__")):
                    origin[obj] = (layer, name)
        wrapped = {fn: self.span(layer, name, fn) for fn, (layer, name) in origin.items()}
        self.facades = {}
        for layer, mod in [*modules.items(), ("qfilt", importlib.import_module("qfilt"))]:
            view = dict(vars(mod))
            for name, obj in list(vars(mod).items()):
                if hasattr(obj, "__code__") and obj in wrapped and not name.startswith("_"):
                    view[name] = wrapped[obj]
                    home = origin[obj]
                    if home[0] != layer or home in COUNTED or home in STAGES:
                        self._set(mod, name, wrapped[obj])
            self.facades[layer] = types.SimpleNamespace(**view)
        for layer, classes in CLASSES.items():
            for cname in classes:
                cls = getattr(modules[layer], cname)
                for name, obj in list(vars(cls).items()):
                    if not name.startswith("_") and hasattr(obj, "__code__"):
                        self._set(cls, name, self.span(layer, f"{cname}.{name}", obj))

    def _set(self, owner, name: str, value) -> None:
        self._undo.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    def uninstall(self) -> None:
        for owner, name, value in reversed(self._undo):
            setattr(owner, name, value)
        self._undo.clear()

    def facade(self, layer: str):
        """The module as the benchmark should call it: every public function
        wrapped, since the benchmark's calls cross a module boundary too."""
        return self.facades[layer]
