"""The `jobs` workload: generated job files through the click entry point.

Each operation is one `qfilt run FILE` invoked in-process, from argument
parsing to the rendered JSON.  A cycle is a fixed, seed-shuffled list of
files covering six scheme shapes, plus a few files that each carry one
malformed literal and must exit 2 with a message.  Two of those are seed
defects that exit otherwise today (a misspelled key is ignored, a list of
exceptions raises AttributeError); they count as failed operations.

Answers are checked against `model`, never against the engine.
"""

import io
import json
import random
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import model
from model import INF, Shape

SHAPES = {
    "a1_symbolic": [Shape("a1_symbolic", {"kind": "affine_line", "field": "symbolic"},
                          tuple((f"pt:{c}", INF) for c in "abcd"))],
    "a1_prime": [Shape(f"a1_f{p}", {"kind": "affine_line", "field": {"p": p}},
                       tuple((f"pt:x+{i}" if i else "pt:x", INF) for i in range(p)))
                 for p in (2, 3, 5)],
    "quotient": [Shape("quotient_f2", {"kind": "affine_quotient", "p": 2, "modulus": "x^3+x"},
                       (("pt:x", 1), ("pt:x+1", 2)), "quotient"),
                 Shape("quotient_f3", {"kind": "affine_quotient", "p": 3, "modulus": "x^3+2x^2"},
                       (("pt:x", 2), ("pt:x+2", 1)), "quotient")],
    "p1": [Shape("p1_symbolic", {"kind": "proj_line", "field": "symbolic"},
                 tuple((f"pt:{c}", INF) for c in ("a", "b", "c", "inf")))],
    "union_explicit": [Shape("union_explicit",
                             {"kind": "disjoint_union",
                              "components": [{"p": 2}, {"p": 3}, {"p": 5}]},
                             (), "union_explicit", 3)],
    "union_symbolic": [Shape("union_symbolic", {"kind": "disjoint_union", "components": "Z"},
                             (), "union_symbolic")],
}
FILES_PER_SHAPE = 12
FILTERS_PER_FILE = 6
# each must exit 2; the seed program already does so for the first two only
MALFORMED = ("bad_exponent", "point_off_scheme", "misspelled_key", "exceptions_list")
TAIL_PERCENTILE = 99


def _exp(v):
    return "inf" if v == INF else v


def random_filter(shape: Shape, i: int, rng: random.Random):
    """(literal, model) for the i-th filter of a file.  Its structure
    (improper or not, default, values, number of exceptions or killed
    components) follows from i alone, so every seed gives files of the same
    cost; the seed picks the points and components."""
    if i % 16 == 0:
        return {"kind": "improper"}, model.IMPROPER
    if shape.kind.startswith("union"):
        comps = range(shape.n_components or 6)
        members = frozenset(rng.sample(comps, min(i % 4, len(comps))))
        if shape.kind == "union_symbolic" and i % 5 in (1, 3):
            killed = ("cof", members)
            lit = {"kind": "exponents", "default": 0, "kill_all_but": sorted(members)}
        else:
            killed = ("fin", members)
            lit = {"kind": "exponents", "default": 0, "kill": sorted(members)}
        return lit, model.normalize(shape, 0, {}, killed)
    if shape.kind == "quotient":
        default, values = (0, 0, 1, INF)[i % 4], (0, 1, 2, INF)
    else:
        default, values = (0, 0, INF)[i % 3], (0, 1, 2, 3, INF)
    pts = rng.sample([pt for pt, _ in shape.points], min(i % 4, len(shape.points)))
    exc = {pt: values[(i + t) % len(values)] for t, pt in enumerate(pts)}
    lit = {"kind": "exponents", "default": _exp(default)}
    if exc:
        lit["exceptions"] = {pt: _exp(v) for pt, v in exc.items()}
    return lit, model.normalize(shape, default, exc)


def _classify_expect(shape: Shape, name: str, f) -> dict:
    out = {"name": name, "filter": model.to_literal(f), "closed": model.is_principal(f)}
    if out["closed"] and f != model.IMPROPER:
        out["ideal"] = model.least_member_literal(shape, f)
    return out


def make_job(shape: Shape, index: int, rng: random.Random):
    """A job document and the expected answer for each of its commands."""
    names = [f"f{i}" for i in range(FILTERS_PER_FILE)]
    lits, models = {}, {}
    for i, n in enumerate(names):
        lits[n], models[n] = random_filter(shape, index * FILTERS_PER_FILE + i + 1, rng)
    commands = [{"cmd": "table", "filters": names}]
    expect = [("table", [_classify_expect(shape, n, models[n]) for n in names])]
    # operands and targets are fixed by position, so only the points and
    # components that the seed picks differ between seeds
    for k, op in enumerate(model.OPS):
        a, b = names[2 * k + 1], names[(2 * k + 2) % len(names)]
        commands.append({"cmd": "op", "op": op, "args": [a, b]})
        expect.append(("op", {"operands": [model.to_literal(models[a]), model.to_literal(models[b])],
                              "result": model.to_literal(model.OPS[op](shape, models[a], models[b]))}))
    if shape.kind == "curve":
        a, (pt, _) = names[4], rng.choice(shape.points)
        commands.append({"cmd": "op", "op": "localize", "args": [a], "point": pt})
        expect.append(("op", {"result": model.stalk(shape, models[a], pt)}))
    c = names[5]
    commands.append({"cmd": "classify", "filter": c})
    expect.append(("classify", _classify_expect(shape, c, models[c])))
    job = {"schema": 1, "scheme": shape.scheme, "filters": lits, "commands": commands}
    return job, expect


def make_malformed(kind: str, rng: random.Random):
    shape = SHAPES["a1_symbolic"][0]
    job, _ = make_job(shape, 0, rng)
    bad = {"kind": "exponents", "default": 0}
    pt = shape.points[0][0]
    if kind == "bad_exponent":
        bad["exceptions"] = {pt: "x"}
    elif kind == "point_off_scheme":
        bad["exceptions"] = {"pt:inf": 1}
    elif kind == "misspelled_key":
        bad["exeptions"] = {pt: 2}
    else:
        bad["exceptions"] = [1, 2]
    job["filters"]["f0"] = bad
    return job


def _same(got: dict, want: dict) -> bool:
    return all(got.get(k) == v for k, v in want.items())


def _row_ok(row: dict, want: dict) -> bool:
    ideal = want.get("ideal")
    rest = {k: v for k, v in want.items() if k != "ideal"}
    if not _same(row, rest):
        return False
    return ideal is None or (row.get("subscheme") or {}).get("ideal") == ideal


def answers_ok(doc: dict, expect) -> bool:
    results = doc.get("results", [])
    if len(results) != len(expect):
        return False
    for got, (kind, want) in zip(results, expect):
        if kind == "table":
            rows = got.get("rows", [])
            if len(rows) != len(want) or not all(map(_row_ok, rows, want)):
                return False
        elif kind == "classify":
            if not _row_ok(got, want):
                return False
        elif not _same(got, want):
            return False
    return True


def invoke(entry, args: list[str], out: io.StringIO, err: io.StringIO):
    """Run the click entry point in-process: (exit code, stdout, stderr).
    An exception that escapes click is exit 1 with its traceback, as the
    console script would end.  The same two buffers serve every call:
    click caches a wrapper per stream object and never lets it go."""
    for buf in (out, err):
        buf.seek(0)
        buf.truncate()
    code = 0
    with redirect_stdout(out), redirect_stderr(err):
        try:
            entry(args=args, prog_name="qfilt", standalone_mode=True)
        except SystemExit as e:
            code = e.code if isinstance(e.code, int) else (0 if e.code is None else 1)
        except Exception as e:  # noqa: BLE001 -- a traceback is an outcome to record
            code = 1
            err.write(f"Traceback: {type(e).__name__}: {e}\n")
    return code, out.getvalue(), err.getvalue()


class Jobs:
    name = "jobs"
    tail = TAIL_PERCENTILE

    def __init__(self, seed: int, root: Path, workdir: Path):
        self.root = root
        self.workdir = workdir
        rng = random.Random(seed)
        self.files = []  # (file name, document, expect or None, contract exit code)
        for family, shapes in SHAPES.items():
            for i in range(FILES_PER_SHAPE):
                job, expect = make_job(shapes[i % len(shapes)], i, rng)
                self.files.append((f"{family}_{i}.json", job, expect, 0))
        for kind in MALFORMED:
            self.files.append((f"malformed_{kind}.json", make_malformed(kind, rng), None, 2))
        rng.shuffle(self.files)
        self.entry = None
        self.buffers = (io.StringIO(), io.StringIO())

    def write_inputs(self) -> None:
        self.workdir.mkdir(parents=True, exist_ok=True)
        for fname, job, _, _ in self.files:
            (self.workdir / fname).write_text(json.dumps(job, indent=1), encoding="utf-8")

    def load(self) -> None:
        from qfilt import cli
        self.entry = cli.main.main

    def trace_with(self, tracer) -> None:
        self.entry = tracer.span("cli", "main", self.entry)

    def cycle(self) -> list:
        return self.files

    def run_op(self, op):
        return invoke(self.entry, ["run", str(self.workdir / op[0])], *self.buffers)

    def check(self, op, result) -> tuple[bool, str | None]:
        """(ended as the contract says, wrong-answer description or None)."""
        fname, _, expect, want_code = op
        code, out, err = result
        if want_code == 2:
            return code == 2 and not out and err.startswith("Error:"), None
        if code != 0:
            return False, None
        if not answers_ok(json.loads(out), expect):
            return False, f"{fname}: answer differs from the exponent rules"
        return True, None

    def warm_up(self) -> None:
        seen = set()
        for op in self.files:
            family = op[0].rsplit("_", 1)[0]
            if op[3] == 0 and family not in seen:
                seen.add(family)
                self.run_op(op)

    def gate(self) -> list[str]:
        """Byte-for-byte golden check of the shipped job files."""
        golden = Path(__file__).resolve().parent / "golden"
        names = sorted(p.name for p in golden.glob("*.json"))
        shipped = sorted(p.name for p in (self.root / "jobs").glob("*.json"))
        if names != shipped:
            return [f"shipped job files {shipped} do not match the golden copies {names}"]
        errors = []
        for name in names:
            code, out, _ = invoke(self.entry, ["run", str(self.root / "jobs" / name)], *self.buffers)
            if code != 0 or out != (golden / name).read_text(encoding="utf-8"):
                errors.append(f"jobs/{name}: stdout differs from its golden copy")
        return errors
