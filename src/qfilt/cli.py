"""qfilt command line: job runner, filter operations, classification, oracle.

One table, `COMMANDS`, defines every kind of job command: the keys it may
carry, its runner and its table view.  A job file is checked once before
anything runs (structure, keys, field types, ops and names); a literal's own
error appears when its command runs, and output is all or nothing.  Every
subcommand builds the command a job file would hold and runs it as a
one-command job; `explain` adds the correspondence chain to the document of
its classify command.

A job parses each named filter at most once and classifies it at most
once; an op that names its result rebinds the name.  Every input qfilt
refuses is refused with a QfiltError (a ParseError for input that cannot be
read), and one raised while a command runs is reported with the command's
index and kind.

All machine output is JSON with sorted keys so repeated runs are byte
identical; `_json_text` renders it, byte for byte as
`json.dumps(doc, indent=2, sort_keys=True)` would, without the stdlib's
pure-Python indent encoder.  A container writes each child whose exact type
is str, int, bool or None inline, through the `_SCALARS` writer of that
type, and recurses only into the other children; a dict or list subclass
or a tuple takes the same path through isinstance, and a float or a str or
int subclass is left to `json.dumps`.  Tables are rendered from the
machine document, never computed separately.

The command line is one stdlib `argparse` parser, built when `main` first
runs and reused.  Each subcommand reads the options that its handler's
parameters name (`_OPTIONS`), no option may be abbreviated, and `main`
always ends in SystemExit: 0 on success, 2 on a command-line error (argparse
prints the usage and the error) or a QfiltError (`main` alone writes
`Error: <message>` on stderr), 3 when an oracle check fails.
"""

import argparse
import json
import sys
from functools import cache, cached_property
from json.encoder import encode_basestring_ascii
from typing import Callable, NamedTuple, NoReturn

from . import filters as flt_ops
from .classify import ClassificationReport, classify, member
from .errors import ParseError, QfiltError, echo
from .fields import TOO_MANY_DIGITS, PrimeField, parse_decimal
from .ideals import QuotientRing
from .literals import (
    SCHEMA_VERSION,
    _check_keys,
    _typed,
    base_from_literal,
    filter_from_literal,
    filter_to_literal,
    ideal_to_literal,
    module_from_literal,
    module_to_literal,
    point_from_literal,
    point_to_literal_on,
    scheme_from_literal,
    scheme_to_literal,
    specclosed_to_literal,
    stalk_to_literal,
)
from .poly import poly_from_str
from .spectrum import spec


def _load_json(text: str, what: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError as e:
        raise ParseError(
            f"{what}: invalid JSON at line {e.lineno}, column {e.colno}: {e.msg}")
    except ValueError as e:
        raise ParseError(f"{what}: {TOO_MANY_DIGITS}") from e
    except RecursionError as e:
        raise ParseError(f"{what}: JSON nested too deeply") from e


# the writer of each scalar type, looked up by exact type
_SCALARS = {str: encode_basestring_ascii, int: int.__repr__,
            bool: {True: "true", False: "false"}.__getitem__,
            type(None): {None: "null"}.__getitem__}


def _json_text(o, pad: str = "\n") -> str:
    """o as json.dumps(o, indent=2, sort_keys=True) writes it, for str keys;
    pad is the newline and indent that precede o's closing bracket."""
    inner = pad + "  "
    if isinstance(o, dict):
        if not o:
            return "{}"
        parts = []
        for k in sorted(o):
            v = o[k]
            write = _SCALARS.get(type(v))
            parts.append(encode_basestring_ascii(k) + ": "
                         + (write(v) if write is not None else _json_text(v, inner)))
        return "{" + inner + ("," + inner).join(parts) + pad + "}"
    if isinstance(o, (list, tuple)):
        if not o:
            return "[]"
        parts = []
        for v in o:
            write = _SCALARS.get(type(v))
            parts.append(write(v) if write is not None else _json_text(v, inner))
        return "[" + inner + ("," + inner).join(parts) + pad + "]"
    # a scalar: a float or a subclass of str or int here, unless o is the
    # whole document
    return json.dumps(o)


def _emit(doc: dict, fmt: str, out: str | None, table: Callable[[], str]) -> None:
    """Print doc as JSON, or as the text table() builds for --format table."""
    if fmt == "json":
        text = _json_text(doc) + "\n"
    else:
        text = table() + "\n"
    if out:
        try:
            with open(out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as e:
            raise QfiltError(f"cannot write --out {out}: {e.strerror}") from e
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# result documents


def _classify_doc(report: ClassificationReport, name: str | None = None) -> dict:
    scheme = report.filter.scheme
    doc = {
        "filter": filter_to_literal(report.filter),
        "prelocalizing": report.prelocalizing,
        "localizing": report.localizing,
        "closed": report.closed,
        "bilocalizing": report.bilocalizing,
        "prime_at": None if report.prime is None
        else point_to_literal_on(scheme, report.prime),
        "supp": None if report.supp is None else specclosed_to_literal(report.supp),
        "subscheme": None if report.subscheme is None else {
            "ideal": ideal_to_literal(report.subscheme.ideal),
            "support": specclosed_to_literal(report.subscheme.support),
        },
        "clopen": None if report.clopen is None else specclosed_to_literal(report.clopen),
        "complement": None if report.complement is None
        else ideal_to_literal(report.complement),
    }
    if name is not None:
        doc["name"] = name
    return doc


def _explain_lines(doc: dict) -> list[str]:
    """The correspondence chain of a classify document, as prose."""
    lines = [f"filter: {_filter_str(doc['filter'])}"]
    lines.append("prelocalizing: yes (every local filter cuts out a "
                 "subcategory closed under subobjects, quotients and sums)")
    if doc["localizing"]:
        lines.append("localizing: yes (closed under products, so the "
                     "subcategory is also closed under extensions)")
        lines.append(f"  support: {_specclosed_str(doc['supp'])} "
                     "(the specialization-closed set of points where torsion lives)")
    else:
        lines.append("localizing: no (not closed under products)")
    if doc["closed"]:
        lines.append("closed: yes (principal filter, so the subcategory is "
                     "closed under arbitrary products)")
        lines.append(f"  subscheme: V{_ideal_str(doc['subscheme']['ideal'])} "
                     "(modules over the closed subscheme cut out by the least member)")
    else:
        lines.append("closed: no (no least member)")
    if doc["bilocalizing"]:
        lines.append("bilocalizing: yes (least member is idempotent)")
        lines.append(f"  clopen: {_specclosed_str(doc['clopen'])} with complement "
                     f"ideal {_ideal_str(doc['complement'])} "
                     "(the category splits off the summand supported there)")
    else:
        lines.append("bilocalizing: no")
    if doc["prime_at"] is not None:
        lines.append(f"prime: yes, at {doc['prime_at']}")
    else:
        lines.append("prime: no")
    return lines


# ---------------------------------------------------------------------------
# table views (derived from the machine documents)


def _specclosed_str(s: dict) -> str:
    kind = s["kind"]
    if kind in ("empty", "all"):
        return kind
    if kind == "finite":
        return "{" + ",".join(s["points"]) + "}"
    if kind == "cofinite_closed":
        return "all-but{" + ",".join(s["excluded"]) + "}"
    comps = s["components"]
    if isinstance(comps, dict):
        return "comps(all-but{" + ",".join(str(c) for c in comps["all_but"]) + "})"
    return "comps{" + ",".join(str(c) for c in comps) + "}"


def _ideal_str(lit: dict) -> str:
    parts = [f"{pt}^{n}" if n != 1 else pt for pt, n in sorted(lit["orders"].items())]
    if "kill" in lit:
        parts.extend(f"comp:{c}" for c in lit["kill"])
    if "kill_all_but" in lit:
        parts.append("comps(all-but{" + ",".join(str(c) for c in lit["kill_all_but"]) + "})")
    return "(" + ("1" if not parts else " ".join(parts)) + ")"


def _filter_str(lit: dict) -> str:
    if lit.get("kind") == "improper":
        return "improper"
    default = lit["default"]
    parts = [f"{pt}:{v}" for pt, v in sorted(lit.get("exceptions", {}).items())]
    if lit.get("kill"):
        parts.append("kill{" + ",".join(str(c) for c in lit["kill"]) + "}")
    if "kill_all_but" in lit:
        parts.append("kill(all-but{" + ",".join(str(c) for c in lit["kill_all_but"]) + "})")
    body = " ".join(parts) if parts else "-"
    return f"default={default} {body}"


def _flag(b: bool) -> str:
    return "yes" if b else "no"


def _align(headers: list[str], rows: list[list[str]]) -> list[str]:
    widths = [len(h) for h in headers]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    def fmt(cells):
        return "  ".join(c.ljust(w) for c, w in zip(cells, widths)).rstrip()
    return [fmt(headers), fmt(["-" * w for w in widths])] + [fmt(r) for r in rows]


def _classify_row(doc: dict) -> list[str]:
    attachments = []
    if doc["supp"] is not None:
        attachments.append("supp=" + _specclosed_str(doc["supp"]))
    if doc["subscheme"] is not None:
        attachments.append("V" + _ideal_str(doc["subscheme"]["ideal"]))
    if doc["clopen"] is not None:
        attachments.append("clopen=" + _specclosed_str(doc["clopen"]))
    return [doc.get("name", _filter_str(doc["filter"])),
            _flag(doc["localizing"]), _flag(doc["closed"]),
            _flag(doc["bilocalizing"]),
            doc["prime_at"] if doc["prime_at"] is not None else "-",
            " ".join(attachments) if attachments else "-"]


def _classify_table(docs: list[dict]) -> list[str]:
    return _align(["filter", "localizing", "closed", "bilocalizing", "prime-at",
                   "attachments"], [_classify_row(d) for d in docs])


def _spec_view(doc: dict) -> list[str]:
    lines = [f"generic: {' '.join(doc['generic']) or '-'}",
             f"closed: {' '.join(doc['closed']) or '-'}"]
    if doc["symbolic_closed"]:
        lines.append("plus a symbolic family of closed points")
    if doc["symbolic_components"]:
        lines.append("plus a symbolic family of components")
    lines.extend(f"{a} ~> {b}" for a, b in doc["specializations"])
    return lines


def _op_view(doc: dict) -> list[str]:
    lines = [f"op: {doc['op']}"]
    result = doc["result"]
    if doc["op"] == "generate":
        lines.append(f"local: {_flag(doc['local'])}")
    if doc["op"] == "localize":
        bound = f" bound={result['bound']}" if "bound" in result else ""
        lines.append(f"stalk: {result['kind']}{bound}")
    else:
        lines.append("result: " + _filter_str(result))
    return lines


def _oracle_view(doc: dict) -> list[str]:
    lines = []
    for c in doc["checks"]:
        mark = "ok" if c["ok"] else "FAIL"
        extra = f" ({c['detail']})" if c["detail"] else ""
        lines.append(f"[{mark}] {doc['ring']}: {c['name']}{extra}")
    lines.append(f"oracle: {'passed' if doc['passed'] else 'FAILED'}")
    return lines


# ---------------------------------------------------------------------------
# command runners: (job, command) -> document


class _Parsed:
    """A parsed filter, classified when first asked."""

    def __init__(self, flt: flt_ops.LocalFilter):
        self.filter = flt

    @cached_property
    def report(self) -> ClassificationReport:
        return classify(self.filter)


class _Job:
    """A checked job file while it runs: its scheme, and its filters with
    the results named so far."""

    def __init__(self, lit: dict):
        self._scheme = scheme_from_literal(lit["scheme"]) if "scheme" in lit else None
        self.filters = dict(lit.get("filters", {}))
        self.modules = lit.get("modules", {})
        self._parsed: dict[str, _Parsed] = {}  # name -> its parse, while the name holds

    @property
    def scheme(self):
        if self._scheme is None:
            raise QfiltError("job file defines no scheme")
        return self._scheme

    def bind(self, name: str, lit: dict) -> None:
        """Name an op's result, dropping the parse of what the name held."""
        self.filters[name] = lit
        self._parsed.pop(name, None)

    def filter_lit(self, ref):
        """The literal of a filter given by name or inline."""
        return self.filters[ref] if isinstance(ref, str) else ref

    def parsed(self, ref) -> _Parsed:
        """The filter given by name or inline.  A named filter is parsed once
        per binding; an inline literal on every use."""
        if not isinstance(ref, str):
            return _Parsed(filter_from_literal(self.scheme, ref))
        if ref not in self._parsed:
            self._parsed[ref] = _Parsed(filter_from_literal(self.scheme, self.filters[ref]))
        return self._parsed[ref]

    def classified(self, ref) -> dict:
        return _classify_doc(self.parsed(ref).report, ref if isinstance(ref, str) else None)


def _run_spec(job: _Job, cmd: dict) -> dict:
    poset = spec(job.scheme, cmd.get("degree_bound"), cmd.get("labels", ()))
    return {
        "scheme": scheme_to_literal(job.scheme),
        "generic": [p.text for p in poset.generic],
        "closed": [p.text for p in poset.closed],
        "symbolic_closed": poset.symbolic_closed,
        "symbolic_components": poset.symbolic_components,
        "specializations": [[a.text, b.text] for a, b in poset.specializations],
    }


def _run_op(job: _Job, cmd: dict) -> dict:
    op, args = cmd["op"], cmd["args"]
    doc = {"op": op}
    if op == "generate":
        base = base_from_literal(job.scheme, job.filter_lit(args[0]))
        doc["local"], closure = flt_ops.is_local(base)
        doc["result"] = filter_to_literal(closure)
    else:
        operands = [job.parsed(a).filter for a in args]
        doc["operands"] = [filter_to_literal(f) for f in operands]
        if op == "restrict":
            doc["chart"] = cmd["chart"]
            doc["result"] = filter_to_literal(flt_ops.restrict(operands[0], cmd["chart"]))
        elif op == "localize":
            doc["point"] = cmd["point"]
            pt = point_from_literal(job.scheme, cmd["point"])
            doc["result"] = stalk_to_literal(flt_ops.localize(operands[0], pt))
        else:
            doc["result"] = filter_to_literal(getattr(flt_ops, op)(*operands))
    if "name" in cmd:
        job.bind(cmd["name"], doc["result"])
        doc["name"] = cmd["name"]
    return doc


def _run_member(job: _Job, cmd: dict) -> dict:
    ref = cmd.get("module")
    data = module_from_literal(job.scheme, job.modules[ref] if isinstance(ref, str) else ref)
    flt = job.parsed(cmd.get("filter")).filter
    return {"module": module_to_literal(data),
            "filter": filter_to_literal(flt),
            "member": member(data, flt)}


def _run_oracle(job: _Job, cmd: dict) -> dict:
    # the oracle is imported here, so that commands which never verify a
    # ring do not pay for loading it
    from .oracle import verify_ring

    ring_desc = cmd.get("ring", "")
    parts = {}
    for piece in ring_desc.split(","):
        key, _, value = piece.partition(":")
        key = key.strip()
        if key in parts:
            raise ParseError(f"bad --ring {echo(ring_desc)}; {echo(key)} is given twice")
        parts[key] = value.strip()
    if set(parts) != {"p", "mod"}:
        raise ParseError(f"bad --ring {echo(ring_desc)}; expected the form p:2,mod:x^3")
    p = parse_decimal(parts["p"], "--ring p")
    ring = QuotientRing.make(PrimeField(p), poly_from_str(parts["mod"], p))
    report = verify_ring(ring, cmd.get("length_bound", 4))
    return {"ring": ring_desc,
            "passed": report.passed,
            "checks": [{"name": n, "ok": ok, "detail": d}
                       for n, ok, d in report.checks]}


# ---------------------------------------------------------------------------
# the command table and the job runner


class Command(NamedTuple):
    keys: frozenset      # the keys a command of this kind may carry; an op adds its _OPS field
    run: Callable        # (job, command) -> document
    view: Callable       # document -> table lines


COMMANDS = {
    "spec": Command(frozenset({"cmd", "degree_bound", "labels"}), _run_spec, _spec_view),
    "op": Command(frozenset({"cmd", "op", "args"}), _run_op, _op_view),
    "classify": Command(frozenset({"cmd", "filter"}),
                        lambda job, cmd: job.classified(cmd.get("filter")),
                        lambda doc: _classify_table([doc])),
    "member": Command(frozenset({"cmd", "module", "filter"}), _run_member,
                      lambda doc: [f"member: {_flag(doc['member'])}"]),
    "table": Command(frozenset({"cmd", "filters"}),
                     lambda job, cmd: {"rows": [job.classified(ref) for ref in
                                                cmd.get("filters", sorted(job.filters))]},
                     lambda doc: _classify_table(doc["rows"])),
    "oracle": Command(frozenset({"cmd", "ring", "length_bound"}), _run_oracle, _oracle_view),
}

# each op's operand count and the one field it reads besides its operands;
# restrict and localize results live on a chart or a stalk, not on the job
# scheme, so only the other ops can name their result for later commands
_OPS = {"meet": (2, "name"), "join": (2, "name"), "product": (2, "name"),
        "generate": (1, "name"), "restrict": (1, "chart"), "localize": (1, "point")}

_JOB_KEYS = {"schema", "scheme", "filters", "modules", "commands"}
# the types of the command fields that are not literals; none is a boolean
_COMMAND_TYPES = {
    "degree_bound": ((int, type(None)), "an integer"),
    "labels": (list, "a list of labels"),
    "op": (str, "an op name"),
    "args": (list, "a list of filters"),
    "chart": (int, "a chart index"),
    "point": (str, "a point literal"),
    "name": (str, "a filter name"),
    "filters": (list, "a list of filters"),
    "ring": (str, "a ring descriptor"),
    "length_bound": (int, "an integer"),
}


def _where(i: int, cmd: dict) -> str:
    """How messages name the i-th command of a job."""
    return f"command {i} (op {cmd['op']})" if cmd["cmd"] == "op" else f"command {i} ({cmd['cmd']})"


def _check_job(job) -> None:
    """Reject, before anything runs, a job whose structure, keys, field
    types, ops or filter and module names are wrong."""
    if not isinstance(job, dict):
        raise ParseError("job file must be a JSON object")
    if "schema" not in job:
        raise ParseError("job file has no schema version field")
    if type(job["schema"]) is not int or job["schema"] != SCHEMA_VERSION:
        raise ParseError(
            f"unsupported schema version {echo(job['schema'])}; this build reads {SCHEMA_VERSION}")
    _check_keys(job, _JOB_KEYS, "job file")
    defined = set(_typed(job, "filters", {}, dict, "an object of name: filter"))
    modules = _typed(job, "modules", {}, dict, "an object of name: module")
    for i, cmd in enumerate(_typed(job, "commands", [], list, "a list of commands")):
        if not isinstance(cmd, dict):
            raise ParseError(f"command {i} must be an object, not {echo(cmd)}")
        kind = cmd.get("cmd")
        if not isinstance(kind, str) or kind not in COMMANDS:
            raise ParseError(f"command {i}: unknown command {echo(kind)}")
        for key in sorted(cmd.keys() & _COMMAND_TYPES.keys()):
            if isinstance(_typed(cmd, key, None, *_COMMAND_TYPES[key]), bool):
                raise ParseError(f"{key!r} must be {_COMMAND_TYPES[key][1]}, not {echo(cmd[key])}")
        keys = COMMANDS[kind].keys
        if kind == "op":
            op, args = cmd.get("op"), cmd.get("args", [])
            if op not in _OPS:
                raise ParseError(f"command {i}: unknown op {echo(op)}")
            count, field = _OPS[op]
            keys = keys | {field}
            if len(args) != count:
                raise ParseError(f"command {i}: op {op} takes {count} operand(s), got {len(args)}")
            if field != "name" and field not in cmd:
                raise ParseError(f"command {i}: op {op} needs a {field}")
        where = _where(i, cmd)
        _check_keys(cmd, keys, where)
        for ref in [cmd.get("filter"), *cmd.get("args", []), *cmd.get("filters", [])]:
            if isinstance(ref, str) and ref not in defined:
                raise ParseError(f"{where}: filter {echo(ref)} is not defined")
        mod = cmd.get("module")
        if isinstance(mod, str) and mod not in modules:
            raise ParseError(f"{where}: module {echo(mod)} is not defined")
        if "name" in cmd:
            defined.add(cmd["name"])


def _run_job(job) -> dict:
    _check_job(job)
    state = _Job(job)
    results = []
    for i, cmd in enumerate(job.get("commands", [])):
        try:
            results.append(COMMANDS[cmd["cmd"]].run(state, cmd))
        except QfiltError as e:
            raise QfiltError(f"{_where(i, cmd)}: {e}") from e
    return {"schema": SCHEMA_VERSION, "results": results}


def _execute(job, fmt: str, out: str | None, one=False) -> None:
    """Run a job and print its document, or with one=True the result of its
    one command; exit 3 if an oracle command failed."""
    doc = _run_job(job)
    commands, results = job.get("commands", []), doc["results"]
    if not results:
        return

    def table():
        return "\n\n".join("\n".join(COMMANDS[cmd["cmd"]].view(res))
                           for cmd, res in zip(commands, results))

    _emit(results[0] if one else doc, fmt, out, table)
    if any(cmd["cmd"] == "oracle" and not res["passed"]
           for cmd, res in zip(commands, results)):
        sys.exit(3)


def _one_job(command: dict, scheme_json=None) -> dict:
    """The job file that holds one command, with the --scheme literal if given."""
    job = {"schema": SCHEMA_VERSION, "commands": [command]}
    if scheme_json is not None:
        job["scheme"] = _load_json(scheme_json, "--scheme")
    return job


def _one_command(command: dict, fmt: str, out: str | None, scheme_json=None) -> None:
    _execute(_one_job(command, scheme_json), fmt, out, one=True)


# ---------------------------------------------------------------------------
# the command line: each subcommand's handler takes the options its parser reads


def run(job_path, fmt, out):
    """Run the commands in a job file."""
    try:
        with open(job_path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as e:
        raise ParseError(f"cannot read job file {job_path}: {e.strerror}") from e
    except UnicodeDecodeError as e:
        raise ParseError(f"{job_path}: not UTF-8 text: {e.reason}") from e
    _execute(_load_json(text, job_path), fmt, out)


def classify_cmd(scheme_json, filter_json, fmt, out):
    """Classify one filter and print its flags and attachments."""
    _one_command({"cmd": "classify", "filter": _load_json(filter_json, "--filter")},
                 fmt, out, scheme_json)


def spec_cmd(scheme_json, degree_bound, labels, fmt, out):
    """Enumerate the points of a scheme with their specialization order."""
    _one_command({"cmd": "spec", "degree_bound": degree_bound,
                  "labels": [l for l in labels.split(",") if l]}, fmt, out, scheme_json)


def op_cmd(opname, scheme_json, filter_jsons, chart, point, fmt, out):
    """Apply a filter operation: meet, join, product, restrict, localize, generate."""
    command = {"cmd": "op", "op": opname,
               "args": [_load_json(f, "--filter") for f in filter_jsons]}
    if chart is not None:
        command["chart"] = chart
    if point is not None:
        command["point"] = point
    _one_command(command, fmt, out, scheme_json)


def member_cmd(scheme_json, module_json, filter_json, fmt, out):
    """Decide whether the subcategory of a filter contains a module."""
    _one_command({"cmd": "member", "module": _load_json(module_json, "--module"),
                  "filter": _load_json(filter_json, "--filter")}, fmt, out, scheme_json)


def explain_cmd(scheme_json, filter_json, fmt, out):
    """Walk the correspondence chain for one filter: flags, support, attachments."""
    command = {"cmd": "classify", "filter": _load_json(filter_json, "--filter")}
    doc = _run_job(_one_job(command, scheme_json))["results"][0]
    doc["chain"] = _explain_lines(doc)
    _emit(doc, fmt, out, lambda: "\n".join(doc["chain"]))


def oracle_verify(ring, length_bound, fmt, out):
    """Cross-check the symbolic engine against brute force on one ring."""
    _one_command({"cmd": "oracle", "ring": ring, "length_bound": length_bound}, fmt, out)


def _opt(*flags, **keywords):
    return flags, keywords


_JSON = {"required": True, "metavar": "JSON"}
# the argument (no flags) or option that fills each handler parameter, by name
_OPTIONS = {
    "job_path": _opt(metavar="JOB"),
    "opname": _opt(choices=sorted(_OPS)),
    "scheme_json": _opt("--scheme", **_JSON, help="Scheme literal (JSON)."),
    "filter_json": _opt("--filter", **_JSON, help="Filter literal (JSON)."),
    "filter_jsons": _opt("--filter", action="append", default=[], metavar="JSON",
                         help="Filter literal (JSON); repeat for binary ops."),
    "module_json": _opt("--module", **_JSON, help="Module literal (JSON)."),
    "degree_bound": _opt("--degree-bound", type=int,
                         help="Enumerate closed points up to this degree over a prime field."),
    "labels": _opt("--labels", default="", help="Comma-separated labels to materialize."),
    "chart": _opt("--chart", type=int, help="Chart index for restrict."),
    "point": _opt("--point", help="Point literal for localize."),
    "ring": _opt("--ring", required=True, help="Ring descriptor, e.g. p:2,mod:x^3."),
    "length_bound": _opt("--length-bound", type=int, default=4,
                         help="Module length bound for subcategory enumeration (default: 4)."),
    "fmt": _opt("--format", choices=["json", "table"], default="json",
                help="Output format (default: json)."),
    "out": _opt("--out", metavar="PATH", help="Write output to a file instead of stdout."),
}


def _subcommand(group, name: str, handler) -> None:
    """Add the subcommand `name` to group: it reads the options that its
    handler's parameters name and calls the handler with them."""
    sub = group.add_parser(name, help=handler.__doc__, description=handler.__doc__,
                           allow_abbrev=False)
    code = handler.__code__
    for param in code.co_varnames[:code.co_argcount]:
        flags, keywords = _OPTIONS[param]
        sub.add_argument(*flags, dest=param, **keywords)
    sub.set_defaults(handler=handler)


@cache
def _parser() -> argparse.ArgumentParser:
    """The one parser of the command line, built on its first use."""
    top = argparse.ArgumentParser(
        prog="qfilt", allow_abbrev=False,
        description="Classify filters of ideal subsheaves on desk-scale schemes.")
    commands = top.add_subparsers(metavar="COMMAND", required=True)
    for name, handler in [("run", run), ("classify", classify_cmd), ("spec", spec_cmd),
                          ("op", op_cmd), ("member", member_cmd), ("explain", explain_cmd)]:
        _subcommand(commands, name, handler)
    doc = "Brute-force ground truth over finite rings."
    oracle = commands.add_parser("oracle", help=doc, description=doc, allow_abbrev=False)
    _subcommand(oracle.add_subparsers(metavar="COMMAND", required=True), "verify", oracle_verify)
    return top


def main(args: list[str] | None = None, prog_name="qfilt", standalone_mode=True) -> NoReturn:
    """Run the command line on args (default: sys.argv[1:]) and exit with its
    code.  prog_name and standalone_mode keep the signature of click's
    `main.main`, which qbench's jobs workload calls; they change nothing."""
    options = vars(_parser().parse_args(args))
    handler = options.pop("handler")
    try:
        handler(**options)
    except QfiltError as e:
        sys.stderr.write(f"Error: {e}\n")
        sys.exit(2)
    sys.exit(0)


main.main = main  # the call qbench's jobs workload makes, as it did on click's group


if __name__ == "__main__":
    main()
