"""qfilt command line: job runner, filter operations, classification, oracle.

All machine output is JSON with sorted keys so repeated runs are byte
identical.  Tables are rendered from the machine document, never computed
separately.  Exit codes: 0 success, 2 validation failure, 3 oracle mismatch.
"""

import json
import sys

import click

from . import filters as flt_ops
from .classify import ClassificationReport, classify, member
from .config import DEFAULT_LIMITS
from .errors import ParseError, QfiltError
from .fields import PrimeField
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
    point_to_literal,
    point_to_literal_on,
    scheme_from_literal,
    scheme_to_literal,
    specclosed_to_literal,
    stalk_to_literal,
)
from .oracle import verify_ring
from .poly import poly_from_str
from .spectrum import spec


class ValidationFailure(click.ClickException):
    exit_code = 2


class OracleMismatch(click.ClickException):
    exit_code = 3


def _load_json(text: str, what: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError as e:
        raise ValidationFailure(
            f"{what}: invalid JSON at line {e.lineno}, column {e.colno}: {e.msg}")


def _guard(fn, *args):
    try:
        return fn(*args)
    except (ParseError, QfiltError) as e:
        raise ValidationFailure(str(e)) from e


def _emit(doc: dict, fmt: str, out: str | None) -> None:
    if fmt == "json":
        text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    else:
        text = "\n".join(_render_table(doc)) + "\n"
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        click.echo(text, nl=False)


FORMAT_OPT = click.option("--format", "fmt", type=click.Choice(["json", "table"]),
                          default="json", show_default=True, help="Output format.")
OUT_OPT = click.option("--out", type=click.Path(), default=None,
                       help="Write output to a file instead of stdout.")
SCHEME_OPT = click.option("--scheme", "scheme_json", required=True,
                          help="Scheme literal (JSON).")


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


def _spec_doc(scheme, degree_bound, labels) -> dict:
    poset = spec(scheme, degree_bound, labels, DEFAULT_LIMITS)
    pts = list(poset.points())
    return {
        "scheme": scheme_to_literal(scheme),
        "generic": [point_to_literal(p) for p in poset.generic],
        "closed": [point_to_literal(p) for p in poset.closed],
        "symbolic_closed": poset.symbolic_closed,
        "symbolic_components": poset.symbolic_components,
        "specializations": [[point_to_literal(a), point_to_literal(b)]
                            for a in pts for b in pts
                            if a != b and poset.leq(a, b)],
    }


def _member_doc(scheme, module_lit, filter_lit) -> dict:
    data = _guard(module_from_literal, scheme, module_lit)
    flt = _guard(filter_from_literal, scheme, filter_lit)
    return {"module": module_to_literal(data),
            "filter": filter_to_literal(flt),
            "member": member(data, flt)}


def _oracle_doc(ring_desc: str, length_bound: int) -> dict:
    parts = {}
    for piece in ring_desc.split(","):
        key, _, value = piece.partition(":")
        parts[key.strip()] = value.strip()
    if set(parts) != {"p", "mod"} or not parts["p"].isdigit():
        raise ValidationFailure(
            f"bad --ring {ring_desc!r}; expected the form p:2,mod:x^3")
    p = int(parts["p"])
    ring = _guard(lambda: QuotientRing.make(PrimeField(p), poly_from_str(parts["mod"], p)))
    report = _guard(verify_ring, ring, length_bound)
    return {"ring": ring_desc,
            "passed": report.passed,
            "checks": [{"name": n, "ok": ok, "detail": d}
                       for n, ok, d in report.checks]}


_OP_ARITY = {"meet": 2, "join": 2, "product": 2, "restrict": 1,
             "localize": 1, "generate": 1}
# restrict/localize results live on a chart or stalk, not on the job
# scheme, so only lattice results can be named for reuse
_NAMED_OPS = ("meet", "join", "product", "generate")


def _op_doc(op: str, scheme, operand_lits: list, chart, point_text) -> dict:
    doc = {"op": op}
    if op == "generate":
        base = _guard(base_from_literal, scheme, operand_lits[0])
        local, closure = flt_ops.is_local(base)
        doc["local"] = local
        doc["result"] = filter_to_literal(closure)
        return doc
    operands = [_guard(filter_from_literal, scheme, lit) for lit in operand_lits]
    doc["operands"] = [filter_to_literal(f) for f in operands]
    if op in ("meet", "join", "product"):
        result = _guard(getattr(flt_ops, op), operands[0], operands[1])
        doc["result"] = filter_to_literal(result)
    elif op == "restrict":
        if chart is None:
            raise ValidationFailure("op restrict needs --chart")
        doc["chart"] = chart
        result = _guard(flt_ops.restrict, operands[0], chart)
        doc["result"] = filter_to_literal(result)
    else:
        if point_text is None:
            raise ValidationFailure("op localize needs --point")
        pt = _guard(point_from_literal, scheme, point_text)
        doc["point"] = point_text
        doc["result"] = stalk_to_literal(_guard(flt_ops.localize, operands[0], pt))
    return doc


def _explain_lines(report: ClassificationReport) -> list[str]:
    scheme = report.filter.scheme
    lines = [f"filter: {report.filter}"]
    lines.append("prelocalizing: yes (every local filter cuts out a "
                 "subcategory closed under subobjects, quotients and sums)")
    if report.localizing:
        lines.append("localizing: yes (closed under products, so the "
                     "subcategory is also closed under extensions)")
        lines.append(f"  support: {_specclosed_str(report.supp)} "
                     "(the specialization-closed set of points where torsion lives)")
    else:
        lines.append("localizing: no (not closed under products)")
    if report.closed:
        lines.append("closed: yes (principal filter, so the subcategory is "
                     "closed under arbitrary products)")
        lines.append(f"  subscheme: V({_ideal_str(report.subscheme.ideal)}) "
                     "(modules over the closed subscheme cut out by the least member)")
    else:
        lines.append("closed: no (no least member)")
    if report.bilocalizing:
        lines.append("bilocalizing: yes (least member is idempotent)")
        lines.append(f"  clopen: {_specclosed_str(report.clopen)} with complement "
                     f"ideal {_ideal_str(report.complement)} "
                     "(the category splits off the summand supported there)")
    else:
        lines.append("bilocalizing: no")
    if report.prime is not None:
        lines.append(f"prime: yes, at {point_to_literal_on(scheme, report.prime)}")
    else:
        lines.append("prime: no")
    return lines


# ---------------------------------------------------------------------------
# table rendering (derived views of the machine documents)


def _specclosed_str(lit_or_obj) -> str:
    s = lit_or_obj if isinstance(lit_or_obj, dict) else specclosed_to_literal(lit_or_obj)
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


def _ideal_str(lit_or_obj) -> str:
    lit = lit_or_obj if isinstance(lit_or_obj, dict) else ideal_to_literal(lit_or_obj)
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


_CLASSIFY_HEADERS = ["filter", "localizing", "closed", "bilocalizing",
                     "prime-at", "attachments"]


def _render_one(doc: dict) -> list[str]:
    if "checks" in doc:
        lines = []
        for c in doc["checks"]:
            mark = "ok" if c["ok"] else "FAIL"
            extra = f" ({c['detail']})" if c["detail"] else ""
            lines.append(f"[{mark}] {doc['ring']}: {c['name']}{extra}")
        lines.append(f"oracle: {'passed' if doc['passed'] else 'FAILED'}")
        return lines
    if "chain" in doc:
        return list(doc["chain"])
    if "rows" in doc:
        return _align(_CLASSIFY_HEADERS, [_classify_row(r) for r in doc["rows"]])
    if "bilocalizing" in doc:
        return _align(_CLASSIFY_HEADERS, [_classify_row(doc)])
    if "member" in doc:
        return [f"member: {_flag(doc['member'])}"]
    if "specializations" in doc:
        lines = [f"generic: {' '.join(doc['generic']) or '-'}",
                 f"closed: {' '.join(doc['closed']) or '-'}"]
        if doc["symbolic_closed"]:
            lines.append("plus a symbolic family of closed points")
        if doc["symbolic_components"]:
            lines.append("plus a symbolic family of components")
        lines.extend(f"{a} ~> {b}" for a, b in doc["specializations"])
        return lines
    if "op" in doc:
        lines = [f"op: {doc['op']}"]
        if "local" in doc:
            lines.append(f"local: {_flag(doc['local'])}")
        result = doc["result"]
        if "kind" in result and result["kind"] in ("up_to", "all_powers",
                                                   "everything", "full_only"):
            bound = f" bound={result['bound']}" if "bound" in result else ""
            lines.append(f"stalk: {result['kind']}{bound}")
        else:
            lines.append("result: " + _filter_str(result))
        return lines
    return [json.dumps(doc, sort_keys=True)]


def _render_table(doc: dict) -> list[str]:
    if "results" in doc:
        lines = []
        for i, res in enumerate(doc["results"]):
            if i:
                lines.append("")
            lines.extend(_render_one(res))
        return lines
    return _render_one(doc)


# ---------------------------------------------------------------------------
# job files


def _job_scheme(job: dict):
    if "scheme" not in job:
        raise ValidationFailure("job file defines no scheme")
    return _guard(scheme_from_literal, job["scheme"])


# the keys a job file and each kind of command may carry, each read by
# _run_job, and the types of the command fields that are not literals
_JOB_KEYS = {"schema", "scheme", "filters", "modules", "commands"}
_COMMAND_KEYS = {
    "spec": {"cmd", "degree_bound", "labels"},
    "op": {"cmd", "op", "args", "chart", "point", "name"},
    "classify": {"cmd", "filter"},
    "member": {"cmd", "module", "filter"},
    "table": {"cmd", "filters"},
    "oracle": {"cmd", "ring", "length_bound"},
}
_COMMAND_TYPES = {
    "degree_bound": ((int, type(None)), "an integer"),
    "labels": (list, "a list of labels"),
    "op": (str, "an op name"),
    "args": (list, "a list of filters"),
    "chart": ((int, type(None)), "a chart index"),
    "point": ((str, type(None)), "a point literal"),
    "name": (str, "a filter name"),
    "filters": (list, "a list of filters"),
    "ring": (str, "a ring descriptor"),
    "length_bound": (int, "an integer"),
}


def _check_job(job: dict) -> None:
    """Reject unknown keys and wrongly typed structure in a job file."""
    _check_keys(job, _JOB_KEYS, "job file")
    _typed(job, "filters", {}, dict, "an object of name: filter")
    _typed(job, "modules", {}, dict, "an object of name: module")
    for i, cmd in enumerate(_typed(job, "commands", [], list, "a list of commands")):
        if not isinstance(cmd, dict):
            raise ParseError(f"command {i} must be an object, not {cmd!r}")
        kind = cmd.get("cmd")
        if not isinstance(kind, str) or kind not in _COMMAND_KEYS:
            raise ParseError(f"command {i}: unknown command {kind!r}")
        _check_keys(cmd, _COMMAND_KEYS[kind], f"command {i} ({kind})")
        for key in cmd.keys() & _COMMAND_TYPES.keys():
            _typed(cmd, key, None, *_COMMAND_TYPES[key])


def _validate_names(job: dict) -> None:
    defined = set(job.get("filters", {}))
    modules = set(job.get("modules", {}))
    for i, cmd in enumerate(job.get("commands", [])):
        where = f"command {i} ({cmd['cmd']})"
        for ref in _referenced_filters(cmd):
            if isinstance(ref, str) and ref not in defined:
                raise ValidationFailure(f"{where}: filter {ref!r} is not defined")
        mod = cmd.get("module")
        if isinstance(mod, str) and mod not in modules:
            raise ValidationFailure(f"{where}: module {mod!r} is not defined")
        if "name" in cmd and cmd.get("op") in _NAMED_OPS:
            defined.add(cmd["name"])


def _referenced_filters(cmd: dict):
    kind = cmd.get("cmd")
    if kind == "op":
        return [a for a in cmd.get("args", []) if isinstance(a, str)]
    if kind in ("classify", "member"):
        ref = cmd.get("filter")
        return [ref] if isinstance(ref, str) else []
    if kind == "table":
        return [f for f in cmd.get("filters", []) if isinstance(f, str)]
    return []


def _resolve_filter_lit(job_filters: dict, ref):
    return job_filters[ref] if isinstance(ref, str) else ref


def _run_job(job: dict, degree_bound) -> dict:
    if not isinstance(job, dict):
        raise ValidationFailure("job file must be a JSON object")
    if "schema" not in job:
        raise ValidationFailure("job file has no schema version field")
    if job["schema"] != SCHEMA_VERSION:
        raise ValidationFailure(
            f"unsupported schema version {job['schema']!r}; this build reads {SCHEMA_VERSION}")
    _guard(_check_job, job)
    commands = job.get("commands", [])
    _validate_names(job)
    named = dict(job.get("filters", {}))
    scheme = _job_scheme(job) if commands else None
    results = []
    for i, cmd in enumerate(commands):
        kind = cmd.get("cmd")
        where = f"command {i}"
        if kind == "spec":
            results.append(_guard(_spec_doc, scheme, cmd.get("degree_bound", degree_bound),
                                  cmd.get("labels", ())))
        elif kind == "op":
            op = cmd.get("op")
            if op not in _OP_ARITY:
                raise ValidationFailure(f"{where}: unknown op {op!r}")
            args = cmd.get("args", [])
            if len(args) != _OP_ARITY[op]:
                raise ValidationFailure(
                    f"{where}: op {op} takes {_OP_ARITY[op]} operand(s), got {len(args)}")
            lits = [_resolve_filter_lit(named, a) for a in args]
            doc = _op_doc(op, scheme, lits, cmd.get("chart"), cmd.get("point"))
            if "name" in cmd and op in _NAMED_OPS:
                named[cmd["name"]] = doc["result"]
                doc["name"] = cmd["name"]
            results.append(doc)
        elif kind == "classify":
            lit = _resolve_filter_lit(named, cmd.get("filter"))
            flt = _guard(filter_from_literal, scheme, lit)
            results.append(_classify_doc(classify(flt),
                                         cmd.get("filter") if isinstance(cmd.get("filter"), str) else None))
        elif kind == "member":
            mod_lit = cmd.get("module")
            if isinstance(mod_lit, str):
                mod_lit = job.get("modules", {})[mod_lit]
            results.append(_member_doc(scheme, mod_lit,
                                       _resolve_filter_lit(named, cmd.get("filter"))))
        elif kind == "table":
            refs = cmd.get("filters", sorted(named))
            rows = []
            for ref in refs:
                flt = _guard(filter_from_literal, scheme, _resolve_filter_lit(named, ref))
                rows.append(_classify_doc(classify(flt),
                                          ref if isinstance(ref, str) else None))
            results.append({"rows": rows})
        else:
            results.append(_oracle_doc(cmd.get("ring", ""), cmd.get("length_bound", 4)))
    return {"schema": SCHEMA_VERSION, "results": results}


# ---------------------------------------------------------------------------
# click commands


@click.group()
def main():
    """Classify filters of ideal subsheaves on desk-scale schemes."""


@main.command()
@click.argument("job_path", type=click.Path(exists=True, dir_okay=False))
@FORMAT_OPT
@OUT_OPT
@click.option("--degree-bound", type=int, default=None,
              help="Default closed-point degree bound for spec commands.")
def run(job_path, fmt, out, degree_bound):
    """Run the commands in a job file."""
    with open(job_path, encoding="utf-8") as fh:
        job = _load_json(fh.read(), job_path)
    doc = _run_job(job, degree_bound)
    if not doc["results"]:
        return
    _emit(doc, fmt, out)
    if any(not r["passed"] for r in doc["results"] if "passed" in r):
        sys.exit(3)


@main.command("classify")
@SCHEME_OPT
@click.option("--filter", "filter_json", required=True, help="Filter literal (JSON).")
@FORMAT_OPT
@OUT_OPT
def classify_cmd(scheme_json, filter_json, fmt, out):
    """Classify one filter and print its flags and attachments."""
    scheme = _guard(scheme_from_literal, _load_json(scheme_json, "--scheme"))
    flt = _guard(filter_from_literal, scheme, _load_json(filter_json, "--filter"))
    _emit(_classify_doc(classify(flt)), fmt, out)


@main.command("spec")
@SCHEME_OPT
@click.option("--degree-bound", type=int, default=None,
              help="Enumerate closed points up to this degree over a prime field.")
@click.option("--labels", default="", help="Comma-separated labels to materialize.")
@FORMAT_OPT
@OUT_OPT
def spec_cmd(scheme_json, degree_bound, labels, fmt, out):
    """Enumerate the points of a scheme with their specialization order."""
    scheme = _guard(scheme_from_literal, _load_json(scheme_json, "--scheme"))
    label_list = tuple(l for l in labels.split(",") if l)
    _emit(_guard(_spec_doc, scheme, degree_bound, label_list), fmt, out)


@main.command("op")
@click.argument("opname", type=click.Choice(sorted(_OP_ARITY)))
@SCHEME_OPT
@click.option("--filter", "filter_jsons", multiple=True,
              help="Filter literal (JSON); repeat for binary ops.")
@click.option("--chart", type=int, default=None, help="Chart index for restrict.")
@click.option("--point", default=None, help="Point literal for localize.")
@FORMAT_OPT
@OUT_OPT
def op_cmd(opname, scheme_json, filter_jsons, chart, point, fmt, out):
    """Apply a filter operation: meet, join, product, restrict, localize, generate."""
    scheme = _guard(scheme_from_literal, _load_json(scheme_json, "--scheme"))
    if len(filter_jsons) != _OP_ARITY[opname]:
        raise ValidationFailure(
            f"op {opname} takes {_OP_ARITY[opname]} --filter operand(s), "
            f"got {len(filter_jsons)}")
    lits = [_load_json(f, "--filter") for f in filter_jsons]
    _emit(_op_doc(opname, scheme, lits, chart, point), fmt, out)


@main.command("member")
@SCHEME_OPT
@click.option("--module", "module_json", required=True, help="Module literal (JSON).")
@click.option("--filter", "filter_json", required=True, help="Filter literal (JSON).")
@FORMAT_OPT
@OUT_OPT
def member_cmd(scheme_json, module_json, filter_json, fmt, out):
    """Decide whether the subcategory of a filter contains a module."""
    scheme = _guard(scheme_from_literal, _load_json(scheme_json, "--scheme"))
    _emit(_member_doc(scheme, _load_json(module_json, "--module"),
                      _load_json(filter_json, "--filter")), fmt, out)


@main.command("explain")
@SCHEME_OPT
@click.option("--filter", "filter_json", required=True, help="Filter literal (JSON).")
@FORMAT_OPT
@OUT_OPT
def explain_cmd(scheme_json, filter_json, fmt, out):
    """Walk the correspondence chain for one filter: flags, support, attachments."""
    scheme = _guard(scheme_from_literal, _load_json(scheme_json, "--scheme"))
    flt = _guard(filter_from_literal, scheme, _load_json(filter_json, "--filter"))
    report = classify(flt)
    doc = _classify_doc(report)
    doc["chain"] = _explain_lines(report)
    _emit(doc, fmt, out)


@main.group()
def oracle():
    """Brute-force ground truth over finite rings."""


@oracle.command("verify")
@click.option("--ring", required=True, help="Ring descriptor, e.g. p:2,mod:x^3.")
@click.option("--length-bound", type=int, default=4, show_default=True,
              help="Module length bound for subcategory enumeration.")
@FORMAT_OPT
@OUT_OPT
def oracle_verify(ring, length_bound, fmt, out):
    """Cross-check the symbolic engine against brute force on one ring."""
    doc = _oracle_doc(ring, length_bound)
    _emit(doc, fmt, out)
    if not doc["passed"]:
        sys.exit(3)


if __name__ == "__main__":
    main()
