"""The qfilt CLI: commands, job files, exit codes, determinism."""

import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import qfilt
from qfilt import cli
from qfilt.cli import _COMMAND_TYPES, _JOB_KEYS, _OPS, COMMANDS, _json_text, main
from qfilt.literals import (_FILTER_KEYS, _FREE_KEYS, _IDEAL_KEYS, _MODULE_KEYS,
                            _SCHEME_KEYS, scheme_from_literal)
from qfilt.oracle import OracleReport
from qfilt.spectrum import spec

ROOT = Path(__file__).resolve().parent.parent
JOBS = ROOT / "jobs"
GOLDEN = ROOT / "qbench" / "golden"

A1 = '{"kind":"affine_line","field":"symbolic"}'
UZ = '{"kind":"disjoint_union","components":"Z"}'
P1 = '{"kind":"proj_line","field":"symbolic"}'
U2 = '{"kind":"disjoint_union","components":[{"p":2},{"p":3}]}'
F2LINE = '{"kind":"affine_line","field":{"p":2}}'
QUOTIENT = '{"kind":"affine_quotient","p":2,"modulus":"x^5+x^3"}'


def invoke(runner, args):
    return runner.invoke(main, args, catch_exceptions=False)


class TestClassify:
    def test_json_document(self, runner):
        res = invoke(runner, ["classify", "--scheme", A1, "--filter",
                              '{"kind":"exponents","default":0,"exceptions":{"pt:a":2}}'])
        assert res.exit_code == 0
        doc = json.loads(res.output)
        assert doc["closed"] and not doc["localizing"]
        assert doc["subscheme"]["ideal"] == {"orders": {"pt:a": 2}}

    def test_table_format(self, runner):
        res = invoke(runner, ["classify", "--scheme", A1, "--filter",
                              '{"kind":"improper"}', "--format", "table"])
        assert res.exit_code == 0
        assert "bilocalizing" in res.output and "yes" in res.output

    def test_validation_error_exit_2(self, runner):
        res = invoke(runner, ["classify", "--scheme", '{"kind":"nope"}',
                              "--filter", '{"kind":"improper"}'])
        assert res.exit_code == 2
        assert "unknown scheme kind" in res.output

    def test_bad_json_reports_position(self, runner):
        res = invoke(runner, ["classify", "--scheme", '{"kind":', "--filter", "{}"])
        assert res.exit_code == 2
        assert "line 1" in res.output and "column" in res.output

    @pytest.mark.parametrize("scheme,flt,localizing,normal", [
        (A1, '{"kind":"exponents","default":2}', False, {"kind": "exponents", "default": 2}),
        # (x^2) is (gcd(x^2, x^3+x)) = (x) there, the whole stalk at x
        ('{"kind":"affine_quotient","p":2,"modulus":"x^3+x"}',
         '{"kind":"principal","ideal":"x^2"}', True,
         {"kind": "exponents", "default": 0, "exceptions": {"pt:x": 1}}),
        (F2LINE, '{"kind":"principal","ideal":"0"}', True, {"kind": "improper"}),
    ])
    def test_answers(self, runner, scheme, flt, localizing, normal):
        doc = json.loads(invoke(runner, ["classify", "--scheme", scheme, "--filter", flt]).output)
        assert doc["localizing"] is localizing
        assert doc["filter"] == normal

    # (scheme, filter, the cells of its row): every branch of the filter,
    # ideal and closed-set cells
    ROWS = [
        (A1, '{"kind":"improper"}',
         ["improper", "yes", "yes", "yes", "-", "supp=all V(comp:0) clopen=all"]),
        (A1, '{"kind":"exponents","default":0}',
         ["default=0 -", "yes", "yes", "yes", "-", "supp=empty V(1) clopen=empty"]),
        (A1, '{"kind":"exponents","default":0,"exceptions":{"pt:a":2}}',
         ["default=0 pt:a:2", "no", "yes", "no", "-", "V(pt:a^2)"]),
        (A1, '{"kind":"exponents","default":0,"exceptions":{"pt:a":"inf","pt:b":"inf"}}',
         ["default=0 pt:a:inf pt:b:inf", "yes", "no", "no", "-", "supp={pt:a,pt:b}"]),
        (A1, '{"kind":"exponents","default":"inf","exceptions":{"pt:a":0,"pt:b":0}}',
         ["default=inf pt:a:0 pt:b:0", "yes", "no", "no", "-", "supp=all-but{pt:a,pt:b}"]),
        (UZ, '{"kind":"exponents","kill":[1,2]}',
         ["default=0 kill{1,2}", "yes", "yes", "yes", "-",
          "supp=comps{1,2} V(comp:1 comp:2) clopen=comps{1,2}"]),
        (UZ, '{"kind":"exponents","kill_all_but":[1,2]}',
         ["default=0 kill(all-but{1,2})", "yes", "yes", "yes", "-",
          "supp=comps(all-but{1,2}) V(comps(all-but{1,2})) clopen=comps(all-but{1,2})"]),
    ]

    @pytest.mark.parametrize("scheme,flt,cells", ROWS)
    def test_table_cells(self, runner, scheme, flt, cells):
        res = invoke(runner, ["classify", "--scheme", scheme, "--filter", flt,
                              "--format", "table"])
        header, rule, row = res.output.splitlines()
        assert re.split(r"\s{2,}", row) == cells


MALFORMED = {
    "union_components_int": ["classify", "--scheme", '{"kind":"disjoint_union","components":5}',
                             "--filter", '{"kind":"improper"}'],
    "quotient_modulus_int": ["classify", "--scheme",
                             '{"kind":"affine_quotient","p":2,"modulus":3}',
                             "--filter", '{"kind":"improper"}'],
    "exceptions_list": ["classify", "--scheme", A1,
                        "--filter", '{"kind":"exponents","exceptions":[1,2]}'],
    "ideal_orders_list": ["classify", "--scheme", A1,
                          "--filter", '{"kind":"principal","ideal":{"orders":[1]}}'],
    "misspelled_filter_key": ["classify", "--scheme", A1,
                              "--filter", '{"kind":"exponents","exeptions":{"pt:a":2}}'],
    "unknown_scheme_key": ["classify", "--scheme",
                           '{"kind":"affine_line","field":"symbolic","colour":"red"}',
                           "--filter", '{"kind":"improper"}'],
    "free_string": ["member", "--scheme", UZ, "--module", '{"free":"yes"}',
                    "--filter", '{"kind":"improper"}'],
    "order_true": ["classify", "--scheme", A1,
                   "--filter", '{"kind":"principal","ideal":{"orders":{"pt:a":true}}}'],
    "divisor_true": ["member", "--scheme", A1, "--module", '{"divisors":{"pt:a":true}}',
                     "--filter", '{"kind":"improper"}'],
    "kill_true": ["classify", "--scheme", U2,
                  "--filter", '{"kind":"exponents","kill":[true]}'],
    "kill_missing_component": ["classify", "--scheme", U2,
                               "--filter", '{"kind":"exponents","kill":[5]}'],
    "kill_on_line": ["classify", "--scheme", A1,
                     "--filter", '{"kind":"principal","ideal":{"kill":[3]}}'],
    "free_missing_component": ["member", "--scheme", A1, "--module", '{"free":[9]}',
                               "--filter", '{"kind":"improper"}'],
    "kill_negative": ["classify", "--scheme", U2,
                      "--filter", '{"kind":"principal","ideal":{"kill":[-1]}}'],
    "chart_on_meet": ["op", "meet", "--scheme", A1, "--filter", '{"kind":"improper"}',
                      "--filter", '{"kind":"improper"}', "--chart", "9"],
    "chart_on_localize": ["op", "localize", "--scheme", A1, "--filter", '{"kind":"improper"}',
                          "--point", "pt:a", "--chart", "3"],
    "oracle_p_zero": ["oracle", "verify", "--ring", "p:0,mod:x"],
    "oracle_p_composite": ["oracle", "verify", "--ring", "p:4,mod:x"],
    "oracle_p_prime_power": ["oracle", "verify", "--ring", "p:9,mod:x^2"],
    # 2^61 - 1 is prime; trial division would not finish before the cap
    "field_p_huge_prime": ["classify", "--scheme",
                           '{"kind":"affine_line","field":{"p":2305843009213693951}}',
                           "--filter", '{"kind":"improper"}'],
    "field_p_float": ["classify", "--scheme", '{"kind":"affine_line","field":{"p":2.9}}',
                      "--filter", '{"kind":"improper"}'],
    "field_p_string": ["classify", "--scheme", '{"kind":"affine_line","field":{"p":"7"}}',
                       "--filter", '{"kind":"improper"}'],
    "quotient_p_float": ["classify", "--scheme",
                         '{"kind":"affine_quotient","p":3.5,"modulus":"x^2"}',
                         "--filter", '{"kind":"improper"}'],
    # past Python's 4,300-digit limit on reading an integer from text
    "oracle_p_5000_digits": ["oracle", "verify", "--ring", f"p:{'9' * 5000},mod:x"],
    "field_p_5000_digits": ["classify", "--scheme",
                            f'{{"kind":"affine_line","field":{{"p":{"9" * 5000}}}}}',
                            "--filter", '{"kind":"improper"}'],
    # digit strings: "²" passes str.isdigit() but int() rejects it
    "exponent_superscript": ["classify", "--scheme", A1,
                             "--filter", '{"kind":"exponents","default":"²"}'],
    "exponent_5000_digits": ["classify", "--scheme", A1,
                             "--filter", f'{{"kind":"exponents","default":"{"9" * 5000}"}}'],
    "kill_superscript": ["classify", "--scheme", U2,
                         "--filter", '{"kind":"exponents","kill":["comp:²"]}'],
    "kill_5000_digits": ["classify", "--scheme", U2,
                         "--filter", f'{{"kind":"exponents","kill":["comp:{"9" * 5000}"]}}'],
    "coefficient_5000_digits": ["classify", "--scheme", F2LINE, "--filter",
                                f'{{"kind":"principal","ideal":"{"9" * 5000}x+1"}}'],
    "multiplicity_5000_digits": ["classify", "--scheme", A1, "--filter",
                                 f'{{"kind":"principal","ideal":"(x-a)^{"9" * 5000}"}}'],
    "spec_labels_repeated": ["spec", "--scheme", A1, "--labels", "a,a"],
    # JSON reads 1e999 and Infinity as a float; an exponent is an integer or "inf"
    "exponent_1e999": ["classify", "--scheme", A1,
                       "--filter", '{"kind":"exponents","default":1e999}'],
    "exponent_infinity": ["classify", "--scheme", A1, "--filter",
                          '{"kind":"exponents","default":0,"exceptions":{"pt:a":Infinity}}'],
    "filter_nested_too_deeply": ["classify", "--scheme", A1, "--filter", "[" * 100_000],
    "scheme_nested_too_deeply": ["classify", "--scheme", "[" * 100_000,
                                 "--filter", '{"kind":"improper"}'],
    # the files below are written to the working directory of each case
    "run_nested_too_deeply": ["run", "deep.json"],
    "run_not_utf8": ["run", "utf16.json"],
    "out_is_directory": ["classify", "--scheme", A1, "--filter", '{"kind":"improper"}',
                         "--out", "."],
    "out_missing_directory": ["classify", "--scheme", A1, "--filter", '{"kind":"improper"}',
                              "--out", "missing/out.json"],
    "spec_degree_bound_huge": ["spec", "--scheme", F2LINE, "--degree-bound", str(10**30)],
    "run_job_list": ["run", "list.json"],
    "run_no_schema": ["run", "no_schema.json"],
    "run_classify_no_scheme": ["run", "no_scheme.json"],
    "divisor_point_int": ["member", "--scheme", A1, "--module", '{"divisors":[[5,1]]}',
                          "--filter", '{"kind":"improper"}'],
    "localize_gen_on_quotient": ["op", "localize", "--scheme", QUOTIENT, "--point", "gen",
                                 "--filter", '{"kind":"improper"}'],
    "generate_default_inf": ["op", "generate", "--scheme", A1,
                             "--filter", '{"kind":"exponents","default":"inf"}'],
    "restrict_missing_chart": ["op", "restrict", "--scheme", P1, "--chart", "5",
                               "--filter", '{"kind":"improper"}'],
    "union_no_components": ["classify", "--scheme", '{"kind":"disjoint_union","components":[]}',
                            "--filter", '{"kind":"improper"}'],
    "ideal_trailing_plus": ["classify", "--scheme", F2LINE,
                            "--filter", '{"kind":"principal","ideal":"x^2+"}'],
    "ideal_constant_power": ["classify", "--scheme", F2LINE,
                             "--filter", '{"kind":"principal","ideal":"3^2"}'],
    "ideal_empty": ["classify", "--scheme", A1, "--filter", '{"kind":"principal","ideal":""}'],
    # two spellings of one point in one object
    "exceptions_two_spellings": ["classify", "--scheme", F2LINE, "--filter",
                                 '{"kind":"exponents","default":0,'
                                 '"exceptions":{"pt:x":1,"x":2}}'],
    "principal_orders_two_spellings": ["classify", "--scheme", F2LINE, "--filter",
                                       '{"kind":"principal","ideal":{"orders":{"pt:x":1,"x":3}}}'],
    "generated_orders_two_spellings": ["classify", "--scheme", F2LINE, "--filter",
                                       '{"kind":"generated","ideals":'
                                       '[{"orders":{"pt:x":1,"x":3}}]}'],
    "exceptions_two_spellings_symbolic": ["classify", "--scheme", A1, "--filter",
                                          '{"kind":"exponents","default":0,'
                                          '"exceptions":{"pt:a":1,"a":2}}'],
    # a dense list of a billion coefficients, were the degree not capped first
    "generated_degree_huge": ["classify", "--scheme", F2LINE, "--filter",
                             '{"kind":"generated","ideals":["x^1000000000"]}'],
    "oracle_modulus_degree_huge": ["oracle", "verify", "--ring", "p:2,mod:x^1000000000+1"],
    # the constant 1 names no point: no irreducible has degree below 1
    "point_constant": ["classify", "--scheme", F2LINE, "--filter",
                       '{"kind":"exponents","default":0,"exceptions":{"pt:1":1}}'],
    "ideal_int": ["classify", "--scheme", F2LINE, "--filter", '{"kind":"principal","ideal":5}'],
    # comp:1 names the generic point of component 1, which carries no exponent
    "exceptions_generic_point": ["classify", "--scheme", U2, "--filter",
                                 '{"kind":"exponents","exceptions":{"comp:1":1}}'],
    "divisor_one_entry": ["member", "--scheme", A1, "--module", '{"divisors":[[1]]}',
                          "--filter", '{"kind":"improper"}'],
}
# the message of each case that alone reaches the line raising it
MESSAGES = {"point_constant": "point 'pt:1' does not lie on A1(F2)",
            "ideal_int": "bad ideal literal 5",
            "exceptions_generic_point": "comp:1 is not a closed point",
            "divisor_one_entry": "bad divisor [1]; use [point, exponent]"}
FILES = {"deep.json": b"[" * 100_000, "utf16.json": b"\xff\xfe{}", "list.json": b"[]",
         "no_schema.json": b'{"commands": []}',
         "no_scheme.json": b'{"schema": 1, "commands": [{"cmd": "classify", '
                           b'"filter": {"kind": "improper"}}]}'}


@pytest.mark.parametrize("case", MALFORMED)
def test_malformed_literal_exit_2(runner, tmp_path, monkeypatch, case):
    monkeypatch.chdir(tmp_path)
    for name, data in FILES.items():
        (tmp_path / name).write_bytes(data)
    res = invoke(runner, MALFORMED[case])
    assert res.exit_code == 2
    assert res.stderr.startswith("Error:")
    assert res.stderr.rstrip().endswith(MESSAGES.get(case, ""))


@pytest.mark.parametrize("case,point", [("exceptions_two_spellings", "pt:x"),
                                        ("principal_orders_two_spellings", "pt:x"),
                                        ("generated_orders_two_spellings", "pt:x"),
                                        ("exceptions_two_spellings_symbolic", "pt:a")])
def test_two_spellings_of_a_point_named(runner, case, point):
    res = invoke(runner, MALFORMED[case])
    assert res.exit_code == 2
    assert "duplicate" in res.stderr and res.stderr.rstrip().endswith(f"for {point}")


# every entry point that takes a component index, on the symbolic union,
# where no component count bounds the index from above
NEGATIVE_INDEX = {
    "kill": (["classify", "--scheme", UZ, "--filter",
              '{"kind":"exponents","default":0,"kill":[-1]}'], "bad component -1"),
    "kill_all_but": (["classify", "--scheme", UZ, "--filter",
                      '{"kind":"exponents","default":0,"kill_all_but":[-1]}'], "bad component -1"),
    "free": (["member", "--scheme", UZ, "--module", '{"free":[-4]}', "--filter",
              '{"kind":"improper"}'], "bad component -4"),
    "chart": (["op", "restrict", "--scheme", UZ, "--filter", '{"kind":"improper"}',
               "--chart", "-2"], "has no chart -2"),
}


@pytest.mark.parametrize("args,message", NEGATIVE_INDEX.values(), ids=NEGATIVE_INDEX.keys())
def test_negative_component_index_exit_2(runner, args, message):
    res = invoke(runner, args)
    assert res.exit_code == 2
    assert res.stderr.startswith("Error:") and message in res.stderr


def _nesting_job(scheme=None, filters=None, modules=None, commands=None) -> dict:
    """A job on A1 that classifies its improper filter F, with the parts
    given in place of the defaults; NEST marks the nested value."""
    job = {"schema": 1, "scheme": scheme or json.loads(A1),
           "filters": filters or {"F": {"kind": "improper"}},
           "commands": commands or [{"cmd": "classify", "filter": "F"}]}
    return {**job, "modules": modules} if modules else job


def _exponents(**fields) -> dict:
    return {"F": {"kind": "exponents", "default": 0, **fields}}


_MEMBER = [{"cmd": "member", "module": "M", "filter": "F"}]

# every job field that takes a JSON value, with NEST in that field
NESTING_JOBS = {
    "default": _nesting_job(filters={"F": {"kind": "exponents", "default": "NEST"}}),
    "exceptions": _nesting_job(filters=_exponents(exceptions={"pt:a": "NEST"})),
    "kill": _nesting_job(json.loads(UZ), filters=_exponents(kill="NEST")),
    "kill_all_but": _nesting_job(json.loads(UZ), filters=_exponents(kill_all_but="NEST")),
    "ideal": _nesting_job(filters={"F": {"kind": "principal", "ideal": "NEST"}}),
    "orders": _nesting_job(filters={"F": {"kind": "principal", "ideal": {"orders": "NEST"}}}),
    "ideals": _nesting_job(filters={"F": {"kind": "generated", "ideals": "NEST"}}),
    "filter": _nesting_job(commands=[{"cmd": "classify", "filter": "NEST"}]),
    "divisors": _nesting_job(modules={"M": {"divisors": "NEST"}}, commands=_MEMBER),
    "free": _nesting_job(json.loads(UZ), modules={"M": {"divisors": {}, "free": "NEST"}},
                         commands=_MEMBER),
    "labels": _nesting_job(commands=[{"cmd": "spec", "labels": "NEST"}]),
    "args": _nesting_job(commands=[{"cmd": "op", "op": "meet", "args": ["F", "NEST"]}]),
    "point": _nesting_job(commands=[{"cmd": "op", "op": "localize", "args": ["F"],
                                     "point": "NEST"}]),
    "field": _nesting_job({"kind": "affine_line", "field": "NEST"}),
    "components": _nesting_job({"kind": "disjoint_union", "components": "NEST"}),
    "modulus": _nesting_job({"kind": "affine_quotient", "p": 2, "modulus": "NEST"}),
    "ring": _nesting_job(commands=[{"cmd": "oracle", "ring": "NEST"}]),
    "table": _nesting_job(commands=[{"cmd": "table", "filters": "NEST"}]),
}


@pytest.mark.parametrize("job", NESTING_JOBS.values(), ids=NESTING_JOBS.keys())
def test_deep_nesting_exit_2(runner, tmp_path, job):
    """JSON nested near the recursion limit either fails to parse or parses
    and is refused where it is read, depending on the stack depth of the
    caller; both exit 2 with one short line, and the echo of the value is
    the same at every depth."""
    path = tmp_path / "job.json"
    too_deep = f"Error: {path}: JSON nested too deeply\n"
    for depth in range(850, 1001):
        path.write_text(json.dumps(job).replace('"NEST"', "[" * depth + "]" * depth))
        res = invoke(runner, ["run", str(path)])
        assert res.exit_code == 2, depth
        assert res.stderr == too_deep or " [[[[...]]]]" in res.stderr, depth
        assert res.stderr.count("\n") == 1 and len(res.stderr.encode()) < 200, depth


# a refused value too long or too deep to quote in full, and its echo
LONG_VALUES = {
    "list": ([0] * 2001, "[0, 0, 0, 0, 0, 0, 0, 0, ...]"),
    "string": ("x" * 5000, "'" + "x" * 27 + "..." + "x" * 28 + "'"),
    "wide_object": ({f"k{i}": i for i in range(50)},
                    "{'k0': 0, 'k1': 1, 'k2': 2, 'k3': 3, 'k4': 4, 'k5': 5, ...}"),
    "deep_object": ({"b": {"a": {"c": {"d": 1}}}}, "{'b': {'a': {'c': {...}}}}"),
    "wide_and_deep": ([[["9" * 60] * 8] * 8] * 8, "[[['" + "9" * 27 + "..."),
}


@pytest.mark.parametrize("value,echo", LONG_VALUES.values(), ids=LONG_VALUES.keys())
def test_long_value_echo_is_bounded(runner, value, echo):
    res = invoke(runner, ["classify", "--scheme", A1, "--filter",
                          json.dumps({"kind": "exponents", "default": value})])
    assert res.exit_code == 2
    assert res.stderr.startswith(f"Error: command 0 (classify): bad exponent {echo}")
    assert len(res.stderr.encode()) < 300


def test_spec_past_enumeration_cap_fails_fast(runner):
    # degree 40 is far past the cap; walking the degrees upward would
    # enumerate every degree up to 20 first
    start = time.perf_counter()
    res = invoke(runner, ["spec", "--scheme", F2LINE, "--degree-bound", "40"])
    assert res.exit_code == 2
    assert "irreducible enumeration over F2 at degree 40 is too large" in res.stderr
    assert time.perf_counter() - start < 2


def test_point_of_degree_17_checked_fast(runner):
    # the check divides by the irreducibles up to degree 8; a sieve of
    # degree 17 would try 2^17 candidates
    start = time.perf_counter()
    res = invoke(runner, ["classify", "--scheme", F2LINE, "--filter",
                          '{"kind":"exponents","default":0,"exceptions":{"pt:x^17+x^3+1":1}}'])
    assert res.exit_code == 0
    assert time.perf_counter() - start < 2


# one input just past each size cap in qfilt.config, with that cap's message
CAPS = {
    "MAX_PRIME": (["classify", "--scheme", '{"kind":"affine_line","field":{"p":263}}',
                   "--filter", '{"kind":"improper"}'], "field size 263 exceeds limit 257"),
    "MAX_POLY_DEGREE": (
        ["classify", "--scheme", F2LINE, "--filter",
         '{"kind":"generated","ideals":["x^1025+x"]}'], "polynomial degree 1025 exceeds limit 1024"),
    "MAX_POLY_DEGREE_ring": (["oracle", "verify", "--ring", "p:2,mod:x^1025"],
                             "polynomial degree 1025 exceeds limit 1024"),
    "MAX_POLY_ENUMERATION": (
        ["classify", "--scheme", '{"kind":"affine_line","field":{"p":2}}', "--filter",
         '{"kind":"exponents","default":0,"exceptions":{"pt:x^21+x+1":1}}'],
        "irreducible enumeration over F2 at degree 21 is too large"),
    "MAX_UNION_COMPONENTS": (
        ["classify", "--scheme",
         json.dumps({"kind": "disjoint_union", "components": [{"p": 2}] * 65}),
         "--filter", '{"kind":"improper"}'], "65 components exceed the explicit limit 64"),
    "MAX_ORACLE_ELEMENTS": (["oracle", "verify", "--ring", "p:3,mod:x^8"],
                            "6561 ring elements exceed the oracle limit 4096"),
    "MAX_ORACLE_ELEMENTS_modules": (
        ["oracle", "verify", "--ring", "p:3,mod:x^2+1"],
        "modules of length 4 over F3[x]/(x^2+1) reach 6561 elements, "
        "over the oracle limit 4096"),
    "MAX_ORACLE_IDEALS": (["oracle", "verify", "--ring", "p:2,mod:x^8+x^4"],
                          "more than 24 ideals; lattice too large"),
    "MAX_QUOTIENT_DEGREE": (["oracle", "verify", "--ring", "p:2,mod:x^7"],
                            "modulus degree 7 exceeds 6"),
    "MAX_SUBCAT_LENGTH": (["oracle", "verify", "--ring", "p:2,mod:x^2", "--length-bound", "9"],
                          "length bound 9 exceeds 8"),
}


@pytest.mark.parametrize("args,message", CAPS.values(), ids=CAPS.keys())
def test_size_cap_exit_2(runner, args, message):
    res = invoke(runner, args)
    assert res.exit_code == 2
    assert res.stderr.startswith("Error:") and message in res.stderr


def test_poly_degree_at_cap_answers(runner):
    res = invoke(runner, ["classify", "--scheme", F2LINE, "--filter",
                          '{"kind":"principal","ideal":"x^1024"}'])
    assert res.exit_code == 0
    assert json.loads(res.output)["subscheme"]["ideal"] == {"orders": {"pt:x": 1024}}


class TestOps:
    def test_product(self, runner):
        res = invoke(runner, [
            "op", "product", "--scheme", A1,
            "--filter", '{"kind":"exponents","default":0,"exceptions":{"pt:a":2}}',
            "--filter", '{"kind":"exponents","default":0,"exceptions":{"pt:a":3}}'])
        assert res.exit_code == 0
        assert json.loads(res.output)["result"]["exceptions"] == {"pt:a": 5}

    def test_meet_join(self, runner):
        f = '{"kind":"exponents","default":0,"exceptions":{"pt:a":2}}'
        g = '{"kind":"exponents","default":0,"exceptions":{"pt:a":1,"pt:b":1}}'
        res = invoke(runner, ["op", "meet", "--scheme", A1, "--filter", f,
                              "--filter", g])
        assert json.loads(res.output)["result"]["exceptions"] == {"pt:a": 1}
        res = invoke(runner, ["op", "join", "--scheme", A1, "--filter", f,
                              "--filter", g])
        assert json.loads(res.output)["result"]["exceptions"] \
            == {"pt:a": 2, "pt:b": 1}

    def test_localize(self, runner):
        res = invoke(runner, [
            "op", "localize", "--scheme", A1, "--point", "pt:a",
            "--filter", '{"kind":"exponents","default":0,"exceptions":{"pt:a":2}}'])
        assert json.loads(res.output)["result"] == {"kind": "up_to", "bound": 2}

    @pytest.mark.parametrize("scheme,flt,point,kind", [
        (A1, '{"kind":"exponents","default":"inf"}', "pt:a", "all_powers"),
        (A1, '{"kind":"improper"}', "pt:a", "everything"),
        (UZ, '{"kind":"exponents","kill":[1]}', "comp:0", "full_only"),
    ])
    def test_localize_stalk_kinds(self, runner, scheme, flt, point, kind):
        args = ["op", "localize", "--scheme", scheme, "--point", point, "--filter", flt]
        assert json.loads(invoke(runner, args).output)["result"] == {"kind": kind}
        assert invoke(runner, args + ["--format", "table"]).output \
            == f"op: localize\nstalk: {kind}\n"

    def test_restrict(self, runner):
        res = invoke(runner, [
            "op", "restrict", "--scheme", P1, "--chart", "1",
            "--filter", '{"kind":"exponents","default":0,"exceptions":{"pt:inf":1}}'])
        assert json.loads(res.output)["result"]["exceptions"] == {"pt:inf": 1}

    def test_generate_reports_locality(self, runner):
        res = invoke(runner, ["op", "generate", "--scheme", UZ,
                              "--filter", '{"kind":"cofinite-family"}'])
        doc = json.loads(res.output)
        assert doc["local"] is False
        assert doc["result"] == {"kind": "improper"}

    def test_arity_checked(self, runner):
        res = invoke(runner, ["op", "meet", "--scheme", A1,
                              "--filter", '{"kind":"improper"}'])
        assert res.exit_code == 2

    def test_missing_point_checked(self, runner):
        res = invoke(runner, ["op", "localize", "--scheme", A1,
                              "--filter", '{"kind":"improper"}'])
        assert res.exit_code == 2


class TestMemberSpec:
    def test_member(self, runner):
        res = invoke(runner, [
            "member", "--scheme", A1,
            "--module", '{"divisors":{"pt:a":2}}',
            "--filter", '{"kind":"exponents","default":0,"exceptions":{"pt:a":1}}'])
        assert json.loads(res.output)["member"] is False

    def test_free_module_on_killed_component(self, runner):
        res = invoke(runner, ["member", "--scheme", UZ, "--module", '{"free":[0]}',
                              "--filter", '{"kind":"exponents","kill":[0]}'])
        assert json.loads(res.output)["member"] is True

    def test_module_divisors_keep_repeats(self, runner):
        # a module is a multiset of summands, so two spellings of one point
        # are two summands
        res = invoke(runner, ["member", "--scheme", F2LINE,
                              "--module", '{"divisors":{"pt:x":1,"x":2}}',
                              "--filter", '{"kind":"improper"}'])
        assert json.loads(res.output)["module"]["divisors"] == [["pt:x", 1], ["pt:x", 2]]

    # scheme, degree bound, labels, closed points, specializations; the
    # quotient's points are closed components and the union's generic ones,
    # so neither has a specialization
    SPEC_CASES = [
        (F2LINE, 4, (), 8, 8),
        (F2LINE, None, (), 2, 2),
        ('{"kind":"proj_line","field":{"p":2}}', 3, (), 6, 6),
        (P1, None, ("a", "b"), 3, 3),
        (QUOTIENT, None, (), 2, 0),
        (U2, None, (), 0, 0),
    ]

    def test_spec_counts(self, runner):
        # the list is the pair scan of the atom order (a <= b iff b lies in
        # the closure of {a}), generic points first, in its order
        def leq(a, b):
            return a == b or a.kind == "generic" and a.component == b.component

        for scheme, degree, labels, closed, pairs in self.SPEC_CASES:
            args = ["spec", "--scheme", scheme, "--labels", ",".join(labels)]
            if degree is not None:
                args += ["--degree-bound", str(degree)]
            doc = json.loads(invoke(runner, args).output)
            assert len(doc["closed"]) == closed
            assert len(doc["specializations"]) == pairs
            poset = spec(scheme_from_literal(json.loads(scheme)), degree, labels)
            pts = poset.generic + poset.closed
            assert doc["specializations"] == [[a.text, b.text] for a in pts for b in pts
                                              if a != b and leq(a, b)]

    def test_spec_labels(self, runner):
        res = invoke(runner, ["spec", "--scheme", A1, "--labels", "a,b"])
        doc = json.loads(res.output)
        assert doc["closed"] == ["pt:a", "pt:b"]
        assert doc["symbolic_closed"] is True

    def test_spec_table_symbolic_union(self, runner):
        res = invoke(runner, ["spec", "--scheme", UZ, "--format", "table"])
        assert res.output == "generic: -\nclosed: -\nplus a symbolic family of components\n"


class TestExplain:
    def test_chain_lines(self, runner):
        res = invoke(runner, ["explain", "--scheme", A1, "--filter",
                              '{"kind":"exponents","default":0}',
                              "--format", "table"])
        assert res.exit_code == 0
        assert "prelocalizing: yes" in res.output
        assert "localizing: yes" in res.output
        assert "bilocalizing: yes" in res.output

    @pytest.mark.parametrize("flt,line", [
        ('{"kind":"exponents","default":1}', "closed: no (no least member)"),
        ('{"kind":"exponents","default":"inf","exceptions":{"pt:a":0}}', "prime: yes, at pt:a"),
    ])
    def test_chain_line(self, runner, flt, line):
        res = invoke(runner, ["explain", "--scheme", A1, "--filter", flt, "--format", "table"])
        assert line in res.output.splitlines()


class TestOracleCommand:
    def test_verify_passes(self, runner):
        res = invoke(runner, ["oracle", "verify", "--ring", "p:2,mod:x^2"])
        assert res.exit_code == 0
        doc = json.loads(res.output)
        assert doc["passed"] and len(doc["checks"]) == 11

    def test_oracle_imported_only_to_verify(self):
        # a fresh interpreter, since this one has imported the oracle already;
        # no value type is generated at import, so dataclasses stays unloaded
        env = dict(os.environ, PYTHONPATH=str(Path(qfilt.__file__).parents[1]))
        probe = ("import sys, qfilt.cli; print('qfilt.oracle' in sys.modules, "
                 "'dataclasses' in sys.modules, 'click' in sys.modules); import qfilt.oracle; "
                 "print('dataclasses' in sys.modules)")
        res = subprocess.run([sys.executable, "-c", probe], env=env,
                             capture_output=True, text=True, timeout=60)
        assert res.returncode == 0 and res.stdout == "False False False\nFalse\n", res.stderr
        res = subprocess.run([sys.executable, "-m", "qfilt.cli", "run",
                              str(JOBS / "product_law.json")], env=env,
                             capture_output=True, text=True, timeout=60)
        assert res.returncode == 0, res.stderr
        assert res.stdout == (GOLDEN / "product_law.json").read_text(encoding="utf-8")
        res = subprocess.run([sys.executable, "-m", "qfilt.cli", "oracle", "verify",
                              "--ring", "p:2,mod:x^2"], env=env,
                             capture_output=True, text=True, timeout=60)
        assert res.returncode == 0, res.stderr
        assert json.loads(res.stdout)["passed"] is True

    def test_ring_of_2197_elements_verified_fast(self):
        # F13[x]/(x^3) at length bound 3, 2,197 elements, in a fresh
        # interpreter took 1.4 s (median of five runs on a shared 2-core
        # machine); the budget is three times that
        env = dict(os.environ, PYTHONPATH=str(Path(qfilt.__file__).parents[1]))
        start = time.perf_counter()
        res = subprocess.run([sys.executable, "-m", "qfilt.cli", "oracle", "verify", "--ring",
                              "p:13,mod:x^3", "--length-bound", "3"], env=env,
                             capture_output=True, text=True, timeout=60)
        assert res.returncode == 0, res.stderr
        assert time.perf_counter() - start < 4.2
        assert json.loads(res.stdout)["passed"] is True

    def test_bad_ring_descriptor(self, runner):
        res = invoke(runner, ["oracle", "verify", "--ring", "mod:x^2"])
        assert res.exit_code == 2

    @pytest.mark.parametrize("ring,key", [("p:2,mod:x^2,p:3", "p"), ("mod:x,p:2,mod:x^2", "mod")])
    def test_repeated_ring_key_exit_2(self, runner, tmp_path, ring, key):
        # the last p would win otherwise: F3[x]/(x^2) verified for p:2
        res = invoke(runner, ["oracle", "verify", "--ring", ring])
        assert res.exit_code == 2 and f"{key!r} is given twice" in res.stderr
        job = tmp_path / "job.json"
        job.write_text(json.dumps({"schema": 1, "commands": [{"cmd": "oracle", "ring": ring}]}))
        res = invoke(runner, ["run", str(job)])
        assert res.exit_code == 2 and f"{key!r} is given twice" in res.stderr

    @pytest.mark.parametrize("ring,bound,least", [("p:2,mod:x^2", "0", 2),
                                                  ("p:2,mod:x^5", "4", 5)])
    def test_length_bound_below_exponent_exit_2(self, runner, ring, bound, least):
        res = invoke(runner, ["oracle", "verify", "--ring", ring, "--length-bound", bound])
        assert res.exit_code == 2
        assert res.stderr.startswith("Error:") and f"at least {least}" in res.stderr

    def test_ring_p_not_digits(self, runner):
        # "²" passes str.isdigit(), but it is no integer, too long or not
        res = invoke(runner, ["oracle", "verify", "--ring", "p:²,mod:x"])
        assert res.exit_code == 2
        assert "expected decimal digits" in res.stderr and "too many" not in res.stderr

    def test_bound_from_factorization_exit_2(self, runner):
        # F2[x]/(x^12) has 4096 elements; what its factorization rules out
        # is reported before any table of that size is laid out
        res = invoke(runner, ["oracle", "verify", "--ring", "p:2,mod:x^12"])
        assert res.exit_code == 2
        assert res.stderr.startswith("Error:")

    def test_mismatch_exits_3(self, runner, monkeypatch):
        from qfilt import oracle as oracle_mod

        def fake_verify(ring, length_bound):
            report = OracleReport(ring, [])
            report.record("forced", False, "synthetic failure")
            return report

        # the CLI imports verify_ring from the oracle module when it runs
        monkeypatch.setattr(oracle_mod, "verify_ring", fake_verify)
        res = invoke(runner, ["oracle", "verify", "--ring", "p:2,mod:x^2"])
        assert res.exit_code == 3
        assert json.loads(res.output)["passed"] is False


# command lines the parser refuses, or whose job file cannot be opened, each
# with a word its message names; "dir" is a directory in the working directory
BAD_COMMAND_LINES = {
    "job_missing": (["run", "missing.json"], "missing.json"),
    "job_directory": (["run", "dir"], "dir"),
    "unknown_subcommand": (["twist"], "twist"),
    "no_subcommand": ([], "COMMAND"),
    "oracle_no_subcommand": (["oracle"], "COMMAND"),
    "scheme_missing": (["classify", "--filter", '{"kind":"improper"}'], "--scheme"),
    "format_xml": (["classify", "--scheme", A1, "--filter", '{"kind":"improper"}',
                    "--format", "xml"], "xml"),
    "length_bound_not_int": (["oracle", "verify", "--ring", "p:2,mod:x^2",
                              "--length-bound", "x"], "--length-bound"),
    "chart_not_int": (["op", "restrict", "--scheme", P1, "--filter", '{"kind":"improper"}',
                       "--chart", "1.5"], "--chart"),
    "degree_bound_not_int": (["spec", "--scheme", F2LINE, "--degree-bound", "abc"],
                             "--degree-bound"),
    "option_abbreviated": (["oracle", "verify", "--ring", "p:2,mod:x^2", "--length", "4"],
                           "--length"),
}


@pytest.mark.parametrize("args,word", BAD_COMMAND_LINES.values(), ids=BAD_COMMAND_LINES.keys())
def test_bad_command_line_exit_2(runner, tmp_path, monkeypatch, args, word):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "dir").mkdir()
    res = invoke(runner, args)
    assert res.exit_code == 2 and res.stdout == ""
    assert word in res.stderr and "Traceback" not in res.stderr
    if args[:1] == ["run"]:
        assert res.stderr.startswith(f"Error: cannot read job file {word}: ")


# each subcommand's one-line help, and the options and arguments it names
HELP = {
    "": ("Classify filters of ideal subsheaves on desk-scale schemes.",
         ["run", "classify", "spec", "op", "member", "explain", "oracle"]),
    "run": ("Run the commands in a job file.", ["JOB", "--format", "--out"]),
    "classify": ("Classify one filter and print its flags and attachments.",
                 ["--scheme", "--filter", "--format", "--out"]),
    "spec": ("Enumerate the points of a scheme with their specialization order.",
             ["--scheme", "--degree-bound", "--labels", "--format", "--out"]),
    "op": ("Apply a filter operation: meet, join, product, restrict, localize, generate.",
           [*_OPS, "--scheme", "--filter", "--chart", "--point", "--format", "--out"]),
    "member": ("Decide whether the subcategory of a filter contains a module.",
               ["--scheme", "--module", "--filter", "--format", "--out"]),
    "explain": ("Walk the correspondence chain for one filter: flags, support, attachments.",
                ["--scheme", "--filter", "--format", "--out"]),
    "oracle": ("Brute-force ground truth over finite rings.", ["verify"]),
    "oracle verify": ("Cross-check the symbolic engine against brute force on one ring.",
                      ["--ring", "--length-bound", "--format", "--out"]),
}


@pytest.mark.parametrize("command", HELP, ids=[c or "qfilt" for c in HELP])
def test_help_names_options(runner, command):
    res = invoke(runner, [*command.split(), "--help"])
    assert res.exit_code == 0 and res.stderr == ""
    doc, words = HELP[command]
    assert doc in " ".join(res.stdout.split())
    assert all(word in res.stdout for word in words)


MALFORMED_JOBS = {
    "filters_list": {"filters": [1], "commands": [{"cmd": "spec"}]},
    "command_int": {"commands": [5]},
    "labels_int": {"commands": [{"cmd": "spec", "labels": 5}]},
    "args_int": {"commands": [{"cmd": "op", "op": "meet", "args": 5}]},
    "degree_bound_string": {"scheme": {"kind": "affine_line", "field": {"p": 2}},
                            "commands": [{"cmd": "spec", "degree_bound": "3"}]},
    "table_filters_int": {"commands": [{"cmd": "table", "filters": 5}]},
    "misspelled_commands": {"comands": [{"cmd": "table"}]},
    "stray_command_key": {"commands": [{"cmd": "classify", "filter": "F", "fliter": "F"}]},
    "undefined_module": {"commands": [{"cmd": "member", "module": "M", "filter": "F"}]},
    "bad_spec_label": {"commands": [{"cmd": "spec", "labels": ["a b"]}]},
    "name_on_localize": {"commands": [
        {"cmd": "op", "op": "localize", "args": ["F"], "point": "pt:a", "name": "G"},
        {"cmd": "classify", "filter": "G"}]},
    "length_bound_zero": {"commands": [{"cmd": "oracle", "ring": "p:2,mod:x^2",
                                        "length_bound": 0}]},
    "chart_false": {"commands": [{"cmd": "op", "op": "restrict", "args": ["F"],
                                  "chart": False}]},
    "degree_bound_true": {"commands": [{"cmd": "spec", "degree_bound": True}]},
    "length_bound_true": {"commands": [{"cmd": "oracle", "ring": "p:2,mod:x^2+x",
                                        "length_bound": True}]},
    "chart_on_meet": {"commands": [{"cmd": "op", "op": "meet", "args": ["F", "F"],
                                    "chart": 0}]},
    "point_on_restrict": {"commands": [{"cmd": "op", "op": "restrict", "args": ["F"],
                                        "chart": 0, "point": "pt:a"}]},
    "chart_on_generate": {"commands": [{"cmd": "op", "op": "generate", "args": ["F"],
                                        "chart": 0}]},
    "unknown_op": {"commands": [{"cmd": "op", "op": "twist", "args": ["F"]}]},
    "unused_name_on_localize": {"commands": [{"cmd": "op", "op": "localize", "args": ["F"],
                                              "point": "pt:a", "name": "G"}]},
    "bad_scheme_oracle_only": {"scheme": {"kind": "nope"},
                               "commands": [{"cmd": "oracle", "ring": "p:2,mod:x^2"}]},
    "spec_degree_bound_zero": {"scheme": json.loads(F2LINE),
                               "commands": [{"cmd": "spec", "degree_bound": 0}]},
    "spec_degree_bound_negative": {"scheme": json.loads(F2LINE),
                                   "commands": [{"cmd": "spec", "degree_bound": -3}]},
    "spec_degree_bound_symbolic_line": {"commands": [{"cmd": "spec", "degree_bound": 2}]},
    "spec_degree_bound_quotient": {"scheme": json.loads(QUOTIENT),
                                   "commands": [{"cmd": "spec", "degree_bound": 1}]},
    "spec_labels_prime_line": {"scheme": json.loads(F2LINE),
                               "commands": [{"cmd": "spec", "labels": ["a"]}]},
    "spec_labels_union": {"scheme": json.loads(U2),
                          "commands": [{"cmd": "spec", "labels": ["a"]}]},
    "spec_labels_repeated": {"commands": [{"cmd": "spec", "labels": ["a", "b", "a"]}]},
    # True == 1 and 1.0 == 1 in Python; the schema is the integer 1
    "schema_true": {"schema": True},
    "schema_float": {"schema": 1.0},
    "exception_infinity": {"filters": {"F": {"kind": "exponents", "default": 0,
                                          "exceptions": {"pt:a": float("inf")}}}},
    "default_infinity": {"filters": {"F": {"kind": "exponents", "default": float("inf")}}},
}


@pytest.mark.parametrize("fields", MALFORMED_JOBS.values(), ids=MALFORMED_JOBS.keys())
def test_malformed_job_exit_2(runner, tmp_path, fields):
    job = {"schema": 1, "scheme": json.loads(A1), "filters": {"F": {"kind": "improper"}},
           "commands": [{"cmd": "classify", "filter": "F"}], **fields}
    path = tmp_path / "job.json"
    path.write_text(json.dumps(job))
    res = invoke(runner, ["run", str(path)])
    assert res.exit_code == 2
    assert res.stderr.startswith("Error:")


class TestRun:
    def test_shipped_jobs_run_clean(self, runner, tmp_path):
        for job in sorted(JOBS.glob("*.json")):
            res = invoke(runner, ["run", str(job)])
            assert res.exit_code == 0, f"{job.name}: {res.output}"
            doc = json.loads(res.output)
            assert doc["schema"] == 1 and doc["results"]
            golden = (GOLDEN / job.name).read_text(encoding="utf-8")
            assert res.stdout == golden, f"{job.name}: stdout differs from its golden copy"

    def test_jobs_byte_identical_across_hash_seeds(self):
        # every shipped job, in one fresh interpreter per PYTHONHASHSEED:
        # no output may follow the iteration order of a set or dict of str
        jobs = sorted(JOBS.glob("*.json"))
        probe = ("import sys\nfrom qfilt import cli\nfor path in sys.argv[1:]:\n"
                 "    try:\n        cli.main(['run', path])\n"
                 "    except SystemExit as e:\n        assert e.code == 0, (path, e.code)\n")
        outs = []
        for seed in ("0", "1"):
            env = dict(os.environ, PYTHONPATH=str(Path(qfilt.__file__).parents[1]),
                       PYTHONHASHSEED=seed)
            res = subprocess.run([sys.executable, "-c", probe, *map(str, jobs)], env=env,
                                 capture_output=True, timeout=120)
            assert res.returncode == 0, res.stderr.decode()
            outs.append(res.stdout)
        assert outs[0] == outs[1]
        assert outs[0] == b"".join((GOLDEN / job.name).read_bytes() for job in jobs)

    def test_byte_identical_reruns(self, runner):
        job = str(JOBS / "affine_line_table.json")
        outs = {invoke(runner, ["run", job]).output for _ in range(3)}
        assert len(outs) == 1

    def test_pipeline_names(self, runner, tmp_path):
        job = {
            "schema": 1,
            "scheme": json.loads(A1),
            "filters": {"F": {"kind": "exponents", "default": 0,
                              "exceptions": {"pt:a": 1}}},
            "commands": [
                {"cmd": "op", "op": "product", "args": ["F", "F"], "name": "FF"},
                {"cmd": "classify", "filter": "FF"},
            ],
        }
        path = tmp_path / "job.json"
        path.write_text(json.dumps(job))
        res = invoke(runner, ["run", str(path)])
        assert res.exit_code == 0
        doc = json.loads(res.output)
        assert doc["results"][1]["filter"]["exceptions"] == {"pt:a": 2}

    def test_empty_commands_silent_success(self, runner, tmp_path):
        path = tmp_path / "job.json"
        path.write_text(json.dumps({"schema": 1, "commands": []}))
        res = invoke(runner, ["run", str(path)])
        assert res.exit_code == 0 and res.output == ""

    def test_undefined_name_exit_2(self, runner, tmp_path):
        path = tmp_path / "job.json"
        path.write_text(json.dumps({
            "schema": 1, "scheme": json.loads(A1),
            "commands": [{"cmd": "table", "filters": ["GHOST"]}]}))
        res = invoke(runner, ["run", str(path)])
        assert res.exit_code == 2 and "GHOST" in res.output

    def test_wrong_schema_exit_2(self, runner, tmp_path):
        path = tmp_path / "job.json"
        path.write_text(json.dumps({"schema": 99, "commands": []}))
        res = invoke(runner, ["run", str(path)])
        assert res.exit_code == 2 and "schema" in res.output

    def test_out_writes_file(self, runner, tmp_path):
        out = tmp_path / "result.json"
        res = invoke(runner, ["run", str(JOBS / "product_law.json"),
                              "--out", str(out)])
        assert res.exit_code == 0 and res.output == ""
        doc = json.loads(out.read_text())
        assert doc["results"][0]["result"]["exceptions"] == {"pt:a": 5}

    def test_oracle_needs_no_scheme(self, runner, tmp_path):
        path = tmp_path / "job.json"
        path.write_text(json.dumps({"schema": 1, "commands": [
            {"cmd": "oracle", "ring": "p:2,mod:x^2"}]}))
        res = invoke(runner, ["run", str(path)])
        assert res.exit_code == 0
        single = invoke(runner, ["oracle", "verify", "--ring", "p:2,mod:x^2"])
        assert json.loads(res.output)["results"][0] == json.loads(single.output)


FA2 = '{"kind":"exponents","default":0,"exceptions":{"pt:a":2}}'
FAB = '{"kind":"exponents","default":0,"exceptions":{"pt:a":1,"pt:b":1}}'

# (subcommand arguments, scheme or None, the command a job file would hold)
ONE_COMMAND = {
    "classify": (["classify", "--scheme", A1, "--filter", FA2], A1,
                 {"cmd": "classify", "filter": json.loads(FA2)}),
    "member": (["member", "--scheme", A1, "--module", '{"divisors":{"pt:a":2}}',
                "--filter", FAB], A1,
               {"cmd": "member", "module": {"divisors": {"pt:a": 2}},
                "filter": json.loads(FAB)}),
    "spec": (["spec", "--scheme", F2LINE, "--degree-bound", "2"], F2LINE,
             {"cmd": "spec", "degree_bound": 2}),
    "oracle": (["oracle", "verify", "--ring", "p:2,mod:x^2+x", "--length-bound", "2"], None,
               {"cmd": "oracle", "ring": "p:2,mod:x^2+x", "length_bound": 2}),
    **{op: (["op", op, "--scheme", A1, "--filter", FA2, "--filter", FAB], A1,
            {"cmd": "op", "op": op, "args": [json.loads(FA2), json.loads(FAB)]})
       for op in ("meet", "join", "product")},
    "restrict": (["op", "restrict", "--scheme", P1, "--chart", "1", "--filter",
                  '{"kind":"exponents","default":0,"exceptions":{"pt:inf":1}}'], P1,
                 {"cmd": "op", "op": "restrict", "chart": 1, "args": [
                     {"kind": "exponents", "default": 0, "exceptions": {"pt:inf": 1}}]}),
    "localize": (["op", "localize", "--scheme", A1, "--point", "pt:a", "--filter", FA2], A1,
                 {"cmd": "op", "op": "localize", "point": "pt:a",
                  "args": [json.loads(FA2)]}),
    "generate": (["op", "generate", "--scheme", UZ, "--filter", '{"kind":"cofinite-family"}'],
                 UZ, {"cmd": "op", "op": "generate", "args": [{"kind": "cofinite-family"}]}),
}


@pytest.mark.parametrize("fmt", ["json", "table"])
@pytest.mark.parametrize("args,scheme,command", ONE_COMMAND.values(), ids=ONE_COMMAND.keys())
def test_subcommand_is_one_command_job(runner, tmp_path, args, scheme, command, fmt):
    job = {"schema": 1, "commands": [command]}
    if scheme is not None:
        job["scheme"] = json.loads(scheme)
    path = tmp_path / "job.json"
    path.write_text(json.dumps(job))
    single = invoke(runner, args + ["--format", fmt])
    whole = invoke(runner, ["run", str(path), "--format", fmt])
    assert single.exit_code == whole.exit_code == 0
    if fmt == "json":
        result = json.loads(whole.output)["results"][0]
        assert single.output == json.dumps(result, indent=2, sort_keys=True) + "\n"
    else:
        assert single.output == whole.output


@pytest.mark.parametrize("scheme,flt", [(A1, FA2), (A1, FAB), (A1, '{"kind":"improper"}'),
                                        (UZ, '{"kind":"exponents","kill_all_but":[1]}')],
                         ids=["exceptions", "two_points", "improper", "kill_all_but"])
def test_explain_is_classify_plus_chain(runner, tmp_path, scheme, flt):
    """explain prints its classify command's document plus the chain, whose
    first line is the filter cell of the classify table."""
    path = tmp_path / "job.json"
    path.write_text(json.dumps({"schema": 1, "scheme": json.loads(scheme),
                                "commands": [{"cmd": "classify", "filter": json.loads(flt)}]}))
    args = ["--scheme", scheme, "--filter", flt]
    doc = json.loads(invoke(runner, ["explain", *args]).output)
    chain = doc.pop("chain")
    assert doc == json.loads(invoke(runner, ["run", str(path)]).output)["results"][0]
    row = re.split(r"\s{2,}", invoke(runner, ["classify", *args, "--format", "table"])
                   .output.splitlines()[2])
    assert chain[0] == "filter: " + row[0]
    # the subscheme line names V(I) as the attachments cell does
    subscheme, = (line for line in chain if line.startswith("  subscheme: "))
    cell = subscheme.removeprefix("  subscheme: ").split(" (modules")[0]
    assert cell.startswith("V(") and cell in row[-1]
    assert invoke(runner, ["explain", *args, "--format", "table"]).output \
        == "\n".join(chain) + "\n"


# ---------------------------------------------------------------------------
# JSON rendering: byte for byte what json.dumps(indent=2, sort_keys=True) writes


class _Int(int):
    pass


class _Dict(dict):
    pass


class _List(list):
    pass


JSON_TEXT = st.text(max_size=5) | st.sampled_from(['"', "\\", "\x00", "\x1f", "\n", "\t",
                                                  "\x7f", "é", "\u2028", "\U0001f600", ""])
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.integers(-10**40, 10**40)
    | st.integers(-5, 5).map(_Int) | st.floats() | JSON_TEXT,
    lambda kids: st.lists(kids, max_size=3) | st.lists(kids, max_size=3).map(tuple)
    | st.dictionaries(JSON_TEXT, kids, max_size=3)
    | st.dictionaries(JSON_TEXT, kids, max_size=3).map(_Dict)
    | st.lists(kids, max_size=3).map(_List),
    max_leaves=12)


@settings(max_examples=200, deadline=None)
@given(value=JSON_VALUES)
def test_json_text_is_json_dumps(value):
    assert _json_text(value) == json.dumps(value, indent=2, sort_keys=True)


def _is_canonical(text: str) -> bool:
    return text == json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize("args", [
    *(args for args, _, _ in ONE_COMMAND.values()),
    ["explain", "--scheme", A1, "--filter", FA2],
    *(["run", str(job)] for job in sorted(JOBS.glob("*.json"))),
], ids=[*ONE_COMMAND, "explain", *(job.stem for job in sorted(JOBS.glob("*.json")))])
def test_json_output_round_trips(runner, args):
    res = invoke(runner, args)
    assert res.exit_code == 0 and _is_canonical(res.stdout)


# ---------------------------------------------------------------------------
# a job parses and classifies each named filter once per binding


def _run_job_file(runner, tmp_path, job):
    path = tmp_path / "job.json"
    path.write_text(json.dumps({"schema": 1, "scheme": json.loads(A1), **job}))
    return invoke(runner, ["run", str(path)])


def test_rebound_name_is_parsed_again(runner, tmp_path):
    res = _run_job_file(runner, tmp_path, {
        "filters": {"F": json.loads('{"kind":"exponents","default":0,"exceptions":{"pt:a":1}}')},
        "commands": [{"cmd": "classify", "filter": "F"},
                     {"cmd": "op", "op": "product", "args": ["F", "F"], "name": "F"},
                     {"cmd": "classify", "filter": "F"},
                     {"cmd": "table", "filters": ["F"]},
                     {"cmd": "op", "op": "meet", "args": ["F", "F"]}]})
    assert res.exit_code == 0
    first, _, classified, table, meet = json.loads(res.output)["results"]
    assert first["filter"]["exceptions"] == {"pt:a": 1}
    assert classified["filter"]["exceptions"] == {"pt:a": 2}
    assert table["rows"][0]["filter"]["exceptions"] == {"pt:a": 2}
    assert meet["operands"][0]["exceptions"] == {"pt:a": 2}


def test_bad_named_literal_fails_at_first_use(runner, tmp_path):
    res = _run_job_file(runner, tmp_path, {
        "filters": {"G": {"kind": "improper"},
                    "F": {"kind": "exponents", "exceptions": [1, 2]}},
        "commands": [{"cmd": "classify", "filter": "G"},
                     {"cmd": "op", "op": "meet", "args": ["G", "F"]},
                     {"cmd": "table", "filters": ["F"]}]})
    assert res.exit_code == 2 and res.stdout == ""
    assert res.stderr == ("Error: command 1 (op meet): 'exceptions' must be an object "
                          "of point: exponent, not [1, 2]\n")


def test_named_filters_parsed_and_classified_once(runner, tmp_path, monkeypatch):
    lits = {f"f{i}": {"kind": "exponents", "default": 0, "exceptions": {"pt:a": i}}
            for i in range(6)}
    inline = {"kind": "exponents", "default": 0, "exceptions": {"pt:b": 1}}
    names = {json.dumps(lit, sort_keys=True): name
             for name, lit in [*lits.items(), ("inline", inline)]}
    parsed, classified, made = [], [], {}

    def counted_parse(scheme, lit):
        flt = parse(scheme, lit)
        parsed.append(names[json.dumps(lit, sort_keys=True)])
        made[id(flt)] = (parsed[-1], flt)
        return flt

    def counted_classify(flt):
        classified.append(made[id(flt)][0])
        return classify(flt)

    parse, classify = cli.filter_from_literal, cli.classify
    monkeypatch.setattr(cli, "filter_from_literal", counted_parse)
    monkeypatch.setattr(cli, "classify", counted_classify)
    res = _run_job_file(runner, tmp_path, {"filters": lits, "commands": [
        {"cmd": "table", "filters": sorted(lits)},
        {"cmd": "op", "op": "meet", "args": ["f1", "f2"]},
        {"cmd": "op", "op": "join", "args": ["f3", "f4"]},
        {"cmd": "op", "op": "product", "args": ["f5", "f0"]},
        {"cmd": "op", "op": "localize", "args": ["f4"], "point": "pt:a"},
        {"cmd": "classify", "filter": "f5"},
        {"cmd": "classify", "filter": inline},
        {"cmd": "classify", "filter": inline}]})
    assert res.exit_code == 0
    # an inline literal is parsed and classified on each use
    assert sorted(parsed) == sorted(classified) == [*sorted(lits), "inline", "inline"]


# ---------------------------------------------------------------------------
# fuzzing: random JSON shapes built from the grammar's own keys and words

CMD_KEYS = set().union(_COMMAND_TYPES, *(c.keys for c in COMMANDS.values()))
KEYS = sorted(set().union(*_SCHEME_KEYS.values(), *_FILTER_KEYS.values(), _IDEAL_KEYS,
                          _MODULE_KEYS, _FREE_KEYS, _JOB_KEYS, CMD_KEYS))
# polynomials come from this list alone: text like "x^20" would reach the
# exponential irreducibility paths of the poly layer
WORDS = sorted({*_SCHEME_KEYS, *_FILTER_KEYS, *COMMANDS, *_OPS, "inf", "Z", "symbolic",
                "F", "G", "M", "pt:a", "pt:b", "pt:inf", "pt:x", "pt:x+1", "pt:x^2+x+1",
                "pt:x-a", "comp:0", "comp:1", "gen:0", "x", "x+1", "x^2", "x^3+x",
                "x^2+x+1", "x-a", "(x-a)^2", "p:2,mod:x^2", "p:3,mod:x", "p:2,mod:x^2+x"})
LEAVES = (st.none() | st.booleans() | st.integers(-1, 4)
          | st.sampled_from([1.0, 2.5, -0.0, 1e300, float("inf"), float("-inf"), float("nan")])
          | st.sampled_from(WORDS) | st.text(alphabet="abx:-_, ", max_size=4))
VALUES = st.recursive(LEAVES, lambda kids: st.lists(kids, max_size=2) | st.dictionaries(
    st.sampled_from(KEYS + WORDS), kids, max_size=2), max_leaves=3)


def _shaped(head, words, keys):
    """An object whose `head` key holds one of `words` or a random value,
    with a few of `keys`, each holding a random value."""
    return st.builds(lambda h, rest: {**rest, head: h}, st.sampled_from(sorted(words)) | VALUES,
                     st.dictionaries(st.sampled_from(sorted(keys)), VALUES, max_size=3))


FILTERS = (st.sampled_from([FA2, FAB, '{"kind":"improper"}', '{"kind":"cofinite-family"}',
                            '{"kind":"principal","ideal":"x-a"}']).map(json.loads)
           | _shaped("kind", _FILTER_KEYS, set().union(*_FILTER_KEYS.values())) | VALUES)
JOB_LITS = st.fixed_dictionaries({
    "schema": st.just(1) | VALUES,
    "scheme": st.sampled_from([A1, UZ, P1, U2, F2LINE, QUOTIENT]).map(json.loads)
    | _shaped("kind", _SCHEME_KEYS, set().union(*_SCHEME_KEYS.values())) | VALUES,
    "filters": st.fixed_dictionaries({"F": FILTERS, "G": FILTERS}),
    "modules": st.fixed_dictionaries({"M": _shaped("divisors", WORDS, _MODULE_KEYS) | VALUES}),
    "commands": st.lists(_shaped("cmd", COMMANDS, CMD_KEYS), max_size=2)})


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(job=JOB_LITS)
def test_fuzzed_literals_exit_cleanly(runner, tmp_path, job):
    """Every input either answers or exits 2 or 3 with a message; none ends
    in an exception.  The job's scheme, filters and module also go to the
    subcommands."""
    scheme, f, g, module = (json.dumps(x) for x in (job["scheme"], job["filters"]["F"],
                                                    job["filters"]["G"], job["modules"]["M"]))
    path = tmp_path / "job.json"
    path.write_text(json.dumps(job))
    for args in (["classify", "--scheme", scheme, "--filter", f],
                 ["explain", "--scheme", scheme, "--filter", f],
                 ["member", "--scheme", scheme, "--module", module, "--filter", f],
                 ["op", "meet", "--scheme", scheme, "--filter", f, "--filter", g],
                 ["run", str(path)]):
        res = runner.invoke(main, args)
        assert res.exit_code in (0, 2, 3), (args, res.output)
        assert res.exception is None or isinstance(res.exception, SystemExit), \
            (args, repr(res.exception))
