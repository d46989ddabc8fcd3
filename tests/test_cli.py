"""The qfilt CLI: commands, job files, exit codes, determinism."""

import json
from pathlib import Path

import pytest
from click.testing import CliRunner

from qfilt.cli import main
from qfilt.literals import point_to_literal, scheme_from_literal
from qfilt.oracle import OracleReport
from qfilt.spectrum import spec

ROOT = Path(__file__).resolve().parent.parent
JOBS = ROOT / "jobs"
GOLDEN = ROOT / "qbench" / "golden"

A1 = '{"kind":"affine_line","field":"symbolic"}'
UZ = '{"kind":"disjoint_union","components":"Z"}'
P1 = '{"kind":"proj_line","field":"symbolic"}'
U2 = '{"kind":"disjoint_union","components":[{"p":2},{"p":3}]}'


@pytest.fixture()
def runner():
    return CliRunner()


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
}


@pytest.mark.parametrize("args", MALFORMED.values(), ids=MALFORMED.keys())
def test_malformed_literal_exit_2(runner, args):
    res = invoke(runner, args)
    assert res.exit_code == 2
    assert res.stderr.startswith("Error:")


# one input just past each size cap in qfilt.config, with that cap's message
CAPS = {
    "MAX_PRIME": (["classify", "--scheme", '{"kind":"affine_line","field":{"p":263}}',
                   "--filter", '{"kind":"improper"}'], "field size 263 exceeds limit 257"),
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

    # scheme, degree bound, labels, closed points, specializations; the
    # quotient's points are closed components and the union's generic ones,
    # so neither has a specialization
    SPEC_CASES = [
        ('{"kind":"affine_line","field":{"p":2}}', 4, (), 8, 8),
        ('{"kind":"proj_line","field":{"p":2}}', 3, (), 6, 6),
        (P1, None, ("a", "b"), 3, 3),
        ('{"kind":"affine_quotient","p":2,"modulus":"x^5+x^3"}', None, (), 2, 0),
        (U2, None, (), 0, 0),
    ]

    def test_spec_counts(self, runner):
        # the list is the pair scan of SpecPoset.leq, in its order
        for scheme, degree, labels, closed, pairs in self.SPEC_CASES:
            args = ["spec", "--scheme", scheme, "--labels", ",".join(labels)]
            if degree is not None:
                args += ["--degree-bound", str(degree)]
            doc = json.loads(invoke(runner, args).output)
            assert len(doc["closed"]) == closed
            assert len(doc["specializations"]) == pairs
            poset = spec(scheme_from_literal(json.loads(scheme)), degree, labels)
            pts = poset.points()
            assert doc["specializations"] == [[point_to_literal(a), point_to_literal(b)]
                                              for a in pts for b in pts
                                              if a != b and poset.leq(a, b)]

    def test_spec_labels(self, runner):
        res = invoke(runner, ["spec", "--scheme", A1, "--labels", "a,b"])
        doc = json.loads(res.output)
        assert doc["closed"] == ["pt:a", "pt:b"]
        assert doc["symbolic_closed"] is True


class TestExplain:
    def test_chain_lines(self, runner):
        res = invoke(runner, ["explain", "--scheme", A1, "--filter",
                              '{"kind":"exponents","default":0}',
                              "--format", "table"])
        assert res.exit_code == 0
        assert "prelocalizing: yes" in res.output
        assert "localizing: yes" in res.output
        assert "bilocalizing: yes" in res.output


class TestOracleCommand:
    def test_verify_passes(self, runner):
        res = invoke(runner, ["oracle", "verify", "--ring", "p:2,mod:x^2"])
        assert res.exit_code == 0
        doc = json.loads(res.output)
        assert doc["passed"] and len(doc["checks"]) == 11

    def test_bad_ring_descriptor(self, runner):
        res = invoke(runner, ["oracle", "verify", "--ring", "mod:x^2"])
        assert res.exit_code == 2

    @pytest.mark.parametrize("ring,bound,least", [("p:2,mod:x^2", "0", 2),
                                                  ("p:2,mod:x^5", "4", 5)])
    def test_length_bound_below_exponent_exit_2(self, runner, ring, bound, least):
        res = invoke(runner, ["oracle", "verify", "--ring", ring, "--length-bound", bound])
        assert res.exit_code == 2
        assert res.stderr.startswith("Error:") and f"at least {least}" in res.stderr

    def test_bound_from_factorization_exit_2(self, runner):
        # F2[x]/(x^12) has 4096 elements; what its factorization rules out
        # is reported before any table of that size is laid out
        res = invoke(runner, ["oracle", "verify", "--ring", "p:2,mod:x^12"])
        assert res.exit_code == 2
        assert res.stderr.startswith("Error:")

    def test_mismatch_exits_3(self, runner, monkeypatch):
        from qfilt import cli as cli_mod

        def fake_verify(ring, length_bound):
            report = OracleReport(ring)
            report.record("forced", False, "synthetic failure")
            return report

        monkeypatch.setattr(cli_mod, "verify_ring", fake_verify)
        res = invoke(runner, ["oracle", "verify", "--ring", "p:2,mod:x^2"])
        assert res.exit_code == 3
        assert json.loads(res.output)["passed"] is False


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
    "unused_name_on_localize": {"commands": [{"cmd": "op", "op": "localize", "args": ["F"],
                                              "point": "pt:a", "name": "G"}]},
    "bad_scheme_oracle_only": {"scheme": {"kind": "nope"},
                               "commands": [{"cmd": "oracle", "ring": "p:2,mod:x^2"}]},
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
F2LINE = '{"kind":"affine_line","field":{"p":2}}'

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
