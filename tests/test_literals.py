"""The JSON literal grammar: parse/format round trips and rejections."""

from pathlib import Path

import pytest

from qfilt import literals
from qfilt.cli import main
from qfilt.config import INF
from qfilt.errors import ParseError, QfiltError
from qfilt.filters import improper_filter, presented, trivial_filter
from qfilt.literals import (
    base_from_literal,
    filter_from_literal,
    filter_to_literal,
    ideal_from_literal,
    ideal_to_literal,
    module_from_literal,
    module_to_literal,
    point_from_literal,
    point_to_literal_on,
    scheme_from_literal,
    scheme_to_literal,
    specclosed_to_literal,
)
from qfilt.poly import poly_from_str
from qfilt.schemes import sheaf
from qfilt.spectrum import (
    ComponentSet,
    all_set,
    closed_point,
    cofinite_closed,
    component_set,
    empty_set,
    finite_closed,
    generic_point,
    inf_point,
    spec,
)

A1 = scheme_from_literal({"kind": "affine_line", "field": "symbolic"})
A1F2 = scheme_from_literal({"kind": "affine_line", "field": {"p": 2}})
P1 = scheme_from_literal({"kind": "proj_line", "field": "symbolic"})
Q = scheme_from_literal({"kind": "affine_quotient", "p": 2, "modulus": "x^3+x"})
UZ = scheme_from_literal({"kind": "disjoint_union", "components": "Z"})
U2 = scheme_from_literal({"kind": "disjoint_union",
                          "components": [{"p": 2}, {"p": 3}]})


class TestSchemes:
    def test_round_trips(self):
        for s in (A1, A1F2, P1, Q, UZ, U2):
            assert scheme_from_literal(scheme_to_literal(s)) == s

    def test_rejections(self):
        for bad in ({"kind": "nope"}, {}, "affine_line",
                    {"kind": "affine_quotient", "p": 2}):
            with pytest.raises(ParseError):
                scheme_from_literal(bad)

    def test_chart_one_has_no_literal(self):
        with pytest.raises(QfiltError, match="^unknown scheme P1-chart1"):
            scheme_to_literal(P1.chart(1).scheme)


class TestPoints:
    def test_forms(self):
        assert point_from_literal(A1, "pt:a") == closed_point("a")
        assert point_from_literal(A1, "gen") == generic_point(0)
        assert point_from_literal(P1, "pt:inf") == inf_point()
        assert point_from_literal(UZ, "comp:3") == generic_point(3)
        pt = point_from_literal(A1F2, "pt:x^2+x+1")
        assert str(pt.name) == "x^2+x+1"

    def test_formatting(self):
        assert closed_point("a").text == "pt:a"
        assert inf_point().text == "pt:inf"
        assert generic_point(3).text == "comp:3"
        assert point_to_literal_on(A1, generic_point(0)) == "gen"
        assert point_to_literal_on(UZ, generic_point(0)) == "comp:0"

    @pytest.mark.parametrize("scheme,degree,labels", [
        (A1F2, 3, ()), (A1, None, ("a", "b")), (P1, None, ("a", "b")), (Q, None, ()),
        (U2, None, ())], ids=["F2_line", "symbolic_line", "P1", "quotient", "union"])
    def test_text_names_the_point(self, scheme, degree, labels):
        poset = spec(scheme, degree, labels)
        for pt in poset.generic + poset.closed:
            assert point_from_literal(scheme, pt.text) == pt

    def test_text_names_the_generic_points_of_the_symbolic_union(self):
        for c in (0, 1, 2, 63, 64, 1000):
            assert point_from_literal(UZ, generic_point(c).text) == generic_point(c)

    def test_rejections(self):
        for scheme, text in ((A1, "pt:inf"), (A1, "comp:1"), (UZ, "pt:a"),
                             (A1F2, "pt:x^2"), (A1, "pt:gen"), (Q, "pt:x+x"),
                             (UZ, "comp:x")):
            with pytest.raises(ParseError):
                point_from_literal(scheme, text)


class TestPointMemo:
    """Each text that parses is kept in the scheme's "points" memo; one
    that does not is never kept."""

    def test_a_bad_text_raises_again_and_is_not_kept(self):
        a1 = scheme_from_literal({"kind": "affine_line", "field": "symbolic"})
        for text in ("pt:inf", ["pt:a"]):
            messages = []
            for _ in range(2):
                with pytest.raises(ParseError) as e:
                    point_from_literal(a1, text)
                messages.append(str(e.value))
            assert messages[0] == messages[1]
        assert a1.memo["points"] == {}

    def test_two_spellings_of_one_point_stay_a_duplicate(self):
        # test_cli's exceptions_two_spellings_symbolic case is the same
        # literal through the CLI, on a fresh scheme; here both spellings
        # are already in the memo
        point_from_literal(A1, "pt:a"), point_from_literal(A1, "a")
        lit = {"kind": "exponents", "default": 0, "exceptions": {"pt:a": 1, "a": 2}}
        with pytest.raises(QfiltError, match="^duplicate exponent for pt:a$"):
            filter_from_literal(A1, lit)

    def test_each_shipped_job_parses_each_point_text_once(self, runner, monkeypatch):
        reads, parses = [], []
        read, parse = literals.point_from_literal, literals._parse_point
        monkeypatch.setattr(literals, "point_from_literal",
                            lambda scheme, text: reads.append(text) or read(scheme, text))
        monkeypatch.setattr(literals, "_parse_point",
                            lambda scheme, text: parses.append(text) or parse(scheme, text))
        repeats = 0  # reads the memo answered
        for job in sorted((Path(__file__).resolve().parent.parent / "jobs").glob("*.json")):
            reads.clear(), parses.clear()
            assert runner.invoke(main, ["run", str(job)]).exit_code == 0
            assert len(parses) == len(set(parses)), job.name
            repeats += len(reads) - len(parses)
        assert repeats > 0


class TestIdeals:
    def test_poly_string_on_affine(self):
        assert ideal_from_literal(A1F2, "x^3+x^2") \
            == sheaf(A1F2, {closed_point(poly_from_str("x", 2)): 2,
                            closed_point(poly_from_str("x+1", 2)): 1})

    def test_factored_string_on_symbolic(self):
        assert ideal_from_literal(A1, "(x-a)^2") \
            == sheaf(A1, {closed_point("a"): 2})

    def test_structured_round_trip(self):
        s = sheaf(UZ, {}, ComponentSet.cofinite([0]))
        assert ideal_from_literal(UZ, ideal_to_literal(s)) == s

    def test_string_rejected_off_affine(self):
        with pytest.raises(ParseError):
            ideal_from_literal(UZ, "x^2")


class TestFilters:
    def test_round_trips(self):
        cases = [
            trivial_filter(A1),
            improper_filter(A1),
            presented(A1, INF, {closed_point("a"): 0, closed_point("b"): 2}),
            presented(P1, 0, {inf_point(): 1}),
            presented(UZ, 0, killed=ComponentSet.of([0, 2])),
            presented(UZ, 0, killed=ComponentSet.cofinite([1])),
        ]
        for flt in cases:
            assert filter_from_literal(flt.scheme, filter_to_literal(flt)) == flt

    def test_principal_kind(self):
        flt = filter_from_literal(A1, {"kind": "principal", "ideal": "(x-a)^2"})
        assert flt == presented(A1, 0, {closed_point("a"): 2})

    def test_generated_kind(self):
        flt = filter_from_literal(A1, {"kind": "generated",
                                       "ideals": ["(x-a)^2", "(x-a)*(x-b)"]})
        assert flt == presented(A1, 0, {closed_point("a"): 2, closed_point("b"): 1})

    def test_cofinite_family_is_base_only(self):
        with pytest.raises(QfiltError):
            filter_from_literal(UZ, {"kind": "cofinite-family"})
        base = base_from_literal(UZ, {"kind": "cofinite-family"})
        assert base.cofinite

    def test_base_from_plain_filter(self):
        base = base_from_literal(A1, {"kind": "exponents", "default": 0,
                                      "exceptions": {"pt:a": 2}})
        assert len(base.generators) == 1

    def test_exponent_forms(self):
        flt = filter_from_literal(A1, {"kind": "exponents", "default": "inf",
                                       "exceptions": {"pt:a": "2"}})
        assert flt.value(closed_point("a")) == 2
        assert flt.value(closed_point("b")) == INF

    def test_rejections(self):
        for bad in ({"kind": "nope"}, {}, 7,
                    {"kind": "exponents", "default": -1},
                    {"kind": "exponents", "default": 0,
                     "exceptions": {"pt:a": "x"}},
                    {"kind": "exponents", "default": 0, "kill": ["pt:a"]},
                    {"kind": "exponents", "default": 0,
                     "kill": [0], "kill_all_but": [1]}):
            with pytest.raises((ParseError, QfiltError)):
                filter_from_literal(UZ, bad)


class TestModules:
    def test_round_trips(self):
        cases = [
            {"divisors": [["pt:a", 2], ["pt:b", 1]], "free": False},
            {"divisors": [], "free": [0]},
        ]
        for lit in cases:
            m = module_from_literal(A1, lit)
            assert module_to_literal(m) == lit
        cof = module_from_literal(UZ, {"divisors": [], "free": {"all_but": [0]}})
        assert module_to_literal(cof) == {"divisors": [], "free": {"all_but": [0]}}

    def test_divisor_dict_form(self):
        m = module_from_literal(A1, {"divisors": {"pt:a": 2}})
        assert m.divisors == ((closed_point("a"), 2),)

    def test_free_true(self):
        m = module_from_literal(A1, {"divisors": [], "free": True})
        assert m.free.contains(0)


class TestSpecClosed:
    def test_all_kinds(self):
        assert specclosed_to_literal(empty_set(A1)) == {"kind": "empty"}
        assert specclosed_to_literal(all_set(A1)) == {"kind": "all"}
        assert specclosed_to_literal(finite_closed(A1, [closed_point("a")])) \
            == {"kind": "finite", "points": ["pt:a"]}
        assert specclosed_to_literal(cofinite_closed(A1, [closed_point("a")])) \
            == {"kind": "cofinite_closed", "excluded": ["pt:a"]}
        assert specclosed_to_literal(component_set(UZ, ComponentSet.of([1]))) \
            == {"kind": "components", "components": [1]}
        assert specclosed_to_literal(
            component_set(UZ, ComponentSet.cofinite([1]))) \
            == {"kind": "components", "components": {"all_but": [1]}}
