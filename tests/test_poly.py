"""Polynomial arithmetic over prime fields and symbolic factored forms."""

import itertools

import pytest
from hypothesis import given, strategies as st

from qfilt import poly
from qfilt.errors import ParseError, QfiltError, RingMismatchError
from qfilt.poly import (
    PrimePoly,
    factor,
    factored_from_str,
    irreducibles,
    is_irreducible,
    poly_from_literal,
    poly_from_str,
    poly_gcd,
    poly_to_str,
)


def P(text, p=2):
    return poly_from_str(text, p)


class TestArithmetic:
    def test_add_sub_cancel(self):
        f = P("x^3+x+1")
        g = P("x^2+1")
        assert (f + g) - g == f

    def test_mul_degree(self):
        assert (P("x^2+1") * P("x+1")).degree == 3

    def test_divmod(self):
        f = P("x^4+x^2+1")
        g = P("x^2+x")
        q, r = divmod(f, g)
        assert q * g + r == f
        assert r.degree < g.degree

    def test_mod_char(self):
        f = poly_from_str("2x^2+3x+4", 3)
        assert poly_to_str(f) == "2x^2+1"

    def test_monic(self):
        f = poly_from_str("2x^2+x", 5)
        assert f.monic().leading == 1

    def test_zero_one(self):
        assert P("0").is_zero
        assert P("1").degree == 0

    @pytest.mark.parametrize("call,error,message", [
        (lambda: P("0").leading, QfiltError, "^zero polynomial has no leading coefficient$"),
        (lambda: P("x") * poly_from_str("x", 3), RingMismatchError,
         r"^ring mismatch: F2\[x\] vs F3\[x\]$"),
        (lambda: P("x") % P("0"), ZeroDivisionError, "^polynomial division by zero$"),
        (lambda: poly_from_literal("x", 2), QfiltError, "^unknown field 2$"),
    ], ids=["leading_of_zero", "fields_differ", "division_by_zero", "unknown_field"])
    def test_refusals(self, call, error, message):
        with pytest.raises(error, match=message):
            call()


class TestParse:
    def test_round_trip(self):
        for text in ("x^3+x+1", "x^2+x", "x", "1", "0", "x^4+x^3+x^2+x+1"):
            assert poly_to_str(P(text)) == text

    def test_whitespace_and_signs(self):
        assert poly_from_str("x^2 - x + 1", 3) == poly_from_str("x^2+2x+1", 3)

    def test_rejects_garbage(self):
        for bad in ("x^", "y+1", "x**2", "", "x^-1"):
            with pytest.raises(ParseError):
                P(bad)


class TestFactor:
    def test_factor_product(self):
        f = P("x^3+x")
        fac = dict(factor(f))
        assert fac == {P("x"): 1, P("x+1"): 2}

    def test_factor_irreducible(self):
        assert dict(factor(P("x^3+x+1"))) == {P("x^3+x+1"): 1}

    def test_gcd(self):
        assert poly_gcd(P("x^2+x"), P("x^2+1")) == P("x+1")

    def test_is_irreducible(self):
        assert is_irreducible(P("x^2+x+1"))
        assert not is_irreducible(P("x^2+1"))

    def test_is_irreducible_sieves_up_to_half_the_degree(self, monkeypatch):
        asked = []
        real = poly.irreducibles
        monkeypatch.setattr(poly, "irreducibles", lambda p, d: asked.append(d) or real(p, d))
        assert is_irreducible(P("x^17+x^3+1"))
        assert max(asked) == 8


class TestIrreducibleCounts:
    # monic irreducibles over F2 by degree: 2, 1, 2, 3
    @pytest.mark.parametrize("degree,count", [(1, 2), (2, 1), (3, 2), (4, 3)])
    def test_f2_counts(self, degree, count):
        assert len(irreducibles(2, degree)) == count

    def test_f3_linear(self):
        assert len(irreducibles(3, 1)) == 3


class TestFactored:
    def test_round_trip(self):
        for text, factors in (("(x-a)^2*(x-b)", (("a", 2), ("b", 1))), ("(x-a)", (("a", 1),)),
                              ("1", ())):
            assert factored_from_str(text).factors == factors

    def test_normal_order(self):
        f = factored_from_str("(x-b)*(x-a)^2")
        assert f.factors == (("a", 2), ("b", 1))

    def test_rejects_reserved_label(self):
        with pytest.raises(QfiltError):
            factored_from_str("(x-inf)")

    def test_zero_multiplicity_drops_factor(self):
        assert factored_from_str("(x-a)^0").factors == ()

    def test_rejects_garbage(self):
        for bad in ("x-a", "(x+a)", "(x-a)*"):
            with pytest.raises((ParseError, QfiltError)):
                factored_from_str(bad)


@st.composite
def polys(draw, p=2, max_degree=5):
    coeffs = draw(st.lists(st.integers(0, p - 1), min_size=1,
                           max_size=max_degree + 1))
    return PrimePoly.make(p, coeffs)


@given(polys(), polys(), polys())
def test_mul_distributes(f, g, h):
    assert f * (g + h) == f * g + f * h


@given(polys(), polys())
def test_gcd_divides(f, g):
    if f.is_zero and g.is_zero:
        return
    d = poly_gcd(f, g)
    assert (f % d).is_zero and (g % d).is_zero


def _monic(p: int, degree: int) -> list[PrimePoly]:
    """Every monic polynomial of the degree over F_p."""
    return [PrimePoly.make(p, (*tail, 1)) for tail in itertools.product(range(p), repeat=degree)]


@pytest.mark.parametrize("p,max_degree", [(2, 8), (3, 5), (5, 4), (7, 3)])
def test_irreducibility_and_factors_match_the_products(p, max_degree):
    # the reference: a monic polynomial of degree n is reducible iff it is
    # a product of two monic polynomials of degrees d and n - d, 1 <= d <= n/2
    one = PrimePoly(p, (1,))
    for n in range(1, max_degree + 1):
        products = {g * h for d in range(1, n // 2 + 1)
                    for g in _monic(p, d) for h in _monic(p, n - d)}
        candidates = _monic(p, n)
        assert set(irreducibles(p, n)) == set(candidates) - products
        for f in candidates:
            assert is_irreducible(f) == (f in irreducibles(p, n))
            product = one
            for q, m in factor(f):
                assert q in irreducibles(p, q.degree)
                for _ in range(m):
                    product = product * q
            assert product == f


@given(st.sampled_from([2, 3, 5, 7]), st.data())
def test_divmod_recovers_the_dividend(p, data):
    a = data.draw(polys(p, 10))
    b = data.draw(polys(p, 5).filter(lambda f: not f.is_zero))  # not always monic
    q, r = divmod(a, b)
    assert q * b + r == a
    assert r.degree < b.degree
