"""Quotient rings of k[x]."""

import pytest

from qfilt.errors import QfiltError, RingMismatchError
from qfilt.fields import PrimeField, SymbolicAlgClosed
from qfilt.ideals import QuotientRing
from qfilt.poly import factored_from_str, poly_from_str

F2 = PrimeField(2)


class TestQuotientRing:
    def test_make_and_factors(self):
        ring = QuotientRing.make(F2, poly_from_str("x^3+x", 2))
        factors = ring.factors
        assert [(str(q), m) for q, m in
                ((poly_from_str("x", 2), 1), (poly_from_str("x+1", 2), 2))] \
            == [(str(q), m) for q, m in factors]

    def test_rejects_constant_modulus(self):
        with pytest.raises(QfiltError):
            QuotientRing.make(F2, poly_from_str("1", 2))
        # the constructor behind make() factors the modulus at once
        with pytest.raises(QfiltError, match="^cannot factor the zero polynomial$"):
            QuotientRing(F2, poly_from_str("0", 2))

    def test_rejects_symbolic_field(self):
        with pytest.raises(QfiltError, match="prime field"):
            QuotientRing.make(SymbolicAlgClosed(), factored_from_str("(x-a)^2*(x-b)"))

    @pytest.mark.parametrize("modulus", [poly_from_str("x^2+1", 3),
                                         factored_from_str("(x-a)^2")], ids=str)
    def test_rejects_modulus_over_another_field(self, modulus):
        with pytest.raises(RingMismatchError, match="generator is over a different field"):
            QuotientRing.make(F2, modulus)
