"""Desk-scale quotients of one-variable polynomial rings.

QuotientRing models k[x]/(f) for a prime field k and monic f of small
degree.  Its ideals are the monic divisors of f (the divisor 1 is the unit
ideal and f itself is the zero ideal): the ideal generated by g is
generated by gcd(g, f).  Ideals themselves are ideal sheaves on the ring's
spectrum (schemes.sheaf_from_poly reads one from a polynomial); the ring
keeps only what its spectrum is built from, the prime factorization of f,
derived once at construction.
"""

from .errors import QfiltError, RingMismatchError
from .fields import BaseField, PrimeField
from .poly import Poly, PrimePoly, factor, poly_to_str
from .values import Value


class QuotientRing(Value):
    """k[x]/(modulus) for a prime field k and a monic modulus of degree >= 1.

    Equality and hashing use the field and the modulus; `factors`, the
    monic prime factors of the modulus with multiplicity, sorted, is derived
    from them."""

    __slots__ = ("field", "modulus", "factors")
    _fields = ("field", "modulus")

    def __init__(self, field: BaseField, modulus: PrimePoly):
        self._store(field, modulus, factor(modulus))

    @staticmethod
    def make(field: BaseField, modulus: Poly) -> "QuotientRing":
        if not isinstance(field, PrimeField):
            raise QfiltError(f"a quotient ring needs a prime field, not {field}")
        if not isinstance(modulus, PrimePoly) or modulus.p != field.p:
            raise RingMismatchError("ring mismatch: generator is over a different field")
        if modulus.degree < 1:
            raise QfiltError("quotient modulus must be nonconstant")
        return QuotientRing(field, modulus.monic())

    @property
    def degree(self) -> int:
        return self.modulus.degree

    def __str__(self) -> str:
        return f"{self.field}[x]/({poly_to_str(self.modulus)})"
