"""Ideals of one-variable polynomial rings and their desk-scale quotients.

Every ideal of k[x] is zero, the unit ideal, or principal with a unique
monic generator, so AffineIdeal stores exactly that trichotomy.  It is the
parse-time form of a polynomial ideal; arithmetic on ideals happens on the
exponent vectors of schemes.IdealSheaf.

QuotientRing models k[x]/(f) for a prime field k and monic f of small
degree.  Its ideals are the monic divisors of f (the divisor 1 is the unit
ideal and f itself is the zero ideal): the ideal generated by g is
generated by gcd(g, f), which is what quotient_reduce computes.
"""

from dataclasses import dataclass

from .errors import QfiltError, RingMismatchError
from .fields import BaseField, PrimeField, SymbolicAlgClosed
from .poly import FactoredPoly, Poly, PrimePoly, factor, poly_gcd, poly_to_literal


@dataclass(frozen=True)
class AffineIdeal:
    """An ideal of k[x]: kind is "zero", "unit", or "principal" with a
    monic generator of degree >= 1 (PrimePoly or FactoredPoly)."""

    field: BaseField
    kind: str
    gen: Poly | None = None

    def __str__(self) -> str:
        if self.kind == "zero":
            return "(0)"
        if self.kind == "unit":
            return "(1)"
        return f"({poly_to_literal(self.gen)})"


def zero_ideal(field: BaseField) -> AffineIdeal:
    return AffineIdeal(field, "zero")


def unit_ideal(field: BaseField) -> AffineIdeal:
    return AffineIdeal(field, "unit")


def principal_ideal(field: BaseField, gen: Poly) -> AffineIdeal:
    """Canonicalize a generator: zero gives (0), constants give (1)."""
    if isinstance(gen, PrimePoly):
        if not isinstance(field, PrimeField) or gen.p != field.p:
            raise RingMismatchError("ring mismatch: generator is over a different field")
        if gen.is_zero:
            return zero_ideal(field)
        if gen.degree == 0:
            return unit_ideal(field)
        return AffineIdeal(field, "principal", gen.monic())
    if isinstance(gen, FactoredPoly):
        if not isinstance(field, SymbolicAlgClosed):
            raise RingMismatchError("ring mismatch: factored generator needs a symbolic field")
        if gen.is_one:
            return unit_ideal(field)
        return AffineIdeal(field, "principal", gen)
    raise QfiltError(f"bad generator {gen!r}")


# ---------------------------------------------------------------------------
# Artinian quotients of k[x]


@dataclass(frozen=True)
class QuotientRing:
    """k[x]/(modulus) for a prime field k and a monic modulus of degree >= 1."""

    field: BaseField
    modulus: Poly

    @staticmethod
    def make(field: BaseField, modulus: Poly) -> "QuotientRing":
        if not isinstance(field, PrimeField):
            raise QfiltError(f"a quotient ring needs a prime field, not {field}")
        ideal = principal_ideal(field, modulus)
        if ideal.kind != "principal":
            raise QfiltError("quotient modulus must be nonconstant")
        return QuotientRing(field, ideal.gen)

    def prime_factors(self) -> tuple[tuple[PrimePoly, int], ...]:
        """Monic prime factors of the modulus with multiplicity, sorted."""
        return factor(self.modulus)

    @property
    def degree(self) -> int:
        return self.modulus.degree

    def __str__(self) -> str:
        return f"{self.field}[x]/({poly_to_literal(self.modulus)})"


def quotient_reduce(ring: QuotientRing, gen: PrimePoly) -> PrimePoly:
    """Canonical divisor generating the same ideal of k[x]/(modulus)."""
    return ring.modulus if gen.is_zero else poly_gcd(gen, ring.modulus)
