"""Monic-polynomial arithmetic over prime fields, and factored forms.

Polynomials over PrimeField(p) are represented densely by PrimePoly as a
tuple of coefficients in ascending degree order with no trailing zeros, so
x^3 + x + 1 over F2 is (1, 1, 0, 1) and the zero polynomial is ().  All
arithmetic is exact.  The degree of the zero polynomial is -1 by convention.

Over a symbolic algebraically closed field there is no coefficient
arithmetic at all.  FactoredPoly records a nonzero split polynomial as a
multiset of linear factors (x - label)^multiplicity, and the engine only
reads those factors.  Unfactored input over a symbolic field is rejected
at parse time.

Factorization over a prime field is deterministic trial division by monic
irreducibles in ascending (degree, coefficient) order; it is meant for
desk-scale degrees, not cryptographic ones.  The irreducible tables are
cached per field.  An irreducibility check is the same trial division: f
is irreducible iff no monic irreducible of degree at most deg f / 2
divides it, so it reads the tables only up to half its degree.

String forms: prime-field polynomials read and print like "x^3+x+1" with
descending powers; factored polynomials read like "(x-a)^2*(x-b)" and are
kept as factors sorted by label.  "0" and "1" denote the obvious constants
in both worlds.
"""

import itertools
import re
from functools import lru_cache

from .config import MAX_POLY_DEGREE, MAX_POLY_ENUMERATION
from .errors import ParseError, QfiltError, RingMismatchError, echo
from .fields import PrimeField, SymbolicAlgClosed, check_label, parse_decimal
from .values import Value


class PrimePoly(Value):
    """Dense polynomial over F_p: coeffs[i] is the coefficient of x^i."""

    __slots__ = ("p", "coeffs")

    @staticmethod
    def make(p: int, coeffs) -> "PrimePoly":
        cs = [c % p for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        return PrimePoly(p, tuple(cs))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def leading(self) -> int:
        if self.is_zero:
            raise QfiltError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def _match(self, other: "PrimePoly") -> None:
        if self.p != other.p:
            raise RingMismatchError(f"ring mismatch: F{self.p}[x] vs F{other.p}[x]")

    def __add__(self, other: "PrimePoly") -> "PrimePoly":
        self._match(other)
        n = max(len(self.coeffs), len(other.coeffs))
        a = self.coeffs + (0,) * (n - len(self.coeffs))
        b = other.coeffs + (0,) * (n - len(other.coeffs))
        return PrimePoly.make(self.p, [x + y for x, y in zip(a, b)])

    def __neg__(self) -> "PrimePoly":
        return PrimePoly.make(self.p, [-c for c in self.coeffs])

    def __sub__(self, other: "PrimePoly") -> "PrimePoly":
        return self + (-other)

    def __mul__(self, other: "PrimePoly") -> "PrimePoly":
        self._match(other)
        if self.is_zero or other.is_zero:
            return PrimePoly(self.p, ())
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
        return PrimePoly.make(self.p, out)

    def scale(self, c: int) -> "PrimePoly":
        return PrimePoly.make(self.p, [c * a for a in self.coeffs])

    def __divmod__(self, other: "PrimePoly"):
        self._match(other)
        if other.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        p, d, b = self.p, other.degree, other.coeffs
        inv = pow(b[-1], -1, p)
        rem = list(self.coeffs)
        quo = [0] * max(0, len(rem) - d)
        # long division: the quotient's coefficients from the top degree down
        for k in range(len(quo) - 1, -1, -1):
            c = rem[k + d] * inv % p
            if c:
                quo[k] = c
                for i, a in enumerate(b):
                    rem[k + i] = (rem[k + i] - c * a) % p
        return PrimePoly.make(p, quo), PrimePoly.make(p, rem)

    def __mod__(self, other: "PrimePoly") -> "PrimePoly":
        return divmod(self, other)[1]

    def __floordiv__(self, other: "PrimePoly") -> "PrimePoly":
        return divmod(self, other)[0]

    def monic(self) -> "PrimePoly":
        if self.is_zero or self.leading == 1:
            return self
        return self.scale(pow(self.leading, -1, self.p))

    def sort_key(self):
        """Deterministic order: by degree, then descending-power coefficients."""
        return (self.degree, tuple(reversed(self.coeffs)))

    def __str__(self) -> str:
        return poly_to_str(self)

    def __repr__(self) -> str:
        return f"PrimePoly({self.p}, {poly_to_str(self)!r})"


def poly_gcd(a: PrimePoly, b: PrimePoly) -> PrimePoly:
    """Monic greatest common divisor; gcd(0, 0) = 0."""
    while not b.is_zero:
        a, b = b, a % b
    return a.monic()


def _check_enumeration(p: int, degree: int) -> None:
    """Refuse a degree whose p^degree monic polynomials are past the cap."""
    # p >= 2, so a degree past the cap's bit length is over the cap, and
    # p ** degree is formed only for small degrees
    if degree >= MAX_POLY_ENUMERATION.bit_length() or p ** degree > MAX_POLY_ENUMERATION:
        raise QfiltError(f"irreducible enumeration over F{p} at degree {degree} is too large")


@lru_cache(maxsize=None)
def irreducibles(p: int, degree: int) -> tuple[PrimePoly, ...]:
    """All monic irreducibles of exactly the given degree, at least 1, sorted."""
    _check_enumeration(p, degree)
    smaller = [q for d in range(1, degree // 2 + 1) for q in irreducibles(p, d)]
    found = []
    # every monic polynomial of the degree, its tail read high-to-low so
    # that the candidates come sorted like sort_key()
    for tail in itertools.product(range(p), repeat=degree):
        f = PrimePoly(p, tuple(reversed(tail)) + (1,))
        if degree > 1 and f.coeffs[0] == 0:
            continue
        if all((f % q).coeffs for q in smaller):
            found.append(f)
    return tuple(found)


def is_irreducible(f: PrimePoly) -> bool:
    """Whether f is irreducible: of degree at least 1 and divisible by no
    monic irreducible of degree at most deg f / 2.  Like the sieve of its
    own degree, which it never builds, it refuses f unless p^deg f is
    within MAX_POLY_ENUMERATION."""
    if f.degree < 1:
        return False
    _check_enumeration(f.p, f.degree)
    return all((f % q).coeffs for d in range(1, f.degree // 2 + 1) for q in irreducibles(f.p, d))


def factor_prime_poly(f: PrimePoly) -> tuple[tuple[PrimePoly, int], ...]:
    """Factor a nonzero polynomial into monic irreducibles with multiplicity.

    The result is sorted by (degree, coefficients) and multiplying the
    factors back together recovers f up to its leading coefficient.
    """
    if f.is_zero:
        raise QfiltError("cannot factor the zero polynomial")
    f = f.monic()
    out = []
    degree = 1
    while f.degree > 0:
        if 2 * degree > f.degree:
            # every factor of degree below `degree` is already divided out,
            # and a proper factorization would need one of degree <= deg/2
            out.append((f, 1))
            break
        for q in irreducibles(f.p, degree):
            mult = 0
            while (f % q).is_zero:
                f = f // q
                mult += 1
            if mult:
                out.append((q, mult))
        degree += 1
    return tuple(sorted(out, key=lambda pair: pair[0].sort_key()))


class FactoredPoly(Value):
    """A nonzero split polynomial over a symbolic field, as sorted
    ((label, multiplicity), ...) pairs; the empty tuple is the constant 1."""

    __slots__ = ("factors",)

    @staticmethod
    def make(pairs) -> "FactoredPoly":
        acc: dict[str, int] = {}
        for label, mult in pairs:
            check_label(label)
            if mult:
                acc[label] = acc.get(label, 0) + mult
        return FactoredPoly(tuple(sorted(acc.items())))


Poly = PrimePoly | FactoredPoly


def factor(f: Poly):
    """Factor into irreducibles with multiplicity, in canonical order.

    Prime-field polynomials go through trial division; factored symbolic
    polynomials simply report their own factor list.
    """
    if isinstance(f, PrimePoly):
        return factor_prime_poly(f)
    return f.factors


# ---------------------------------------------------------------------------
# string forms

_TERM_RE = re.compile(r"([+-]?)\s*(\d+)?\s*(x)?\s*(?:\^\s*(\d+))?\s*\Z")
_FACTOR_RE = re.compile(r"\(\s*x\s*-\s*([A-Za-z0-9_]+)\s*\)\s*(?:\^\s*(\d+))?\s*\Z")


def poly_to_str(f: PrimePoly) -> str:
    if f.is_zero:
        return "0"
    parts = []
    for i in range(f.degree, -1, -1):
        c = f.coeffs[i]
        if not c:
            continue
        if i == 0:
            parts.append(str(c))
        else:
            head = "" if c == 1 else str(c)
            parts.append(f"{head}x" if i == 1 else f"{head}x^{i}")
    return "+".join(parts)


def poly_from_str(text: str, p: int) -> PrimePoly:
    """Parse forms like "x^3+x+1", "2x^2-x", "0", "1" over F_p."""
    s = text.replace(" ", "")
    if not s:
        raise ParseError("empty polynomial literal")
    chunks = re.findall(r"[+-]?[^+-]+", s)
    if "".join(chunks) != s:
        raise ParseError(f"bad polynomial literal {echo(text)}")
    coeffs: dict[int, int] = {}
    for chunk in chunks:
        m = _TERM_RE.match(chunk)
        if not m or (m.group(2) is None and m.group(3) is None):
            raise ParseError(f"bad term {echo(chunk)} in polynomial literal {echo(text)}")
        sign = -1 if m.group(1) == "-" else 1
        coeff = 1 if m.group(2) is None else parse_decimal(m.group(2), "coefficient")
        if m.group(3) is None:
            exp = 0
            if m.group(4) is not None:
                raise ParseError(f"bad term {echo(chunk)} in polynomial literal {echo(text)}")
        else:
            exp = 1 if m.group(4) is None else parse_decimal(m.group(4), "exponent")
        coeffs[exp] = coeffs.get(exp, 0) + sign * coeff
    degree = max(coeffs)
    if degree > MAX_POLY_DEGREE:
        raise ParseError(f"polynomial degree {degree} exceeds limit {MAX_POLY_DEGREE}")
    out = [0] * (degree + 1)
    for exp, c in coeffs.items():
        out[exp] = c
    return PrimePoly.make(p, out)


def factored_from_str(text: str) -> FactoredPoly:
    """Parse forms like "(x-a)^2*(x-b)" and "1"."""
    s = text.replace(" ", "")
    if s == "1":
        return FactoredPoly(())
    if not s:
        raise ParseError("empty polynomial literal")
    pairs = []
    for part in s.split("*"):
        m = _FACTOR_RE.match(part)
        if not m:
            raise ParseError(
                f"bad factor {echo(part)}: symbolic polynomials must be products of (x-label)^k"
            )
        mult = parse_decimal(m.group(2), "multiplicity") if m.group(2) else 1
        pairs.append((m.group(1), mult))
    return FactoredPoly.make(pairs)


def poly_from_literal(text: str, field) -> Poly:
    if isinstance(field, PrimeField):
        return poly_from_str(text, field.p)
    if isinstance(field, SymbolicAlgClosed):
        return factored_from_str(text)
    raise QfiltError(f"unknown field {field!r}")
