"""Coefficient fields for the one-variable rings used by the engine.

Two kinds of field are supported.  PrimeField(p) is the field with p
elements, p prime; its elements are the integers 0..p-1 and polynomial
arithmetic over it is exact.  SymbolicAlgClosed() stands for an arbitrary
algebraically closed field whose elements are never computed with directly:
points of the line over it are opaque string labels, and every polynomial
over it must be presented in factored form.

Labels are nonempty strings over [A-Za-z0-9_].  The names "inf" and "gen"
are reserved for the point at infinity and for generic points and are not
valid element labels.
"""

import re

from .config import MAX_PRIME
from .errors import ParseError, QfiltError, echo
from .values import Value

RESERVED_LABELS = frozenset({"inf", "gen"})
_LABEL_RE = re.compile(r"[A-Za-z0-9_]+\Z")


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


class PrimeField(Value):
    """The finite field with p elements, p prime and desk-scale."""

    __slots__ = ("p",)

    def __init__(self, p: int):
        # the cap comes first: trial division of a huge p never ends
        if p > MAX_PRIME:
            raise QfiltError(f"field size {p} exceeds limit {MAX_PRIME}")
        if not is_prime(p):
            raise QfiltError(f"modulus {p} is not prime")
        self._store(p)

    def __str__(self) -> str:
        return f"F{self.p}"


class SymbolicAlgClosed(Value):
    """An algebraically closed field with opaque element labels."""

    __slots__ = ()

    def __str__(self) -> str:
        return "kbar"


BaseField = PrimeField | SymbolicAlgClosed


def check_label(label: str) -> str:
    """Validate a symbolic element label and return it."""
    if not isinstance(label, str) or not _LABEL_RE.match(label):
        raise QfiltError(f"bad label {echo(label)}: expected [A-Za-z0-9_]+")
    if label in RESERVED_LABELS:
        raise QfiltError(f"label {echo(label)} is reserved")
    return label


# past Python's limit on the digits of an integer it converts from text
TOO_MANY_DIGITS = "an integer with too many digits to read"


def parse_decimal(text: str, what: str) -> int:
    """The integer a string of decimal digits spells, `what` naming it in
    the ParseError for any other string, or for one too long to convert."""
    if not text.isdecimal():
        raise ParseError(f"bad {what} {echo(text)}: expected decimal digits")
    try:
        return int(text)
    except ValueError:
        raise ParseError(f"bad {what}: {TOO_MANY_DIGITS}") from None


def field_from_literal(value) -> BaseField:
    """Build a field from its literal form: {"p": 2} or "symbolic"."""
    if value == "symbolic":
        return SymbolicAlgClosed()
    if isinstance(value, dict) and set(value) == {"p"} and type(value["p"]) is int:
        return PrimeField(value["p"])
    raise QfiltError(f"bad field literal {echo(value)}")


def field_to_literal(field: BaseField):
    if isinstance(field, PrimeField):
        return {"p": field.p}
    return "symbolic"
