"""Exception types raised by the symbolic engine.

All engine errors derive from QfiltError, and every input qfilt refuses is
refused with one, so that the command-line layer can map them to a
validation exit code without enumerating causes.  A message quotes a
refused input value through `echo`, which keeps it short however long or
deeply nested the value is.
"""

import reprlib
from itertools import islice


class QfiltError(Exception):
    """Base class for engine errors."""


class RingMismatchError(QfiltError):
    """Operands live over different rings, fields, or schemes."""


class LatticeTooLargeError(QfiltError):
    """An enumeration would exceed a configured size limit."""


class GluingError(QfiltError):
    """Chart data cannot be glued; the message names the first bad point."""


class UnsupportedFamilyError(QfiltError):
    """A symbolic filter base is not one of the recognized families."""


class ParseError(QfiltError):
    """A textual literal does not match its grammar."""


class _Echo(reprlib.Repr):
    """reprlib's shortened repr, keeping a dict's own key order as repr does
    (reprlib sorts the keys)."""

    def repr_dict(self, x, level):
        if not x:
            return "{}"
        if level <= 0:
            return "{...}"
        pieces = [f"{self.repr1(k, level - 1)}: {self.repr1(v, level - 1)}"
                  for k, v in islice(x.items(), self.maxdict)]
        if len(x) > self.maxdict:
            pieces.append("...")
        return "{" + ", ".join(pieces) + "}"


_ECHO = _Echo()
_ECHO.maxlevel, _ECHO.maxlist, _ECHO.maxtuple, _ECHO.maxdict = 3, 8, 8, 6
_ECHO.maxstring = _ECHO.maxlong = _ECHO.maxother = 60


def echo(value) -> str:
    """value quoted for an error message: repr(value) when that is short,
    else a form of at most 200 characters, with "..." where it is cut.
    Containers past the third level show as "[...]" or "{...}", so the
    echo of a deep value is made without deep recursion and is the same at
    every depth."""
    text = _ECHO.repr(value)
    return text if len(text) <= 200 else text[:197] + "..."
