"""The base of the engine's immutable value types.

A value type lists its fields in __slots__, in constructor order, and
`_fields` names those that equality, hashing, repr and copying read: all
of them unless the class derives some from the others.  Assigning or
deleting a field raises AttributeError, so fields are stored through the
slots' own __set__.

For each value type, Value writes the source a hand-written copy would
have and compiles it once, under the filename <module.Class>:

- `_store(self, <each stored field>, /)` stores its arguments, one
  slot setter call per field.  A type that writes no __init__ takes
  `_store` as its __init__, so it is built positionally from every
  stored field.  A type that derives or checks a field writes an
  __init__ that ends in one `self._store(...)` call.
- `__eq__` holds two values equal only within one class and with equal
  tuples of `_fields`; `__hash__` hashes that tuple.  Each is given to a
  type that writes none of its own.

Copying rebuilds a value from its fields, so derived fields (a point's
hash among them: a str hash differs between processes) are worked out
afresh.
"""

_SOURCE = """\
def _store(self, {params}/):
    {stores}

def __eq__(self, other):
    if other.__class__ is self.__class__:
        return ({mine}) == ({theirs})
    return NotImplemented

def __hash__(self):
    return hash(({mine}))
"""


class Value:
    """The shared part of every value type; see the module docstring."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls):
        stored = tuple(name for name in cls.__slots__ if name != "__dict__")
        if "_fields" not in vars(cls):
            cls._fields = stored
        mine = "".join(f"self.{name}, " for name in cls._fields)
        source = _SOURCE.format(
            params="".join(f"{name}, " for name in stored),
            stores="\n    ".join(f"_set_{name}(self, {name})" for name in stored) or "pass",
            mine=mine, theirs=mine.replace("self.", "other."))
        namespace = {f"_set_{name}": getattr(cls, name).__set__ for name in stored}
        exec(compile(source, f"<{cls.__module__}.{cls.__qualname__}>", "exec"), namespace)
        for name in ("_store", "__eq__", "__hash__"):
            method = namespace[name]
            method.__qualname__, method.__module__ = f"{cls.__qualname__}.{name}", cls.__module__
            if name not in vars(cls):
                setattr(cls, name, method)
        if "__init__" not in vars(cls):
            cls.__init__ = cls._store

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __repr__(self) -> str:
        shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__qualname__}({shown})"

    def __reduce__(self):
        return self.__class__, self._values()
