"""The base of the engine's immutable value types.

A value type lists its fields in __slots__, in constructor order, and
`_fields` names those that equality, hashing, repr and copying read: all
of them unless the class derives some from the others.  Assigning or
deleting a field raises AttributeError, so fields are stored through the
slots' own __set__, which Value captures once per class in `_setters`.
Value's __init__ stores the values it is given in slot order.  The types
that the engine builds in its loops, and those that derive or check a
field, spell out their own.

Two values are equal only within one class and with equal fields, and a
value hashes as the tuple of its fields.  The __eq__ and __hash__ here
read the fields by name, which is slow; the classes that the engine
compares and hashes in its loops spell out their own on the same terms.
Copying rebuilds a value from its fields, so derived fields (a point's
hash among them: a str hash differs between processes) are worked out
afresh.
"""


class Value:
    """The shared part of every value type; see the module docstring."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls):
        stored = tuple(name for name in cls.__slots__ if name != "__dict__")
        cls._setters = tuple(getattr(cls, name).__set__ for name in stored)
        if "_fields" not in vars(cls):
            cls._fields = stored

    def __init__(self, *values):
        setters = self._setters
        if len(values) != len(setters):
            raise TypeError(f"{self.__class__.__qualname__} takes {len(setters)} values, "
                            f"got {len(values)}")
        for store, value in zip(setters, values):
            store(self, value)

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __repr__(self) -> str:
        shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__qualname__}({shown})"

    def __reduce__(self):
        return self.__class__, self._values()
