"""The contract of the engine's value types: immutable, equal only within
one class on their defining fields, hashed as the tuple of those fields,
copied by pickle and deepcopy, and shown by a repr that names the class
and its fields."""

import copy
import pickle
import types

import pytest

import qfilt
from qfilt import oracle
from qfilt.classify import classify
from qfilt.fields import PrimeField, SymbolicAlgClosed
from qfilt.filters import LocalFilter, filter_base, presented, up_to
from qfilt.ideals import QuotientRing
from qfilt.poly import factored_from_str, poly_from_str
from qfilt.schemes import (AffineLine, AffineQuotient, DisjointUnion, ProjLine, closed_subscheme,
                           sheaf)
from qfilt.spectrum import (ComponentSet, SpecPoint, closed_point, finite_closed, module_data,
                            spec)
from qfilt.values import Value

F2 = PrimeField(2)
RING = QuotientRing.make(F2, poly_from_str("x^2+x", 2))
A1 = AffineLine(SymbolicAlgClosed())
QUOTIENT = AffineQuotient(RING)
A, X = closed_point("a"), closed_point(poly_from_str("x", 2))
IDEAL = sheaf(A1, {A: 2})
FILTER = presented(A1, 1, {A: 3})
TABLE = oracle.build_table(RING)
REPORT = oracle.OracleReport(RING, [])
REPORT.record("ring axioms", True)

SAMPLES = [
    F2, SymbolicAlgClosed(), poly_from_str("x^2+1", 3), factored_from_str("(x-a)^2*(x-b)"),
    RING, A, ComponentSet.of([0, 2]), finite_closed(A1, [A]), spec(ProjLine(F2)),
    module_data(QUOTIENT, {X: 1}, free=[1]), A1, QUOTIENT, DisjointUnion.symbolic(), IDEAL,
    closed_subscheme(IDEAL), FILTER, up_to(2), filter_base(A1, [IDEAL]), classify(FILTER),
    TABLE, oracle.enumerate_filters(TABLE)[1], oracle.enumerate_subcategories(TABLE, 2)[1],
    TABLE.indecomposables[0, 1], oracle._module_data(TABLE, ((0, 1), (1, 1))), REPORT,
]
IDS = [type(v).__name__ for v in SAMPLES]


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def _stored(value) -> list[str]:
    return [name for name in type(value).__slots__ if name != "__dict__"]


def test_samples_cover_every_value_type():
    exported = {obj for obj in vars(qfilt).values() if isinstance(obj, type)
                and issubclass(obj, Value)}
    oracles = {obj for obj in vars(oracle).values() if isinstance(obj, type)
               and issubclass(obj, Value) and obj is not Value}
    # the test-local types at the end of this file are not the library's
    library = {cls for cls in _subclasses(Value) if cls.__module__.startswith("qfilt.")}
    assert {type(v) for v in SAMPLES} == library
    assert exported | oracles <= library


@pytest.mark.parametrize("value", SAMPLES, ids=IDS)
def test_fields_cannot_be_assigned_or_deleted(value):
    for name in _stored(value):
        with pytest.raises(AttributeError):
            setattr(value, name, None)
        with pytest.raises(AttributeError):
            delattr(value, name)
    with pytest.raises(AttributeError):
        value.extra = 1


@pytest.mark.parametrize("value", SAMPLES, ids=IDS)
def test_equality_is_class_strict(value):
    fields = {name: getattr(value, name) for name in value._fields}
    twin = types.SimpleNamespace(**fields)
    assert value != twin and value != tuple(fields.values())
    assert all(value != other for other in SAMPLES if other is not value)


@pytest.mark.parametrize("value", SAMPLES, ids=IDS)
def test_equal_values_hash_equal(value):
    same = copy.deepcopy(value)
    assert same == value and same is not value
    if isinstance(value, oracle.OracleReport):
        with pytest.raises(TypeError):
            hash(value)
        return
    # the hash a dataclass of the same fields had
    assert hash(same) == hash(value) == hash(tuple(getattr(value, f) for f in value._fields))


@pytest.mark.parametrize("value", SAMPLES, ids=IDS)
@pytest.mark.parametrize("round_trip", [lambda v: pickle.loads(pickle.dumps(v)), copy.deepcopy],
                         ids=["pickle", "deepcopy"])
def test_pickle_and_deepcopy_round_trip(value, round_trip):
    back = round_trip(value)
    assert type(back) is type(value)
    # every stored field, derived ones included, comes back equal
    for name in _stored(value):
        assert getattr(back, name) == getattr(value, name), name
    assert back == value


BUILT_BY_VALUE = [v for v in SAMPLES if vars(type(v))["__init__"] is type(v)._store]


def test_most_types_are_built_by_value():
    assert len({type(v) for v in BUILT_BY_VALUE}) >= 17


@pytest.mark.parametrize("value", BUILT_BY_VALUE, ids=[type(v).__name__ for v in BUILT_BY_VALUE])
def test_wrong_field_count_names_the_class(value):
    cls, fields = type(value), [getattr(value, name) for name in _stored(value)]
    # a type without fields can only be given one too many
    for wrong in ([fields[:-1]] if fields else []) + [fields + [None]]:
        with pytest.raises(TypeError, match=cls.__name__):
            cls(*wrong)


@pytest.mark.parametrize("value", BUILT_BY_VALUE, ids=[type(v).__name__ for v in BUILT_BY_VALUE])
def test_a_keyword_argument_names_the_class(value):
    cls, stored = type(value), _stored(value)
    fields = {name: getattr(value, name) for name in stored}
    # the fields are positional only; a type without fields takes none
    keyword = {stored[-1]: fields.pop(stored[-1])} if stored else {"extra": None}
    with pytest.raises(TypeError, match=cls.__name__):
        cls(*fields.values(), **keyword)


@pytest.mark.parametrize("value", SAMPLES, ids=IDS)
def test_repr_names_class_and_fields(value):
    text = repr(value)
    if "__repr__" in vars(type(value)):
        # a polynomial shows its coefficients as the text they spell
        assert text == f"PrimePoly({value.p}, {str(value)!r})"
        return
    shown = ", ".join(f"{name}={getattr(value, name)!r}" for name in value._fields)
    assert text == f"{type(value).__name__}({shown})"


def test_derived_fields_stay_out_of_equality():
    assert RING._fields == ("field", "modulus")
    assert A1._fields == ("kind", "field", "ring", "components")
    assert A._fields == ("kind", "component", "name")
    assert "scheme" not in TABLE._fields
    # the subcategory sample filled the table's per-module memos; a fresh
    # table has none and is still equal
    fresh = oracle.build_table(RING)
    assert {"sums", "smuls", "adds"} <= vars(TABLE).keys()
    assert not vars(fresh) and fresh == TABLE


# ---------------------------------------------------------------------------
# what Value writes for a type, and what a type's own methods keep


class Empty(Value):
    __slots__ = ()


class One(Value):
    __slots__ = ("a",)


class Three(Value):
    __slots__ = ("a", "b", "c")


class Narrow(Value):
    """Stores the sum of its two fields, which equality does not read."""

    __slots__ = ("a", "b", "total")
    _fields = ("a", "b")

    def __init__(self, a, b):
        self._store(a, b, a + b)


class Unhashable(Value):
    __slots__ = ("items",)
    __hash__ = None


class OwnEq(Value):
    """Equal on its first field alone."""

    __slots__ = ("a", "b")

    def __eq__(self, other):
        return isinstance(other, OwnEq) and self.a == other.a


@pytest.mark.parametrize("cls, fields", [(Empty, ()), (One, (1,)), (Three, (1, "b", (3,)))],
                         ids=["0", "1", "3"])
def test_a_type_that_writes_nothing_gets_every_method(cls, fields):
    assert vars(cls)["__init__"] is cls._store
    value, twin = cls(*fields), cls(*fields)
    assert tuple(getattr(value, name) for name in cls.__slots__) == fields
    assert value == twin and value is not twin and hash(value) == hash(fields)
    if fields:
        other = cls(*fields[:-1], "changed")
        assert value != other and hash(value) != hash(other)
    assert all(value != other for other in (Empty(), One(1), Three(1, "b", (3,)))
               if type(other) is not cls)
    for name in ("_store", "__eq__", "__hash__"):
        method = vars(cls)[name]
        assert method.__qualname__ == f"{cls.__qualname__}.{name}"
        assert method.__module__ == cls.__module__
        # compiled outside any source file, so no line of values.py claims it
        assert method.__code__.co_filename == f"<{cls.__module__}.{cls.__qualname__}>"


def test_a_written_init_keeps_and_reaches_store():
    value = Narrow(1, 2)
    assert vars(Narrow)["__init__"] is not Narrow._store
    assert value.total == 3 and value._fields == ("a", "b")
    # equality and hashing read _fields, not the derived slot
    assert value == Narrow(1, 2) and hash(value) == hash((1, 2))
    with pytest.raises(TypeError, match="Narrow._store"):
        value._store(1, 2)


def test_a_written_hash_of_none_stays():
    value = Unhashable([1])
    assert vars(Unhashable)["__hash__"] is None
    assert value == Unhashable([1]) and value != Unhashable([2])
    with pytest.raises(TypeError):
        hash(value)


def test_a_written_eq_stays_and_leaves_the_type_unhashable():
    # Python gives a class that writes __eq__ alone __hash__ = None, and
    # Value keeps that rather than hash fields the written __eq__ ignores
    assert OwnEq(1, 2) == OwnEq(1, 3)
    assert vars(OwnEq)["__eq__"].__code__.co_filename == __file__
    assert vars(OwnEq)["__hash__"] is None
    with pytest.raises(TypeError):
        hash(OwnEq(1, 2))


def test_library_methods_are_compiled_per_class():
    assert LocalFilter.__eq__.__code__.co_filename == "<qfilt.filters.LocalFilter>"
    assert LocalFilter.__init__.__qualname__ == "LocalFilter._store"
    # a written method stays the one its module defines
    assert SpecPoint.__eq__.__code__.co_filename.endswith("spectrum.py")
