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
from qfilt.filters import filter_base, presented, up_to
from qfilt.ideals import QuotientRing
from qfilt.poly import factored_from_str, poly_from_str
from qfilt.schemes import (AffineLine, AffineQuotient, DisjointUnion, ProjLine, closed_subscheme,
                           sheaf)
from qfilt.spectrum import ComponentSet, closed_point, finite_closed, module_data, spec
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
    assert {type(v) for v in SAMPLES} == set(_subclasses(Value))
    assert exported | oracles <= set(_subclasses(Value))


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


BUILT_BY_VALUE = [v for v in SAMPLES if "__init__" not in vars(type(v))]


@pytest.mark.parametrize("value", BUILT_BY_VALUE, ids=[type(v).__name__ for v in BUILT_BY_VALUE])
def test_wrong_field_count_names_the_class(value):
    cls, fields = type(value), [getattr(value, name) for name in _stored(value)]
    # a type without fields can only be given one too many
    for wrong in ([fields[:-1]] if fields else []) + [fields + [None]]:
        with pytest.raises(TypeError, match=cls.__name__):
            cls(*wrong)


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
