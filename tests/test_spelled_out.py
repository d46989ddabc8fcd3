"""Value writes the constructor, __eq__ and __hash__ of every value type
from its slots.  A value type spells out __init__, __eq__ or __hash__ only
for a reason named here, so that boilerplate cannot grow back."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "qfilt"

INIT = {
    # derived: SpecPoint its hash and sort key, ComponentSet its predicates
    # is_none, is_all and is_finite, Scheme its closed points, charts and
    # name, QuotientRing the factors of its modulus
    "SpecPoint", "ComponentSet", "Scheme", "QuotientRing",
    # checked: PrimeField that p is a prime within the cap, ExplicitFilter
    # that its members form a filter
    "PrimeField", "ExplicitFilter",
}

# points on one scheme are shared objects that hash alike when equal, so
# identity and the stored hash settle most comparisons
EQ = {"SpecPoint"}

HASH = EQ | {"OracleReport"}  # unhashable: its list of checks grows


def _value_type_members() -> dict[str, set[str]]:
    """The names each value type in src/qfilt defines in its class body, by
    a def or by an assignment."""
    out = {}
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.ClassDef):
                continue
            if node.name != "Value" and not any(isinstance(base, ast.Name) and base.id == "Value"
                                                for base in node.bases):
                continue
            names = out.setdefault(node.name, set())
            for item in node.body:
                if isinstance(item, ast.FunctionDef):
                    names.add(item.name)
                elif isinstance(item, ast.Assign):
                    names.update(t.id for t in item.targets if isinstance(t, ast.Name))
    return out


@pytest.mark.parametrize("method, kept", [("__init__", INIT), ("__eq__", EQ), ("__hash__", HASH)],
                         ids=["init", "eq", "hash"])
def test_only_the_kept_types_spell_out(method, kept):
    members = _value_type_members()
    assert {name for name, defined in members.items() if method in defined} == kept
