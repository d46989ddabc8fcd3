"""Value builds, compares and hashes every value type from its fields.  A
value type spells out __init__, __eq__ or __hash__ only for a reason named
here, so that boilerplate cannot grow back."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "qfilt"

INIT = {
    "Value",  # stores the values it is given in slot order
    # hot loop: built in the engine's loops, where an unrolled constructor
    # is faster; PrimePoly is built once per sieve candidate in irreducibles
    "LocalFilter", "IdealSheaf", "PrimePoly",
    # derived: SpecPoint its hash and sort key, ComponentSet its predicates
    # is_none, is_all and is_finite, Scheme its closed points, charts and
    # name, QuotientRing the factors of its modulus
    "SpecPoint", "ComponentSet", "Scheme", "QuotientRing",
    # checked: PrimeField that p is a prime within the cap, ExplicitFilter
    # that its members form a filter
    "PrimeField", "ExplicitFilter",
}

EQ = {
    "Value",  # compares the fields by name
    # hot loop: compared and hashed in the engine's loops
    "LocalFilter", "ComponentSet", "StalkFilter", "IdealSheaf", "SpecPoint", "PrimePoly",
}
# verify_ring hands its scheme to its ring table, so every engine call meets
# one scheme object, and no workload compares or hashes a Scheme,
# QuotientRing or PrimeField: those use Value's

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
