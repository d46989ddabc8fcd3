"""Only the CLI renders values as text: an engine type defines __str__ only
where an error message prints it, and keeps its field repr otherwise."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "qfilt"

# the types whose text error messages print
KEPT = {"SpecPoint", "Scheme", "PrimeField", "SymbolicAlgClosed", "PrimePoly", "QuotientRing"}


def test_str_only_on_types_errors_print():
    defined = {node.name for path in sorted(SRC.glob("*.py"))
               for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
               if isinstance(node, ast.ClassDef)
               and any(isinstance(item, ast.FunctionDef) and item.name == "__str__"
                       for item in node.body)}
    assert defined == KEPT
