"""Every public function, class and method in the package has a caller.

Names are matched, not call sites, so a method passes here whenever an
attribute of the same name is read anywhere in the package.  The line
trace, `python tests/line_trace.py`, catches such a method: no line of it
runs.  The last test here keeps that trace's allow-list current.
"""

import ast
from collections import Counter
from pathlib import Path

import qfilt
from line_trace import ALLOWED as ALLOWED_LINES, executable_lines

SRC = Path(__file__).resolve().parent.parent / "src" / "qfilt"

# looked up by name from outside the package, by qbench/spans.py
ALLOWED = {"ProjChartOne"}


def _names(node, attributes_only: bool) -> list[str]:
    """Every identifier a node reads or writes as an attribute, and unless
    `attributes_only` as a bare name too.  A method is reached only through
    an attribute, so a bare name of the same spelling is no use of it."""
    return [n.attr if isinstance(n, ast.Attribute) else n.id for n in ast.walk(node)
            if isinstance(n, ast.Attribute) or (not attributes_only and isinstance(n, ast.Name))]


def _public_definitions(tree):
    """(qualified name, node) of each public top-level function and class
    and each public method of a top-level class."""
    for node in tree.body:
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
            continue
        yield node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    yield f"{node.name}.{item.name}", item


def orphans() -> list[str]:
    """Public names with no reference outside their own definition anywhere
    in the package but its __init__.py, a top-level name exported there
    aside."""
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(SRC.glob("*.py"))}
    used = {method: Counter(name for file, tree in trees.items() if file != "__init__.py"
                            for name in _names(tree, method))
            for method in (False, True)}
    exported = set(vars(qfilt))
    out = []
    for file, tree in trees.items():
        for qualname, node in _public_definitions(tree):
            method = "." in qualname
            if not method and qualname in exported:
                continue
            if used[method][node.name] <= _names(node, method).count(node.name):
                out.append(qualname)
    return out


def test_every_public_name_has_a_caller():
    assert set(orphans()) == ALLOWED


def test_line_trace_allow_list_names_executable_lines():
    for file, text, reason in ALLOWED_LINES:
        path = SRC / file
        lines = path.read_text(encoding="utf-8").splitlines()
        matches = [n for n in executable_lines(path) if lines[n - 1].strip() == text]
        assert len(matches) == 1 and reason, (file, text)
