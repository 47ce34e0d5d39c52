"""Every imported name is used, so a deleted code path takes its imports along.

Package __init__ files are exempt (they import to re-export), and a name
listed in a module's __all__ counts as used.
"""

import ast
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
FILES = [p for p in sorted((ROOT / "src" / "relaxlab").glob("*.py")) + sorted((ROOT / "tests").glob("*.py"))
         if p.name != "__init__.py"]


def unused_imports(source: str) -> list:
    """'name (line n)' for every name the source imports and never uses."""
    tree = ast.parse(source)
    imported, used = {}, set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            used.update(elt.value for elt in node.value.elts)
    return [f"{name} (line {line})" for name, line in sorted(imported.items()) if name not in used]


def test_scan_finds_unused_names():
    source = ("import os\nimport numpy as np\nfrom a.b import c, d as e\nfrom .m import f, g\n"
              "__all__ = ['g']\nnp.zeros(c)\n")
    assert unused_imports(source) == ["e (line 3)", "f (line 4)", "os (line 1)"]


@pytest.mark.parametrize("path", FILES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []
