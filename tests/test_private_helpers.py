"""Every private module-level name of the package is used, so a deleted call
takes its helper along.

A name is private when it starts with one underscore. It counts as used when
some module of the package refers to it again, as a name, an attribute or an
import, outside the statement that defines it.
"""

import ast
import pathlib
from collections import Counter

ROOT = pathlib.Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "relaxlab").glob("*.py"))


def _defined(tree: ast.Module) -> dict:
    """Private names bound by the module's top-level statements -> that statement."""
    names = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names[node.name] = node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for sub in ast.walk(target):
                    if isinstance(sub, ast.Name):
                        names[sub.id] = node
    return {n: node for n, node in names.items() if n.startswith("_") and not n.startswith("__")}


def _references(tree: ast.AST) -> Counter:
    """How often tree names each name, as a name, an attribute or an import."""
    found = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            found[node.id] += 1
        elif isinstance(node, ast.Attribute):
            found[node.attr] += 1
        elif isinstance(node, ast.alias):
            found[node.name] += 1
    return found


def unused_private_names(sources: dict) -> list:
    """'module.name' for each private top-level name no module refers to
    again outside the statement that defines it."""
    trees = {mod: ast.parse(text) for mod, text in sources.items()}
    everywhere = sum((_references(t) for t in trees.values()), Counter())
    return [f"{mod}.{name}" for mod, tree in trees.items()
            for name, node in sorted(_defined(tree).items())
            if everywhere[name] == _references(node)[name]]


def test_scan_finds_unused_private_names():
    sources = {
        "a": "_LIMIT = 3\n\ndef _used():\n    return _LIMIT\n\ndef _dead():\n    return _dead\n\n"
             "class _Gone:\n    pass\n\ndef public():\n    return _used()\n",
        "b": "from .a import _LIMIT\n_table = {}\n\ndef f(m):\n    return m._other\n\ndef _other():\n    pass\n",
    }
    assert unused_private_names(sources) == ["a._Gone", "a._dead", "b._table"]


def test_no_unused_private_helpers():
    assert unused_private_names({p.stem: p.read_text() for p in SOURCES}) == []
