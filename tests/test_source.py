"""Source hygiene: every import in src/rbfadapt is read, and every
module-level private name is referenced somewhere in src/rbfadapt.

Tests may reach private names, but they do not keep one alive: a private
helper that only tests call is dead code.
"""

import ast
from pathlib import Path

import pytest

MODULES = sorted((Path(__file__).resolve().parents[1] / "src" / "rbfadapt").glob("*.py"))
TREES = {path.name: ast.parse(path.read_text(), filename=str(path)) for path in MODULES}


def _read_names(tree) -> set:
    return {node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store)}


def _imported(tree) -> list:
    """(bound name, line) of every import outside __future__."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import) or (isinstance(node, ast.ImportFrom) and node.module != "__future__"):
            out += [(alias.asname or alias.name.split(".")[0], node.lineno) for alias in node.names]
    return out


def _private_definitions(tree) -> list:
    """(name, line) of each private function, class or variable the module body defines."""
    out = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            out.append((node.name, node.lineno))
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            out += [(n.id, node.lineno) for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
    return [(name, line) for name, line in out if name.startswith("_") and not name.endswith("__")]


def _references(tree) -> set:
    """Names read, attributes read and names imported from a module."""
    names = _read_names(tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
    return names


@pytest.mark.parametrize("name", sorted(TREES))
def test_every_import_is_read(name):
    tree = TREES[name]
    read = _read_names(tree)
    assert [(bound, line) for bound, line in _imported(tree) if bound not in read] == []


@pytest.mark.parametrize("name", sorted(TREES))
def test_every_private_name_is_referenced(name):
    # a definition is not a reference: a def or class statement binds no
    # Name node, and an assignment's target is stored, not read
    referenced = set().union(*(_references(tree) for tree in TREES.values()))
    assert [(n, line) for n, line in _private_definitions(TREES[name]) if n not in referenced] == []


def test_the_checks_see_unused_code():
    tree = ast.parse("import os\nfrom math import pi as _pi\n_LIMIT = 3\ndef _helper():\n    return _LIMIT\n")
    assert [bound for bound, _ in _imported(tree) if bound not in _read_names(tree)] == ["os", "_pi"]
    assert [n for n, _ in _private_definitions(tree) if n not in _references(tree)] == ["_helper"]
