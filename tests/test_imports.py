"""Every name a module of the package imports is used in that module, and
every module-level private function or class is referenced somewhere in
the package."""

import ast
from pathlib import Path

import pytest

import dlc

SOURCES = sorted(Path(dlc.__file__).parent.glob("*.py"))


def _imported(tree: ast.Module):
    """(bound name, line) of each import outside ``__future__``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


def _used(tree: ast.Module) -> set:
    return {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    used = _used(tree)
    unused = [f"{name} (line {line})" for name, line in _imported(tree)
              if name not in used]
    assert not unused, f"{path.name} imports names it never uses: {unused}"


def test_the_scan_finds_an_unused_import():
    tree = ast.parse("import os\nfrom typing import List, Tuple\nx: List = []\n")
    assert {n for n, _ in _imported(tree)} - _used(tree) == {"os", "Tuple"}


def _private_defs(tree: ast.Module):
    """(name, line) of each module-level ``_private`` function or class."""
    for node in tree.body:
        if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                and node.name.startswith("_") and not node.name.endswith("__")):
            yield node.name, node.lineno


def _referenced(tree: ast.Module) -> set:
    """Every name tree loads, reads as an attribute or imports."""
    names = set()
    for n in ast.walk(tree):
        if isinstance(n, ast.Name):
            names.add(n.id)
        elif isinstance(n, ast.Attribute):
            names.add(n.attr)
        elif isinstance(n, ast.alias):
            names.add(n.name)
    return names


def test_no_unreferenced_private_definitions():
    trees = {p.name: ast.parse(p.read_text(), filename=str(p)) for p in SOURCES}
    referenced = set().union(*map(_referenced, trees.values()))
    dead = [f"{name}: {d} (line {line})" for name, tree in trees.items()
            for d, line in _private_defs(tree) if d not in referenced]
    assert not dead, f"private definitions nothing in dlc references: {dead}"


def test_the_scan_finds_an_unreferenced_private_definition():
    tree = ast.parse("def _used(): pass\ndef _dead(): pass\n"
                     "class _Gone: pass\ndef __getattr__(name): pass\n"
                     "def public(): pass\nx = _used()\n")
    assert {n for n, _ in _private_defs(tree)} - _referenced(tree) == {
        "_dead", "_Gone"}
