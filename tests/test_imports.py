"""Every name a module of the package imports is used in that module,
every module-level private function, class or assigned name is referenced
somewhere in the package, and every public function or class, and every
name a plain assignment binds in the body of a module-level class that is
no Enum, is referenced there or named in the README."""

import ast
import re
from pathlib import Path

import pytest

import dlc

SOURCES = sorted(Path(dlc.__file__).parent.glob("*.py"))
README = Path(__file__).resolve().parents[1] / "README.md"


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


def _defs(tree: ast.Module):
    """(name, line) of each module-level function or class."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node.lineno


def _assigned(tree: ast.Module):
    """(name, line) of each name a module-level assignment binds."""
    for node in tree.body:
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
            targets = [node.target]
        else:
            continue
        for name in _bound(targets):
            yield name, node.lineno


def _bound(targets):
    """Each name the assignment targets bind."""
    for target in targets:
        for n in ast.walk(target):
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store):
                yield n.id


def _class_assigned(tree: ast.Module):
    """(Class.name, line) of each name a plain assignment binds in the body
    of a module-level class that is no Enum (whose members are read by
    value), dunders aside."""
    for node in tree.body:
        if not isinstance(node, ast.ClassDef) or any(
            getattr(b, "id", getattr(b, "attr", None)) == "Enum" for b in node.bases
        ):
            continue
        for stmt in node.body:
            if isinstance(stmt, ast.Assign):
                for name in _bound(stmt.targets):
                    if not name.endswith("__"):
                        yield f"{node.name}.{name}", stmt.lineno


def _private_defs(tree: ast.Module):
    """(name, line) of each module-level ``_private`` function, class or
    assigned name."""
    return [(name, line) for name, line in [*_defs(tree), *_assigned(tree)]
            if name.startswith("_") and not name.endswith("__")]


def _public_defs(tree: ast.Module):
    """(name, line) of each module-level public function or class."""
    return [(name, line) for name, line in _defs(tree) if not name.startswith("_")]


def _referenced(tree: ast.Module) -> set:
    """Every name tree loads, reads as an attribute or imports; a name an
    assignment binds is not referenced by that."""
    names = set()
    for n in ast.walk(tree):
        if isinstance(n, ast.Name) and not isinstance(n.ctx, ast.Store):
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


def test_no_unreferenced_public_definitions():
    trees = {p.name: ast.parse(p.read_text(), filename=str(p)) for p in SOURCES}
    known = set().union(*map(_referenced, trees.values()))
    known |= set(re.findall(r"\w+", README.read_text()))
    dead = [f"{name}: {d} (line {line})" for name, tree in trees.items()
            for d, line in _public_defs(tree) if d not in known]
    assert not dead, (
        f"public definitions nothing in dlc references and the README does "
        f"not name: {dead}")


def test_no_unreferenced_class_attributes():
    trees = {p.name: ast.parse(p.read_text(), filename=str(p)) for p in SOURCES}
    known = set().union(*map(_referenced, trees.values()))
    known |= set(re.findall(r"\w+", README.read_text()))
    dead = [f"{name}: {d} (line {line})" for name, tree in trees.items()
            for d, line in _class_assigned(tree) if d.split(".")[1] not in known]
    assert not dead, (
        f"class attributes nothing in dlc reads and the README does not "
        f"name: {dead}")


def test_the_scan_finds_an_unreferenced_class_attribute():
    tree = ast.parse(
        "import enum\n"
        "class Carrier:\n    name = 'f'\n    has_inf = False\n"
        "    a, (b, _c) = 1, (2, 3)\n    __slots__ = ()\n    ann: int = 0\n"
        "    def lift(self): return self.name\n"
        "class Color(enum.Enum):\n    RED = 1\n"
        "class Kind(Enum):\n    BLUE = 2\n"
        "def f(c): return c.a + _c\n"
    )
    assert {d for d, _ in _class_assigned(tree)} == {
        "Carrier.name", "Carrier.has_inf", "Carrier.a", "Carrier.b", "Carrier._c"}
    assert {d for d, _ in _class_assigned(tree)
            if d.split(".")[1] not in _referenced(tree)} == {
        "Carrier.has_inf", "Carrier.b"}


def test_the_scan_finds_an_unreferenced_private_definition():
    tree = ast.parse("def _used(): pass\ndef _dead(): pass\n"
                     "class _Gone: pass\ndef __getattr__(name): pass\n"
                     "def public(): pass\nx = _used()\n"
                     "_TABLE = {}\n_READ, _UNREAD = 1, 2\n_ANN: int = _READ\n"
                     "__all__ = ['public']\nTABLE = {}\n_TABLE2 = _TABLE\n")
    assert {n for n, _ in _private_defs(tree)} - _referenced(tree) == {
        "_dead", "_Gone", "_UNREAD", "_ANN", "_TABLE2"}


def test_the_scan_finds_an_unreferenced_public_definition():
    tree = ast.parse("def used(): pass\ndef dead(): pass\nclass Gone: pass\n"
                     "def _private(): pass\nx = used()\n")
    assert {n for n, _ in _public_defs(tree)} - _referenced(tree) == {
        "dead", "Gone"}
