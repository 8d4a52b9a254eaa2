"""Every name a module of the package imports is used in that module."""

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
