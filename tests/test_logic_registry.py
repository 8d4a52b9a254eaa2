"""Every logic is declared once, in ``semantics.LOGICS``, and no other
module but ``core`` branches on which logic it is handed."""

import ast
from collections import Counter
from pathlib import Path

import pytest

import dlc
from dlc import semantics
from dlc.calculus import CALCULI
from dlc.core import BoolConst, LogicId, LogicKind
from dlc.errors import UndefinedConnective
from dlc.laws import ValueDomain
from dlc.semantics import LOGICS, interpret

SOURCES = sorted(Path(dlc.__file__).parent.glob("*.py"))
# core types logics (LogicKind, LogicId's parameter checks, flag profiles);
# semantics holds the table
ALLOWED = {"core.py", "semantics.py"}
NAMES = {kind.value for kind in LogicKind}


def _logic(kind: LogicKind) -> LogicId:
    """A LogicId of kind, with its parameter if the entry takes one."""
    param = LOGICS[kind].param
    return LogicId(kind, **({param: 2.0} if param else {}))


def test_every_kind_has_exactly_one_entry():
    assert set(LOGICS) == set(LogicKind)
    for kind, spec in LOGICS.items():
        assert spec.kind is kind
    tree = ast.parse(Path(semantics.__file__).read_text())
    (table,) = [node for node in tree.body if isinstance(node, ast.AnnAssign)
                and getattr(node.target, "id", None) == "LOGICS"]
    named = Counter(node.attr for node in ast.walk(table)
                    if isinstance(node, ast.Attribute)
                    and getattr(node.value, "id", None) == "LogicKind")
    assert named == Counter(kind.name for kind in LogicKind)


@pytest.mark.parametrize("kind", list(LogicKind), ids=lambda k: k.value)
def test_constants_and_carrier_agree_with_interpret(kind):
    spec = LOGICS[kind]
    logic = _logic(kind)
    c = spec.carrier
    value_type = type(c.lift(0.0))
    consts = ValueDomain(logic).consts
    for value, name, make in ((True, "top", spec.top),
                              (False, "bottom", spec.bottom)):
        node = BoolConst(value, logic.flag_profile)
        if make is None:
            with pytest.raises(UndefinedConnective) as err:
                interpret(logic, node, carrier=c)
            assert str(err.value) == spec.no_constant
            assert name not in consts
            continue
        got = interpret(logic, node, carrier=c)
        assert type(got) is value_type
        assert c.primal(got) == c.primal(make(c)) == c.primal(consts[name])
    for w in spec.witnesses:
        assert type(w) is value_type


def test_a_sequent_reading_exactly_where_a_calculus_is():
    with_calculus = {calc.logic.kind for calc in CALCULI.values()}
    assert {k for k, spec in LOGICS.items() if spec.sequent} == with_calculus


def _branches_on_a_logic(tree: ast.Module):
    """(what, line) of each place that names a LogicKind member, reads
    ``is_fuzzy`` or compares with a logic name."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            if (getattr(node.value, "id", None) == "LogicKind"
                    and node.attr in LogicKind.__members__):
                yield f"LogicKind.{node.attr}", node.lineno
            elif node.attr == "is_fuzzy":
                yield "is_fuzzy", node.lineno
        elif isinstance(node, ast.Compare):
            for side in [node.left, *node.comparators]:
                items = side.elts if isinstance(side, (ast.Tuple, ast.List,
                                                       ast.Set)) else [side]
                for item in items:
                    if (isinstance(item, ast.Constant)
                            and item.value in NAMES):
                        yield f"comparison with {item.value!r}", node.lineno


@pytest.mark.parametrize("path", [p for p in SOURCES if p.name not in ALLOWED],
                         ids=lambda p: p.name)
def test_no_module_branches_on_the_logic(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    found = [f"{what} (line {line})" for what, line in _branches_on_a_logic(tree)]
    assert not found, (f"{path.name} branches on the logic instead of reading "
                       f"its semantics.LOGICS entry: {found}")


def test_the_scan_finds_a_branch_on_the_logic():
    tree = ast.parse(
        "if logic.kind is LogicKind.DL2: pass\n"
        "if logic.kind.value == 'stl': pass\n"
        "if name in ('yager', 'other'): pass\n"
        "if logic.is_fuzzy: pass\n"
        "if calc == 'sequent': pass\n"
    )
    assert sorted(_branches_on_a_logic(tree), key=lambda f: f[1]) == [
        ("LogicKind.DL2", 1), ("comparison with 'stl'", 2),
        ("comparison with 'yager'", 3), ("is_fuzzy", 4),
    ]
