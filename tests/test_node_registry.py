"""Every expression node class is declared once, and everything generic
about nodes (registry, codec, evaluator table) knows every class."""

from dlc import core, semantics


def _node_classes():
    """The Expr subclasses of dlc.core that have no subclasses there."""
    found, stack = [], [core.Expr]
    while stack:
        cls = stack.pop()
        subs = [s for s in cls.__subclasses__() if s.__module__ == core.__name__]
        if not subs and cls is not core.Expr:
            found.append(cls)
        stack.extend(subs)
    return found


def test_every_node_class_is_in_the_registry():
    classes = _node_classes()
    assert len(classes) == 16
    assert set(classes) == set(core.NODES.values())


def test_every_registered_kind_round_trips():
    flags = core.FUZZY_FLAGS
    x = core.VecConst((1.0, 2.0))
    real = core.RealConst(0.5)
    cmp = core.Cmp(core.CmpOp.LE, real, real, flags)
    sample = {
        "bool": core.BoolConst(True, flags),
        "real": real,
        "index": core.IndexConst(1, 2),
        "vec": x,
        "and": core.And((cmp, cmp)),
        "or": core.Or((cmp,)),
        "mand": core.MAnd((cmp, cmp, cmp)),
        "mor": core.MOr((cmp, cmp)),
        "not": core.Not(cmp),
        "impl": core.Impl(cmp, cmp),
        "le": cmp,
        "eq": core.Cmp(core.CmpOp.EQ, real, real, flags),
        "fun": core.FunRef("f", 2, 2),
        "fun2": core.Fun2Ref("sub", 2, 2, 2),
        "app": core.App(core.FunRef("f", 2, 2), x),
        "app2": core.App2(core.Fun2Ref("sub", 2, 2, 2), x, x),
        "lookup": core.Lookup(x, core.IndexConst(0, 2)),
    }
    assert set(sample) == set(core.NODES)
    for kind, node in sample.items():
        assert type(node) is core.NODES[kind]
        doc = core._node_to_json(node)
        assert doc["kind"] == kind
        back = core._node_from_json(doc)
        assert back == node and hash(back) == hash(node)


def test_every_node_class_has_an_evaluator():
    for cls in _node_classes():
        assert cls in semantics._EVAL, cls.__name__
