"""Typed expression trees for the unified differentiable-logic language.

Every expression node carries a type tag.  Boolean tags embed a flag
profile saying which connectives (negation, implication, monoidal
conjunction/disjunction, lattice conjunction/disjunction) have defined
semantics; construction rejects any node whose connective is disabled by
the profile of its children.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from enum import Enum
from typing import Iterator, Optional, Sequence, Union

from .errors import (
    ArityMismatch,
    FlagViolation,
    IndexOutOfRange,
    ParseError,
    TypeMismatch,
    ValidationError,
)

SCHEMA_VERSION = "dlc-ast/1"


@dataclass(frozen=True)
class ConnectiveFlags:
    """Which connective families are defined (True) or undefined (False)."""

    neg: bool
    impl: bool
    monoid: bool
    lattice: bool


FUZZY_FLAGS = ConnectiveFlags(neg=True, impl=True, monoid=True, lattice=True)
DL2_FLAGS = ConnectiveFlags(neg=False, impl=True, monoid=True, lattice=True)
STL_FLAGS = ConnectiveFlags(neg=True, impl=False, monoid=False, lattice=True)
STL_INFTY_FLAGS = FUZZY_FLAGS


# ---------------------------------------------------------------------------
# Type tags


@dataclass(frozen=True)
class BoolT:
    flags: ConnectiveFlags


@dataclass(frozen=True)
class RealT:
    pass


@dataclass(frozen=True)
class IndexT:
    n: int

    def __post_init__(self):
        if self.n < 1:
            raise TypeMismatch("index type arity must be >= 1")


@dataclass(frozen=True)
class VectorT:
    n: int

    def __post_init__(self):
        if self.n < 1:
            raise TypeMismatch("vector type arity must be >= 1")


@dataclass(frozen=True)
class FunT:
    m: int
    n: int

    def __post_init__(self):
        if self.m < 1 or self.n < 1:
            raise TypeMismatch("function arities must be >= 1")


@dataclass(frozen=True)
class Fun2T:
    l: int
    m: int
    n: int

    def __post_init__(self):
        if self.l < 1 or self.m < 1 or self.n < 1:
            raise TypeMismatch("function arities must be >= 1")


TypeTag = Union[BoolT, RealT, IndexT, VectorT, FunT, Fun2T]

REAL = RealT()


# ---------------------------------------------------------------------------
# Expressions


class CmpOp(Enum):
    LE = "le"
    EQ = "eq"


@dataclass(frozen=True)
class Expr:
    tag: TypeTag

    # Structural hash, filled in by the first ``__hash__`` call (_hash_once).
    _hash = None
    # Flag profile of the last passing ``validate_for_logic`` walk from
    # this node as root; like _hash it is no field.
    _validated = None

    def __getstate__(self):
        # str and Enum hashes differ between processes, so a cached hash
        # must not travel with a pickled or copied node; the validation
        # memo stays behind too
        state = dict(self.__dict__)
        state.pop("_hash", None)
        state.pop("_validated", None)
        return state


def _hash_once(cls):
    """Make cls cache its dataclass-generated hash on first use.

    ``@dataclass(frozen=True)`` writes a ``__hash__`` into each decorated
    class that walks the whole subtree on every call, so each node class
    replaces its own.  The cached value is the generated one, so set and
    dict layouts are unchanged; it is no field, so ``__eq__``, ``repr`` and
    serialization never see it.  Nothing is hashed at construction.
    """
    field_hash = cls.__hash__

    def __hash__(self):
        h = self._hash
        if h is None:
            h = field_hash(self)
            object.__setattr__(self, "_hash", h)
        return h

    cls.__hash__ = __hash__
    return cls


def _bool_flags(e: Expr, what: str) -> ConnectiveFlags:
    if not isinstance(e.tag, BoolT):
        raise TypeMismatch(f"{what} requires Bool-typed children, got {e.tag}")
    return e.tag.flags


def _shared_flags(children: Sequence[Expr], what: str) -> ConnectiveFlags:
    if len(children) < 1:
        raise ArityMismatch(f"{what} requires at least one child")
    flags = _bool_flags(children[0], what)
    for c in children[1:]:
        if _bool_flags(c, what) != flags:
            raise TypeMismatch(f"{what} children carry differing flag profiles")
    return flags


@_hash_once
@dataclass(frozen=True)
class BoolConst(Expr):
    value: bool

    def __init__(self, value: bool, flags: ConnectiveFlags):
        object.__setattr__(self, "value", bool(value))
        object.__setattr__(self, "tag", BoolT(flags))


@_hash_once
@dataclass(frozen=True)
class RealConst(Expr):
    value: float

    def __init__(self, value: float):
        object.__setattr__(self, "value", float(value))
        object.__setattr__(self, "tag", REAL)


@_hash_once
@dataclass(frozen=True)
class IndexConst(Expr):
    i: int
    n: int

    def __init__(self, i: int, n: int):
        if not 0 <= i < n:
            raise IndexOutOfRange(f"index {i} out of range for size {n}")
        object.__setattr__(self, "i", i)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "tag", IndexT(n))


@_hash_once
@dataclass(frozen=True)
class VecConst(Expr):
    values: tuple

    def __init__(self, values: Sequence[float]):
        vals = tuple(float(v) for v in values)
        if not vals:
            raise ArityMismatch("vector constants must be nonempty")
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "tag", VectorT(len(vals)))


class _Nary(Expr):
    """Base for n-ary boolean connectives; subclasses set FLAG/NAME."""

    FLAG = ""
    NAME = ""

    def __init__(self, children: Sequence[Expr]):
        children = tuple(children)
        flags = _shared_flags(children, self.NAME)
        if not getattr(flags, self.FLAG):
            raise FlagViolation(f"{self.NAME} undefined under flag profile {flags}")
        object.__setattr__(self, "children", children)
        object.__setattr__(self, "tag", BoolT(flags))


@_hash_once
@dataclass(frozen=True)
class And(_Nary):
    children: tuple
    FLAG = "lattice"
    NAME = "And"
    __init__ = _Nary.__init__


@_hash_once
@dataclass(frozen=True)
class Or(_Nary):
    children: tuple
    FLAG = "lattice"
    NAME = "Or"
    __init__ = _Nary.__init__


@_hash_once
@dataclass(frozen=True)
class MAnd(_Nary):
    children: tuple
    FLAG = "monoid"
    NAME = "MAnd"
    __init__ = _Nary.__init__


@_hash_once
@dataclass(frozen=True)
class MOr(_Nary):
    children: tuple
    FLAG = "monoid"
    NAME = "MOr"
    __init__ = _Nary.__init__


@_hash_once
@dataclass(frozen=True)
class Not(Expr):
    child: Expr

    def __init__(self, child: Expr):
        flags = _bool_flags(child, "Not")
        if not flags.neg:
            raise FlagViolation(f"Not undefined under flag profile {flags}")
        object.__setattr__(self, "child", child)
        object.__setattr__(self, "tag", BoolT(flags))


@_hash_once
@dataclass(frozen=True)
class Impl(Expr):
    left: Expr
    right: Expr

    def __init__(self, left: Expr, right: Expr):
        flags = _shared_flags((left, right), "Impl")
        if not flags.impl:
            raise FlagViolation(f"Impl undefined under flag profile {flags}")
        object.__setattr__(self, "left", left)
        object.__setattr__(self, "right", right)
        object.__setattr__(self, "tag", BoolT(flags))


@_hash_once
@dataclass(frozen=True)
class Cmp(Expr):
    op: CmpOp
    left: Expr
    right: Expr

    def __init__(self, op: CmpOp, left: Expr, right: Expr, flags: ConnectiveFlags):
        for side in (left, right):
            if not isinstance(side.tag, RealT):
                raise TypeMismatch(f"comparison over non-real operand {side.tag}")
        object.__setattr__(self, "op", op)
        object.__setattr__(self, "left", left)
        object.__setattr__(self, "right", right)
        object.__setattr__(self, "tag", BoolT(flags))


@_hash_once
@dataclass(frozen=True)
class FunRef(Expr):
    name: str
    m: int
    n: int

    def __init__(self, name: str, m: int, n: int):
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "tag", FunT(m, n))


@_hash_once
@dataclass(frozen=True)
class Fun2Ref(Expr):
    name: str
    l: int
    m: int
    n: int

    def __init__(self, name: str, l: int, m: int, n: int):
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "l", l)
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "tag", Fun2T(l, m, n))


def _vec_arity(e: Expr, what: str) -> int:
    if not isinstance(e.tag, VectorT):
        raise TypeMismatch(f"{what} requires a vector operand, got {e.tag}")
    return e.tag.n


@_hash_once
@dataclass(frozen=True)
class App(Expr):
    fun: Expr
    arg: Expr

    def __init__(self, fun: Expr, arg: Expr):
        if not isinstance(fun.tag, FunT):
            raise TypeMismatch(f"App requires a unary function, got {fun.tag}")
        if _vec_arity(arg, "App") != fun.tag.m:
            raise ArityMismatch(
                f"App argument arity {arg.tag} vs function domain {fun.tag.m}"
            )
        object.__setattr__(self, "fun", fun)
        object.__setattr__(self, "arg", arg)
        object.__setattr__(self, "tag", VectorT(fun.tag.n))


@_hash_once
@dataclass(frozen=True)
class App2(Expr):
    fun: Expr
    arg1: Expr
    arg2: Expr

    def __init__(self, fun: Expr, arg1: Expr, arg2: Expr):
        if not isinstance(fun.tag, Fun2T):
            raise TypeMismatch(f"App2 requires a binary function, got {fun.tag}")
        if _vec_arity(arg1, "App2") != fun.tag.l:
            raise ArityMismatch("App2 first argument arity mismatch")
        if _vec_arity(arg2, "App2") != fun.tag.m:
            raise ArityMismatch("App2 second argument arity mismatch")
        object.__setattr__(self, "fun", fun)
        object.__setattr__(self, "arg1", arg1)
        object.__setattr__(self, "arg2", arg2)
        object.__setattr__(self, "tag", VectorT(fun.tag.n))


@_hash_once
@dataclass(frozen=True)
class Lookup(Expr):
    vec: Expr
    index: Expr

    def __init__(self, vec: Expr, index: Expr):
        n = _vec_arity(vec, "Lookup")
        if not isinstance(index.tag, IndexT):
            raise TypeMismatch(f"Lookup requires an index operand, got {index.tag}")
        if index.tag.n != n:
            raise ArityMismatch(
                f"Lookup index range {index.tag.n} differs from vector size {n}"
            )
        object.__setattr__(self, "vec", vec)
        object.__setattr__(self, "index", index)
        object.__setattr__(self, "tag", REAL)


# ---------------------------------------------------------------------------
# Logic identifiers


class LogicKind(Enum):
    GODEL = "goedel"
    LUKASIEWICZ = "lukasiewicz"
    YAGER = "yager"
    PRODUCT = "product"
    DL2 = "dl2"
    STL = "stl"
    STL_INFTY = "stl-inf"


@dataclass(frozen=True)
class LogicId:
    kind: LogicKind
    r: Optional[float] = None
    nu: Optional[float] = None

    def __post_init__(self):
        if self.kind is LogicKind.YAGER:
            if self.r is None or self.r <= 0:
                raise ValidationError("Yager requires parameter r > 0")
        elif self.r is not None:
            raise ValidationError("parameter r only applies to Yager")
        if self.kind is LogicKind.STL:
            if self.nu is None or self.nu <= 0:
                raise ValidationError("STL requires parameter nu > 0")
        elif self.nu is not None:
            raise ValidationError("parameter nu only applies to STL")

    @property
    def flag_profile(self) -> ConnectiveFlags:
        if self.kind is LogicKind.DL2:
            return DL2_FLAGS
        if self.kind is LogicKind.STL:
            return STL_FLAGS
        return FUZZY_FLAGS

    @property
    def is_fuzzy(self) -> bool:
        return self.kind in (
            LogicKind.GODEL,
            LogicKind.LUKASIEWICZ,
            LogicKind.YAGER,
            LogicKind.PRODUCT,
        )


GODEL = LogicId(LogicKind.GODEL)
LUKASIEWICZ = LogicId(LogicKind.LUKASIEWICZ)
PRODUCT = LogicId(LogicKind.PRODUCT)
DL2 = LogicId(LogicKind.DL2)
STL_INFTY = LogicId(LogicKind.STL_INFTY)


def yager(r: float) -> LogicId:
    return LogicId(LogicKind.YAGER, r=r)


def stl(nu: float) -> LogicId:
    return LogicId(LogicKind.STL, nu=nu)


ALL_FUZZY = (GODEL, LUKASIEWICZ, yager(2.0), PRODUCT)


# ---------------------------------------------------------------------------
# Generic construction / traversal


_NARY_KINDS = {"and": And, "or": Or, "mand": MAnd, "mor": MOr}


def build_node(kind: str, children: Sequence, extra=None) -> Expr:
    """Uniform node constructor; validates flags, arities and child tags."""
    k = kind.lower()
    if k in _NARY_KINDS:
        return _NARY_KINDS[k](tuple(children))
    if k == "not":
        (c,) = children
        return Not(c)
    if k == "impl":
        a, b = children
        return Impl(a, b)
    if k in ("le", "eq"):
        a, b = children
        return Cmp(CmpOp(k), a, b, extra)
    if k == "bool":
        return BoolConst(children[0], extra)
    if k == "real":
        return RealConst(children[0])
    if k == "vec":
        return VecConst(children)
    if k == "index":
        i, n = children
        return IndexConst(i, n)
    if k == "fun":
        name, m, n = children
        return FunRef(name, m, n)
    if k == "fun2":
        name, l, m, n = children
        return Fun2Ref(name, l, m, n)
    if k == "app":
        f, a = children
        return App(f, a)
    if k == "app2":
        f, a, b = children
        return App2(f, a, b)
    if k == "lookup":
        v, i = children
        return Lookup(v, i)
    raise ValidationError(f"unknown node kind {kind!r}")


def children_of(e: Expr) -> tuple:
    if isinstance(e, (And, Or, MAnd, MOr)):
        return e.children
    if isinstance(e, Not):
        return (e.child,)
    if isinstance(e, (Impl, Cmp)):
        return (e.left, e.right)
    if isinstance(e, App):
        return (e.fun, e.arg)
    if isinstance(e, App2):
        return (e.fun, e.arg1, e.arg2)
    if isinstance(e, Lookup):
        return (e.vec, e.index)
    return ()


def walk(e: Expr) -> Iterator[Expr]:
    yield e
    for c in children_of(e):
        yield from walk(c)


def validate_for_logic(e: Expr, logic: LogicId) -> None:
    """Check every Bool node in e carries exactly the logic's flag profile.

    The walk is in pre-order, so the first offending node is reported.
    A walk that passes records the profile on e, and a later call with the
    same root and profile returns at once; any other profile walks again.
    The memo is sound because nodes are not mutated after construction.
    """
    profile = logic.flag_profile
    if e._validated == profile:
        return
    stack = [e]
    while stack:
        node = stack.pop()
        tag = node.tag
        if isinstance(tag, BoolT) and tag.flags != profile:
            raise FlagViolation(
                f"node at path {_path_to(e, node)} carries flags {tag.flags}, "
                f"expected {profile} for {logic.kind.value}"
            )
        stack.extend(reversed(children_of(node)))
    object.__setattr__(e, "_validated", profile)


def _path_to(root: Expr, target: Expr) -> tuple:
    """Child-index path of target's first occurrence in root, in pre-order."""
    stack = [((), root)]
    while stack:
        path, node = stack.pop()
        if node is target:
            return path
        kids = children_of(node)
        stack.extend((path + (i,), kids[i]) for i in reversed(range(len(kids))))


# ---------------------------------------------------------------------------
# Random formula generation


def random_formula(profile: ConnectiveFlags, depth: int, seed) -> Expr:
    """Closed well-typed Bool formula; deterministic for a given seed.

    Leaves are comparisons over real literals drawn uniformly from
    (0, 10], or truth constants where the target logic interprets them
    (no falsum under the DL2 profile, no truth constants under STL's).
    """
    rng = random.Random(seed)
    return _random_formula(profile, depth, rng)


def _random_leaf(profile: ConnectiveFlags, rng: random.Random) -> Expr:
    # positive literals keep fuzzy comparison guards (r1 = -r2) trivially off
    choices = ["cmp", "cmp"]
    if profile.impl:  # fuzzy and DL2 profiles interpret at least one constant
        choices.append("const")
    pick = rng.choice(choices)
    if pick == "const":
        value = True if not profile.neg else rng.random() < 0.5
        return BoolConst(value, profile)
    op = rng.choice([CmpOp.LE, CmpOp.EQ])
    a = RealConst(round(rng.uniform(0.1, 10.0), 3))
    b = RealConst(round(rng.uniform(0.1, 10.0), 3))
    return Cmp(op, a, b, profile)


def _random_formula(profile: ConnectiveFlags, depth: int, rng: random.Random) -> Expr:
    if depth <= 0:
        return _random_leaf(profile, rng)
    kinds = []
    if profile.lattice:
        kinds += ["and", "or"]
    if profile.monoid:
        kinds += ["mand", "mor"]
    if profile.neg:
        kinds.append("not")
    if profile.impl:
        kinds.append("impl")
    kinds.append("leaf")
    k = rng.choice(kinds)
    if k == "leaf":
        return _random_leaf(profile, rng)
    if k == "not":
        return Not(_random_formula(profile, depth - 1, rng))
    if k == "impl":
        return Impl(
            _random_formula(profile, depth - 1, rng),
            _random_formula(profile, depth - 1, rng),
        )
    width = rng.randint(1, 3)
    kids = tuple(_random_formula(profile, depth - 1, rng) for _ in range(width))
    return _NARY_KINDS[k](kids)


# ---------------------------------------------------------------------------
# Serialization (canonical JSON, version "dlc-ast/1")


def _flags_to_json(f: ConnectiveFlags) -> dict:
    return {"neg": f.neg, "impl": f.impl, "monoid": f.monoid, "lattice": f.lattice}


def _flags_from_json(d: dict) -> ConnectiveFlags:
    return ConnectiveFlags(d["neg"], d["impl"], d["monoid"], d["lattice"])


def _node_to_json(e: Expr) -> dict:
    if isinstance(e, BoolConst):
        return {"kind": "bool", "value": e.value, "flags": _flags_to_json(e.tag.flags)}
    if isinstance(e, RealConst):
        return {"kind": "real", "value": e.value}
    if isinstance(e, IndexConst):
        return {"kind": "index", "i": e.i, "n": e.n}
    if isinstance(e, VecConst):
        return {"kind": "vec", "values": list(e.values)}
    if isinstance(e, (And, Or, MAnd, MOr)):
        kind = {And: "and", Or: "or", MAnd: "mand", MOr: "mor"}[type(e)]
        return {"kind": kind, "children": [_node_to_json(c) for c in e.children]}
    if isinstance(e, Not):
        return {"kind": "not", "child": _node_to_json(e.child)}
    if isinstance(e, Impl):
        return {
            "kind": "impl",
            "left": _node_to_json(e.left),
            "right": _node_to_json(e.right),
        }
    if isinstance(e, Cmp):
        return {
            "kind": e.op.value,
            "left": _node_to_json(e.left),
            "right": _node_to_json(e.right),
            "flags": _flags_to_json(e.tag.flags),
        }
    if isinstance(e, FunRef):
        return {"kind": "fun", "name": e.name, "m": e.m, "n": e.n}
    if isinstance(e, Fun2Ref):
        return {"kind": "fun2", "name": e.name, "l": e.l, "m": e.m, "n": e.n}
    if isinstance(e, App):
        return {"kind": "app", "fun": _node_to_json(e.fun), "arg": _node_to_json(e.arg)}
    if isinstance(e, App2):
        return {
            "kind": "app2",
            "fun": _node_to_json(e.fun),
            "arg1": _node_to_json(e.arg1),
            "arg2": _node_to_json(e.arg2),
        }
    if isinstance(e, Lookup):
        return {
            "kind": "lookup",
            "vec": _node_to_json(e.vec),
            "index": _node_to_json(e.index),
        }
    raise ValidationError(f"unserializable node {e!r}")


def _node_from_json(d: dict) -> Expr:
    try:
        kind = d["kind"]
    except (TypeError, KeyError) as exc:
        raise ValidationError(f"malformed node document: {d!r}") from exc
    if kind == "bool":
        return BoolConst(d["value"], _flags_from_json(d["flags"]))
    if kind == "real":
        return RealConst(d["value"])
    if kind == "index":
        return IndexConst(d["i"], d["n"])
    if kind == "vec":
        return VecConst(d["values"])
    if kind in _NARY_KINDS:
        return _NARY_KINDS[kind]([_node_from_json(c) for c in d["children"]])
    if kind == "not":
        return Not(_node_from_json(d["child"]))
    if kind == "impl":
        return Impl(_node_from_json(d["left"]), _node_from_json(d["right"]))
    if kind in ("le", "eq"):
        return Cmp(
            CmpOp(kind),
            _node_from_json(d["left"]),
            _node_from_json(d["right"]),
            _flags_from_json(d["flags"]),
        )
    if kind == "fun":
        return FunRef(d["name"], d["m"], d["n"])
    if kind == "fun2":
        return Fun2Ref(d["name"], d["l"], d["m"], d["n"])
    if kind == "app":
        return App(_node_from_json(d["fun"]), _node_from_json(d["arg"]))
    if kind == "app2":
        return App2(
            _node_from_json(d["fun"]),
            _node_from_json(d["arg1"]),
            _node_from_json(d["arg2"]),
        )
    if kind == "lookup":
        return Lookup(_node_from_json(d["vec"]), _node_from_json(d["index"]))
    raise ValidationError(f"unknown node kind {kind!r}")


def expr_to_text(e: Expr) -> str:
    return json.dumps({"version": SCHEMA_VERSION, "root": _node_to_json(e)})


def expr_from_text(text) -> Expr:
    if isinstance(text, bytes):
        text = text.decode("utf-8")
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(str(exc), line=exc.lineno, col=exc.colno) from exc
    if not isinstance(doc, dict) or doc.get("version") != SCHEMA_VERSION:
        raise ValidationError(f"expected document version {SCHEMA_VERSION}")
    return _node_from_json(doc["root"])
