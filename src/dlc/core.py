"""Typed expression trees for the unified differentiable-logic language.

Every expression node carries a type tag.  Boolean tags embed a flag
profile saying which connectives (negation, implication, monoidal
conjunction/disjunction, lattice conjunction/disjunction) have defined
semantics; construction rejects any node whose connective is disabled by
the profile of its children.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, fields
from enum import Enum
from operator import attrgetter
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

    # Structural hash, filled in by the first ``__hash__`` call (_cached_hash).
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


# dlc-ast/1 kind -> node class, filled in by the @_node declarations
NODES: dict = {}
# kind -> the constructor arguments the kind itself stands for (Cmp's op)
_KIND_ARGS: dict = {}


def _node(kind, kids=(), flags=False):
    """Declare a node class, as a frozen dataclass whose constructor is its
    own (or its base's); everything generic about nodes derives from this.

    ``kind`` is the class's dlc-ast/1 kind, or an Enum whose member values
    are its kinds; the class's first field then holds the member, and its
    constructor takes it first.  ``kids`` names the fields holding child
    nodes, in document and constructor order; a str instead names the one
    field holding a tuple of them, written as a JSON list.  ``flags`` says
    whether the document carries the node's flag profile, which the
    constructor takes last.  Every other field but ``tag`` is payload,
    written as is (a tuple as a list) and passed in field order.
    """

    def declare(cls):
        cls = dataclass(frozen=True, init=False)(cls)
        names = [f.name for f in fields(cls)[1:]]  # all but tag
        if isinstance(kind, str):
            NODES[kind] = cls
            kind_of = attrgetter("KIND")
        else:
            for member in kind:
                NODES[member.value] = cls
                _KIND_ARGS[member.value] = (member,)
            kind_of = attrgetter(names.pop(0) + ".value")
        kid_fields = (kids,) if isinstance(kids, str) else kids
        if isinstance(kids, str) or len(kids) > 1:
            cls._kids = attrgetter(*kid_fields)
        elif kids:
            get = attrgetter(kids[0])
            cls._kids = lambda e: (get(e),)
        else:
            cls._kids = lambda e: ()
        cls.KIND = kind
        payload = tuple(n for n in names if n not in kid_fields)
        cls._codec = (kind_of, payload, kids, flags)
        # every field but the children, as a tuple, for _structural_eq
        own = [f.name for f in fields(cls) if f.name not in kid_fields]
        if len(own) > 1:
            cls._own = attrgetter(*own)
        else:
            get_own = attrgetter(own[0])
            cls._own = lambda e: (get_own(e),)
        # the generated hash, cached per node by _cached_hash
        cls._field_hash = cls.__hash__
        cls.__hash__ = _cached_hash
        cls.__eq__ = _structural_eq
        return cls

    return declare


def _cached_hash(self) -> int:
    """The dataclass-generated hash of self, computed once per node.

    The nodes below self whose hash is not cached yet are hashed in
    post-order from an explicit stack, so each generated hash finds its
    children's cached: the value is unchanged, and no call recurses on the
    formula's depth.  Nothing is hashed at construction.
    """
    h = self._hash
    if h is not None:
        return h
    stack = [(self, iter(children_of(self)))]
    while stack:
        node, kids = stack[-1]
        for c in kids:
            if c._hash is None:
                stack.append((c, iter(children_of(c))))
                break
        else:
            stack.pop()
            object.__setattr__(node, "_hash", node._field_hash())
    return self._hash


def _structural_eq(self, other):
    """The dataclass-generated equality, compared from an explicit stack.

    A pair of nodes is equal when it is one object, and unequal when the
    two cached hashes are both set and differ; otherwise its non-child
    fields are compared as a tuple (as the generated method does) and its
    children are pushed pair by pair.  No call recurses on the depth.
    """
    if other.__class__ is not self.__class__:
        return NotImplemented
    stack = [(self, other)]
    while stack:
        a, b = stack.pop()
        if a is b:
            continue
        cls = a.__class__
        if b.__class__ is not cls:
            return False
        ha, hb = a._hash, b._hash
        if ha is not None and hb is not None and ha != hb:
            return False
        if cls._own(a) != cls._own(b):
            return False
        ka, kb = cls._kids(a), cls._kids(b)
        if len(ka) != len(kb):
            return False
        stack.extend(zip(ka, kb))
    return True


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


@_node("bool", flags=True)
class BoolConst(Expr):
    value: bool

    def __init__(self, value: bool, flags: ConnectiveFlags):
        object.__setattr__(self, "value", bool(value))
        object.__setattr__(self, "tag", BoolT(flags))


@_node("real")
class RealConst(Expr):
    value: float

    def __init__(self, value: float):
        object.__setattr__(self, "value", float(value))
        object.__setattr__(self, "tag", REAL)


@_node("index")
class IndexConst(Expr):
    i: int
    n: int

    def __init__(self, i: int, n: int):
        if not 0 <= i < n:
            raise IndexOutOfRange(f"index {i} out of range for size {n}")
        object.__setattr__(self, "i", i)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "tag", IndexT(n))


@_node("vec")
class VecConst(Expr):
    values: tuple

    def __init__(self, values: Sequence[float]):
        vals = tuple(float(v) for v in values)
        if not vals:
            raise ArityMismatch("vector constants must be nonempty")
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "tag", VectorT(len(vals)))


@dataclass(frozen=True)
class _Nary(Expr):
    """Base for n-ary boolean connectives; subclasses set FLAG."""

    children: tuple
    FLAG = ""

    def __init__(self, children: Sequence[Expr]):
        children = tuple(children)
        name = type(self).__name__
        flags = _shared_flags(children, name)
        if not getattr(flags, self.FLAG):
            raise FlagViolation(f"{name} undefined under flag profile {flags}")
        object.__setattr__(self, "children", children)
        object.__setattr__(self, "tag", BoolT(flags))


@_node("and", kids="children")
class And(_Nary):
    FLAG = "lattice"


@_node("or", kids="children")
class Or(_Nary):
    FLAG = "lattice"


@_node("mand", kids="children")
class MAnd(_Nary):
    FLAG = "monoid"


@_node("mor", kids="children")
class MOr(_Nary):
    FLAG = "monoid"


@_node("not", kids=("child",))
class Not(Expr):
    child: Expr

    def __init__(self, child: Expr):
        flags = _bool_flags(child, "Not")
        if not flags.neg:
            raise FlagViolation(f"Not undefined under flag profile {flags}")
        object.__setattr__(self, "child", child)
        object.__setattr__(self, "tag", BoolT(flags))


@_node("impl", kids=("left", "right"))
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


@_node(CmpOp, kids=("left", "right"), flags=True)
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


@_node("fun")
class FunRef(Expr):
    name: str
    m: int
    n: int

    def __init__(self, name: str, m: int, n: int):
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "tag", FunT(m, n))


@_node("fun2")
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


@_node("app", kids=("fun", "arg"))
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


@_node("app2", kids=("fun", "arg1", "arg2"))
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


@_node("lookup", kids=("vec", "index"))
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
            if self.r is None or not 0 < self.r < math.inf:
                raise ValidationError("Yager requires a finite parameter r > 0")
        elif self.r is not None:
            raise ValidationError("parameter r only applies to Yager")
        if self.kind is LogicKind.STL:
            if self.nu is None or not 0 < self.nu < math.inf:
                raise ValidationError("STL requires a finite parameter nu > 0")
        elif self.nu is not None:
            raise ValidationError("parameter nu only applies to STL")

    @property
    def flag_profile(self) -> ConnectiveFlags:
        if self.kind is LogicKind.DL2:
            return DL2_FLAGS
        if self.kind is LogicKind.STL:
            return STL_FLAGS
        return FUZZY_FLAGS


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
# Traversal


def children_of(e: Expr) -> tuple:
    """The child nodes of e, in the order its declaration names them."""
    return type(e)._kids(e)


def walk(e: Expr) -> Iterator[Expr]:
    """e and every node below it, in pre-order."""
    stack = [e]
    while stack:
        node = stack.pop()
        yield node
        stack.extend(reversed(children_of(node)))


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
# Algebraic axioms


# Each axiom as (relation, lhs, rhs), the relation "eq" or "le" (lhs <=
# rhs): the residuated-lattice axioms R1-R9 (R10, residuation, is checked
# apart), N1-N4 for negation, M1-M3 for the monoidal dual, and idempotence.
# A term is a variable index, "top"/"bottom", or (node kind, *terms).
AXIOMS = {
    "R1": ("eq", ("and", 0, 1), ("and", 1, 0)),
    "R2": ("eq", ("and", 0, ("and", 1, 2)), ("and", ("and", 0, 1), 2)),
    "R3": ("eq", ("or", 0, 1), ("or", 1, 0)),
    "R4": ("eq", ("or", 0, ("or", 1, 2)), ("or", ("or", 0, 1), 2)),
    "R5": ("eq", ("and", 0, ("or", 0, 1)), 0),
    "R6": ("eq", ("or", 0, ("and", 0, 1)), 0),
    "R7": ("le", ("and", 0, ("or", 1, 2)), ("or", ("and", 0, 1), ("and", 0, 2))),
    "R8": ("eq", ("mand", 0, ("mand", 1, 2)), ("mand", ("mand", 0, 1), 2)),
    "R9": ("eq", ("mand", 0, "top"), 0),
    "N1": ("eq", ("not", 0), ("impl", 0, "bottom")),
    "N2": ("eq", ("not", ("not", 0)), 0),
    "N3": ("eq", ("not", ("and", 0, 1)), ("or", ("not", 0), ("not", 1))),
    "N4": ("eq", ("not", ("or", 0, 1)), ("and", ("not", 0), ("not", 1))),
    "M1": ("eq", ("mor", ("mor", 0, 1), 2), ("mor", 0, ("mor", 1, 2))),
    "M2": ("eq", ("not", ("mand", 0, 1)), ("mor", ("not", 0), ("not", 1))),
    "M3": ("eq", ("not", ("mor", 0, 1)), ("mand", ("not", 0), ("not", 1))),
    "IDEM": ("eq", ("mand", 0, 0), 0),
}


def term_value(t, ops, consts, xs):
    """The value of term t with variable i at xs[i], each constant at
    consts[name], and each node kind applied by ops[kind] to its operands'
    values."""
    if type(t) is int:
        return xs[t]
    if type(t) is str:
        return consts[t]
    return ops[t[0]](*[term_value(a, ops, consts, xs) for a in t[1:]])


# ---------------------------------------------------------------------------
# Random formula generation


def random_formula(profile: ConnectiveFlags, depth: int, rng: random.Random) -> Expr:
    """Closed well-typed Bool formula drawn from rng, which it advances; the
    same rng state gives the same formula.

    Leaves are comparisons over real literals drawn uniformly from
    (0, 10], or truth constants where the target logic interprets them
    (no falsum under the DL2 profile, no truth constants under STL's).
    """
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
    return NODES[k](kids)


# ---------------------------------------------------------------------------
# Serialization (canonical JSON, version "dlc-ast/1")


def _flags_to_json(f: ConnectiveFlags) -> dict:
    return {"neg": f.neg, "impl": f.impl, "monoid": f.monoid, "lattice": f.lattice}


def _flags_from_json(d: dict) -> ConnectiveFlags:
    return ConnectiveFlags(d["neg"], d["impl"], d["monoid"], d["lattice"])


def _node_to_json(e: Expr) -> dict:
    """The dlc-ast/1 document of e, written from an explicit stack."""
    root: dict = {}
    stack = [(e, root)]
    while stack:
        node, out = stack.pop()
        try:
            kind_of, payload, kids, flags = node._codec
        except AttributeError:
            raise ValidationError(f"unserializable node {node!r}") from None
        out["kind"] = kind_of(node)
        for name in payload:
            value = getattr(node, name)
            out[name] = list(value) if type(value) is tuple else value
        if kids:
            children = children_of(node)
            if isinstance(kids, str):
                docs = out[kids] = [{} for _ in children]
            else:
                docs = [out.setdefault(name, {}) for name in kids]
            stack += zip(reversed(children), reversed(docs))
        if flags:
            out["flags"] = _flags_to_json(node.tag.flags)
    return root


def _open_node(d) -> tuple:
    """(class, constructor arguments so far, list its children go to,
    iterator over its child documents, d) for the node document d; reads
    d's kind and payload, and each child document only when it is next."""
    try:
        kind = d["kind"]
    except (TypeError, KeyError) as exc:
        raise ValidationError(f"malformed node document: {d!r}") from exc
    cls = NODES.get(kind)
    if cls is None:
        raise ValidationError(f"unknown node kind {kind!r}")
    _, payload, kids, _ = cls._codec
    args = list(_KIND_ARGS.get(kind, ()))
    for name in payload:
        args.append(d[name])
    if isinstance(kids, str):
        out: list = []
        args.append(out)
        return cls, args, out, iter(d[kids]), d
    return cls, args, args, map(d.__getitem__, kids), d


def _node_from_json(doc) -> Expr:
    """The node of a dlc-ast/1 document, decoded from an explicit stack.

    Reads happen in the order a depth-first decoder makes them: a node's
    kind and payload, then each child document in turn, then its flags;
    a node is built once its children are.  So a malformed document
    raises what that decoder would raise.
    """
    stack = []
    frame = _open_node(doc)
    while True:
        cls, args, _, docs, d = frame
        for kid in docs:
            stack.append(frame)
            frame = _open_node(kid)
            break
        else:
            if cls._codec[3]:
                args.append(_flags_from_json(d["flags"]))
            node = cls(*args)
            if not stack:
                return node
            frame = stack.pop()
            frame[2].append(node)


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
