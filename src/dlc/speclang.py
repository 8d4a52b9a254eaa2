"""Surface specification language: parser, elaboration, and networks.

A spec file declares named vectors, scalars, and networks, then states
one goal formula over them:

    vector v 2
    vector x 2
    scalar eps
    scalar delta
    network N 2 2
    goal |sub(x,v)|_inf <= eps => |sub(N(x),N(v))|_inf <= delta

Formula connectives: ``=>`` (implication, right-associative), ``/\\``
and ``\\/`` (lattice), ``(*)`` and ``(+)`` (monoidal), ``~`` (negation),
and the comparisons ``<=`` / ``==`` over real expressions.  Real
expressions: number literals, scalar names, ``v[i]``, and
``|e|_inf`` (infinity norm of a vector expression).  Vector
expressions: vector names, network application ``N(x)``, binary
application ``f(x,y)``, and the built-in ``sub(a,b)`` (element-wise
difference).  Precedence, tightest first: comparisons, ``~``, the
binary connectives (left-associative, one level), ``=>``.

The infinity norm uses max of absolute differences of coordinates.

Elaboration lowers a parsed goal to the core expression language.
Named inputs (vectors and scalars) become applications of environment
functions to a dummy unit vector, so evaluation binds them late and
gradients flow through them with the dual-number carrier.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from .carriers import Dual, DualCarrier, F64Carrier, Tangents
from .core import (
    App,
    App2,
    Cmp,
    CmpOp,
    ConnectiveFlags,
    Expr,
    FUZZY_FLAGS,
    Fun2Ref,
    FunRef,
    Impl,
    IndexConst,
    LogicId,
    Lookup,
    NODES,
    Not,
    RealConst,
    VecConst,
)
from .errors import (
    ArityMismatch,
    DuplicateDeclaration,
    ParseError,
    RejectedLogic,
    UndeclaredIdentifier,
    ValidationError,
)
from .semantics import LOGICS, Env, interpret

# ---------------------------------------------------------------------------
# Surface AST


@dataclass(frozen=True)
class RNum:
    value: float


@dataclass(frozen=True)
class RName:  # scalar reference
    name: str


@dataclass(frozen=True)
class RIndex:  # vector coordinate
    name: str
    i: int


@dataclass(frozen=True)
class VName:  # vector reference
    name: str


@dataclass(frozen=True)
class VCall:  # network / function / sub application
    name: str
    args: tuple

    def __init__(self, name, args):
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "args", tuple(args))


@dataclass(frozen=True)
class RNorm:  # |e|_inf
    arg: object


@dataclass(frozen=True)
class FCmp:
    op: str  # "le" | "eq"
    left: object
    right: object


@dataclass(frozen=True)
class FNot:
    child: object


@dataclass(frozen=True)
class FBin:
    op: str  # "and" | "or" | "mand" | "mor"
    left: object
    right: object


@dataclass(frozen=True)
class FImpl:
    left: object
    right: object


@dataclass(frozen=True)
class SpecDoc:
    vectors: Tuple[Tuple[str, int], ...]
    scalars: Tuple[str, ...]
    networks: Tuple[Tuple[str, int, int], ...]
    goal: object

    # Elaborated goal per flag profile, filled in by ``_goal``.  It is no
    # field, so ``==``, ``hash`` and ``repr`` never see it.
    _goals = None

    def __getstate__(self):
        # a pickled or copied doc starts without elaborated goals
        state = dict(self.__dict__)
        state.pop("_goals", None)
        return state


# ---------------------------------------------------------------------------
# Tokenizer

_TOKEN_RE = re.compile(
    r"""(?P<ws>[ \t]+)
      | (?P<num>\d+(?:\.\d+)?(?:[eE][+-]?\d+)?)
      | (?P<ident>[A-Za-z_][A-Za-z_0-9]*)
      | (?P<op>\(\*\)|\(\+\)|=>|<=|==|\|_inf|/\\|\\/|[~()\[\],|])
    """,
    re.VERBOSE,
)


@dataclass
class Token:
    kind: str
    text: str
    line: int
    col: int


def _tokenize(text: str, line: int) -> List[Token]:
    out = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r}", line, pos + 1)
        pos = m.end()
        kind = m.lastgroup
        if kind == "ws":
            continue
        out.append(Token(kind, m.group(), line, m.start() + 1))
    return out


class _Parser:
    def __init__(self, tokens: List[Token], doc_line: int):
        self.tokens = tokens
        self.i = 0
        self.line = doc_line

    def peek(self) -> Optional[Token]:
        return self.tokens[self.i] if self.i < len(self.tokens) else None

    def next(self) -> Token:
        t = self.peek()
        if t is None:
            raise ParseError("unexpected end of formula", self.line, None)
        self.i += 1
        return t

    def expect(self, text: str) -> Token:
        t = self.next()
        if t.text != text:
            raise ParseError(f"expected {text!r}, found {t.text!r}", t.line, t.col)
        return t

    # formula := conj ('=>' formula)?           (right-associative)
    def formula(self):
        lhs = self.conj()
        t = self.peek()
        if t is not None and t.text == "=>":
            self.next()
            return FImpl(lhs, self.formula())
        return lhs

    _BIN = {"/\\": "and", "\\/": "or", "(*)": "mand", "(+)": "mor"}

    def conj(self):
        node = self.neg()
        while True:
            t = self.peek()
            if t is None or t.text not in self._BIN:
                return node
            self.next()
            node = FBin(self._BIN[t.text], node, self.neg())

    def neg(self):
        t = self.peek()
        if t is not None and t.text == "~":
            self.next()
            return FNot(self.neg())
        return self.atom_formula()

    def atom_formula(self):
        t = self.peek()
        if t is None:
            raise ParseError("unexpected end of formula", self.line, None)
        if t.text == "(":
            self.next()
            inner = self.formula()
            self.expect(")")
            return inner
        lhs = self.real_expr()
        op = self.next()
        if op.text not in ("<=", "=="):
            raise ParseError(
                f"expected a comparison, found {op.text!r}", op.line, op.col
            )
        rhs = self.real_expr()
        return FCmp("le" if op.text == "<=" else "eq", lhs, rhs)

    def real_expr(self):
        t = self.next()
        if t.kind == "num":
            return RNum(float(t.text))
        if t.text == "|":
            arg = self.vec_expr()
            self.expect("|_inf")
            return RNorm(arg)
        if t.kind == "ident":
            nxt = self.peek()
            if nxt is not None and nxt.text == "[":
                self.next()
                idx = self.next()
                if idx.kind != "num" or not idx.text.isdigit():
                    raise ParseError("index must be an integer", idx.line, idx.col)
                self.expect("]")
                return RIndex(t.text, int(idx.text))
            return RName(t.text)
        raise ParseError(f"expected a real expression at {t.text!r}", t.line, t.col)

    def vec_expr(self):
        t = self.next()
        if t.kind != "ident":
            raise ParseError(
                f"expected a vector expression at {t.text!r}", t.line, t.col
            )
        nxt = self.peek()
        if nxt is not None and nxt.text == "(":
            self.next()
            args = [self.vec_expr()]
            while self.peek() is not None and self.peek().text == ",":
                self.next()
                args.append(self.vec_expr())
            self.expect(")")
            return VCall(t.text, args)
        return VName(t.text)

    def done(self) -> None:
        t = self.peek()
        if t is not None:
            raise ParseError(f"trailing input {t.text!r}", t.line, t.col)


# ---------------------------------------------------------------------------
# Document parsing


def parse_formula(text: str, line: int = 1):
    p = _Parser(_tokenize(text, line), line)
    f = p.formula()
    p.done()
    return f


def parse_spec(text: str) -> SpecDoc:
    vectors: List[Tuple[str, int]] = []
    scalars: List[str] = []
    networks: List[Tuple[str, int, int]] = []
    seen: set = set()
    goal = None

    def declare(name, lineno):
        if name in seen:
            raise DuplicateDeclaration(f"{name!r} declared twice (line {lineno})")
        seen.add(name)

    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        head, _, rest = line.partition(" ")
        if head == "vector":
            parts = rest.split()
            if len(parts) != 2 or not parts[1].isdigit() or int(parts[1]) < 1:
                raise ParseError("vector declaration needs: name arity", lineno, 1)
            declare(parts[0], lineno)
            vectors.append((parts[0], int(parts[1])))
        elif head == "scalar":
            parts = rest.split()
            if len(parts) != 1:
                raise ParseError("scalar declaration needs: name", lineno, 1)
            declare(parts[0], lineno)
            scalars.append(parts[0])
        elif head == "network":
            parts = rest.split()
            arities = parts[1:]
            if len(parts) != 3 or not all(p.isdigit() and int(p) >= 1 for p in arities):
                raise ParseError(
                    "network declaration needs: name in-arity out-arity", lineno, 1
                )
            declare(parts[0], lineno)
            networks.append((parts[0], int(parts[1]), int(parts[2])))
        elif head == "goal":
            if goal is not None:
                raise ParseError("multiple goal lines", lineno, 1)
            goal = parse_formula(rest, lineno)
        else:
            raise ParseError(f"unknown declaration {head!r}", lineno, 1)
    if goal is None:
        raise ParseError("spec has no goal", 1, 1)
    doc = SpecDoc(tuple(vectors), tuple(scalars), tuple(networks), goal)
    _lower(doc, FUZZY_FLAGS)  # checks the goal against the declarations
    return doc


# ---------------------------------------------------------------------------
# Pretty printer (parse . pretty == identity on the surface AST)


def pretty_formula(f, prec: int = 0) -> str:
    # precedence levels: 0 impl, 1 binary, 2 neg, 3 atoms
    if isinstance(f, FImpl):
        s = f"{pretty_formula(f.left, 1)} => {pretty_formula(f.right, 0)}"
        return f"({s})" if prec > 0 else s
    if isinstance(f, FBin):
        sym = {"and": "/\\", "or": "\\/", "mand": "(*)", "mor": "(+)"}[f.op]
        s = f"{pretty_formula(f.left, 1)} {sym} {pretty_formula(f.right, 2)}"
        return f"({s})" if prec > 1 else s
    if isinstance(f, FNot):
        return f"~{pretty_formula(f.child, 2)}"
    if isinstance(f, FCmp):
        sym = "<=" if f.op == "le" else "=="
        return f"{pretty_real(f.left)} {sym} {pretty_real(f.right)}"
    raise ValidationError(f"not a formula: {f!r}")


def pretty_real(e) -> str:
    if isinstance(e, RNum):
        return repr(e.value) if e.value != int(e.value) else str(int(e.value))
    if isinstance(e, RName):
        return e.name
    if isinstance(e, RIndex):
        return f"{e.name}[{e.i}]"
    if isinstance(e, RNorm):
        return f"|{pretty_vec(e.arg)}|_inf"
    raise ValidationError(f"not a real expression: {e!r}")


def pretty_vec(e) -> str:
    if isinstance(e, VName):
        return e.name
    if isinstance(e, VCall):
        return f"{e.name}({','.join(pretty_vec(a) for a in e.args)})"
    raise ValidationError(f"not a vector expression: {e!r}")


def pretty_spec(doc: SpecDoc) -> str:
    lines = []
    for name, n in doc.vectors:
        lines.append(f"vector {name} {n}")
    for name in doc.scalars:
        lines.append(f"scalar {name}")
    for name, m, n in doc.networks:
        lines.append(f"network {name} {m} {n}")
    lines.append(f"goal {pretty_formula(doc.goal)}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Elaboration into the core expression language

_UNIT = (0.0,)  # dummy argument for input slots


def _slot(name: str, n: int) -> Expr:
    """A named input realized as a unary function of a dummy vector."""
    return App(FunRef(f"in:{name}", 1, n), VecConst(_UNIT))


def elaborate(doc: SpecDoc, logic: LogicId, env: Optional[Env] = None) -> Expr:
    """Lower the goal formula to a core expression for one logic, after
    checking that ``env``, if given, holds every declared network."""
    if env is not None:
        _check_networks(doc, env)
    return _lower(doc, logic.flag_profile)


def _lower(doc: SpecDoc, profile: ConnectiveFlags) -> Expr:
    """The goal as a core expression under the flag profile.

    One walk, left to right and a call's arguments before the call, checks
    each identifier against the declarations before it builds the node
    that refers to it, so the first fault in that order is the one raised.
    Every reference to an input shares one slot node.
    """
    vecs = dict(doc.vectors)
    nets = {n: (m, k) for n, m, k in doc.networks}
    scalars = set(doc.scalars)
    slots = {}

    def slot(name: str, n: int) -> Expr:
        node = slots.get((name, n))
        if node is None:
            node = slots[name, n] = _slot(name, n)
        return node

    def arity(name: str) -> int:
        if name not in vecs:
            raise UndeclaredIdentifier(f"vector {name!r} not declared")
        return vecs[name]

    def vec(e) -> Expr:
        if isinstance(e, VName):
            return slot(e.name, arity(e.name))
        if isinstance(e, VCall):
            args = [vec(a) for a in e.args]
            arities = [a.tag.n for a in args]
            if e.name == "sub":
                if len(arities) != 2 or arities[0] != arities[1]:
                    raise ArityMismatch("sub needs two vectors of equal arity")
                n = arities[0]
                return App2(Fun2Ref("sub", n, n, n), args[0], args[1])
            if e.name in nets:
                m, k = nets[e.name]
                if arities != [m]:
                    raise ArityMismatch(
                        f"network {e.name!r} expects one vector of arity {m}"
                    )
                return App(FunRef(e.name, m, k), args[0])
            raise UndeclaredIdentifier(f"function {e.name!r} not declared")
        raise ValidationError(f"not a vector expression: {e!r}")

    def real(e) -> Expr:
        if isinstance(e, RNum):
            return RealConst(e.value)
        if isinstance(e, RName):
            if e.name not in scalars:
                raise UndeclaredIdentifier(f"scalar {e.name!r} not declared")
            return Lookup(slot(e.name, 1), IndexConst(0, 1))
        if isinstance(e, RIndex):
            n = arity(e.name)
            if not 0 <= e.i < n:
                raise ArityMismatch(
                    f"index {e.i} out of range for vector {e.name!r}"
                )
            return Lookup(slot(e.name, n), IndexConst(e.i, n))
        if isinstance(e, RNorm):
            v = vec(e.arg)
            return Lookup(
                App(FunRef("norm_inf", v.tag.n, 1), v), IndexConst(0, 1)
            )
        raise ValidationError(f"not a real expression: {e!r}")

    def formula(f) -> Expr:
        if isinstance(f, FCmp):
            op = CmpOp.LE if f.op == "le" else CmpOp.EQ
            return Cmp(op, real(f.left), real(f.right), profile)
        if isinstance(f, FNot):
            return Not(formula(f.child))
        if isinstance(f, FImpl):
            return Impl(formula(f.left), formula(f.right))
        if isinstance(f, FBin):
            return NODES[f.op]((formula(f.left), formula(f.right)))
        raise ValidationError(f"not a formula: {f!r}")

    return formula(doc.goal)


def _check_networks(doc: SpecDoc, env: Env) -> None:
    for name, _, _ in doc.networks:
        if name not in env.functions:
            raise UndeclaredIdentifier(
                f"network {name!r} not present in the environment"
            )


def _goal(doc: SpecDoc, logic: LogicId, env: Env) -> Expr:
    """``elaborate(doc, logic, env)``, lowered once per doc and profile.

    Elaboration reads only the logic's flag profile, so the goal is kept
    on ``doc`` under that profile.  The environment is checked on every
    call.
    """
    _check_networks(doc, env)
    goals = doc._goals
    if goals is None:
        goals = {}
        object.__setattr__(doc, "_goals", goals)
    profile = logic.flag_profile
    expr = goals.get(profile)
    if expr is None:
        expr = goals[profile] = elaborate(doc, logic)
    return expr


# ---------------------------------------------------------------------------
# Built-in environment


def _builtin_sub(a, b, c):
    return tuple(c.sub(x, y) for x, y in zip(a, b))


def _builtin_norm_inf(a, c):
    out = c.abs(a[0])
    for x in a[1:]:
        out = c.max2(out, c.abs(x))
    return (out,)


def base_env() -> Env:
    return Env(
        functions={"norm_inf": _builtin_norm_inf},
        binary_functions={"sub": _builtin_sub},
    )


def extend_env(env: Env, functions=None, binary_functions=None) -> Env:
    return Env(
        functions={**env.functions, **(functions or {})},
        binary_functions={**env.binary_functions, **(binary_functions or {})},
    )


# ---------------------------------------------------------------------------
# Networks

NET_SCHEMA_VERSION = "dlc-net/1"
_ACTIVATIONS = ("relu", "identity")


@dataclass(frozen=True)
class Layer:
    weights: tuple  # row-major, shape (out, in)
    bias: tuple
    activation: str


@dataclass(frozen=True)
class NetworkDef:
    layers: Tuple[Layer, ...]

    @property
    def in_arity(self) -> int:
        return len(self.layers[0].weights[0])

    def forward(self, xs, c=F64Carrier):
        """The outputs over carrier c: ``c.affine`` per neuron, then ReLU
        as ``c.max2(acc, c.zero)`` where the layer has it."""
        vals = list(xs)
        for layer in self.layers:
            relu = layer.activation == "relu"
            nxt = []
            for row, b in zip(layer.weights, layer.bias):
                acc = c.affine(b, row, vals)
                if relu:
                    acc = c.max2(acc, c.zero)
                nxt.append(acc)
            vals = nxt
        return tuple(vals)

    def as_env_function(self):
        def run(xs, c):
            if len(xs) != self.in_arity:
                raise ArityMismatch(
                    f"network expects {self.in_arity} inputs, got {len(xs)}"
                )
            return self.forward(xs, c)

        return run


def network_from_json(doc: dict) -> NetworkDef:
    if not isinstance(doc, dict) or doc.get("version") != NET_SCHEMA_VERSION:
        raise ValidationError(f"expected network document {NET_SCHEMA_VERSION}")
    raw = doc.get("layers")
    if not isinstance(raw, list) or not raw:
        raise ValidationError("network needs a nonempty layer list")
    layers = []
    for item in raw:
        try:
            weights = tuple(tuple(float(w) for w in row) for row in item["weights"])
            bias = tuple(float(b) for b in item["bias"])
            activation = item["activation"]
        except (KeyError, TypeError, ValueError) as exc:
            raise ValidationError(f"malformed layer: {exc}") from exc
        if activation not in _ACTIVATIONS:
            raise ValidationError(f"unknown activation {activation!r}")
        if not weights or len(weights) != len(bias):
            raise ArityMismatch("weight row count must equal bias length")
        widths = {len(row) for row in weights}
        if len(widths) != 1 or 0 in widths:
            raise ArityMismatch("weight rows must be nonempty and equal length")
        layers.append(Layer(weights, bias, activation))
    for prev, nxt in zip(layers, layers[1:]):
        if len(prev.bias) != len(nxt.weights[0]):
            raise ArityMismatch(
                f"layer output arity {len(prev.bias)} feeds layer expecting "
                f"{len(nxt.weights[0])}"
            )
    return NetworkDef(tuple(layers))


def load_network(path) -> NetworkDef:
    with open(path) as fh:
        return network_from_json(json.load(fh))


# ---------------------------------------------------------------------------
# Input bindings


def _as_vector(name: str, value) -> Tuple[float, ...]:
    if isinstance(value, (int, float)):
        value = (value,)
    try:
        vals = tuple(float(v) for v in value)
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"binding {name!r} is not numeric") from exc
    if not all(math.isfinite(v) for v in vals):
        raise ValidationError(f"binding {name!r} is not finite: {vals}")
    return vals


def _is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def bindings_from_json(doc: dict) -> Dict[str, Tuple[float, ...]]:
    """Bindings from a JSON object whose every value is a number or a list
    of numbers; any other value, a boolean or a string of digits too, is
    refused."""
    if not isinstance(doc, dict):
        raise ValidationError(
            f"bindings must be a JSON object, not {type(doc).__name__}"
        )
    out = {}
    for name, value in doc.items():
        values = value if isinstance(value, list) else [value]
        if not all(map(_is_number, values)):
            raise ValidationError(
                f"binding {name!r} must be a number or a list of numbers"
            )
        out[name] = _as_vector(name, values)
    return out


def bindings_from_csv(text: str) -> Dict[str, Tuple[float, ...]]:
    """One row per binding: name, value, value, ..."""
    import csv
    import io

    out = {}
    for row in csv.reader(io.StringIO(text)):
        if not row or not row[0].strip():
            continue
        name = row[0].strip()
        out[name] = _as_vector(name, [cell for cell in row[1:] if cell.strip()])
    return out


def load_bindings(path) -> Dict[str, Tuple[float, ...]]:
    with open(path) as fh:
        text = fh.read()
    if str(path).endswith(".csv"):
        return bindings_from_csv(text)
    return bindings_from_json(json.loads(text))


def _check_bindings(doc: SpecDoc, inputs: Dict[str, Sequence[float]]) -> None:
    for name, n in doc.vectors:
        if name not in inputs:
            raise ValidationError(f"vector {name!r} is unbound")
        if len(inputs[name]) != n:
            raise ArityMismatch(
                f"vector {name!r} needs {n} components, got {len(inputs[name])}"
            )
    for name in doc.scalars:
        if name not in inputs:
            raise ValidationError(f"scalar {name!r} is unbound")
        if len(inputs[name]) != 1:
            raise ArityMismatch(f"scalar {name!r} needs exactly one value")


def _bound_env(env: Env, inputs: Dict[str, Sequence[float]],
               grad_wrt: Optional[str] = None) -> Env:
    """Bind each input slot for one evaluation; over duals, ``grad_wrt``'s
    coordinate j is seeded with the j-th unit tangent vector.

    A slot lifts its values once per carrier and returns that tuple at
    every reference."""
    slots = {}
    for name, values in inputs.items():
        vals = tuple(float(v) for v in values)
        lifted = {}
        if name == grad_wrt:
            lifted[DualCarrier] = tuple(
                Dual(v, Tangents.unit(j, len(vals))) for j, v in enumerate(vals)
            )

        def run(_arg, c, _vals=vals, _lifted=lifted):
            out = _lifted.get(c)
            if out is None:
                out = _lifted[c] = tuple(c.lift(v) for v in _vals)
            return out

        slots[f"in:{name}"] = run
    return extend_env(env, functions=slots)


# ---------------------------------------------------------------------------
# Evaluation and the training demo


def eval_loss(
    logic: LogicId,
    doc: SpecDoc,
    inputs: Dict[str, Sequence[float]],
    env: Optional[Env] = None,
    carrier=F64Carrier,
    grad_wrt: Optional[str] = None,
):
    """Loss value and, optionally, its gradient for one named vector.

    The gradient takes one dual-number pass whose tangents carry one
    partial per coordinate of ``grad_wrt``.  Over ``F64Carrier`` that
    pass also gives the value: each dual primal is computed by the float
    expression ``F64Carrier`` computes, so it is the float value bit for
    bit.  Other carriers compute the value in a pass of their own.

    The goal is elaborated once per ``doc`` object and flag profile and
    kept on the doc, so repeated calls on one doc skip elaboration, and
    ``interpret`` skips the full validation walk of a goal it has already
    validated.  Both memos assume that nodes and docs are not mutated
    after construction.  Whether ``env`` holds every declared network is
    checked on every call.
    """
    env = env if env is not None else base_env()
    _check_bindings(doc, inputs)
    expr = _goal(doc, logic, env)
    return _loss(logic, expr, inputs, env, carrier, grad_wrt)


def _loss(logic, expr, inputs, env, carrier=F64Carrier, grad_wrt=None):
    """``eval_loss`` of an elaborated goal under checked bindings."""
    if grad_wrt is None:
        return interpret(logic, expr, _bound_env(env, inputs), carrier), None
    value = None
    if carrier is not F64Carrier:
        value = interpret(logic, expr, _bound_env(env, inputs), carrier)
    if grad_wrt not in inputs:
        raise ValidationError(f"gradient target {grad_wrt!r} is unbound")
    out = interpret(logic, expr, _bound_env(env, inputs, grad_wrt), DualCarrier)
    if value is None:
        value = out.primal
    if isinstance(out.tangent, Tangents):
        gradient = out.tangent.v
    else:  # the goal does not depend on grad_wrt
        gradient = (out.tangent,) * len(inputs[grad_wrt])
    return value, gradient



def train_demo(
    logic: LogicId,
    doc: SpecDoc,
    inputs: Dict[str, Sequence[float]],
    env: Optional[Env] = None,
    x_name: str = "x",
    center_name: str = "v",
    radius_name: str = "eps",
    steps: int = 10,
    learning_rate: float = 0.1,
) -> List[dict]:
    """Projected gradient ascent on one input vector; returns the trace.

    Each step moves ``x_name`` along the loss gradient and projects it
    back into the box of radius ``radius_name`` around ``center_name``.
    Before the first step, the bindings are checked against ``doc``, the
    radius must be one value >= 0, and the center as long as ``x_name``.
    """
    if not LOGICS[logic.kind].trainable:
        raise RejectedLogic(
            f"{logic.kind.value} has min/max-flat gradients; "
            "use dl2, product, or stl"
        )
    env = env if env is not None else base_env()
    bound = {k: tuple(float(x) for x in v) for k, v in inputs.items()}
    for need in (x_name, center_name, radius_name):
        if need not in bound:
            raise ValidationError(f"training demo needs a binding for {need!r}")
    _check_bindings(doc, bound)
    center, radius, n = bound[center_name], bound[radius_name], len(bound[x_name])
    if len(radius) != 1 or not radius[0] >= 0.0:
        raise ValidationError(
            f"radius {radius_name!r} must be one value >= 0, got {list(radius)}"
        )
    if len(center) != n:
        raise ArityMismatch(
            f"center {center_name!r} needs {n} components like {x_name!r}, "
            f"got {len(center)}"
        )
    radius = radius[0]
    expr = _goal(doc, logic, env)
    trace = []
    for step in range(steps + 1):
        loss, grad = _loss(logic, expr, bound, env, grad_wrt=x_name)
        trace.append({"step": step, "loss": float(loss), "x": list(bound[x_name])})
        if step == steps:
            break
        moved = [
            xi + learning_rate * gi for xi, gi in zip(bound[x_name], grad)
        ]
        projected = tuple(
            min(max(xi, ci - radius), ci + radius)
            for xi, ci in zip(moved, center)
        )
        bound[x_name] = projected
    return trace


def load_spec(path) -> SpecDoc:
    with open(path) as fh:
        return parse_spec(fh.read())
