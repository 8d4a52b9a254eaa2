"""Hypersequent calculi: data model, rule table, checking, and search.

Five calculi share one engine.  Every rule is encoded backward: given a
conclusion and an explicit rule instance (component indices, formula
positions, partition boundaries), ``premises_for`` computes the premise
hypersequents the schema demands; checking a step is then structural
equality.  A semantic oracle (``sequent_holds``) evaluates sequents under
the matching logic so derivations can be fuzzed against soundness, and a
bounded backward search discharges the residuated-lattice goals.

Each rule variant is declared once, as a ``Template``: the patterns of its
conclusion and premises, as in the rule's figure.  Each calculus lists the
variants it uses (``CALCULI``).  One matcher reads every pattern of a
template, once, into code (``_Reading``): it binds a list pattern over the
components or a side, with its length tests and the names it binds, and a
choice mode fixes each length it leaves free.  ``RuleSpec`` compiles that
code on first use into Python functions: the schema (each param read from
the instance and range-checked, then the premises), an axiom's component
test, the instances backward search tries and ``tries``, their premises as
plain tuples, which search reads into per-call tables (each param looped
over its range); the forward reader (``forward``) soundness fuzzing grows
derivations by, which matches the first premise to a conclusion, drawing
each free length among those whose tests pass, and builds the rule's
conclusion from it; and the drawer (``drawn``) of the random instances of
rule-local trials and of the axiom leaves derivations grow from.
"""

from __future__ import annotations

import json
import random
import re
from contextlib import contextmanager
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property, lru_cache, partial
from itertools import chain, islice
from typing import (
    Dict, List, NamedTuple, Optional, Sequence, Tuple,
)  # fmt: skip

from .core import (
    AXIOMS,
    DL2,
    GODEL,
    LUKASIEWICZ,
    NODES,
    PRODUCT,
    STL_INFTY,
    And,
    BoolConst,
    Cmp,
    CmpOp,
    ConnectiveFlags,
    Expr,
    Impl,
    LogicId,
    MAnd,
    MOr,
    Not,
    Or,
    RealConst,
    random_formula,
    term_value,
    validate_for_logic,
    _Nary,
    _node_from_json,
    _node_to_json,
)
from .errors import (
    PremiseArityMismatch,
    RuleNotInCalculus,
    SchemaMismatch,
    ValidationError,
)
from .semantics import EMPTY_ENV, LOGICS, interpret

PROOF_SCHEMA_VERSION = "dlc-proof/1"


# ---------------------------------------------------------------------------
# Data model


# Sequents and hypersequents are slotted frozen dataclasses, hashed and
# compared by the generated methods.  The constructors write the slots
# through the slot descriptors' setters (bound below each class), which
# skips the frozen check as object.__setattr__ would, for less.  A pickle
# or copy rebuilds through the constructor.


@dataclass(frozen=True)
class Sequent:
    """An ordered pair of finite formula lists (antecedent, succedent)."""

    __slots__ = ("left", "right")
    left: Tuple[Expr, ...]
    right: Tuple[Expr, ...]

    def __init__(self, left: Sequence[Expr], right: Sequence[Expr]):
        _set_left(self, tuple(left))
        _set_right(self, tuple(right))

    def __reduce__(self):
        return Sequent, (self.left, self.right)


_set_left = Sequent.__dict__["left"].__set__
_set_right = Sequent.__dict__["right"].__set__


@dataclass(frozen=True)
class Hypersequent:
    """A finite list of sequents, read disjunctively."""

    __slots__ = ("components",)
    components: Tuple[Sequent, ...]

    def __init__(self, components: Sequence[Sequent]):
        _set_components(self, tuple(components))

    def __reduce__(self):
        return Hypersequent, (self.components,)


_set_components = Hypersequent.__dict__["components"].__set__


class Rule(Enum):
    # Declaration order is the order in which forward generation tries the
    # rules, which fixes the order of its rng draws; the axioms come first,
    # in the order in which _leaf_for tries them on each component.
    INIT = "init"
    EMP = "emp"
    TOP_R = "topr"
    BOT_L = "botl"
    EW = "ew"
    EEX = "eex"
    EC = "ec"
    WEAK_L = "weakl"
    CONTR_L = "contrl"
    LEX = "lex"
    REX = "rex"
    COM = "com"
    SPLIT = "split"
    MIX = "mix"
    RIMPL = "rimpl"
    LIMPL = "limpl"
    RAND = "rand"
    LOR = "lor"
    ROR = "ror"
    LAND = "land"
    LNEG = "lneg"
    LODOT = "lodot"
    RODOT = "rodot"


@dataclass
class RuleInstance:
    rule: Rule
    params: Dict[str, int] = field(default_factory=dict)


@dataclass
class ProofTree:
    conclusion: Hypersequent
    rule: RuleInstance
    premises: Tuple["ProofTree", ...] = ()

    def __post_init__(self):
        self.premises = tuple(self.premises)


# ---------------------------------------------------------------------------
# Schema and sampling helpers


def _fail(msg):
    raise SchemaMismatch(msg)


def _refuse(rule: str, q: Optional[dict] = None, known: tuple = ()):
    """Fail a generated schema: params outside known, or (no q) the principal."""
    _fail(f"{rule}: unknown params {q.keys() - known}" if q is not None else
          f"{rule}: principal formula has the wrong connective or arity")


def _param(q: dict, rule: str, name: str, lo: int, hi: int, what: str) -> int:
    """The param name of q, an int in lo..hi; else SchemaMismatch."""
    v = q.get(name)
    if type(v) is not int:
        _fail(f"{rule}: parameter {name!r} missing or not an integer")
    if not lo <= v <= hi:
        _fail(f"{rule}: {what} out of range")
    return v


def _is_bot(f: Expr) -> bool:
    return isinstance(f, BoolConst) and f.value is False


def _is_top(f: Expr) -> bool:
    return isinstance(f, BoolConst) and f.value is True


def _side(s: Sequent, left: bool) -> Tuple[Expr, ...]:
    return s.left if left else s.right


def _rand_formula(calc: "CalculusDef", rng: random.Random) -> Expr:
    return random_formula(calc.profile, rng.randint(0, 1), rng)


def _rand_formulas(calc, rng):
    return tuple(_rand_formula(calc, rng) for _ in range(rng.randint(0, 2)))


def _rand_sequent(calc: "CalculusDef", rng: random.Random) -> Sequent:
    return Sequent(_rand_formulas(calc, rng), _rand_formulas(calc, rng))


def _fresh(calc: "CalculusDef", rng: random.Random, lo: int, draw) -> tuple:
    """lo or lo + 1 elements, each drawn by draw."""
    return tuple(draw(calc, rng) for _ in range(rng.randint(lo, lo + 1)))


# ---------------------------------------------------------------------------
# The rule table
#
# Each rule variant is one template: "conclusion / premise ; premise ...",
# perhaps with "/ where" after.  A hypersequent pattern lists, split by "|",
# component lists (H, H2; a block K has at least one component) and sequent
# patterns "antecedent |- succedent".  A side lists, split by ",", formula
# lists (G, D, T1, E1, ...; a block S has at least one formula) and
# formulas: A, B, T (verum), F (falsum), ~A and A op B, op one of & v * ->.
# X^p says the param p is X's length; the one list of a sequence with no
# param holds what the others leave, and lists after it are blocks.  A
# conclusion of sequent patterns alone sits between H^c and H2, and each
# premise between H and H2.  The where clause "D1, D2 = E1^k2, E2" splits
# D1 and D2, joined, again.  A connective in the conclusion makes the rule
# logical: the list before that principal formula has the param "pos".


class Window(NamedTuple):
    """The adjacent components a structural rule's searched instances rewrite,
    from the one their position param ("c", or eex's "i") names: one per
    sequent pattern of the conclusion, or (last) the last window, of the
    least length a conclusion of component lists alone matches (ew's).
    fresh: the premises may create an axiom component, as those that only
    repeat components or permute sides (eex, ew, lex, rex) cannot; at budget
    1 only fresh windows are tried."""

    width: int
    last: bool
    fresh: bool


class Template(NamedTuple):
    """A rule variant: its rule and its template, the one place its shape
    is written; ``RuleSpec`` reads everything else off it."""

    rule: Rule
    text: str


# --- compiling templates ----------------------------------------------------

_KINDS = {"&": (And,), "v": (Or,), "*": (MAnd,), "->": (Impl,), "~": (Not,)}
# In the min/max logics & and v also match their monoidal twins.
_MIN_MAX_KINDS = {**_KINDS, "&": (And, MAnd), "v": (Or, MOr)}
_NODES = (And, Or, MAnd, MOr, Impl, Not)  # what a premise pattern may build
_OPERANDS = {"~": ("child",), "->": ("left", "right")}  # else children[i]
_FORMULA = re.compile(r"(~)?([AB])(?: (&|v|\*|->) ([AB]))?")
_SIDES = ("antecedent", "succedent")


def _item(tok: str, side: bool) -> tuple:
    """The pattern item tok: ("list", name, param or "", least length), or
    in a side ("var", name), ("const", value) or ("conn", op, operands)."""
    m = _FORMULA.fullmatch(tok) if side else None
    if side and tok in ("T", "F"):
        return ("const", tok == "T")
    if m:
        neg, a, op, b = m.groups()
        if neg or op:
            return ("conn", "~", (a,)) if neg else ("conn", op, (a, b))
        return ("var", a)
    m = re.fullmatch(r"([A-Z]\w*)(\^\w*)?", tok)
    if m is None or m[2] == "^":
        raise ValueError(f"pattern item {tok!r}: want a name or name^param")
    return ("list", m[1], m[2][1:] if m[2] else "", int(m[1][0] in "SK"))


def _hyper(text: str) -> list:
    """The items of a hypersequent pattern: component lists and ("seq",
    antecedent items, succedent items)."""
    return [("seq", *([_item(t.strip(), True) for t in x.split(",") if t.strip()]
                      for x in p.split("|-"))) if "|-" in p else _item(p.strip(), False)
            for p in re.split(r"\|(?!-)", text)]  # fmt: skip


def _key(item, ordered=True) -> tuple:
    """The item without its param, a sequent's sides sorted unless ordered:
    what a premise repeats of the conclusion."""
    if item[0] != "seq":
        return item[:2] if item[0] == "list" else item
    sides = (tuple(map(_key, x)) for x in item[1:])
    return tuple(x if ordered else tuple(sorted(x, key=repr)) for x in sides)


def _walk(items):
    """A pattern's items in reading order, a connective's operands after it."""
    for it in items:
        yield from _walk(it[1] + it[2]) if it[0] == "seq" else [it] + (
            [("var", a) for a in it[2]] if it[0] == "conn" else [])


def _plus(first: dict, *forms, sign=1) -> dict:
    """first plus sign times forms: linear forms, term -> coefficient."""
    out = dict(first)
    for form in forms:
        for t, k in form.items():
            out[t] = out.get(t, 0) + sign * k
    return {t: k for t, k in out.items() if k}


def _src(form: dict) -> str:
    """Python source of a linear form."""
    out = ""
    for t, k in sorted(form.items(), key=lambda tk: tk[0] == ""):
        term = t or str(abs(k))
        term = f"{abs(k)} * {term}" if t and abs(k) != 1 else term
        out += (" - " if k < 0 else " + ") + term if out else "-" * (k < 0) + term
    return out or "0"


def _concat(parts: list) -> str:
    """Source of the concatenation of tuples (strings) and single elements
    (in 1-tuples)."""
    return " + ".join(p if isinstance(p, str) else f"({p[0]},)" for p in parts) or "()"


def _part(x, env: dict, seqs: dict, new="Sequent({}, {})", kind=None):
    """Source of item x built from env, a tuple or an element in a 1-tuple: a
    sequent seqs keys or new, a connective of kind or its first node class."""
    if x[0] == "seq":
        sides = (_concat([_part(y, env, seqs, new, kind) for y in s]) for s in x[1:])
        return (seqs.get(_key(x)) or new.format(*sides),)
    if x[0] != "conn":
        src = "TOP" if x[1] is True else "BOT" if x[1] is False else env[x[1]]
        return src if x[0] == "list" else (src,)
    kind = kind or _KINDS[x[1]][0].__name__
    return (f"_make({kind}, {', '.join(env[a] for a in x[2])})",)


def _nest(steps: list, fixed=(), given=False) -> Tuple[list, str]:
    """Steps as nested lines and the indent inside: a "for" loops (read from q
    if fixed; given: unless passed), an "if" tests, an early "let" goes first."""
    head, body, late, indent = [], [], set(), ""
    for st in steps:
        if st[0] == "let" or st[1] in fixed:
            src = st[2] if st[0] == "let" else f"q[{st[1]!r}]"
            if late.isdisjoint(re.findall(r"\w+", src) + ["if"]):
                head.append(f"{st[1]} = {src}")
                continue
            body.append(f"{indent}{st[1]} = {src}")
        else:
            x = st[0] == "for" and f"range({st[2]}, {st[4]})" + (
                f" if {st[1]} is None else ({st[1]},)" * given)
            body.append(f"{indent}for {st[1]} in {x}:" if x else f"{indent}if {st[1]}:")
            indent += "    "
        late.add(st[1] if st[0] != "if" else "if")
    return head + body, indent


class _Reading:
    """Patterns read as code: the source each name binds (``env``), each
    list's length (``size``, a linear form), each matched sequent's variable
    by its key (``seqs``), and ``steps``: ("let", var, source), ("if", test,
    what a schema does if it fails; None for a formula test) and ("for",
    var, lo, hi, stop, what), a free length.  A conclusion is read
    ``named``: that is the param naming it (``params``) and a connective the
    principal formula f (``principal``: connective, side, sole); else a
    connective's node class is tested."""

    def __init__(self, rule: str, named: bool = False):
        self.rule, self.named, self.params, self.principal = rule, named, [], None
        self.env, self.size, self.seqs, self.steps, self.count = {}, {}, {}, [], {}

    def let(self, prefix: str, src: Optional[str] = None) -> str:
        """A new variable, prefix numbered, set to src unless src is None."""
        n = self.count[prefix] = self.count.get(prefix, -1) + 1
        self.steps += [("let", f"{prefix}{n}", src)] * (src is not None)
        return f"{prefix}{n}"

    def bind(self, name: str, src: str):
        """Bind name to src, or test that src equals what it bound."""
        if name in self.env:
            self.steps.append(("if", f"{src} == {self.env[name]}", None))
        self.env.setdefault(name, src)

    def match(self, items: list, base: str, side: str = ""):
        """Bind the items of a list pattern over base, then each sequent's
        sides; a name bound before is tested equal.  Of the lists not bound
        before, the last named once with no param takes the rest, and one
        other at most, named m times, has a free length.  Items after the
        rest (blocks) count from the end."""
        env, size, named, total = self.env, self.size, self.named, {f"len({base})": 1}
        names = [it[1] for it in items if it[0] == "list"]
        unknown = [it for it in items if it[0] == "list" and it[1] not in env]
        rest = next((it for it in reversed(unknown)
                     if not it[2] and names.count(it[1]) == 1), None)  # fmt: skip
        free = [it for it in unknown if it != rest]
        k = items.index(rest) if rest else len(items)
        if len({it[1] for it in free}) > 1 or free and not rest or any(
                it[0] == "list" and not it[3] for it in items[k + 1 :]):  # fmt: skip
            raise ValueError(f"{self.rule}: want one list with no param for the "
                             "rest, one other at most, and blocks after the rest")
        fixed = _plus({}, *(size[it[1]] if it[0] == "list" else {"": 1}
                            for it in items if it not in unknown))  # fmt: skip
        need = _plus(fixed, *({"": it[3]} for it in unknown))
        if not unknown or need and not (free and named):
            n = "a single formula" if need == {"": 1} else f"{_src(need)} formulas"
            what = f"{self.rule}: {side} must be {'at least ' * bool(unknown)}{n}"
            test = f"{_src(total)} {'>=' if unknown else '=='} {_src(need)}"
            self.steps.append(("if", test, f"_fail({what!r})"))
        used, later = {}, []
        if free:
            it, m = free[0], len(free)
            var = it[2] if named else self.let("x")
            if named and (not var or var in self.params):
                e = f"param {var} named twice" if var else "a split with no param name"
                raise ValueError(f"{self.rule}: {e}: {it[1]}")
            self.params.append(var)
            room = _plus(total, fixed, {"": rest[3]}, sign=-1)
            hi = f"({_src(room)}) // {m}" if m > 1 else _src(room)
            stop = f"{hi} + 1" if m > 1 else _src(_plus(room, {"": 1}))
            what = (("block size" if it[1][0] == "S" else "formula position"
                     if var == "pos" else f"{side} partition") if side else
                    "component block size" if it[1][0] == "K" else "adjacent " * (
                        sum(x[0] == "seq" for x in items) > 1) + "component index")
            self.steps.append(("for", var, it[3], hi, stop, what))
            size[it[1]], used = {var: 1}, {var: m}
        if rest:
            size[rest[1]] = _plus(total, fixed, used, sign=-1)
        lens = [size[it[1]] if it[0] == "list" else {"": 1} for it in items]
        cut = [_src(_plus({}, *lens[:j])) if j <= k else  # from the start, or the end
               _src(_plus({}, *lens[j:], sign=-1)) if j < len(items) else ""
               for j in range(len(items) + 1)]  # fmt: skip
        for j, it in enumerate(items):
            a, b, x = cut[j], cut[j + 1], f"{base}[{cut[j]}]"
            if it[0] == "list":
                a = "" if a == "0" else a
                self.bind(it[1], f"{base}[{a}:{b}]" if a or b else base)
            elif it[0] == "seq":
                later.append((it, self.let("s", x)))
                self.seqs.setdefault(_key(it), later[-1][1])
            elif it[0] == "const":
                self.steps.append(("if", f"_is_{'top' if it[1] else 'bot'}({x})", None))
            elif it[0] == "var":
                self.bind(it[1], x)
            else:
                self.conn(it, x, cut[j], items[j - 1] if j else None, j > k, side)
        for it, s in later:
            for x, a, d in zip(it[1:], ("left", "right"), _SIDES):
                self.match(x, f"{s}.{a}", d)

    def conn(self, it, x: str, at: str, before, late: bool, side: str):
        """Read the connective it at x, then bind its operands (see the class)."""
        if not self.named:
            f, kind = self.let("f", x), _KINDS[it[1]][0]
            arity = f" and len({f}.children) == 2" * issubclass(kind, _Nary)
            self.steps.append(("if", f"isinstance({f}, {kind.__name__}){arity}", None))
        else:
            pos = before[2] if before and before[0] == "list" else ""
            if self.principal or late or pos not in ("", "pos"):
                raise ValueError(f"{self.rule}: one principal, at pos, before the rest")
            if not pos:  # a sole one's position may still be named
                check = f"_param(q, rule, 'pos', {at}, {at}, 'formula position')"
                self.steps.append(("if", "'pos' not in q", check))
                self.params.append("pos")
            self.principal, f = (it[1], side, not pos), "f"
            self.steps += [("let", f, x), ("if", "matches(f)", "_refuse(rule)")]
        for a, op in zip(it[2], _OPERANDS.get(it[1], ("children[0]", "children[1]"))):
            self.bind(a, f"{f}.{op}")


class _Compiler(_Reading):
    """A template read: its conclusion read over the components, its items,
    and the where clause's (``split``: joined names, split items)."""

    def __init__(self, rule: Rule, text: str):
        super().__init__(rule.value, True)
        self.text, *rest = text.split("/")
        conclusion = _hyper(self.text)
        premises = [_hyper(p) for p in rest[0].split(";")] if rest else []
        if all(it[0] == "seq" for it in conclusion):
            h, h2 = ("list", "H", "", 0), ("list", "H2", "", 0)
            conclusion = [("list", "H", "c", 0), *conclusion, h2]
            premises = [[h, *p, h2] for p in premises]
        self.conclusion, self.premises, self.split = conclusion, premises, None
        self.match(conclusion, "comps")
        self.first = _Reading(self.rule)
        if premises:  # read now, so a pattern it cannot read fails now; reader goes on
            self.first.match(premises[0], "comps")
        try:
            if len(rest) > 1:
                names, pattern = ([n.strip() for n in x.split(",")]
                                  for x in rest[1].split("="))
                self.split = names, [_item(x, True) for x in pattern]
                r = self.let("r", " + ".join(self.env[n] for n in names))
                self.match(self.split[1], r, "context")
            self.built = [tuple(_concat([_part(x, self.env, self.seqs, new) for x in p])
                                for new in ("Sequent({}, {})", "({}, {})"))
                          for p in premises]  # fmt: skip
        except KeyError as e:
            raise ValueError(f"{self.rule}: {e.args[0]} is not bound by the conclusion")
        if premises and any(st[0] == "if" and st[2] is None for st in self.steps):
            raise ValueError(f"{self.rule}: only an axiom tests formulas")
        keys = {_key(it, False) for it in conclusion if it[0] == "seq"}
        self.fresh = any(_key(it, False) not in keys
                         for p in premises for it in p if it[0] == "seq")  # fmt: skip

    @lru_cache(maxsize=None)
    def code(self, what: str):
        """The compiled code of what: "schema", "search", "forward" or "drawn"."""
        funcs = self.reader(what == "drawn") if what in ("forward", "drawn") else (
            getattr(self, what)())  # fmt: skip
        src = "".join(f"def {h}:\n" + "".join(f"    {x}\n" for x in body)
                      for h, body in funcs.items())
        return _compile(src, f"<{what}>", "exec")

    def schema(self) -> dict:
        """schema(calc, inst, h): the conclusion read, each param range-checked,
        then the premises; an axiom's match(s0, pos=None): the params s0 fits."""
        axiom, p, params = not self.premises, self.principal, self.params
        shape = f"{self.rule}: component must be " + re.sub(r"\^\w+", "", self.text)
        body = ["q = inst.params", "comps = h.components"]
        for st in self.steps:
            at = st[0] == "for" and f"{st[1]!r}, {st[2]}, {st[3]}, {st[5]!r}"
            fail = f"_fail({shape.strip()!r})" if axiom else st[-1]
            body.append(f"{st[1]} = " + (f"_param(q, rule, {at})" if at else st[2])
                        if st[0] != "if" else f"if not ({st[1]}): {fail}")
        count = "len(q) - ('pos' in q)" if p else "len(q)"
        body += [f"if {count} != {len(params) - bool(p)}: "
                 f"_refuse(rule, q, {tuple(sorted(params))!r})",
                 f"return [{', '.join(f'Hypersequent({x})' for x, _ in self.built)}]"]
        funcs = {"schema(calc, inst, h)": body}
        if axiom:
            lines, indent = _nest(self.steps[2:], given=True)
            fits = ", ".join(f"{x!r}: {x}" for x in params[1:])
            funcs["match(s0, pos=None)"] = [*lines, f"{indent}return {{{fits}}}",
                                            "return None"]
        return funcs

    def search(self) -> dict:
        """instances(comps, q) and tries(comps, q), looping over what q leaves."""
        fixed = ("c", "pos") if self.principal else ()
        lines, indent = _nest([st for st in self.steps if st[0] != "if"], fixed)
        new = "".join(f", {x!r}: {x}" for x in self.params if x not in fixed)
        tried = "".join(x + ", " for _, x in self.built)
        listed = f"{indent}yield RuleInstance(R, {{**q{new}}})"
        return {"instances(comps, q)": [*lines, listed],
                "tries(comps, q)": [*lines, f"{indent}yield ({tried})"]}

    def reader(self, drawn: bool) -> dict:
        """forward(calc, rng, h): the first premise matched to h, the lengths
        its tests read picked among those that pass (None if none do), then
        (params, conclusion); or drawn(calc, rng): (instance, conclusion).
        Names left free (all, for drawn) are drawn in reading order, forward's
        from a pool (matched formulas, units, one fresh), a list's length its
        least or one more."""
        r = _Reading(self.rule) if drawn else self.first
        joined, pattern = self.split or ((), ())
        pools, kind = {}, "kind(rng)"
        for it in _walk(self.conclusion if drawn else [*self.conclusion, *pattern]):
            if it[0] == "conn" and drawn:
                kind = r.let("k", "kind(rng)")
            if it[0] not in ("list", "var") or it[1] in r.env or (
                    it[1] in joined and not drawn):
                continue
            top = it in self.conclusion
            one = f"_rand_{'sequent' if top else 'formula'}"
            if not drawn and top not in pools:
                sides = [f"{s}.{a}" for s in r.seqs.values() for a in ("left", "right")]
                have = ["comps"] if top else [*sides, "UNITS"]
                pools[top] = r.let("pool", " + ".join([*have, f"({one}(calc, rng),)"]))
            pool = pools.get(top)
            if it[0] == "var":
                src = f"rng.choice({pool})" if pool else f"{one}(calc, rng)"
            else:
                n = f"rng.randint({it[3]}, {it[3] + 1})"
                src = f"tuple(rng.choices({pool}, k={n}))" if pool else (
                    f"_fresh(calc, rng, {it[3]}, {one})")
            r.env[it[1]] = v = r.let("v", src)
            r.size[it[1]] = {f"len({v})": 1}
        if joined:
            lists = [("list", x, "", 0) for x in joined]
            into, over = (pattern, lists) if drawn else (lists, pattern)
            r.match(into, r.let("r", _concat([_part(it, r.env, {}) for it in over])))
        params = ", ".join(f"{it[2]!r}: {_src(r.size[it[1]])}" for it in _walk(
            [*self.conclusion, *pattern]) if it[0] == "list" and it[2])  # fmt: skip
        built = _concat([_part(it, r.env, r.seqs, kind=kind) for it in self.conclusion])
        # the tests and what they read, each passing pick kept and one drawn
        read = set()
        for st in reversed(r.steps):
            if st[0] == "if" or st[1] in read:
                read.update(re.findall(r"\w+", " ".join(map(str, st[1:5]))))
        head = [st for st in r.steps if st[0] == "if" or st[1] in read]
        tail = [st for st in r.steps if st not in head]
        body = [] if drawn else ["comps = h.components"]
        if head:
            lines, indent = _nest(head)
            kept = "".join(st[1] + ", " for st in head if st[0] != "if")
            body += ["opts = []", *lines, f"{indent}opts.append(({kept}))",
                     "if not opts:", "    return None"]  # fmt: skip
            body += [f"{kept}= rng.choice(opts)"] * any(st[0] == "for" for st in head)
        body += [f"{st[1]} = rng.randint({st[2]}, {st[3]})" if st[0] == "for" else
                 f"{st[1]} = {st[2]}" for st in tail]  # fmt: skip
        inst = "RuleInstance(R, {%s})" if drawn else "{%s}"
        body.append(f"return {inst % params}, Hypersequent({built})")
        return {"drawn(calc, rng)" if drawn else "forward(calc, rng, h)": body}


# A template is read once, whichever calculi use it, and code that several
# templates generate alike (as drawers of one conclusion) is compiled once.
_compiler = lru_cache(maxsize=None)(_Compiler)
_compile = lru_cache(maxsize=None)(compile)


# The order backward search tries structural rules in, after the logical ones.
_SEARCH_ORDER = (Rule.COM, Rule.SPLIT, Rule.MIX, Rule.LEX, Rule.REX, Rule.EEX,
                 Rule.WEAK_L, Rule.EW)

# Each generated function by name, and the code that defines it.
_CODE = {"schema": "schema", "match": "schema", "matches": "schema", "drawn": "drawn",
         "instances": "search", "tries": "search", "forward": "forward"}


class RuleSpec:
    """One rule variant of a calculus, read from its ``Template``; each
    generated function is compiled on first use.  ``schema(calc, inst, h)``
    checks an instance (its params' ranges, the conclusion's shape) and
    lists its premises.  Backward search reads ``instances(comps, q)``, the
    instances it tries given the params q fixes (a logical rule's "c", and
    "pos" unless sole), and ``tries(comps, q)``, their premises in turn as
    component tuples, a new component a (left, right) pair.  An axiom's
    ``match(s, pos=None)``: the params besides "c" under which s is an
    instance (its formula at pos, or the first found), or None.  A logical
    rule's ``matches(f)`` tests a principal formula's connective (``kinds``,
    main one first) and arity on its side (``left``); a ``sole`` one is
    alone there, its instances naming no "pos".  ``drawn(calc, rng)``: a
    random (instance, conclusion); ``forward(calc, rng, h)`` (None for an
    axiom): (params, conclusion) of an instance whose first premise is h,
    or None.  ⊤ and ⊥ (``TOP``, ``BOT``) are those of ``profile``."""

    def __init__(self, t: Template, kinds: dict, profile: ConnectiveFlags):
        c = self.compiler = _compiler(t.rule, t.text)
        p = c.principal
        self.template, self.rule, self.profile = t, t.rule, profile
        self.axiom = not c.premises
        self.left = None if p is None else p[1] == "antecedent"
        self.kinds, self.sole = (kinds[p[0]], p[2]) if p else ((), False)
        least = sum(it[3] if it[0] == "list" else 1 for it in c.conclusion)
        self.window = Window(len(c.seqs) or least, not c.seqs, c.fresh) if (
            t.rule in _SEARCH_ORDER) else None

    def __getattr__(self, name):
        what = _CODE.get(name)
        if what is None:
            raise AttributeError(name)
        kinds, p = self.kinds, self.profile
        nary = bool(kinds) and issubclass(kinds[0], _Nary)
        matches = (lambda f: isinstance(f, kinds) and (
            not nary or len(f.children) == 2)) if kinds else None  # fmt: skip
        top, bot = BoolConst(True, p), BoolConst(False, p)  # UNITS: ⊥ only with ~
        ns = dict(_GLOBALS, rule=self.compiler.rule, R=self.rule, kind=self.drawn_kind,
                  TOP=top, BOT=bot, UNITS=(top,) + (bot,) * p.neg, matches=matches)
        if what in ("schema", "drawn") or not self.axiom:  # an axiom is not searched
            exec(self.compiler.code(what), ns)                # nor read forward
        for x in (x for x, w in _CODE.items() if w == what):
            setattr(self, x, ns.get(x))
        return getattr(self, name)

    def search(self, h: Hypersequent) -> List[RuleInstance]:
        """The structural instances backward search tries on h, window by
        window, each listed on its window alone and moved into place."""
        comps, (width, last, _) = h.components, self.window
        at = range(len(comps) - width + 1)
        return [_shifted(inst, c) for c in (at[-1:] if last else at)
                for inst in self.instances(comps[c : c + width], {})]

    def search_at(self, s: Sequent, c: int, pos: int) -> List[RuleInstance]:
        """Backward instances with the principal formula at (c, pos) in s."""
        return list(self.instances({c: s}, self.where(c, pos)))

    def where(self, c: int, pos: int) -> Dict[str, int]:
        """The params naming the principal formula at (c, pos)."""
        return {"c": c} if self.sole else {"c": c, "pos": pos}

    def drawn_kind(self, rng):
        """The principal node class of a drawn instance or a forward step."""
        return rng.choice(self.kinds) if len(self.kinds) > 1 else self.kinds[0]


def _make(kind, phi0: Expr, phi1: Optional[Expr] = None) -> Expr:
    if kind is Not:
        return Not(phi0)
    if kind is Impl:
        return Impl(phi0, phi1)
    return kind((phi0, phi1))


# what the compiled code of a template reads
_GLOBALS = {k.__name__: k for k in (Sequent, Hypersequent, RuleInstance, _make, _fail,
                                    _refuse, _param, _is_top, _is_bot, _rand_formula,
                                    _rand_sequent, _fresh, *_NODES)}


@dataclass(frozen=True)
class CalculusDef:
    name: str
    logic: LogicId
    # rule -> the variant of it the calculus uses, in Rule order
    table: Dict[Rule, RuleSpec] = field(compare=False, repr=False)

    @property
    def profile(self) -> ConnectiveFlags:
        return self.logic.flag_profile

    @cached_property
    def rules(self) -> frozenset:
        return frozenset(self.table)

    @cached_property
    def axioms(self) -> Tuple[RuleSpec, ...]:
        return tuple(s for s in self.table.values() if s.axiom)

    @cached_property
    def logical(self) -> Dict[bool, Tuple[RuleSpec, ...]]:
        """The logical rules by side (True: antecedent)."""
        return {left: tuple(s for s in self.table.values() if s.left is left)
                for left in (True, False)}

    @cached_property
    def windows(self) -> Tuple[tuple, ...]:
        """(spec, width, last, fresh) of each window backward search
        rewrites, in search order: the logical rules' (spec None: one
        component, every position, creating components), then each
        structural rule's (its ``window``)."""
        return ((None, 1, False, True),) + tuple(
            (self.table[r], *self.table[r].window)
            for r in _SEARCH_ORDER if r in self.table
        )  # fmt: skip

    @cached_property
    def fresh_windows(self) -> Tuple[Tuple[int, ...], Tuple[int, ...]]:
        """The indices into ``windows`` of the fresh structural windows of
        one component, and of two."""
        return tuple(
            tuple(j for j, (spec, width, _, fresh) in enumerate(self.windows)
                  if spec is not None and fresh and width == w)
            for w in (1, 2)
        )  # fmt: skip


# ---------------------------------------------------------------------------
# The templates of every rule variant, and the calculi

_INIT = Template(Rule.INIT, "A |- A")
_EMP = Template(Rule.EMP, "|-")
_TOP_R = Template(Rule.TOP_R, "G |- T")
_BOT_L = Template(Rule.BOT_L, "G1^pos, F, G2 |- D")
_EW = Template(Rule.EW, "K | K2^k / K")
_EC = Template(Rule.EC, "H | K^b / H | K | K")
_EEX = Template(Rule.EEX, "H^i | G1 |- D1 | G2 |- D2 | H2"
                " / H | G2 |- D2 | G1 |- D1 | H2")
_COM = Template(Rule.COM, "G1^k1, G2 |- D1 | T1^k2, T2 |- D2"
                " / G1, T1 |- D1 ; G2, T2 |- D2")
_SPLIT = Template(Rule.SPLIT, "G1 |- D1 | G2 |- D2 / G1, G2 |- D1, D2")
_MIX = Template(Rule.MIX, "G1^k1, G2 |- D1^k2, D2 / G1 |- D1 ; G2 |- D2")
_WEAK_L = Template(Rule.WEAK_L, "G, S^k |- D / G |- D")
_CONTR_L = Template(Rule.CONTR_L, "G, S^k |- D / G, S, S |- D")
_LEX = Template(Rule.LEX, "G1^pos, A, B, G2 |- D / G1, B, A, G2 |- D")
_REX = Template(Rule.REX, "G |- D1^pos, A, B, D2 / G |- D1, B, A, D2")
_LAND = Template(Rule.LAND, "G1^pos, A & B, G2 |- D"
                 " / G1, A, G2 |- D | G1, B, G2 |- D")
_LOR = Template(Rule.LOR, "G1^pos, A v B, G2 |- D"
                " / G1, A, G2 |- D ; G1, B, G2 |- D")
_LODOT = Template(Rule.LODOT, "G1^pos, A * B, G2 |- D / G1, A, B, G2 |- D")
# the multi-conclusion right implication of Łukasiewicz, product and DL2
_RIMPL = Template(Rule.RIMPL, "G |- D1^pos, A -> B, D2"
                  " / G |- D1, D2 ; G, A |- D1, B, D2")

# Either premise of DL2's limpl alone gives the conclusion g + [A -> B] <= d
# (g, d, a, b: the values of G, D, A, B; [A -> B] = -max(a - b, 0) <= 0), so
# dropping one leaves it sound, an equivalent mutant.  G |- D: g + [A -> B]
# <= g <= d.  G, B |- A, D (g + b <= a + d): the conclusion if a >= b, and
# g <= d + a - b < d if a < b.  A premise true in a component of H is too.
_LIMPL_DL2 = Template(Rule.LIMPL, "G1^pos, A -> B, G2 |- D"
                      " / G1, G2 |- D ; G1, B, G2 |- A, D")

# Every calculus has these.
_COMMON = (_INIT, _EW, _EC, _EEX, _WEAK_L, _LEX, _REX)

# Gödel and STL∞ read every connective as min/max and share one rule list,
# whose right rules are single-conclusion (sole).
_MIN_MAX_RULES = _COMMON + (
    _BOT_L, _TOP_R, _COM, _CONTR_L, _LAND, _LOR,
    Template(Rule.RAND, "G |- A & B / G |- A ; G |- B"),
    Template(Rule.ROR, "G |- A v B / G |- A | G |- B"),
    Template(Rule.LIMPL, "G1^pos, A -> B, G2 |- D / G1, G2 |- A ; G1, B, G2 |- D"),
    Template(Rule.RIMPL, "G |- A -> B / G, A |- B"),
)


def _calc(name, logic, templates):
    """The calculus of the logic whose rules are the templates, & and v also
    matching ⊙ and ⊕ where the logic reads those as ∧ and ∨."""
    c = LOGICS[logic.kind].clauses
    kinds = _MIN_MAX_KINDS if c["mand"] is c["and"] and c["mor"] is c["or"] else _KINDS
    by_rule = {t.rule: RuleSpec(t, kinds, logic.flag_profile) for t in templates}
    table = {rule: by_rule[rule] for rule in Rule if rule in by_rule}
    return CalculusDef(name, logic, table)


CALCULI: Dict[str, CalculusDef] = {
    c.name: c
    for c in (
        _calc("goedel", GODEL, _MIN_MAX_RULES),
        _calc("lukasiewicz", LUKASIEWICZ, _COMMON + (
            _EMP, _SPLIT, _MIX, _RIMPL,
            Template(Rule.BOT_L, "G1^pos, F, G2 |- A"),
            Template(Rule.LIMPL, "G1^pos, A -> B, G2 |- D / G1, B, G2 |- A, D"),
        )),
        _calc("product", PRODUCT, _COMMON + (
            _EMP, _BOT_L, _SPLIT, _MIX, _LODOT, _RIMPL,
            Template(Rule.LNEG, "G1^pos, ~A, G2 |- D / G1, G2 |- A"),
            Template(Rule.RODOT, "G |- D1^pos, A * B, D2 / G |- D1, A, B, D2"),
            Template(Rule.LIMPL, "G1^pos, A -> B, G2 |- D"
                     " / G1, ~A, G2 |- D ; G1, B, G2 |- A, D"),
        )),
        _calc("dl2", DL2, _COMMON + (
            _EMP, _TOP_R, _COM, _LAND, _LOR, _LODOT, _LIMPL_DL2, _RIMPL,
            Template(Rule.RAND, "G |- D1^pos, A & B, D2"
                     " / G |- D1, A, D2 ; G |- D1, B, D2"),
            Template(Rule.ROR, "G |- D1^pos, A v B, D2"
                     " / G |- D1, A, D2 | G |- D1, B, D2"),
            # the antecedent and the rest of the succedent are both split
            Template(Rule.RODOT, "G1^k1, G2 |- D1^pos, A * B, D2"
                     " / G1 |- A, E1 ; G2 |- B, E2 / D1, D2 = E1^k2, E2"),
        )),
        _calc("stl-inf", STL_INFTY, _MIN_MAX_RULES),
    )
}  # fmt: skip


# ---------------------------------------------------------------------------
# Checking


def _spec(calc: CalculusDef, rule: Rule) -> RuleSpec:
    spec = calc.table.get(rule)
    if spec is None:
        raise RuleNotInCalculus(f"{rule.value} is not a rule of {calc.name}")
    return spec


def premises_for(
    calc: CalculusDef, inst: RuleInstance, conclusion: Hypersequent
) -> List[Hypersequent]:
    """Premises the rule schema demands for the given conclusion."""
    spec = _spec(calc, inst.rule)
    if not conclusion.components:
        _fail("a conclusion hypersequent needs at least one component")
    return list(spec.schema(calc, inst, conclusion))


def check_step(
    calc: CalculusDef,
    inst: RuleInstance,
    conclusion: Hypersequent,
    premises: Sequence[Hypersequent],
) -> None:
    """Raise a StepError unless premises/conclusion match the schema."""
    wanted = premises_for(calc, inst, conclusion)
    premises = list(premises)
    if len(wanted) != len(premises):
        raise PremiseArityMismatch(
            f"{inst.rule.value} takes {len(wanted)} premises, got {len(premises)}"
        )
    for i, (want, got) in enumerate(zip(wanted, premises)):
        if want != got:
            raise SchemaMismatch(
                f"{inst.rule.value}: premise {i} does not match the schema",
                path=(i,),
            )


def _validate(calc: CalculusDef, h: Hypersequent) -> None:
    for s in h.components:
        for f in s.left + s.right:
            validate_for_logic(f, calc.logic)


def check_proof(calc: CalculusDef, tree: ProofTree) -> None:
    """Raise a StepError (annotated with a node path) for the first bad node.

    Nodes are checked in pre-order from an explicit stack, so proofs of
    any depth are checked without recursion.
    """
    _validate(calc, tree.conclusion)
    stack = [(tree, ())]
    while stack:
        node, path = stack.pop()
        try:
            check_step(
                calc, node.rule, node.conclusion, [p.conclusion for p in node.premises]
            )
        except SchemaMismatch as exc:
            exc.path = path + exc.path
            raise
        # pushed last to first, so the first premise is checked next
        for i in reversed(range(len(node.premises))):
            stack.append((node.premises[i], path + (i,)))


# ---------------------------------------------------------------------------
# Semantic oracle


def sequent_holds(logic: LogicId, s: Sequent, tol: float = 1e-9) -> bool:
    """Truth of the inequality a sequent denotes under the given logic.

    The formulas, all closed, are evaluated over the logic's exact-check
    carrier and compared as its ``SequentReading`` says.
    """
    spec = LOGICS[logic.kind]
    lv = [interpret(logic, f, EMPTY_ENV, spec.carrier) for f in s.left]
    rv = [interpret(logic, f, EMPTY_ENV, spec.carrier) for f in s.right]
    if spec.sequent is None:
        raise ValidationError(f"no sequent semantics for {logic.kind}")
    return spec.sequent.holds(lv, rv, tol)


def hypersequent_holds(logic: LogicId, h: Hypersequent, tol: float = 1e-9) -> bool:
    """A hypersequent holds iff some component's sequent holds."""
    return any(sequent_holds(logic, s, tol) for s in h.components)


# ---------------------------------------------------------------------------
# Forward generation (for soundness fuzzing)


def _random_axiom_tree(calc: CalculusDef, rng: random.Random) -> ProofTree:
    spec = rng.choice(sorted(calc.axioms, key=lambda s: s.rule.value))
    inst, h = spec.drawn(calc, rng)
    return ProofTree(h, inst, ())


def _axiom_match(calc: CalculusDef, s: Sequent):
    """(rule, params) of the first axiom of calc that s is an instance of,
    or None."""
    for spec in calc.axioms:
        params = spec.match(s)
        if params is not None:
            return spec.rule, params
    return None


def _axiom_leaf(h: Hypersequent, c: int, match) -> ProofTree:
    """The zero-premise proof of h by the axiom match of component c."""
    rule, params = match
    return ProofTree(h, RuleInstance(rule, {"c": c, **params}), ())


def _leaf_for(calc: CalculusDef, h: Hypersequent) -> Optional[ProofTree]:
    """A zero-premise proof of h, if some component is an axiom instance."""
    for c, s in enumerate(h.components):
        match = _axiom_match(calc, s)
        if match is not None:
            return _axiom_leaf(h, c, match)
    return None


def _extend_candidates(calc: CalculusDef, rng: random.Random, tree: ProofTree):
    """Forward steps from tree, one per rule with premises that reads its
    template forward from tree's conclusion (``RuleSpec.forward``), with the
    schema's premises proved by tree (the first, if it is tree's
    conclusion) or else by axiom leaves."""
    results = []
    for spec in calc.table.values():
        step = None if spec.axiom else spec.forward(calc, rng, tree.conclusion)
        if step is None:
            continue
        params, conclusion = step
        inst = RuleInstance(spec.rule, params)
        premises = premises_for(calc, inst, conclusion)
        proofs = []
        for i, p in enumerate(premises):
            sub = tree if i == 0 and p == tree.conclusion else _leaf_for(calc, p)
            if sub is None:
                break
            proofs.append(sub)
        else:
            results.append(ProofTree(conclusion, inst, tuple(proofs)))
    return results


def random_derivation(calc: CalculusDef, seed, depth: int) -> ProofTree:
    """A valid derivation grown forward from an axiom; deterministic."""
    if depth < 1:
        raise ValidationError("derivation depth must be >= 1")
    rng = random.Random(f"{calc.name}/{seed}")
    tree = _random_axiom_tree(calc, rng)
    for _ in range(depth - 1):
        options = _extend_candidates(calc, rng, tree)
        if options:
            tree = rng.choice(options)
    return tree


def soundness_fuzz(
    calc: CalculusDef, trials: int, depth: int, seed, tol: float = 1e-9
) -> dict:
    """Generate derivations and assert the conclusion holds semantically.

    ``applied`` counts, for each rule of the calculus, the nodes of all the
    derivations that apply it, so a rule the generator never reaches shows
    as 0.
    """
    if depth < 1:
        raise ValidationError("derivation depth must be >= 1")
    rng = random.Random(f"fuzz/{calc.name}/{seed}")
    applied = {rule.value: 0 for rule in sorted(calc.rules, key=lambda r: r.value)}
    violations = []
    for i in range(trials):
        d = rng.randint(1, depth)
        tree = random_derivation(calc, f"{seed}/{i}", d)
        stack = [tree]
        while stack:
            node = stack.pop()
            applied[node.rule.rule.value] += 1
            stack.extend(node.premises)
        if not hypersequent_holds(calc.logic, tree.conclusion, tol=tol):
            violations.append(
                {"trial": i, "conclusion": _hyper_to_json(tree.conclusion)}
            )
    return {
        "version": "dlc-report/1",
        "kind": "soundness-fuzz",
        "calculus": calc.name,
        "trials": trials,
        "max_depth": depth,
        "applied": applied,
        "violations": violations,
        "passed": not violations,
    }


# ---------------------------------------------------------------------------
# Rule-local soundness (premises hold semantically => conclusion holds)


def rule_local_soundness(
    calc: CalculusDef, rule: Rule, trials: int, seed, tol: float = 1e-9
) -> dict:
    """If all premises hold semantically, the conclusion must hold too."""
    spec = _spec(calc, rule)
    rng = random.Random(f"local/{calc.name}/{rule.value}/{seed}")
    checked = 0
    violations = []
    for i in range(trials):
        inst, conclusion = spec.drawn(calc, rng)
        premises = premises_for(calc, inst, conclusion)
        if all(hypersequent_holds(calc.logic, p, tol=tol) for p in premises):
            checked += 1
            if not hypersequent_holds(calc.logic, conclusion, tol=tol):
                violations.append(
                    {"trial": i, "conclusion": _hyper_to_json(conclusion)}
                )
    return {
        "version": "dlc-report/1",
        "kind": "rule-local-soundness",
        "calculus": calc.name,
        "rule": rule.value,
        "trials": trials,
        "premises_held": checked,
        "violations": violations,
        "passed": not violations,
    }


# ---------------------------------------------------------------------------
# Bounded backward search

_STREAK_CAP = 2  # the most structural steps backward search takes in a row


def _logical_matches(calc: CalculusDef, s: Sequent) -> List[tuple]:
    """(spec, pos) of every logical rule whose principal formula can sit at
    position pos of s, antecedent first, position by position; at most one
    logical rule of a calculus matches a formula on a given side, and a
    sole one only a formula alone on its side."""
    found = []
    for left, specs in calc.logical.items():
        side = _side(s, left)
        for pos, f in enumerate(side):
            for spec in specs:
                if spec.matches(f) and (len(side) == 1 or not spec.sole):
                    found.append((spec, pos))
    return found


def _shifted(inst: RuleInstance, c: int) -> RuleInstance:
    """inst with its position param ("c", or eex's "i") moved c components
    to the right."""
    params = dict(inst.params)
    for key in ("c", "i"):
        if key in params:
            params[key] += c
    return RuleInstance(inst.rule, params)


def prove_bounded(
    calc: CalculusDef,
    goal: Hypersequent,
    depth_budget: int,
    *,
    work: Optional[dict] = None,
) -> Optional[ProofTree]:
    """Backward proof search; None means the budget was exhausted.

    Depth first: a node closes by an axiom leaf if it can, and otherwise
    tries its logical instances component by component, then (unless the
    last ``_STREAK_CAP`` steps were structural) the structural ones in
    ``_SEARCH_ORDER``.  A failure is memoized with its budget, and an
    instance with a premise on the path from the goal is skipped.

    Within one call each distinct sequent gets a small int id, and a node
    is the tuple of its components' ids, so the memo, the path and every
    table are keyed by int tuples.  Every searched instance rewrites a
    window of adjacent components and copies the rest: a logical instance
    its one component, a structural one its spec's ``window``
    (``calc.windows``).  So a node's premise is the node with the window
    replaced, and what replaces it depends on the window alone.  Each
    window has one premise table per rule kind (the logical rules, or one
    structural spec): for each instance search tries on the window alone,
    in search order, its index among them and the id tuples its premises
    put in place of the window, built whole from the specs' ``tries`` (no
    range check: search lists only instances in range) when a node at
    budget 2 or more first reads the window, which it skips if the table
    is empty.  A window alone is a tuple of sequents, and a premise a
    tuple of components, a new one a (left, right) pair; a Sequent is made
    only for a sequent given a new id.  Proof objects are made only for
    the proof returned: a Hypersequent per node below the goal, and each
    instance re-read by its index from the spec's ``instances``.

    A node with budget 1 (the frontier) needs an instance whose every
    premise has an axiom leaf.  For each window and rule kind the frontier
    keeps its entry, the first such instance on the window alone, read
    from the rule's ``tries`` one instance at a time, each only up to its
    first premise with no axiom component; it reads no premise table.
    This is exact: the frontier node failed its own leaf test, so only
    the components a rule creates can be axioms, and those depend on the
    window alone.  So the first hit, logical rules
    component by component and then each structural spec window by window,
    is the instance a full enumeration would find.  Windows that are not
    fresh (``Window``) are skipped there: their premises hold no axiom
    component the node lacks.  No path check is needed at the frontier,
    since a premise on the path failed its leaf test.

    Whether a frontier node closes is decided from flags kept per
    component id (a logical window closes it; a fresh structural window of
    one component closes it) and per adjacent id pair (a fresh window of
    two closes it), each read from the entries once; only the logical
    flags count when the last two steps were structural.  The ordered scan
    that picks the instance runs only for the premises of an instance that
    wins at a budget-2 node, and for a goal searched at budget 1.

    The ids, tables, flags and memo belong to the call; no state outlives
    it.  If ``work`` is a dict, the call writes its counts into it when it
    returns: sequents (the distinct sequents given ids), nodes expanded,
    memo prunes, frontier hits (an entry looked up again) and misses (an
    entry built), streak cuts (nodes at budget 2 or more whose structural
    instances the streak cap skipped), and premise table hits (a table
    looked up again at budget 2 or more) and misses (a table made).
    """
    _validate(calc, goal)
    windows = calc.windows
    seqs: List[Sequent] = []  # id -> sequent
    # (antecedent, succedent) -> id: keyed by the sides, whose tuples hash
    # and compare without the dataclass's generated methods
    ids: Dict[tuple, int] = {}
    axiom: List[Optional[tuple]] = []  # id -> its first axiom match
    axioms = set()  # ids of the axiom instances
    logical_of: Dict[int, List[tuple]] = {}  # id -> its logical matches
    failed: Dict[tuple, int] = {}
    path = set()  # the nodes from the goal to the one being expanded
    # per window kind (an index into windows), keyed by the window's id (one
    # component) or id pair: its premise tables, and its frontier entries
    tables = [{} for _ in windows]
    closes = [{} for _ in windows]
    singles, doubles = calc.fresh_windows
    # id -> whether a logical window closes it, and whether a fresh
    # structural one does (None until read); id pair -> whether a fresh
    # window of two closes it
    by_logical: List[Optional[bool]] = []
    by_structural: List[Optional[bool]] = []
    by_pair: Dict[tuple, bool] = {}
    expanded = pruned = hits = cuts = table_hits = 0

    def ident(s):
        """The id of s, a Sequent or a (left, right) pair, given when s is
        new; a new pair is made a Sequent then."""
        key = s if s.__class__ is tuple else (s.left, s.right)
        i = ids.get(key)
        if i is None:
            i = ids[key] = len(seqs)
            if key is s:
                s = Sequent(*s)
            seqs.append(s)
            match = _axiom_match(calc, s)
            axiom.append(match)
            if match is not None:
                axioms.add(i)
            by_logical.append(None)
            by_structural.append(None)
        return i

    def listed(win, key, what):
        """What the window kind win lists on the window key alone, in search
        order: the premises of each instance (what "tries") or the instances
        (what "instances"), as the specs' functions of that name give them."""
        spec = win[0]
        if spec is not None:
            alone = tuple(map(seqs.__getitem__, key)) if win[1] == 2 else (seqs[key],)
            return getattr(spec, what)(alone, {})
        matches = logical_of.get(key)
        if matches is None:
            matches = logical_of[key] = _logical_matches(calc, seqs[key])
        return chain.from_iterable(getattr(spec, what)((seqs[key],), spec.where(0, pos))
                                   for spec, pos in matches)  # fmt: skip

    def entries(tried):
        """The premise table of tried: (k, premises) per instance, k its index
        and each premise the id tuple it puts in place of the window."""
        return tuple([(k, tuple([tuple(map(ident, p)) for p in premises]))
                      for k, premises in enumerate(tried)])

    def closing_alone(tried):
        """(k, leaves) of the first instance tried lists the premises of whose
        every premise has an axiom component, leaves holding each premise as
        an id tuple and the index of its first axiom; or None.  A premise's
        components get ids only up to its first axiom, and an instance's
        premises only up to the first with none."""
        for k, premises in enumerate(tried):
            leaves = []
            for p in premises:
                for j, s in enumerate(p):
                    if ident(s) in axioms:
                        leaves.append((tuple(map(ident, p)), j))
                        break
                else:
                    break
            else:
                return k, leaves
        return None

    def entry(j, key):
        """The frontier entry of window kind j at the window key: (k,
        leaves) as closing_alone gives it, or None."""
        nonlocal hits
        found = closes[j]
        got = found.get(key, found)
        if got is not found:
            hits += 1
            return got
        got = found[key] = closing_alone(listed(windows[j], key, "tries"))
        return got

    def closed(n, streak):
        """Whether search(n, 1, streak) finds a proof, with its memo reads
        and writes and its counts; the plan is left to leaf or frontier."""
        nonlocal expanded, pruned
        # every memoized budget is 1 or more
        if n in failed:
            pruned += 1
            return False
        if not axioms.isdisjoint(n):
            return True
        expanded += 1
        for i in n:
            flag = by_logical[i]
            if flag is None:
                flag = by_logical[i] = entry(0, i) is not None
            if flag:
                return True
        if streak < _STREAK_CAP:
            for i in n:
                flag = by_structural[i]
                if flag is None:
                    flag = by_structural[i] = any(
                        entry(j, i) is not None for j in singles
                    )
                if flag:
                    return True
            for key in zip(n, n[1:]):
                flag = by_pair.get(key)
                if flag is None:
                    flag = by_pair[key] = any(
                        entry(j, key) is not None for j in doubles
                    )
                if flag:
                    return True
        failed[n] = 1
        return False

    def leaf(n):
        """The plan of the axiom leaf of n's first axiom component, or None."""
        if not axioms.isdisjoint(n):
            for c, i in enumerate(n):
                if i in axioms:
                    return n, None, c, None, ()
        return None

    def frontier(n):
        """The plan of the proof of n, closed at budget 1 (``closed``) with
        no axiom component, by the first instance over axiom leaves."""
        pairs = tuple(zip(n, n[1:]))
        for j, (_, width, _, new) in enumerate(windows):
            if not new:
                continue
            for c, key in enumerate(n if width == 1 else pairs):
                got = entry(j, key)
                if got is not None:
                    k, leaves = got
                    head, tail = n[:c], n[c + width :]
                    return n, windows[j], c, k, [
                        (head + r + tail, None, c + i, None, ()) for r, i in leaves
                    ]

    def search(n, budget, streak):
        """The plan (n, window kind, c, k, premise plans) of a proof of n
        by the k-th instance of its window at c, k None for an axiom leaf
        at component c; or None."""
        nonlocal expanded, pruned
        if budget == 1:
            return (leaf(n) or frontier(n)) if closed(n, streak) else None
        # a memoized failure has no leaf, so the memo is consulted first;
        # a node out of budget needs only the leaf scan
        if budget > 0 and failed.get(n, -1) >= budget:
            pruned += 1
            return None
        found = leaf(n)
        if found is not None or budget <= 0:
            return found
        expanded += 1
        found = deeper(n, budget, streak)
        if found is None and budget > failed.get(n, -1):
            failed[n] = budget
        return found

    def deeper(n, budget, streak):
        """The plan of a proof of n, at budget 2 or more, by the first
        instance, window kind by window kind and window by window, whose
        premises are off the path and all have proofs; or None."""
        nonlocal cuts, table_hits
        added = n not in path
        if added:
            path.add(n)
        try:
            pairs = tuple(zip(n, n[1:])) if len(n) > 1 else ()
            for j, win in enumerate(windows):
                spec, width, last, _ = win
                if spec is None:
                    after = 0
                elif streak >= _STREAK_CAP:
                    cuts += 1
                    return None
                else:
                    after = streak + 1
                keys = n if width == 1 else pairs
                if not keys:
                    continue
                first = len(keys) - 1 if last else 0
                by_window = tables[j]
                for c, key in enumerate(keys[first:], first):
                    table = by_window.get(key)
                    if table is None:
                        table = by_window[key] = entries(listed(win, key, "tries"))
                    else:
                        table_hits += 1
                    if not table:
                        continue
                    head, tail = n[:c], n[c + width :]
                    for k, premises in table:
                        premises = [head + r + tail for r in premises]
                        # n is on the path only if it was there before this node
                        if not path.isdisjoint(premises) and (
                            not added or any(p in path and p != n for p in premises)
                        ):
                            continue
                        if budget == 2:
                            for p in premises:
                                if not closed(p, after):
                                    break
                            else:
                                subs = [leaf(p) or frontier(p) for p in premises]
                                return n, win, c, k, subs
                            continue
                        subs = []
                        for p in premises:
                            sub = search(p, budget - 1, after)
                            if sub is None:
                                break
                            subs.append(sub)
                        else:
                            return n, win, c, k, subs
            return None
        finally:
            if added:
                path.discard(n)

    def built(plan, h):
        """The proof tree of plan, whose node is h; its instance is the k-th
        the window lists."""
        n, win, c, k, subs = plan
        if k is None:
            return _axiom_leaf(h, c, axiom[n[c]])
        key = n[c] if win[1] == 1 else n[c : c + 2]
        inst = _shifted(next(islice(listed(win, key, "instances"), k, None)), c)
        return ProofTree(h, inst, tuple([
            built(p, Hypersequent(map(seqs.__getitem__, p[0]))) for p in subs
        ]))  # fmt: skip

    try:
        plan = search(tuple(map(ident, goal.components)), depth_budget, 0)
        return None if plan is None else built(plan, goal)
    finally:
        if work is not None:
            work.update(
                sequents=len(seqs), nodes_expanded=expanded, memo_prunes=pruned,
                frontier_hits=hits, frontier_misses=sum(map(len, closes)),
                streak_cuts=cuts,
                table_hits=table_hits, table_misses=sum(map(len, tables)),
            )  # fmt: skip
        # search and built reach themselves through the closures' cells, so
        # the closures and the tables would live on until the cyclic
        # collector runs; emptying those two cells frees them all now
        del search, built


# ---------------------------------------------------------------------------
# Weak completeness goals (residuated-lattice axioms as sequents)


def _atom(i: int, profile: ConnectiveFlags) -> Expr:
    return Cmp(CmpOp.LE, RealConst(float(i)), RealConst(float(i + 1)), profile)


def weak_completeness_goals(calc: CalculusDef):
    """(axiom id, direction, goal hypersequent) triples for R1-R9 of
    ``AXIOMS``: lhs |- rhs, and rhs |- lhs for each equation."""
    pf = calc.profile
    xs = [_atom(i, pf) for i in (1, 2, 3)]
    consts = {"top": BoolConst(True, pf)}
    ops = {k: partial(_make, cls) for k, cls in NODES.items()}
    goals = []
    for axiom, (relation, lhs, rhs) in AXIOMS.items():
        if not axiom.startswith("R"):
            continue
        lhs, rhs = (term_value(t, ops, consts, xs) for t in (lhs, rhs))
        goals.append((axiom, "le", Hypersequent([Sequent((lhs,), (rhs,))])))
        if relation == "eq":
            goals.append((axiom, "ge", Hypersequent([Sequent((rhs,), (lhs,))])))
    return goals


def weak_completeness_suite(calc: CalculusDef, depth_budget: int = 12) -> dict:
    """Discharge every R1-R9 goal by bounded search; each goal's entry
    carries the search's work counts (``prove_bounded``)."""
    results = []
    for axiom, direction, goal in weak_completeness_goals(calc):
        status = "failed"
        work = {}
        tree = prove_bounded(calc, goal, depth_budget, work=work)
        if tree is not None:
            check_proof(calc, tree)
            status = "found"
        results.append(
            {"axiom": axiom, "direction": direction, "status": status,
             "depth": _tree_depth(tree) if tree else None, "work": work}
        )
    return {
        "version": "dlc-report/1",
        "kind": "weak-completeness",
        "calculus": calc.name,
        "goals": results,
        "passed": all(r["status"] == "found" for r in results),
    }


def _tree_depth(tree: ProofTree) -> int:
    """Nodes on the longest root-to-leaf path, from an explicit stack."""
    deepest = 0
    stack = [(tree, 1)]
    while stack:
        node, depth = stack.pop()
        deepest = max(deepest, depth)
        stack.extend((p, depth + 1) for p in node.premises)
    return deepest


# ---------------------------------------------------------------------------
# Serialization ("dlc-proof/1") and bundled fixtures


@contextmanager
def _decoding(what: str):
    """Map every error a malformed document raises to ValidationError."""
    try:
        yield
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise ValidationError(f"malformed {what}: {exc!r}") from exc


def _seq_to_json(s: Sequent) -> dict:
    return {
        "left": [_node_to_json(f) for f in s.left],
        "right": [_node_to_json(f) for f in s.right],
    }


def _json_list(items) -> list:
    if not isinstance(items, list):
        raise TypeError(f"expected a list, got {type(items).__name__}")
    return items


def _seq_from_json(d: dict) -> Sequent:
    return Sequent(
        [_node_from_json(f) for f in _json_list(d["left"])],
        [_node_from_json(f) for f in _json_list(d["right"])],
    )


def _hyper_to_json(h: Hypersequent) -> list:
    return [_seq_to_json(s) for s in h.components]


def _hyper_from_json(items) -> Hypersequent:
    return Hypersequent([_seq_from_json(d) for d in _json_list(items)])


def _tree_to_json(t: ProofTree) -> dict:
    """The tree as nested dicts, built from an explicit stack."""
    root: dict = {}
    stack = [(t, root)]
    while stack:
        node, out = stack.pop()
        premises = [{} for _ in node.premises]
        out["conclusion"] = _hyper_to_json(node.conclusion)
        out["rule"] = {"id": node.rule.rule.value, "params": dict(node.rule.params)}
        out["premises"] = premises
        stack.extend(zip(node.premises, premises))
    return root


def _tree_from_json(d: dict) -> ProofTree:
    """The tree of nested dicts d, from an explicit stack.

    Nodes are decoded in pre-order, so the first malformed one is the one
    reported, and assembled bottom-up.
    """
    decoded = []  # (conclusion, rule instance, premise count) in pre-order
    stack = [d]
    while stack:
        node = stack.pop()
        params = node["rule"].get("params", {})
        if not isinstance(params, dict) or not all(
            type(k) is str and type(v) is int for k, v in params.items()
        ):
            raise ValidationError(
                f"rule parameters must be an object of integers: {params!r}"
            )
        inst = RuleInstance(Rule(node["rule"]["id"]), dict(params))
        conclusion = _hyper_from_json(node["conclusion"])
        premises = _json_list(node.get("premises", []))
        decoded.append((conclusion, inst, len(premises)))
        stack.extend(reversed(premises))
    built: List[ProofTree] = []  # subtrees not yet attached, first premise on top
    for conclusion, inst, n in reversed(decoded):
        premises = tuple(built.pop() for _ in range(n))
        built.append(ProofTree(conclusion, inst, premises))
    return built.pop()


def proof_to_json(calc_name: str, tree: ProofTree) -> dict:
    return {
        "version": PROOF_SCHEMA_VERSION,
        "calculus": calc_name,
        "tree": _tree_to_json(tree),
    }


def proof_from_json(doc: dict):
    """(calculus name, tree) of a "dlc-proof/1" document.

    Every malformed document raises ValidationError.
    """
    if not isinstance(doc, dict) or doc.get("version") != PROOF_SCHEMA_VERSION:
        raise ValidationError(f"expected document version {PROOF_SCHEMA_VERSION}")
    name = doc.get("calculus")
    if not isinstance(name, str) or name not in CALCULI:
        raise ValidationError(f"unknown calculus {name!r}")
    with _decoding("proof document"):
        return name, _tree_from_json(doc["tree"])


def goal_from_json(doc) -> Hypersequent:
    """The hypersequent of a {"components": [...]} goal document.

    Every malformed document raises ValidationError.
    """
    with _decoding("goal document"):
        goal = _hyper_from_json(doc["components"])
    if not goal.components:
        raise ValidationError("a goal needs at least one component")
    return goal


def load_proof(path):
    with open(path) as fh:
        return proof_from_json(json.load(fh))


def load_goal(path) -> Hypersequent:
    with open(path) as fh:
        return goal_from_json(json.load(fh))


def fixtures_dir():
    from importlib.resources import files

    return files("dlc") / "fixtures"
