"""Command-line interface.

Subcommands: compile, eval, laws, shadow, converge, proof (check |
search), weakcomp, fuzz-soundness, train-demo.  Every subcommand
writes a versioned JSON report ("dlc-report/1") to --out (default:
stdout) and exits 0 on pass, 1 when a checked verdict fails, and 2 on
usage or input errors.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from functools import partial
from json.encoder import encode_basestring_ascii as _encode_str

from . import analysis, laws
from .calculus import (
    CALCULI,
    check_proof,
    load_goal,
    load_proof,
    proof_to_json,
    prove_bounded,
    soundness_fuzz,
    weak_completeness_suite,
    _tree_depth,
)
from .carriers import F64Carrier, XRealCarrier
from .core import LogicId, LogicKind, _node_to_json
from .errors import DlcError, StepError, ValidationError
from .semantics import LOGICS
from .speclang import (
    base_env,
    elaborate,
    eval_loss,
    extend_env,
    load_bindings,
    load_network,
    load_spec,
    train_demo,
)

LOGIC_NAMES = tuple(kind.value for kind in LogicKind)
CARRIERS = {"f64": F64Carrier, "xreal": XRealCarrier}


class UsageError(DlcError):
    pass


def _logic_from_args(args) -> LogicId:
    """The logic --logic names, with the parameter its entry takes (--r or
    --nu); a parameter flag the logic does not take is a usage error."""
    kind = LogicKind(args.logic)
    param = LOGICS[kind].param
    if any(getattr(args, flag) is not None for flag in ("r", "nu") if flag != param):
        raise UsageError("--r applies to yager only, --nu to stl only")
    if param is None:
        return LogicId(kind)
    value = getattr(args, param)
    if value is None:
        raise UsageError(f"--logic {kind.value} requires --{param}")
    return LogicId(kind, **{param: value})


def _number(cast, lo=None):
    """An argparse type: a finite number cast reads (int or float), no
    smaller than lo if given."""

    def parse(text: str):
        x = cast(text)
        if not -math.inf < x < math.inf or lo is not None and x < lo:
            what = "an integer" if cast is int else "a finite number"
            at_least = "" if lo is None else f" >= {lo}"
            raise argparse.ArgumentTypeError(f"expected {what}{at_least}, got {x}")
        return x

    parse.__name__ = cast.__name__  # argparse names the type in its messages
    return parse


def _add_logic_flags(p):
    p.add_argument("--logic", choices=LOGIC_NAMES, required=True)
    p.add_argument("--r", type=_number(float), default=None)
    p.add_argument("--nu", type=_number(float), default=None)


_COMMON_FLAGS = {
    "carrier": dict(choices=sorted(CARRIERS), default="f64"),
    "samples": dict(type=_number(int, 1), default=1000),
    "seed": dict(type=int, default=0),
    "tol": dict(type=_number(float, 0), default=1e-9),
}


def _add_common_flags(p, *names):
    """The common flags names, those the subcommand reads, and --out."""
    for name in names:
        p.add_argument(f"--{name}", **_COMMON_FLAGS[name])
    p.add_argument("--out", default=None)


_END = object()


def _float_text(x: float) -> str:
    if x != x or x in (math.inf, -math.inf):
        raise ValueError(
            f"Out of range float values are not JSON compliant: {x!r}"
        )
    return float.__repr__(x)


def _key_text(key) -> str:
    if isinstance(key, str):
        return key
    if isinstance(key, float):
        return _float_text(key)
    if key is True:
        return "true"
    if key is False:
        return "false"
    if key is None:
        return "null"
    if isinstance(key, int):
        return int.__repr__(key)
    raise TypeError(
        f"keys must be str, int, float, bool or None, "
        f"not {key.__class__.__name__}"
    )


def _json_text(value) -> str:
    """``json.dumps(value, indent=2, default=str, allow_nan=False)``,
    written from an explicit stack.

    The library's indenting encoder nests one generator per open list or
    dict and passes each chunk up through all of them, so its time grows
    with the square of the depth, and it stops at the recursion limit.
    This writer makes the same text, raises the same errors in the same
    order, and rejects cycles as the library does.
    """
    out = []
    stack = []  # open containers: [items, is a dict, indent, closer, first, id]
    open_ids = set()
    while True:
        while True:  # write value; a nonempty list or dict is opened
            if isinstance(value, str):
                out.append(_encode_str(value))
            elif value is None:
                out.append("null")
            elif value is True:
                out.append("true")
            elif value is False:
                out.append("false")
            elif isinstance(value, int):
                out.append(int.__repr__(value))
            elif isinstance(value, float):
                out.append(_float_text(value))
            elif isinstance(value, (list, tuple, dict)):
                is_dict = isinstance(value, dict)
                if not value:
                    out.append("{}" if is_dict else "[]")
                elif id(value) in open_ids:
                    raise ValueError("Circular reference detected")
                else:
                    outer = stack[-1][2] if stack else "\n"
                    out.append("{" if is_dict else "[")
                    open_ids.add(id(value))
                    stack.append([
                        iter(value.items() if is_dict else value), is_dict,
                        outer + "  ", outer + ("}" if is_dict else "]"), True,
                        id(value),
                    ])
            else:  # default=str
                value = str(value)
                continue
            break
        while stack:  # the next value, after closing finished containers
            frame = stack[-1]
            items, is_dict, indent, closer, first, open_id = frame
            item = next(items, _END)
            if item is _END:
                stack.pop()
                open_ids.remove(open_id)
                out.append(closer)
                continue
            sep = indent if first else "," + indent
            frame[4] = False
            if is_dict:
                key, value = item
                out.append(sep + _encode_str(_key_text(key)) + ": ")
            else:
                value = item
                out.append(sep)
            break
        else:
            return "".join(out)


def _emit(report: dict, out_path) -> None:
    """Write the report as JSON; nothing is written if it cannot be."""
    try:
        text = _json_text(report)
    except ValueError as exc:
        raise ValidationError(
            f"report holds NaN or an infinite number, which JSON cannot "
            f"represent ({exc})"
        ) from None
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _spec_env(args):
    env = base_env()
    nets = {}
    for item in args.net or []:
        name, _, path = item.partition("=")
        if not path:
            raise UsageError("--net expects name=path")
        nets[name] = load_network(path).as_env_function()
    return extend_env(env, functions=nets)


def _cmd_compile(args) -> int:
    logic = _logic_from_args(args)
    doc = load_spec(args.spec)
    expr = elaborate(doc, logic, _spec_env(args) if args.net else None)
    _emit(
        {
            "version": "dlc-report/1",
            "kind": "compile",
            "logic": args.logic,
            "expr": _node_to_json(expr),
        },
        args.out,
    )
    return 0


def _cmd_eval(args) -> int:
    logic = _logic_from_args(args)
    doc = load_spec(args.spec)
    env = _spec_env(args)
    inputs = load_bindings(args.inputs)
    value, gradient = eval_loss(
        logic, doc, inputs, env, CARRIERS[args.carrier], args.grad
    )
    _emit(
        {
            "version": "dlc-report/1",
            "kind": "eval",
            "logic": args.logic,
            "loss": float(CARRIERS[args.carrier].primal(value)),
            "gradient": list(gradient) if gradient is not None else None,
        },
        args.out,
    )
    return 0


def _cmd_laws(args) -> int:
    matrix = laws.table3_matrix(args.seed, args.samples, args.tol)
    expected = laws.EXPECTED_MATRIX
    mismatches = [
        {"logic": lg, "group": g, "expected": expected[lg][g], "got": v}
        for lg, row in matrix["groups"].items()
        for g, v in row.items()
        if expected[lg][g] != v
    ]
    matrix["expected_mismatches"] = mismatches
    _emit(matrix, args.out)
    return 0 if not mismatches else 1


def _cmd_shadow(args) -> int:
    logic = _logic_from_args(args)
    rep = analysis.shadow_lifting_mand(
        logic, args.n, [0.25, 0.5, 0.75, 1.0], args.tol
    )
    _emit(rep.to_json(), args.out)
    return 0 if rep.holds else 1


def _schedule(fixed, limit: float) -> list:
    """The fixed parameter values below limit, then limit itself."""
    return [v for v in fixed if v < limit] + [limit]


def _cmd_converge(args) -> int:
    import random

    rng = random.Random(args.seed)
    logic = _logic_from_args(args)
    param = LOGICS[logic.kind].param
    if param == "nu":  # the soft conjunction's limit
        values = [rng.uniform(0.1, 2.0) for _ in range(4)]
        if args.negative:
            values = [-v for v in values]
        rep = analysis.convergence_stl_min(
            values, _schedule((1.0, 3.0, 10.0, 30.0), logic.nu), args.tol
        )
    elif param == "r":  # the Yager connectives' limit
        pairs = [(rng.uniform(0.05, 0.95), rng.uniform(0.05, 0.95)) for _ in range(20)]
        rep = analysis.convergence_yager_godel(
            pairs, _schedule((1.0, 2.0, 4.0, 8.0, 16.0), logic.r), args.tol
        )
    else:
        raise UsageError("converge applies to --logic stl or --logic yager")
    _emit(rep.to_json(), args.out)
    return 0 if rep.passed else 1


def _cmd_proof_check(args) -> int:
    name, tree = load_proof(args.proof)
    calc = CALCULI[args.calculus or name]
    try:
        check_proof(calc, tree)
        ok = True
        detail = None
    except StepError as exc:
        ok = False
        detail = str(exc)
    _emit(
        {
            "version": "dlc-report/1",
            "kind": "proof-check",
            "calculus": calc.name,
            "depth": _tree_depth(tree),
            "passed": ok,
            "detail": detail,
        },
        args.out,
    )
    return 0 if ok else 1


def _cmd_proof_search(args) -> int:
    calc = CALCULI[args.calculus]
    goal = load_goal(args.goal)
    work = {}
    tree = prove_bounded(calc, goal, args.depth, work=work)
    report = {
        "version": "dlc-report/1",
        "kind": "proof-search",
        "calculus": calc.name,
        "depth_budget": args.depth,
        "found": tree is not None,
        "proof": proof_to_json(calc.name, tree) if tree is not None else None,
        "work": work,
    }
    _emit(report, args.out)
    return 0 if tree is not None else 1


def _cmd_weakcomp(args) -> int:
    calc = CALCULI[args.calculus]
    rep = weak_completeness_suite(calc, args.depth)
    _emit(rep, args.out)
    return 0 if rep["passed"] else 1


def _cmd_fuzz(args) -> int:
    calc = CALCULI[args.calculus]
    rep = soundness_fuzz(calc, args.samples, args.depth, args.seed, args.tol)
    _emit(rep, args.out)
    return 0 if rep["passed"] else 1


def _cmd_train(args) -> int:
    logic = _logic_from_args(args)
    doc = load_spec(args.spec)
    env = _spec_env(args)
    inputs = load_bindings(args.inputs)
    trace = train_demo(
        logic,
        doc,
        inputs,
        env,
        x_name=args.x,
        center_name=args.center,
        radius_name=args.radius,
        steps=args.steps,
        learning_rate=args.lr,
    )
    _emit(
        {
            "version": "dlc-report/1",
            "kind": "train-demo",
            "logic": args.logic,
            "trace": trace,
        },
        args.out,
    )
    return 0


# No parser takes a flag's prefix for the flag: a misspelt or truncated
# flag exits 2 instead of running as the flag it starts.
_Parser = partial(argparse.ArgumentParser, allow_abbrev=False)


def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(prog="dlc", description="Differentiable-logic toolkit")
    sub = ap.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("compile", help="lower a spec file to a core expression")
    p.add_argument("spec")
    p.add_argument("--net", action="append", metavar="NAME=PATH")
    _add_logic_flags(p)
    _add_common_flags(p)
    p.set_defaults(fn=_cmd_compile)

    p = sub.add_parser("eval", help="evaluate a spec's loss and gradient")
    p.add_argument("spec")
    p.add_argument("--inputs", required=True)
    p.add_argument("--net", action="append", metavar="NAME=PATH")
    p.add_argument("--grad", default=None, metavar="VECTOR")
    _add_logic_flags(p)
    _add_common_flags(p, "carrier")
    p.set_defaults(fn=_cmd_eval)

    p = sub.add_parser("laws", help="algebraic law matrix for all logics")
    _add_common_flags(p, "samples", "seed", "tol")
    p.set_defaults(fn=_cmd_laws)

    p = sub.add_parser("shadow", help="shadow-lifting check for one logic")
    p.add_argument("--n", type=_number(int, 1), default=3)
    _add_logic_flags(p)
    _add_common_flags(p, "tol")
    p.set_defaults(fn=_cmd_shadow)

    p = sub.add_parser("converge", help="limit checks (stl or yager)")
    p.add_argument("--negative", action="store_true",
                   help="use negative sample values (stl only)")
    _add_logic_flags(p)
    _add_common_flags(p, "seed", "tol")
    p.set_defaults(fn=_cmd_converge)

    proof = sub.add_parser("proof", help="proof checking and search")
    psub = proof.add_subparsers(dest="proof_command", required=True,
                                parser_class=_Parser)

    p = psub.add_parser("check", help="re-check a serialized proof")
    p.add_argument("proof")
    p.add_argument("--calculus", choices=sorted(CALCULI), default=None)
    _add_common_flags(p)
    p.set_defaults(fn=_cmd_proof_check)

    p = psub.add_parser("search", help="bounded backward proof search")
    p.add_argument("--calculus", choices=sorted(CALCULI), required=True)
    p.add_argument("--goal", required=True)
    p.add_argument("--depth", type=_number(int, 0), default=12)
    _add_common_flags(p)
    p.set_defaults(fn=_cmd_proof_search)

    p = sub.add_parser("weakcomp", help="discharge the lattice/monoid goals")
    p.add_argument("--calculus", choices=sorted(CALCULI), required=True)
    p.add_argument("--depth", type=_number(int, 0), default=12)
    _add_common_flags(p)
    p.set_defaults(fn=_cmd_weakcomp)

    p = sub.add_parser("fuzz-soundness", help="random-derivation soundness fuzz")
    p.add_argument("--calculus", choices=sorted(CALCULI), required=True)
    p.add_argument("--depth", type=_number(int, 1), default=6)
    _add_common_flags(p, "samples", "seed", "tol")
    p.set_defaults(fn=_cmd_fuzz)

    p = sub.add_parser("train-demo", help="projected gradient ascent demo")
    p.add_argument("spec")
    p.add_argument("--inputs", required=True)
    p.add_argument("--net", action="append", metavar="NAME=PATH")
    p.add_argument("--x", default="x")
    p.add_argument("--center", default="v")
    p.add_argument("--radius", default="eps")
    p.add_argument("--steps", type=_number(int, 0), default=10)
    p.add_argument("--lr", type=_number(float), default=0.1)
    _add_logic_flags(p)
    _add_common_flags(p)
    p.set_defaults(fn=_cmd_train)

    return ap


def run(argv) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.fn(args)
    except (DlcError, OSError, json.JSONDecodeError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RecursionError as exc:
        print(f"error: input nested too deeply to process ({exc})", file=sys.stderr)
        return 2
    except MemoryError:
        print("error: input too large to process: out of memory", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
