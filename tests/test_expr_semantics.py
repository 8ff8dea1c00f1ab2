"""The emitter's expressions against the interpreter's.

Generated plans inline every expression as Python text
(``codegen._Emitter.expr``, reachable as ``compile_expr``); the
interpreter engine and ``why_not`` walk the AST (``eval.eval_expr``).
The two are written independently, so the differential harness checks
one against the other.  These tests pin the pair directly: every
expression of every shipped program, under seeded random bindings, and
the edge cases of the semantics (integer division, short-circuit
``&&``/``||``, unary operators, wildcard and unbound variables) must give
the same value, or the same error.
"""

import random

import pytest

from repro.boomfs.master import master_program
from repro.mapreduce.jobtracker import POLICIES, scheduler_program
from repro.overlog.ast import AggSpec, Assign, Atom, BinOp, Cond, Const, FuncCall, NotIn, UnOp, Var, expr_vars
from repro.overlog.codegen import compile_expr, expr_calls
from repro.overlog.errors import EvaluationError
from repro.overlog.eval import eval_expr
from repro.overlog.functions import FunctionLibrary
from repro.paxos.replica import paxos_program
from repro.telemetry.monitor import monitor_program

PROGRAMS = {
    "boomfs_master": master_program,
    "paxos": paxos_program,
    "monitor": monitor_program,
    **{f"mr_{p}": (lambda p=p: scheduler_program(p)) for p in POLICIES},
}

# Values a binding may take: numbers of both kinds, booleans, nil,
# strings shaped like the programs' paths and tuples like their lists.
POOL = (0, 1, 2, -3, 7, 2.5, True, False, None, "/", "/a/b", "x", (), (1, 2), ("a", "b"))


def _exprs(rule):
    """Every top-level expression of a rule: atom arguments, assignments,
    conditions and head arguments (an aggregate's value variable)."""
    for elem in rule.body:
        if isinstance(elem, Atom):
            yield from elem.args
        elif isinstance(elem, NotIn):
            yield from elem.atom.args
        elif isinstance(elem, (Assign, Cond)):
            yield elem.expr
    for arg in rule.head.args:
        yield arg.var if isinstance(arg, AggSpec) else arg


def _library(names):
    """The default builtins, plus a deterministic stand-in for each
    runtime-registered one (``f_now``, ``f_newid``, ...)."""
    functions = FunctionLibrary()
    for name in sorted(names):
        if name not in functions:
            functions.register(name, lambda *args, name=name: (name, args))
    return functions


def _outcome(fn):
    try:
        value = fn()
    except Exception as exc:  # noqa: BLE001 - the error is the outcome
        return ("raised", type(exc), str(exc))
    return ("value", type(value), value)


def _agree(expr, env, functions):
    compiled = compile_expr(expr, functions)
    walked = _outcome(lambda: eval_expr(expr, env, functions))
    assert _outcome(lambda: compiled(env)) == walked, (str(expr), env)
    return walked


@pytest.mark.parametrize("program", sorted(PROGRAMS))
def test_shipped_expressions_agree_with_the_interpreter(program):
    rules = PROGRAMS[program]().rules
    exprs = {repr(e): e for rule in rules for e in _exprs(rule)}
    functions = _library(set().union(*(expr_calls(e) for e in exprs.values())))
    rng = random.Random(program)
    values = 0
    for expr in exprs.values():
        names = sorted(expr_vars(expr) - {"_"})
        for _ in range(12):
            env = {name: rng.choice(POOL) for name in names}
            values += _agree(expr, env, functions)[0] == "value"
        if names:
            # One variable left unbound: the same error from both.
            env = {name: 1 for name in names[1:]}
            assert _agree(expr, env, functions)[0] == "raised"
    assert values > len(exprs)


def _bad_call():
    return FuncCall("f_boom", ())


@pytest.mark.parametrize("expr, env, expected", [
    (BinOp("/", Const(7), Const(2)), {}, 3),
    (BinOp("/", Const(-7), Const(2)), {}, -4),
    (BinOp("/", Const(7.0), Const(2)), {}, 3.5),
    (BinOp("/", Var("X"), Const(0)), {"X": 1}, ZeroDivisionError),
    (BinOp("%", Const(-7), Const(3)), {}, 2),
    (BinOp("&&", Const(0), _bad_call()), {}, False),
    (BinOp("&&", Const(2), Const("s")), {}, True),
    (BinOp("||", Const("s"), _bad_call()), {}, True),
    (BinOp("||", Const(0), Const(None)), {}, False),
    (BinOp("&&", Const(1), _bad_call()), {}, EvaluationError),
    (UnOp("!", Const(0)), {}, True),
    (UnOp("-", Var("X")), {"X": 4}, -4),
    (BinOp("==", Const(1), Const(1.0)), {}, True),
    (BinOp("<", Const("a"), Const(1)), {}, TypeError),
    (BinOp("+", Var("X"), Var("Y")), {"X": (1,), "Y": (2,)}, (1, 2)),
    (Var("_"), {}, EvaluationError),
    (Var("Missing"), {"X": 1}, EvaluationError),
    (FuncCall("f_size", (Var("X"),)), {"X": (1, 2, 3)}, 3),
    (FuncCall("f_toint", (Const("x"),)), {}, EvaluationError),
])
def test_edge_cases_agree(expr, env, expected):
    functions = FunctionLibrary()
    functions.register("f_boom", lambda: 1 / 0)
    kind, typ, value = _agree(expr, env, functions)
    if isinstance(expected, type):
        assert (kind, typ) == ("raised", expected)
    else:
        assert (kind, value) == ("value", expected)
        assert typ is type(expected)
