"""Rule compilation: cached join plans for the Overlog evaluator.

The interpreted evaluator (:mod:`repro.overlog.eval`) re-derives the same
decisions on every semi-naive pass: which column of each body atom can be
probed through a hash index, which variables are bound at each body
position, and how to evaluate every head/predicate expression (a recursive
AST walk per derived tuple).  All of those are static properties of the
rule text, so this module resolves them **once, at program-install time**:

* ``compile_expr`` turns an expression AST into a Python closure
  ``env -> value`` with the same semantics (including Overlog's integer
  division and short-circuit ``&&``/``||``).
* ``body_order`` fixes, for one rule and one *drive* (what changed: rows
  inserted into a positive atom's relation, rows removed from a negated
  atom's or, for an aggregate, from a positive atom's), the order the
  body runs in and the view each atom reads; the interpreter, the
  closure steps below and the source emitter all iterate it.
* ``JoinPlan`` is the compiled form of one rule body for one drive: an
  ordered sequence of steps (delta scan, composite index probe, table
  scan, negation check, assignment, condition) with the bound-variable
  sets and index column choices frozen in.
* ``AggregatePlan`` is the grouping/fold half of an aggregate rule and
  its per-group fold state: contributions enter and leave it, and only
  the groups whose fold moved produce head rows.  Every tier, naive
  evaluation and both observers turn bindings into head rows here.
* ``PlanCache`` owns every plan for a rule set — a full-evaluation plan,
  one ``JoinPlan`` per positive atom (``delta@i``) and per drivable
  negated atom (``removed@k``) and, for aggregate rules over stored
  relations, one per positive atom losing rows (``retract@i``) — and is
  invalidated wholesale when rules are added or swapped.

Plans probe composite (multi-column) hash indexes: where the interpreter
probed only the *first* bound column, a plan probes **all** bound columns
at once (`Table.rows_matching_cols`), so a join like
``chunk(File, Id, Node)`` with ``File`` and ``Node`` bound touches only
the rows matching both.  The candidate-row filter that remains after the
probe is a specialized matcher closure, not a generic ``match_atom``
interpretation.

Correctness notes (load-bearing, relied on by the differential tests):

* Step-level dedup of identical environments is only needed when an atom
  contains a wildcard argument.  For wildcard-free atoms, distinct input
  environments with the same key set extend to distinct outputs (new
  bindings only add keys; rows that agree on every checked and bound
  column are the same row), so plans skip the frozenset dedup entirely —
  this is where most of the interpreter's per-tuple overhead went.
* Environments reaching the head are pairwise distinct for the same
  reason, so head projection needs no second dedup pass (the interpreted
  path re-froze every environment to check this).
* Expression evaluation order, integer-division semantics and error
  behavior are preserved exactly; the compiled path must be
  indistinguishable from the interpreter in everything but speed.
"""

from __future__ import annotations

import operator
from fractions import Fraction
from math import isfinite
from typing import Any, Callable, Iterable, Optional

from .ast import (
    AggSpec,
    Assign,
    Atom,
    BinOp,
    Cond,
    Const,
    Expr,
    FuncCall,
    NotIn,
    Rule,
    UnOp,
    Var,
    atom_vars,
    expr_vars,
)
from .catalog import Catalog, Row, Table
from .codegen import (
    Unsupported,
    atom_needs_dedup,
    expr_calls,
    generate_plan_source,
)
from .errors import EvaluationError
from .functions import DEFAULT_FUNCTIONS, FunctionLibrary

Env = dict[str, Any]
ExprFn = Callable[[Env], Any]


# ---------------------------------------------------------------------------
# Expression compilation
# ---------------------------------------------------------------------------

_BINOPS: dict[str, Callable[[Any, Any], Any]] = {
    "+": operator.add,
    "-": operator.sub,
    "*": operator.mul,
    "%": operator.mod,
    "==": operator.eq,
    "!=": operator.ne,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
}


def compile_expr(expr: Expr, functions: FunctionLibrary) -> ExprFn:
    """Compile an expression AST into a closure ``env -> value``.

    Semantics mirror :func:`repro.overlog.eval.eval_expr` exactly,
    including error messages, so the compiled and interpreted paths are
    interchangeable.
    """
    if isinstance(expr, Const):
        value = expr.value
        return lambda env: value
    if isinstance(expr, Var):
        if expr.is_wildcard:
            def wildcard(env: Env) -> Any:
                raise EvaluationError("wildcard _ used where a value is required")
            return wildcard
        name = expr.name
        def load(env: Env) -> Any:
            try:
                return env[name]
            except KeyError:
                raise EvaluationError(f"unbound variable {name}") from None
        return load
    if isinstance(expr, FuncCall):
        fname = expr.name
        call = functions.call
        arg_fns = tuple(compile_expr(a, functions) for a in expr.args)
        return lambda env: call(fname, tuple(fn(env) for fn in arg_fns))
    if isinstance(expr, UnOp):
        operand = compile_expr(expr.operand, functions)
        if expr.op == "-":
            return lambda env: -operand(env)
        if expr.op == "!":
            return lambda env: not operand(env)
        raise EvaluationError(f"unknown unary operator {expr.op}")
    if isinstance(expr, BinOp):
        return _compile_binop(expr, functions)
    raise EvaluationError(f"cannot evaluate {expr!r}")


def _compile_binop(expr: BinOp, functions: FunctionLibrary) -> ExprFn:
    op = expr.op
    left = compile_expr(expr.left, functions)
    right = compile_expr(expr.right, functions)
    if op == "&&":
        return lambda env: bool(left(env) and right(env))
    if op == "||":
        return lambda env: bool(left(env) or right(env))
    if op == "/":
        def divide(env: Env) -> Any:
            lv = left(env)
            rv = right(env)
            # Integer operands use integer division (Overlog is int-heavy:
            # chunk offsets, slot counts); any float operand gives float math.
            if isinstance(lv, int) and isinstance(rv, int):
                return lv // rv
            return lv / rv
        return divide
    fn = _BINOPS.get(op)
    if fn is None:
        raise EvaluationError(f"unknown operator {op}")
    return lambda env: fn(left(env), right(env))


# ---------------------------------------------------------------------------
# Atom matchers
# ---------------------------------------------------------------------------

# Matcher micro-ops, resolved at compile time.  ``check_var`` and
# ``check_expr`` read the *effective* environment (including bindings made
# by earlier columns of the same atom), matching the interpreter's strict
# left-to-right unification.
_BIND = 0
_CHECK_VAR = 1
_CHECK_CONST = 2
_CHECK_EXPR = 3

MatchFn = Callable[[Row, Env], Optional[Env]]


def _compile_matcher(
    atom: Atom,
    bound: frozenset,
    probe_cols: tuple[int, ...],
    functions: FunctionLibrary,
) -> MatchFn:
    """Build ``match(row, env) -> extended env | None`` for one atom.

    Columns in ``probe_cols`` were already constrained by the index probe
    (constants and previously-bound variables), so the matcher skips them.
    """
    arity = len(atom.args)
    probed = set(probe_cols)
    ops: list[tuple[int, int, Any]] = []
    seen_new: set[str] = set()
    for col, arg in enumerate(atom.args):
        if isinstance(arg, Var):
            if arg.is_wildcard:
                continue
            if arg.name in bound or arg.name in seen_new:
                if col not in probed:
                    ops.append((_CHECK_VAR, col, arg.name))
            else:
                ops.append((_BIND, col, arg.name))
                seen_new.add(arg.name)
        elif isinstance(arg, Const):
            if col not in probed:
                ops.append((_CHECK_CONST, col, arg.value))
        else:
            ops.append((_CHECK_EXPR, col, compile_expr(arg, functions)))

    if all(kind == _BIND for kind, _, _ in ops):
        bind_pairs = tuple((col, name) for _, col, name in ops)

        def match_bind_only(row: Row, env: Env) -> Optional[Env]:
            if len(row) != arity:
                return None
            new_env = dict(env)
            for col, name in bind_pairs:
                new_env[name] = row[col]
            return new_env

        # With zero ops every column is probed/wildcard: any row of the
        # right arity matches without extending the environment.
        if not bind_pairs:
            def match_any(row: Row, env: Env) -> Optional[Env]:
                return env if len(row) == arity else None
            return match_any
        return match_bind_only

    op_tuple = tuple(ops)

    def match(row: Row, env: Env) -> Optional[Env]:
        if len(row) != arity:
            return None
        new_env: Optional[Env] = None
        for kind, col, payload in op_tuple:
            if kind == _BIND:
                if new_env is None:
                    new_env = dict(env)
                new_env[payload] = row[col]
            elif kind == _CHECK_VAR:
                cur = env if new_env is None else new_env
                if cur[payload] != row[col]:
                    return None
            elif kind == _CHECK_CONST:
                if payload != row[col]:
                    return None
            else:  # _CHECK_EXPR
                cur = env if new_env is None else new_env
                if payload(cur) != row[col]:
                    return None
        return env if new_env is None else new_env

    return match


def _probe_spec(
    atom: Atom, bound: frozenset, functions: FunctionLibrary
) -> tuple[tuple[int, ...], tuple[ExprFn, ...]]:
    """All columns usable as an index probe — every constant argument and
    every previously-bound variable — i.e. the *most-bound* composite key
    available at this body position."""
    cols: list[int] = []
    fns: list[ExprFn] = []
    for col, arg in enumerate(atom.args):
        if isinstance(arg, Const):
            cols.append(col)
            fns.append(compile_expr(arg, functions))
        elif isinstance(arg, Var) and not arg.is_wildcard and arg.name in bound:
            cols.append(col)
            fns.append(compile_expr(arg, functions))
    return tuple(cols), tuple(fns)


# ---------------------------------------------------------------------------
# Plan steps
# ---------------------------------------------------------------------------

# Lineage tracking (provenance ledger support).  When the evaluator runs
# with a DerivationLedger attached, plans execute through
# ``execute_tracked``, which returns each head tuple together with the
# *final body environment* that produced it.  The join steps themselves
# are untouched (environments are never mutated after a step emits them,
# so holding references is free); the evaluator reconstructs the witness
# body tuples from the environment only for derivations it actually
# records — genuinely-new tuples — instead of paying per joined row.


# How an atom step sources its candidate rows relative to the plan's
# driving rows.
_SRC_NORMAL = "full"        # full relation (probe or scan)
_SRC_DELTA = "delta"        # ranges over the plan's driving rows
_SRC_POST_DELTA = "full-minus-delta"  # full relation minus the delta


# ---------------------------------------------------------------------------
# Body ordering (shared by the interpreter, closure and source tiers)
# ---------------------------------------------------------------------------

# What a plan's driving rows are: ``None`` for the full evaluation,
# ``("delta", i)`` for rows inserted into the i-th positive atom's
# relation, ``("removed", k)`` for rows that left the relation of the
# k-th negated atom and, in aggregate rules, ``("retract", i)`` for rows
# that left the i-th positive atom's relation, ``("regroup", None)`` for
# the keys of the groups whose members the body is to enumerate and
# ``("events", i)`` for this step's events of the i-th positive atom.
Drive = Optional[tuple[str, Optional[int]]]


def drive_tag(drive: Drive) -> str:
    if drive is None:
        return "full"
    return drive[0] if drive[1] is None else f"{drive[0]}@{drive[1]}"


def _reorderable(rule: Rule) -> bool:
    """Whether running the body's atoms out of textual order keeps its
    meaning.  Two shapes pin the textual order: an atom argument that is
    computed (it needs its variables bound first), and a variable read
    by a ``notin``, condition or assignment *before* anything binds it —
    existential inside the ``notin``, an error elsewhere — that a later
    element binds, which a reordering could turn into a bound read."""
    bound: set[str] = set()
    loose: set[str] = set()
    for elem in rule.body:
        if isinstance(elem, Atom):
            if not all(isinstance(a, (Var, Const)) for a in elem.args):
                return False
            names = atom_vars(elem)
        elif isinstance(elem, Assign):
            loose |= expr_vars(elem.expr) - bound
            names = {elem.var.name}
        else:
            read = (
                atom_vars(elem.atom) if isinstance(elem, NotIn)
                else expr_vars(elem.expr)
            )
            loose |= read - bound
            continue
        if names & loose:
            return False
        bound |= names
    return True


def removal_drives(
    rule: Rule, catalog: Catalog
) -> Optional[tuple[int, ...]]:
    """How the rule reacts when rows leave a relation it negates.

    ``None``: not at all.  Every binding of a rule with an event atom
    holds a row of the current step, so the insert deltas find it, and
    an aggregate answers removals through its fold state
    (:func:`fold_strategy`).  Otherwise the negated atoms (as indexes into
    ``rule.negatives``) whose removed rows can *drive* the rule: every
    argument is a constant, a wildcard or a variable bound earlier in
    the body, so a removed row names exactly the bindings it was
    blocking.  Removals from any other ``notin`` re-evaluate the rule in
    full."""
    if rule.is_aggregate or not all(
        catalog.is_materialized(a.name) for a in rule.positives
    ):
        return None
    if not _reorderable(rule):
        return ()
    out: list[int] = []
    bound: set[str] = set()
    k = 0
    for elem in rule.body:
        if isinstance(elem, Atom):
            bound |= atom_vars(elem)
        elif isinstance(elem, Assign):
            bound.add(elem.var.name)
        elif isinstance(elem, NotIn):
            if catalog.is_materialized(elem.atom.name) and all(
                isinstance(a, Const)
                or (isinstance(a, Var) and (a.is_wildcard or a.name in bound))
                for a in elem.atom.args
            ):
                out.append(k)
            k += 1
    return tuple(out)


def body_order(
    rule: Rule, drive: Drive, catalog: Catalog
) -> list[tuple[Any, Optional[str]]]:
    """The execution order of a rule body for one drive, as ``(element,
    view)`` pairs; ``view`` is the row source of an atom and ``None``
    for every other element.

    The full plan keeps textual order.  A driven plan starts at its
    driving atom and then picks the remaining atoms greedily: event
    atoms first (this step's pool is the smallest relation there is),
    then atoms whose primary key is bound, then most bound columns, ties
    textual.  What does not move:

    * every atom keeps the semi-naive view of its *textual* position —
      full before the delta atom, full-minus-delta after it — so each
      new combination of rows is still derived by exactly one plan;
    * conditions, assignments and ``notin`` run in textual order, each
      as soon as every atom written before it has run, so a guard never
      sees a binding it was not written to see;
    * an atom waits for an earlier assignment that binds one of its
      variables, so assignments keep binding rather than checking.

    A ``removed@k`` plan is driven by the negated atom itself, emitted
    as a plain atom over the removed rows; every positive atom reads
    full-minus-delta (bindings using a row inserted this step belong to
    the insert deltas) and the ``notin`` still runs at its place, since
    another row may block and a removed row may have been re-inserted.

    The drives of aggregate rules: ``retract@i`` ranges atom ``i`` over
    the rows that left its relation and every other atom over
    full-minus-delta — the state a lost binding lived in; ``regroup`` is
    driven by group keys, matched by an atom of the head's group
    arguments, and ``events@i`` by the events of atom ``i``, and both
    read every other relation in full.
    """
    body = rule.body
    if drive is None:
        return [
            (e, _SRC_NORMAL if isinstance(e, Atom) else None) for e in body
        ]
    kind, at = drive
    views: list[Optional[str]] = []
    pos = 0
    for elem in body:
        if not isinstance(elem, Atom):
            views.append(None)
            continue
        if kind != "removed" and pos == at:
            views.append(_SRC_DELTA)
        elif kind in ("regroup", "events") or (kind == "delta" and pos < at):
            views.append(_SRC_NORMAL)
        else:
            views.append(_SRC_POST_DELTA)
        pos += 1
    if kind in ("delta", "retract", "events") and not _reorderable(rule):
        return list(zip(body, views))

    order: list[tuple[Any, Optional[str]]] = []
    bound: set[str] = set()
    pending = set(range(len(body)))
    if kind in ("delta", "retract", "events"):
        first = views.index(_SRC_DELTA)
        order.append((body[first], _SRC_DELTA))
        pending.discard(first)
        bound |= atom_vars(body[first])
    else:
        driver = (
            rule.negatives[at] if kind == "removed"
            else Atom("<group>", _group_args(rule))
        )
        order.append((driver, _SRC_DELTA))
        bound |= atom_vars(driver)
    def rank(idx: int) -> tuple:
        atom = body[idx]
        cols = {
            col
            for col, a in enumerate(atom.args)
            if isinstance(a, Const) or (not a.is_wildcard and a.name in bound)
        }
        table = catalog.tables.get(atom.name)
        if table is None:
            return (0, 0, idx)
        keys = table.decl.keys or range(table.decl.arity)
        return (1 if cols.issuperset(keys) else 2, -len(cols), idx)

    while pending:
        # Everything that is not an atom and has no unrun atom before it.
        for idx in sorted(pending):
            elem = body[idx]
            if isinstance(elem, Atom):
                break
            order.append((elem, None))
            pending.discard(idx)
            if isinstance(elem, Assign):
                bound.add(elem.var.name)
        # The first unrun atom waits for nothing, so one is always ready.
        waiting: set[str] = set()
        ready: list[int] = []
        for idx in sorted(pending):
            elem = body[idx]
            if isinstance(elem, Assign):
                waiting.add(elem.var.name)
            elif isinstance(elem, Atom) and not atom_vars(elem) & waiting:
                ready.append(idx)
        if ready:
            idx = min(ready, key=rank)
            order.append((body[idx], views[idx]))
            pending.discard(idx)
            bound |= atom_vars(body[idx])
    return order


class _AtomStep:
    """One positive body atom: delta scan, composite-index probe, or
    full scan, followed by the specialized matcher."""

    __slots__ = (
        "atom", "name", "source", "table", "probe_cols", "probe_fns",
        "match", "needs_dedup",
    )

    def __init__(
        self,
        atom: Atom,
        source: str,
        table: Optional[Table],
        probe_cols: tuple[int, ...],
        probe_fns: tuple[ExprFn, ...],
        match: MatchFn,
        needs_dedup: bool,
    ):
        self.atom = atom
        self.name = atom.name
        self.source = source
        self.table = table
        self.probe_cols = probe_cols
        self.probe_fns = probe_fns
        self.match = match
        # Only atoms with wildcard columns can map distinct rows onto the
        # same environment; everything else is provably duplicate-free.
        self.needs_dedup = needs_dedup

    def run(
        self,
        ev: Any,
        envs: list[Env],
        delta_rows: list[Row],
        exclude: Optional[dict[str, set[Row]]],
    ) -> list[Env]:
        banned: Optional[set[Row]] = None
        rows: Optional[Iterable[Row]] = None
        probing = False
        if self.source == _SRC_DELTA:
            rows = delta_rows
        else:
            if (
                self.source == _SRC_POST_DELTA
                and exclude is not None
            ):
                banned = exclude.get(self.name)
            if self.table is not None and self.probe_cols:
                probing = True
            elif self.table is not None:
                rows = self.table.rows_list()
            else:
                rows = ev._event_pool.get(self.name, ())
            if banned is not None and not probing:
                rows = [r for r in rows if r not in banned]

        out: list[Env] = []
        match = self.match
        seen: Optional[set] = set() if self.needs_dedup else None
        if probing:
            table = self.table
            cols = self.probe_cols
            fns = self.probe_fns
            for env in envs:
                values = tuple(fn(env) for fn in fns)
                for row in table.rows_matching_cols(cols, values):
                    if banned is not None and row in banned:
                        continue
                    matched = match(row, env)
                    if matched is not None:
                        if seen is not None:
                            sig = frozenset(matched.items())
                            if sig in seen:
                                continue
                            seen.add(sig)
                        out.append(matched)
        else:
            for env in envs:
                for row in rows:
                    matched = match(row, env)
                    if matched is not None:
                        if seen is not None:
                            sig = frozenset(matched.items())
                            if sig in seen:
                                continue
                            seen.add(sig)
                        out.append(matched)
        return out

    def describe(self) -> str:
        if self.source == _SRC_DELTA:
            access = f"delta({self.name})"
        elif self.table is not None and self.probe_cols:
            keys = ", ".join(
                f"col{c}={self.atom.arg_str(c)}" for c in self.probe_cols
            )
            access = f"probe {self.name}[{keys}]"
        else:
            kind = "scan" if self.table is not None else "scan-events"
            access = f"{kind} {self.name}"
        if self.source == _SRC_POST_DELTA:
            access += " \\ delta"
        binds = sorted(
            a.name
            for a in self.atom.args
            if isinstance(a, Var) and not a.is_wildcard
        )
        suffix = f" -> bind {', '.join(binds)}" if binds else ""
        if self.needs_dedup:
            suffix += " [dedup]"
        return access + suffix


class _NegStep:
    """A ``notin`` check: keep environments with no matching row."""

    __slots__ = ("atom", "name", "table", "probe_cols", "probe_fns", "match")

    def __init__(
        self,
        atom: Atom,
        table: Optional[Table],
        probe_cols: tuple[int, ...],
        probe_fns: tuple[ExprFn, ...],
        match: MatchFn,
    ):
        self.atom = atom
        self.name = atom.name
        self.table = table
        self.probe_cols = probe_cols
        self.probe_fns = probe_fns
        self.match = match

    def run(
        self,
        ev: Any,
        envs: list[Env],
        delta_rows: list[Row],
        exclude: Optional[dict[str, set[Row]]],
    ) -> list[Env]:
        match = self.match
        kept: list[Env] = []
        if self.table is not None and self.probe_cols:
            table = self.table
            cols = self.probe_cols
            fns = self.probe_fns
            for env in envs:
                values = tuple(fn(env) for fn in fns)
                if not any(
                    match(row, env) is not None
                    for row in table.rows_matching_cols(cols, values)
                ):
                    kept.append(env)
            return kept
        if self.table is not None:
            rows: Iterable[Row] = self.table.rows_list()
        else:
            rows = ev._event_pool.get(self.name, ())
        for env in envs:
            if not any(match(row, env) is not None for row in rows):
                kept.append(env)
        return kept

    def describe(self) -> str:
        if self.table is not None and self.probe_cols:
            keys = ", ".join(
                f"col{c}={self.atom.arg_str(c)}" for c in self.probe_cols
            )
            return f"antijoin probe {self.name}[{keys}]"
        return f"antijoin scan {self.name}"


class _AssignStep:
    """``Var := expr`` — binds when unbound (statically known), otherwise
    filters on equality."""

    __slots__ = ("name", "fn", "already_bound")

    def __init__(self, name: str, fn: ExprFn, already_bound: bool):
        self.name = name
        self.fn = fn
        self.already_bound = already_bound

    def run(
        self,
        ev: Any,
        envs: list[Env],
        delta_rows: list[Row],
        exclude: Optional[dict[str, set[Row]]],
    ) -> list[Env]:
        fn = self.fn
        name = self.name
        if self.already_bound:
            return [env for env in envs if env[name] == fn(env)]
        out: list[Env] = []
        for env in envs:
            value = fn(env)
            extended = dict(env)
            extended[name] = value
            out.append(extended)
        return out

    def describe(self) -> str:
        verb = "check" if self.already_bound else "assign"
        return f"{verb} {self.name}"


class _CondStep:
    """A boolean condition filter."""

    __slots__ = ("fn", "text")

    def __init__(self, fn: ExprFn, text: str):
        self.fn = fn
        self.text = text

    def run(
        self,
        ev: Any,
        envs: list[Env],
        delta_rows: list[Row],
        exclude: Optional[dict[str, set[Row]]],
    ) -> list[Env]:
        fn = self.fn
        return [env for env in envs if fn(env)]

    def describe(self) -> str:
        return f"filter {self.text}"


# ---------------------------------------------------------------------------
# Join plans
# ---------------------------------------------------------------------------


class JoinPlan:
    """The compiled body of one rule for one drive (``None`` is the
    full-evaluation plan, see :data:`Drive`), plus the compiled head
    projection for non-aggregate rules.

    Under the source-codegen tier (``compile_mode="source"``, see
    :mod:`repro.overlog.codegen`) the plan additionally carries flat
    ``exec``-generated functions — ``src_execute`` / ``src_execute_tracked``
    / ``src_envs`` / ``src_agg`` — that produce bit-identical output to
    ``execute`` / ``execute_tracked`` / ``body_envs`` without the step
    pipeline.  They are generated on the plan's first execution (most
    rule x drive pairs of a program never run) and stay ``None`` on the
    closure tier or when the emitter declined the rule shape; callers
    fall back to the step path then, which is also what triggers the
    generation.
    """

    __slots__ = (
        "rule", "drive", "tag", "steps", "head_name", "head_fns", "_prof",
        "src_execute", "src_execute_tracked", "src_envs", "src_agg",
        "source", "unsupported", "_codegen", "fold",
    )

    def __init__(
        self,
        rule: Rule,
        drive: Drive,
        steps: tuple,
        head_fns: Optional[tuple[ExprFn, ...]],
    ):
        self.rule = rule
        self.drive = drive
        self.tag = drive_tag(drive)
        self.steps = steps
        self.head_name = rule.head.name
        self.head_fns = head_fns
        # Aggregate rules: what the plan's bindings feed (describe_fold).
        self.fold: Optional[str] = None
        # Profiler stat slot, lazily filled by PlanProfiler.should_sample
        # so the sampling decision is one attribute load per execution.
        self._prof = None
        # Source-codegen overlay: ``_codegen`` holds what generate() needs
        # until it has run (None on the closure tier and afterwards).
        self.src_execute = None
        self.src_execute_tracked = None
        self.src_envs = None
        self.src_agg = None
        self.source: Optional[str] = None
        self.unsupported = False
        self._codegen: Optional[tuple] = None

    def generate(self) -> None:
        """Lower the plan to generated source now, if that is still due."""
        pending = self._codegen
        if pending is None:
            return
        self._codegen = None
        catalog, functions, kinds = pending
        try:
            fns, self.source = generate_plan_source(
                self.rule, self.drive, catalog, functions, kinds
            )
        except Unsupported:
            self.unsupported = True
            return
        self.src_execute = fns.get("plain")
        self.src_execute_tracked = fns.get("tracked")
        self.src_envs = fns.get("envs")
        self.src_agg = fns.get("agg")

    def body_envs(
        self,
        ev: Any,
        delta_rows: list[Row],
        exclude: Optional[dict[str, set[Row]]],
    ) -> list[Env]:
        envs: list[Env] = [{}]
        for step in self.steps:
            if not envs:
                return envs
            envs = step.run(ev, envs, delta_rows, exclude)
        return envs

    def execute(
        self,
        ev: Any,
        delta_rows: list[Row] = (),
        exclude: Optional[dict[str, set[Row]]] = None,
    ) -> list[tuple[str, Row]]:
        """Derive head tuples.  Environments reaching the head are
        pairwise distinct (see module docstring), so no re-dedup."""
        if self._codegen is not None:
            self.generate()
            if self.src_execute is not None:
                return self.src_execute(ev, delta_rows, exclude)
        return self.project(self.body_envs(ev, delta_rows, exclude))

    def execute_tracked(
        self,
        ev: Any,
        delta_rows: list[Row] = (),
        exclude: Optional[dict[str, set[Row]]] = None,
    ) -> list[tuple[str, Row, Env]]:
        """Like :meth:`execute`, but each result carries the final body
        environment it was projected from: ``(relation, row, env)``.
        The evaluator reconstructs witness body tuples from the env only
        for derivations it records (environments are immutable once a
        step emits them, so the references stay valid)."""
        if self._codegen is not None:
            self.generate()
            if self.src_execute_tracked is not None:
                return self.src_execute_tracked(ev, delta_rows, exclude)
        return self.project(self.body_envs(ev, delta_rows, exclude), True)

    def project(self, envs: list[Env], tracked: bool = False) -> list[tuple]:
        """Head tuples of body environments (with each environment when
        ``tracked``)."""
        name = self.head_name
        fns = self.head_fns
        if tracked:
            return [
                (name, tuple(fn(env) for fn in fns), env) for env in envs
            ]
        return [(name, tuple(fn(env) for fn in fns)) for env in envs]

    def explain(self) -> str:
        """Human-readable plan: one line per step, in execution order."""
        lines = [
            f"[{self.tag}]"
            + (f" => aggregate [{self.fold}]" if self.fold else "")
        ]
        lines += [f"  {i}. {s.describe()}" for i, s in enumerate(self.steps)]
        return "\n".join(lines)


# An aggregate over thousands of bindings would otherwise keep (and the
# ledger record) a witness per contributing tuple; cap them per group.
MAX_AGG_WITNESSES = 64

# How one aggregate column of one group absorbs a contribution entering
# or leaving: a running value, the multiset of values with its current
# extreme (rescanned only when that extreme leaves), or — everything
# else — the values themselves, refolded when the group is touched.
_FOLD_KINDS = {
    "count": "running", "sum": "running", "avg": "running",
    "min": "multiset", "max": "multiset",
}


def _group_args(rule: Rule) -> tuple:
    return tuple(a for a in rule.head.args if not isinstance(a, AggSpec))


def _rule_calls(rule: Rule) -> set[str]:
    exprs = [a.var if isinstance(a, AggSpec) else a for a in rule.head.args]
    for elem in rule.body:
        if isinstance(elem, (Atom, NotIn)):
            exprs += getattr(elem, "atom", elem).args
        else:
            exprs.append(elem.expr)
    return set().union(*map(expr_calls, exprs))


def fold_strategy(rule: Rule, catalog: Catalog) -> str:
    """How an aggregate rule is kept current between steps.

    ``per-step``: the body holds an event atom, so every binding is of
    this step and there is nothing to keep.  ``state``: per-group fold
    state, updated by the rows that entered and left the body relations.
    ``regroup``: an atom hides a key column behind a wildcard, so several
    rows share one binding and a row entering or leaving need not change
    the bag of distinct bindings — the groups such a row touches are
    refolded from the tables with their key bound.  ``recompute``: every
    group, from the full body, on every activation — what a ``notin``
    (its relation's inserts retract bindings), a call of anything but a
    pure builtin (``f_now()``: a binding may come and go with no row
    moving), an ``@next`` head (it runs in its body's own stratum, before
    the step's delta is complete), a ``delete`` head (what it deleted may
    be back) and a regroup that cannot bind the key (computed group
    argument, pinned body order) fall back to."""
    if not all(catalog.is_materialized(a.name) for a in rule.positives):
        return "per-step"
    if (
        rule.negatives or rule.deferred or rule.delete
        or not _rule_calls(rule) <= DEFAULT_FUNCTIONS.keys()
    ):
        return "recompute"
    if not any(
        atom_needs_dedup(a, catalog.tables[a.name]) for a in rule.positives
    ):
        return "state"
    if _reorderable(rule) and all(
        isinstance(a, (Var, Const)) for a in _group_args(rule)
    ):
        return "regroup"
    return "recompute"


def describe_fold(rule: Rule, catalog: Catalog) -> str:
    """``count@2: running`` per aggregate column — its fold kind under
    the ``state`` strategy, else the strategy — for ``explain()``, the
    generated-source header and the profiler's report."""
    how = fold_strategy(rule, catalog)
    return ", ".join(
        f"{a.func}@{i}: "
        + (_FOLD_KINDS.get(a.func, "refold") if how == "state" else how)
        for i, a in enumerate(rule.head.args)
        if isinstance(a, AggSpec)
    )


class AggregatePlan:
    """The grouping/fold half of an aggregate rule, and its fold state.

    A body's *contributions* are one tuple of aggregated values per
    distinct binding (bag aggregation, SQL semantics; the body plans
    deliver distinct bindings) — ``(values, environment)``, the witness,
    under the provenance ledger — batched per group key in a dict.  A
    group is ``[members, head row, witnesses, fold...]`` with one fold
    slot per aggregate column (see ``_FOLD_KINDS``; ``None`` until a
    value arrives).  ``groups`` is the state the evaluator keeps between
    steps (``None`` until first built, and for rules that keep none);
    every one-shot fold — naive evaluation, event bodies, rebuilds —
    goes through the same :meth:`absorb` and :meth:`emit` on a fresh dict.
    """

    __slots__ = (
        "head_name", "arity", "group_fns", "agg_specs", "strategy",
        "announce", "gate", "groups", "_folds", "_blank",
    )

    def __init__(self, rule: Rule, catalog: Catalog, functions: FunctionLibrary):
        head = rule.head
        self.head_name = head.name
        self.arity = len(head.args)
        self.group_fns = tuple(
            (i, compile_expr(a, functions))
            for i, a in enumerate(head.args)
            if not isinstance(a, AggSpec)
        )
        self.agg_specs = tuple(
            (
                i,
                # f<_> counts bindings whatever f is, as count<X> does.
                "count" if a.var.is_wildcard else a.func,
                None if a.var.is_wildcard else compile_expr(a.var, functions),
            )
            for i, a in enumerate(head.args)
            if isinstance(a, AggSpec)
        )
        # (values index, head column, function, fold kind) per column
        # that folds values; counts read the group's member count.
        self._folds = tuple(
            (n, i, func, _FOLD_KINDS.get(func))
            for n, (i, func, _fn) in enumerate(self.agg_specs)
            if func != "count"
        )
        self._blank = [0, None, ()] + [None] * len(self.agg_specs)
        self.strategy = fold_strategy(rule, catalog)
        # An event or located head is gone (or shipped) once the step
        # ends: every live group is announced on every activation.
        self.announce = head.loc is not None or not catalog.is_materialized(
            head.name
        )
        # What drives a rule folded afresh each step: its first event atom.
        self.gate: Drive = None
        if self.strategy == "per-step":
            self.gate = ("events", next(
                i for i, a in enumerate(rule.positives)
                if not catalog.is_materialized(a.name)
            ))
        self.groups: Optional[dict[Row, list]] = None

    def project(self, envs: list[Env], tracked: bool = False) -> dict[Row, list]:
        """The contributions of a body's environments."""
        keys = tuple(fn for _, fn in self.group_fns)
        vals = tuple(fn for _, _, fn in self.agg_specs)
        out: dict[Row, list] = {}
        for env in envs:
            values = tuple(None if fn is None else fn(env) for fn in vals)
            out.setdefault(tuple(fn(env) for fn in keys), []).append(
                (values, env) if tracked else values
            )
        return out

    def absorb(
        self,
        groups: dict[Row, list],
        contributions: dict[Row, list],
        tracked: bool = False,
        sign: int = 1,
        touched: Optional[dict[Row, None]] = None,
    ) -> dict[Row, list]:
        """Fold contributions entering (``sign`` 1) or leaving (-1) into
        ``groups``, noting their keys in ``touched`` in first-seen order."""
        for key, batch in contributions.items():
            if touched is not None:
                touched[key] = None
            g = groups.get(key)
            if g is None:
                g = groups[key] = self._blank[:]
            g[0] += sign * len(batch)
            if tracked:
                seen = list(g[2])
                for _, env in batch:
                    if sign < 0:
                        if env in seen:
                            seen.remove(env)
                    elif len(seen) < MAX_AGG_WITNESSES:
                        seen.append(env)
                g[2] = tuple(seen)
                batch = [values for values, _ in batch]
            for n, _i, func, kind in self._folds:
                values = [c[n] for c in batch]
                fold = g[n + 3]
                if kind == "running":
                    if float in map(type, values):
                        # Exact, so that the sum is a function of the
                        # group's bag of values and not of the order they
                        # came and went in.
                        values = [
                            Fraction(v) if type(v) is float and isfinite(v)
                            else v
                            for v in values
                        ]
                    g[n + 3] = (fold or 0) + sign * sum(values)
                elif kind is None:
                    if sign < 0:
                        for value in values:
                            fold.remove(value)
                    elif fold is None:
                        g[n + 3] = values
                    else:
                        fold.extend(values)
                else:
                    if fold is None:
                        fold = g[n + 3] = [None, {}]
                    counts, pick = fold[1], min if func == "min" else max
                    for value in values:
                        counts[value] = counts.get(value, 0) + sign
                        if not counts[value]:
                            del counts[value]
                    if sign > 0:
                        best = pick(values)
                        fold[0] = best if fold[0] is None else pick(fold[0], best)
                    elif fold[0] not in counts:
                        # The extreme left: rescan what is left.
                        fold[0] = pick(counts) if counts else None
        return groups

    def fold(
        self, contributions: dict[Row, list], tracked: bool = False
    ) -> tuple[dict[Row, list], list[tuple]]:
        """Fresh groups from all of a body's contributions, and the head
        row of each."""
        groups = self.absorb({}, contributions, tracked)
        return groups, self.emit(groups, contributions, tracked)

    def _row(self, key: Row, g: list) -> Row:
        row: list[Any] = [g[0]] * self.arity  # count columns stay
        for (i, _fn), part in zip(self.group_fns, key):
            row[i] = part
        for n, i, func, kind in self._folds:
            fold = g[n + 3]
            if kind == "running":
                if type(fold) is Fraction:
                    fold = float(fold)
                row[i] = fold / g[0] if func == "avg" else fold
            else:
                row[i] = refold(func, fold) if kind is None else fold[0]
        return tuple(row)

    def emit(
        self, groups: dict[Row, list], touched: Iterable[Row], tracked: bool
    ) -> list[tuple]:
        """Head rows ``(relation, row)`` — ``(relation, row, witnesses)``
        when ``tracked`` — for the ``touched`` groups whose fold moved, in
        that order.  A group that lost its last member is forgotten and
        says nothing: its last head row stays (no view healing).  An
        announcing head lists every live group instead."""
        moved = []
        for key in touched:
            g = groups.get(key)
            if g is None:
                continue
            if not g[0]:
                del groups[key]
                continue
            row = self._row(key, g)
            if row != g[1]:
                g[1] = row
                moved.append(g)
        if self.announce:
            moved = groups.values()
        name = self.head_name
        if tracked:
            return [(name, g[1], g[2]) for g in moved]
        return [(name, g[1]) for g in moved]

    def regroup(self, fresh: dict[Row, list], touched: Iterable[Row]) -> None:
        """Replace the ``touched`` groups of the state by their refolds in
        ``fresh`` (a touched group absent from it has lost every member),
        keeping each one's last head row."""
        for key in touched:
            old = self.groups.pop(key, None)
            g = fresh.get(key)
            if g is not None:
                g[1] = old and old[1]
                self.groups[key] = g


# ---------------------------------------------------------------------------
# Folds of a whole value list (the kinds that keep their values)
# ---------------------------------------------------------------------------


def _sort_key(value: Any) -> tuple:
    return (type(value).__name__, repr(value))


def refold(func: str, values: list[Any]) -> Any:
    if func == "list":
        # A deterministic sorted tuple; mixed types fall back to a
        # type-name/repr ordering so the result is still reproducible.
        try:
            return tuple(sorted(values))
        except TypeError:
            return tuple(sorted(values, key=_sort_key))
    # Sketch aggregates: both folds canonicalize their input order
    # internally, so the result is identical whatever order the group's
    # deltas arrived in — the property the sim/asyncio telemetry
    # differential tests depend on (docs/TELEMETRY.md).
    if func == "percentile":
        from ..sketches import fold_percentile

        try:
            return fold_percentile(values)
        except (TypeError, ValueError) as exc:
            raise EvaluationError(f"percentile<>: {exc}") from exc
    if func == "count_distinct_approx":
        from ..sketches import fold_count_distinct

        try:
            return fold_count_distinct(values)
        except (TypeError, ValueError) as exc:
            raise EvaluationError(f"count_distinct_approx<>: {exc}") from exc
    raise EvaluationError(f"unknown aggregate {func}")


# ---------------------------------------------------------------------------
# Compilation driver
# ---------------------------------------------------------------------------


def _compile_body(
    rule: Rule,
    drive: Drive,
    catalog: Catalog,
    functions: FunctionLibrary,
) -> tuple:
    steps: list = []
    bound: set[str] = set()
    for elem, source in body_order(rule, drive, catalog):
        if isinstance(elem, Atom):
            frozen = frozenset(bound)
            table = catalog.tables.get(elem.name)
            if table is not None and source != _SRC_DELTA:
                probe_cols, probe_fns = _probe_spec(elem, frozen, functions)
            else:
                probe_cols, probe_fns = (), ()
            match = _compile_matcher(elem, frozen, probe_cols, functions)
            # Dedup only where duplicates are possible (see
            # codegen.atom_needs_dedup): wildcard columns, minus the
            # keyed-table case where the key is fully visible.  Driving
            # steps always keep it — removed rows (and, for rules whose
            # body cannot be reordered, a nested delta) may hold two
            # same-key row versions.
            needs_dedup = atom_needs_dedup(
                elem, None if source == _SRC_DELTA else table
            )
            steps.append(
                _AtomStep(
                    elem, source, table, probe_cols, probe_fns, match,
                    needs_dedup,
                )
            )
            for arg in elem.args:
                if isinstance(arg, Var) and not arg.is_wildcard:
                    bound.add(arg.name)
        elif isinstance(elem, NotIn):
            frozen = frozenset(bound)
            atom = elem.atom
            table = catalog.tables.get(atom.name)
            if table is not None:
                probe_cols, probe_fns = _probe_spec(atom, frozen, functions)
            else:
                probe_cols, probe_fns = (), ()
            match = _compile_matcher(atom, frozen, probe_cols, functions)
            steps.append(_NegStep(atom, table, probe_cols, probe_fns, match))
        elif isinstance(elem, Assign):
            steps.append(
                _AssignStep(
                    elem.var.name,
                    compile_expr(elem.expr, functions),
                    elem.var.name in bound,
                )
            )
            bound.add(elem.var.name)
        elif isinstance(elem, Cond):
            steps.append(_CondStep(compile_expr(elem.expr, functions), str(elem)))
        else:  # pragma: no cover - parser prevents this
            raise EvaluationError(f"unknown body element {elem!r}")
    return tuple(steps)


def compile_rule(
    rule: Rule,
    drive: Drive,
    catalog: Catalog,
    functions: FunctionLibrary,
) -> JoinPlan:
    """Compile one rule body for one drive into a JoinPlan."""
    steps = _compile_body(rule, drive, catalog, functions)
    if rule.is_aggregate:
        head_fns = None  # projection handled by AggregatePlan
    else:
        head_fns = tuple(
            compile_expr(a, functions) for a in rule.head.args
        )
    return JoinPlan(rule, drive, steps, head_fns)


class RulePlans:
    """Every compiled plan for one rule: the full-evaluation plan, one
    delta plan per positive body atom, one removal plan per negated atom
    that can drive the rule (:func:`removal_drives`) and, when the head
    aggregates, the fold (``agg``) with the plans its strategy adds:
    ``retract@i`` per positive atom, and ``regroup``.

    With ``mode="source"`` each plan is additionally lowered to flat
    Python source (:mod:`repro.overlog.codegen`) the first time it runs;
    ``sources`` (tag -> text, what ``\\src`` in the REPL prints) and
    ``codegen_errors`` force the generation of every plan.  Emission
    failures fall back to the closure step path plan-by-plan.
    """

    __slots__ = ("rule", "by_drive", "full", "by_pos", "by_removed", "agg")

    def __init__(
        self,
        rule: Rule,
        catalog: Catalog,
        functions: FunctionLibrary,
        mode: str = "closure",
    ):
        self.rule = rule
        self.agg: Optional[AggregatePlan] = None
        positions = range(len(rule.positives))
        drives: list[Drive] = [None]
        if rule.is_aggregate:
            self.agg = AggregatePlan(rule, catalog, functions)
            how = self.agg.strategy
            if how == "per-step":
                drives.append(self.agg.gate)
            if how in ("state", "regroup"):
                drives += [("delta", i) for i in positions]
                drives += [("retract", i) for i in positions]
            if how == "regroup":
                drives.append(("regroup", None))
            kinds = ("envs", "agg")
        else:
            drives += [("delta", i) for i in positions]
            drives += [
                ("removed", k) for k in removal_drives(rule, catalog) or ()
            ]
            kinds = ("plain", "tracked")
        self.by_drive: dict[Drive, JoinPlan] = {
            drive: compile_rule(rule, drive, catalog, functions)
            for drive in drives
        }
        self.full = self.by_drive[None]
        self.by_pos = tuple(
            plan for d, plan in self.by_drive.items() if d and d[0] == "delta"
        )
        self.by_removed = {
            d[1]: plan
            for d, plan in self.by_drive.items() if d and d[0] == "removed"
        }
        fold = describe_fold(rule, catalog) if rule.is_aggregate else None
        for plan in self.plans:
            plan.fold = fold
            if mode == "source":
                plan._codegen = (catalog, functions, kinds)

    @property
    def plans(self) -> list[JoinPlan]:
        return list(self.by_drive.values())

    @property
    def sources(self) -> dict[str, str]:
        out = {}
        for plan in self.plans:
            plan.generate()
            if plan.source is not None:
                out[plan.tag] = plan.source
        return out

    @property
    def codegen_errors(self) -> int:
        errors = 0
        for plan in self.plans:
            plan.generate()
            errors += plan.unsupported
        return errors

    def explain(self, fires: Optional[int] = None) -> str:
        lines = [str(self.rule)]
        if fires is not None:
            # Cumulative head derivations staged for this rule over the
            # evaluator's life — the same counter the profiler's
            # hot-rules report keys on, so the two cross-reference by
            # rule id.
            lines.append(f"  fires: {fires} cumulative")
        lines += [p.explain() for p in self.plans]
        return "\n".join(lines)


class PlanCache:
    """All compiled plans for an installed rule set.

    Compiled eagerly at program-install time; ``invalidate`` drops every
    plan (rule addition / program swap), after which the evaluator
    recompiles.  ``compile_count`` counts whole-program compilations so
    tests can assert plans are reused, not rebuilt, across timesteps.

    ``mode`` selects the execution tier the cache compiles for:
    ``"closure"`` (step pipeline only) or ``"source"`` (step pipeline
    plus exec-generated flat functions, the default evaluator tier —
    see :mod:`repro.overlog.codegen`).  Source is generated per plan on
    its first execution; ``generated``, ``codegen_errors`` and
    ``render_source`` generate whatever is still outstanding.

    Invalidation flushes *everything* keyed by the outgoing rule set:
    the plans, the cached generated source, and — when a profiler is
    attached (``self.profiler``, set by ``Evaluator.attach_profiler``) —
    the profiler's per-(rule, tag) sample stats, which would otherwise
    attribute a new program's timings to old rules of the same name.
    """

    def __init__(
        self,
        catalog: Catalog,
        functions: FunctionLibrary,
        mode: str = "closure",
    ):
        self.catalog = catalog
        self.functions = functions
        self.mode = mode
        self._by_rule: dict[int, RulePlans] = {}
        self._rules: tuple[Rule, ...] = ()
        self.compile_count = 0
        self.profiler = None

    def compile_program(self, rules: tuple[Rule, ...]) -> None:
        """Compile every rule × drive up front."""
        self._rules = rules  # keeps ids stable while plans are cached
        self._by_rule = {
            id(rule): self._compile_one(rule) for rule in rules
        }
        self.compile_count += 1

    def _compile_one(self, rule: Rule) -> RulePlans:
        return RulePlans(rule, self.catalog, self.functions, mode=self.mode)

    def invalidate(self) -> None:
        self._by_rule = {}
        self._rules = ()
        if self.profiler is not None:
            self.profiler.invalidate()

    @property
    def generated(self) -> dict[tuple[str, str], str]:
        """(rule name, plan tag) -> generated source text, for \\src."""
        return {
            (rp.rule.name, tag): source
            for rp in self._by_rule.values()
            for tag, source in rp.sources.items()
        }

    @property
    def codegen_errors(self) -> int:
        return sum(rp.codegen_errors for rp in self._by_rule.values())

    @property
    def plans(self) -> list[RulePlans]:
        return list(self._by_rule.values())

    def plans_for(self, rule: Rule) -> RulePlans:
        rp = self._by_rule.get(id(rule))
        if rp is None:
            # A rule installed outside compile_program (defensive; the
            # evaluator recompiles on any rule-set change).
            rp = self._compile_one(rule)
            self._by_rule[id(rule)] = rp
            self._rules = self._rules + (rule,)
        return rp

    def render_source(self, rule_name: Optional[str] = None) -> str:
        """Generated source text for every cached plan (optionally one
        rule), in rule order — what the REPL's ``\\src`` prints."""
        if self.mode != "source":
            return f"(no generated source: compile_mode={self.mode!r})"
        parts = []
        for rp in self._by_rule.values():
            if rule_name is not None and rp.rule.name != rule_name:
                continue
            sources = rp.sources
            for source in sources.values():
                parts.append(source.rstrip("\n"))
            if not sources and (rule_name is not None or rp.codegen_errors):
                parts.append(
                    f"# rule {rp.rule.name}: no generated source "
                    f"(closure-tier fallback)"
                )
        if not parts:
            return (
                f"(no generated source for rule {rule_name!r})"
                if rule_name is not None
                else "(no generated source)"
            )
        return "\n\n".join(parts)

    def explain(
        self,
        rule_name: Optional[str] = None,
        rule_fires: Optional[dict[str, int]] = None,
    ) -> str:
        """Render the cached plans (optionally for one rule) as text.

        ``rule_fires`` — the evaluator's per-rule cumulative fire
        counters — adds a ``fires: N cumulative`` line per rule so plan
        output and profiler output cross-reference by rule id.
        """
        parts = [
            rp.explain(
                None if rule_fires is None
                else rule_fires.get(rp.rule.name, 0)
            )
            for rp in self._by_rule.values()
            if rule_name is None or rp.rule.name == rule_name
        ]
        return "\n\n".join(parts)
