"""Rule compilation: the plans the Overlog evaluator runs.

What a rule body does on each semi-naive pass is a static property of
the rule text and the table declarations, so this module resolves it
**once, at program-install time**, and the generated source
(:mod:`repro.overlog.codegen`) runs it:

* ``body_order`` fixes, for one rule and one *drive* (what changed: rows
  inserted into a positive atom's relation, rows removed from a negated
  atom's or, for an aggregate, from a positive atom's), the order the
  body runs in and the view each atom reads; the interpreter and the
  source emitter both iterate it.
* ``JoinPlan`` is one rule body for one drive: the flat functions
  generated for it on its first execution, or — for a shape the emitter
  declines — the interpreter's evaluation of the same body, behind the
  same ``(ev, delta_rows, exclude)`` signature.
* ``AggregatePlan`` is the grouping/fold half of an aggregate rule and
  its per-group fold state: contributions enter and leave it, and only
  the groups whose fold moved produce head rows.  Every engine and both
  observers turn bindings into head rows here.
* ``PlanCache`` owns every plan for a rule set — a full-evaluation plan,
  one ``JoinPlan`` per positive atom (``delta@i``) and per drivable
  negated atom (``removed@k``) and, for aggregate rules over stored
  relations, one per positive atom losing rows (``retract@i``) — and the
  generated stratum drivers, and is invalidated wholesale when rules are
  added or swapped.
* ``compile_expr`` (from the source emitter) turns an expression AST
  into a function ``env -> value``, for what reads environments after
  the body ran: aggregate projection only.  The interpreter walks
  expressions itself (``eval.eval_expr``).
"""

from __future__ import annotations

from fractions import Fraction
from math import isfinite
from typing import Any, Iterable, Optional

from .ast import AggSpec, Assign, Atom, Const, NotIn, Rule, Var, atom_vars, expr_vars
from .catalog import Catalog, Row
from .codegen import (
    atom_needs_dedup,
    compile_expr,
    expr_calls,
    generate_plan_source,
    generate_stratum_source,
)
from .errors import EvaluationError
from .functions import DEFAULT_FUNCTIONS, FunctionLibrary


# The view an atom reads its rows from, relative to the plan's driving
# rows.
_SRC_NORMAL = "full"        # full relation (probe or scan)
_SRC_DELTA = "delta"        # ranges over the plan's driving rows
_SRC_POST_DELTA = "full-minus-delta"  # full relation minus the delta


# ---------------------------------------------------------------------------
# Body ordering (shared by the interpreter and the source emitter)
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


# ---------------------------------------------------------------------------
# Join plans
# ---------------------------------------------------------------------------


class JoinPlan:
    """One rule body for one drive (``None`` is the full-evaluation plan,
    see :data:`Drive`).

    Its functions — ``plain`` (head tuples) or ``agg`` (an aggregate's
    contributions), and ``tracked`` (each with its witness) — all take
    ``(ev, delta_rows, exclude)``.  They are generated on the plan's
    first execution (most rule x drive pairs of a program never run):
    call :meth:`generate` first, which is free once done.  Where the
    emitter declines the rule shape, ``unsupported`` says why and the
    functions evaluate the body through the interpreter (an aggregate's
    bindings then go through :meth:`AggregatePlan.project`).
    """

    __slots__ = (
        "rule", "drive", "tag", "fold", "_prof", "_codegen",
        "plain", "tracked", "agg", "source", "steps", "unsupported",
    )

    def __init__(
        self,
        rule: Rule,
        drive: Drive,
        fold: Optional[str],
        codegen: tuple,
    ):
        self.rule = rule
        self.drive = drive
        self.tag = drive_tag(drive)
        # Aggregate rules: what the plan's bindings feed (describe_fold).
        self.fold = fold
        # Profiler stat slot, lazily filled by PlanProfiler.link so the
        # sampling decision is one attribute load per execution.
        self._prof = None
        # (catalog, functions, kinds) until generate() has run.
        self._codegen: Optional[tuple] = codegen
        self.plain = self.tracked = self.agg = None
        self.source: Optional[str] = None
        self.steps: tuple[str, ...] = ()
        self.unsupported: Optional[str] = None

    def generate(self) -> "JoinPlan":
        """Lower the plan to generated source now, if that is still due."""
        pending = self._codegen
        if pending is None:
            return self
        self._codegen = None
        catalog, functions, kinds = pending
        fns, unit = generate_plan_source(
            self.rule, self.drive, catalog, functions, kinds
        )
        self.source, self.steps = unit.source, unit.steps
        if fns is None:
            self.unsupported = unit.reason
            rule, drive = self.rule, self.drive
            fns = {} if rule.is_aggregate else {
                "plain": lambda ev, rows, exclude: ev._eval_rule(
                    rule, drive, rows, exclude
                ),
                "tracked": lambda ev, rows, exclude: ev._eval_rule(
                    rule, drive, rows, exclude, True
                ),
            }
        self.plain = fns.get("plain")
        self.tracked = fns.get("tracked")
        self.agg = fns.get("agg")
        return self

    def explain(self) -> str:
        """Human-readable plan: one line per step, in execution order,
        naming the access path the generated function uses."""
        self.generate()
        head = f"[{self.tag}]"
        if self.fold:
            head += f" => aggregate [{self.fold}]"
        if self.unsupported:
            head += f" interpreted ({self.unsupported})"
        return "\n".join(
            [head] + [f"  {i}. {line}" for i, line in enumerate(self.steps)]
        )


# An aggregate over thousands of bindings would otherwise keep (and the
# ledger record) a witness per contributing binding; cap them per group.
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


def agg_gate(rule: Rule, catalog: Catalog) -> Drive:
    """What drives an aggregate rule folded afresh each step (the
    ``per-step`` strategy): its first event atom; None for the others."""
    if fold_strategy(rule, catalog) != "per-step":
        return None
    return ("events", next(
        i for i, a in enumerate(rule.positives)
        if not catalog.is_materialized(a.name)
    ))


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
    deliver distinct bindings) — ``(values, witness)`` under the
    provenance ledger, the witness being the binding's body rows —
    batched per group key in a dict.  A group is ``[members, head row,
    (witnesses, body), fold...]`` with one fold slot per aggregate
    column (see ``_FOLD_KINDS``; ``None`` until a value arrives).
    ``groups`` is the state the evaluator keeps between steps (``None``
    until first built, and for rules that keep none); every one-shot
    fold — naive evaluation, event bodies, rebuilds — goes through the
    same :meth:`absorb` and :meth:`emit` on a fresh dict.
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
        self._blank = [0, None, ((), ())] + [None] * len(self.agg_specs)
        self.strategy = fold_strategy(rule, catalog)
        # An event or located head is gone (or shipped) once the step
        # ends: every live group is announced on every activation.
        self.announce = head.loc is not None or not catalog.is_materialized(
            head.name
        )
        self.gate = agg_gate(rule, catalog)
        self.groups: Optional[dict[Row, list]] = None

    def project(self, envs: list[tuple], tracked: bool = False) -> dict[Row, list]:
        """The contributions of the interpreter's ``(environment,
        witness)`` pairs."""
        keys = tuple(fn for _, fn in self.group_fns)
        vals = tuple(fn for _, _, fn in self.agg_specs)
        out: dict[Row, list] = {}
        for env, body in envs:
            values = tuple(None if fn is None else fn(env) for fn in vals)
            out.setdefault(tuple(fn(env) for fn in keys), []).append(
                (values, body) if tracked else values
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
                seen = list(g[2][0])
                for _, body in batch:
                    if sign < 0:
                        if body in seen:
                            seen.remove(body)
                    elif len(seen) < MAX_AGG_WITNESSES:
                        seen.append(body)
                if len(seen) != len(g[2][0]):  # one sign per batch
                    # The recorded body: the witnesses' rows, sorted as
                    # list<> sorts, whatever order they arrived in.
                    g[2] = (tuple(seen), refold("list", list({i for w in seen for i in w})))
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
        """Head rows ``(relation, row)`` — ``(relation, row, body)`` when
        ``tracked`` — for the ``touched`` groups whose fold moved, in that
        order.  A group that lost its last member is forgotten and says
        nothing: its last head row stays (no view healing).  An
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
            return [(name, g[1], g[2][1]) for g in moved]
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
# Plan cache
# ---------------------------------------------------------------------------


class RulePlans:
    """Every plan for one rule: the full-evaluation plan, one delta plan
    per positive body atom, one removal plan per negated atom that can
    drive the rule (:func:`removal_drives`) and, when the head
    aggregates, the fold (``agg``) with the plans its strategy adds:
    ``retract@i`` per positive atom, and ``regroup``.

    Plans generate their source the first time they run; ``sources``
    (tag -> text, what ``\\src`` in the REPL prints), ``codegen_errors``
    and ``explain`` generate every plan.
    """

    __slots__ = ("rule", "by_drive", "full", "by_pos", "by_removed", "agg")

    def __init__(
        self, rule: Rule, catalog: Catalog, functions: FunctionLibrary
    ):
        self.rule = rule
        self.agg: Optional[AggregatePlan] = None
        positions = range(len(rule.positives))
        drives: list[Drive] = [None]
        fold = None
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
            codegen = (catalog, functions, ("tracked", "agg"))
            fold = describe_fold(rule, catalog)
        else:
            drives += [("delta", i) for i in positions]
            drives += [
                ("removed", k) for k in removal_drives(rule, catalog) or ()
            ]
            codegen = (catalog, functions, ("plain", "tracked"))
        self.by_drive: dict[Drive, JoinPlan] = {
            drive: JoinPlan(rule, drive, fold, codegen) for drive in drives
        }
        self.full = self.by_drive[None]
        self.by_pos = tuple(
            plan for d, plan in self.by_drive.items() if d and d[0] == "delta"
        )
        self.by_removed = {
            d[1]: plan
            for d, plan in self.by_drive.items() if d and d[0] == "removed"
        }

    @property
    def plans(self) -> list[JoinPlan]:
        return list(self.by_drive.values())

    @property
    def sources(self) -> dict[str, str]:
        return {
            plan.tag: plan.source
            for plan in self.plans
            if plan.generate().source is not None
        }

    @property
    def codegen_errors(self) -> int:
        return sum(
            plan.generate().unsupported is not None for plan in self.plans
        )

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
    """All plans for an installed rule set, and its stratum drivers.

    Built at program-install time (no source is generated until a plan
    runs); ``invalidate`` drops every plan and driver (rule addition /
    program swap), after which the evaluator rebuilds.  A stratum's
    driver (:func:`codegen.generate_stratum_source`, memoized per
    process) is emitted when the evaluator first binds it, in its plain
    or observed variant.  ``compile_count`` counts whole-program
    compilations so tests can assert plans are reused, not rebuilt,
    across timesteps.  ``generated``, ``codegen_errors`` and
    ``render_source`` generate whatever is still outstanding.

    Invalidation flushes *everything* keyed by the outgoing rule set:
    the plans, the generated source, and — when a profiler is attached
    (``self.profiler``, set by ``Evaluator.attach_profiler``) — the
    profiler's per-(rule, tag) sample stats, which would otherwise
    attribute a new program's timings to old rules of the same name.
    """

    def __init__(self, catalog: Catalog, functions: FunctionLibrary):
        self.catalog = catalog
        self.functions = functions
        self._by_rule: dict[int, RulePlans] = {}
        self._rules: tuple[Rule, ...] = ()
        self._strata: list[tuple[Rule, ...]] = []
        self.compile_count = 0
        self.profiler = None

    def compile_program(
        self, rules: tuple[Rule, ...], strata: Iterable[tuple[Rule, ...]]
    ) -> None:
        """Plan every rule × drive up front; ``strata`` are the rules of
        each stratum, in evaluation order, for the drivers."""
        self._rules = rules  # keeps ids stable while plans are cached
        self._by_rule = {
            id(rule): RulePlans(rule, self.catalog, self.functions)
            for rule in rules
        }
        self._strata = list(strata)
        self.compile_count += 1

    def driver_unit(self, index: int, observed: bool):
        """The generated driver of stratum ``index`` (plain, or the
        observed variant), not yet bound to a runtime."""
        return generate_stratum_source(
            index, self._strata[index], self.catalog, observed
        )

    def invalidate(self) -> None:
        self._by_rule = {}
        self._rules = ()
        self._strata = []
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
            rp = RulePlans(rule, self.catalog, self.functions)
            self._by_rule[id(rule)] = rp
            self._rules = self._rules + (rule,)
        return rp

    def render_source(
        self, rule_name: Optional[str] = None, observed: bool = False
    ) -> str:
        """Generated source text for every cached plan (optionally one
        rule), in rule order, then — for the whole program — every
        stratum driver in its plain or ``observed`` variant: what the
        REPL's ``\\src`` prints."""
        parts = []
        for rp in self._by_rule.values():
            if rule_name is not None and rp.rule.name != rule_name:
                continue
            sources = rp.sources
            for source in sources.values():
                parts.append(source.rstrip("\n"))
            parts += [
                f"# rule {rp.rule.name} [{plan.tag}]: no generated source, "
                f"interpreted ({plan.unsupported})"
                for plan in rp.plans
                if plan.unsupported is not None
            ]
        if rule_name is None:
            parts += [
                self.driver_unit(index, observed).source.rstrip("\n")
                for index, rules in enumerate(self._strata)
                if rules
            ]
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
