"""Stratified, semi-naive fixpoint evaluation of Overlog rules.

One :class:`Evaluator` instance belongs to one runtime (one simulated node)
and executes *timesteps* in the JOL style:

1. the caller hands it the timestep's inbox (network tuples, timer firings,
   injected client events),
2. rules run to fixpoint, stratum by stratum; insertions into materialized
   tables are visible immediately, primary-key collisions replace,
3. effects are returned: remote sends (head atoms whose ``@`` location is
   not the local address), deletions derived by ``delete`` rules (applied
   at the end of the step), and the set of freshly derived tuples
   (consumed by watchers).

Event-relation tuples live only inside the step and are discarded when it
ends.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from typing import Any, Iterable, Optional

from .ast import Assign, Atom, BinOp, Cond, Const, Expr, FuncCall, NotIn, Rule, UnOp, Var
from .catalog import Catalog, Row
from .codegen import MAX_FIXPOINT_ITERATIONS, witness_slots
from .errors import CatalogError, EvaluationError
from .functions import FunctionLibrary
from .plan import (
    _SRC_DELTA,
    _SRC_POST_DELTA,
    MAX_AGG_WITNESSES,
    AggregatePlan,
    Drive,
    PlanCache,
    body_order,
    removal_drives,
)
from .strata import compute_strata, rules_by_stratum

# The evaluation engines (``Evaluator(engine=...)``): generated source,
# and the two references it is checked against.
ENGINES = ("source", "interpreter", "naive")

Env = dict[str, Any]


@dataclass
class StepResult:
    """Effects of one timestep."""

    sends: list[tuple[Any, str, Row]] = field(default_factory=list)
    deletions: list[tuple[str, Row]] = field(default_factory=list)
    deferred_inserts: list[tuple[str, Row]] = field(default_factory=list)
    deferred_deletes: list[tuple[str, Row]] = field(default_factory=list)
    fired: dict[str, list[Row]] = field(default_factory=dict)
    derivation_count: int = 0
    # (stratum index, semi-naive passes run) for each non-empty stratum,
    # in order; a stratum with nothing to do this step records one pass.
    # The fixpoint-depth profile the metrics layer reads, and what the
    # differential harness compares across engines.
    stratum_iterations: list[tuple[int, int]] = field(default_factory=list)

    def fired_rows(self, relation: str) -> list[Row]:
        return self.fired.get(relation, [])


# Binary operators applied to both evaluated operands.
_BINOPS = {
    "+": operator.add, "-": operator.sub, "*": operator.mul,
    "%": operator.mod, "==": operator.eq, "!=": operator.ne,
    "<": operator.lt, "<=": operator.le, ">": operator.gt, ">=": operator.ge,
}


def eval_expr(expr: Expr, env: Env, functions: FunctionLibrary) -> Any:
    """Evaluate an expression under a variable binding environment by
    walking its AST: the reference semantics of the interpreter engine and
    ``why_not``, written independently of the emitter's inline code."""
    if isinstance(expr, Const):
        return expr.value
    if isinstance(expr, Var):
        if expr.is_wildcard:
            raise EvaluationError("wildcard _ used where a value is required")
        try:
            return env[expr.name]
        except KeyError:
            raise EvaluationError(f"unbound variable {expr.name}") from None
    if isinstance(expr, FuncCall):
        args = tuple(eval_expr(a, env, functions) for a in expr.args)
        return functions.call(expr.name, args)
    if isinstance(expr, UnOp):
        value = eval_expr(expr.operand, env, functions)
        if expr.op == "-":
            return -value
        if expr.op == "!":
            return not value
        raise EvaluationError(f"unknown unary operator {expr.op}")
    if not isinstance(expr, BinOp):
        raise EvaluationError(f"cannot evaluate {expr!r}")
    op = expr.op
    left = eval_expr(expr.left, env, functions)
    if op == "&&":
        return bool(left and eval_expr(expr.right, env, functions))
    if op == "||":
        return bool(left or eval_expr(expr.right, env, functions))
    right = eval_expr(expr.right, env, functions)
    if op == "/":
        # Integer operands use integer division (Overlog is int-heavy:
        # chunk offsets, slot counts); any float operand gives float math.
        if isinstance(left, int) and isinstance(right, int):
            return left // right
        return left / right
    if op not in _BINOPS:
        raise EvaluationError(f"unknown operator {op}")
    return _BINOPS[op](left, right)


def match_atom(
    atom: Atom, row: Row, env: Env, functions: FunctionLibrary
) -> Optional[Env]:
    """Try to unify ``row`` with ``atom`` under ``env``.

    Returns the extended environment, or None when the row does not match.
    Unbound variables bind to the row value; bound variables and constant
    expressions must compare equal.
    """
    if len(row) != len(atom.args):
        return None
    new_env: Optional[Env] = None
    for arg, value in zip(atom.args, row):
        if isinstance(arg, Var):
            if arg.is_wildcard:
                continue
            current = env if new_env is None else new_env
            if arg.name in current:
                if current[arg.name] != value:
                    return None
            else:
                if new_env is None:
                    new_env = dict(env)
                new_env[arg.name] = value
        else:
            expected = eval_expr(arg, env if new_env is None else new_env, functions)
            if expected != value:
                return None
    return env if new_env is None else new_env


def _first_call(ns: dict, name: str, plan: Any):
    """``plan.plain`` for a plain driver's namespace: generated on the
    plan's first call, which then binds the function under ``name`` in
    place of this stub."""
    if plan._codegen is None:
        return plan.plain

    def first(ev, rows, exclude):
        fn = ns[name] = plan.generate().plain
        return fn(ev, rows, exclude)

    return first


class Evaluator:
    """Executes timesteps for a fixed rule set over a catalog."""

    def __init__(
        self,
        rules: tuple[Rule, ...],
        catalog: Catalog,
        functions: FunctionLibrary,
        local_address: Any,
        engine: str = "source",
    ):
        self.catalog = catalog
        self.functions = functions
        self.local_address = local_address
        # The engine runs every stratum and plan as generated Python
        # source (repro.overlog.codegen); a rule shape the emitter declines
        # runs through the AST interpreter (``_body_envs`` / ``_eval_rule``).
        # The other two engines are references for the differential tests
        # and the ablations: ``"interpreter"`` runs every plan that way
        # under ``_run_stratum``, and ``"naive"`` re-evaluates every rule
        # against the full database every round — the ground truth, NOT
        # sound for nondeterministic builtins (f_uid etc.).
        if engine not in ENGINES:
            raise ValueError(f"engine must be one of {ENGINES}, got {engine!r}")
        self.engine = engine
        self.planner: Optional[PlanCache] = (
            PlanCache(catalog, functions) if engine == "source" else None
        )
        # Optional observability hooks (attach_ledger / attach_profiler):
        # a provenance DerivationLedger recording every head derivation,
        # and a sampled per-plan profiler.  Both None (off) by default;
        # attaching either switches the source engine to the observed
        # variant of its generated stratum drivers.
        self._ledger = None
        self._profiler = None
        self._cur_stratum = 0
        self._cur_pass = 0
        # (rel, row) -> rule name, for tombstoning provenance entries
        # with the deleting rule when deletions are applied.
        self._delete_rules: dict[tuple[str, Row], str] = {}
        self._deferred_delete_rules: dict[tuple[str, Row], str] = {}
        # Interpreter: (id(rule), drive) -> (plan.body_order result, its
        # witness_slots).
        self._orders: dict[tuple, tuple] = {}
        self._install_rules(rules)
        # Mutable per-step state.
        self._event_pool: dict[str, set[Row]] = {}
        self._result: StepResult = StepResult()
        self._seen_sends: set[tuple[Any, str, Row]] = set()
        self._pending_deletes: set[tuple[str, Row]] = set()
        self._seen_deferred: set[tuple[bool, str, Row]] = set()
        # Incremental cross-step evaluation: every change to a relation is
        # a delta.  An insertion lands in ``_accumulated`` and is
        # delta-joined into each stratum exactly once.  A row that leaves
        # a table (deletion, primary-key displacement) lands in
        # ``_removed`` and drives the rules that read the relation under
        # ``notin`` — only they can gain bindings from a removal; tables
        # persist, so positive readers have nothing to retract.  Strata
        # that had already started when the row left see it at the next
        # step instead: ``_removed_carry`` keeps it, with the stratum it
        # left in, and becomes ``_removed_prev``.  Full re-evaluation
        # (``_full_dirty``) is left for what no delta describes: bootstrap
        # facts (everything starts fully dirty), out-of-band installs and
        # rule-set swaps.
        self._full_dirty_pending: set[str] = {
            *catalog.tables,
            *catalog.events,
            *catalog.timers,
        }
        self._full_dirty: set[str] = set()
        self._accumulated: dict[str, set[Row]] = {}
        self._removed: dict[str, list[Row]] = {}
        self._removed_carry: dict[str, list[tuple[int, Row]]] = {}
        self._removed_prev: dict[str, list[tuple[int, Row]]] = {}
        # The delta the running pass is building (what a displacement
        # must take back, see ``_note_removed``).
        self._pass_delta: dict[str, set[Row]] = {}
        self._active: set[str] = set()
        # Always-on profiling counters (cumulative over the runtime's
        # life): head derivations staged per rule, and semi-naive passes
        # per stratum.  Plain dicts — one lookup per staged tuple — so the
        # cost stays far below the joins that produced the tuple.
        self.rule_fires: dict[str, int] = {}
        self.stratum_iteration_totals: dict[int, int] = {}

    # -- rule installation ---------------------------------------------------

    def _install_rules(self, rules: tuple[Rule, ...]) -> None:
        """Validate, stratify, and plan a rule set (install time).

        Plans for every rule × drive are made here, once; each generates
        its source the first time it runs, and the stratum drivers are
        bound at the first step.
        """
        self._validate(rules)
        strata = compute_strata(rules)
        self.strata = strata
        self.stratum_buckets = rules_by_stratum(rules, strata)
        self.rules = rules
        self._orders.clear()
        self._runs = None
        planner = self.planner
        if planner is not None:
            planner.invalidate()
            planner.compile_program(rules, self.stratum_buckets)
        # Per stratum: the normal/aggregate split, each normal rule's plans
        # (source engine) and three maps from a relation to rule indexes —
        # ``dispatch`` (positive readers), ``neg_readers`` (``notin``
        # readers, and whether a removal plan can answer) and ``readers``
        # (the full-dirty fan-out).  Generated drivers bake the dispatch
        # into code; the reference drivers read it from here.
        self._stratum_exec: list[dict[str, Any]] = []
        # relation -> lowest stratum holding a rule that must react when a
        # row leaves it (an aggregate, or a ``notin`` reader); removals
        # from any other relation need no bookkeeping at all.
        watch = self._removal_watch = {}
        tables = self.catalog.tables
        for index, bucket in enumerate(self.stratum_buckets):
            normal = [r for r in bucket if not r.is_aggregate]
            dispatch: dict[str, list] = {}
            neg_readers: dict[str, list] = {}
            readers: dict[str, list[int]] = {}
            for ridx, rule in enumerate(normal):
                drivable = removal_drives(rule, self.catalog)
                for k, atom in enumerate(rule.negatives):
                    if drivable is None or atom.name not in tables:
                        continue
                    watch.setdefault(atom.name, index)
                    neg_readers.setdefault(atom.name, []).append(
                        (ridx, k, k in drivable)
                    )
                for pos, atom in enumerate(rule.positives):
                    dispatch.setdefault(atom.name, []).append((ridx, pos))
                for name in {a.name for a in (*rule.positives, *rule.negatives)}:
                    readers.setdefault(name, []).append(ridx)
            # Aggregate entries: (rule, plans, fold, gate, relations
            # read).  A body with an event atom is driven from one —
            # ``gate`` is its (drive, relation) — and the others need their
            # removals watched.
            aggs = []
            for r in bucket:
                if not r.is_aggregate:
                    continue
                rp = None if planner is None else planner.plans_for(r)
                agg = (
                    rp.agg if rp is not None
                    else AggregatePlan(r, self.catalog, self.functions)
                )
                gate = None
                if agg.gate is not None:
                    gate = (agg.gate, r.positives[agg.gate[1]].name)
                else:
                    for atom in (*r.positives, *r.negatives):
                        watch.setdefault(atom.name, index)
                aggs.append((r, rp, agg, gate, frozenset(
                    atom.name for atom in (*r.positives, *r.negatives)
                )))
            self._stratum_exec.append({
                "normal": normal,
                "plans": None if planner is None else [
                    planner.plans_for(r) for r in normal
                ],
                "aggs": aggs,
                "dispatch": dispatch,
                "neg_readers": neg_readers,
                "readers": readers,
                # Every relation any rule in the stratum reads (positive,
                # negated, or inside an aggregate body): when none of them
                # is active this step, the stratum cannot derive anything
                # and its fixpoint is skipped outright.
                "read_rels": frozenset(
                    atom.name
                    for r in bucket
                    for atom in (*r.positives, *r.negatives)
                ),
            })

    def add_rule(self, rule: Rule) -> None:
        """Install one additional rule (invalidates the plan cache)."""
        self.set_rules(self.rules + (rule,))

    def set_rules(self, rules: tuple[Rule, ...]) -> None:
        """Swap in a new rule set (program swap).

        The plan cache is invalidated and rebuilt, and every relation the
        new rules read is marked fully dirty so the next step re-derives
        against existing facts.
        """
        self._install_rules(rules)
        for rule in rules:
            for atom in (*rule.positives, *rule.negatives):
                self._full_dirty_pending.add(atom.name)

    def explain(self, rule_name: Optional[str] = None) -> str:
        """Render the compiled join plans as text (see docs/EVALUATOR.md),
        annotated with each rule's cumulative fire count so the output
        cross-references the profiler's hot-rules report by rule id."""
        if self.planner is None:
            return f"(no compiled plans: engine={self.engine!r})"
        return self.planner.explain(rule_name, rule_fires=self.rule_fires)

    # -- observability hooks -------------------------------------------------

    def attach_ledger(self, ledger) -> None:
        """Attach a provenance :class:`DerivationLedger`: every plan then
        runs in its ``tracked`` shape.  Requires the source engine."""
        if self.planner is None:
            raise EvaluationError("provenance requires engine='source'")
        self._ledger = ledger
        self._runs = None  # rebind: the observed drivers

    def attach_profiler(self, profiler) -> None:
        """Attach a sampled :class:`PlanProfiler` (no-op for the
        interpreter and naive engines, which have no plans to time).  The
        plan cache keeps the reference so a program swap flushes stale
        (rule, tag)-keyed stats along with the plans."""
        self._profiler = profiler
        self._runs = None  # rebind: the observed drivers
        if self.planner is not None:
            self.planner.profiler = profiler

    @property
    def observed(self) -> bool:
        """Whether a ledger or profiler is attached: the source engine then
        binds (and ``\\src`` shows) the observed variant of its drivers."""
        return self._ledger is not None or self._profiler is not None

    # -- validation ---------------------------------------------------------

    def _validate(self, rules: tuple[Rule, ...]) -> None:
        for rule in rules:
            for atom in (rule.head, *rule.positive_atoms(), *rule.negated_atoms()):
                if not self.catalog.is_declared(atom.name):
                    raise CatalogError(
                        f"rule {rule.name}: relation {atom.name!r} is not declared"
                    )
                expected = self.catalog.arity(atom.name)
                if atom.arity != expected:
                    raise CatalogError(
                        f"rule {rule.name}: {atom.name} used with arity "
                        f"{atom.arity}, declared {expected}"
                    )
            if rule.delete:
                if not self.catalog.is_materialized(rule.head.name):
                    raise CatalogError(
                        f"rule {rule.name}: delete head {rule.head.name!r} "
                        f"must be a materialized table"
                    )
                if rule.head.loc is not None:
                    raise CatalogError(
                        f"rule {rule.name}: delete rules cannot have a "
                        f"remote location specifier"
                    )
            if rule.deferred and rule.head.loc is not None:
                raise CatalogError(
                    f"rule {rule.name}: @next rules cannot have a location "
                    f"specifier (defer locally, then send)"
                )
            if rule.head.name in self.catalog.timers:
                raise CatalogError(
                    f"rule {rule.name}: cannot derive timer relation "
                    f"{rule.head.name!r}"
                )

    # -- relation access ----------------------------------------------------

    def _rows(self, name: str) -> Iterable[Row]:
        if self.catalog.is_materialized(name):
            return self.catalog.table(name).scan()
        return list(self._event_pool.get(name, ()))

    def rows(self, name: str) -> list[Row]:
        """Public snapshot of a relation's current contents."""
        return list(self._rows(name))

    # -- timestep driver ----------------------------------------------------

    def step(
        self,
        inbox: Iterable[tuple[str, Row]],
        pre_deletes: Iterable[tuple[str, Row]] = (),
    ) -> StepResult:
        """Run one timestep with the given inbox tuples.

        ``pre_deletes`` (from last step's ``@next`` delete rules) are
        applied before the fixpoint, so this step's rules see the
        post-deletion state.
        """
        self._event_pool = {}
        self._result = StepResult()
        self._seen_sends = set()
        self._pending_deletes = set()
        self._seen_deferred = set()
        self._accumulated = {}
        self._delete_rules = {}
        deferred_reasons = self._deferred_delete_rules
        self._deferred_delete_rules = {}

        self._full_dirty = self._full_dirty_pending
        self._full_dirty_pending = set()
        self._removed = {}
        self._removed_prev = self._removed_carry
        self._removed_carry = {}
        self._pass_delta = {}
        self._active = {*self._full_dirty, *self._removed_prev}
        self._cur_stratum = -1
        for rel, row in pre_deletes:
            self._delete(rel, tuple(row), deferred_reasons, "delete@next")
        for rel, row in inbox:
            if not self.catalog.is_declared(rel):
                raise CatalogError(f"inbox tuple for undeclared relation {rel!r}")
            self._insert_local(rel, tuple(row))

        runs = self._runs
        if runs is None:
            runs = self._runs = self._stratum_runs()
        for run in runs:
            run(self)

        # Apply deletions derived by delete rules.  The fixpoint has already
        # run, so every stratum sees these removals at the next step.
        self._cur_stratum = len(self.stratum_buckets)
        for rel, row in sorted(self._pending_deletes, key=repr):
            self._delete(rel, row, self._delete_rules, "delete")
        self._event_pool = {}
        return self._result

    def _delete(self, rel: str, row: Row, reasons: dict, kind: str) -> None:
        """Apply one deletion; the ledger tombstones the row with the
        deleting rule from ``reasons``."""
        if self.catalog.table(rel).delete(row):
            self._result.deletions.append((rel, row))
            self._note_removed(rel, row)
            if self._ledger is not None:
                by = reasons.get((rel, row))
                self._ledger.retract(rel, row, f"{kind} by {by}" if by else "deleted")

    def mark_dirty(self, relation: str) -> None:
        """Record an out-of-band table mutation (e.g. a bootstrap install)
        so the next step re-evaluates rules reading ``relation``."""
        self._full_dirty_pending.add(relation)

    def _note_removed(self, rel: str, row: Row) -> None:
        """A stored row just left ``rel``: deleted, or displaced by a row
        with its primary key."""
        inserted = self._accumulated.get(rel)
        fresh = inserted is not None and row in inserted
        if fresh:
            # Inserted earlier in this same step: it is no insert delta
            # any more, and no stratum still to run ever saw it.
            inserted.discard(row)
            current = self._pass_delta.get(rel)
            if current is not None:
                current.discard(row)
                if not current:
                    del self._pass_delta[rel]
        watch = self._removal_watch.get(rel)
        if watch is None:
            return
        self._active.add(rel)
        if not fresh:
            self._removed.setdefault(rel, []).append(row)
        if self._cur_stratum >= watch:
            self._removed_carry.setdefault(rel, []).append(
                (self._cur_stratum, row)
            )

    def _removed_rows(self, rel: str, index: int) -> list[Row]:
        """Rows that left ``rel`` since stratum ``index`` last ran: this
        step's so far, and last step's from when that stratum had already
        started."""
        rows = [r for at, r in self._removed_prev.get(rel, ()) if at >= index]
        rows.extend(self._removed.get(rel, ()))
        return list(dict.fromkeys(rows))

    def _insert_local(self, rel: str, row: Row) -> bool:
        """Insert a tuple locally; returns True when it is new."""
        if self.catalog.is_materialized(rel):
            res = self.catalog.table(rel).insert(row)
            if not res.inserted:
                return False
        else:
            pool = self._event_pool.setdefault(rel, set())
            if row in pool:
                return False
            pool.add(row)
            res = None
        self._result.fired.setdefault(rel, []).append(row)
        self._result.derivation_count += 1
        self._active.add(rel)
        self._accumulated.setdefault(rel, set()).add(row)
        if res is not None and res.displaced is not None:
            self._note_removed(rel, res.displaced)
            if self._ledger is not None:
                self._ledger.retract(
                    rel, res.displaced, "displaced by primary-key update"
                )
        return True

    # -- stratum fixpoint ---------------------------------------------------

    def _record_iterations(self, index: int, passes: int) -> None:
        self._result.stratum_iterations.append((index, passes))
        totals = self.stratum_iteration_totals
        totals[index] = totals.get(index, 0) + passes

    def _stratum_runs(self) -> list:
        """One ``run(ev)`` per non-empty stratum, in order: its generated
        driver on the source engine (the observed variant while a ledger
        or profiler is attached), else the engine's reference driver."""
        name = {"interpreter": "_run_stratum", "naive": "_run_stratum_naive"}
        ref = name.get(self.engine)
        return [
            self._bind_driver(i) if ref is None
            else lambda ev, i=i: getattr(ev, ref)(i)
            for i, bucket in enumerate(self.stratum_buckets)
            if bucket
        ]

    def _bind_driver(self, index: int):
        """Stratum ``index``'s generated driver, bound to this runtime's
        plans, aggregate entries and tables.  A plain driver calls each
        plan's function directly; the stub standing in for a plan that has
        not run yet generates it and rebinds the name on its first call."""
        observed = self.observed
        unit = self.planner.driver_unit(index, observed)
        info = self._stratum_exec[index]
        rules = info["normal"] + [entry[0] for entry in info["aggs"]]
        ns = dict(unit.shared)
        for name, (kind, arg) in unit.refs.items():
            if kind == "plan":
                plan = info["plans"][arg[0]].by_drive[arg[1]]
                ns[name] = plan if observed else _first_call(ns, name, plan)
            elif kind == "agg":
                ns[name] = info["aggs"][arg]
            elif kind == "rule":
                ns[name] = rules[arg]
            else:
                ns[name] = self._router(rules[arg])
        if observed:
            ns["_run"] = self._plan_runner()
        exec(unit.code, ns)
        return ns[unit.name]

    def _plan_runner(self):
        """How the observed driver calls a plan: the ledger's ``tracked``
        shape, through the profiler's sampling when one is attached."""
        kind = "plain" if self._ledger is None else "tracked"
        if self._profiler is not None:
            return self._profiler.runner(kind)

        def run(plan, ev, rows, exclude):
            return (plan.tracked or plan.generate().tracked)(ev, rows, exclude)

        return run

    def _run_stratum(self, index: int) -> None:
        """The interpreter engine's reference driver: the fixpoint of one
        stratum, written out plainly, that the source engine's generated
        drivers (``codegen.generate_stratum_source``) are checked against.

        Each pass evaluates rules against a *consistent snapshot*: head
        rows are staged and routed only after every rule ran, then form
        the next pass's delta.  The semi-naive split (delta at position i,
        full view before i, pre-delta view after i) fires a binding of
        several new rows exactly once, and a binding a removed row was
        blocking fires once through that row's removal plan — builtins
        like ``f_uid()`` must not mint spurious fresh identifiers.
        """
        info = self._stratum_exec[index]
        # Idle: nothing the stratum reads changed (most strata, most steps).
        if self._active.isdisjoint(info["read_rels"]):
            self._record_iterations(index, 1)
            return
        self._cur_stratum = index
        # Pass 0 catches up with everything that changed since the stratum
        # last ran: inserted rows (inbox plus lower strata) are
        # delta-joined per reading position, removed rows drive the rules
        # that negate their relation and the aggregates that fold it, and
        # only rules reading a fully dirty relation are re-evaluated in
        # full.  Aggregates read only lower strata, so one activation
        # suffices: an event-driven one on its events, the others when a
        # relation they read is active.
        acc = self._accumulated
        staged: list[tuple[Rule, list]] = []
        for entry in info["aggs"]:
            gate = entry[3]
            events = acc.get(gate[1]) if gate else None
            if events or not (gate or self._active.isdisjoint(entry[4])):
                items = self._run_aggregate(entry, events, index, acc)
                if items:
                    staged.append((entry[0], items))
        need_full, removals = self._catch_up(index)
        normal = info["normal"]
        dispatch = info["dispatch"]
        candidates = [(ridx, -1, None, ()) for ridx in need_full]
        candidates += [
            (ridx, len(normal[ridx].positives) + k, ("removed", k), rows)
            for ridx, (k, rows) in removals.items()
        ]
        candidates += self._delta_candidates(dispatch, acc, need_full)
        delta = self._apply_staged(
            staged + self._run_candidates(normal, candidates, acc)
        )
        passes = 1
        while delta:
            passes += 1
            if passes > MAX_FIXPOINT_ITERATIONS + 1:
                raise EvaluationError(
                    "fixpoint did not converge (primary-key oscillation?)"
                )
            delta = self._apply_staged(self._run_candidates(
                normal, self._delta_candidates(dispatch, delta), delta
            ))
        self._record_iterations(index, passes)

    def _catch_up(self, index: int) -> tuple[set[int], dict[int, tuple]]:
        """What stratum ``index``'s pass 0 runs besides insert deltas, on
        both semi-naive engines: the rules to evaluate in full (they read
        a fully dirty relation, or lost rows no removal plan can answer)
        and, per rule, the ``(k, rows)`` its ``removed@k`` plan runs on."""
        info = self._stratum_exec[index]
        need_full: set[int] = set()
        readers = info["readers"]
        for rel in self._full_dirty:
            need_full.update(readers.get(rel, ()))
        hits: dict[int, list] = {}
        if self._removed or self._removed_prev:
            for rel, entries in info["neg_readers"].items():
                rows = self._removed_rows(rel, index)
                if rows:
                    for ridx, k, drivable in entries:
                        hits.setdefault(ridx, []).append(
                            (k if drivable else None, rows)
                        )
        removals = {}
        for ridx, hit in hits.items():
            if ridx in need_full:
                continue
            # Two negated atoms hit at once would each fire a binding
            # both were blocking; like a ``notin`` no removed row can
            # drive, that takes the full evaluation.
            if len(hit) > 1 or hit[0][0] is None:
                need_full.add(ridx)
            else:
                removals[ridx] = hit[0]
        return need_full, removals

    def _delta_candidates(
        self,
        dispatch: dict[str, list],
        delta: dict[str, set[Row]],
        skip: Iterable[int] = (),
    ) -> list[tuple]:
        """One ``(rule-index, position, drive, rows)`` entry per positive
        atom reading a relation with inserted rows."""
        candidates: list[tuple] = []
        for rel, rows in delta.items():
            entries = dispatch.get(rel)
            if entries and rows:
                rows_list = list(rows)
                candidates += [
                    (ridx, pos, ("delta", pos), rows_list)
                    for ridx, pos in entries
                    if ridx not in skip
                ]
        return candidates

    def _run_candidates(
        self,
        normal: list[Rule],
        candidates: list[tuple],
        exclude: dict[str, set[Row]],
    ) -> list[tuple[Rule, list]]:
        """Evaluate one pass's candidates against a consistent snapshot,
        in (rule-index, sequence) order — full plan, then delta positions,
        then removal plans — and return their derivations batched per
        rule."""
        candidates.sort()
        staged: list[tuple[Rule, list]] = []
        for ridx, _seq, drive, rows in candidates:
            rule = normal[ridx]
            items = self._eval_rule(
                rule, drive, rows, None if drive is None else exclude
            )
            if items:
                staged.append((rule, items))
        return staged

    def _run_aggregate(
        self,
        entry: tuple,
        events: Optional[Iterable[Row]],
        index: int,
        acc: dict[str, set[Row]],
    ) -> list[tuple]:
        """One activation of an aggregate rule, on both semi-naive engines:
        fold what entered and left its body since stratum ``index`` last
        ran into the rule's state (:func:`plan.fold_strategy`) and return
        the head rows of the groups that moved."""
        rule, _rp, agg, gate, rels = entry
        tracked = self._ledger is not None
        how = agg.strategy
        if how == "per-step":
            # No state across steps: fold this step's bindings.
            found = self._contributions(entry, gate[0], list(events), None)
            return agg.fold(found, tracked)[1]
        gone = []
        if self._removed or self._removed_prev:
            gone = [
                (i, rows) for i, atom in enumerate(rule.positives)
                if (rows := self._removed_rows(atom.name, index))
            ]
        if (
            how == "recompute"
            or agg.groups is None
            # Two atoms lost rows at once: neither retraction sees the
            # bindings that held a lost row of both.
            or len(gone) > 1
            or not self._full_dirty.isdisjoint(rels)
        ):
            groups, rows = agg.fold(
                self._contributions(entry, None, (), None), tracked
            )
            if how != "recompute":
                agg.groups = groups
            return rows
        changes = [(("retract", i), rows, -1) for i, rows in gone]
        changes += [
            (("delta", i), list(rows), 1)
            for i, atom in enumerate(rule.positives)
            if (rows := acc.get(atom.name))
        ]
        touched: dict[Row, None] = {}
        for drive, rows, sign in changes:
            found = self._contributions(entry, drive, rows, acc)
            if how == "state":
                agg.absorb(agg.groups, found, tracked, sign, touched)
            else:
                touched.update(dict.fromkeys(found))
        if how == "regroup" and touched:
            found = self._contributions(
                entry, ("regroup", None), list(touched), None
            )
            agg.regroup(agg.absorb({}, found, tracked), touched)
        return agg.emit(agg.groups, touched, tracked)

    def _contributions(
        self,
        entry: tuple,
        drive: Drive,
        rows: list[Row],
        exclude: Optional[dict[str, set[Row]]],
    ) -> dict[Row, list]:
        """The contributions of one body plan of an aggregate rule: its
        generated ``agg`` shape or, under the ledger, its ``tracked``
        one (each binding's values with the rows it matched); the
        interpreter's bindings, projected by the fold, on the engine
        without plans and for a plan the emitter declined.  Timed when
        the profiler samples."""
        rule, rp, agg = entry[:3]
        tracked = self._ledger is not None
        plan = None if rp is None else rp.by_drive[drive].generate()
        fn = None if plan is None else plan.tracked if tracked else plan.agg
        if fn is None:
            def fn(ev, rows, exclude):
                return agg.project(ev._body_envs(rule, drive, rows, exclude), tracked)

        prof = self._profiler
        if plan is not None and prof is not None and prof.should_sample(plan):
            return prof.run_plan(plan._prof, fn, self, rows, exclude)
        return fn(self, rows, exclude)

    def _run_stratum_naive(self, index: int) -> None:
        """Textbook naive fixpoint: all rules, full database, every round,
        until a round derives nothing new."""
        info = self._stratum_exec[index]
        iterations = 0
        while True:
            iterations += 1
            if iterations > MAX_FIXPOINT_ITERATIONS:
                raise EvaluationError("naive fixpoint did not converge")
            staged: list[tuple[Rule, list]] = []
            for rule, _rp, agg, _gate, _rels in info["aggs"]:
                items = agg.fold(
                    agg.project(self._body_envs(rule, None, ()))
                )[1]
                if items:
                    staged.append((rule, items))
            for rule in info["normal"]:
                items = self._eval_rule(rule, None, ())
                if items:
                    staged.append((rule, items))
            if not self._apply_staged(staged):
                self._record_iterations(index, iterations)
                return

    def _apply_staged(
        self, staged: list[tuple[Rule, list]]
    ) -> dict[str, set[Row]]:
        """Dispatch buffered head tuples (batched per rule); returns the
        genuinely-new local insertions, which become the next semi-naive
        delta."""
        delta: dict[str, set[Row]] = {}
        self._pass_delta = delta
        for rule, items in staged:
            self._route(rule, items, delta)
        return delta

    def _router(self, rule: Rule):
        """``route(items, delta)``: the plain drivers' routing of
        ``rule``'s head rows, specialised to its head — an ``@next``
        deferral, a ``delete``, or a local insert into a table or the
        event pool, with ``@loc`` sends deduplicated — adding the
        genuinely-new local rows to ``delta``.  What ``_dispatch_head``
        does without a ledger, hoisted per batch."""
        name, fires = rule.name, self.rule_fires
        rel, loc, delete = rule.head.name, rule.head.loc, rule.delete
        if rule.deferred:
            def route(items, delta):
                fires[name] = fires.get(name, 0) + len(items)
                seen, result = self._seen_deferred, self._result
                out = result.deferred_deletes if delete else result.deferred_inserts
                for _rel, row in items:
                    if (delete, rel, row) not in seen:
                        seen.add((delete, rel, row))
                        out.append((rel, row))

            return route
        if delete:
            def route(items, delta):
                fires[name] = fires.get(name, 0) + len(items)
                self._pending_deletes.update((rel, row) for _rel, row in items)

            return route
        table = self.catalog.tables.get(rel)

        def sent(row, result) -> bool:
            """Whether ``row`` leaves the node: a remote @loc, shipped
            once per step."""
            dest = row[loc]
            if dest == self.local_address:
                return False
            key = (dest, rel, row)
            if key not in self._seen_sends:
                self._seen_sends.add(key)
                result.sends.append(key)
            return True

        def route_table(items, delta):
            fires[name] = fires.get(name, 0) + len(items)
            result = self._result
            fired = result.fired.get(rel)
            acc = self._accumulated.get(rel)
            new = delta.get(rel)
            insert = table.insert
            n = 0
            for _rel, row in items:
                if loc is not None and sent(row, result):
                    continue
                res = insert(row)
                if not res.inserted:
                    continue
                if fired is None:
                    fired = result.fired[rel] = []
                fired.append(row)
                n += 1
                if acc is None:
                    acc = self._accumulated[rel] = set()
                acc.add(row)
                if res.displaced is not None:
                    # A displaced row this pass inserted leaves the delta,
                    # which may drop the relation's delta set.
                    self._note_removed(rel, res.displaced)
                    new = delta.get(rel)
                if new is None:
                    new = delta[rel] = set()
                new.add(row)
            if n:
                result.derivation_count += n
                self._active.add(rel)

        def route_events(items, delta):
            fires[name] = fires.get(name, 0) + len(items)
            result = self._result
            pool = self._event_pool.get(rel)
            fresh = []
            for _rel, row in items:
                if loc is not None and sent(row, result):
                    continue
                if pool is None:
                    pool = self._event_pool[rel] = set()
                elif row in pool:
                    continue
                pool.add(row)
                fresh.append(row)
            if fresh:
                result.fired.setdefault(rel, []).extend(fresh)
                result.derivation_count += len(fresh)
                self._active.add(rel)
                self._accumulated.setdefault(rel, set()).update(fresh)
                delta.setdefault(rel, set()).update(fresh)

        return route_events if table is None else route_table

    def _route(self, rule: Rule, items: list, delta: dict) -> None:
        """Count and route one rule's derived head rows, adding the
        genuinely-new local insertions to ``delta``: the reference
        drivers' routing and the observed driver's (the plain drivers'
        is ``_router``)."""
        fires = self.rule_fires
        fires[rule.name] = fires.get(rule.name, 0) + len(items)
        for item in items:
            if self._dispatch_head(rule, *item):
                rows = delta.get(item[0])
                if rows is None:
                    rows = delta[item[0]] = set()
                rows.add(item[1])

    def _dispatch_head(
        self, rule: Rule, rel: str, row: Row, body: tuple = ()
    ) -> bool:
        """Route a derived head tuple; returns True when it extends the
        local database (and hence must join the semi-naive delta).

        With the ledger attached, this is also where derivations are
        recorded: ``next`` for @next deferrals (at deferral time, so the
        deriving rule is known when the tuple re-enters next step),
        ``send`` for remote shipments, ``rule`` for genuinely-new local
        insertions.  ``body`` is the ``((rel, row), ...)`` the rule body
        matched (for an aggregate, the rows of the group's witnesses),
        recorded as it is.
        """
        ledger = self._ledger
        if rule.deferred:
            key = (rule.delete, rel, row)
            if key not in self._seen_deferred:
                self._seen_deferred.add(key)
                if rule.delete:
                    self._result.deferred_deletes.append((rel, row))
                    if ledger is not None:
                        self._deferred_delete_rules[(rel, row)] = rule.name
                else:
                    self._result.deferred_inserts.append((rel, row))
                    if ledger is not None:
                        ledger.record(
                            "next", rule.name, self._cur_stratum,
                            self._cur_pass, rel, row, body,
                        )
            return False
        if rule.delete:
            self._pending_deletes.add((rel, row))
            if ledger is not None:
                self._delete_rules[(rel, row)] = rule.name
            return False
        head = rule.head
        if head.loc is not None:
            dest = row[head.loc]
            if dest != self.local_address:
                key = (dest, rel, row)
                if key not in self._seen_sends:
                    self._seen_sends.add(key)
                    self._result.sends.append((dest, rel, row))
                    if ledger is not None:
                        ledger.record(
                            "send", rule.name, self._cur_stratum,
                            self._cur_pass, rel, row, body, dest,
                        )
                return False
        inserted = self._insert_local(rel, row)
        if inserted and ledger is not None:
            ledger.record(
                "rule", rule.name, self._cur_stratum, self._cur_pass,
                rel, row, body,
            )
        return inserted

    # -- single-rule evaluation ---------------------------------------------

    # Witnesses kept (and hence recorded) per aggregate group.
    MAX_AGG_WITNESSES = MAX_AGG_WITNESSES

    def _eval_rule(
        self,
        rule: Rule,
        drive: Drive,
        delta_rows: Iterable[Row],
        exclude: Optional[dict[str, set[Row]]] = None,
        tracked: bool = False,
    ) -> list[tuple]:
        """Evaluate a non-aggregate rule body; returns derived head tuples
        ``(rel, row)``, with the witness (the body rows matched) as a
        third element when ``tracked``.

        Under a ``drive`` the driving atom ranges only over
        ``delta_rows`` and the atoms :func:`plan.body_order` gives the
        full-minus-delta view skip the rows in ``exclude``, completing
        the exactly-once semi-naive split.
        """
        # ``_body_envs`` yields pairwise-distinct bindings — a wildcard join
        # fires once per binding, which keeps nondeterministic builtins
        # like f_uid from minting spurious extra tuples — so no second
        # dedup pass is needed.
        head_name, head_args = rule.head.name, rule.head.args
        functions = self.functions
        out = []
        for env, body in self._body_envs(rule, drive, delta_rows, exclude):
            row = tuple(eval_expr(arg, env, functions) for arg in head_args)
            out.append((head_name, row, body) if tracked else (head_name, row))
        return out

    def _body_envs(
        self,
        rule: Rule,
        drive: Drive,
        delta_rows: Iterable[Row],
        exclude: Optional[dict[str, set[Row]]] = None,
    ) -> list[tuple[Env, tuple]]:
        """The distinct binding environments of a rule body, each with
        its witness: the ``((rel, row), ...)`` its positive atoms matched,
        in rule order.  A binding several rows match (a wildcard column)
        keeps the first, as the generated dedup does."""
        known = self._orders.get((id(rule), drive))
        if known is None:
            order = body_order(rule, drive, self.catalog)
            known = self._orders[(id(rule), drive)] = (order, witness_slots(rule, order))
        order, slots = known
        functions = self.functions
        # (environment, rows matched so far in execution order) pairs.
        envs: list[tuple[Env, tuple]] = [({}, ())]
        for elem, view in order:
            if not envs:
                return []
            if isinstance(elem, Atom):
                if view == _SRC_DELTA:
                    # Callers pass an already-materialized list (shared
                    # across every rule in the pass): no copy.
                    if not isinstance(delta_rows, list):
                        delta_rows = list(delta_rows)
                    rows_of = lambda env, rows=delta_rows: rows
                else:
                    rows_of = self._candidates(elem, envs)
                banned = None
                if view == _SRC_POST_DELTA and exclude:
                    banned = exclude.get(elem.name)
                new_envs: list[tuple[Env, tuple]] = []
                # Wildcard columns can match many rows onto the *same*
                # binding; dedupe eagerly so later (possibly
                # nondeterministic) assignments fire once per binding.
                seen: set[frozenset] = set()
                for env, matched_rows in envs:
                    for row in rows_of(env):
                        if banned and row in banned:
                            continue
                        matched = match_atom(elem, row, env, functions)
                        if matched is not None:
                            signature = frozenset(matched.items())
                            if signature not in seen:
                                seen.add(signature)
                                new_envs.append((matched, matched_rows + (row,)))
                envs = new_envs
            elif isinstance(elem, NotIn):
                rows_of = self._candidates(elem.atom, envs)
                envs = [
                    (env, matched_rows) for env, matched_rows in envs
                    if not any(
                        match_atom(elem.atom, row, env, functions) is not None
                        for row in rows_of(env)
                    )
                ]
            elif isinstance(elem, Assign):
                new_envs = []
                for env, matched_rows in envs:
                    value = eval_expr(elem.expr, env, functions)
                    if elem.var.name in env:
                        if env[elem.var.name] == value:
                            new_envs.append((env, matched_rows))
                    else:
                        extended = dict(env)
                        extended[elem.var.name] = value
                        new_envs.append((extended, matched_rows))
                envs = new_envs
            elif isinstance(elem, Cond):
                envs = [
                    (env, matched_rows) for env, matched_rows in envs
                    if eval_expr(elem.expr, env, functions)
                ]
            else:  # pragma: no cover - parser prevents this
                raise EvaluationError(f"unknown body element {elem!r}")
        return [
            (env, tuple((a.name, matched_rows[s]) for a, s in zip(rule.positives, slots)))
            for env, matched_rows in envs
        ]

    def _candidates(self, atom: Atom, envs: list[tuple[Env, tuple]]):
        """``env -> rows`` of ``atom``'s relation that may match it: on a
        stored relation, an index probe on the first constant or bound
        column (every env at one body position binds the same
        variables), else every row."""
        table = self.catalog.tables.get(atom.name)
        if table is not None:
            bound = envs[0][0].keys()
            for column, arg in enumerate(atom.args):
                if isinstance(arg, Const):
                    return lambda env: table.rows_matching(column, arg.value)
                if isinstance(arg, Var) and not arg.is_wildcard and arg.name in bound:
                    return lambda env: table.rows_matching(column, env[arg.name])
        rows = list(self._rows(atom.name))
        return lambda env: rows
