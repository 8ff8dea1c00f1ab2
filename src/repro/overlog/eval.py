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

from collections import defaultdict
from dataclasses import dataclass, field
from typing import Any, Iterable, Optional

from .ast import (
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
)
from .catalog import Catalog, Row
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
    compile_expr,
    removal_drives,
)
from .strata import compute_strata, rules_by_stratum

# The evaluation engines (``Evaluator(engine=...)``): generated source,
# and the two references it is checked against.
ENGINES = ("source", "interpreter", "naive")

# A fixpoint that runs longer than this many semi-naive iterations within a
# single stratum is assumed to be oscillating through primary-key updates.
MAX_FIXPOINT_ITERATIONS = 10_000

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
    # (stratum index, semi-naive passes run) for each stratum that had
    # work this step — the fixpoint-depth profile the metrics layer reads.
    stratum_iterations: list[tuple[int, int]] = field(default_factory=list)

    def fired_rows(self, relation: str) -> list[Row]:
        return self.fired.get(relation, [])


def eval_expr(expr: Expr, env: Env, functions: FunctionLibrary) -> Any:
    """Evaluate an expression under a variable binding environment."""
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
        val = eval_expr(expr.operand, env, functions)
        if expr.op == "-":
            return -val
        if expr.op == "!":
            return not val
        raise EvaluationError(f"unknown unary operator {expr.op}")
    if isinstance(expr, BinOp):
        return _eval_binop(expr, env, functions)
    raise EvaluationError(f"cannot evaluate {expr!r}")


def _eval_binop(expr: BinOp, env: Env, functions: FunctionLibrary) -> Any:
    op = expr.op
    if op == "&&":
        return bool(
            eval_expr(expr.left, env, functions)
            and eval_expr(expr.right, env, functions)
        )
    if op == "||":
        return bool(
            eval_expr(expr.left, env, functions)
            or eval_expr(expr.right, env, functions)
        )
    left = eval_expr(expr.left, env, functions)
    right = eval_expr(expr.right, env, functions)
    if op == "+":
        return left + right
    if op == "-":
        return left - right
    if op == "*":
        return left * right
    if op == "/":
        # Integer operands use integer division (Overlog is int-heavy:
        # chunk offsets, slot counts); any float operand gives float math.
        if isinstance(left, int) and isinstance(right, int):
            return left // right
        return left / right
    if op == "%":
        return left % right
    if op == "==":
        return left == right
    if op == "!=":
        return left != right
    if op == "<":
        return left < right
    if op == "<=":
        return left <= right
    if op == ">":
        return left > right
    if op == ">=":
        return left >= right
    raise EvaluationError(f"unknown operator {op}")


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


def _const_column(atom: Atom) -> tuple[Optional[int], Any]:
    """Predicate-dispatch hint: the first constant column of an atom (e.g.
    the op-type string of request rules) as ``(column, value)``, else
    ``(None, None)``.  Rows that miss it cannot bind the atom, so a rule
    is handed only the matching rows of a delta and skipped when there
    are none — the plan itself re-checks the constant, so the hint is
    purely a filter."""
    for col, arg in enumerate(atom.args):
        if isinstance(arg, Const):
            try:
                hash(arg.value)
            except TypeError:
                continue
            return col, arg.value
    return None, None


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
        # The engine runs every plan as generated Python source
        # (repro.overlog.codegen); a rule shape the emitter declines runs
        # through the AST interpreter (``_body_envs`` / ``_eval_rule``).
        # The other two engines exist for the differential tests and the
        # ablations: ``"interpreter"`` evaluates every plan that way, the
        # semi-naive reference the source is checked against, and
        # ``"naive"`` re-evaluates every rule against the full database
        # every round (no deltas, no cross-step gating) — the ground-truth
        # semantics.  Naive is NOT sound for rules calling
        # nondeterministic builtins (f_uid etc.), which rely on
        # exactly-once firing.
        if engine not in ENGINES:
            raise ValueError(f"engine must be one of {ENGINES}, got {engine!r}")
        self.engine = engine
        self.planner: Optional[PlanCache] = (
            PlanCache(catalog, functions) if engine == "source" else None
        )
        # Optional observability hooks (attach_ledger / attach_profiler):
        # a provenance DerivationLedger recording every head derivation,
        # and a sampled per-plan profiler.  Both None (off) by default —
        # the hot path pays only a None check.
        self._ledger = None
        self._profiler = None
        self._cur_stratum = 0
        self._cur_pass = 0
        # (rel, row) -> rule name, for tombstoning provenance entries
        # with the deleting rule when deletions are applied.
        self._delete_rules: dict[tuple[str, Row], str] = {}
        self._deferred_delete_rules: dict[tuple[str, Row], str] = {}
        # Per-rule witness-reconstruction recipes (provenance): how to
        # rebuild each positive body atom's matched row from a final body
        # environment.  Keyed by id(rule); cleared on program swap.
        self._body_recipes: dict[int, tuple] = {}
        # Interpreter: (id(rule), drive) -> plan.body_order result.
        self._orders: dict[tuple, list] = {}
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
        # The delta being built by the running ``_apply_staged``.
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
        its source the first time it runs.
        """
        self._validate(rules)
        strata = compute_strata(rules)
        self.strata = strata
        self.stratum_buckets = rules_by_stratum(rules, strata)
        self.rules = rules
        self._body_recipes.clear()
        self._orders.clear()
        if self.planner is not None:
            self.planner.invalidate()
            self.planner.compile_program(rules)
        # Per-stratum execution structures, resolved once at install time
        # so the per-pass hot loop touches no rule metadata: the
        # normal/aggregate split (``is_aggregate`` walks the head args),
        # each rule's compiled plans, and two dispatch maps from relation
        # name to the plans a change to it drives — ``dispatch`` for
        # inserted rows (one entry per positive atom reading it),
        # ``neg_readers`` for removed rows (one entry per negated atom).
        # The semi-naive inner loop consults the maps instead of scanning
        # every rule × position per iteration; candidates are sorted by
        # (rule-index, sequence) at use — full plan, then delta
        # positions, then removal plans — so staging order is rule-major.
        planner = self.planner
        self._stratum_exec: list[dict[str, Any]] = []
        # relation -> lowest stratum holding a rule that must react when a
        # row leaves it (an aggregate, or a ``notin`` reader registered in
        # ``neg_readers``).  Removals from any other relation need no
        # bookkeeping at all.
        watch = self._removal_watch = {}
        tables = self.catalog.tables
        for index, bucket in enumerate(self.stratum_buckets):
            normal = [r for r in bucket if not r.is_aggregate]
            aggs = [r for r in bucket if r.is_aggregate]
            plans_of = (
                {id(r): planner.plans_for(r) for r in bucket}
                if planner is not None
                else {}
            )
            dispatch: dict[str, list] = {}
            neg_readers: dict[str, list] = {}
            readers: dict[str, list[int]] = {}
            for ridx, rule in enumerate(normal):
                rp = plans_of.get(id(rule))
                drivable = removal_drives(rule, self.catalog)
                for k, atom in enumerate(rule.negatives):
                    if drivable is None or atom.name not in tables:
                        continue
                    watch.setdefault(atom.name, index)
                    # drive None: removals from this atom's relation
                    # re-evaluate the rule in full.
                    neg_readers.setdefault(atom.name, []).append((
                        ridx, len(rule.positives) + k, rule,
                        None if rp is None else rp.by_removed.get(k),
                        ("removed", k) if k in drivable else None,
                    ))
                for pos, atom in enumerate(rule.positives):
                    dispatch.setdefault(atom.name, []).append(
                        (ridx, pos, rule,
                         None if rp is None else rp.by_pos[pos],
                         ("delta", pos), *_const_column(atom))
                    )
                seen_rels: set[str] = set()
                for atom in (*rule.positives, *rule.negatives):
                    if atom.name not in seen_rels:
                        seen_rels.add(atom.name)
                        readers.setdefault(atom.name, []).append(ridx)
            # Aggregate entries: (rule, plans, fold, gate, relations
            # read).  A body with an event atom is driven from one —
            # ``gate`` is its (drive, relation, constant column, value)
            # — and the others need their removals watched.
            agg_entries = []
            for r in aggs:
                rp = plans_of.get(id(r))
                agg = (
                    rp.agg if rp is not None
                    else AggregatePlan(r, self.catalog, self.functions)
                )
                gate = None
                if agg.gate is not None:
                    atom = r.positives[agg.gate[1]]
                    gate = (agg.gate, atom.name, *_const_column(atom))
                else:
                    for atom in (*r.positives, *r.negatives):
                        watch.setdefault(atom.name, index)
                agg_entries.append((r, rp, agg, gate, frozenset(
                    atom.name for atom in (*r.positives, *r.negatives)
                )))
            self._stratum_exec.append({
                "normal": [(r, plans_of.get(id(r))) for r in normal],
                "aggs": agg_entries,
                "normal_rules": normal,
                "dispatch": dispatch,
                "neg_readers": neg_readers,
                # relation -> rule indexes reading it anywhere (positive
                # or negated) — the full-dirty fan-out set.
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
        runs in its ``tracked`` / ``envs`` shape.  Requires the source
        engine."""
        if self.planner is None:
            raise EvaluationError("provenance requires engine='source'")
        ledger.resolver = self._witness_body
        self._ledger = ledger

    def attach_profiler(self, profiler) -> None:
        """Attach a sampled :class:`PlanProfiler` (no-op for the
        interpreter and naive engines, which have no plans to time).  The
        plan cache keeps the reference so a program swap flushes stale
        (rule, tag)-keyed stats along with the plans."""
        self._profiler = profiler
        if self.planner is not None:
            self.planner.profiler = profiler

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
            if self.catalog.table(rel).delete(tuple(row)):
                self._result.deletions.append((rel, tuple(row)))
                self._note_removed(rel, tuple(row))
                if self._ledger is not None:
                    by = deferred_reasons.get((rel, tuple(row)))
                    self._ledger.retract(
                        rel,
                        tuple(row),
                        f"delete@next by {by}" if by else "deleted",
                    )
        for rel, row in inbox:
            if not self.catalog.is_declared(rel):
                raise CatalogError(f"inbox tuple for undeclared relation {rel!r}")
            self._insert_local(rel, tuple(row))

        for index, bucket in enumerate(self.stratum_buckets):
            if bucket:
                self._run_stratum(index, bucket)

        # Apply deletions derived by delete rules.  The fixpoint has already
        # run, so every stratum sees these removals at the next step.
        self._cur_stratum = len(self.stratum_buckets)
        for rel, row in sorted(self._pending_deletes, key=repr):
            if self.catalog.table(rel).delete(row):
                self._result.deletions.append((rel, row))
                self._note_removed(rel, row)
                if self._ledger is not None:
                    by = self._delete_rules.get((rel, row))
                    self._ledger.retract(
                        rel, row, f"delete by {by}" if by else "deleted"
                    )

        self._event_pool = {}
        return self._result

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
            if res.inserted:
                self._record_fired(rel, row)
                self._active.add(rel)
                self._add_accumulated(rel, row)
                if res.displaced is not None:
                    self._note_removed(rel, res.displaced)
                    if self._ledger is not None:
                        self._ledger.retract(
                            rel,
                            res.displaced,
                            "displaced by primary-key update",
                        )
            return res.inserted
        pools = self._event_pool
        pool = pools.get(rel)
        if pool is None:
            pool = pools[rel] = set()
        elif row in pool:
            return False
        pool.add(row)
        self._record_fired(rel, row)
        self._active.add(rel)
        self._add_accumulated(rel, row)
        return True

    def _add_accumulated(self, rel: str, row: Row) -> None:
        accumulated = self._accumulated
        rows = accumulated.get(rel)
        if rows is None:
            accumulated[rel] = {row}
        else:
            rows.add(row)

    def _record_fired(self, rel: str, row: Row) -> None:
        fired = self._result.fired
        rows = fired.get(rel)
        if rows is None:
            fired[rel] = [row]
        else:
            rows.append(row)
        self._result.derivation_count += 1

    # -- stratum fixpoint ---------------------------------------------------

    def _record_iterations(self, index: int, passes: int) -> None:
        self._result.stratum_iterations.append((index, passes))
        totals = self.stratum_iteration_totals
        totals[index] = totals.get(index, 0) + passes

    def _run_stratum(self, index: int, bucket: tuple[Rule, ...]) -> None:
        """Fixpoint for one stratum with exactly-once firing per binding.

        Each iteration evaluates rules against a *consistent snapshot*:
        derived head tuples are staged and dispatched only after every rule
        has been evaluated, then form the next iteration's delta.  The
        delta pass uses the textbook semi-naive split (delta at position i,
        full view before i, pre-delta view after i) so a binding involving
        several new tuples still fires exactly once, and a binding that a
        removed row was blocking fires once through that row's removal
        plan.  This matters because builtins like ``f_uid()`` are
        nondeterministic: re-firing the same binding would mint spurious
        fresh identifiers.
        """
        info = self._stratum_exec[index]
        if self.engine == "naive":
            self._run_stratum_naive(index, info["normal_rules"], info["aggs"])
            return

        self._cur_stratum = index
        self._cur_pass = 0
        # Idle-stratum early exit: ``_active`` is a superset of the
        # full-dirty set, the accumulated-delta relations and the watched
        # relations that lost rows, so a stratum reading none of it can
        # derive nothing — skip the snapshot, candidate build, and empty
        # dispatch (most strata, most steps).
        if self._active.isdisjoint(info["read_rels"]):
            self._record_iterations(index, 1)
            return
        # With no observers attached the per-derivation dispatch in
        # ``_derive`` is pure overhead; call the generated source
        # directly.  Observed runs call the same functions through
        # ``_derive`` so ledger and profiler see every execution.
        fast = (
            self.planner is not None
            and self._profiler is None
            and self._ledger is None
        )
        # Iteration 0: the stratum catches up with everything that changed
        # since it last ran.  Inserted rows (inbox plus lower strata) are
        # delta-joined per reading position and removed rows drive the
        # rules that negate their relation and the aggregates that fold
        # it, which is what makes steady-state operations O(change)
        # rather than O(database); only rules reading a fully dirty
        # relation are re-evaluated in full.
        # The snapshot is taken here because the stratum's own loop keeps
        # growing ``_accumulated``.
        # Only relations this stratum actually reads matter: the exclude
        # view is consulted solely for body atoms, all in ``read_rels``.
        # The live sets are referenced *without copying*: plan executions
        # are pure, staged insertions land only after every iteration-0
        # candidate has run, and ``acc`` is not consulted after that.
        read = info["read_rels"]
        acc = {
            rel: rows
            for rel, rows in self._accumulated.items()
            if rel in read
        }
        # Staged entries are (rule, derivations) batches where each
        # derivation is (rel, row) — or (rel, row, body_tuples) under the
        # provenance ledger's tracked execution.  Batching by rule keeps
        # the dispatch order identical while skipping one tuple
        # allocation per derived head.
        staged: list[tuple[Rule, list]] = []
        # Aggregates read only lower strata (guaranteed by stratification),
        # so one evaluation suffices; their outputs seed the delta.  An
        # event-driven one runs on the events its gate lets through (the
        # constant-column dispatch of ``_delta_candidates``), the others
        # when a relation they read is active.
        for entry in info["aggs"]:
            gate = entry[3]
            if gate is None:
                events = None
                if self._active.isdisjoint(entry[4]):
                    continue
            else:
                _drive, rel, ccol, cval = gate
                events = acc.get(rel)
                if events and ccol is not None:
                    events = [
                        r for r in events if len(r) > ccol and r[ccol] == cval
                    ]
                if not events:
                    continue
            items = self._run_aggregate(entry, events, index, acc)
            if items:
                staged.append((entry[0], items))

        normal = info["normal"]
        dispatch = info["dispatch"]
        need_full: set[int] = set()
        if self._full_dirty:
            readers = info["readers"]
            for rel in self._full_dirty:
                ridxs = readers.get(rel)
                if ridxs:
                    need_full.update(ridxs)
        candidates = self._removal_candidates(
            info["neg_readers"], index, need_full
        )
        for ridx in need_full:
            rule, rp = normal[ridx]
            candidates.append(
                (ridx, -1, rule, None if rp is None else rp.full, None, ())
            )
        candidates += self._delta_candidates(dispatch, acc, fast, need_full)
        staged += self._run_candidates(candidates, acc, fast)

        delta = self._apply_staged(staged)
        iterations = 0
        while delta:
            iterations += 1
            if iterations > MAX_FIXPOINT_ITERATIONS:
                raise EvaluationError(
                    "fixpoint did not converge (primary-key oscillation?)"
                )
            self._cur_pass = iterations
            # Only (rule, pos) pairs whose atom's relation actually has a
            # delta run this pass.
            delta = self._apply_staged(
                self._run_candidates(
                    self._delta_candidates(dispatch, delta, fast),
                    delta, fast,
                )
            )
        self._record_iterations(index, iterations + 1)

    def _removal_candidates(
        self, neg_readers: dict[str, list], index: int, need_full: set[int]
    ) -> list[tuple]:
        """One candidate per rule whose negated relation lost rows since
        stratum ``index`` last ran — or, where no removal plan can answer,
        the rule's index added to ``need_full``."""
        if not self._removed and not self._removed_prev:
            return []
        hits: dict[int, list] = {}
        for rel, entries in neg_readers.items():
            rows_list = self._removed_rows(rel, index)
            if rows_list:
                for entry in entries:
                    hits.setdefault(entry[0], []).append((*entry, rows_list))
        candidates = []
        for ridx, hit in hits.items():
            if ridx in need_full:
                continue
            # Two negated atoms hit at once would each fire a binding
            # both were blocking; like a ``notin`` no removed row can
            # drive (drive None), that takes the full evaluation.
            if len(hit) > 1 or hit[0][4] is None:
                need_full.add(ridx)
            else:
                candidates.append(hit[0])
        return candidates

    def _delta_candidates(
        self,
        dispatch: dict[str, list],
        delta: dict[str, set[Row]],
        fast: bool,
        skip: Iterable[int] = (),
    ) -> list[tuple]:
        """One ``(rule-index, sequence, rule, plan, drive, rows)`` entry
        per positive atom reading a relation with inserted rows.  Each
        relation's delta is materialized as a list once and shared by
        every rule in the pass."""
        candidates: list[tuple] = []
        for rel, rows in delta.items():
            entries = dispatch.get(rel)
            if not entries or not rows:
                continue
            rows_list = list(rows)
            buckets: dict[int, dict] = {}
            for ridx, pos, rule, plan, drive, ccol, cval in entries:
                if ridx in skip:
                    continue
                if fast and ccol is not None:
                    # Predicate dispatch: hand the rule only the delta
                    # rows matching its constant column, and skip the
                    # call entirely when there are none.
                    b = buckets.get(ccol)
                    if b is None:
                        b = buckets[ccol] = {}
                        for r in rows_list:
                            if len(r) > ccol:
                                b.setdefault(r[ccol], []).append(r)
                    sub = b.get(cval)
                    if not sub:
                        continue
                    candidates.append((ridx, pos, rule, plan, drive, sub))
                else:
                    candidates.append(
                        (ridx, pos, rule, plan, drive, rows_list)
                    )
        return candidates

    def _run_candidates(
        self,
        candidates: list[tuple],
        exclude: dict[str, set[Row]],
        fast: bool,
    ) -> list[tuple[Rule, list]]:
        """Execute one pass's plans against a consistent snapshot and
        return their derivations batched per rule, in rule-major order
        (plain tuple sort: (rule-index, sequence) pairs are unique, so
        comparison never reaches the Rule element)."""
        candidates.sort()
        staged: list[tuple[Rule, list]] = []
        for _ridx, _seq, rule, plan, drive, rows_list in candidates:
            excl = None if drive is None else exclude
            if fast:
                fn = plan.plain or plan.generate().plain
                items = fn(self, rows_list, excl)
            else:
                items = self._derive(rule, drive, rows_list, excl, plan)
            if items:
                staged.append((rule, items))
        return staged

    # -- plan/interpreter dispatch ------------------------------------------

    def _derive(
        self,
        rule: Rule,
        drive: Drive,
        delta_rows: list[Row],
        exclude: Optional[dict[str, set[Row]]] = None,
        plan: Any = None,
    ) -> list[tuple]:
        """Derive a non-aggregate rule's head tuples through its plan,
        or through the interpreter on the engine without plans.

        Items are ``(rel, row)``, or ``(rel, row, env)`` when the
        provenance ledger is attached.  A profiler-sampled execution is
        the same function, timed.
        """
        if plan is None:
            return self._eval_rule(rule, drive, delta_rows, exclude)
        if plan._codegen is not None:
            plan.generate()
        fn = plan.tracked if self._ledger is not None else plan.plain
        prof = self._profiler
        if prof is not None:
            # Sampling decision inlined: one stat load, an increment and
            # a modulo on the un-sampled hot path.
            stat = plan._prof or prof.link(plan)
            n = stat.execs
            stat.execs = n + 1
            if n % prof.sample_every == 0:
                return prof.run_plan(stat, fn, self, delta_rows, exclude)
        return fn(self, delta_rows, exclude)

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
        generated ``agg`` shape or, under the ledger (the environments
        are the witnesses) and for a plan the emitter declined, its
        environments projected by the fold.  Through the interpreter on
        the engine without plans; timed when the profiler samples."""
        rule, rp, agg = entry[:3]
        tracked = self._ledger is not None
        if rp is None:
            envs = self._body_envs(rule, drive, rows, exclude)
            return agg.project(envs, tracked)
        plan = rp.by_drive[drive]
        if plan._codegen is not None:
            plan.generate()
        fn = plan.agg
        if tracked or fn is None:
            envs_of = plan.envs

            def fn(ev, rows, exclude):
                return agg.project(envs_of(ev, rows, exclude), tracked)

        prof = self._profiler
        if prof is not None and prof.should_sample(plan):
            return prof.run_plan(plan._prof, fn, self, rows, exclude)
        return fn(self, rows, exclude)

    def _run_stratum_naive(
        self, index: int, normal_rules: list[Rule], aggs: list[tuple]
    ) -> None:
        """Textbook naive fixpoint: all rules, full database, every round,
        until a round derives nothing new."""
        iterations = 0
        while True:
            iterations += 1
            if iterations > MAX_FIXPOINT_ITERATIONS:
                raise EvaluationError("naive fixpoint did not converge")
            staged: list[tuple[Rule, list]] = []
            for rule, _rp, agg, _gate, _rels in aggs:
                items = agg.fold(
                    agg.project(self._body_envs(rule, None, ()))
                )[1]
                if items:
                    staged.append((rule, items))
            for rule in normal_rules:
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
        delta: dict[str, set[Row]] = defaultdict(set)
        self._pass_delta = delta
        fires = self.rule_fires
        dispatch = self._dispatch_head
        if self._ledger is not None:
            # Tracked items are always (rel, row, witness-env) triples.
            for rule, items in staged:
                fires[rule.name] = fires.get(rule.name, 0) + len(items)
                for rel, row, witness in items:
                    if dispatch(rule, rel, row, witness):
                        delta[rel].add(row)
            return delta
        catalog = self.catalog
        local = self.local_address
        for rule, items in staged:
            fires[rule.name] = fires.get(rule.name, 0) + len(items)
            if rule.deferred or rule.delete:
                for rel, row in items:
                    dispatch(rule, rel, row)
                continue
            # A rule's head relation is constant, so the routing checks
            # (@loc column, materialized-or-event) and the table/delta-set
            # lookups hoist out of the per-item loop; the loop body below
            # transcribes _dispatch_head + _insert_local for the
            # ledger-less case.
            rel = items[0][0]
            loc = rule.head.loc
            seen_sends = self._seen_sends
            sends = self._result.sends
            if catalog.is_materialized(rel):
                insert = catalog.table(rel).insert
                for _rel, row in items:
                    if loc is not None:
                        dest = row[loc]
                        if dest != local:
                            key = (dest, rel, row)
                            if key not in seen_sends:
                                seen_sends.add(key)
                                sends.append((dest, rel, row))
                            continue
                    res = insert(row)
                    if res.inserted:
                        self._record_fired(rel, row)
                        self._active.add(rel)
                        self._add_accumulated(rel, row)
                        if res.displaced is not None:
                            self._note_removed(rel, res.displaced)
                        delta[rel].add(row)
            else:
                pools = self._event_pool
                pool = pools.get(rel)
                dset = None
                for _rel, row in items:
                    if loc is not None:
                        dest = row[loc]
                        if dest != local:
                            key = (dest, rel, row)
                            if key not in seen_sends:
                                seen_sends.add(key)
                                sends.append((dest, rel, row))
                            continue
                    if pool is None:
                        pool = pools[rel] = set()
                    elif row in pool:
                        continue
                    pool.add(row)
                    self._record_fired(rel, row)
                    self._active.add(rel)
                    self._add_accumulated(rel, row)
                    if dset is None:
                        dset = delta[rel]
                    dset.add(row)
        return delta

    def _dispatch_head(
        self, rule: Rule, rel: str, row: Row, witness: Any = None
    ) -> bool:
        """Route a derived head tuple; returns True when it extends the
        local database (and hence must join the semi-naive delta).

        With the ledger attached, this is also where derivations are
        recorded: ``next`` for @next deferrals (at deferral time, so the
        deriving rule is known when the tuple re-enters next step),
        ``send`` for remote shipments, ``rule`` for genuinely-new local
        insertions.  ``witness`` is the final body environment the tuple
        was projected from (a tuple of them for aggregates); the body
        tuples are reconstructed from it only when an entry is actually
        recorded, so tracking costs nothing per joined row.
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
                            self._cur_pass, rel, row, witness,
                            witness_rule=rule,
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
                            self._cur_pass, rel, row, witness,
                            dest=dest, witness_rule=rule,
                        )
                return False
        inserted = self._insert_local(rel, row)
        if inserted and ledger is not None:
            ledger.record(
                "rule", rule.name, self._cur_stratum, self._cur_pass,
                rel, row, witness, None, rule,
            )
        return inserted

    # -- witness reconstruction (provenance) ---------------------------------

    # Witnesses kept (and hence recorded) per aggregate group.
    MAX_AGG_WITNESSES = MAX_AGG_WITNESSES

    def _witness_body(self, rule: Rule, witness: Any) -> tuple:
        """Body tuples ``((rel, row), ...)`` for a recorded derivation,
        rebuilt from the final body environment(s) it was projected from.

        Non-wildcard variable and constant columns are exact — they are
        the very values the join matched.  Wildcard and expression
        columns are re-resolved by probing the relation on the exact
        columns; when several rows agree on those, the first probe hit is
        recorded (a documented why-provenance restriction, see
        docs/PROVENANCE.md).
        """
        if witness is None:
            return ()
        if rule.is_aggregate:
            seen: set = set()
            out: list = []
            for env in witness:
                for item in self._body_from_env(rule, env):
                    if item not in seen:
                        seen.add(item)
                        out.append(item)
            return tuple(out)
        return self._body_from_env(rule, witness)

    def _body_from_env(self, rule: Rule, env: Env) -> tuple:
        recipe = self._body_recipes.get(id(rule))
        if recipe is None:
            recipe = self._witness_recipe(rule)
            self._body_recipes[id(rule)] = recipe
        out = []
        for name, fns, probe in recipe:
            if probe is None:
                out.append((name, tuple(fn(env) for fn in fns)))
                continue
            arity, cols = probe
            vals = tuple(fn(env) for fn in fns)
            found = self._probe_witness_row(name, cols, vals, arity)
            if found is None:
                row: list = [None] * arity
                for col, value in zip(cols, vals):
                    row[col] = value
                found = tuple(row)
            out.append((name, found))
        return tuple(out)

    def _witness_recipe(self, rule: Rule) -> tuple:
        """How to rebuild each positive body atom's matched row from a
        final body environment.  Per atom: ``(name, column_fns, probe)``
        — ``probe`` is None when every column is a bound variable or a
        constant (the fns produce the full row), else ``(arity,
        exact_cols)`` with fns for the exact columns only; the wildcard/
        expression columns are re-resolved by probing the relation."""
        recipe = []
        functions = self.functions

        def exact(arg: Any) -> bool:
            return isinstance(arg, Const) or (
                isinstance(arg, Var) and not arg.is_wildcard
            )

        for atom in rule.positives:
            if all(exact(a) for a in atom.args):
                fns = tuple(compile_expr(a, functions) for a in atom.args)
                recipe.append((atom.name, fns, None))
            else:
                cols = tuple(
                    i for i, a in enumerate(atom.args) if exact(a)
                )
                fns = tuple(
                    compile_expr(atom.args[i], functions) for i in cols
                )
                recipe.append((atom.name, fns, (len(atom.args), cols)))
        return tuple(recipe)

    def _probe_witness_row(
        self, name: str, cols: tuple[int, ...], vals: tuple, arity: int
    ) -> Optional[Row]:
        """First stored row of ``name`` agreeing with the bound columns
        (used for wildcard/expression columns the env cannot name).

        Falls back to the ledger's own records when the tables miss:
        resolution is lazy, so by the time a witness is read an event
        tuple has vanished with its timestep (and a materialized row may
        have been deleted) — but its own provenance entry still names it.
        """
        if self.catalog.is_materialized(name):
            table = self.catalog.table(name)
            if cols:
                for row in table.rows_matching_cols(cols, vals):
                    return row
            else:
                for row in table.rows_list():
                    return row
        else:
            for row in self._event_pool.get(name, ()):
                if len(row) == arity and all(
                    row[c] == v for c, v in zip(cols, vals)
                ):
                    return row
        if self._ledger is not None:
            return self._ledger.find_row(name, cols, vals, arity)
        return None

    # -- single-rule evaluation ---------------------------------------------

    def _eval_rule(
        self,
        rule: Rule,
        drive: Drive,
        delta_rows: Iterable[Row],
        exclude: Optional[dict[str, set[Row]]] = None,
        tracked: bool = False,
    ) -> list[tuple]:
        """Evaluate a non-aggregate rule body; returns derived head tuples
        ``(rel, row)``, with the body environment as a third element when
        ``tracked``.

        Under a ``drive`` the driving atom ranges only over
        ``delta_rows`` and the atoms :func:`plan.body_order` gives the
        full-minus-delta view skip the rows in ``exclude``, completing
        the exactly-once semi-naive split.
        """
        envs = self._body_envs(rule, drive, delta_rows, exclude)
        # ``_body_envs`` already deduplicates identical environments at
        # every atom step, and the later body elements (assignments,
        # conditions, negation) preserve distinctness — so the
        # environments arriving here are pairwise distinct and need no
        # second signature-freezing pass.  (Wildcard joins producing
        # several identical environments fire once per distinct binding,
        # which is what keeps nondeterministic builtins like f_uid from
        # minting spurious extra tuples.)
        head_name = rule.head.name
        head_args = rule.head.args
        functions = self.functions
        rows = [
            tuple(eval_expr(arg, env, functions) for arg in head_args)
            for env in envs
        ]
        if tracked:
            return [(head_name, row, env) for row, env in zip(rows, envs)]
        return [(head_name, row) for row in rows]

    def _body_envs(
        self,
        rule: Rule,
        drive: Drive,
        delta_rows: Iterable[Row],
        exclude: Optional[dict[str, set[Row]]] = None,
    ) -> list[Env]:
        order = self._orders.get((id(rule), drive))
        if order is None:
            order = self._orders[(id(rule), drive)] = body_order(
                rule, drive, self.catalog
            )
        envs: list[Env] = [{}]
        for elem, view in order:
            if not envs:
                return []
            if isinstance(elem, Atom):
                rows: Optional[list[Row]] = None
                index_plan: Optional[tuple[int, Any]] = None
                banned = None
                if view == _SRC_DELTA:
                    # Callers pass an already-materialized list (shared
                    # across every rule in the pass); avoid re-copying it
                    # here, on the hottest call path.
                    rows = (
                        delta_rows
                        if isinstance(delta_rows, list)
                        else list(delta_rows)
                    )
                else:
                    if view == _SRC_POST_DELTA and exclude:
                        banned = exclude.get(elem.name)
                    # Bound-column join: if some argument is a constant or
                    # an already-bound variable, probe the table's hash
                    # index instead of scanning.  The bound-variable set is
                    # identical across envs at a given body position, so
                    # one plan serves every env.
                    index_plan = self._index_plan(elem, envs)
                    if index_plan is None:
                        rows = list(self._rows(elem.name))
                new_envs: list[Env] = []
                # Wildcard columns can match many rows onto the *same*
                # binding; dedupe eagerly so later (possibly
                # nondeterministic) assignments fire once per binding.
                seen: set[frozenset] = set()
                table = (
                    self.catalog.table(elem.name)
                    if index_plan is not None
                    else None
                )
                for env in envs:
                    if index_plan is not None:
                        column, arg = index_plan
                        value = (
                            arg.value
                            if isinstance(arg, Const)
                            else env[arg.name]
                        )
                        candidate_rows = table.rows_matching(column, value)
                    else:
                        candidate_rows = rows
                    for row in candidate_rows:
                        if banned and row in banned:
                            continue
                        matched = match_atom(elem, row, env, self.functions)
                        if matched is not None:
                            signature = frozenset(matched.items())
                            if signature not in seen:
                                seen.add(signature)
                                new_envs.append(matched)
                envs = new_envs
            elif isinstance(elem, NotIn):
                neg_plan = self._index_plan(elem.atom, envs)
                neg_table = (
                    self.catalog.table(elem.atom.name)
                    if neg_plan is not None
                    else None
                )
                neg_rows = (
                    None if neg_plan is not None
                    else list(self._rows(elem.atom.name))
                )
                kept: list[Env] = []
                for env in envs:
                    if neg_plan is not None:
                        column, arg = neg_plan
                        value = (
                            arg.value
                            if isinstance(arg, Const)
                            else env[arg.name]
                        )
                        candidates = neg_table.rows_matching(column, value)
                    else:
                        candidates = neg_rows
                    if not any(
                        match_atom(elem.atom, row, env, self.functions)
                        is not None
                        for row in candidates
                    ):
                        kept.append(env)
                envs = kept
            elif isinstance(elem, Assign):
                new_envs = []
                for env in envs:
                    value = eval_expr(elem.expr, env, self.functions)
                    if elem.var.name in env:
                        if env[elem.var.name] == value:
                            new_envs.append(env)
                    else:
                        extended = dict(env)
                        extended[elem.var.name] = value
                        new_envs.append(extended)
                envs = new_envs
            elif isinstance(elem, Cond):
                envs = [
                    env
                    for env in envs
                    if eval_expr(elem.expr, env, self.functions)
                ]
            else:  # pragma: no cover - parser prevents this
                raise EvaluationError(f"unknown body element {elem!r}")
        return envs

    def _index_plan(
        self, atom: Atom, envs: list[Env]
    ) -> Optional[tuple[int, Any]]:
        """Pick a column of ``atom`` usable as an index probe: a constant
        argument, or a variable bound by the envs' shared prefix.  Returns
        (column, arg) or None (then the caller scans)."""
        if not envs or not self.catalog.is_materialized(atom.name):
            return None
        bound = envs[0].keys()
        for column, arg in enumerate(atom.args):
            if isinstance(arg, Const):
                return column, arg
            if isinstance(arg, Var) and not arg.is_wildcard and arg.name in bound:
                return column, arg
        return None
