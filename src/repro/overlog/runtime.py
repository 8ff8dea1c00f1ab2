"""The per-node Overlog runtime ("PyJOL").

An :class:`OverlogRuntime` owns one catalog, one evaluator and one inbox.
It is deliberately transport-agnostic: callers (the simulator's
:class:`repro.sim.node.OverlogProcess`, or unit tests) push tuples in with
:meth:`insert` and drive timesteps with :meth:`tick`, receiving the remote
sends back in the :class:`StepResult`.

Stateful builtins registered here:

``f_now()``
    current clock reading (milliseconds of simulated time),
``f_newid()``
    a fresh monotonically increasing integer, unique per runtime,
``f_uid()``
    a fresh globally readable id string ``"<addr>:<n>"``,
``f_rand()``
    a float in [0, 1) from the runtime's seeded RNG,
``f_randint(n)``
    an int in [0, n) from the same RNG,
``f_localaddr()``
    this runtime's network address.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Optional

from ..metrics.registry import NodeMetrics
from .ast import Program, Rule
from .catalog import Catalog, Row
from .errors import CatalogError
from .eval import Evaluator, StepResult
from .functions import FunctionLibrary
from .parser import parse

# An inbox tuple's trace context: (SpanRef, ...) from repro.metrics.trace,
# kept duck-typed here so the engine has no hard dependency on tracing.
TraceContext = tuple


@dataclass
class TimerState:
    name: str
    period_ms: int
    next_fire: int
    fire_count: int = 0


class OverlogRuntime:
    """One node's Overlog engine: program + catalog + inbox + timers."""

    def __init__(
        self,
        program: Program | str,
        address: Any = "localhost",
        seed: int = 0,
        extra_functions: Optional[dict[str, Callable[..., Any]]] = None,
        engine: str = "source",
        provenance: bool = False,
        provenance_capacity: Optional[int] = None,
        profile: bool = False,
        profile_sample_every: Optional[int] = None,
    ):
        if isinstance(program, str):
            program = parse(program)
        self.program = program
        self.address = address
        self._now = 0
        self._id_counter = 0
        self._rng = random.Random(seed)

        self.functions = FunctionLibrary(extra_functions)
        self.functions.register("f_now", lambda: self._now)
        self.functions.register("f_newid", self._next_id)
        self.functions.register("f_uid", lambda: f"{self.address}:{self._next_id()}")
        self.functions.register("f_rand", self._rng.random)
        self.functions.register("f_randint", lambda n: self._rng.randrange(n))
        self.functions.register("f_localaddr", lambda: self.address)

        self.catalog = Catalog()
        self.catalog.load(program)
        self.evaluator = Evaluator(
            program.rules,
            self.catalog,
            self.functions,
            address,
            engine=engine,
        )
        self.metrics = NodeMetrics(str(address))
        self.metrics.bind_evaluator(self.evaluator)
        # Optional provenance ledger + sampled plan profiler, both off by
        # default (the evaluator's hot path then pays only None checks).
        # Imported lazily so the engine has no hard provenance dependency.
        self.ledger = None
        self.profiler = None
        if provenance:
            from ..provenance.ledger import DerivationLedger

            self.ledger = DerivationLedger(
                node=address,
                **(
                    {"capacity": provenance_capacity}
                    if provenance_capacity is not None
                    else {}
                ),
            )
            self.evaluator.attach_ledger(self.ledger)
        if profile:
            from ..provenance.profiler import PlanProfiler

            self.profiler = PlanProfiler(
                **(
                    {"sample_every": profile_sample_every}
                    if profile_sample_every is not None
                    else {}
                ),
            )
            self.evaluator.attach_profiler(self.profiler)

        self._inbox: list[tuple[str, Row, TraceContext, str]] = []
        self.last_step_ctx: TraceContext = ()
        self._deferred_deletes: list[tuple[str, Row]] = []
        self._watchers: dict[str, list[Callable[[Row], None]]] = {}
        self.timers: dict[str, TimerState] = {
            t.name: TimerState(t.name, t.period_ms, next_fire=t.period_ms)
            for t in self.catalog.timers.values()
        }
        self.step_count = 0
        self.total_derivations = 0

    # -- identifiers ---------------------------------------------------------

    def _next_id(self) -> int:
        self._id_counter += 1
        return self._id_counter

    # -- program access (metaprogramming surface) ----------------------------

    def extended(self, extra: Program | str) -> "OverlogRuntime":
        """Return a new runtime running this program merged with ``extra``
        (used by the monitoring rewrite; state is *not* carried over)."""
        if isinstance(extra, str):
            extra = parse(extra)
        merged = self.program.merged(extra)
        return OverlogRuntime(merged, address=self.address)

    @property
    def rules(self) -> tuple[Rule, ...]:
        return self.program.rules

    def add_rule(self, rule: Rule | str) -> None:
        """Install additional rule(s) into the running program.

        Accepts a :class:`Rule` or Overlog rule source text.  Any new
        relations must already be declared.  The evaluator's plan cache is
        invalidated and the affected relations are re-evaluated on the
        next timestep.
        """
        if isinstance(rule, str):
            new_rules = parse(f"program _added;\n{rule}").rules
        else:
            new_rules = (rule,)
        self.program = self.program.with_rules(self.program.rules + new_rules)
        self.evaluator.set_rules(self.program.rules)

    def explain(self, rule_name: Optional[str] = None) -> str:
        """Render the evaluator's compiled join plans (docs/EVALUATOR.md)."""
        return self.evaluator.explain(rule_name)

    def generated_source(self, rule_name: Optional[str] = None) -> str:
        """The Python source generated for a rule's plans (all rules when
        ``rule_name`` is None); explains itself on the interpreter and
        naive engines.  See docs/EVALUATOR.md."""
        planner = self.evaluator.planner
        if planner is None:
            return f"(no generated source: engine={self.evaluator.engine!r})"
        return planner.render_source(rule_name, self.evaluator.observed)

    # -- provenance debugger (docs/PROVENANCE.md) -----------------------------

    def why(
        self,
        relation: str,
        row: Iterable[Any],
        fmt: str = "text",
        max_depth: int = 64,
    ):
        """Derivation DAG of a tuple, from this node's ledger only (use
        ``Cluster.why`` for cross-node stitching).  Requires the runtime
        to have been built with ``provenance=True``."""
        if self.ledger is None:
            msg = "(provenance ledger disabled: pass provenance=True)"
            return msg if fmt == "text" else {"error": msg}
        from ..provenance.why import render_why, why_dag

        dag = why_dag(self.ledger, relation, tuple(row), max_depth=max_depth)
        return render_why(dag) if fmt == "text" else dag

    def why_not(self, relation: str, row: Iterable[Any], fmt: str = "text"):
        """Replay candidate rules to explain why a tuple is absent.
        Works without the ledger — it reads only rules and tables."""
        from ..provenance.why import render_why_not, why_not

        report = why_not(self.evaluator, relation, tuple(row))
        return render_why_not(report) if fmt == "text" else report

    def profile_report(self, fmt: str = "text", top: Optional[int] = None):
        """The sampled plan profiler's hot-rules report (requires
        ``profile=True``), through :mod:`repro.metrics.export`."""
        if self.profiler is None:
            msg = "(plan profiler disabled: pass profile=True)"
            return msg if fmt == "text" else {"error": msg}
        report = self.profiler.hot_rules(top=top)
        if fmt == "text":
            from ..metrics.export import render_hot_rules

            return render_hot_rules(report)
        return report

    # -- external interface ---------------------------------------------------

    def insert(
        self,
        relation: str,
        row: Iterable[Any],
        trace: TraceContext = (),
    ) -> None:
        """Queue a tuple for the next timestep.

        ``trace`` carries the causal span context the tuple arrived under
        (see :mod:`repro.metrics.trace`); the step that consumes it runs
        under the union of its inbox contexts.
        """
        self._inbox.append((relation, tuple(row), tuple(trace), "input"))

    def insert_many(self, relation: str, rows: Iterable[Iterable[Any]]) -> None:
        for row in rows:
            self.insert(relation, row)

    def install(self, relation: str, rows: Iterable[Iterable[Any]]) -> None:
        """Directly load facts into a materialized table, outside any
        timestep (bootstrap data: config, initial directory entries...)."""
        table = self.catalog.table(relation)
        for row in rows:
            row = tuple(row)
            table.insert(row)
            if self.ledger is not None:
                self.ledger.record_external("install", relation, row)
        self.evaluator.mark_dirty(relation)

    def watch(self, relation: str, callback: Callable[[Row], None]) -> None:
        """Invoke ``callback(row)`` for every tuple newly derived in
        ``relation``, after each timestep."""
        if not self.catalog.is_declared(relation):
            raise CatalogError(f"cannot watch undeclared relation {relation!r}")
        self._watchers.setdefault(relation, []).append(callback)

    def rows(self, relation: str) -> list[Row]:
        """Snapshot of a materialized table's contents."""
        return list(self.catalog.table(relation).scan())

    def lookup(self, relation: str, **col_values: Any) -> list[Row]:
        """Rows of ``relation`` where column index ``_0``/``_1``/... equals
        the given value, e.g. ``lookup("file", _1="root")``."""
        filters = {int(k[1:]): v for k, v in col_values.items()}
        return [
            row
            for row in self.rows(relation)
            if all(row[i] == v for i, v in filters.items())
        ]

    # -- timers ----------------------------------------------------------------

    def next_timer_fire(self) -> Optional[int]:
        """Earliest pending timer deadline, or None when the program has no
        timers."""
        if not self.timers:
            return None
        return min(t.next_fire for t in self.timers.values())

    def _due_timer_tuples(self, now: int) -> list[tuple[str, Row]]:
        fired: list[tuple[str, Row]] = []
        for timer in self.timers.values():
            while timer.next_fire <= now:
                timer.fire_count += 1
                fired.append((timer.name, (timer.fire_count, now)))
                timer.next_fire += timer.period_ms
        return fired

    # -- timestep ---------------------------------------------------------------

    @property
    def has_pending_work(self) -> bool:
        return bool(self._inbox) or bool(self._deferred_deletes)

    def tick(self, now: Optional[int] = None) -> StepResult:
        """Run one timestep at simulated time ``now`` (ms).

        Drains the inbox plus any timers due by ``now``.  Returns the step's
        effects; remote sends must be delivered by the caller.
        """
        if now is not None:
            if now < self._now:
                raise ValueError(f"clock moved backwards: {now} < {self._now}")
            self._now = now
        entries = self._inbox
        self._inbox = []
        entries.extend(
            (rel, row, (), "timer")
            for rel, row in self._due_timer_tuples(self._now)
        )
        # The step's causal context is the (first-seen ordered, hence
        # deterministic) union of its inbox tuples' contexts; derived
        # effects — sends, @next deferrals — inherit it.
        ctx: list = []
        seen_refs: set = set()
        for _rel, _row, trace, _src in entries:
            for ref in trace:
                if ref not in seen_refs:
                    seen_refs.add(ref)
                    ctx.append(ref)
        step_ctx = tuple(ctx)
        if self.ledger is not None:
            self.ledger.begin_step(self.step_count + 1, self._now, step_ctx)
            for rel, row, trace, src in entries:
                # Deferred (@next) re-arrivals already have a "next"
                # entry recording the deriving rule — a fresh "input"
                # entry would shadow it.
                if src != "deferred":
                    self.ledger.record_external(src, rel, row, trace)
        pre_deletes = self._deferred_deletes
        self._deferred_deletes = []
        result = self.evaluator.step(
            [(rel, row) for rel, row, _, _ in entries], pre_deletes=pre_deletes
        )
        # @next derivations become next step's inbox / pre-deletions.
        self._inbox.extend(
            (rel, row, step_ctx, "deferred")
            for rel, row in result.deferred_inserts
        )
        self._deferred_deletes.extend(result.deferred_deletes)
        self.last_step_ctx = step_ctx
        self.step_count += 1
        self.total_derivations += result.derivation_count
        self.metrics.record_step(self._now, result)
        self._notify_watchers(result)
        return result

    def run_to_quiescence(self, max_steps: int = 1000) -> list[StepResult]:
        """Tick repeatedly (same clock reading) until the inbox is empty.

        Only useful for single-node programs; networked programs should be
        driven by the simulator.
        """
        results = []
        steps = 0
        while self.has_pending_work:
            steps += 1
            if steps > max_steps:
                raise RuntimeError("runtime did not quiesce")
            results.append(self.tick())
        return results

    def _notify_watchers(self, result: StepResult) -> None:
        for relation, callbacks in self._watchers.items():
            for row in result.fired_rows(relation):
                for cb in callbacks:
                    cb(row)
