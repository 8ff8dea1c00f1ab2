"""Processes (nodes): backend-agnostic execution units.

Two kinds of node run on a cluster:

* :class:`OverlogProcess` — hosts an :class:`~repro.overlog.runtime.OverlogRuntime`
  and wires its timestep loop to the cluster clock and transport.  This
  is how every declarative component (BOOM-FS NameNode, Paxos replicas,
  BOOM-MR JobTracker) executes.
* :class:`Process` — the imperative base class used by data-plane and
  baseline components (DataNodes, TaskTrackers, the Hadoop-style stack).

Both communicate exclusively through ``(relation, row)`` deltas shipped
in :class:`~repro.transport.envelope.Envelope` batches, so declarative
and imperative nodes interoperate — and both speak only the
:class:`~repro.transport.base.Transport` contract through their cluster,
so the same node classes run on the discrete-event simulator
(:class:`repro.sim.cluster.Cluster`) and on the asyncio backend
(:class:`repro.transport.asyncio_backend.AsyncCluster`) unmodified.

Sends are buffered in a per-node :class:`~repro.transport.envelope.Outbox`
and flushed once per *delivery unit* — an Overlog fixpoint, an arriving
envelope's handler run, a timer callback — producing one envelope per
destination (flush-on-fixpoint batching).  A ``send`` outside any such
unit flushes immediately.
"""

from __future__ import annotations

from contextlib import contextmanager
from functools import cache
from importlib import resources
from typing import TYPE_CHECKING, Any, Callable, Optional

from ..metrics import MetricsRegistry, Tracer
from ..overlog import OverlogRuntime, Program
from ..overlog.eval import StepResult
from ..transport.base import Address, TimerHandle
from ..transport.envelope import Outbox

if TYPE_CHECKING:
    from ..transport.base_cluster import BaseCluster


@cache
def program_source(path: str) -> str:
    """The text of a shipped ``.olg`` program, ``path`` relative to the
    ``repro`` package (e.g. ``"paxos/programs/paxos.olg"``); read once."""
    return resources.files("repro").joinpath(path).read_text()


class Process:
    """Base class for a node attached to a cluster (any backend)."""

    def __init__(self, address: Address):
        self.address = address
        self.cluster: Optional["BaseCluster"] = None
        self.crashed = False
        # Per-node metric scope; re-registered with the cluster-wide
        # aggregator on attach (Overlog nodes swap in their runtime's
        # registry instead — see OverlogProcess).
        self.metrics = MetricsRegistry(str(address))
        self._outbox = Outbox(address)
        self._send_depth = 0

    # -- lifecycle, called by the cluster ------------------------------------

    def attach(self, cluster: "BaseCluster") -> None:
        self.cluster = cluster
        self._register_metrics()

    def _register_metrics(self) -> None:
        if self.cluster is not None:
            self.metrics = self.cluster.metrics.adopt(self.metrics)

    @property
    def tracer(self) -> Optional[Tracer]:
        return self.cluster.tracer if self.cluster is not None else None

    def start(self) -> None:
        """Called once when the node joins the cluster (and on restart)."""

    def on_crash(self) -> None:
        """Called when the node crashes (before it stops receiving)."""

    # -- messaging -------------------------------------------------------------

    def handle_message(self, relation: str, row: tuple) -> None:
        raise NotImplementedError

    @contextmanager
    def sending(self):
        """Scope one delivery unit: sends made inside buffer into the
        outbox and flush as batched envelopes on outermost exit."""
        self._send_depth += 1
        try:
            yield
        finally:
            self._send_depth -= 1
            if self._send_depth == 0:
                self._flush_sends()

    def send(self, dst: Address, relation: str, row: tuple) -> None:
        assert self.cluster is not None, "process not attached"
        tracer = self.tracer
        # The trace context is captured at buffer time (batching must not
        # blur which span caused which delta); the mid rides the envelope.
        mid = (
            tracer.on_send(self.address, dst, relation)
            if tracer is not None
            else None
        )
        self._outbox.add(dst, relation, tuple(row), mid)
        if self._send_depth == 0:
            self._flush_sends()

    def _flush_sends(self) -> None:
        if self.cluster is None or not len(self._outbox):
            return
        transport = self.cluster.transport
        for env in self._outbox.flush():
            transport.send(env)

    def discard_unsent(self) -> None:
        """Crash semantics: unflushed sends are volatile state, lost."""
        self._outbox.clear()

    # -- time --------------------------------------------------------------------

    @property
    def now(self) -> int:
        assert self.cluster is not None
        return self.cluster.now

    def after(self, delay_ms: int, action: Callable[[], None]) -> TimerHandle:
        """Schedule ``action`` unless this node has crashed by then.  The
        action runs as its own delivery unit (its sends batch per dest)."""
        assert self.cluster is not None

        def guarded() -> None:
            if not self.crashed:
                with self.sending():
                    action()

        return self.cluster.schedule(delay_ms, guarded)

    # -- the monitor's export round (docs/TELEMETRY.md) ------------------------

    def publish(self, clock: Optional[int] = None) -> int:
        """Ship one export round to the cluster's monitor as one delivery
        unit: the registry as ``telemetry(node, metric, kind, payload,
        clock)`` tuples plus the :meth:`state_export_rows` snapshot.
        ``clock`` defaults to transport time; deterministic tests pass an
        explicit round number.  Returns the tuple count (0 when no
        monitor is armed, or this node is down or is the monitor)."""
        monitor = self.cluster.monitor if self.cluster is not None else None
        if monitor is None or monitor is self or self.crashed:
            return 0
        from ..telemetry.export import telemetry_rows

        clock = self.now if clock is None else clock
        rows = [
            ("telemetry", row)
            for row in telemetry_rows(
                self.metrics, node=str(self.address), clock=clock
            )
        ]
        rows.extend(self.state_export_rows(clock))
        with self.sending():
            for relation, row in rows:
                self.send(monitor.address, relation, row)
        return len(rows)

    def state_export_rows(self, clock: int) -> list[tuple]:
        """Hook: ``(relation, row)`` pairs describing this node's
        safety-relevant state at ``clock``.  The default exports
        nothing; components with cross-node invariants override it."""
        return []


class OverlogProcess(Process):
    """A node whose behaviour is an Overlog program.

    The runtime's timestep loop is driven by the cluster clock: each
    arriving message (or due timer) schedules a step; each step's remote
    sends are flushed through the transport as one envelope per
    destination (flush-on-fixpoint).

    CPU service time is modelled by ``step_cost_ms`` (fixed cost per
    timestep) plus ``per_derivation_cost_us`` (microseconds per derived
    tuple): after a step, the node is *busy* for that long and the next
    step cannot start earlier.  Both default to zero (infinitely fast
    node), which is right for protocol tests; throughput experiments set
    them to expose the metadata plane as a bottleneck.

    ``provenance``/``profile`` turn on the runtime's derivation ledger
    and sampled plan profiler (both off by default — see
    docs/PROVENANCE.md); the ledger is registered with the cluster's
    :class:`~repro.provenance.why.ClusterProvenance` so ``Cluster.why``
    stitches derivations across nodes, and re-registered after a restart
    (a restarted node's provenance starts from blank, like the rest of
    its soft state).
    """

    def __init__(
        self,
        address: Address,
        program: Program | str,
        seed: int = 0,
        step_cost_ms: int = 0,
        per_derivation_cost_us: int = 0,
        extra_functions: Optional[dict[str, Callable[..., Any]]] = None,
        provenance: bool = False,
        provenance_capacity: Optional[int] = None,
        profile: bool = False,
    ):
        super().__init__(address)
        self._program = program
        self._seed = seed
        self._extra_functions = extra_functions
        self._provenance = provenance
        self._provenance_capacity = provenance_capacity
        self._profile = profile
        self.step_cost_ms = step_cost_ms
        self.per_derivation_cost_us = per_derivation_cost_us
        self.runtime = self._make_runtime()
        self.metrics = self.runtime.metrics.registry
        self._step_pending = False
        self._busy_until = 0
        self._timer_handle: Optional[TimerHandle] = None
        self._woke_by_timer = False

    def _make_runtime(self) -> OverlogRuntime:
        return OverlogRuntime(
            self._program,
            address=self.address,
            seed=self._seed,
            extra_functions=self._extra_functions,
            provenance=self._provenance,
            provenance_capacity=self._provenance_capacity,
            profile=self._profile,
        )

    # -- lifecycle --------------------------------------------------------------

    def attach(self, cluster: "BaseCluster") -> None:
        super().attach(cluster)
        self._register_ledger()

    def _register_ledger(self) -> None:
        if self.cluster is not None and self.runtime.ledger is not None:
            self.cluster.provenance.register(self.address, self.runtime.ledger)

    def start(self) -> None:
        self.bootstrap()
        self._schedule_timer_wakeup()
        self._schedule_step()

    def bootstrap(self) -> None:
        """Hook: install initial facts into the runtime.  Called at start
        and again after a restart (which begins from a blank runtime)."""

    def on_restart(self) -> None:
        """Hook invoked after the runtime has been rebuilt on restart."""

    def reset_for_restart(self) -> None:
        """Rebuild the runtime from scratch (crash loses soft state)."""
        self.runtime = self._make_runtime()
        # Metrics are soft state too: a restarted node reports from zero,
        # and its fresh registry replaces the old one cluster-wide.
        self.metrics = self.runtime.metrics.registry
        self._register_metrics()
        # A fresh runtime means a fresh ledger; re-register it so
        # cluster-wide why() keeps resolving through this node.
        self._register_ledger()
        self._step_pending = False
        self._busy_until = 0
        self._timer_handle = None
        self._woke_by_timer = False
        self._outbox.clear()

    def on_crash(self) -> None:
        if self._timer_handle is not None:
            self._timer_handle.cancel()
            self._timer_handle = None

    # -- messaging ----------------------------------------------------------------

    def handle_message(self, relation: str, row: tuple) -> None:
        # Deliveries run under the message's span context (set by the
        # cluster when unpacking the envelope); remember it on the inbox
        # tuple so the step that eventually consumes it resumes the trace.
        tracer = self.tracer
        ctx = tracer.current if tracer is not None else ()
        self.runtime.insert(relation, row, trace=ctx)
        self._schedule_step()

    def inject(self, relation: str, row: tuple, trace: Any = None) -> None:
        """Locally insert an event (e.g. an application request) and wake
        the node up.  ``trace`` may be a SpanRef (or tuple of them) to
        stamp the event with a causal trace; otherwise the ambient tracer
        context, if any, is inherited."""
        if self.crashed:
            return
        if trace is None:
            tracer = self.tracer
            ctx = tracer.current if tracer is not None else ()
        elif isinstance(trace, tuple):
            ctx = trace
        else:
            ctx = (trace,)
        self.runtime.insert(relation, tuple(row), trace=ctx)
        self._schedule_step()

    # -- stepping ------------------------------------------------------------------

    def _schedule_step(self) -> None:
        if self._step_pending or self.crashed or self.cluster is None:
            return
        self._step_pending = True
        delay = max(self.step_cost_ms, self._busy_until - self.now)
        self.cluster.schedule(delay, self._run_step)

    def _run_step(self) -> None:
        self._step_pending = False
        if self.crashed:
            return
        tracer = self.tracer
        # Per-step rule attribution for the latency accounting layer:
        # snapshot the evaluator's cumulative fire counts so the step
        # annotation can carry this tick's per-rule fires.  Only paid
        # when at least one trace exists (untraced runs skip the copy).
        fires_before = (
            dict(self.runtime.evaluator.rule_fires)
            if tracer is not None and tracer._trace_n
            else None
        )
        woke_by_timer = self._woke_by_timer
        self._woke_by_timer = False
        result = self.runtime.tick(now=self.now)
        cost_ms = 0
        if self.per_derivation_cost_us:
            cost_ms = (
                result.derivation_count * self.per_derivation_cost_us
            ) // 1000
            self._busy_until = self.now + self.step_cost_ms + cost_ms
        # The step's effects (result handling, remote sends) execute under
        # the causal context of the inbox tuples that drove the fixpoint,
        # so traces follow requests across nodes.  The sending() scope is
        # the fixpoint boundary: every send the step makes flushes as one
        # envelope per destination when the scope closes.
        ctx = self.runtime.last_step_ctx
        with self.sending():
            if tracer is not None and ctx:
                annotation: dict[str, Any] = {
                    "node": self.address,
                    "derivations": result.derivation_count,
                }
                if woke_by_timer:
                    annotation["timer"] = True
                busy_ms = self.step_cost_ms + cost_ms
                if busy_ms:
                    annotation["busy_ms"] = busy_ms
                if fires_before is not None:
                    fired = sorted(
                        (name, count - fires_before.get(name, 0))
                        for name, count in self.runtime.evaluator.rule_fires.items()
                        if count != fires_before.get(name, 0)
                    )
                    if fired:
                        annotation["rules"] = fired
                tracer.annotate(ctx, "step", **annotation)
                with tracer.activate(ctx):
                    self.handle_step_result(result)
                    for dest, relation, row in result.sends:
                        self.send(dest, relation, row)
            else:
                self.handle_step_result(result)
                for dest, relation, row in result.sends:
                    self.send(dest, relation, row)
        self._schedule_timer_wakeup()
        # Rules may have produced local events for the next step.
        if self.runtime.has_pending_work:
            self._schedule_step()

    def handle_step_result(self, result: StepResult) -> None:
        """Hook: subclasses react to derived tuples (data-plane bridging)."""

    def _schedule_timer_wakeup(self) -> None:
        next_fire = self.runtime.next_timer_fire()
        if next_fire is None or self.crashed or self.cluster is None:
            return
        if self._timer_handle is not None and not self._timer_handle.cancelled:
            if self._timer_handle.time <= next_fire:
                return
            self._timer_handle.cancel()
        delay = max(0, next_fire - self.now)
        self._timer_handle = self.cluster.schedule(delay, self._timer_fired)

    def _timer_fired(self) -> None:
        self._timer_handle = None
        if not self.crashed:
            # Mark the wakeup source so the step annotation can tell a
            # timer-driven step apart from a message-driven one (the
            # latency accountant classifies the preceding gap as timer
            # wait for any traced tuple that was parked across it).
            self._woke_by_timer = True
            self._run_step()
