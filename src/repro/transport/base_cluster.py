"""Backend-agnostic cluster: processes + observability over a Transport.

:class:`BaseCluster` owns everything that is *not* substrate-specific —
the process registry, crash/restart/partition controls, the metrics
aggregator, the tracer and cross-node provenance — and talks to the
substrate only through the :class:`~repro.transport.base.Transport`
contract.  The two concrete clusters are
:class:`repro.sim.cluster.Cluster` (deterministic discrete-event time)
and :class:`repro.transport.asyncio_backend.AsyncCluster` (real
concurrency); BOOM-FS, BOOM-MR, Paxos and the Hadoop baseline run
unmodified on either.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Iterable, Optional

from ..metrics import ClusterMetrics, MetricsRegistry, Tracer
from ..provenance.why import ClusterProvenance
from .base import Address, TimerHandle, Transport
from .envelope import Envelope

if TYPE_CHECKING:
    from ..sim.node import Process


class BaseCluster:
    """A cluster of processes over one pluggable transport."""

    #: Names the substrate, so callers can tell sim runs from real ones.
    backend = "base"

    def __init__(self, transport: Transport):
        # Observability: one cluster-wide metrics aggregator (every node's
        # registry is adopted into it on attach) and one tracer driven by
        # the transport clock (see docs/OBSERVABILITY.md).
        self.metrics = ClusterMetrics()
        self.tracer = Tracer(clock=lambda: self.transport.now)
        # Cross-node provenance: nodes built with provenance=True register
        # their derivation ledgers here, and Cluster.why() stitches
        # derivation DAGs across them (docs/PROVENANCE.md).
        self.provenance = ClusterProvenance(tracer=self.tracer)
        self.transport = transport
        transport.tracer = self.tracer
        transport.metrics = self.metrics.adopt(MetricsRegistry("transport"))
        self.processes: dict[Address, "Process"] = {}
        # Telemetry plane (docs/TELEMETRY.md): set by enable_telemetry;
        # holds (monitor address, interval, transport/trace export flags)
        # so late-added and restarted nodes get wired automatically.
        self._telemetry: Optional[dict] = None
        # Cluster-scoped invariants (docs/OBSERVABILITY.md): set by
        # enable_invariants; every node ships state exports to the
        # monitor, whose Overlog joins them across nodes.
        self._invariants: Optional[dict] = None
        # Flight recorder (docs/OBSERVABILITY.md): set by
        # enable_flight_recorder; dumps per-node post-mortems on crash.
        self.flight_recorder = None

    # -- membership -----------------------------------------------------------

    def add(self, process: "Process") -> "Process":
        if process.address in self.processes:
            raise ValueError(f"duplicate address {process.address}")
        self.processes[process.address] = process
        process.attach(self)
        self.transport.register(
            process.address, lambda env: self._deliver_envelope(process, env)
        )
        with process.sending():
            process.start()
        self._wire_telemetry(process)
        self._wire_state_export(process)
        return process

    def get(self, address: Address) -> "Process":
        return self.processes[address]

    def addresses(self) -> list[Address]:
        return list(self.processes)

    # -- envelope plumbing ----------------------------------------------------

    def _deliver_envelope(self, process: "Process", env: Envelope) -> None:
        """Unpack an arriving envelope into per-delta handler calls, each
        under its own reopened trace context; sends the handlers make are
        batched and flushed once the whole envelope is consumed."""
        tracer = self.tracer
        with process.sending():
            if tracer is None:
                for relation, row, _mid in env.items():
                    process.handle_message(relation, row)
                return
            for relation, row, mid in env.items():
                # The handler runs under the delivered context (child
                # spans of the sender's), never under whatever happened
                # to be ambient.
                ctx = tracer.on_deliver(mid, process.address, relation)
                with tracer.activate(ctx):
                    process.handle_message(relation, row)

    # -- failure injection ----------------------------------------------------

    def crash(self, address: Address) -> None:
        """Fail-stop the node: it stops receiving, sending and ticking.
        All volatile state is lost, including unflushed send buffers."""
        process = self.processes[address]
        if process.crashed:
            return
        process.crashed = True
        process.on_crash()
        process.discard_unsent()
        self.transport.unregister(address)
        if self.flight_recorder is not None:
            self.flight_recorder.on_crash(str(address))

    def restart(self, address: Address) -> None:
        """Bring a crashed node back with empty volatile state."""
        process = self.processes[address]
        if not process.crashed:
            return
        process.crashed = False
        reset = getattr(process, "reset_for_restart", None)
        if reset is not None:
            reset()
        self.transport.register(
            address, lambda env: self._deliver_envelope(process, env)
        )
        with process.sending():
            process.start()
        # A crash kills the node's telemetry and state-export timer
        # chains with the rest of its volatile state; re-arm them like
        # any other bootstrap.
        self._wire_telemetry(process)
        self._wire_state_export(process)
        on_restart = getattr(process, "on_restart", None)
        if on_restart is not None:
            on_restart()

    def crash_at(self, time_ms: int, address: Address) -> None:
        self.schedule_at(time_ms, lambda: self.crash(address))

    def restart_at(self, time_ms: int, address: Address) -> None:
        self.schedule_at(time_ms, lambda: self.restart(address))

    def partition(self, *groups: Iterable[Address]) -> None:
        self.transport.partition(*[list(g) for g in groups])

    def heal(self) -> None:
        self.transport.heal()

    def is_up(self, address: Address) -> bool:
        process = self.processes.get(address)
        return process is not None and not process.crashed

    # -- time -----------------------------------------------------------------

    @property
    def now(self) -> int:
        return self.transport.now

    def schedule(
        self, delay_ms: int, action: Callable[[], None]
    ) -> TimerHandle:
        return self.transport.call_later(delay_ms, action)

    def schedule_at(
        self, time_ms: int, action: Callable[[], None]
    ) -> TimerHandle:
        return self.transport.call_later(max(0, time_ms - self.now), action)

    # -- running (backend-specific) -------------------------------------------

    def run_for(self, duration_ms: int) -> None:
        raise NotImplementedError

    def run_until(
        self, condition: Callable[[], bool], max_time_ms: int
    ) -> bool:
        """Run until ``condition()`` holds; True when it was reached."""
        raise NotImplementedError

    def shutdown(self) -> None:
        """Gracefully drain and release the substrate (no-op for
        backends without background machinery)."""

    # -- observability --------------------------------------------------------

    @property
    def network(self) -> Transport:
        """Legacy alias from the pre-transport layering (stats, partition
        checks); prefer :attr:`transport` in new code."""
        return self.transport

    def metrics_snapshot(self) -> dict:
        return self.metrics.snapshot(now_ms=self.now)

    def dashboard(self) -> str:
        """Text snapshot of cluster-wide metrics (operator view)."""
        return self.metrics.render_dashboard(now_ms=self.now)

    def export_metrics_jsonl(self, path):
        return self.metrics.export_jsonl(path, now_ms=self.now)

    def export_traces_jsonl(self, path) -> None:
        self.tracer.export_jsonl(path)

    def why(self, node: Address, relation: str, row, fmt: str = "text"):
        """Cross-node derivation DAG of ``(relation, row)`` as recorded by
        ``node``'s ledger, stitched through every registered ledger and
        the tracer.  Requires the node to run with ``provenance=True``."""
        return self.provenance.why(node, relation, row, fmt=fmt)

    # -- latency accounting (docs/OBSERVABILITY.md) ----------------------------

    def latency_report(self, trace_id: str, fmt: str = "text"):
        """Critical-path latency attribution for one trace: where the
        request's wall time went (compute / batch / stall / network /
        timer), per node and per rule.  ``fmt``: ``text``, ``json`` or
        ``report`` (the :class:`~repro.latency.LatencyReport` itself)."""
        from ..latency import critical_path

        report = critical_path(self.tracer, trace_id)
        if report is None:
            return None if fmt == "report" else f"(no such trace {trace_id})"
        if fmt == "json":
            return report.to_json()
        if fmt == "report":
            return report
        return report.render_text()

    def enable_flight_recorder(
        self,
        capacity: int = 512,
        directory=None,
        dump_on: Iterable[str] = ("crash", "alarm"),
    ):
        """Arm a :class:`~repro.latency.FlightRecorder`: bounded per-node
        rings of recent envelopes, span events and alarms, auto-dumped as
        deterministic JSONL post-mortems on crash and/or alarm."""
        from ..latency import FlightRecorder

        recorder = FlightRecorder(
            capacity=capacity,
            directory=directory,
            dump_on=dump_on,
            clock=lambda: self.transport.now,
        )
        self.flight_recorder = recorder
        self.transport.recorder = recorder
        self.tracer.add_listener(recorder.on_trace_event)
        return recorder

    # -- telemetry plane (docs/TELEMETRY.md) -----------------------------------

    def enable_telemetry(
        self,
        monitor: Address = "monitor",
        interval_ms: Optional[int] = 1000,
        include_transport: bool = True,
        include_traces: bool = True,
        per_op_latency: bool = False,
        alert_packs: Optional[Iterable[str]] = None,
        extra_source: Optional[str] = None,
    ):
        """Turn the telemetry plane on: every node (current and future)
        ships its registry to ``monitor`` as ``telemetry`` tuples every
        ``interval_ms``; a :class:`~repro.telemetry.monitor.MonitorProcess`
        is created at that address unless one is already a member.

        ``include_transport`` also exports the transport-scope registry
        (backpressure stalls, envelope counters) — it has no owning node,
        so the cluster injects it at the monitor directly.
        ``include_traces`` folds PR 1 trace spans into an end-to-end
        ``request.latency_ms`` percentile payload the same way;
        ``per_op_latency`` additionally publishes one digest per
        operation type (keyed by the first token of each trace's name),
        feeding the per-op p99 SLO alert pack.
        ``interval_ms=None`` arms no timers: tests drive deterministic
        rounds via ``publish_telemetry(clock=...)`` themselves.
        """
        from ..telemetry.alerts import DEFAULT_ALERT_PACKS
        from ..telemetry.monitor import MonitorProcess

        packs = DEFAULT_ALERT_PACKS if alert_packs is None else tuple(alert_packs)
        if monitor not in self.processes:
            self.add(
                MonitorProcess(
                    monitor, alert_packs=packs, extra_source=extra_source
                )
            )
        self._telemetry = {
            "monitor": monitor,
            "interval_ms": interval_ms,
            "include_transport": include_transport,
            "include_traces": include_traces,
            "per_op_latency": per_op_latency,
        }
        for process in list(self.processes.values()):
            self._wire_telemetry(process)
        if interval_ms is not None and (include_transport or include_traces):
            self.schedule(interval_ms, self._cluster_telemetry_tick)
        return self.processes[monitor]

    def _wire_telemetry(self, process: "Process") -> None:
        cfg = self._telemetry
        if cfg is None or process.address == cfg["monitor"]:
            return
        process.enable_telemetry(cfg["monitor"], cfg["interval_ms"])

    def _cluster_telemetry_tick(self) -> None:
        cfg = self._telemetry
        if cfg is None or cfg["interval_ms"] is None:
            return
        self.publish_cluster_telemetry()
        self.schedule(cfg["interval_ms"], self._cluster_telemetry_tick)

    def publish_cluster_telemetry(self, clock: Optional[int] = None) -> int:
        """Export the cluster-owned telemetry sources — the transport
        registry and the trace-latency fold — by injecting at the
        monitor (neither has an owning process to send from).  Returns
        the tuple count."""
        cfg = self._telemetry
        if cfg is None:
            return 0
        monitor = self.processes.get(cfg["monitor"])
        if monitor is None or monitor.crashed:
            return 0
        from ..telemetry.export import telemetry_rows, trace_latency_rows

        clock = self.now if clock is None else clock
        rows: list[tuple] = []
        if cfg["include_transport"]:
            registry = self.metrics.registries.get("transport")
            if registry is not None:
                rows.extend(
                    telemetry_rows(registry, node="transport", clock=clock)
                )
        if cfg["include_traces"]:
            rows.extend(
                trace_latency_rows(
                    self.tracer,
                    clock=clock,
                    per_op=cfg.get("per_op_latency", False),
                )
            )
        for row in rows:
            monitor.inject("telemetry", row)
        return len(rows)

    # -- cluster-scoped invariants (docs/OBSERVABILITY.md) ---------------------

    def enable_invariants(
        self,
        packs: Optional[Iterable[str]] = None,
        monitor: Address = "monitor",
        interval_ms: Optional[int] = 1000,
    ):
        """Turn cluster-scoped invariant checking on: every node
        (current and future) ships its :meth:`~repro.sim.node.Process.
        state_export_rows` snapshot to ``monitor`` every ``interval_ms``,
        where the :mod:`~repro.monitoring.global_invariants` packs join
        the exports across nodes and derive ``invariant_violation``
        events (recorded on the monitor's ``violation_log``, explained
        by ``why_violation()``, dumped by a flight recorder armed with
        ``dump_on=("violation", ...)``).

        The monitor's rule set is fixed at construction, so call this
        *before* ``enable_telemetry`` (this creates the monitor process
        with both the invariant packs and the default alert packs; a
        later ``enable_telemetry`` on the same address reuses it).  If
        a monitor already exists, its program must already declare
        ``invariant_violation`` — e.g. built with
        ``extra_source=global_invariants_source()`` — else this raises.

        ``interval_ms=None`` arms no timers: deterministic tests drive
        explicit rounds via ``publish_state(clock=...)`` themselves.
        """
        from ..monitoring.global_invariants import global_invariants_source
        from ..telemetry.monitor import MonitorProcess

        if monitor not in self.processes:
            self.add(
                MonitorProcess(
                    monitor, extra_source=global_invariants_source(packs)
                )
            )
        else:
            runtime = getattr(self.processes[monitor], "runtime", None)
            declared = runtime is not None and runtime.catalog.is_declared(
                "invariant_violation"
            )
            if not declared:
                raise RuntimeError(
                    f"process {monitor!r} exists but its program has no "
                    "invariant_violation relation; call enable_invariants "
                    "before enable_telemetry, or build the monitor with "
                    "extra_source=global_invariants_source()"
                )
        self._invariants = {"monitor": monitor, "interval_ms": interval_ms}
        for process in list(self.processes.values()):
            self._wire_state_export(process)
        return self.processes[monitor]

    def _wire_state_export(self, process: "Process") -> None:
        cfg = self._invariants
        if cfg is None or process.address == cfg["monitor"]:
            return
        process.enable_state_export(cfg["monitor"], cfg["interval_ms"])

    def publish_cluster_state(self, clock: Optional[int] = None) -> int:
        """Drive one explicit state-export round on every live node
        (deterministic tests use this with ``interval_ms=None``).
        Returns the total tuple count shipped."""
        if self._invariants is None:
            return 0
        clock = self.now if clock is None else clock
        total = 0
        for process in list(self.processes.values()):
            total += process.publish_state(clock=clock)
        return total

    @property
    def monitor(self):
        """The telemetry/invariant monitor process, if either plane is
        enabled."""
        cfg = self._telemetry or self._invariants
        return self.processes.get(cfg["monitor"]) if cfg else None

    def telemetry_dashboard(self) -> str:
        """The monitor node's live view: alarms, cluster rollups,
        per-node reporting status (deterministic text)."""
        monitor = self.monitor
        if monitor is None:
            return "(telemetry disabled — call enable_telemetry first)"
        from ..telemetry.export import render_telemetry_dashboard

        return render_telemetry_dashboard(monitor, now_ms=self.now)

    def export_telemetry_jsonl(self, path):
        monitor = self.monitor
        if monitor is None:
            raise RuntimeError("telemetry disabled — call enable_telemetry")
        from ..telemetry.export import write_telemetry_jsonl

        return write_telemetry_jsonl(monitor, path, now_ms=self.now)


__all__ = ["BaseCluster"]
