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
        # The monitor plane (docs/TELEMETRY.md): set by enable_monitor;
        # holds the monitor address and the cluster-owned export flags.
        self._monitor: Optional[dict] = None
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

    # -- the monitor plane (docs/TELEMETRY.md) ---------------------------------

    def enable_monitor(
        self,
        monitor: Address = "monitor",
        interval_ms: Optional[int] = 1000,
        include_transport: bool = True,
        include_traces: bool = True,
        per_op_latency: bool = False,
        packs: Optional[Iterable[str]] = None,
    ):
        """Arm the monitor plane: every ``interval_ms`` the cluster runs
        one export round (:meth:`publish_round`), in which every live
        node, present or added later, ships its registry and state
        export to ``monitor``.  A
        :class:`~repro.telemetry.monitor.MonitorProcess` running
        ``packs`` (default: every alert and invariant pack) is created
        at that address unless one is already a member.

        ``include_transport`` also exports the transport-scope registry
        (backpressure stalls, envelope counters) and ``include_traces``
        folds the tracer's spans into a ``request.latency_ms`` digest;
        neither has an owning node, so the cluster injects them at the
        monitor.  ``per_op_latency`` additionally publishes one digest
        per operation type (the first token of each trace's name),
        feeding the per-op p99 SLO alert pack.  ``interval_ms=None``
        arms no timer: tests drive rounds with ``publish_round(clock)``.
        """
        if interval_ms is not None and interval_ms <= 0:
            raise ValueError(
                f"interval_ms must be positive or None, not {interval_ms}"
            )
        from ..telemetry.monitor import MonitorProcess

        if monitor not in self.processes:
            self.add(MonitorProcess(monitor, packs=packs))
        cfg = self._monitor = {
            "monitor": monitor,
            "include_transport": include_transport,
            "include_traces": include_traces,
            "per_op_latency": per_op_latency,
        }
        if interval_ms is not None:

            def tick() -> None:
                if self._monitor is cfg:  # not superseded by a re-arm
                    self.publish_round()
                    self.schedule(interval_ms, tick)

            self.schedule(interval_ms, tick)
        return self.processes[monitor]

    def publish_round(self, clock: Optional[int] = None) -> int:
        """Run one export round: each live node but the monitor ships
        one envelope (:meth:`~repro.sim.node.Process.publish`), then the
        cluster injects the transport registry and the trace-latency
        fold at the monitor.  Returns the tuple count."""
        monitor = self.monitor
        if monitor is None:
            return 0
        clock = self.now if clock is None else clock
        total = sum(p.publish(clock) for p in list(self.processes.values()))
        if monitor.crashed:
            return total
        from ..telemetry.export import telemetry_rows, trace_latency_rows

        cfg = self._monitor
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
                    self.tracer, clock=clock, per_op=cfg["per_op_latency"]
                )
            )
        for row in rows:
            monitor.inject("telemetry", row)
        return total + len(rows)

    @property
    def monitor(self):
        """The monitor process, once :meth:`enable_monitor` armed it."""
        cfg = self._monitor
        return self.processes.get(cfg["monitor"]) if cfg else None

    def telemetry_dashboard(self) -> str:
        """The monitor node's live view: alarms, cluster rollups,
        per-node reporting status (deterministic text)."""
        monitor = self.monitor
        if monitor is None:
            return "(telemetry disabled — call enable_monitor first)"
        from ..telemetry.export import render_telemetry_dashboard

        return render_telemetry_dashboard(monitor, now_ms=self.now)

    def export_telemetry_jsonl(self, path):
        monitor = self.monitor
        if monitor is None:
            raise RuntimeError("telemetry disabled — call enable_monitor")
        from ..telemetry.export import write_telemetry_jsonl

        return write_telemetry_jsonl(monitor, path, now_ms=self.now)


__all__ = ["BaseCluster"]
