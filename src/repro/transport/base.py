"""The transport/execution contract between nodes and their substrate.

The paper's central claim is that the *same* Overlog programs run
unchanged while the substrate underneath them evolves (JOL on EC2 in the
original; a discrete-event simulator or a real asyncio event loop here).
This module pins down the contract that makes that true:

* :class:`Transport` — what a substrate must provide: envelope routing
  (``send``), membership (``register``/``unregister`` with a
  deliver-callback), a clock (``now``), timers (``call_later``) and the
  failure-injection surface (partitions, colocation).
* :class:`TimerHandle` — the cancellable handle ``call_later`` returns.
* :class:`TransportStats` — uniform accounting: *both* envelopes and
  deltas and bytes, so batching wins are visible honestly.

Messages travel as :class:`~repro.transport.envelope.Envelope` objects:
batches of ``(relation, row)`` deltas flushed once per fixpoint, not one
message per tuple.  Two implementations ship with the repo:
:class:`~repro.transport.sim_transport.SimTransport` (deterministic
virtual time) and
:class:`~repro.transport.asyncio_backend.LocalAsyncTransport` (real
concurrency over asyncio queue or TCP endpoints).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Optional, Protocol

if TYPE_CHECKING:
    from ..metrics.registry import MetricsRegistry
    from ..metrics.trace import Tracer
    from .envelope import Envelope

Address = str
Delta = tuple[str, tuple]  # (relation, row)

# What a registered node presents to its transport: a callback invoked
# with each arriving envelope (the cluster installs one per process).
DeliverFn = Callable[["Envelope"], None]


class TimerHandle(Protocol):
    """Cancellable timer returned by :meth:`Transport.call_later`."""

    def cancel(self) -> None: ...

    @property
    def time(self) -> int: ...  # absolute fire time, transport-clock ms

    @property
    def cancelled(self) -> bool: ...


@dataclass
class TransportStats:
    """Uniform accounting across backends.

    ``sent``/``delivered`` count *deltas* (tuples) — the unit the
    protocol layers reason about and what the pre-envelope network
    counted, so historical benchmark numbers stay comparable.  The
    ``envelopes_*`` twins count wire messages; their ratio is the
    batching factor.  Drop counters count envelopes; ``deltas_dropped``
    totals the tuples inside them.  ``frames_rejected`` counts TCP frames
    a reader refused (the ``transport.rejected.<reason>`` counters split
    it by reason); a refused frame never became an envelope.
    """

    sent: int = 0  # deltas handed to the transport
    delivered: int = 0  # deltas handed to a destination
    envelopes_sent: int = 0
    envelopes_delivered: int = 0
    bytes_sent: int = 0
    bytes_delivered: int = 0
    remote_bytes: int = 0  # bytes that crossed machine boundaries
    dropped_loss: int = 0
    dropped_partition: int = 0
    dropped_dead: int = 0
    dropped_unencodable: int = 0  # outside the TCP codec's value domain
    deltas_dropped: int = 0
    frames_rejected: int = 0
    backpressure_stalls: int = 0


# Back-compat alias: the simulator's pre-envelope stats object.
NetworkStats = TransportStats


class Transport(ABC):
    """Abstract substrate: routes envelopes, owns the clock and timers.

    Shared here: membership of deliver-callbacks, partition/colocation
    bookkeeping, stats, and the optional tracer/metrics hooks.  Concrete
    backends implement :meth:`send` (routing + failure policy) and the
    clock/timer pair.
    """

    def __init__(self) -> None:
        self.stats = TransportStats()
        # Set by the owning cluster after construction; transports only
        # use the tracer to record drops of traced envelopes, and the
        # registry to surface transport counters in cluster dashboards.
        self.tracer: Optional["Tracer"] = None
        self.metrics: Optional["MetricsRegistry"] = None
        # Optional flight recorder (repro.latency.recorder): a bounded
        # per-node ring of recent envelope events, armed by the cluster's
        # enable_flight_recorder().
        self.recorder: Optional[Any] = None
        # Optional per-delta send log for differential testing.
        self.record_sends = False
        self.sent_log: list[tuple[Address, Address, str, tuple]] = []
        self._deliver_fns: dict[Address, DeliverFn] = {}
        self._partition_of: dict[Address, int] = {}
        self._machine_of: dict[Address, int] = {}

    # -- membership -----------------------------------------------------------

    def register(self, address: Address, deliver: DeliverFn) -> None:
        self._deliver_fns[address] = deliver

    def unregister(self, address: Address) -> None:
        self._deliver_fns.pop(address, None)

    def is_registered(self, address: Address) -> bool:
        return address in self._deliver_fns

    # -- partitions -----------------------------------------------------------

    def partition(self, *groups: list[Address]) -> None:
        """Split the network: addresses in different groups can no longer
        communicate.  Unlisted addresses stay in group 0."""
        self._partition_of = {}
        for idx, group in enumerate(groups, start=1):
            for addr in group:
                self._partition_of[addr] = idx

    def heal(self) -> None:
        self._partition_of = {}

    def can_reach(self, src: Address, dst: Address) -> bool:
        return self._partition_of.get(src, 0) == self._partition_of.get(dst, 0)

    # -- colocation -----------------------------------------------------------

    def colocate(self, *groups: list[Address]) -> None:
        """Declare address groups that share a physical machine: transfers
        between them skip the bandwidth term (local disk, not the wire).
        May be called repeatedly; each group gets a fresh machine id."""
        next_id = max(self._machine_of.values(), default=0)
        for group in groups:
            next_id += 1
            for addr in group:
                self._machine_of[addr] = next_id

    def same_machine(self, a: Address, b: Address) -> bool:
        ma = self._machine_of.get(a)
        return ma is not None and ma == self._machine_of.get(b)

    # -- clock & timers -------------------------------------------------------

    @property
    @abstractmethod
    def now(self) -> int:
        """Current transport time in integer milliseconds."""

    @abstractmethod
    def call_later(
        self, delay_ms: int, action: Callable[[], None]
    ) -> TimerHandle:
        """Run ``action`` after ``delay_ms`` transport-clock milliseconds."""

    # -- sending --------------------------------------------------------------

    @abstractmethod
    def send(self, env: "Envelope") -> None:
        """Queue an envelope for delivery to ``env.dst``'s callback.
        Must preserve per-link (src, dst) FIFO order and never deliver a
        delta more than once; delivery may fail (loss/partition/dead
        destination), which is accounted in :attr:`stats`."""

    def send_row(
        self, src: Address, dst: Address, relation: str, row: tuple
    ) -> None:
        """Convenience: wrap one ``(relation, row)`` delta in an envelope
        (tests and ad-hoc drivers; the runtime path batches)."""
        from .envelope import Envelope

        self.send(Envelope.single(src, dst, relation, tuple(row)))

    # -- shared accounting helpers -------------------------------------------

    def _account_sent(self, env: "Envelope") -> None:
        stats = self.stats
        stats.envelopes_sent += 1
        stats.sent += len(env.deltas)
        stats.bytes_sent += env.size_bytes
        if self.metrics is not None:
            self.metrics.counter("transport.envelopes_sent").inc()
            self.metrics.counter("transport.deltas_sent").inc(len(env.deltas))
            self.metrics.counter("transport.bytes_sent").inc(env.size_bytes)
        if self.record_sends:
            self.sent_log.extend(
                (env.src, env.dst, relation, row)
                for relation, row in env.deltas
            )
        # Envelope lifecycle: the delta left its outbox and hit the wire.
        # send->xmit on the same trace span is outbox batching wait.
        tracer = self.tracer
        if tracer is not None:
            for mid in env.mids:
                tracer.on_xmit(mid)
        if self.recorder is not None:
            self.recorder.record_envelope(env.src, "env_out", env)

    def _note_stall(self, env: "Envelope", phase: str) -> None:
        """Record a backpressure-stall boundary on the envelope's traced
        deltas (``phase``: ``begin``/``end``) and in the flight ring."""
        tracer = self.tracer
        if tracer is not None:
            for mid in env.mids:
                tracer.on_stall(mid, phase)
        if self.recorder is not None:
            self.recorder.record(
                env.src, f"stall_{phase}", dst=env.dst, seq=env.seq
            )

    def _account_delivered(self, env: "Envelope") -> None:
        stats = self.stats
        stats.envelopes_delivered += 1
        stats.delivered += len(env.deltas)
        stats.bytes_delivered += env.size_bytes
        if self.metrics is not None:
            self.metrics.counter("transport.envelopes_delivered").inc()
        if self.recorder is not None:
            self.recorder.record_envelope(env.dst, "env_in", env)

    def _account_dropped(self, env: "Envelope", reason: str) -> None:
        stats = self.stats
        if reason == "loss":
            stats.dropped_loss += 1
        elif reason == "partition":
            stats.dropped_partition += 1
        elif reason == "unencodable":
            stats.dropped_unencodable += 1
        else:
            stats.dropped_dead += 1
        stats.deltas_dropped += len(env.deltas)
        if self.metrics is not None:
            self.metrics.counter(f"transport.dropped.{reason}").inc()
        tracer = self.tracer
        if tracer is not None:
            for mid in env.mids:
                tracer.on_drop(mid, reason)
        if self.recorder is not None:
            self.recorder.record_envelope(env.src, "env_drop", env, reason=reason)

    def _account_rejected(self, reason: str) -> None:
        self.stats.frames_rejected += 1
        if self.metrics is not None:
            self.metrics.counter(f"transport.rejected.{reason}").inc()

    def _account_stall(self, src: Address, dst: Address) -> None:
        self.stats.backpressure_stalls += 1
        if self.metrics is not None:
            self.metrics.counter("transport.backpressure_stalls").inc()
            self.metrics.counter(f"transport.stalled_link.{src}->{dst}").inc()
