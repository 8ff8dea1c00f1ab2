"""Deterministic simulated transport (the discrete-event backend).

The simulator's network with the transport contract factored out:
envelopes instead of one-tuple messages, but the same model of what
matters to the paper's experiments:

* configurable per-envelope latency (base + seeded jitter + size/bandwidth),
* optional envelope loss,
* network partitions (checked at send *and* delivery time, so an
  envelope in flight when a link breaks is lost, and one in flight when
  a partition heals arrives),
* per-link FIFO ordering (TCP-like), preserved even under jitter.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Optional

from .base import Address, TimerHandle, Transport
from .envelope import Envelope

if TYPE_CHECKING:
    from ..sim.simulator import Simulator


@dataclass
class LatencyModel:
    """Per-envelope latency = base + U(0, jitter) + size/bandwidth, in ms.

    ``kb_per_ms`` models link bandwidth for bulk transfers (chunk data);
    zero disables the size-dependent term (control messages dominate).
    Batching amortizes the base+jitter terms across every delta in the
    envelope.
    """

    base_ms: int = 1
    jitter_ms: int = 2
    kb_per_ms: float = 0.0

    def sample(self, rng: random.Random, size_bytes: int = 0) -> int:
        latency = self.base_ms
        if self.jitter_ms > 0:
            latency += rng.randrange(self.jitter_ms + 1)
        if self.kb_per_ms > 0 and size_bytes > 0:
            latency += int(size_bytes / 1024 / self.kb_per_ms)
        return latency


class SimTransport(Transport):
    """Routes envelopes between registered callbacks with simulated delay."""

    backend = "sim"

    def __init__(
        self,
        sim: "Simulator",
        latency: Optional[LatencyModel] = None,
        loss_rate: float = 0.0,
        seed: int = 0,
    ):
        super().__init__()
        self.sim = sim
        self.latency = latency or LatencyModel()
        self.loss_rate = loss_rate
        self.rng = random.Random(seed)
        self._last_delivery: dict[tuple[Address, Address], int] = {}

    # -- clock & timers -------------------------------------------------------

    @property
    def now(self) -> int:
        return self.sim.now

    def call_later(
        self, delay_ms: int, action: Callable[[], None]
    ) -> TimerHandle:
        return self.sim.schedule(delay_ms, action)

    # -- sending --------------------------------------------------------------

    def send(self, env: Envelope) -> None:
        """Queue an envelope for delivery; may be dropped by loss/partition."""
        self._account_sent(env)
        if not self.can_reach(env.src, env.dst):
            self._account_dropped(env, "partition")
            return
        if self.loss_rate > 0 and self.rng.random() < self.loss_rate:
            self._account_dropped(env, "loss")
            return
        if self.same_machine(env.src, env.dst):
            # Local transfer: loopback/disk, no wire-bandwidth term.
            arrival = self.sim.now + self.latency.base_ms
        else:
            arrival = self.sim.now + self.latency.sample(
                self.rng, size_bytes=env.size_bytes
            )
            self.stats.remote_bytes += env.size_bytes
        # Per-link FIFO: never deliver before an earlier envelope on the link.
        link = (env.src, env.dst)
        arrival = max(arrival, self._last_delivery.get(link, 0))
        self._last_delivery[link] = arrival
        self.sim.schedule_at(arrival, lambda: self._deliver(env))

    def _deliver(self, env: Envelope) -> None:
        # Partition / crash checks happen again at delivery time: an
        # envelope in flight when the link breaks (or the destination
        # dies) is lost; one in flight when a partition heals arrives.
        if not self.can_reach(env.src, env.dst):
            self._account_dropped(env, "partition")
            return
        deliver = self._deliver_fns.get(env.dst)
        if deliver is None:
            self._account_dropped(env, "dead")
            return
        self._account_delivered(env)
        deliver(env)
