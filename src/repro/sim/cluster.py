"""Simulated cluster: BaseCluster over the discrete-event backend.

A :class:`Cluster` is what an experiment script constructs: the shared
cluster surface (process registry, crash/restart/partition controls,
observability) from :class:`~repro.transport.base_cluster.BaseCluster`,
bound to a :class:`~repro.sim.simulator.Simulator` clock and a
:class:`~repro.transport.sim_transport.SimTransport`.  Deterministic for
a given seed; the drop-in alternative is
:class:`repro.transport.asyncio_backend.AsyncCluster`.
"""

from __future__ import annotations

from typing import Callable, Optional

from ..transport.base_cluster import BaseCluster
from ..transport.sim_transport import LatencyModel, SimTransport
from .simulator import Simulator


class Cluster(BaseCluster):
    """A simulated cluster of processes (virtual time, seeded jitter)."""

    backend = "sim"

    def __init__(
        self,
        seed: int = 0,
        latency: Optional[LatencyModel] = None,
        loss_rate: float = 0.0,
    ):
        self.sim = Simulator()
        super().__init__(
            SimTransport(
                self.sim, latency=latency, loss_rate=loss_rate, seed=seed
            )
        )
        self.seed = seed

    # -- running ----------------------------------------------------------------

    def run_for(self, duration_ms: int) -> None:
        self.sim.run_until(self.sim.now + duration_ms)

    def run_until(self, condition: Callable[[], bool], max_time_ms: int) -> bool:
        """Run until ``condition()`` holds; True when it was reached."""
        return self.sim.run_until_condition(
            condition, max_time_ms=max_time_ms
        )
