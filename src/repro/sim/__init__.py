"""Discrete-event simulation substrate.

Replaces the paper's EC2 testbed: a deterministic virtual-time event loop
(:class:`Simulator`), node abstractions (:class:`Process`,
:class:`OverlogProcess`) and the top-level :class:`Cluster`.  The
network itself lives in :mod:`repro.transport` — the simulator backend
is :class:`~repro.transport.sim_transport.SimTransport`, re-exported
here with the transport contract (:class:`Transport`,
:class:`Envelope`, :class:`TransportStats`) for convenience.

All time is integer milliseconds; all randomness flows from seeds, so any
distributed execution in this repository can be replayed exactly.
"""

from ..transport import (
    Address,
    Envelope,
    LatencyModel,
    NetworkStats,
    Outbox,
    SimTransport,
    Transport,
    TransportStats,
)
from .cluster import Cluster
from .failure import (
    FAULT_CLASSES,
    CrashEvent,
    FailureSchedule,
    PartitionEvent,
    SlowdownEvent,
    generate_campaign,
    random_crash_schedule,
)
from .node import OverlogProcess, Process
from .simulator import EventHandle, Simulator

__all__ = [
    "Address",
    "Cluster",
    "CrashEvent",
    "Envelope",
    "EventHandle",
    "FAULT_CLASSES",
    "FailureSchedule",
    "LatencyModel",
    "NetworkStats",
    "Outbox",
    "OverlogProcess",
    "PartitionEvent",
    "Process",
    "SimTransport",
    "Simulator",
    "SlowdownEvent",
    "Transport",
    "TransportStats",
    "generate_campaign",
    "random_crash_schedule",
]
