"""Monitoring-as-metaprogramming (the paper's monitoring revision).

Programs are relations over rules, so instrumentation (rule tracing,
relation tracing) and consistency checking (invariant rules) are program
rewrites, not code changes.  The runtime-level half of the story — the
telemetry plane that ships per-node metrics to a monitor node whose
health logic is itself Overlog — lives in :mod:`repro.telemetry`; its
alert rule packs are re-exported here so the whole declarative
monitoring surface imports from one place.
"""

from ..telemetry.alerts import (
    BOOMFS_ALERTS,
    DEFAULT_ALERT_PACKS,
    PAXOS_ALERTS,
    TRANSPORT_ALERTS,
)
from ..telemetry.monitor import ALARM_RELATION, MonitorProcess
from .global_invariants import (
    DEFAULT_PACKS,
    GLOBAL_BOOMFS_INVARIANTS,
    GLOBAL_INVARIANT_PACKS,
    GLOBAL_PAXOS_INVARIANTS,
    GLOBAL_SHARD_INVARIANTS,
    boomfs_state_rows,
    datanode_state_rows,
    paxos_state_rows,
)
from .invariants import (
    BOOMFS_INVARIANTS,
    PAXOS_INVARIANTS,
    VIOLATION_RELATION,
    InvariantMonitor,
    boomfs_invariants_program,
    paxos_invariants_program,
    with_invariants,
)
from .rewrite import (
    TRACE_RELATION,
    TraceCollector,
    add_relation_tracing,
    add_rule_tracing,
)

__all__ = [
    "ALARM_RELATION",
    "BOOMFS_ALERTS",
    "BOOMFS_INVARIANTS",
    "DEFAULT_ALERT_PACKS",
    "DEFAULT_PACKS",
    "GLOBAL_BOOMFS_INVARIANTS",
    "GLOBAL_INVARIANT_PACKS",
    "GLOBAL_PAXOS_INVARIANTS",
    "GLOBAL_SHARD_INVARIANTS",
    "InvariantMonitor",
    "MonitorProcess",
    "PAXOS_ALERTS",
    "PAXOS_INVARIANTS",
    "TRACE_RELATION",
    "TRANSPORT_ALERTS",
    "TraceCollector",
    "VIOLATION_RELATION",
    "add_relation_tracing",
    "add_rule_tracing",
    "boomfs_invariants_program",
    "boomfs_state_rows",
    "datanode_state_rows",
    "paxos_invariants_program",
    "paxos_state_rows",
    "with_invariants",
]
