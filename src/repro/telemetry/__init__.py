"""The meta-circular telemetry plane (docs/TELEMETRY.md).

Metrics-as-tuples: every node periodically snapshots its
:class:`~repro.metrics.registry.MetricsRegistry` into
``telemetry(node, metric, kind, payload, clock)`` tuples and ships them
over the ordinary :class:`~repro.transport.envelope.Envelope` transport
to a :class:`MonitorProcess`, whose aggregation and health logic is —
in the paper's spirit — written in Overlog itself.  Distribution and
cardinality metrics travel as mergeable sketch payloads
(:mod:`repro.sketches`), so cluster-wide rollups cost O(nodes), not
O(observations).  The same export round carries each node's state
export for the cluster-invariant packs
(:mod:`repro.monitoring.global_invariants`).

Wiring lives on the cluster surface::

    monitor = cluster.enable_monitor(interval_ms=1000)
    ...
    print(cluster.telemetry_dashboard())
    cluster.export_telemetry_jsonl("telemetry.jsonl")
    cluster.why("monitor", "alarm", alarm_row)   # provenance-traceable
"""

from .alerts import (
    BOOMFS_ALERTS,
    DEFAULT_ALERT_PACKS,
    PAXOS_ALERTS,
    TRANSPORT_ALERTS,
)
from .export import (
    render_telemetry_dashboard,
    telemetry_jsonl,
    telemetry_rows,
    trace_latency_digest,
    trace_latency_rows,
    write_telemetry_jsonl,
)
from .monitor import (
    ALARM,
    ALARM_RELATION,
    CLEAR,
    MONITOR_PROGRAM,
    MonitorProcess,
    TELEMETRY_RELATION,
    VIOLATION,
    monitor_program,
)

__all__ = [
    "ALARM",
    "ALARM_RELATION",
    "CLEAR",
    "BOOMFS_ALERTS",
    "DEFAULT_ALERT_PACKS",
    "MONITOR_PROGRAM",
    "MonitorProcess",
    "PAXOS_ALERTS",
    "TELEMETRY_RELATION",
    "TRANSPORT_ALERTS",
    "VIOLATION",
    "monitor_program",
    "render_telemetry_dashboard",
    "telemetry_jsonl",
    "telemetry_rows",
    "trace_latency_digest",
    "trace_latency_rows",
    "write_telemetry_jsonl",
]
