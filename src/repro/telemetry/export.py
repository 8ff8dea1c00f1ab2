"""Turning registries into tuples: the telemetry wire format.

The whole telemetry plane rides one relation::

    telemetry(Node, Metric, Kind, Payload, Clock)

``Kind`` names the metric primitive (``counter``, ``gauge``, ``info``,
``histogram``, ``percentile``, ``distinct``) and fixes how the monitor's
Overlog rules fold ``Payload``: counters and gauges sum, sketch payloads
merge (``percentile<>`` / ``count_distinct_approx<>``).  Every payload
lies in the wire codec's value domain (:mod:`repro.transport.codec`:
``None``, ``bool``, ``int``, ``float``, ``str``, ``bytes`` and nested
``tuple``, of exact type), so a telemetry tuple survives TCP endpoints
and stores in Overlog tables unchanged.

:func:`telemetry_rows` is the only serializer: each node's export round
(:meth:`repro.sim.node.Process.publish`), the cluster-level
transport-scope export and the tests all call it, so there is exactly
one place where a registry becomes tuples.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Optional

from ..metrics.registry import MetricsRegistry
from ..metrics.trace import Tracer
from ..sketches import TDigest

#: Metric kinds whose payloads the monitor can roll up numerically.
NUMERIC_KINDS = ("counter", "gauge")
#: Metric kinds whose payloads are mergeable sketch tuples.
SKETCH_KINDS = ("histogram", "percentile", "distinct")


def _gauge_payload(value) -> tuple[str, object]:
    """Classify a gauge value for the wire: numbers roll up as
    ``gauge``; anything else ships as an un-aggregatable ``info``
    string.  Payloads are coerced to the exact ``int``/``float``/``str``
    the codec carries (a bool sums as 0/1; an ``IntEnum`` or a numpy
    float would otherwise be refused by the encoder)."""
    if isinstance(value, int):
        return "gauge", int(value)
    if isinstance(value, float):
        return "gauge", float(value)
    if isinstance(value, str):
        return "info", str(value)
    return "info", repr(value)


def telemetry_rows(
    registry: MetricsRegistry,
    node: Optional[str] = None,
    clock: int = 0,
) -> list[tuple]:
    """Snapshot one registry into ``telemetry`` tuples.

    Taking the registry's :meth:`snapshot` first is deliberate: lazy
    collectors (relation-cardinality gauges, BOOM-FS's under-replication
    gauge) only refresh there, so exports see them current.  Empty
    histograms/percentiles are skipped — an empty digest has no payload
    and no information.
    """
    node = node if node is not None else registry.scope
    snap = registry.snapshot()
    rows: list[tuple] = []
    for name, value in sorted(snap["counters"].items()):
        rows.append((node, name, "counter", value, clock))
    for name, value in sorted(snap["gauges"].items()):
        kind, payload = _gauge_payload(value)
        rows.append((node, name, kind, payload, clock))
    for name, hist in sorted(registry.histograms.items()):
        if hist.count:
            rows.append((node, name, "histogram", hist.payload(), clock))
    for name, pct in sorted(registry.percentiles.items()):
        if pct.count:
            rows.append((node, name, "percentile", pct.payload(), clock))
    for name, dst in sorted(registry.distincts.items()):
        rows.append((node, name, "distinct", dst.payload(), clock))
    return rows


# -- trace-span folding ---------------------------------------------------------


def _trace_spans(tracer: Tracer) -> tuple[dict, dict, dict]:
    """(begin_ms, end_ms, op name) per trace id from the flat event log.
    The op name is the first token of the trace's ``begin`` name — the
    convention the load driver and BOOM-FS clients follow (``"mkdir
    /d1"`` -> ``mkdir``)."""
    begins: dict[str, int] = {}
    ends: dict[str, int] = {}
    ops: dict[str, str] = {}
    for event in tracer.events:
        trace_id = event.get("trace")
        if trace_id is None:
            continue
        ms = event.get("ms")
        if ms is None:
            continue
        if event["kind"] == "begin":
            begins[trace_id] = ms
            name = str(event.get("name", ""))
            ops[trace_id] = name.split()[0] if name.split() else "?"
        prev = ends.get(trace_id)
        if prev is None or ms > prev:
            ends[trace_id] = ms
    return begins, ends, ops


def trace_latency_digest(tracer: Tracer) -> TDigest:
    """Fold end-to-end request latency out of PR 1 trace spans.

    Each trace's latency is the span between its ``begin`` event and the
    last event recorded anywhere in the trace (all timestamps are
    transport-clock ms).  The digest merges into telemetry rollups like
    any other percentile payload, which is how the monitor answers
    p50/p99/p999 over requests without keeping per-request rows.
    """
    begins, ends, _ops = _trace_spans(tracer)
    digest = TDigest()
    for trace_id in sorted(begins):
        digest.add(ends[trace_id] - begins[trace_id])
    return digest


def trace_latency_rows(
    tracer: Tracer,
    node: str = "traces",
    metric: str = "request.latency_ms",
    clock: int = 0,
    per_op: bool = False,
) -> list[tuple]:
    """The trace-latency digest as telemetry tuples (empty when no
    trace has been recorded).

    With ``per_op=True``, one extra digest per operation type is
    published as ``{metric}.{op}`` — the rows the per-op p99 SLO alert
    pack (``LATENCY_ALERTS``) watches.
    """
    begins, ends, ops = _trace_spans(tracer)
    if not begins:
        return []
    digest = TDigest()
    per_op_digests: dict[str, TDigest] = {}
    for trace_id in sorted(begins):
        latency = ends[trace_id] - begins[trace_id]
        digest.add(latency)
        if per_op:
            per_op_digests.setdefault(ops[trace_id], TDigest()).add(latency)
    rows = [(node, metric, "percentile", digest.to_payload(), clock)]
    for op in sorted(per_op_digests):
        rows.append(
            (
                node,
                f"{metric}.{op}",
                "percentile",
                per_op_digests[op].to_payload(),
                clock,
            )
        )
    return rows


# -- monitor-side export ----------------------------------------------------------


def telemetry_jsonl(monitor, now_ms: Optional[int] = None) -> str:
    """The monitor node's rollups, alarms and raw samples as key-sorted
    JSON lines (same conventions as :mod:`repro.metrics.export`:
    deterministic bytes for a deterministic run)."""
    records: list[dict] = []
    for metric, value in monitor.rollup_counters().items():
        records.append(
            {"record": "rollup_counter", "metric": metric, "value": value}
        )
    for metric, value in monitor.rollup_gauges().items():
        records.append(
            {"record": "rollup_gauge", "metric": metric, "value": value}
        )
    for metric, (count, p50, p99, p999) in monitor.rollup_percentiles().items():
        records.append(
            {
                "record": "rollup_percentile",
                "metric": metric,
                "count": count,
                "p50": p50,
                "p99": p99,
                "p999": p999,
            }
        )
    for metric, estimate in monitor.rollup_distincts().items():
        records.append(
            {"record": "rollup_distinct", "metric": metric, "estimate": estimate}
        )
    for name, subject, detail in monitor.alarms():
        records.append(
            {
                "record": "alarm",
                "name": name,
                "subject": subject,
                "detail": detail,
            }
        )
    for node, metric, kind, payload, clock in monitor.samples():
        records.append(
            {
                "record": "sample",
                "node": node,
                "metric": metric,
                "kind": kind,
                "payload": payload if kind in NUMERIC_KINDS else list(payload)
                if isinstance(payload, tuple)
                else payload,
                "clock": clock,
            }
        )
    for r in records:
        r["now_ms"] = now_ms
    return "".join(
        json.dumps(r, sort_keys=True, separators=(",", ":")) + "\n"
        for r in records
    )


def write_telemetry_jsonl(monitor, path, now_ms: Optional[int] = None) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(telemetry_jsonl(monitor, now_ms))
    return path


def render_telemetry_dashboard(monitor, now_ms: Optional[int] = None) -> str:
    """The operator's live view of the monitor node, deterministic for
    a deterministic run (sorted keys throughout)."""
    lines = [f"== telemetry @ {now_ms} ms (monitor {monitor.address}) =="]
    alarms = monitor.alarms()
    if alarms:
        lines.append("ALARMS:")
        for name, subject, detail in alarms:
            lines.append(f"  !! {name:<24} {subject:<20} {detail!r}")
    else:
        lines.append("alarms: none")
    counters = monitor.rollup_counters()
    if counters:
        lines.append("cluster counters:")
        for metric, value in counters.items():
            lines.append(f"  {metric:<40} {value}")
    gauges = monitor.rollup_gauges()
    if gauges:
        lines.append("cluster gauges (summed):")
        for metric, value in gauges.items():
            lines.append(f"  {metric:<40} {value}")
    pcts = monitor.rollup_percentiles()
    if pcts:
        lines.append("latency rollups (sketch-merged):")
        for metric, (count, p50, p99, p999) in pcts.items():
            lines.append(
                f"  {metric:<40} n={count} p50={p50:.3f} "
                f"p99={p99:.3f} p999={p999:.3f}"
            )
    distincts = monitor.rollup_distincts()
    if distincts:
        lines.append("distinct estimates:")
        for metric, estimate in distincts.items():
            lines.append(f"  {metric:<40} ~{estimate}")
    nodes: dict[str, int] = {}
    for node, _metric, _kind, _payload, clock in monitor.samples():
        prev = nodes.get(node)
        nodes[node] = clock if prev is None else max(prev, clock)
    if nodes:
        lines.append("reporting nodes (latest clock):")
        for node, clock in sorted(nodes.items()):
            lines.append(f"  {node:<40} @{clock}")
    return "\n".join(lines)
