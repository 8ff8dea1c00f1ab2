"""Exporters: deterministic JSONL event logs and a text dashboard.

Two machine formats, one human format:

* ``metrics_jsonl(cluster_metrics)`` — one JSON line per node snapshot
  plus one cluster-aggregate line (key-sorted; byte-stable across runs
  with the same seed);
* ``Tracer.to_jsonl()`` (in :mod:`repro.metrics.trace`) — one line per
  trace event;
* ``render_dashboard(cluster_metrics)`` — the operator's view: per-node
  step/derivation counts, hottest rules, largest relations;
* ``hot_rules_json`` / ``render_hot_rules`` — the plan profiler's
  hot-rules report (:mod:`repro.provenance.profiler`) as key-sorted JSON
  and as text.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Optional

from .registry import ClusterMetrics


def write_text(path, text: str) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text)
    return path


def metrics_jsonl(metrics: ClusterMetrics, now_ms: Optional[int] = None) -> str:
    """Node snapshots plus the cluster aggregate as JSON lines."""
    records = []
    for scope in sorted(metrics.registries):
        snap = metrics.registries[scope].snapshot()
        snap["record"] = "node"
        snap["now_ms"] = now_ms
        records.append(snap)
    records.append(
        {
            "record": "cluster",
            "now_ms": now_ms,
            "counters": metrics.aggregate_counters(),
        }
    )
    return "".join(
        json.dumps(r, sort_keys=True, separators=(",", ":")) + "\n"
        for r in records
    )


def hot_rules_json(report: dict) -> str:
    """A profiler hot-rules report (``PlanProfiler.hot_rules()``) as
    key-sorted JSON, for artifact upload."""
    return json.dumps(report, sort_keys=True, indent=2)


def render_hot_rules(report: dict) -> str:
    """Text rendering of a profiler hot-rules report: rules ranked by
    estimated time, each broken down per plan, with the plan's steps.
    Step indexes and lines match ``explain()`` output for the rule."""
    lines = [
        "== hot rules (sampled 1/"
        f"{report['sample_every']} plan executions, scaled estimates) =="
    ]
    if not report["rules"]:
        lines.append("(no plan executions sampled)")
        return "\n".join(lines)
    for entry in report["rules"]:
        lines.append(
            f"{entry['rule']:<24} est {entry['est_ms']:>9.3f} ms   "
            f"execs {entry['execs']:>7}  sampled {entry['sampled']}"
        )
        for plan in entry["plans"]:
            if not plan["sampled"]:
                continue
            fold = f" => aggregate [{plan['fold']}]" if plan.get("fold") else ""
            lines.append(
                f"  [{plan['tag']}]{fold} est {plan['est_ms']:.3f} ms over "
                f"{plan['execs']} execs, {plan['rows_out']} sampled rows out"
            )
            lines += [
                f"    {step['step']}. {step['describe']}"
                for step in plan["steps"]
            ]
    return "\n".join(lines)


def _top(items: dict, n: int = 5) -> list[tuple[str, int]]:
    return sorted(items.items(), key=lambda kv: (-kv[1], kv[0]))[:n]


def render_dashboard(
    metrics: ClusterMetrics, now_ms: Optional[int] = None
) -> str:
    """A plain-text snapshot of the whole cluster's health."""
    lines = [f"== cluster metrics @ {now_ms} ms =="]
    cluster = metrics.aggregate_counters()
    if cluster:
        lines.append("cluster totals:")
        for name, value in cluster.items():
            lines.append(f"  {name:<36} {value}")
    for scope in sorted(metrics.registries):
        snap = metrics.registries[scope].snapshot()
        lines.append(f"-- node {scope} --")
        for name, value in snap["counters"].items():
            lines.append(f"  {name:<36} {value}")
        rows = {
            name[len("rows."):]: value
            for name, value in snap["gauges"].items()
            if name.startswith("rows.") and value
        }
        if rows:
            largest = ", ".join(
                f"{rel}={n}" for rel, n in _top(rows, 6)
            )
            lines.append(f"  largest relations: {largest}")
        fires = snap.get("rule_fires")
        if fires:
            hottest = ", ".join(f"{r}={n}" for r, n in _top(fires, 6))
            lines.append(f"  hottest rules: {hottest}")
        hist = snap["histograms"].get("overlog.step_derivations")
        if hist and hist["count"]:
            lines.append(
                f"  derivations/step: mean={hist['mean']} over "
                f"{hist['count']} steps"
            )
    return "\n".join(lines)
