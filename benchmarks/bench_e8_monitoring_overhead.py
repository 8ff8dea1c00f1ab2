"""E8 — Overhead of metaprogrammed monitoring (the monitoring revision).

The paper's monitoring rewrite doubles every rule (a tracing twin shares
the original body).  We run the identical NameNode metadata workload on
the plain, rule-traced, and invariant-checked programs and report the
extra derivations and host CPU time each rewrite costs.

This repo also has a *runtime-level* alternative: the always-on metrics
registry (``repro.metrics``) counts rule firings and relation sizes
inside the evaluator instead of doubling the program.  The experiment
runs both monitoring modes against a metrics-off baseline, so the table
compares metaprogrammed tracing against runtime instrumentation.
"""

import time

from bench_e4_metadata_throughput import TOTAL_OPS, MetadataLoadGen
from harness import warm_plans, write_json_report, write_report

from repro.analysis import render_table
from repro.boomfs import BoomFSMaster, master_program
from repro.monitoring import (
    TraceCollector,
    add_rule_tracing,
    boomfs_invariants_program,
    with_invariants,
)
from repro.overlog import OverlogRuntime
from repro.sim import Cluster, LatencyModel

OPS = 120


def _workload(rt: OverlogRuntime) -> None:
    now = 0
    for i in range(OPS):
        now += 5
        kind = i % 4
        if kind == 0:
            rt.insert("request", (i, "c", "mkdir", f"/d{i}", None))
        elif kind == 1:
            rt.insert("request", (i, "c", "create", f"/d{i-1}/f", None))
        elif kind == 2:
            rt.insert("request", (i, "c", "ls", f"/d{i-2}", None))
        else:
            rt.insert("request", (i, "c", "exists", f"/d{i-3}/f", None))
        rt.tick(now=now)
        while rt.has_pending_work:
            rt.tick(now=now)


def run_one(program, with_collector=False, metrics=False, **runtime_kwargs):
    rt = OverlogRuntime(program, address="m", metrics=metrics, **runtime_kwargs)
    rt.install("file", [(0, -1, "", True)])
    rt.install("repfactor", [(2,)])
    rt.install("dn_timeout", [(3000,)])
    collector = None
    if with_collector:
        collector = TraceCollector()
        collector.attach(rt)
    warm_plans(rt)
    start = time.perf_counter()
    _workload(rt)
    wall = time.perf_counter() - start
    metric_points = 0
    if rt.metrics is not None:
        snap = rt.metrics.registry.snapshot()
        metric_points = sum(
            len(v) for v in snap.values() if isinstance(v, dict)
        )
    return {
        "wall_ms": wall * 1000,
        "derivations": rt.total_derivations,
        "rules": len(rt.program.rules),
        "trace_events": len(collector.events) if collector else 0,
        "metric_points": metric_points,
    }


#: 4x the E4 op count: long enough (~500 sim-ms) that several exports
#: fire inside the timed window and per-export cost amortizes the way a
#: production cadence would against continuous load.
TELEM_OPS = 4 * TOTAL_OPS


def _run_telemetry_once(telemetry: bool):
    cluster = Cluster(latency=LatencyModel(1, 1))
    cluster.add(BoomFSMaster("master", replication=2))
    if telemetry:
        cluster.enable_telemetry(interval_ms=100)
    gen = cluster.add(
        MetadataLoadGen("loadgen", "master", total_ops=TELEM_OPS)
    )
    warm_plans(cluster)
    wall_start = time.perf_counter()
    ok = cluster.run_until(lambda: gen.done, max_time_ms=600_000)
    wall = time.perf_counter() - wall_start
    assert ok, "load generator did not finish"
    if telemetry:
        # Drain in-flight telemetry envelopes (untimed) so the
        # monitor-sample column reflects the whole run.
        cluster.run_for(200)
    monitor = cluster.monitor
    return wall, {
        "sim_ms": gen.finished_ms - gen.started_ms,
        "monitor_samples": len(monitor.samples()) if monitor else 0,
        "monitor_alarms": len(monitor.alarms()) if monitor else 0,
    }


def run_telemetry_overhead(repeats: int = 5):
    """The E4 metadata workload end-to-end, telemetry plane on vs off.

    The two modes alternate within each repetition (clock-frequency
    drift on a shared host would otherwise bias whichever mode runs
    last) and wall time is best-of-N: the sim is deterministic, so the
    minimum is the least-noise estimate of actual CPU cost."""
    walls = {False: [], True: []}
    info = {}
    for _ in range(repeats):
        for telemetry in (False, True):
            wall, detail = _run_telemetry_once(telemetry)
            walls[telemetry].append(wall)
            info[telemetry] = detail
    results = {}
    for telemetry, label in ((False, "telemetry off"), (True, "telemetry on")):
        best = min(walls[telemetry])
        results[label] = {
            "wall_ms": best * 1000,
            "wall_us_per_op": best * 1e6 / TELEM_OPS,
            **info[telemetry],
        }
    results["overhead_pct"] = (
        results["telemetry on"]["wall_ms"]
        / results["telemetry off"]["wall_ms"]
        - 1
    ) * 100
    return results


def run_experiment():
    base = master_program()
    # Both monitoring modes measured against the same metrics-off plain
    # run: the rewrite pays in derivations, the registry in bookkeeping.
    return {
        "plain": run_one(base),
        "runtime metrics": run_one(base, metrics=True),
        "provenance+profiler": run_one(base, provenance=True, profile=True),
        "rule-traced": run_one(add_rule_tracing(base), with_collector=True),
        "with invariants": run_one(
            with_invariants(base, boomfs_invariants_program())
        ),
    }


def build_report(results) -> str:
    plain = results["plain"]
    rows = []
    for name, r in results.items():
        rows.append(
            [
                name,
                r["rules"],
                r["derivations"],
                round(r["wall_ms"], 1),
                f"{(r['wall_ms'] / plain['wall_ms'] - 1) * 100:+.0f}%",
                r["trace_events"],
                r["metric_points"],
            ]
        )
    table = render_table(
        [
            "program",
            "rules",
            "derivations",
            "host ms",
            "overhead",
            "trace events",
            "metric points",
        ],
        rows,
        title=(
            f"E8 -- monitoring overhead, rewrite vs runtime metrics "
            f"({OPS} NameNode metadata ops)"
        ),
    )
    return table + (
        "\nTracing twins re-evaluate every rule body, so the derivation\n"
        "count reflects the full tracing cost; the runtime metrics registry\n"
        "and the provenance ledger + plan profiler (docs/PROVENANCE.md)\n"
        "observe the same firings without adding rules or derivations."
    )


def build_telemetry_report(results) -> str:
    rows = [
        [
            name,
            round(r["wall_ms"], 1),
            round(r["wall_us_per_op"], 1),
            r["monitor_samples"],
        ]
        for name, r in results.items()
        if isinstance(r, dict)
    ]
    table = render_table(
        ["mode", "host ms", "us/op", "monitor samples"],
        rows,
        title=(
            f"E8b -- telemetry-plane overhead "
            f"({TELEM_OPS} NameNode metadata ops, export every 100 sim-ms)"
        ),
    )
    return table + (
        f"\noverhead: {results['overhead_pct']:+.1f}% — the export loop\n"
        "snapshots each registry into telemetry tuples on a timer, so the\n"
        "cost scales with metric count x export rate, not with request\n"
        "rate (docs/TELEMETRY.md)."
    )


def test_e8_monitoring_overhead(benchmark):
    results = benchmark.pedantic(run_experiment, rounds=1, iterations=1)
    telemetry = run_telemetry_overhead()
    report = (
        build_report(results) + "\n\n" + build_telemetry_report(telemetry)
    )
    write_report("e8_monitoring_overhead", report)
    write_json_report(
        "e8_monitoring_overhead",
        {"rewrites": results, "telemetry": telemetry},
        mode="matrix",
    )
    # End-to-end telemetry overhead gate: shipping metrics-as-tuples to
    # the monitor must cost < 10% on the E4 metadata workload.
    assert telemetry["overhead_pct"] < 10.0, telemetry
    assert telemetry["telemetry on"]["monitor_samples"] > 0
    # Virtual time is essentially untouched: export timers interleave
    # with step scheduling at equal timestamps, so completion may shift
    # by a tick or two, but telemetry must not slow the workload itself.
    assert (
        abs(
            telemetry["telemetry on"]["sim_ms"]
            - telemetry["telemetry off"]["sim_ms"]
        )
        <= 5
    )
    assert results["rule-traced"]["trace_events"] > 0
    assert (
        results["rule-traced"]["derivations"] > results["plain"]["derivations"]
    )
    # The registry counts firings without rewriting the program.
    assert results["runtime metrics"]["metric_points"] > 0
    assert (
        results["runtime metrics"]["derivations"]
        == results["plain"]["derivations"]
    )
    # The provenance ledger and sampled profiler are pure observers too.
    assert (
        results["provenance+profiler"]["derivations"]
        == results["plain"]["derivations"]
    )
