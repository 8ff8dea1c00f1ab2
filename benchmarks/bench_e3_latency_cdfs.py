"""E3b — Request-latency CDFs and the cost of knowing why.

Extends E3's completion CDFs from jobs to individual metadata requests:
the open/closed-loop load driver (``repro.workload``) runs a seeded
NameNode op mix on both backends and reports p50/p99/p999 per op type.
With per-op tracing on, the latency accounting layer (``repro.latency``)
must then *explain* the slow tail — the slowest decile's critical paths
have to attribute >=95% of each trace's wall time to a named category.

The second half is the honesty gate: tracing + step annotation must stay
cheap.  The same workload runs traced and untraced, interleaved within
each repetition (like E8) with best-of-N wall time, and the accounting
overhead is asserted < 10%.
"""

import gc
import time

from harness import warm_plans, write_json_report, write_report

from repro.analysis import render_table
from repro.boomfs import BoomFSMaster
from repro.boomfs.datanode import DataNode
from repro.latency import CATEGORIES, critical_path
from repro.sim import Cluster, LatencyModel
from repro.transport import AsyncCluster
from repro.workload import LoadDriver, run_driver

OPS = 1000
SEED = 13
SCALE = 20.0  # async backend: virtual-ms compression factor


def _populate(cluster):
    cluster.add(BoomFSMaster("master", replication=2))
    for i in range(2):
        cluster.add(DataNode(f"dn{i}", masters=["master"]))
    cluster.run_for(700)  # heartbeats register the DataNodes


def _run_once(backend: str, trace: bool, ops: int = OPS):
    if backend == "sim":
        cluster = Cluster(seed=SEED, latency=LatencyModel(1, 3))
    else:
        cluster = AsyncCluster(time_scale=SCALE)
    try:
        _populate(cluster)
        driver = LoadDriver(
            "loadgen",
            masters=["master"],
            total_ops=ops,
            window=8,
            seed=SEED,
            trace=trace,
        )
        warm_plans(cluster)
        wall_start = time.perf_counter()
        run_driver(cluster, driver)
        wall = time.perf_counter() - wall_start
        return cluster, driver, wall
    except BaseException:
        cluster.shutdown()
        raise


def run_cdfs():
    """Per-op latency CDFs on both backends; on the simulator (traced)
    also the critical-path attribution of the slow tail."""
    results = {}
    for backend in ("sim", "async"):
        cluster, driver, _wall = _run_once(backend, trace=(backend == "sim"))
        try:
            entry = {
                "percentiles": driver.percentile_report(),
                "rendered": driver.render_report(),
            }
            if backend == "sim":
                slow = driver.slowest(0.1)
                reports = [
                    critical_path(cluster.tracer, r.trace_id) for r in slow
                ]
                coverages = [r.coverage for r in reports]
                totals = {cat: 0 for cat in CATEGORIES}
                for r in reports:
                    for cat, ms in r.by_category.items():
                        totals[cat] += ms
                entry["tail"] = {
                    "count": len(slow),
                    "min_coverage": min(coverages),
                    "by_category_ms": totals,
                }
            results[backend] = entry
        finally:
            cluster.shutdown()
    return results


def run_overhead(repeats: int = 5):
    """Accounting overhead: per-op tracing + step annotation on vs off.

    Modes alternate inside each repetition (clock drift on a shared host
    would bias whichever runs last) and wall time is best-of-N — the sim
    is deterministic, so the minimum is the least-noise CPU estimate.

    The collector is paused inside each timed region (timeit's
    methodology): the traced run retains ~30 event dicts per op, and
    those allocations advance the gen-0 trigger, so with GC live the
    delta mostly measures *collector scheduling* over the evaluator's
    whole heap — real for a default-tuned process, but a property of
    global heap state, not of this layer.  Pausing GC makes the gate
    bound what the accounting code itself costs on the request path."""
    walls = {False: [], True: []}
    for _ in range(repeats):
        for traced in (False, True):
            gc.collect()
            gc.disable()
            try:
                cluster, _driver, wall = _run_once("sim", trace=traced)
            finally:
                gc.enable()
            cluster.shutdown()
            walls[traced].append(wall)
    off, on = min(walls[False]), min(walls[True])
    return {
        "untraced_ms": off * 1000,
        "traced_ms": on * 1000,
        "overhead_pct": (on / off - 1) * 100,
        "repeats": repeats,
        "gc": "paused during timed regions (timeit methodology)",
    }


def build_report(cdfs, overhead) -> str:
    rows = []
    for backend, entry in cdfs.items():
        for op, r in entry["percentiles"].items():
            rows.append(
                [
                    backend,
                    op,
                    r["count"],
                    r["p50"],
                    r["p99"],
                    r["p999"],
                    r["max"],
                ]
            )
    table = render_table(
        ["backend", "op", "count", "p50", "p99", "p999", "max"],
        rows,
        title=(
            f"E3b -- metadata-op latency CDFs, {OPS} ops per backend "
            "(ms; sim virtual / async real-scaled)"
        ),
    )
    tail = cdfs["sim"]["tail"]
    tail_total = sum(tail["by_category_ms"].values()) or 1
    cat_rows = [
        [cat, f"{ms:.0f}", f"{ms / tail_total * 100:.1f}%"]
        for cat, ms in sorted(
            tail["by_category_ms"].items(), key=lambda kv: -kv[1]
        )
        if ms or cat == "other"
    ]
    lines = [
        table,
        "",
        "Slowest-decile critical paths (sim, traced):",
        f"  {tail['count']} traces, minimum attribution "
        f"{tail['min_coverage'] * 100:.1f}% of wall time",
        render_table(["category", "ms", "share"], cat_rows),
        "",
        (
            f"Accounting overhead (tracing on vs off, best of 5): "
            f"{overhead['overhead_pct']:+.1f}% "
            f"({overhead['traced_ms']:.0f} ms vs "
            f"{overhead['untraced_ms']:.0f} ms)"
        ),
    ]
    return "\n".join(lines)


def test_e3_latency_cdfs(benchmark):
    cdfs = benchmark.pedantic(run_cdfs, rounds=1, iterations=1)
    overhead = run_overhead()
    report = build_report(cdfs, overhead)
    write_report("e3_latency_cdfs", report)
    write_json_report(
        "e3_latency_cdfs",
        {
            "cdfs": {
                backend: {
                    "percentiles": entry["percentiles"],
                    **({"tail": entry["tail"]} if "tail" in entry else {}),
                }
                for backend, entry in cdfs.items()
            },
            "overhead": overhead,
        },
        backend="sim+async",
        seed=SEED,
        mode="matrix",
    )
    for backend in ("sim", "async"):
        report_all = cdfs[backend]["percentiles"]["all"]
        assert report_all["count"] == OPS
        assert report_all["p50"] <= report_all["p99"] <= report_all["p999"]
    # The slow tail must be explained, not just measured.
    assert cdfs["sim"]["tail"]["min_coverage"] >= 0.95
    # And knowing why must stay cheap: < 10% on the full workload.
    assert overhead["overhead_pct"] < 10.0, overhead
