"""Metric arithmetic: raw observations -> named numbers.

Names, units, directions and bounds live in ``BENCHMARK.json`` at the
repository root; this module only computes values.  README.md says what
each one means.
"""

from __future__ import annotations

import math
import statistics
from typing import Iterable, Optional

from workloads import RunResult, Workload

FS_OP_KINDS = ("create", "exists", "ls", "stat", "mkdir", "mv", "rm")


def percentile(values: Iterable[float], p: float) -> float:
    """Nearest-rank percentile; 0 for an empty sample."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    return ordered[max(1, math.ceil(len(ordered) * p / 100)) - 1]


def smooth_percentile(ordered: list[float], p: float) -> float:
    """Bernstein-polynomial quantile estimate: the order statistics
    averaged with Binomial(n - 1, p) weights.  On 96 000 ops it is the
    nearest-rank percentile to four digits; on the 21 jobs of
    ``mr_wordcount_sim`` the 95th is mostly the three slowest jobs, not
    the second slowest alone, and varies half as much between seeds."""
    n, q = len(ordered), p / 100
    centre = (n - 1) * q
    reach = 6 * math.sqrt(centre * (1 - q)) + 1  # six standard deviations
    ranks = range(max(0, int(centre - reach)), min(n - 1, int(centre + reach)) + 1)
    weights = [
        math.exp(
            math.lgamma(n) - math.lgamma(k + 1) - math.lgamma(n - k)
            + k * math.log(q) + (n - 1 - k) * math.log(1 - q)
        )
        for k in ranks
    ]
    return sum(w * ordered[k] for w, k in zip(weights, ranks)) / sum(weights)


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3) as ``statistics.quantiles(n=4)`` gives them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def end_to_end(
    result: RunResult, clock, generating_ns: tuple[int, int], rss_kb: int
) -> dict[str, float]:
    """What a user of the system sees, from one untraced pass: every op
    of the measured phase counts, the collector is on, and host time is
    in reference-host seconds (:mod:`hostclock`)."""
    answered = [(s, e) for s, e in zip(result.start_ns, result.end_ns) if e]
    starts = clock.normalise([s for s, _ in answered])
    ends = clock.normalise([e for _, e in answered])
    latencies = sorted((e - s) / 1e3 for s, e in zip(starts, ends))
    quarter = len(latencies) // 4
    middle = latencies[quarter : len(latencies) - quarter]
    # The clock's zero is its first sample, taken as the process starts.
    phase, gen_from, gen_to = clock.normalise(
        [result.phase_start_ns, *generating_ns]
    )
    return {
        # Process start to first measured op, less the benchmark's own generator.
        "setup_s": (phase - (gen_to - gen_from)) / 1e9,
        "ops_per_s": len(answered) / ((max(ends) - phase) / 1e9),
        # Gated typical and tail latency: see README, "Why not p50 and p99".
        "op_mid_us": sum(middle) / len(middle),
        "op_p95_us": smooth_percentile(latencies, 95),
        # What the issue named; printed by the suite, too unsteady to gate.
        "op_p50_us": percentile(latencies, 50),
        "op_p99_us": percentile(latencies, 99),
        "rss_mb": rss_kb / 1024,
    }


def per_layer(
    workload: Workload,
    traced: RunResult,
    untraced: RunResult,
    baseline: Optional[RunResult],
) -> dict[str, float]:
    """Layer ledger of a traced run.  ``untraced`` ran the same inputs
    in this process first, for the overhead and imperative ratios."""
    ops = traced.ops
    wall = traced.wall_ns
    ledger = traced.ledger
    self_ns = ledger.self_ns
    counts = ledger.counts
    c = traced.counters

    def us_per_op(ns: float) -> float:
        return ns / 1e3 / ops

    m: dict[str, float] = {}
    m["overlog.parse_ms"] = traced.setup_ledger.self_ns["overlog.parse"] / 1e6
    m["overlog.install_ms"] = traced.setup_ledger.self_ns["overlog.install"] / 1e6

    primary_ticks = [d for _, node, d in ledger.ticks if node in workload.primary_nodes]
    m["overlog.tick_us_per_op"] = us_per_op(self_ns["overlog.tick"])
    m["overlog.other_tick_us_per_op"] = us_per_op(self_ns["overlog.other_tick"])
    m["overlog.tick_share"] = (
        self_ns["overlog.tick"] + self_ns["overlog.other_tick"]
    ) / wall
    m["overlog.ticks_per_op"] = c["ticks"] / ops
    m["overlog.derivations_per_op"] = c["derivations"] / ops
    m["overlog.tick_us_p99"] = percentile(primary_ticks, 99) / 1e3

    inserts = counts.get("catalog.inserts", 0)
    m["catalog.insert_us_per_op"] = us_per_op(self_ns["catalog"])
    m["catalog.inserts_per_op"] = inserts / ops
    m["catalog.insert_new_frac"] = (
        counts.get("catalog.inserts_changed", 0) / inserts if inserts else 0.0
    )
    m["catalog.deletes_per_op"] = counts.get("catalog.deletes", 0) / ops
    m["catalog.index_builds"] = traced.index_builds
    m["catalog.rows_live"] = traced.rows_live

    envelopes = c["envelopes_sent"]
    m["transport.envelopes_per_op"] = envelopes / ops
    m["transport.deltas_per_envelope"] = c["sent"] / envelopes if envelopes else 0.0
    m["transport.bytes_per_op"] = c["bytes_sent"] / ops
    m["transport.dropped"] = (
        c["dropped_loss"] + c["dropped_partition"] + c["dropped_dead"]
    )
    m["transport.backpressure_stalls"] = c["backpressure_stalls"]
    m["transport.flush_us_per_op"] = us_per_op(self_ns["transport.flush"])
    m["transport.send_us_per_op"] = us_per_op(self_ns["transport.send"])
    m["transport.deliver_us_per_op"] = us_per_op(self_ns["transport.deliver"])

    codec_calls = ledger.calls["codec.encode"] + ledger.calls["codec.decode"]
    m["codec.encode_us_per_op"] = us_per_op(self_ns["codec.encode"])
    m["codec.decode_us_per_op"] = us_per_op(self_ns["codec.decode"])
    m["codec.wire_bytes_per_op"] = counts.get("codec.wire_bytes", 0) / ops
    m["codec.calls_per_op"] = codec_calls / ops

    # Host time no span covers is the event loop's own: heap pops and
    # timer plumbing on sim, selector + task switching on asyncio.
    loop_self = us_per_op(wall - ledger.covered_ns())
    on_sim = workload.backend == "sim"
    m["sim.events_per_op"] = c["events"] / ops
    m["sim.loop_self_us_per_op"] = loop_self if on_sim else 0.0
    m["sim.virtual_op_ms_p50"] = percentile(traced.virtual_ms, 50) if on_sim else 0.0
    m["asyncio.loop_self_us_per_op"] = 0.0 if on_sim else loop_self

    m["boomfs.client_us_per_op"] = us_per_op(self_ns["boomfs.client"])
    m["boomfs.retries_per_op"] = traced.retried / ops
    for kind in FS_OP_KINDS:
        m[f"boomfs.op_p50_us.{kind}"] = (
            percentile(
                [ns for k, ns in zip(traced.kinds, traced.latency_ns) if k == kind], 50
            )
            / 1e3
        )
    untraced_rate = untraced.ops / (untraced.wall_ns / 1e9)
    if baseline is not None:
        baseline_rate = baseline.ops / (baseline.wall_ns / 1e9)
        m["hadoop.baseline_ops_per_s"] = baseline_rate
        m["boomfs.vs_imperative_x"] = baseline_rate / untraced_rate
    else:
        m["hadoop.baseline_ops_per_s"] = 0.0
        m["boomfs.vs_imperative_x"] = 0.0

    is_paxos = workload.name == "paxos_meta_sim"
    decile = ops / 10

    def tick_us_per_decree(lo: float, hi: float) -> float:
        ns = sum(
            d for done, node, d in ledger.ticks
            if node in workload.primary_nodes and lo <= done < hi
        )
        return ns / 1e3 / (hi - lo)

    m["paxos.msgs_per_decree"] = c["sent"] / ops if is_paxos else 0.0
    m["paxos.tick_us_per_decree"] = (
        sum(primary_ticks) / 1e3 / ops if is_paxos else 0.0
    )
    m["paxos.tick_us_per_decree.first_decile"] = (
        tick_us_per_decree(0, decile) if is_paxos else 0.0
    )
    m["paxos.tick_us_per_decree.last_decile"] = (
        tick_us_per_decree(ops - decile, ops) if is_paxos else 0.0
    )
    m["paxos.leader_changes"] = traced.extras.get("paxos.leader_changes", 0)
    m["paxos.follower_lag_max"] = traced.extras.get("paxos.follower_lag_max", 0)
    m["paxos.failover_virtual_ms"] = traced.extras.get("failover_virtual_ms", 0)

    tasks = traced.extras.get("mapreduce.tasks", 0)
    jobtracker_ns = sum(d for _, node, d in ledger.ticks if node == "jobtracker")
    m["mapreduce.jobtracker_tick_us_per_task"] = (
        jobtracker_ns / 1e3 / tasks if tasks else 0.0
    )
    m["mapreduce.user_fn_us_per_task"] = (
        self_ns["mapreduce.user_fn"] / 1e3 / tasks if tasks else 0.0
    )
    m["mapreduce.job_virtual_ms_p50"] = (
        percentile(traced.virtual_ms, 50) if tasks else 0.0
    )
    m["mapreduce.heartbeats_per_task"] = (
        counts.get("delivered.tt_hb", 0) / tasks if tasks else 0.0
    )
    m["mapreduce.attempts_per_task"] = (
        traced.extras.get("mapreduce.attempts", 0) / tasks if tasks else 0.0
    )
    m["mapreduce.stage_s"] = traced.stage_s

    m["proc.gc_s"] = ledger.gc_ns / 1e9
    m["proc.gc_gen2_count"] = ledger.gc_gen2
    m["trace.overhead_frac"] = (wall / ops) / (untraced.wall_ns / untraced.ops) - 1
    m["trace.coverage_frac"] = ledger.covered_ns() / wall
    return m

