"""Differential harness for the telemetry plane: the simulator and the
asyncio backend must converge the monitor node to identical state.

Every seed builds a small fleet of sensor nodes with deterministic
seeded metrics (a counter, a percentile sketch, a distinct sketch and a
gauge that may trip a threshold alert), publishes two explicit telemetry
rounds with pinned clocks (timer cadence differs between virtual and
real time, so rounds are driven from the test), and compares the final
monitor tables — raw samples, every rollup relation and the alarm set —
plus the multiset of alarm firings, exactly across backends.

The sketch aggregates make this non-trivial: rollups fold t-digest and
HLL payloads arriving in backend-dependent order, so equality here is
the order-invariance guarantee of ``percentile<>`` /
``count_distinct_approx<>`` end-to-end, not just of the sketch unit
tests.
"""

import random
from collections import Counter

import pytest

from repro.monitoring import DEFAULT_PACKS
from repro.sim import Cluster, LatencyModel, Process
from repro.telemetry import ALARM
from repro.transport import AsyncCluster

SEEDS = range(20)

WORKERS = 4

#: Per-node threshold alert with a clearing twin: exercises alarm
#: derivation *and* retraction under both backends.
QUEUE_ALERTS = """
program queue_alerts;

qa1 alarm("deep-queue", Node, V) :-
        metric_sample(Node, "work.queue_depth", "gauge", V, _), V > 50;

qa2 delete alarm("deep-queue", Node, D) :-
        alarm("deep-queue", Node, D),
        metric_sample(Node, "work.queue_depth", "gauge", V, _), V <= 50;
"""


class SensorNode(Process):
    """A worker whose metrics are a pure function of (seed, round)."""

    def __init__(self, address, seed):
        super().__init__(address)
        self.seed = seed

    def observe_round(self, round_no):
        rng = random.Random(f"{self.seed}:{self.address}:{round_no}")
        ops = self.metrics.counter("work.ops")
        lat = self.metrics.percentile("work.latency_ms")
        keys = self.metrics.distinct("work.keys")
        for _ in range(rng.randint(20, 60)):
            ops.inc()
            lat.observe(rng.expovariate(1 / 20))
            keys.add(f"key-{rng.randint(0, 200)}")
        # Round 1 can spike past the alert threshold; round 2 drains the
        # queue on some nodes, so alarms both fire and clear.
        self.metrics.gauge("work.queue_depth").set(rng.randint(0, 100))


def _run(cluster, seed):
    workers = [
        cluster.add(SensorNode(f"w{i}", seed)) for i in range(WORKERS)
    ]
    monitor = cluster.enable_monitor(
        interval_ms=None,
        include_transport=False,
        include_traces=False,
        packs=(*DEFAULT_PACKS, QUEUE_ALERTS),
    )
    expected = 4 * WORKERS  # counter + gauge + percentile + distinct each
    for round_no in (1, 2):
        for worker in workers:
            worker.observe_round(round_no)
            worker.publish(clock=round_no)
        converged = cluster.run_until(
            lambda: len(monitor.samples()) == expected
            and all(
                clock == round_no for *_x, clock in monitor.samples()
            ),
            max_time_ms=20_000,
        )
        assert converged, f"monitor did not converge in round {round_no}"
    state = {
        "samples": monitor.samples(),
        "counters": monitor.rollup_counters(),
        "gauges": monitor.rollup_gauges(),
        "percentiles": monitor.rollup_percentiles(),
        "distincts": monitor.rollup_distincts(),
        "alarms": monitor.alarms(),
    }
    firings = Counter(
        row for _ms, kind, row in monitor.signal_log if kind == ALARM
    )
    cluster.shutdown()
    return state, firings


@pytest.mark.parametrize("seed", SEEDS)
def test_monitor_state_backends_agree(seed):
    sim_state, sim_firings = _run(
        Cluster(seed=seed, latency=LatencyModel(1, 2)), seed
    )
    async_state, async_firings = _run(
        AsyncCluster(seed=seed, time_scale=10.0), seed
    )
    assert sim_state == async_state
    assert sim_firings == async_firings
    # sanity: the harness exercises real rollups, not empty tables
    assert sim_state["counters"]
    assert sim_state["percentiles"]
    assert sim_state["distincts"]


def test_some_seed_fires_and_clears_alarms():
    """At least one seed must exercise both alarm transitions, or the
    differential comparison proves nothing about retraction."""
    fired = cleared = False
    for seed in SEEDS:
        state, firings = _run(
            Cluster(seed=seed, latency=LatencyModel(1, 2)), seed
        )
        if firings:
            fired = True
        if sum(firings.values()) > len(state["alarms"]):
            cleared = True
        if fired and cleared:
            break
    assert fired and cleared
