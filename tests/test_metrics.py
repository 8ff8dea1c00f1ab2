"""Tests for the observability subsystem: metrics registry, evaluator
instrumentation, cluster aggregation, and causal cross-node tracing."""

import pytest

from repro.boomfs import BoomFSClient, BoomFSMaster, DataNode
from repro.metrics import (
    ClusterMetrics,
    Counter,
    Histogram,
    MetricsRegistry,
    TimeWindow,
    Tracer,
)
from repro.overlog import OverlogRuntime, parse
from repro.sim import Cluster, LatencyModel

SIMPLE = """
program demo;
define(a, keys(0), {Int});
define(b, keys(0), {Int});
define(c, keys(0), {Int});
r1 b(X) :- a(X);
r2 c(X) :- b(X), X > 1;
"""


# -- primitives ---------------------------------------------------------------


class TestPrimitives:
    def test_counter(self):
        c = Counter()
        c.inc()
        c.inc(4)
        assert c.value == 5

    def test_histogram_buckets_and_mean(self):
        h = Histogram(bounds=(10, 100))
        for v in (3, 10, 11, 500):
            h.observe(v)
        snap = h.snapshot()
        assert snap["count"] == 4
        assert snap["mean"] == pytest.approx(131.0)
        assert snap["buckets"] == {"le_10": 2, "le_100": 1, "overflow": 1}

    def test_time_window_rates_and_pruning(self):
        w = TimeWindow(width_ms=100, keep=2)
        w.add(50)          # bucket 0
        w.add(150, 3)      # bucket 1
        assert w.value_at(160) == 3
        assert w.rate_per_s(250) == 30.0  # 3 events in the last 100ms window
        w.add(250)         # bucket 2 -> bucket 0 pruned
        assert w.value_at(50) == 0

    def test_registry_get_or_create(self):
        reg = MetricsRegistry("n1")
        assert reg.counter("x") is reg.counter("x")
        assert reg.gauge("g") is reg.gauge("g")
        reg.counter("x").inc()
        snap = reg.snapshot()
        assert snap["scope"] == "n1"
        assert snap["counters"] == {"x": 1}


# -- evaluator instrumentation -----------------------------------------------


class TestRuntimeMetrics:
    def test_rule_fires_and_step_counters(self):
        rt = OverlogRuntime(parse(SIMPLE), address="n")
        rt.insert_many("a", [(1,), (2,), (3,)])
        rt.tick(now=5)
        assert rt.evaluator.rule_fires == {"r1": 3, "r2": 2}
        snap = rt.metrics.registry.snapshot()
        assert snap["counters"]["overlog.steps"] == 1
        # 3 inserted a-events + 3 derived b + 2 derived c
        assert snap["counters"]["overlog.derivations"] == 8
        assert snap["rule_fires"] == {"r1": 3, "r2": 2}
        # Relation cardinalities appear as lazily computed gauges.
        assert snap["gauges"]["rows.b"] == 3
        assert snap["gauges"]["rows.c"] == 2

    def test_stratum_iteration_counts(self):
        rt = OverlogRuntime(parse(SIMPLE), address="n")
        rt.insert_many("a", [(1,), (2,)])
        result = rt.tick()
        assert result.stratum_iterations  # (stratum, passes) recorded
        assert all(n >= 1 for _, n in result.stratum_iterations)
        assert rt.evaluator.stratum_iteration_totals


# -- cluster aggregation ------------------------------------------------------


def _fs_cluster(seed=0):
    cluster = Cluster(seed=seed, latency=LatencyModel(1, 1))
    cluster.add(BoomFSMaster("master", replication=2))
    for i in range(2):
        cluster.add(DataNode(f"dn{i}", masters=["master"], heartbeat_ms=300))
    client = cluster.add(BoomFSClient("client", masters=["master"]))
    cluster.run_for(700)  # heartbeats register the DataNodes
    return cluster, client


class TestClusterMetrics:
    def test_component_counters_aggregate(self):
        cluster, client = _fs_cluster()
        client.mkdir("/a")
        client.write("/a/f", b"x" * 100)
        snap = cluster.metrics_snapshot()
        # "transport" is the wire-level scope (envelopes/bytes/stalls).
        assert set(snap["nodes"]) == {
            "master",
            "dn0",
            "dn1",
            "client",
            "transport",
        }
        totals = snap["cluster"]["counters"]
        assert totals["fs.requests.mkdir"] == 1
        assert totals["fs.responses.ok"] >= 2
        assert totals["dn.chunks_stored"] == 2  # replication=2
        assert totals["dn.heartbeats"] >= 4
        master = snap["nodes"]["master"]
        assert master["rule_fires"]  # evaluator counters surface per node
        assert master["gauges"]["rows.fqpath"] >= 2

    def test_dashboard_renders(self):
        cluster, client = _fs_cluster()
        client.mkdir("/a")
        text = cluster.dashboard()
        assert "master" in text
        assert "fs.requests.mkdir" in text

    def test_restart_resets_node_metrics(self):
        cluster, client = _fs_cluster()
        client.mkdir("/a")
        before = cluster.metrics_snapshot()["nodes"]["master"]["counters"]
        assert before["overlog.steps"] > 0
        cluster.crash("master")
        cluster.restart("master")
        after = cluster.metrics_snapshot()["nodes"]["master"]["counters"]
        # Metrics are soft state: the restarted node reports from zero.
        assert after.get("fs.requests.mkdir", 0) == 0
        master = cluster.get("master")
        assert master.metrics is cluster.metrics.registries["master"]

    def test_adopt_replaces_registry_by_scope(self):
        cm = ClusterMetrics()
        first = cm.node("n")
        second = MetricsRegistry("n")
        assert cm.adopt(second) is second
        assert cm.registries["n"] is second is not first


# -- causal tracing -----------------------------------------------------------


class TestTracerUnit:
    def test_send_deliver_builds_child_spans(self):
        t = Tracer()
        ref = t.start_trace("op", node="c")
        with t.activate((ref,)):
            mid = t.on_send("c", "s", "request")
        assert mid is not None
        ctx = t.on_deliver(mid, "s", "request")
        assert len(ctx) == 1 and ctx[0].trace_id == ref.trace_id
        tree = t.span_tree(ref.trace_id)
        assert tree.children[0].node == "s"
        assert t.nodes_crossed(ref.trace_id) == {"c", "s"}

    def test_untraced_sends_cost_nothing(self):
        t = Tracer()
        assert t.on_send("a", "b", "r") is None
        assert t.on_deliver(None, "b", "r") == ()
        assert t.events == []

    def test_drop_recorded(self):
        t = Tracer()
        with t.trace("op") as ref:
            mid = t.on_send("c", "s", "request")
        t.on_drop(mid, "loss")
        kinds = [e["kind"] for e in t.events if e["trace"] == ref.trace_id]
        assert kinds == ["begin", "send", "drop"]


class TestCrossNodeTracing:
    def test_mkdir_span_tree_crosses_nodes(self):
        cluster, client = _fs_cluster()
        ref = client.start_trace("mkdir /a")
        client.mkdir("/a")
        nodes = cluster.tracer.nodes_crossed(ref.trace_id)
        assert len(nodes) >= 2
        assert {"client", "master"} <= nodes
        tree = cluster.tracer.span_tree(ref.trace_id)
        hops = [(s.node, s.name) for s in tree.walk()]
        assert ("master", "request") in hops
        assert ("client", "response") in hops
        rendered = cluster.tracer.render_tree(ref.trace_id)
        assert "master" in rendered and "request" in rendered

    def test_write_trace_reaches_datanodes(self):
        cluster, client = _fs_cluster()
        ref = client.start_trace("write /f")
        client.write("/f", b"data")
        nodes = cluster.tracer.nodes_crossed(ref.trace_id)
        assert {"client", "master"} <= nodes
        assert nodes & {"dn0", "dn1"}  # chunk placement crossed into the data plane

    def test_trace_is_consumed_by_one_op(self):
        cluster, client = _fs_cluster()
        ref = client.start_trace("mkdir /a")
        client.mkdir("/a")
        client.mkdir("/b")  # untraced
        sends = [
            e
            for e in cluster.tracer.events
            if e["kind"] == "send" and e["trace"] == ref.trace_id
        ]
        assert sends and cluster.tracer.nodes_crossed(ref.trace_id)
        # The second mkdir minted no new trace.
        assert cluster.tracer.trace_ids() == [ref.trace_id]


# -- deterministic export (acceptance) ---------------------------------------


def _traced_run(seed):
    cluster, client = _fs_cluster(seed=seed)
    client.start_trace("mkdir /a")
    client.mkdir("/a")
    client.start_trace("write /a/f")
    client.write("/a/f", b"payload" * 40)
    cluster.run_for(1000)
    return cluster


class TestDeterministicExport:
    def test_trace_jsonl_byte_identical_across_runs(self):
        first = _traced_run(seed=7).tracer.to_jsonl()
        second = _traced_run(seed=7).tracer.to_jsonl()
        assert first  # non-empty export
        assert first == second

    def test_metrics_jsonl_byte_identical_across_runs(self):
        first = _traced_run(seed=7)
        second = _traced_run(seed=7)
        assert first.metrics.to_jsonl(now_ms=first.now) == second.metrics.to_jsonl(
            now_ms=second.now
        )

    def test_jsonl_files_written(self, tmp_path):
        cluster = _traced_run(seed=3)
        traces = tmp_path / "traces.jsonl"
        metrics = tmp_path / "metrics.jsonl"
        cluster.export_traces_jsonl(traces)
        cluster.export_metrics_jsonl(metrics)
        assert traces.read_text() == cluster.tracer.to_jsonl()
        lines = metrics.read_text().splitlines()
        assert lines  # one record per node + one cluster record
        import json

        records = [json.loads(line) for line in lines]
        assert {r["record"] for r in records} == {"node", "cluster"}
