"""The telemetry plane (docs/TELEMETRY.md): metrics-as-tuples shipped to
a monitor node whose rollup and health logic is itself Overlog.

Covers the wire serializer (registry -> ``telemetry`` tuples), the new
sketch aggregates under both evaluator paths, the monitor's rollups, all
three stock alert packs firing *and* clearing, alarm provenance down to
the emitting node's telemetry tuple, the cluster's export round (one
envelope per node per round, nodes added late or restarted included),
the monitor's signal log, and the deterministic dashboard/JSONL exports.
"""

import enum
import json

import pytest

from repro.boomfs import BoomFSClient, BoomFSMaster, DataNode
from repro.boomfs.client import FSSession
from repro.metrics import MetricsRegistry
from repro.overlog import EvaluationError, OverlogRuntime, parse
from repro.paxos import PaxosReplica, ReplicatedFSClient, ReplicatedMaster
from repro.sim import Cluster, LatencyModel, Process
from repro.sketches import (
    HyperLogLog,
    TDigest,
    is_hll_payload,
    is_tdigest_payload,
)
from repro.telemetry import (
    ALARM,
    BOOMFS_ALERTS,
    CLEAR,
    PAXOS_ALERTS,
    TRANSPORT_ALERTS,
    MonitorProcess,
    telemetry_rows,
    trace_latency_digest,
    trace_latency_rows,
)
from repro.transport import Envelope
from repro.workload import LoadDriver, run_driver

# -- the wire serializer -------------------------------------------------------


class TestTelemetryRows:
    def test_counter_gauge_rows(self):
        reg = MetricsRegistry("n1")
        reg.counter("ops").inc(3)
        reg.gauge("depth").set(7)
        rows = telemetry_rows(reg, clock=42)
        assert ("n1", "ops", "counter", 3, 42) in rows
        assert ("n1", "depth", "gauge", 7, 42) in rows

    def test_node_override_and_default_scope(self):
        reg = MetricsRegistry("scope0")
        reg.counter("c").inc()
        assert telemetry_rows(reg)[0][0] == "scope0"
        assert telemetry_rows(reg, node="other")[0][0] == "other"

    def test_non_numeric_gauges_become_info(self):
        reg = MetricsRegistry("n1")
        reg.gauge("role").set("leader")
        reg.gauge("flag").set(True)
        rows = {(r[1], r[2], r[3]) for r in telemetry_rows(reg)}
        assert ("role", "info", "leader") in rows
        # bools ride as 0/1 gauges so they can sum cluster-wide
        assert ("flag", "gauge", 1) in rows

    def test_gauge_payloads_have_the_exact_types_the_codec_carries(self):
        class Mode(enum.IntEnum):
            FAST = 2

        class Role(str):
            pass

        reg = MetricsRegistry("n1")
        reg.gauge("mode").set(Mode.FAST)
        reg.gauge("role").set(Role("leader"))
        payloads = {r[1]: r[3] for r in telemetry_rows(reg)}
        assert type(payloads["mode"]) is int and payloads["mode"] == 2
        assert type(payloads["role"]) is str and payloads["role"] == "leader"

    def test_histogram_ships_tdigest_payload(self):
        reg = MetricsRegistry("n1")
        hist = reg.histogram("lat")
        for v in range(100):
            hist.observe(v)
        (row,) = [r for r in telemetry_rows(reg) if r[1] == "lat"]
        assert row[2] == "histogram"
        assert is_tdigest_payload(row[3])
        assert TDigest.from_payload(row[3]).count == 100

    def test_empty_sketches_skipped_but_distinct_always_ships(self):
        reg = MetricsRegistry("n1")
        reg.histogram("h")
        reg.percentile("p")
        reg.distinct("d")
        rows = telemetry_rows(reg)
        kinds = {r[1]: r[2] for r in rows}
        assert "h" not in kinds and "p" not in kinds
        assert kinds["d"] == "distinct"
        assert is_hll_payload(rows[0][3])

    def test_rows_survive_the_envelope_codec(self):
        # Every telemetry row must round-trip through the TCP wire
        # codec with equal values of identical types.
        reg = MetricsRegistry("n1")
        reg.counter("c").inc()
        reg.gauge("g").set(1.5)
        reg.histogram("h").observe(3)
        reg.percentile("p").observe(4)
        reg.distinct("d").add("x")
        rows = telemetry_rows(reg, clock=1)
        env = Envelope.make("n1", "monitor", [("telemetry", row) for row in rows])
        back = [row for _, row in Envelope.decode(env.encode()).deltas]
        assert back == rows and repr(back) == repr(rows)
        for row in rows:
            hash(row)

    def test_collector_gauges_refresh_on_export(self):
        # Lazy collectors only run inside snapshot(); the serializer must
        # trigger them so exports see current values.
        reg = MetricsRegistry("n1")
        state = {"n": 0}

        def collect(snap):
            reg.gauge("live").set(state["n"])
            snap["gauges"]["live"] = state["n"]

        reg.add_collector(collect)
        state["n"] = 9
        rows = telemetry_rows(reg)
        assert ("n1", "live", "gauge", 9, 0) in rows


class TestTraceLatencyFold:
    def test_latency_from_begin_to_last_event(self):
        cluster = Cluster(seed=0)
        tracer = cluster.tracer
        for i, span in enumerate((10, 30)):
            ctx = tracer.start_trace(f"req{i}", "client")
            tracer.events.append(
                {"kind": "recv", "trace": ctx.trace_id, "ms": span}
            )
        digest = trace_latency_digest(tracer)
        assert digest.count == 2
        assert digest.quantile(0.0) == 10
        assert digest.quantile(1.0) == 30
        (row,) = trace_latency_rows(tracer, clock=5)
        assert row[0] == "traces"
        assert row[1] == "request.latency_ms"
        assert row[2] == "percentile"

    def test_no_traces_no_rows(self):
        cluster = Cluster(seed=0)
        assert trace_latency_rows(cluster.tracer) == []


# -- the sketch aggregates under both evaluator paths -------------------------

AGG_SRC = """
program t;
define(obs, keys(0, 1), {Str, Int});
define(dig, keys(0), {Str, Any});
define(pct, keys(0), {Str, Float});
define(card, keys(0), {Str, Int});
a1 dig(M, percentile<V>) :- obs(M, V);
a2 pct(M, P) :- dig(M, D), P := f_quantile(D, 50);
a3 card(M, count_distinct_approx<V>) :- obs(M, V);
"""


class TestSketchAggregates:
    def _run(self, **kw):
        rt = OverlogRuntime(AGG_SRC, address="me", **kw)
        rt.install("obs", [("m", v) for v in range(1, 101)])
        rt.tick()
        return rt

    @pytest.mark.parametrize("compiled", [True, False])
    def test_percentile_aggregate(self, compiled):
        rt = self._run(engine="source" if compiled else "interpreter")
        (row,) = rt.rows("dig")
        assert is_tdigest_payload(row[1])
        assert TDigest.from_payload(row[1]).count == 100
        (pct,) = rt.rows("pct")
        assert abs(pct[1] - 50.5) <= 2.0

    @pytest.mark.parametrize("compiled", [True, False])
    def test_count_distinct_aggregate(self, compiled):
        rt = self._run(engine="source" if compiled else "interpreter")
        (card,) = rt.rows("card")
        assert abs(card[1] - 100) <= 5

    def test_compiled_matches_interpreted_exactly(self):
        compiled = self._run(engine="source")
        interpreted = self._run(engine="interpreter")
        for rel in ("dig", "pct", "card"):
            assert sorted(compiled.rows(rel)) == sorted(interpreted.rows(rel))

    def test_aggregate_merges_shipped_payloads(self):
        # A percentile<> fold accepts pre-sketched payloads (what nodes
        # ship) and merges them, not just raw numbers.
        d1, d2 = TDigest(), TDigest()
        d1.extend(range(0, 50))
        d2.extend(range(50, 100))
        rt = OverlogRuntime(
            """
            program t;
            define(shard, keys(0), {Int, Any});
            define(total, keys(0), {Str, Any});
            a1 total("all", percentile<D>) :- shard(_, D);
            """,
            address="me",
        )
        rt.install("shard", [(1, d1.to_payload()), (2, d2.to_payload())])
        rt.tick()
        (row,) = rt.rows("total")
        merged = TDigest.from_payload(row[1])
        assert merged.count == 100

    def test_fold_rejects_junk(self):
        rt = OverlogRuntime(
            """
            program t;
            define(src, keys(0), {Int, Any});
            define(out, keys(0), {Str, Any});
            a1 out("x", percentile<D>) :- src(_, D);
            """,
            address="me",
        )
        rt.install("src", [(1, ("not", "a", "sketch"))])
        with pytest.raises(EvaluationError):
            rt.tick()


class TestSketchBuiltins:
    def _eval(self, expr_src, facts):
        rt = OverlogRuntime(
            """
            program t;
            define(inp, keys(0), {Int, Any});
            define(out, keys(0), {Int, Any});
            """
            + expr_src,
            address="me",
        )
        rt.install("inp", facts)
        rt.tick()
        return rt.rows("out")

    def test_f_quantile_and_count(self):
        d = TDigest()
        d.extend(range(1, 101))
        rows = self._eval(
            "r1 out(K, V) :- inp(K, D), V := f_quantile(D, 99);",
            [(1, d.to_payload())],
        )
        assert abs(rows[0][1] - 99) <= 2
        rows = self._eval(
            "r2 out(K, V) :- inp(K, D), V := f_sketch_count(D);",
            [(1, d.to_payload())],
        )
        assert rows == [(1, 100)]

    def test_f_distinct_estimate(self):
        h = HyperLogLog()
        h.extend(f"u{i}" for i in range(500))
        rows = self._eval(
            "r3 out(K, V) :- inp(K, D), V := f_distinct_estimate(D);",
            [(1, h.to_payload())],
        )
        assert abs(rows[0][1] - 500) <= 25

    def test_f_quantile_rejects_non_payload(self):
        with pytest.raises(EvaluationError):
            self._eval(
                "r4 out(K, V) :- inp(K, D), V := f_quantile(D, 50);",
                [(1, 42)],
            )


# -- the monitor node ----------------------------------------------------------


def _monitor_cluster(**monitor_kw):
    cluster = Cluster(seed=0, latency=LatencyModel(1, 2))
    monitor = cluster.add(MonitorProcess("monitor", **monitor_kw))
    return cluster, monitor


def _feed(cluster, monitor, rows):
    for row in rows:
        monitor.inject("telemetry", row)
    cluster.run_for(50)


class TestMonitorRollups:
    def test_counters_and_gauges_sum_across_nodes(self):
        cluster, monitor = _monitor_cluster()
        _feed(
            cluster,
            monitor,
            [
                ("n1", "ops", "counter", 5, 1),
                ("n2", "ops", "counter", 7, 1),
                ("n1", "depth", "gauge", 2.0, 1),
                ("n2", "depth", "gauge", 3.5, 1),
            ],
        )
        assert monitor.rollup_counters() == {"ops": 12}
        assert monitor.rollup_gauges() == {"depth": 5.5}

    def test_equal_values_from_different_nodes_all_count(self):
        # Aggregates fold distinct bindings: the rollup rules name the
        # node so two nodes reporting one value stay two bindings.
        d, h = TDigest(), HyperLogLog()
        d.extend(range(100))
        h.extend(f"u{i}" for i in range(50))
        cluster, monitor = _monitor_cluster()
        _feed(
            cluster,
            monitor,
            [
                ("n1", "ops", "counter", 5, 1),
                ("n2", "ops", "counter", 5, 1),
                ("n3", "ops", "counter", 7, 1),
                ("n1", "depth", "gauge", 2.5, 1),
                ("n2", "depth", "gauge", 2.5, 1),
                ("n1", "lat", "percentile", d.to_payload(), 1),
                ("n2", "lat", "percentile", d.to_payload(), 1),
                ("n1", "users", "distinct", h.to_payload(), 1),
                ("n2", "users", "distinct", h.to_payload(), 1),
            ],
        )
        assert monitor.rollup_counters() == {"ops": 17}
        assert monitor.rollup_gauges() == {"depth": 5.0}
        assert monitor.rollup_percentiles()["lat"][0] == 200
        assert abs(monitor.rollup_distincts()["users"] - 50) <= 3  # a union

    def test_latest_sample_wins_per_node_metric(self):
        cluster, monitor = _monitor_cluster()
        _feed(cluster, monitor, [("n1", "ops", "counter", 5, 1)])
        _feed(cluster, monitor, [("n1", "ops", "counter", 9, 2)])
        assert monitor.rollup_counters() == {"ops": 9}
        (sample,) = monitor.samples()
        assert sample == ("n1", "ops", "counter", 9, 2)

    def test_percentile_rollup_merges_node_digests(self):
        d1, d2 = TDigest(), TDigest()
        d1.extend(range(0, 500))
        d2.extend(range(500, 1000))
        cluster, monitor = _monitor_cluster()
        _feed(
            cluster,
            monitor,
            [
                ("n1", "lat", "percentile", d1.to_payload(), 1),
                ("n2", "lat", "percentile", d2.to_payload(), 1),
            ],
        )
        (stats,) = monitor.rollup_percentiles().values()
        count, p50, p99, p999 = stats
        assert count == 1000
        assert abs(p50 - 500) <= 15
        assert abs(p99 - 990) <= 15

    def test_histogram_kind_joins_the_same_rollup(self):
        reg = MetricsRegistry("n1")
        hist = reg.histogram("lat")
        for v in range(100):
            hist.observe(v)
        cluster, monitor = _monitor_cluster()
        _feed(cluster, monitor, telemetry_rows(reg, clock=1))
        assert "lat" in monitor.rollup_percentiles()

    def test_distinct_rollup_unions(self):
        h1, h2 = HyperLogLog(), HyperLogLog()
        h1.extend(f"k{i}" for i in range(600))      # 0..599
        h2.extend(f"k{i}" for i in range(400, 1000))  # overlap 400..599
        cluster, monitor = _monitor_cluster()
        _feed(
            cluster,
            monitor,
            [
                ("n1", "users", "distinct", h1.to_payload(), 1),
                ("n2", "users", "distinct", h2.to_payload(), 1),
            ],
        )
        estimate = monitor.rollup_distincts()["users"]
        assert abs(estimate - 1000) <= 50  # union, not sum (1200)

    def test_info_kind_is_stored_but_not_rolled_up(self):
        cluster, monitor = _monitor_cluster()
        _feed(cluster, monitor, [("n1", "role", "info", "leader", 1)])
        assert ("n1", "role", "info", "leader", 1) in monitor.samples()
        assert monitor.rollup_gauges() == {}


class TestAlertPacks:
    def test_packs_parse_standalone(self):
        # Each pack is a self-contained Overlog source string (with its
        # own `program` header) so deployments can merge any subset.
        for pack in (BOOMFS_ALERTS, TRANSPORT_ALERTS, PAXOS_ALERTS):
            program = parse(pack)
            assert program.rules

    def test_under_replicated_fires_and_clears(self):
        cluster, monitor = _monitor_cluster()
        _feed(
            cluster,
            monitor,
            [("master", "fs.chunks.under_replicated", "gauge", 3, 1)],
        )
        assert monitor.alarms() == [("under-replicated", "master", 3)]
        _feed(
            cluster,
            monitor,
            [("master", "fs.chunks.under_replicated", "gauge", 0, 2)],
        )
        assert monitor.alarms() == []
        # Both transitions were journalled, in order.
        assert [(kind, row) for _ms, kind, row in monitor.signal_log] == [
            (ALARM, ("under-replicated", "master", 3)),
            (CLEAR, ("under-replicated", "master", 3)),
        ]

    def test_new_detail_is_no_clear(self):
        # A live alarm re-derived with a new detail displaces its row by
        # primary key: a second firing, not a clear.
        cluster, monitor = _monitor_cluster()
        for clock, n in ((1, 3), (2, 1)):
            _feed(
                cluster,
                monitor,
                [("master", "fs.chunks.under_replicated", "gauge", n, clock)],
            )
        assert [kind for _ms, kind, _row in monitor.signal_log] == [
            ALARM,
            ALARM,
        ]
        assert monitor.alarms() == [("under-replicated", "master", 1)]

    def test_paxos_no_leader_fires_and_clears(self):
        cluster, monitor = _monitor_cluster()
        _feed(
            cluster,
            monitor,
            [
                ("r1", "paxos.is_leader", "gauge", 0, 1),
                ("r2", "paxos.is_leader", "gauge", 0, 1),
            ],
        )
        assert ("paxos-no-leader", "cluster", 0) in monitor.alarms()
        _feed(cluster, monitor, [("r1", "paxos.is_leader", "gauge", 1, 2)])
        assert monitor.alarms() == []

    def test_two_leaders_are_counted_as_two(self):
        cluster, monitor = _monitor_cluster()
        _feed(
            cluster,
            monitor,
            [
                ("r1", "paxos.is_leader", "gauge", 1.0, 1),
                ("r2", "paxos.is_leader", "gauge", 1.0, 1),
                ("r3", "paxos.is_leader", "gauge", 0.0, 1),
            ],
        )
        assert monitor.runtime.rows("paxos_leader_count") == [(0, 2.0)]

    def test_stalled_link_alarm(self):
        cluster, monitor = _monitor_cluster()
        _feed(
            cluster,
            monitor,
            [
                ("transport", "transport.stalled_link.n1->n2", "counter", 2, 1),
                ("transport", "transport.envelopes", "counter", 50, 1),
            ],
        )
        (alarm,) = monitor.alarms()
        assert alarm[0] == "stalled-link"
        assert alarm[1] == "transport.stalled_link.n1->n2"

    def test_custom_pack_alert(self):
        cluster, monitor = _monitor_cluster(
            packs=(
                """
                program custom_alerts;
                x1 alarm("hot", Node, V) :-
                    metric_sample(Node, "temp", "gauge", V, _), V > 90;
                """,
            ),
        )
        _feed(cluster, monitor, [("n1", "temp", "gauge", 95, 1)])
        assert monitor.alarms() == [("hot", "n1", 95)]


class TestAlarmProvenance:
    def test_why_reaches_the_telemetry_input(self):
        cluster, monitor = _monitor_cluster()
        row = ("master", "fs.chunks.under_replicated", "gauge", 2, 7)
        _feed(cluster, monitor, [row])
        text = cluster.why("monitor", "alarm", ("under-replicated", "master", 2))
        # alarm <- alert rule <- metric_sample <- m1 <- telemetry EDB
        assert "alarm(" in text
        assert "metric_sample(" in text
        assert "telemetry(" in text
        assert repr(7) in text  # the emitting clock survives the walk

    def test_cluster_why_resolves_alarms(self):
        cluster, monitor = _monitor_cluster()
        _feed(
            cluster,
            monitor,
            [("master", "fs.chunks.under_replicated", "gauge", 1, 1)],
        )
        text = cluster.why("monitor", "alarm", ("under-replicated", "master", 1))
        assert "telemetry(" in text


# -- end-to-end on a live cluster ------------------------------------------------


def _mkdir_some(cluster, master_addr="master", n=3):
    class Driver(Process):
        def __init__(self):
            super().__init__("client")
            self.session = None
            self.done = 0

        def start(self):
            self.session = FSSession(self, [master_addr])
            for i in range(n):
                self.session.mkdir(f"/d{i}", lambda ok, p, r: None)
                self.done += 1

        def handle_message(self, relation, row):
            self.session.on_message(relation, row)

    return cluster.add(Driver())


class TestClusterTelemetry:
    def test_periodic_export_reaches_the_monitor(self):
        cluster = Cluster(seed=0, latency=LatencyModel(1, 2))
        cluster.add(BoomFSMaster("master", replication=1))
        cluster.add(DataNode("dn1", ["master"]))
        _mkdir_some(cluster)
        monitor = cluster.enable_monitor(interval_ms=500)
        cluster.run_for(3000)
        nodes = {node for node, *_ in monitor.samples()}
        assert "master" in nodes
        assert "dn1" in nodes
        assert "transport" in nodes  # cluster-scope registry injected
        assert any(
            m.startswith("fs.requests.") for m in monitor.rollup_counters()
        )

    def test_export_loop_leaves_virtual_completion_alone(self):
        # Export timers interleave with steps at equal timestamps, so the
        # workload may finish a tick or two apart, but telemetry must not
        # slow it down in virtual time.
        finished_ms = {}
        for telemetry in (False, True):
            cluster = Cluster(latency=LatencyModel(1, 1))
            cluster.add(BoomFSMaster("master", replication=2))
            if telemetry:
                monitor = cluster.enable_monitor(interval_ms=100)
            driver = run_driver(
                cluster, LoadDriver(total_ops=600, trace=False)
            )
            finished_ms[telemetry] = max(r.end_ms for r in driver.records)
        assert monitor.samples()
        assert abs(finished_ms[True] - finished_ms[False]) <= 5, finished_ms

    @pytest.mark.parametrize("replicas", [1, 3])
    def test_under_replication_alarm_fires_on_a_real_master(self, replicas):
        # replication=2 over two DataNodes, one of which then crashes:
        # every chunk stays under-replicated (there is no third target).
        # replicas=1 is a lone BoomFSMaster, 3 a ReplicatedMaster group.
        cluster = Cluster(seed=0, latency=LatencyModel(1, 2))
        if replicas == 1:
            masters = ["master"]
            cluster.add(BoomFSMaster("master", replication=2))
            fs = cluster.add(BoomFSClient("client", masters))
        else:
            masters = [f"m{i}" for i in range(replicas)]
            for a in masters:
                cluster.add(ReplicatedMaster(a, masters, replication=2))
            fs = cluster.add(ReplicatedFSClient("client", masters))
        for i in range(2):
            cluster.add(DataNode(f"dn{i}", masters, heartbeat_ms=300))
        monitor = cluster.enable_monitor(interval_ms=500)
        cluster.run_for(2000)
        fs.write("/f", b"data")
        cluster.crash("dn1")
        cluster.run_for(6000)  # past the DataNode timeout, then an export
        alarmed = sorted(
            node for name, node, _ in monitor.alarms()
            if name == "under-replicated"
        )
        assert alarmed == masters
        # and the operator can ask why
        alarm = next(
            a for a in monitor.alarms() if a[0] == "under-replicated"
        )
        assert "telemetry(" in cluster.why("monitor", "alarm", alarm)

    def test_export_loop_rearms_after_crash_restart(self):
        cluster = Cluster(seed=0, latency=LatencyModel(1, 2))
        worker = cluster.add(BoomFSMaster("master", replication=1))
        monitor = cluster.enable_monitor(interval_ms=200)
        cluster.run_for(500)
        assert any(node == "master" for node, *_ in monitor.samples())
        cluster.crash("master")
        cluster.run_for(500)
        high_water = max(
            clock for node, *_rest, clock in monitor.samples()
            if node == "master"
        )
        cluster.restart("master")
        cluster.run_for(1000)
        latest = max(
            clock for node, *_rest, clock in monitor.samples()
            if node == "master"
        )
        assert latest > high_water  # exports resumed after restart

    def test_explicit_publish_without_timers(self):
        cluster = Cluster(seed=0, latency=LatencyModel(1, 2))
        worker = cluster.add(BoomFSMaster("master", replication=1))
        monitor = cluster.enable_monitor(
            interval_ms=None, include_transport=False, include_traces=False
        )
        cluster.run_for(200)
        assert monitor.samples() == []  # no timers armed
        sent = worker.publish(clock=1)
        assert sent > 0
        cluster.run_for(200)
        assert any(node == "master" for node, *_ in monitor.samples())

    def test_dashboard_and_jsonl(self, tmp_path):
        cluster = Cluster(seed=0, latency=LatencyModel(1, 2))
        cluster.add(BoomFSMaster("master", replication=3))
        monitor = cluster.enable_monitor(interval_ms=None)
        cluster.get("master").publish(clock=1)
        cluster.run_for(100)
        dash = cluster.telemetry_dashboard()
        assert "== telemetry @" in dash
        assert "cluster counters:" in dash
        assert dash == cluster.telemetry_dashboard()  # deterministic
        out = tmp_path / "telemetry.jsonl"
        cluster.export_telemetry_jsonl(out)
        lines = out.read_text().splitlines()
        assert lines
        records = [json.loads(line) for line in lines]
        assert {"rollup_counter", "sample"} <= {r["record"] for r in records}
        for line, record in zip(lines, records):
            assert line == json.dumps(
                record, sort_keys=True, separators=(",", ":")
            )

    def test_disabled_surface(self, tmp_path):
        cluster = Cluster(seed=0)
        assert "telemetry disabled" in cluster.telemetry_dashboard()
        assert cluster.monitor is None
        with pytest.raises(RuntimeError):
            cluster.export_telemetry_jsonl(tmp_path / "x.jsonl")

    def test_monitor_survives_when_existing_member(self):
        cluster = Cluster(seed=0)
        mine = cluster.add(MonitorProcess("monitor", packs=()))
        got = cluster.enable_monitor(monitor="monitor")
        assert got is mine  # reused, not recreated

    @pytest.mark.parametrize("interval_ms", [0, -1])
    def test_non_positive_interval_is_refused(self, interval_ms):
        # A zero interval would re-arm the round timer at the same
        # virtual instant forever; nothing here runs the cluster.
        cluster = Cluster(seed=0)
        with pytest.raises(ValueError, match="interval_ms"):
            cluster.enable_monitor(interval_ms=interval_ms)
        assert cluster.monitor is None


class TestExportRound:
    def _spy(self, cluster):
        """(virtual ms, src) of every envelope addressed to the monitor."""
        sent = []
        send = cluster.transport.send

        def spy(env):
            if env.dst == "monitor":
                sent.append((cluster.now, env.src))
            send(env)

        cluster.transport.send = spy
        return sent

    def test_one_envelope_per_node_per_round(self):
        cluster = Cluster(seed=0, latency=LatencyModel(1, 2))
        cluster.add(BoomFSMaster("master", replication=2))
        for name in ("dn0", "dn1"):
            cluster.add(DataNode(name, ["master"]))
        sent = self._spy(cluster)
        cluster.enable_monitor(interval_ms=500)
        cluster.run_for(1200)
        cluster.add(DataNode("dn2", ["master"]))  # added between rounds
        cluster.run_for(1000)
        cluster.crash("dn0")
        cluster.run_for(700)
        cluster.restart("dn0")  # restarted between rounds
        cluster.run_for(1100)
        rounds: dict[int, list] = {}
        for ms, src in sorted(sent):
            rounds.setdefault(ms, []).append(src)
        first, all_four = ["dn0", "dn1", "master"], ["dn0", "dn1", "dn2", "master"]
        assert rounds == {
            500: first,
            1000: first,
            1500: all_four,
            2000: all_four,
            2500: ["dn1", "dn2", "master"],  # dn0 is down
            3000: all_four,
            3500: all_four,
            4000: all_four,
        }

    def test_packs_free_monitor_takes_every_export(self):
        cluster = Cluster(seed=0, latency=LatencyModel(1, 2))
        cluster.add(BoomFSMaster("master", replication=1))
        cluster.add(DataNode("dn0", ["master"]))
        group = [f"p{i}" for i in range(3)]
        for address in group:
            cluster.add(PaxosReplica(address, group))
        monitor = cluster.add(MonitorProcess("monitor", packs=()))
        cluster.enable_monitor(interval_ms=None)
        cluster.run_for(2000)  # DataNode registers, the group elects
        assert cluster.publish_round(clock=1) > 0
        cluster.run_for(100)
        assert {n for n, _c in monitor.runtime.rows("fs_round")} == {"master"}
        assert {n for n, _c in monitor.runtime.rows("dn_round")} == {"dn0"}
        cursors = {n for n, *_rest in monitor.runtime.rows("px_cursor")}
        assert cursors == set(group)
        assert {n for n, *_rest in monitor.samples()} >= {"master", *group}
        assert monitor.signal_log == []

    def test_alarm_clear_is_logged_at_the_deleting_step(self):
        # replication=2 over two DataNodes; crashing one leaves every
        # chunk under-replicated until a third DataNode joins and the
        # master re-replicates onto it.
        cluster = Cluster(seed=0, latency=LatencyModel(1, 2))
        cluster.add(BoomFSMaster("master", replication=2))
        fs = cluster.add(BoomFSClient("client", ["master"]))
        for i in range(2):
            cluster.add(DataNode(f"dn{i}", ["master"], heartbeat_ms=300))
        monitor = cluster.enable_monitor(interval_ms=500)
        steps = []
        handle = monitor.handle_step_result

        def spy(result):
            handle(result)
            steps.append((monitor.now, bool(monitor.alarms())))

        monitor.handle_step_result = spy
        cluster.run_for(2000)
        fs.write("/f", b"data")
        cluster.crash("dn1")
        cluster.run_for(6000)
        assert monitor.alarms()
        cluster.add(DataNode("dn2", ["master"], heartbeat_ms=300))
        cluster.run_for(6000)
        assert monitor.alarms() == []
        clears = [
            (ms, row)
            for ms, kind, row in monitor.signal_log
            if kind == CLEAR
        ]
        ((clear_ms, row),) = clears
        assert row[:2] == ("under-replicated", "master")
        # The clear carries the time of the step that emptied the alarm
        # table, and the table stays empty after it.
        emptied = next(
            i for i, (_ms, alarmed) in enumerate(steps)
            if not alarmed and i and steps[i - 1][1]
        )
        assert steps[emptied][0] == clear_ms
        assert not any(alarmed for _ms, alarmed in steps[emptied:])
