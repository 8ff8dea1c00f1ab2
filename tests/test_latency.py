"""Tests for the latency accounting layer: critical-path extraction,
the load driver, per-op latency telemetry, the SLO alert pack, and the
flight recorder (docs/OBSERVABILITY.md)."""

import json

import pytest

from repro.boomfs.client import BoomFSClient
from repro.boomfs.datanode import DataNode
from repro.boomfs.master import BoomFSMaster
from repro.latency import (
    CATEGORIES,
    FlightRecorder,
    critical_path,
    latency_reports,
    render_category_summary,
)
from repro.metrics.trace import Tracer
from repro.sim import OverlogProcess
from repro.sim.cluster import Cluster
from repro.transport import LatencyModel
from repro.telemetry.export import trace_latency_rows
from repro.transport import AsyncCluster
from repro.workload import LoadDriver, run_driver

SCALE = 20.0


def _fs_cluster(seed=0, latency=(1, 3)):
    cluster = Cluster(seed=seed, latency=LatencyModel(*latency))
    cluster.add(BoomFSMaster("master", replication=2))
    for i in range(2):
        cluster.add(DataNode(f"dn{i}", masters=["master"], heartbeat_ms=300))
    client = cluster.add(BoomFSClient("client", masters=["master"]))
    cluster.run_for(700)
    return cluster, client


# -- critical-path extraction --------------------------------------------------


class TestCriticalPath:
    def test_single_op_fully_attributed(self):
        cluster, client = _fs_cluster()
        ref = client.start_trace("mkdir /a")
        client.mkdir("/a")
        report = critical_path(cluster.tracer, ref.trace_id)
        assert report is not None
        assert report.name == "mkdir /a"
        assert report.hops >= 2  # client -> master -> client
        assert report.total_ms > 0
        # The categories partition the trace's wall time exactly.
        assert sum(report.by_category.values()) == report.total_ms
        assert report.coverage >= 0.95
        # A metadata round trip crosses the wire both ways.
        assert report.by_category.get("network", 0) > 0

    def test_unknown_trace(self):
        cluster, _client = _fs_cluster()
        assert critical_path(cluster.tracer, "t999") is None
        assert cluster.latency_report("t999") == "(no such trace t999)"

    def test_compute_attributed_to_rules(self):
        # With a modelled CPU cost the master's busy window delays the
        # fixpoints of *concurrent* requests: those recv->step gaps are
        # compute time, and step annotations attribute them to the rules
        # that fired.  (An isolated request shows no compute gap — its
        # own cost only delays whatever runs next.)
        cluster = Cluster(seed=1, latency=LatencyModel(1, 2))
        cluster.add(
            BoomFSMaster(
                "master",
                replication=2,
                step_cost_ms=1,
                per_derivation_cost_us=500,
            )
        )
        for i in range(2):
            cluster.add(DataNode(f"dn{i}", masters=["master"]))
        cluster.run_for(700)
        driver = LoadDriver(
            "loadgen", masters=["master"], total_ops=100, window=8, seed=2
        )
        run_driver(cluster, driver)
        reports = [
            critical_path(cluster.tracer, r.trace_id)
            for r in driver.records
        ]
        total_compute = sum(
            r.by_category.get("compute", 0) for r in reports
        )
        assert total_compute > 0
        attributed = [r for r in reports if r.by_rule]
        assert attributed, "compute time should attribute to rules"
        for report in attributed:
            # Rule attribution covers the step-closed compute gaps; gaps
            # closed by sends carry no rule annotation, so <= holds.
            assert (
                sum(report.by_rule.values())
                <= report.by_category["compute"] + 1e-9
            )

    def test_timer_wait_classified(self):
        # Unit-level: a traced tuple consumed by a timer-woken step is
        # timer wait, not compute.
        now = [0]
        tracer = Tracer(clock=lambda: now[0])
        ref = tracer.start_trace("op", node="n")
        now[0] = 40
        tracer.annotate(
            (ref,), "step", node="n", derivations=1, timer=True
        )
        report = critical_path(tracer, ref.trace_id)
        assert report.by_category.get("timer", 0) == 40
        assert report.coverage == 1.0

    def test_renderers(self):
        cluster, client = _fs_cluster()
        ref = client.start_trace("mkdir /a")
        client.mkdir("/a")
        text = cluster.latency_report(ref.trace_id)
        assert "critical path of" in text and "by category:" in text
        payload = json.loads(cluster.latency_report(ref.trace_id, fmt="json"))
        assert set(payload["by_category"]) == set(CATEGORIES)
        assert payload["total_ms"] == payload["end_ms"] - payload["begin_ms"]
        report = cluster.latency_report(ref.trace_id, fmt="report")
        assert report.to_dict() == payload
        # why_slow is the master-side door to the same report.
        assert cluster.get("master").why_slow(ref.trace_id) == text

    def test_category_summary(self):
        cluster, client = _fs_cluster()
        for path in ("/a", "/b"):
            client.start_trace(f"mkdir {path}")
            client.mkdir(path)
        reports = latency_reports(cluster.tracer)
        assert len(reports) == 2
        summary = render_category_summary(reports)
        assert "2 trace(s)" in summary
        assert render_category_summary([]) == "(no traces)"


# -- load driver ---------------------------------------------------------------


class TestLoadDriver:
    def test_thousand_ops_sim_with_tail_attribution(self):
        # Acceptance: >=1000 mixed metadata ops on the simulator; the
        # slowest decile's critical paths attribute >=95% of wall time.
        cluster, _client = _fs_cluster(seed=11)
        driver = LoadDriver(
            "loadgen", masters=["master"], total_ops=1000, window=8, seed=5
        )
        run_driver(cluster, driver)
        assert driver.done and len(driver.records) == 1000
        report = driver.percentile_report()
        assert report["all"]["count"] == 1000
        assert {"mkdir", "create", "exists", "ls"} <= set(report)
        assert (
            report["all"]["p50"]
            <= report["all"]["p99"]
            <= report["all"]["p999"]
            <= report["all"]["max"]
        )
        slow = driver.slowest(0.1)
        assert len(slow) == 100
        for record in slow:
            assert record.trace_id is not None
            path = critical_path(cluster.tracer, record.trace_id)
            assert path is not None
            assert path.coverage >= 0.95, (
                f"{record.op} {record.path}: only {path.coverage:.2%} "
                f"of {path.total_ms} ms attributed"
            )
        rendered = driver.render_report()
        assert "p999" in rendered and "latency CDFs" in rendered

    def test_thousand_ops_async_backend(self):
        # The same driver instance type runs unmodified on asyncio.
        with AsyncCluster(time_scale=SCALE) as cluster:
            cluster.add(BoomFSMaster("master", replication=2))
            for i in range(2):
                cluster.add(DataNode(f"dn{i}", masters=["master"]))
            cluster.run_for(700)
            driver = LoadDriver(
                "loadgen",
                masters=["master"],
                total_ops=1000,
                window=16,
                seed=3,
                trace=False,  # keep the hot async path lean
            )
            run_driver(cluster, driver, max_time_ms=600_000)
            assert driver.done and len(driver.records) == 1000
            report = driver.percentile_report()
            assert report["all"]["count"] == 1000
            assert report["all"]["errors"] <= 20

    def test_open_loop_paces_arrivals(self):
        cluster, _client = _fs_cluster(seed=2)
        t0 = cluster.now
        driver = LoadDriver(
            "loadgen",
            masters=["master"],
            total_ops=20,
            arrival_ms=10,
            seed=1,
        )
        run_driver(cluster, driver)
        # Open loop: the 20th op cannot be issued before 19 inter-arrival
        # gaps have elapsed.
        assert max(r.start_ms for r in driver.records) >= t0 + 19 * 10
        assert len(driver.records) == 20

    def test_seeded_mix_is_reproducible(self):
        ops1 = []
        ops2 = []
        for ops in (ops1, ops2):
            cluster, _client = _fs_cluster(seed=4)
            driver = LoadDriver(
                "loadgen", masters=["master"], total_ops=60, seed=9
            )
            run_driver(cluster, driver)
            ops.extend((r.op, r.path) for r in driver.records)
        assert ops1 == ops2


# -- per-op latency telemetry and the SLO alert pack ---------------------------


class TestPerOpLatencyTelemetry:
    def _traced(self):
        now = [0]
        tracer = Tracer(clock=lambda: now[0])
        for name, latency in (
            ("mkdir /a", 5),
            ("mkdir /b", 7),
            ("ls /", 2),
        ):
            ref = tracer.start_trace(name, node="c")
            now[0] += latency
            tracer.annotate((ref,), "step", node="c", derivations=1)
            # next trace starts where this ended
        return tracer

    def test_default_stays_single_row(self):
        (row,) = trace_latency_rows(self._traced(), clock=5)
        assert row[1] == "request.latency_ms"

    def test_per_op_rows(self):
        rows = trace_latency_rows(self._traced(), clock=5, per_op=True)
        metrics = [r[1] for r in rows]
        assert metrics == [
            "request.latency_ms",
            "request.latency_ms.ls",
            "request.latency_ms.mkdir",
        ]

    def test_slo_burn_alarm_fires_and_dumps(self):
        cluster, client = _fs_cluster(seed=6)
        recorder = cluster.enable_flight_recorder(dump_on=("alarm",))
        monitor = cluster.enable_monitor(
            interval_ms=None, per_op_latency=True
        )
        monitor.set_slo("request.latency_ms.mkdir", 0.5)
        cluster.run_for(50)
        client.start_trace("mkdir /slow")
        client.mkdir("/slow")  # takes >= 1 virtual ms round trip
        cluster.publish_round(clock=1)
        cluster.run_for(200)
        alarms = monitor.alarms()
        assert any(
            name == "p99-slo-burn" and subject == "request.latency_ms.mkdir"
            for name, subject, _detail in alarms
        )
        assert recorder.dumps
        reason, node, _path, text = recorder.dumps[0]
        assert reason == "alarm:p99-slo-burn"
        assert node == "monitor"
        assert '"kind":"alarm"' in text

    def test_slo_within_limit_stays_quiet(self):
        cluster, client = _fs_cluster(seed=6)
        monitor = cluster.enable_monitor(
            interval_ms=None, per_op_latency=True
        )
        monitor.set_slo("request.latency_ms.mkdir", 10_000.0)
        client.start_trace("mkdir /fast")
        client.mkdir("/fast")
        cluster.publish_round(clock=1)
        cluster.run_for(200)
        assert not any(
            name == "p99-slo-burn" for name, *_rest in monitor.alarms()
        )


# -- flight recorder -----------------------------------------------------------


class TestFlightRecorder:
    def _crash_campaign(self, tmp_path, run_dir):
        cluster, client = _fs_cluster(seed=8)
        recorder = cluster.enable_flight_recorder(
            capacity=64, directory=tmp_path / run_dir
        )
        for path in ("/a", "/b"):
            client.start_trace(f"mkdir {path}")
            client.mkdir(path)
        cluster.crash("dn0")
        cluster.run_for(100)
        cluster.crash("dn1")
        cluster.run_for(100)
        return recorder

    def test_crash_dump_byte_deterministic(self, tmp_path):
        first = self._crash_campaign(tmp_path, "run1")
        second = self._crash_campaign(tmp_path, "run2")
        assert len(first.dumps) == len(second.dumps) == 2
        for (r1, n1, p1, t1), (r2, n2, p2, t2) in zip(
            first.dumps, second.dumps
        ):
            assert (r1, n1) == (r2, n2) == ("crash", n1)
            assert t1 == t2  # byte-identical post-mortems
            assert (tmp_path / "run1").exists()
            assert open(p1).read() == open(p2).read()

    def test_dump_contents(self, tmp_path):
        recorder = self._crash_campaign(tmp_path, "run")
        lines = recorder.dumps[0][3].splitlines()
        header = json.loads(lines[0])
        assert header["kind"] == "flight_dump"
        assert header["reason"] == "crash"
        assert header["node"] == "dn0"
        entries = [json.loads(line) for line in lines[1:]]
        kinds = {e["kind"] for e in entries}
        # Envelope lifecycle, span events and the crash marker all land.
        assert {"env_out", "env_in", "crash"} <= kinds
        assert any(k.startswith("trace_") for k in kinds)
        seqs = [e["seq"] for e in entries]
        assert seqs == sorted(seqs)
        for entry in entries:
            if entry["kind"] in ("env_out", "env_in"):
                assert entry["deltas"] >= 1 and entry["bytes"] > 0
                assert len(entry["rows"]) <= 4

    def test_ring_is_bounded(self):
        recorder = FlightRecorder(capacity=10)
        for i in range(100):
            recorder.record("n1", "tick", i=i)
        entries = recorder.snapshot("n1")
        assert len(entries) == 10
        assert entries[0]["i"] == 90  # oldest evicted

    def test_standalone_dump_without_directory(self):
        recorder = FlightRecorder(capacity=4)
        recorder.record("n1", "x")
        text = recorder.dump("manual")
        assert recorder.dumps[0][2] is None  # no file written
        assert json.loads(text.splitlines()[0])["reason"] == "manual"

    def test_unknown_dump_reason_is_refused(self):
        # A misspelt trigger would otherwise never dump.
        with pytest.raises(ValueError, match="crash, alarm, violation"):
            FlightRecorder(dump_on=("crash", "violations"))
        assert FlightRecorder(dump_on=iter(("violation",))).dump_on == (
            "violation",
        )


# -- crash/restart survival on the asyncio backend (satellite) -----------------


class TestAsyncCrashRestartObservability:
    def test_trace_context_survives_master_restart(self):
        with AsyncCluster(time_scale=SCALE) as cluster:
            cluster.add(BoomFSMaster("master", replication=1))
            cluster.add(DataNode("dn0", masters=["master"]))
            client = cluster.add(
                BoomFSClient(
                    "client", masters=["master"], rpc_timeout_ms=200
                )
            )
            cluster.run_for(700)
            client.start_trace("mkdir /a")
            client.mkdir("/a")
            cluster.crash("master")
            cluster.run_for(100)
            cluster.restart("master")
            cluster.run_for(700)  # DN re-registers via heartbeat
            # A new trace through the restarted master still stitches a
            # cross-node span tree on the same cluster-wide tracer.
            ref = client.start_trace("mkdir /b")
            client.mkdir("/b")
            nodes = cluster.tracer.nodes_crossed(ref.trace_id)
            assert {"client", "master"} <= nodes
            report = critical_path(cluster.tracer, ref.trace_id)
            assert report is not None and report.coverage >= 0.9

    def test_telemetry_loop_survives_restart(self):
        with AsyncCluster(time_scale=SCALE) as cluster:
            cluster.add(BoomFSMaster("master", replication=1))
            monitor = cluster.enable_monitor(interval_ms=200)
            # At 20x real time the first samples can trail the first
            # steps' code generation: wait for one rather than a fixed 600
            # virtual ms.
            assert cluster.run_until(
                lambda: any(
                    node == "master" for node, *_rest in monitor.samples()
                ),
                cluster.now + 5_000,
            )

            def latest() -> int:
                return max(
                    clock
                    for node, *_rest, clock in monitor.samples()
                    if node == "master"
                )

            cluster.crash("master")
            cluster.run_for(400)
            high_water = latest()
            cluster.restart("master")
            # Export rounds reach the restarted node: a newer sample
            # arrives (waited on, like the first one, so a host pause
            # cannot outlast a fixed window).
            assert cluster.run_until(
                lambda: latest() > high_water, cluster.now + 5_000
            )

    def test_flight_recorder_on_async_crash(self):
        with AsyncCluster(time_scale=SCALE) as cluster:
            recorder = cluster.enable_flight_recorder(dump_on=("crash",))
            node = cluster.add(
                OverlogProcess(
                    "n1",
                    """
                    program kv;
                    define(store, keys(0), {Str, Int});
                    event(put, 2);
                    store(K, V) :- put(K, V);
                    """,
                )
            )
            node.inject("put", ("a", 1))
            cluster.run_until(
                lambda: node.runtime.rows("store") == [("a", 1)],
                max_time_ms=2000,
            )
            cluster.crash("n1")
            assert len(recorder.dumps) == 1
            assert recorder.dumps[0][0] == "crash"
