"""Tests for the metaprogramming layer: trace rewrites and invariants."""

import pytest

from repro.boomfs import BoomFSClient, BoomFSMaster, DataNode, master_program
from repro.monitoring import (
    InvariantMonitor,
    TraceCollector,
    add_relation_tracing,
    add_rule_tracing,
    boomfs_invariants_program,
    with_invariants,
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


class TestRuleTracing:
    def test_rewrite_adds_one_twin_per_rule(self):
        prog = parse(SIMPLE)
        traced = add_rule_tracing(prog)
        assert len(traced.rules) == 2 * len(prog.rules)
        names = {r.name for r in traced.rules}
        assert "trace_r1" in names and "trace_r2" in names

    def test_original_program_untouched(self):
        prog = parse(SIMPLE)
        add_rule_tracing(prog)
        assert len(prog.rules) == 2  # rewrites return new trees

    def test_trace_fires_with_rule(self):
        rt = OverlogRuntime(add_rule_tracing(parse(SIMPLE)))
        collector = TraceCollector()
        collector.attach(rt)
        rt.insert_many("a", [(1,), (2,), (3,)])
        rt.tick(now=5)
        counts = collector.rule_counts()
        assert counts["r1"] == 3
        assert counts["r2"] == 2  # X > 1 filter
        assert all(t == 5 for *_, t in collector.events)

    def test_selective_tracing(self):
        rt = OverlogRuntime(add_rule_tracing(parse(SIMPLE), rule_names=["r2"]))
        collector = TraceCollector()
        collector.attach(rt)
        rt.insert_many("a", [(1,), (2,)])
        rt.tick()
        assert set(collector.rule_counts()) == {"r2"}

    def test_traced_program_equivalent_results(self):
        plain = OverlogRuntime(parse(SIMPLE))
        traced = OverlogRuntime(add_rule_tracing(parse(SIMPLE)))
        for rt in (plain, traced):
            rt.insert_many("a", [(1,), (2,), (5,)])
            rt.tick()
        assert sorted(plain.rows("c")) == sorted(traced.rows("c"))

    def test_unknown_rule_name_rejected(self):
        with pytest.raises(KeyError, match="zzz"):
            add_rule_tracing(parse(SIMPLE), rule_names=["r1", "zzz"])

    def test_double_instrumentation_is_an_error(self):
        traced = add_rule_tracing(parse(SIMPLE))
        with pytest.raises(ValueError, match="already traced"):
            add_rule_tracing(traced)

    def test_boomfs_master_program_traceable(self):
        # The headline claim: instrument the real NameNode without
        # touching it.
        traced = add_rule_tracing(master_program())
        assert len(traced.rules) == 2 * len(master_program().rules)
        # construct a runtime over the traced program directly
        rt = OverlogRuntime(traced, address="master2")
        rt.install("file", [(0, -1, "", True)])
        rt.install("repfactor", [(2,)])
        rt.install("dn_timeout", [(3000,)])
        collector = TraceCollector()
        collector.attach(rt)
        rt.insert("request", (1, "client", "mkdir", "/x", None))
        rt.tick(now=1)
        while rt.has_pending_work:
            rt.tick(now=1)
        assert ("/x", 1) in rt.rows("fqpath")
        assert collector.rule_counts().get("c1") == 1  # mkdir rule traced


class TestTracingCompiledPlans:
    """Regression: trace rewrites must ride the compiled-plan path like
    any other rules — plans are built for the twin rules, reused across
    timesteps, and dropped (then rebuilt) when a rewrite swaps rules in
    at runtime."""

    def test_traced_program_compiles_plans(self):
        rt = OverlogRuntime(add_rule_tracing(parse(SIMPLE)))
        planner = rt.evaluator.planner
        assert planner is not None
        planned = {rp.rule.name for rp in planner.plans}
        assert {"r1", "r2", "trace_r1", "trace_r2"} <= planned
        rt.insert_many("a", [(1,), (2,)])
        rt.tick()
        rt.insert("a", (3,))
        rt.tick()
        # Compiled once at install; ticking reuses the cached plans.
        assert planner.compile_count == 1

    def test_runtime_rewrite_invalidates_plan_cache(self):
        # trace_event must be declared up front: add_rule installs rules,
        # not declarations (the full-program rewrite adds the decl itself).
        rt = OverlogRuntime(parse(SIMPLE + "event(trace_event, 4);"))
        planner = rt.evaluator.planner
        rt.insert_many("a", [(1,), (2,)])
        rt.tick()
        assert planner.compile_count == 1
        # Apply the tracing rewrite to the *running* program, keeping
        # state: install the twin rules through add_rule.
        traced = add_rule_tracing(rt.program)
        twins = [r for r in traced.rules if r.name.startswith("trace_")]
        collector = TraceCollector()
        collector.attach(rt)
        for twin in twins:
            rt.add_rule(twin)
        planned = {rp.rule.name for rp in rt.evaluator.planner.plans}
        assert {"trace_r1", "trace_r2"} <= planned
        assert rt.evaluator.planner.compile_count >= 2  # cache rebuilt
        rt.insert("a", (5,))
        rt.tick(now=7)
        # The twins fire through their freshly compiled plans — over the
        # new tuple *and* the pre-existing rows (add_rule marks the read
        # relations dirty, so new rules apply retroactively).
        assert collector.rule_counts() == {"r1": 3, "r2": 2}


class TestRelationTracing:
    def test_relation_tracing(self):
        rt = OverlogRuntime(add_relation_tracing(parse(SIMPLE), ["b"]))
        collector = TraceCollector()
        collector.attach(rt)
        rt.insert_many("a", [(1,), (2,)])
        rt.tick()
        assert collector.relation_counts() == {"b": 2}

    def test_unknown_relation_rejected(self):
        with pytest.raises(KeyError):
            add_relation_tracing(parse(SIMPLE), ["zzz"])

    def test_double_relation_instrumentation_is_an_error(self):
        traced = add_relation_tracing(parse(SIMPLE), ["b"])
        with pytest.raises(ValueError, match="already traced"):
            add_relation_tracing(traced, ["b"])

    def test_arity_zero_relation(self):
        source = SIMPLE + "event(ping, 0);\nr3 ping() :- a(X), X > 2;\n"
        rt = OverlogRuntime(add_relation_tracing(parse(source), ["ping"]))
        collector = TraceCollector()
        collector.attach(rt)
        rt.insert_many("a", [(1,), (3,)])
        rt.tick()
        assert collector.relation_counts() == {"ping": 1}

    def test_metamorphic_master_equivalence(self):
        # Tracing the full NameNode program must not change what it
        # derives: run the same workload on the plain and doubly-rewritten
        # programs and compare every non-trace relation.
        plain_rt = OverlogRuntime(master_program(), address="m")
        traced_prog = add_relation_tracing(
            add_rule_tracing(master_program()), ["fqpath", "chunk_cnt"]
        )
        traced_rt = OverlogRuntime(traced_prog, address="m")
        for rt in (plain_rt, traced_rt):
            rt.install("file", [(0, -1, "", True)])
            rt.install("repfactor", [(2,)])
            rt.install("dn_timeout", [(3000,)])
            for i, (op, path) in enumerate(
                [("mkdir", "/a"), ("mkdir", "/a/b"), ("create", "/a/b/f"),
                 ("ls", "/a"), ("rm", "/a/b")]
            ):
                rt.insert("request", (i, "c", op, path, None))
                rt.tick(now=i + 1)
                while rt.has_pending_work:
                    rt.tick(now=i + 1)
        for decl in master_program().tables():
            assert sorted(plain_rt.rows(decl.name)) == sorted(
                traced_rt.rows(decl.name)
            ), f"relation {decl.name} diverged under tracing"


class TestInvariants:
    def test_healthy_fs_has_no_violations(self):
        program = with_invariants(master_program(), boomfs_invariants_program())
        rt = OverlogRuntime(program, address="m")
        rt.install("file", [(0, -1, "", True)])
        rt.install("repfactor", [(2,)])
        rt.install("dn_timeout", [(3000,)])
        monitor = InvariantMonitor()
        monitor.attach(rt)
        rt.insert("request", (1, "c", "mkdir", "/a", None))
        for now in (0, 1, 2, 1001, 2001):
            rt.tick(now=now)
            while rt.has_pending_work:
                rt.tick(now=now)
        assert monitor.ok, monitor.violations

    def test_corrupted_metadata_detected(self):
        program = with_invariants(master_program(), boomfs_invariants_program())
        rt = OverlogRuntime(program, address="m")
        rt.install("file", [(0, -1, "", True)])
        rt.install("repfactor", [(2,)])
        rt.install("dn_timeout", [(3000,)])
        monitor = InvariantMonitor()
        monitor.attach(rt)
        # Inject an fqpath row with no backing file: iv1 must fire.
        rt.install("fqpath", [("/ghost", 999)])
        rt.tick(now=1001)
        assert ("orphan-fqpath", "/ghost") in monitor.violations

    def test_strict_monitor_raises(self):
        program = with_invariants(master_program(), boomfs_invariants_program())
        rt = OverlogRuntime(program, address="m")
        rt.install("file", [(0, -1, "", True)])
        rt.install("repfactor", [(2,)])
        rt.install("dn_timeout", [(3000,)])
        monitor = InvariantMonitor(strict=True)
        monitor.attach(rt)
        rt.install("fqpath", [("/ghost", 999)])
        with pytest.raises(AssertionError, match="orphan-fqpath"):
            rt.tick(now=1001)

    def test_live_cluster_stays_invariant_clean(self):
        # Run a real workload with invariants merged into the master.
        program = with_invariants(master_program(), boomfs_invariants_program())
        cluster = Cluster(latency=LatencyModel(1, 1))
        master = cluster.add(BoomFSMaster("master", replication=2))
        # swap in the instrumented program
        master._program = program
        cluster.crash("master")
        cluster.restart("master")
        monitor = InvariantMonitor()
        monitor.attach(master.runtime)
        for i in range(2):
            cluster.add(DataNode(f"dn{i}", masters=["master"], heartbeat_ms=300))
        fs = cluster.add(BoomFSClient("client", masters=["master"]))
        cluster.run_for(700)
        fs.makedirs("/a/b")
        fs.write("/a/b/f", b"bytes")
        fs.mv("/a/b/f", "/a/g")
        fs.rm("/a/b")
        cluster.run_for(3000)
        assert monitor.ok, monitor.violations


class TestPaxosLocalInvariants:
    """The paxos_invariants pack judged on a bare runtime: history
    relations (decided_hist / promised_hist) accumulate across primary-
    key replacement, so regressions the PK would silently absorb still
    surface as invariant_violation rows."""

    def _runtime(self):
        from repro.monitoring import paxos_invariants_program
        from repro.paxos import paxos_program

        rt = OverlogRuntime(
            with_invariants(paxos_program(), paxos_invariants_program()),
            address="r1",
        )
        monitor = InvariantMonitor()
        monitor.attach(rt)
        return rt, monitor

    def _settle(self, rt, now):
        rt.tick(now=now)
        while rt.has_pending_work:
            rt.tick(now=now)

    def test_decided_conflict_across_pk_replacement(self):
        rt, monitor = self._runtime()
        rt.install("decided", [(1, "op-a")])
        self._settle(rt, 1)
        rt.install("decided", [(1, "op-b")])  # PK silently replaces
        self._settle(rt, 2)
        assert ("decided-conflict", 1) in monitor.violations

    def test_identical_redecision_is_silent(self):
        rt, monitor = self._runtime()
        rt.install("decided", [(1, "op-a")])
        self._settle(rt, 1)
        rt.install("decided", [(1, "op-a")])
        self._settle(rt, 2)
        assert monitor.ok, monitor.violations

    def test_ballot_regression(self):
        rt, monitor = self._runtime()
        rt.install("max_promised", [(0, 7)])
        self._settle(rt, 1)
        rt.install("max_promised", [(0, 3)])
        self._settle(rt, 2)
        assert ("ballot-regression", 3) in monitor.violations

    def test_ballot_ratchet_up_is_silent(self):
        rt, monitor = self._runtime()
        rt.install("max_promised", [(0, 3)])
        self._settle(rt, 1)
        rt.install("max_promised", [(0, 7)])
        self._settle(rt, 2)
        assert monitor.ok, monitor.violations

    def test_applied_ahead_of_decided_log(self):
        rt, monitor = self._runtime()
        # cursor says instance 3 is next, yet instance 2 was never
        # decided — the applied log ran ahead of consensus
        rt.install("applied", [(0, 3)])
        self._settle(rt, 1001)  # inv_tick timer mark
        assert ("applied-ahead", 2) in monitor.violations

    def test_applied_behind_decided_log_is_silent(self):
        rt, monitor = self._runtime()
        rt.install("decided", [(1, "op-a"), (2, "op-b")])
        rt.install("applied", [(0, 3)])
        self._settle(rt, 1001)
        assert monitor.ok, monitor.violations
