"""Tests for the provenance layer: the derivation ledger, the why /
why-not debugger (single-node and stitched across the simulated
cluster), the sampled plan profiler, and the contract both observers
keep: attaching them changes neither results nor the code that runs."""

import sys

from repro.boomfs import BoomFSClient, BoomFSMaster, DataNode
from repro.metrics.export import hot_rules_json, render_hot_rules
from repro.overlog import OverlogRuntime
from repro.paxos import PaxosReplica
from repro.provenance.ledger import DerivationLedger
from repro.provenance.why import UNKNOWN, dag_nodes
from repro.sim import Cluster, LatencyModel

TC = """
program tc;
define(link, keys(0, 1), {Str, Str});
define(path, keys(0, 1), {Str, Str});
s1 path(X, Y) :- link(X, Y);
s2 path(X, Z) :- link(X, Y), path(Y, Z);
"""


def make(src, **kw):
    kw.setdefault("provenance", True)
    return OverlogRuntime(src, address="n0", **kw)


# ---------------------------------------------------------------------------
# Ledger mechanics
# ---------------------------------------------------------------------------


class TestLedger:
    def test_record_and_lookup(self):
        led = DerivationLedger(node="x")
        led.begin_step(3, 100, ())
        led.record("rule", "r1", 0, 1, "t", (1, 2), (("s", (1,)),))
        (entry,) = led.derivations_of("t", (1, 2))
        assert entry.rule == "r1"
        assert entry.stratum == 0 and entry.passno == 1
        assert entry.step == 3 and entry.now_ms == 100
        assert entry.body == (("s", (1,)),)
        assert entry.retracted is None
        assert led.derivations_of("t", (9, 9)) == []

    def test_ring_eviction_bounds_memory(self):
        led = DerivationLedger(node="x", capacity=10)
        for i in range(25):
            led.record("rule", "r", 0, 0, "t", (i,), ())
        assert len(led) == 10
        assert led.dropped == 15
        # Evicted entries are unlinked from the index...
        assert led.derivations_of("t", (0,)) == []
        # ...while surviving ones still resolve.
        (entry,) = led.derivations_of("t", (24,))
        assert entry.row == (24,)
        stats = led.stats()
        assert stats["recorded"] == 25 and stats["dropped"] == 15

    def test_retract_tombstones_not_deletes(self):
        led = DerivationLedger(node="x")
        led.begin_step(1, 0, ())
        led.record("rule", "r", 0, 0, "t", (1,), ())
        led.begin_step(4, 9, ())
        assert led.retract("t", (1,), "deleted") == 1
        (entry,) = led.derivations_of("t", (1,))
        assert entry.retracted == ("deleted", 4)
        assert led.derivations_of("t", (1,), live_only=True) == []
        # Tombstoning is idempotent per entry.
        assert led.retract("t", (1,), "again") == 0

    def test_sends_indexed_separately(self):
        led = DerivationLedger(node="x")
        led.record("send", "r", 0, 0, "msg", (1,), (), dest="other")
        assert led.derivations_of("msg", (1,)) == []
        (send,) = led.sends_of("msg", (1,))
        assert send.dest == "other"

    def test_external_record_carries_ctx(self):
        led = DerivationLedger(node="x", capacity=1)
        led.record_external("input", "e", (1,), ctx=("ref",))
        # Even when the ring is full, the ctx patch lands on the new
        # record (regression: indexing [-1] is wrong after wraparound).
        led.record_external("input", "e", (2,), ctx=("ref2",))
        (entry,) = led.derivations_of("e", (2,))
        assert entry.ctx == ("ref2",)


# ---------------------------------------------------------------------------
# why(): derivation DAGs
# ---------------------------------------------------------------------------


class TestWhy:
    def test_chain_reaches_edb(self):
        rt = make(TC)
        rt.insert_many("link", [("a", "b"), ("b", "c"), ("c", "d")])
        rt.run_to_quiescence()
        dag = rt.why("path", ("a", "d"), fmt="json")
        assert dag["status"] == "derived"
        # Walk to the deepest EDB leaf: every leaf must be a link input.
        def leaves(d):
            ds = d.get("derivations")
            if not ds:
                yield d
                return
            for entry in ds:
                if not entry["body"]:
                    yield d
                for child in entry["body"]:
                    yield from leaves(child)

        leaf_rels = {leaf["relation"] for leaf in leaves(dag)}
        assert "link" in leaf_rels
        text = rt.why("path", ("a", "d"))
        assert "rule s2" in text and "external input" in text

    def test_chain_grown_one_link_per_step_resolves_at_depth_64(self):
        rt = make(TC)
        for i in range(64):
            rt.insert("link", (str(i), str(i + 1)))
            rt.tick()
        dag = rt.why("path", ("0", "64"), fmt="json")
        assert dag["status"] == "derived"

    def test_why_unknown_tuple(self):
        rt = make(TC)
        rt.insert("link", ("a", "b"))
        rt.run_to_quiescence()
        dag = rt.why("path", ("z", "z"), fmt="json")
        assert dag["status"] == "unknown"

    def test_why_disabled_runtime(self):
        rt = OverlogRuntime(TC, provenance=False)
        assert "disabled" in rt.why("path", ("a", "b"))

    def test_install_is_edb_leaf(self):
        rt = make(TC)
        rt.install("link", [("a", "b")])
        rt.insert("link", ("b", "c"))
        rt.run_to_quiescence()
        text = rt.why("path", ("a", "c"))
        assert "EDB install" in text

    def test_next_rule_records_next_entry(self):
        rt = make(
            """
            program d;
            define(e, keys(0), {Int});
            define(acc, keys(0), {Int});
            n1 acc(X)@next :- e(X);
            """
        )
        rt.insert("e", (7,))
        rt.run_to_quiescence()
        (entry,) = rt.ledger.derivations_of("acc", (7,))
        assert entry.kind == "next"
        assert entry.body == (("e", (7,)),)
        assert "@next" in rt.why("acc", (7,))

    def test_event_witness_resolved_after_step(self):
        # The body of a @next rule names an event tuple, gone from the
        # pool once the step ends: the record keeps the row itself.
        rt = make(
            """
            program d;
            define(e, keys(0, 1), {Int, Int});
            define(acc, keys(0), {Int});
            n1 acc(X)@next :- e(_, X);
            """
        )
        rt.insert("e", (5, 7))
        rt.run_to_quiescence()
        (entry,) = rt.ledger.derivations_of("acc", (7,))
        # Column 0 is a wildcard: no binding names its value, the row does.
        assert entry.body == (("e", (5, 7)),)

    def test_witness_is_the_row_that_matched_not_a_later_one(self):
        # acc(7) is derived from e(5, 7) through the wildcard column; then
        # e(5, 7) is deleted and e(9, 7), which agrees on every bound
        # column, inserted.  The record must still name e(5, 7).
        rt = make(
            """
            program d;
            define(e, keys(0, 1), {Int, Int});
            define(acc, keys(0), {Int});
            event(kill, 1);
            n1 acc(X) :- e(_, X);
            k1 delete e(A, X) :- kill(A), e(A, X);
            """
        )
        rt.insert("e", (5, 7))
        rt.run_to_quiescence()
        rt.insert("kill", (5,))
        rt.run_to_quiescence()
        rt.insert("e", (9, 7))
        rt.run_to_quiescence()
        assert rt.rows("e") == [(9, 7)]
        (entry,) = rt.ledger.derivations_of("acc", (7,))
        assert entry.step == 1
        assert entry.body == (("e", (5, 7)),)
        text = rt.why("acc", (7,))
        assert "e(5, 7) [RETRACTED]" in text and "e(9, 7)" not in text

    def test_interpreted_plans_record_the_rows_that_matched(self):
        # Two order-sensitive call sites: the emitter declines both rules
        # and the interpreter runs them; its witnesses are rows too, in
        # rule order, whatever order the body ran in.
        rt = make(
            """
            program d;
            define(e, keys(0, 1), {Int, Int});
            define(lbl, keys(0), {Int, Str});
            define(tag, keys(0, 1, 2), {Int, Str, Str});
            define(cnt, keys(0), {Int, Int});
            t1 tag(X, A, B) :- e(_, X), lbl(X, _), A := f_uid(), B := f_uid();
            t2 cnt(X, count<A>) :- e(A, X), A != f_uid(), X != f_uid();
            """
        )
        rt.insert_many("e", [(5, 7), (6, 7)])
        rt.insert("lbl", (7, "seven"))
        rt.run_to_quiescence()
        assert "interpreted" in rt.explain("t1") and "interpreted" in rt.explain("t2")
        (row,) = rt.rows("tag")
        (entry,) = rt.ledger.derivations_of("tag", row)
        assert entry.body == (("e", (5, 7)), ("lbl", (7, "seven")))
        (entry,) = rt.ledger.derivations_of("cnt", (7, 2))
        assert entry.body == (("e", (5, 7)), ("e", (6, 7)))

    def test_negation_rule_provenance(self):
        rt = make(
            """
            program d;
            define(cand, keys(0), {Int});
            define(blocked, keys(0), {Int});
            define(ok, keys(0), {Int});
            g1 ok(X) :- cand(X), notin blocked(X);
            """
        )
        rt.install("blocked", [(2,)])
        rt.insert_many("cand", [(1,), (2,)])
        rt.run_to_quiescence()
        assert sorted(rt.rows("ok")) == [(1,)]
        (entry,) = rt.ledger.derivations_of("ok", (1,))
        # The witness records the positive atoms the join matched (the
        # negated atom matched nothing, by definition).
        assert entry.body == (("cand", (1,)),)

    def test_aggregate_witnesses(self):
        rt = make(
            """
            program d;
            define(obs, keys(0, 1), {Str, Int});
            define(total, keys(0), {Str, Int});
            a1 total(K, sum<V>) :- obs(K, V);
            """
        )
        rt.insert_many("obs", [("k", 1), ("k", 2), ("k", 4)])
        rt.run_to_quiescence()
        (entry,) = rt.ledger.derivations_of("total", ("k", 7))
        assert entry.body == (
            ("obs", ("k", 1)),
            ("obs", ("k", 2)),
            ("obs", ("k", 4)),
        )
        # Rows arriving together come out of a set, in hash order; the
        # recorded body is sorted whatever order they were folded in.
        rt.insert_many("obs", [("k", v) for v in (16, 8, 64, 32)])
        rt.run_to_quiescence()
        (entry,) = rt.ledger.derivations_of("total", ("k", 127))
        assert entry.body == tuple(("obs", ("k", v)) for v in (1, 2, 4, 8, 16, 32, 64))

    def test_aggregate_witness_cap(self):
        rt = make(
            """
            program d;
            define(obs, keys(0, 1), {Str, Int});
            define(cnt, keys(0), {Str, Int});
            a1 cnt(K, count<V>) :- obs(K, V);
            """
        )
        n = rt.evaluator.MAX_AGG_WITNESSES + 40
        rt.insert_many("obs", [("k", i) for i in range(n)])
        rt.run_to_quiescence()
        (entry,) = rt.ledger.derivations_of("cnt", ("k", n))
        assert len(entry.body) == rt.evaluator.MAX_AGG_WITNESSES

    def test_deleted_tuple_tombstoned(self):
        rt = make(
            """
            program d;
            define(t, keys(0), {Int});
            define(kill, keys(0), {Int});
            d1 delete t(X) :- kill(X), t(X);
            """
        )
        rt.insert("t", (1,))
        rt.run_to_quiescence()
        rt.insert("kill", (1,))
        rt.run_to_quiescence()
        assert rt.rows("t") == []
        (entry,) = rt.ledger.derivations_of("t", (1,))
        assert entry.retracted is not None
        reason, _step = entry.retracted
        assert "delete" in reason
        assert "[RETRACTED" in rt.why("t", (1,))

    def test_pk_displacement_tombstoned(self):
        rt = make(
            """
            program d;
            define(kv, keys(0), {Int, Int});
            """
        )
        rt.insert("kv", (1, 10))
        rt.run_to_quiescence()
        rt.insert("kv", (1, 20))
        rt.run_to_quiescence()
        assert rt.rows("kv") == [(1, 20)]
        (old,) = rt.ledger.derivations_of("kv", (1, 10))
        assert old.retracted is not None
        assert "displaced" in old.retracted[0]
        (new,) = rt.ledger.derivations_of("kv", (1, 20))
        assert new.retracted is None


# ---------------------------------------------------------------------------
# why_not(): rule replay
# ---------------------------------------------------------------------------


class TestWhyNot:
    def test_names_failing_atom(self):
        rt = make(TC)
        rt.insert("link", ("a", "b"))
        rt.run_to_quiescence()
        report = rt.why_not("path", ("b", "a"), fmt="json")
        assert report["present"] is False
        by_rule = {c["rule"]: c for c in report["candidates"]}
        fail = by_rule["s1"]
        assert fail["status"] == "fails"
        assert fail["failed_at"]["element"] == "link(X, Y)"
        text = rt.why_not("path", ("b", "a"))
        assert "fails at link(X, Y)" in text

    def test_present_tuple_reported(self):
        rt = make(TC)
        rt.insert("link", ("a", "b"))
        rt.run_to_quiescence()
        report = rt.why_not("path", ("a", "b"), fmt="json")
        assert report["present"] is True

    def test_unknown_column(self):
        rt = make(TC)
        rt.insert("link", ("a", "b"))
        rt.run_to_quiescence()
        report = rt.why_not("path", ("a", UNKNOWN), fmt="json")
        by_rule = {c["rule"]: c for c in report["candidates"]}
        assert by_rule["s1"]["status"] == "derivable"

    def test_works_without_ledger(self):
        rt = OverlogRuntime(TC, provenance=False)
        rt.insert("link", ("a", "b"))
        rt.run_to_quiescence()
        report = rt.why_not("path", ("b", "z"), fmt="json")
        assert report["candidates"]


# ---------------------------------------------------------------------------
# Cross-node stitching
# ---------------------------------------------------------------------------


def make_fs_cluster():
    cluster = Cluster(seed=0, latency=LatencyModel(1, 1))
    master = cluster.add(
        BoomFSMaster("master", replication=2, provenance=True)
    )
    for i in range(2):
        cluster.add(DataNode(f"dn{i}", masters=["master"], heartbeat_ms=300))
    fs = cluster.add(BoomFSClient("client", masters=["master"]))
    cluster.run_for(700)
    return cluster, master, fs


class TestClusterProvenance:
    def test_boomfs_fqpath_reaches_edb_across_nodes(self):
        cluster, master, fs = make_fs_cluster()
        fs.start_trace("mkdir /a")
        fs.mkdir("/a")
        fs.start_trace("mkdir /a/b")
        fs.mkdir("/a/b")
        dag = master.why_path("/a/b", fmt="json")
        text = master.why_path("/a/b")
        # The DAG bottoms out at the bootstrap EDB file fact...
        assert "EDB install" in text
        assert "file(0, -1, '', True)" in text
        # ...and crosses from the master to the client that issued the
        # mkdirs (trace-based stitching: the client keeps no ledger).
        assert dag_nodes(dag) >= {"master", "client"}

    def test_why_not_missing_path(self):
        _cluster, master, fs = make_fs_cluster()
        fs.mkdir("/a")
        report = master.why_not_path("/a/nope", fmt="json")
        by_rule = {c["rule"]: c for c in report["candidates"]}
        assert by_rule["f2"]["status"] == "fails"

    def test_paxos_decision_stitches_ledger_to_ledger(self):
        cluster = Cluster(seed=0, latency=LatencyModel(1, 2))
        group = [f"p{i}" for i in range(3)]
        replicas = [
            cluster.add(PaxosReplica(a, group, provenance=True))
            for a in group
        ]
        assert cluster.run_until(
            lambda: any(r.is_leader for r in replicas), max_time_ms=10_000
        )
        leader = next(r for r in replicas if r.is_leader)
        follower = next(r for r in replicas if not r.is_leader)
        follower.submit("op-1")
        assert cluster.run_until(
            lambda: 1 in leader.decided_log(),
            max_time_ms=cluster.now + 5_000,
        )
        text = leader.why_decided(1)
        # The quorum of accepted votes resolves back to the acceptor
        # replicas through their own ledgers.
        assert "sent by" in text
        dag = leader.why_decided(1, fmt="json")
        assert len(dag_nodes(dag)) >= 2

    def test_restart_reregisters_fresh_ledger(self):
        cluster, master, fs = make_fs_cluster()
        fs.mkdir("/a")
        old_ledger = master.runtime.ledger
        cluster.crash("master")
        cluster.restart("master")
        assert master.runtime.ledger is not old_ledger
        assert (
            cluster.provenance.ledger_for("master")
            is master.runtime.ledger
        )


# ---------------------------------------------------------------------------
# Profiler
# ---------------------------------------------------------------------------


class TestProfiler:
    def test_sampling_counts_every_exec(self):
        rt = OverlogRuntime(TC, profile=True, profile_sample_every=3)
        rt.insert_many("link", [("a", "b"), ("b", "c"), ("c", "d")])
        rt.run_to_quiescence()
        report = rt.profile_report(fmt="json")
        by_rule = {r["rule"]: r for r in report["rules"]}
        assert set(by_rule) == {"s1", "s2"}
        for entry in by_rule.values():
            assert entry["execs"] >= entry["sampled"] >= 1
            assert entry["est_ms"] >= 0.0
        # Step breakdowns cross-reference explain() by step index.
        plan = by_rule["s2"]["plans"][0]
        assert plan["steps"][0]["step"] == 0

    def test_profiler_results_match_unprofiled(self):
        plain = OverlogRuntime(TC)
        profiled = OverlogRuntime(TC, profile=True, profile_sample_every=1)
        for rt in (plain, profiled):
            rt.insert_many("link", [("a", "b"), ("b", "c"), ("c", "d")])
            rt.run_to_quiescence()
        assert sorted(plain.rows("path")) == sorted(profiled.rows("path"))
        assert (
            dict(plain.evaluator.rule_fires)
            == dict(profiled.evaluator.rule_fires)
        )

    def test_stats_survive_plan_invalidation(self):
        rt = OverlogRuntime(TC, profile=True, profile_sample_every=1)
        rt.insert("link", ("a", "b"))
        rt.run_to_quiescence()
        before = rt.profile_report(fmt="json")
        execs_before = sum(r["execs"] for r in before["rules"])
        rt.add_rule("s3 path(X, X) :- link(X, _);")  # invalidates plans
        rt.insert("link", ("b", "c"))
        rt.run_to_quiescence()
        after = rt.profile_report(fmt="json")
        execs_after = sum(r["execs"] for r in after["rules"])
        assert execs_after > execs_before  # history accumulated, not reset

    def test_exporters(self):
        rt = OverlogRuntime(TC, profile=True, profile_sample_every=1)
        rt.insert("link", ("a", "b"))
        rt.run_to_quiescence()
        report = rt.profile_report(fmt="json")
        js = hot_rules_json(report)
        assert '"sample_every"' in js
        text = render_hot_rules(report)
        assert "hot rules" in text and "s1" in text
        assert text == rt.profile_report()

    def test_profile_disabled_runtime(self):
        rt = OverlogRuntime(TC)
        assert "disabled" in rt.profile_report()


# ---------------------------------------------------------------------------
# Observer contract
# ---------------------------------------------------------------------------


def run_fs_workload(**observers):
    """A BOOM-FS master through a small namespace workload: its tables,
    sends and fire counts, and — with ``count_calls`` — how many calls of
    the master's evaluator went to generated functions and how many to
    the interpreter."""
    count_calls = observers.pop("count_calls", False)
    cluster = Cluster(seed=0, latency=LatencyModel(1, 1))
    master = cluster.add(BoomFSMaster("master", replication=2, **observers))
    if master.runtime.profiler is not None:
        master.runtime.profiler.sample_every = 1  # time every execution
    for i in range(2):
        cluster.add(DataNode(f"dn{i}", masters=["master"], heartbeat_ms=300))
    fs = cluster.add(BoomFSClient("client", masters=["master"]))
    evaluator = master.runtime.evaluator
    sends = []
    tick = master.runtime.tick

    def recording_tick(*args, **kwargs):
        result = tick(*args, **kwargs)
        sends.extend(result.sends)
        return result

    master.runtime.tick = recording_tick
    calls = {"generated": 0, "interpreted": 0}

    def count(frame, event, _arg):
        if event != "call":
            return
        code = frame.f_code
        if code.co_filename.startswith("<codegen:"):
            if frame.f_locals.get("ev") is evaluator:
                calls["generated"] += 1
        elif code.co_name in ("_body_envs", "_eval_rule"):
            if frame.f_locals.get("self") is evaluator:
                calls["interpreted"] += 1

    if count_calls:
        sys.setprofile(count)
    try:
        cluster.run_for(700)
        fs.mkdir("/a")
        fs.mkdir("/a/b")
        fs.write("/a/f", b"x" * 300)
        fs.ls("/a")
        fs.exists("/a/f")
        fs.mv("/a/f", "/a/b/g")
        fs.stat("/a/b/g")
        fs.rm("/a/b/g")
        cluster.run_for(1000)
    finally:
        sys.setprofile(None)
    return {
        "tables": {
            name: sorted(master.runtime.rows(name), key=repr)
            for name in master.runtime.catalog.tables
        },
        "sends": sends,
        "rule_fires": dict(evaluator.rule_fires),
    }, calls, master.runtime.profiler


class TestObserversRunTheEngine:
    def test_ledger_and_profiler_change_neither_results_nor_code_path(self):
        plain, _, _ = run_fs_workload()
        observed, calls, profiler = run_fs_workload(
            provenance=True, profile=True, count_calls=True
        )
        profiler_execs = sum(
            r["execs"] for r in profiler.hot_rules()["rules"]
        )
        assert observed == plain
        # Every plan execution (each one sampled: sample_every=1) was a
        # call of the plan's generated function, and nothing was
        # interpreted.
        assert calls["generated"] == profiler_execs > 0
        assert calls["interpreted"] == 0


# ---------------------------------------------------------------------------
# explain() cross-reference
# ---------------------------------------------------------------------------


class TestExplainFires:
    def test_explain_reports_cumulative_fires(self):
        rt = OverlogRuntime(TC)
        rt.insert_many("link", [("a", "b"), ("b", "c")])
        rt.run_to_quiescence()
        out = rt.explain()
        assert "fires:" in out
        # s1 fired twice (one per link fact).
        s1_block = out.split("s1", 1)[1].split("s2", 1)[0]
        assert "fires: 2 cumulative" in s1_block
