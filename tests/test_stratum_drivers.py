"""The source engine's stratum drivers.

Each stratum's semi-naive fixpoint is one generated function
(``codegen.generate_stratum_source``); these tests pin down that it is
what runs — plain and under observers — that replicas of a program
compile it once, and that ``\\src`` shows it.
"""

import re

from repro.boomfs import BoomFSClient, BoomFSMaster, DataNode
from repro.overlog import OverlogRuntime, codegen, parse
from repro.overlog.eval import Evaluator
from repro.paxos import PaxosReplica
from repro.sim import Cluster, LatencyModel

REFERENCE = ("_run_stratum", "_run_candidates", "_delta_candidates")


def counting(monkeypatch):
    """Count calls of every bound stratum driver (by evaluator and
    stratum) and of the reference driver's methods."""
    drivers: dict[tuple[int, int], int] = {}
    reference = dict.fromkeys(REFERENCE, 0)
    bind = Evaluator._bind_driver

    def bind_counted(self, index):
        driver = bind(self, index)
        assert driver.__code__.co_filename == f"<stratum:{index}>"
        drivers.setdefault((id(self), index), 0)

        def run(ev):
            drivers[id(self), index] += 1
            driver(ev)

        return run

    monkeypatch.setattr(Evaluator, "_bind_driver", bind_counted)
    for name in REFERENCE:
        real = getattr(Evaluator, name)

        def counted(self, *args, _real=real, _name=name, **kwargs):
            reference[_name] += 1
            return _real(self, *args, **kwargs)

        monkeypatch.setattr(Evaluator, name, counted)
    return drivers, reference


def fs_run(**observers):
    cluster = Cluster(seed=0, latency=LatencyModel(1, 1))
    master = cluster.add(BoomFSMaster("master", replication=2, **observers))
    if master.runtime.profiler is not None:
        master.runtime.profiler.sample_every = 1
    for i in range(2):
        cluster.add(DataNode(f"dn{i}", masters=["master"], heartbeat_ms=300))
    fs = cluster.add(BoomFSClient("client", masters=["master"]))
    sends = []
    tick = master.runtime.tick

    def recording_tick(*args, **kwargs):
        result = tick(*args, **kwargs)
        sends.extend(result.sends)
        return result

    master.runtime.tick = recording_tick
    cluster.run_for(700)
    fs.mkdir("/a")
    fs.write("/a/f", b"x" * 300)
    fs.ls("/a")
    fs.mv("/a/f", "/a/g")
    fs.rm("/a/g")
    cluster.run_for(1000)
    return [master.runtime], {"master": sends}


def paxos_run(**observers):
    cluster = Cluster(seed=0, latency=LatencyModel(1, 0))
    group = ["p0", "p1", "p2"]
    replicas = [cluster.add(PaxosReplica(a, group, **observers)) for a in group]
    for r in replicas:
        if r.runtime.profiler is not None:
            r.runtime.profiler.sample_every = 1
    sends = {a: [] for a in group}
    for r in replicas:
        tick = r.runtime.tick

        def recording_tick(*args, _tick=tick, _out=sends[r.address], **kwargs):
            result = _tick(*args, **kwargs)
            _out.extend(result.sends)
            return result

        r.runtime.tick = recording_tick
    assert cluster.run_until(lambda: any(r.is_leader for r in replicas), 10_000)
    leader = next(r for r in replicas if r.is_leader)
    for n in range(5):
        leader.submit(("op", n))
        assert cluster.run_until(
            lambda: all(r.applied_through() == n + 1 for r in replicas),
            cluster.now + 5_000,
        )
    return [r.runtime for r in replicas], sends


def outcome(runtimes, sends) -> dict:
    return {
        "tables": [
            {n: sorted(rt.rows(n), key=repr) for n in rt.catalog.tables}
            for rt in runtimes
        ],
        "sends": sends,
        "rule_fires": [dict(rt.evaluator.rule_fires) for rt in runtimes],
    }


def test_generated_drivers_run_every_stratum_plain_and_observed(monkeypatch):
    for run in (fs_run, paxos_run):
        results = []
        for observers in ({}, {"provenance": True, "profile": True}):
            with monkeypatch.context() as m:
                drivers, reference = counting(m)
                runtimes, sends = run(**observers)
            for rt in runtimes:
                ev = rt.evaluator
                strata = [i for i, b in enumerate(ev.stratum_buckets) if b]
                assert strata
                assert all(drivers[id(ev), i] > 0 for i in strata), drivers
            assert reference == dict.fromkeys(REFERENCE, 0)
            results.append(outcome(runtimes, sends))
        plain, observed = results
        assert observed == plain, run.__name__


def test_replicas_emit_and_compile_each_driver_once(monkeypatch):
    emitted: list[int] = []
    emit = codegen._emit_stratum

    def counted(index, *args):
        emitted.append(index)
        return emit(index, *args)

    monkeypatch.setattr(codegen, "_UNITS", {})
    monkeypatch.setattr(codegen, "_emit_stratum", counted)
    runtimes, _ = paxos_run()
    strata = [i for i, b in enumerate(runtimes[0].evaluator.stratum_buckets) if b]
    assert sorted(emitted) == strata
    first = [
        runtimes[0].evaluator.planner.driver_unit(i, False).code for i in strata
    ]
    for rt in runtimes[1:]:
        assert [rt.evaluator.planner.driver_unit(i, False).code for i in strata] == first


SRC = """program t;
define(edge, keys(), {Int, Int});
define(path, keys(), {Int, Int});
event(req, 2);
define(hit, keys(), {Int, Int});
p1 path(X, Y) :- edge(X, Y);
p2 path(X, Z) :- edge(X, Y), path(Y, Z);
h1 hit(X, 1) :- req(X, "a"), path(X, _);
"""


def test_source_listing_shows_each_driver_and_its_dispatch():
    rt = OverlogRuntime(parse(SRC), address="n0")
    src = rt.generated_source()
    (header,) = re.findall(r"# stratum 0 driver \[plain\] :: .*\n(?:#   .*\n)*", src)
    assert "p1, p2, h1" in header
    assert "#   edge -> p1 [delta@0], p2 [delta@0]\n" in header
    assert "#   path -> p2 [delta@1], h1 [delta@1]\n" in header
    assert "#   req -> h1 [delta@0 if [1] == 'a']\n" in header
    assert "def _stratum0(ev):" in src
    # A single rule's listing is its plans only.
    assert "driver" not in rt.generated_source("p1")


GUARDED = """program t;
define(t, keys(), {Int});
event(e, 1);
define(early, keys(), {Int, Int});
define(late, keys(), {Int, Int});
g1 early(X, Y) :- t(X), Y := f_newid(), e(X);
g2 late(X, Y) :- t(X), e(X), Y := f_newid();
"""


def test_an_empty_event_pool_skips_only_plans_that_would_call_nothing():
    # g2's delta@0 plan probes the event pool before it calls f_newid, so
    # the driver may skip it while e is empty; g1's calls f_newid first,
    # and those calls (ids minted, then dropped) must still happen.
    tables = {}
    for engine in ("source", "interpreter"):
        rt = OverlogRuntime(parse(GUARDED), address="n0", engine=engine)
        for x in (1, 2):
            rt.insert("t", (x,))
        rt.tick()
        rt.insert("e", (2,))
        rt.insert("t", (3,))
        rt.insert("e", (3,))
        rt.tick()
        tables[engine] = (sorted(rt.rows("early")), sorted(rt.rows("late")))
    assert tables["source"] == tables["interpreter"]
    src = OverlogRuntime(parse(GUARDED), address="n0").generated_source()
    assert "and pools.get('e')" in src.split("# g2")[1].split("# ")[0]
    assert "pools.get" not in src.split("# g1")[1].split("# g2")[0]
