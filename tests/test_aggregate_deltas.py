"""Aggregates are maintained from deltas: what an aggregate rule does when
rows enter and leave its body relations.

A rule over stored relations keeps per-group fold state; the rows that
entered drive its ``delta@i`` plans, the rows that left its ``retract@i``
plans, and only the groups whose fold moved produce a head row.  The
differential harness (test_plan_equivalence.py) holds the four evaluator
variants equal on random programs; these tests pin the cases one by one,
on both semi-naive engines and under observers, each step compared with naive evaluation — the
recompute oracle — on every table.
"""

import math

import pytest

from repro.overlog import OverlogRuntime
from repro.overlog.catalog import Table

# Each engine a semi-naive result must not depend on; "observed" is the
# source engine with the provenance ledger and an every-execution
# profiler attached.
ENGINES = {
    "source": {},
    "observed": {"provenance": True, "profile": True, "profile_sample_every": 1},
    "interpreter": {"engine": "interpreter"},
}


class Pair:
    """One program on a semi-naive engine and on the naive oracle, fed
    the same rows and compared on every table after every step."""

    def __init__(self, source: str, mode: str):
        self.rt = OverlogRuntime(source, **ENGINES[mode])
        self.oracle = OverlogRuntime(source, engine="naive")

    def step(self, *inserts):
        for rt in (self.rt, self.oracle):
            for rel, row in inserts:
                rt.insert(rel, row)
            rt.tick()
            while rt.has_pending_work:
                rt.tick()
            rt.tick()  # an end-of-step delete is seen by the next step
        for name in self.rt.catalog.tables:
            assert sorted(self.rt.rows(name), key=repr) == sorted(
                self.oracle.rows(name), key=repr
            ), name

    def fires(self, rule: str) -> int:
        return self.rt.evaluator.rule_fires.get(rule, 0)

    def rows(self, relation: str) -> list:
        return sorted(self.rt.rows(relation))


# -- displacement, deletion, emptied groups -----------------------------------

TASKS = """
program tasks;
define(task, keys(0, 1), {Int, Int, Str});
define(task_state, keys(0, 1), {Int, Int, Str});
define(maps_done_cnt, keys(0), {Int, Int});
m1 maps_done_cnt(J, count<T>) :-
        task(J, T, "map"), task_state(J, T, "done");
"""


@pytest.mark.parametrize("mode", list(ENGINES))
def test_displacement_in_a_keyed_body_table_moves_the_count_once(mode):
    p = Pair(TASKS, mode)
    p.step(*[("task", (1, t, "map")) for t in range(3)],
           *[("task_state", (1, t, "pending")) for t in range(3)])
    assert p.rows("maps_done_cnt") == []
    p.step(("task_state", (1, 0, "running")))
    assert p.fires("m1") == 0
    p.step(("task_state", (1, 0, "done")))
    assert p.rows("maps_done_cnt") == [(1, 1)] and p.fires("m1") == 1
    p.step(("task_state", (1, 1, "done")))
    assert p.rows("maps_done_cnt") == [(1, 2)] and p.fires("m1") == 2
    # A re-executed map (fetch failure) leaves the group again.
    p.step(("task_state", (1, 0, "pending")))
    assert p.rows("maps_done_cnt") == [(1, 1)] and p.fires("m1") == 3


VOTES = """
program votes;
define(votes, keys(0, 1, 2), {Int, Int, Str});
define(vote_cnt, keys(0, 1), {Int, Int, Int});
event(drop, 3);
event(drop_next, 3);
v2 vote_cnt(Bal, Inst, count<From>) :- votes(Bal, Inst, From);
x1 delete votes(B, I, F) :- drop(B, I, F), votes(B, I, F);
x2 delete votes(B, I, F)@next :- drop_next(B, I, F), votes(B, I, F);
"""


@pytest.mark.parametrize("mode", list(ENGINES))
def test_deleted_member_and_emptied_group(mode):
    p = Pair(VOTES, mode)
    p.step(("votes", (1, 1, "a")), ("votes", (1, 1, "b")),
           ("votes", (1, 2, "a")))
    assert p.rows("vote_cnt") == [(1, 1, 2), (1, 2, 1)]
    fires = p.fires("v2")
    p.step(("drop", (1, 1, "a")))
    assert p.rows("vote_cnt") == [(1, 1, 1), (1, 2, 1)]
    assert p.fires("v2") == fires + 1
    # The last member leaves: the group says nothing and its last head
    # row stays, exactly as a recompute leaves it (no view healing).
    p.step(("drop", (1, 1, "b")))
    assert p.rows("vote_cnt") == [(1, 1, 1), (1, 2, 1)]
    assert p.fires("v2") == fires + 1
    # ... and a group that comes back starts from nothing.
    p.step(("votes", (1, 1, "c")), ("votes", (1, 1, "d")))
    assert p.rows("vote_cnt") == [(1, 1, 2), (1, 2, 1)]


@pytest.mark.parametrize("mode", list(ENGINES))
def test_remove_and_reinsert_in_one_step_emits_nothing(mode):
    p = Pair(VOTES, mode)
    p.step(("votes", (1, 1, "a")), ("votes", (1, 1, "b")))
    fires = p.fires("v2")
    for rt in (p.rt, p.oracle):
        rt.insert("drop_next", (1, 1, "a"))
        rt.tick()
    # The @next delete applies at the start of this step, then the inbox
    # puts the very same row back: one retraction, one insertion, and a
    # fold that did not move.
    p.step(("votes", (1, 1, "a")))
    assert p.rows("vote_cnt") == [(1, 1, 2)]
    assert p.fires("v2") == fires


SIZES = """
program sizes;
define(fchunk, keys(0), {Str, Int, Int});
define(chunk_size, keys(0), {Str, Int});
define(file_size, keys(0), {Int, Int});
event(unlink, 1);
sz2 file_size(F, sum<S>) :- fchunk(Cid, F, _), chunk_size(Cid, S);
x1 delete fchunk(C, F, N)@next :- unlink(C), fchunk(C, F, N);
"""


@pytest.mark.parametrize("mode", list(ENGINES))
@pytest.mark.parametrize("resized", ["c1", "c2"])
def test_rows_leave_both_atoms_of_a_join_in_one_step(mode, resized):
    p = Pair(SIZES, mode)
    p.step(("fchunk", ("c1", 1, 0)), ("fchunk", ("c2", 1, 1)),
           ("chunk_size", ("c1", 10)), ("chunk_size", ("c2", 20)))
    assert p.rows("file_size") == [(1, 30)]
    for rt in (p.rt, p.oracle):
        rt.insert("unlink", ("c1",))
        rt.tick()
    # fchunk(c1) is deleted at the start of this step and a chunk_size
    # row is displaced in it.  With c1 resized the lost binding held a
    # lost row of both atoms, which neither retraction alone sees.
    p.step(("chunk_size", (resized, 25)))
    assert p.rows("file_size") == [(1, 20 if resized == "c1" else 25)]


# -- the distinct-bindings rule -------------------------------------------------

HIDDEN = """
program hidden;
define(t0, keys(), {Int, Int});
define(t1, keys(), {Int, Int});
define(k0, keys(0), {Int, Int});
define(d0, keys(), {Int, Int});
event(clear, 0);
a1 d0(V1, count<V3>) :- t1(_, _), k0(V1, V2), t0(V2, V3);
x1 delete t1(A, B) :- clear(), t1(A, B);
"""


@pytest.mark.parametrize("mode", list(ENGINES))
def test_all_wildcard_atom_counts_bindings_not_rows(mode):
    # The rule of differential seed 4: every t1 row maps to the same
    # binding, so a second one must not double the counts.
    p = Pair(HIDDEN, mode)
    p.step(("t1", (0, 0)), ("k0", (1, 5)), ("k0", (2, 5)),
           ("t0", (5, 7)), ("t0", (5, 8)), ("t0", (6, 9)))
    assert p.rows("d0") == [(1, 2), (2, 2)]
    p.step(("t1", (3, 3)), ("t1", (4, 4)))
    assert p.rows("d0") == [(1, 2), (2, 2)]
    p.step(("k0", (2, 6)))  # displaced: group 2 now joins t0(6, 9)
    assert p.rows("d0") == [(1, 2), (2, 1), (2, 2)]
    p.step(("clear", ()))  # every binding is gone; the rows stay
    assert p.rows("d0") == [(1, 2), (2, 1), (2, 2)]
    p.step(("t0", (5, 1)))
    assert p.rows("d0") == [(1, 2), (2, 1), (2, 2)]
    p.step(("t1", (9, 9)))
    assert p.rows("d0") == [(1, 2), (1, 3), (2, 1), (2, 2)]


CHUNK_SIZE = """
program chunk_size;
define(hb_chunk, keys(0, 1), {Str, Str, Int});
define(chunk_size, keys(0), {Str, Int});
event(dead, 1);
sz1 chunk_size(Cid, min<S>) :- hb_chunk(_, Cid, S);
d2 delete hb_chunk(Addr, C, S) :- dead(Addr), hb_chunk(Addr, C, S);
"""


@pytest.mark.parametrize("mode", list(ENGINES))
def test_two_datanodes_report_one_chunk_then_one_dies(mode):
    p = Pair(CHUNK_SIZE, mode)
    p.step(("hb_chunk", ("dn1", "c", 64)), ("hb_chunk", ("dn2", "c", 64)))
    assert p.rows("chunk_size") == [("c", 64)] and p.fires("sz1") == 1
    p.step(("dead", ("dn1",)))  # the binding (c, 64) still has dn2's row
    assert p.rows("chunk_size") == [("c", 64)] and p.fires("sz1") == 1
    p.step(("hb_chunk", ("dn2", "c", 32)))
    assert p.rows("chunk_size") == [("c", 32)] and p.fires("sz1") == 2
    assert "min@1: regroup" in OverlogRuntime(CHUNK_SIZE).explain("sz1")


# -- folds ----------------------------------------------------------------------

FOLDS = """
program folds;
define(obs, keys(0, 1), {Str, Int, Any});
define(lo, keys(0), {Str, Any});
define(hi, keys(0), {Str, Any});
define(all, keys(0), {Str, Any});
define(num, keys(0, 1), {Str, Int, Float});
define(mean, keys(0), {Str, Float});
define(total, keys(0), {Str, Float});
event(drop, 2);
f1 lo(K, min<V>) :- obs(K, I, V);
f2 hi(K, max<V>) :- obs(K, I, V);
f3 all(K, list<V>) :- obs(K, I, V);
f4 mean(K, avg<V>) :- num(K, I, V);
f5 total(K, sum<V>) :- num(K, I, V);
x1 delete obs(K, I, V) :- drop(K, I), obs(K, I, V);
x2 delete num(K, I, V) :- drop(K, I), num(K, I, V);
"""


@pytest.mark.parametrize("mode", list(ENGINES))
def test_min_and_max_losing_their_extreme(mode):
    p = Pair(FOLDS, mode)
    p.step(*[("obs", ("k", i, v)) for i, v in enumerate([5, 1, 9, 1, 9])])
    assert p.rows("lo") == [("k", 1)] and p.rows("hi") == [("k", 9)]
    fires = p.fires("f1")
    p.step(("drop", ("k", 1)))  # one of two 1s: the minimum holds
    assert p.rows("lo") == [("k", 1)] and p.fires("f1") == fires
    p.step(("drop", ("k", 3)), ("drop", ("k", 2)))
    assert p.rows("lo") == [("k", 5)] and p.rows("hi") == [("k", 9)]
    p.step(("obs", ("k", 4, 2)))  # displaces the last 9
    assert p.rows("lo") == [("k", 2)] and p.rows("hi") == [("k", 5)]


@pytest.mark.parametrize("mode", list(ENGINES))
def test_list_is_sorted_whatever_the_arrival_order(mode):
    p = Pair(FOLDS, mode)
    p.step(("obs", ("k", 0, "z")), ("obs", ("k", 1, "a")))
    p.step(("obs", ("k", 2, "m")), ("obs", ("k", 3, "a")))
    assert p.rows("all") == [("k", ("a", "a", "m", "z"))]
    p.step(("drop", ("k", 1)), ("obs", ("k", 0, "b")))
    assert p.rows("all") == [("k", ("a", "b", "m"))]


@pytest.mark.parametrize("mode", list(ENGINES))
def test_float_sums_are_exact_so_avg_equals_the_recompute_bit_for_bit(mode):
    # Float contributions accumulate as exact fractions: the fold is a
    # function of the group's bag of values, not of the order they came
    # and went in, so no tolerance is needed against the oracle (Pair
    # compares with ==) nor against math.fsum.
    values = [0.1, 0.2, 0.3, 0.7, 1e16, 0.1, -1e16, 3]
    p = Pair(FOLDS, mode)
    p.step(*[("num", ("k", i, v)) for i, v in enumerate(values)])
    assert p.rows("total") == [("k", math.fsum(values))]
    p.step(("drop", ("k", 4)), ("drop", ("k", 0)), ("num", ("k", 1, 0.25)))
    left = [0.25, 0.3, 0.7, 0.1, -1e16, 3]
    assert p.rows("total") == [("k", math.fsum(left))]
    assert p.rows("mean") == [("k", math.fsum(left) / len(left))]


# -- state lifetime -------------------------------------------------------------


@pytest.mark.parametrize("mode", list(ENGINES))
def test_state_is_rebuilt_after_install_and_after_add_rule(mode):
    p = Pair(VOTES, mode)
    p.step(("votes", (1, 1, "a")))
    for rt in (p.rt, p.oracle):
        rt.install("votes", [(1, 1, "b"), (1, 2, "a")])
    p.step()
    assert p.rows("vote_cnt") == [(1, 1, 2), (1, 2, 1)]
    p.step(("votes", (1, 2, "b")))
    assert p.rows("vote_cnt") == [(1, 1, 2), (1, 2, 2)]
    for rt in (p.rt, p.oracle):
        rt.add_rule("v3 vote_cnt(0, Inst, count<From>) :- votes(_, Inst, From);")
    p.step()
    assert p.rows("vote_cnt") == [(0, 1, 2), (0, 2, 2), (1, 1, 2), (1, 2, 2)]
    p.step(("drop", (1, 1, "a")), ("votes", (1, 3, "a")))
    assert p.rows("vote_cnt") == [
        (0, 1, 1), (0, 2, 2), (0, 3, 1), (1, 1, 1), (1, 2, 2), (1, 3, 1),
    ]


ANNOUNCE = """
program announce;
define(votes, keys(0, 1), {Int, Str});
define(heard, keys(), {Int, Int});
event(tally, 2);
event(drop, 2);
a1 tally(Inst, count<From>) :- votes(Inst, From);
a2 heard(Inst, N) :- tally(Inst, N);
x1 delete votes(I, F) :- drop(I, F), votes(I, F);
"""


@pytest.mark.parametrize("mode", list(ENGINES))
def test_event_head_over_stored_body_announces_every_live_group(mode):
    p = Pair(ANNOUNCE, mode)
    p.step(("votes", (1, "a")), ("votes", (2, "a")), ("votes", (3, "a")))
    assert p.fires("a1") == 3
    # An event is gone when its step ends, so every activation lists
    # every live group — from the state, touched or not.
    p.step(("votes", (1, "b")))
    assert p.fires("a1") == 6 and p.rows("heard")[-3:] == [(1, 2), (2, 1), (3, 1)]
    p.step(("drop", (3, "a")))  # emptied: group 3 is not live any more
    assert p.fires("a1") == 8


MUTED = """
program muted;
define(obs, keys(0, 1), {Str, Int});
define(mute, keys(0), {Str});
define(cnt, keys(), {Str, Int});
event(unmute, 1);
c1 cnt(K, count<V>) :- obs(K, V), notin mute(K);
x1 delete mute(K) :- unmute(K), mute(K);
"""


@pytest.mark.parametrize("mode", list(ENGINES))
def test_negation_in_the_body_falls_back_to_recompute(mode):
    # A row entering ``mute`` retracts bindings; no delta plan says so.
    p = Pair(MUTED, mode)
    p.step(("obs", ("k", 1)), ("obs", ("k", 2)), ("obs", ("j", 1)))
    p.step(("mute", ("k",)), ("obs", ("k", 3)), ("obs", ("j", 2)))
    assert p.rows("cnt") == [("j", 1), ("j", 2), ("k", 2)]
    p.step(("unmute", ("k",)))
    assert p.rows("cnt") == [("j", 1), ("j", 2), ("k", 2), ("k", 3)]
    assert "count@1: recompute" in OverlogRuntime(MUTED).explain("c1")


WINDOW = """
program window;
define(obs, keys(0, 1), {Str, Int, Int});
define(recent, keys(), {Str, Int});
w1 recent(K, count<V>) :- obs(K, V, T), f_now() - T < 100;
"""


@pytest.mark.parametrize("mode", list(ENGINES))
def test_impure_call_in_the_body_falls_back_to_recompute(mode):
    # A binding ages out of the window with no row moving: fold state
    # would count it for ever.
    for rt in (
        OverlogRuntime(WINDOW, **ENGINES[mode]),
        OverlogRuntime(WINDOW, engine="naive"),
    ):
        for v, now in [(1, 0), (2, 150), (3, 170)]:
            rt.insert("obs", ("k", v, now))
            rt.tick(now=now + 10)
        assert sorted(rt.rows("recent")) == [("k", 1), ("k", 2)]
    assert "count@1: recompute" in OverlogRuntime(WINDOW).explain("w1")


# -- legible plans ----------------------------------------------------------------


def test_explain_source_and_profiler_name_the_plans_and_fold_kinds():
    rt = OverlogRuntime(FOLDS, profile=True, profile_sample_every=1)
    text = rt.explain()
    for tag in ("[full]", "[delta@0]", "[retract@0]"):
        assert f"{tag} => aggregate [min@1: multiset]" in text
    assert "=> aggregate [list@1: refold]" in text
    assert "=> aggregate [avg@1: running]" in text
    assert "[retract@0] :: f5" in rt.generated_source("f5")
    assert "=> aggregate [sum@1: running]" in rt.generated_source("f5")
    # An event atom in the body: nothing is kept, so nothing retracts.
    per_step = OverlogRuntime(
        "program p; event(ballot, 2); event(tally, 2);\n"
        "a1 tally(Inst, count<From>) :- ballot(Inst, From);"
    )
    assert "count@1: per-step" in per_step.explain("a1")
    assert "retract@" not in per_step.explain("a1")
    for i, v in enumerate([3, 1, 2]):
        rt.insert("obs", ("k", i, v))
        rt.insert("num", ("k", i, v))
    rt.tick()  # the bootstrap step builds every state from its full plan
    rt.insert("drop", ("k", 1))
    rt.insert("obs", ("k", 7, 0))
    rt.tick()
    rt.tick()
    report = rt.profile_report(fmt="json")
    (f1,) = [r for r in report["rules"] if r["rule"] == "f1"]
    assert {p["tag"] for p in f1["plans"]} == {"full", "delta@0", "retract@0"}
    assert {p["fold"] for p in f1["plans"]} == {"min@1: multiset"}
    assert "[retract@0] => aggregate [min@1: multiset]" in rt.profile_report()


# -- history independence, as a count ---------------------------------------------


def _counted(action) -> int:
    """``Table.insert`` calls made while ``action`` runs."""
    calls = [0]
    real = Table.insert

    def counting(self, row):
        calls[0] += 1
        return real(self, row)

    Table.insert = counting
    try:
        action()
    finally:
        Table.insert = real
    return calls[0]


@pytest.mark.parametrize("mode", list(ENGINES))
def test_one_vote_costs_the_same_with_200_and_with_1600_groups(mode):
    costs = []
    for groups in (200, 1600):
        rt = OverlogRuntime(VOTES, **ENGINES[mode])
        for inst in range(groups):
            rt.insert("votes", (1, inst, "a"))
        rt.tick()
        fires = sum(rt.evaluator.rule_fires.values())

        def one_vote():
            rt.insert("votes", (1, 7, "b"))
            rt.tick()

        inserts = _counted(one_vote)
        costs.append((inserts, sum(rt.evaluator.rule_fires.values()) - fires))
        assert (1, 7, 2) in rt.rows("vote_cnt")
    assert costs[0] == costs[1] == (2, 1)  # the vote and its group's count


def _decree_cost(log_length: int) -> tuple[int, int]:
    """(Table.insert calls, rule fires) across a three-replica group for
    one Paxos decree proposed at the given log length, over a window of
    two ``px_tick`` periods."""
    from repro.paxos import PaxosReplica
    from repro.sim import Cluster, LatencyModel

    cluster = Cluster(seed=0, latency=LatencyModel(1, 0))
    group = ["p0", "p1", "p2"]
    replicas = [cluster.add(PaxosReplica(a, group)) for a in group]
    assert cluster.run_until(
        lambda: any(r.is_leader for r in replicas), max_time_ms=10_000
    )
    leader = next(r for r in replicas if r.is_leader)
    for n in range(log_length):
        leader.submit(("op", n))
        assert cluster.run_until(
            lambda: all(r.applied_through() == n + 1 for r in replicas),
            max_time_ms=cluster.now + 5_000,
        )
    # Start the window on a tick boundary so both runs see the same
    # number of heartbeat and retransmission ticks.
    cluster.run_for(600 - cluster.now % 300)

    def fires() -> int:
        return sum(
            sum(r.runtime.evaluator.rule_fires.values()) for r in replicas
        )

    before = fires()

    def one_decree():
        leader.submit(("op", "measured"))
        cluster.run_for(600)

    inserts = _counted(one_decree)
    assert all(r.applied_through() == log_length + 1 for r in replicas)
    return inserts, fires() - before


def test_one_paxos_decree_costs_the_same_at_log_length_200_and_1600():
    short, long = _decree_cost(200), _decree_cost(1600)
    assert short == long, f"{short} at 200 decrees, {long} at 1 600"
