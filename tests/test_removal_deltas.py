"""Removals are deltas: what the evaluator does when a row leaves a table.

A deletion or a primary-key displacement re-evaluates nothing in full.
Rules that read the relation positively have nothing to do (tables
persist, there is no view healing); a rule that reads it under ``notin``
is driven by the removed rows through its ``removed@k`` plan and fires
exactly the bindings the row was blocking, exactly once.  The
differential harness (test_plan_equivalence.py) holds the four evaluator
variants equal on random programs; these tests pin the cases one by one,
on both semi-naive engines and under observers, with ``f_newid()`` in the head so a second firing of a
binding would show as a second row.
"""

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

GUARDED = """
program guarded;
define(t, keys(), {Int});
define(u, keys(), {Int});
define(block, keys(0), {Int, Int});
define(out, keys(), {Int, Int});
event(unblock, 1);
g1 out(X, Id) :- t(X), u(X), notin block(X, _), Id := f_newid();
g2 delete block(X, V)@next :- unblock(X), block(X, V);
"""


def run(rt, *inserts):
    for rel, row in inserts:
        rt.insert(rel, row)
    rt.tick()


def settle(rt):
    while rt.has_pending_work:
        rt.tick()


@pytest.mark.parametrize("mode", list(ENGINES))
def test_removed_blocker_fires_the_blocked_binding_once(mode):
    rt = OverlogRuntime(GUARDED, **ENGINES[mode])
    run(rt, ("t", (1,)), ("t", (2,)), ("u", (1,)), ("u", (2,)),
        ("block", (1, 0)))
    assert [x for x, _ in rt.rows("out")] == [2]
    run(rt, ("unblock", (1,)))
    settle(rt)
    assert sorted(x for x, _ in rt.rows("out")) == [1, 2]
    assert rt.evaluator.rule_fires["g1"] == 2
    # Nothing is left to react to: later steps fire nothing.
    run(rt, ("unblock", (7,)))
    settle(rt)
    assert rt.evaluator.rule_fires["g1"] == 2


@pytest.mark.parametrize("mode", list(ENGINES))
def test_blocker_removed_and_body_row_inserted_in_one_step_fires_once(mode):
    rt = OverlogRuntime(GUARDED, **ENGINES[mode])
    run(rt, ("t", (1,)), ("block", (1, 0)))
    run(rt, ("unblock", (1,)))
    # The deferred delete and the missing body row arrive together: the
    # binding holds a row of this step, so it belongs to the insert delta
    # and the removal plan must leave it alone.
    run(rt, ("u", (1,)))
    settle(rt)
    assert [x for x, _ in rt.rows("out")] == [1]
    assert rt.evaluator.rule_fires["g1"] == 1


@pytest.mark.parametrize("mode", list(ENGINES))
def test_displacement_whose_new_row_still_blocks_fires_nothing(mode):
    rt = OverlogRuntime(GUARDED, **ENGINES[mode])
    run(rt, ("t", (1,)), ("u", (1,)), ("block", (1, 0)))
    run(rt, ("block", (1, 5)))  # displaces (1, 0); X = 1 stays blocked
    assert rt.rows("block") == [(1, 5)]
    assert rt.rows("out") == []
    assert rt.evaluator.rule_fires.get("g1", 0) == 0


@pytest.mark.parametrize("mode", list(ENGINES))
def test_remove_and_reinsert_in_one_step_fires_nothing(mode):
    rt = OverlogRuntime(GUARDED, **ENGINES[mode])
    run(rt, ("t", (1,)), ("u", (1,)), ("block", (1, 0)))
    run(rt, ("unblock", (1,)))
    # The @next delete applies at the start of this step, then the inbox
    # puts the very same row back.
    run(rt, ("block", (1, 0)))
    settle(rt)
    assert rt.rows("block") == [(1, 0)]
    assert rt.rows("out") == []
    assert rt.evaluator.rule_fires.get("g1", 0) == 0


TWO_NOTIN = """
program two;
define(pair, keys(), {Int, Int});
define(block, keys(), {Int});
define(out, keys(), {Int, Int});
event(unblock, 1);
p1 out(X, Y) :- pair(X, Y), notin block(X), notin block(Y);
p2 delete block(X) :- unblock(X), block(X);
"""


@pytest.mark.parametrize("mode", [*ENGINES, "naive"])
def test_two_notin_on_one_relation(mode):
    kwargs = ENGINES.get(mode, {"engine": mode})
    rt = OverlogRuntime(TWO_NOTIN, **kwargs)
    run(rt, ("pair", (1, 1)), ("pair", (1, 2)), ("pair", (3, 3)),
        ("block", (1,)), ("block", (2,)))
    assert rt.rows("out") == [(3, 3)]
    # One removed row hits both negated atoms of p1 at once: (1, 1) was
    # blocked through both and must appear, (1, 2) is still blocked by 2.
    run(rt, ("unblock", (1,)))
    run(rt)
    assert sorted(rt.rows("out")) == [(1, 1), (3, 3)]
    run(rt, ("unblock", (2,)))
    run(rt)
    assert sorted(rt.rows("out")) == [(1, 1), (1, 2), (3, 3)]


def test_removal_plans_in_explain_and_no_plan_for_event_rules():
    rt = OverlogRuntime(GUARDED)
    text = rt.explain("g1")
    assert "[removed@0]" in text
    # The plan is driven by the removed block rows, gets from there by
    # primary key and still runs the notin itself.
    removed = text[text.index("[removed@0]"):]
    assert removed.index("0. block: delta") < removed.index(
        "antijoin block: pk-get [0]"
    )
    # g2 reads an event: every binding holds a row of the current step,
    # so it never reacts to removals and gets no removal plan.
    assert "removed@" not in rt.explain("g2")


STALE = """
program stale;
define(kv, keys(0), {Int, Int});
define(seen, keys(), {Int, Int});
s1 seen(K, V) :- kv(K, V);
"""


@pytest.mark.parametrize("mode", [*ENGINES, "naive"])
def test_row_inserted_and_displaced_in_one_step_is_no_delta(mode):
    # Pinned from tests/test_naive_equivalence.py::
    # test_stateful_program_with_deferred_rules, which falsified with
    # bumps=[('aba', -1), ('aba', 88)]: the first row is dead before any
    # rule runs, so no rule may fire on it.
    kwargs = ENGINES.get(mode, {"engine": mode})
    rt = OverlogRuntime(STALE, **kwargs)
    run(rt)  # past the bootstrap step, which evaluates every rule in full
    run(rt, ("kv", (1, -1)), ("kv", (1, 88)))
    assert rt.rows("kv") == [(1, 88)]
    assert rt.rows("seen") == [(1, 88)]


# -- history independence, as a count ----------------------------------------


def _namespace(n_files: int):
    """A NameNode runtime holding ``n_files`` files in 8-file directories
    (``/d0`` .. ), installed directly; ids start high so the ids
    ``f_newid()`` mints stay clear of them."""
    from repro.boomfs.master import master_program

    rt = OverlogRuntime(
        master_program(), address="nn",
        extra_functions={"f_idscope": lambda: "nn"},
    )
    rt.install("file", [(0, -1, "", True)])
    rt.install("repfactor", [(2,)])
    rt.install("dn_timeout", [(3000,)])
    rows = []
    fid = 1_000_000
    for d in range(n_files // 8):
        did = fid
        rows.append((did, 0, f"d{d}", True))
        fid += 1
        for f in range(8):
            rows.append((fid, did, f"f{f}", False))
            fid += 1
    rt.install("file", rows)
    rt.tick()
    assert len(rt.rows("fqpath")) == len(rows) + 1
    return rt


def _op_cost(rt, monkeypatch, op, path, arg=None):
    """(Table.insert calls, rule fires, ok) for one client op, run until
    the NameNode is quiet."""
    calls = [0]
    real = Table.insert

    def counting(self, row):
        calls[0] += 1
        return real(self, row)

    fires_before = sum(rt.evaluator.rule_fires.values())
    with monkeypatch.context() as m:
        m.setattr(Table, "insert", counting)
        rt.insert("request", (1, "client", op, path, arg))
        sends = list(rt.tick().sends)
        while rt.has_pending_work:
            sends += rt.tick().sends
    (reply,) = [row for _dest, rel, row in sends if rel == "response"]
    fires = sum(rt.evaluator.rule_fires.values()) - fires_before
    return calls[0], fires, reply[2]


def test_write_cost_does_not_depend_on_namespace_size(monkeypatch):
    small, large = _namespace(1_000), _namespace(8_000)
    for op, path, arg in [
        ("create", "/d3/new", None),
        ("rm", "/d5", None),  # a directory and its 8 files
        ("mv", "/d7", "/moved"),  # re-derives 9 paths
        ("rm", "/d9/f2", None),
    ]:
        a = _op_cost(small, monkeypatch, op, path, arg)
        b = _op_cost(large, monkeypatch, op, path, arg)
        assert a[2] is True and b[2] is True, (op, a, b)
        assert a == b, f"{op}: {a} at 1 000 files, {b} at 8 000"
    assert small.rows("fqpath") != []
    assert "/d5/f0" not in dict(large.rows("fqpath"))
    assert "/moved/f7" in dict(large.rows("fqpath"))
