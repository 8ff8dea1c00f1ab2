"""Unit tests for the plan layer (:mod:`repro.overlog.plan`).

The differential harness (test_plan_equivalence.py) proves the generated
source *behaves* like the reference; these tests pin down the plans
themselves: the access path each step of ``explain()`` names (the one
the generated function uses), the body order, that composite indexes
are built once and then maintained, that the plan cache is invalidated
on rule installation, and that wildcard-join dedup survives compilation.
"""

import pytest

from repro.overlog import OverlogRuntime
from repro.overlog.plan import (
    _SRC_DELTA,
    _SRC_NORMAL,
    _SRC_POST_DELTA,
    body_order,
)

# Each engine a semi-naive result must not depend on; "observed" is the
# source engine with the provenance ledger and an every-execution
# profiler attached.
ENGINES = {
    "source": {},
    "observed": {"provenance": True, "profile": True, "profile_sample_every": 1},
    "interpreter": {"engine": "interpreter"},
}

JOIN_PROGRAM = """
program plans;
define(a, keys(0, 1), {Int, Int});
define(b, keys(0, 1, 2), {Int, Int, Int});
define(out, keys(0, 1), {Int, Int});
r1 out(X, Z) :- a(X, Y), b(Y, Z, X);
r2 out(X, X) :- b(3, X, _);
"""


def rule_named(rt: OverlogRuntime, name: str):
    (rule,) = [r for r in rt.rules if r.name == name]
    return rule


def plans_for(rt: OverlogRuntime, name: str):
    return rt.evaluator.planner.plans_for(rule_named(rt, name))


def steps_of(plan) -> list[str]:
    """The step lines of a plan's ``explain()``, without their index."""
    return [line.split(". ", 1)[1] for line in plan.explain().splitlines()[1:]]


# -- index / probe selection -------------------------------------------------


def test_most_bound_probe_uses_all_bound_columns():
    rt = OverlogRuntime(JOIN_PROGRAM)
    full = plans_for(rt, "r1").full
    # a(X, Y) opens the join: nothing is bound yet, so it must scan.
    # b(Y, Z, X): Y and X are bound, Z is not -> composite probe on (0, 2),
    # not the reference evaluator's first-single-column probe.
    assert steps_of(full) == ["a: scan", "b: probe [0, 2]"]


def test_constant_columns_are_probed():
    rt = OverlogRuntime(JOIN_PROGRAM)
    full = plans_for(rt, "r2").full
    # b(3, X, _): the constant column is probeable even with nothing bound.
    assert steps_of(full) == ["b: probe [0] [dedup]"]


def test_delta_plans_shift_sources():
    rt = OverlogRuntime(JOIN_PROGRAM)
    plans = plans_for(rt, "r1")
    d0, d1 = plans.by_pos
    # delta@0: a is the delta (never probed); b sits after the delta, so
    # it reads the full view minus the delta (semi-naive exclusion) —
    # still through the composite probe.
    assert steps_of(d0) == ["a: delta", "b: probe [0, 2] \\ delta"]
    # delta@1 also *starts* at its delta atom, b; a is written before
    # the delta, so it keeps the plain full view of its textual position,
    # and b binds its whole key: one primary-key get instead of a scan.
    assert steps_of(d1) == ["b: delta", "a: pk-get [0, 1]"]
    assert "[delta@0]" in d0.explain()


def test_composite_index_built_once_and_maintained():
    rt = OverlogRuntime(JOIN_PROGRAM)
    rt.insert_many("a", [(1, 2), (4, 5)])
    rt.insert_many("b", [(2, 9, 1), (5, 8, 4), (5, 8, 0)])
    rt.tick()
    b = rt.catalog.table("b")
    # The bootstrap step full-evaluates every rule: r1 builds the (0, 2)
    # composite, r2 builds the single-column (0,) index.  Exactly once each.
    assert b.index_builds == 2
    assert sorted(rt.rows("out")) == [(1, 9), (4, 8)]
    # Later inserts maintain both indexes in place instead of rebuilding.
    rt.insert("b", (2, 7, 1))
    rt.insert("a", (0, 5))
    rt.tick()
    assert b.index_builds == 2
    assert sorted(rt.rows("out")) == [(0, 8), (1, 7), (1, 9), (4, 8)]


def test_ensure_index_is_idempotent():
    rt = OverlogRuntime(JOIN_PROGRAM)
    b = rt.catalog.table("b")
    b.insert((1, 2, 3))
    b.insert((1, 2, 4))
    first = b.ensure_index((0, 2))
    assert b.index_builds == 1
    assert b.ensure_index((0, 2)) is first
    assert b.index_builds == 1
    assert b.rows_matching_cols((0, 2), (1, 3)) == [(1, 2, 3)]
    b.delete((1, 2, 3))
    assert b.rows_matching_cols((0, 2), (1, 3)) == []
    assert b.index_builds == 1


# -- plan cache lifecycle ----------------------------------------------------


def test_plans_are_reused_across_timesteps():
    rt = OverlogRuntime(JOIN_PROGRAM)
    planner = rt.evaluator.planner
    assert planner.compile_count == 1  # compiled eagerly at install
    rt.insert("a", (1, 2))
    rt.tick()
    rt.insert("b", (2, 0, 1))
    rt.tick()
    assert planner.compile_count == 1


def test_add_rule_invalidates_and_recompiles():
    rt = OverlogRuntime(JOIN_PROGRAM)
    planner = rt.evaluator.planner
    rt.insert_many("a", [(1, 2), (3, 4)])
    rt.tick()
    rt.add_rule("r3 out(X, 0) :- a(X, _);")
    assert planner.compile_count == 2
    # The new rule must see facts that were already materialized.
    rt.tick()
    assert (1, 0) in rt.rows("out") and (3, 0) in rt.rows("out")
    # ... and participates in normal incremental evaluation afterwards.
    rt.insert("a", (5, 6))
    rt.tick()
    assert (5, 0) in rt.rows("out")


def test_program_swap_drops_stale_plans():
    rt = OverlogRuntime(JOIN_PROGRAM)
    planner = rt.evaluator.planner
    old_rule = rule_named(rt, "r1")
    old_plan = planner.plans_for(old_rule)
    rt.evaluator.set_rules(rt.rules)  # swap in an equal rule set
    assert planner.compile_count == 2
    assert planner.plans_for(rule_named(rt, "r1")) is not old_plan


def test_explain_renders_plans():
    rt = OverlogRuntime(JOIN_PROGRAM)
    text = rt.explain()
    assert "[full]" in text and "[delta@0]" in text
    only_r2 = rt.explain("r2")
    assert "r2" in only_r2 and "r1" not in only_r2
    interpreted = OverlogRuntime(JOIN_PROGRAM, engine="interpreter")
    assert "no compiled plans" in interpreted.explain()


# -- semantics that must survive compilation ---------------------------------


def test_wildcard_join_dedup_survives_compilation():
    # t(X, _) projects away the second column; the two t(1, *) rows must
    # collapse to ONE environment *before* f_newid runs, or the compiled
    # path would mint extra ids (the reference evaluator fires once per
    # distinct binding, which nondeterministic builtins rely on).
    program = """
    program wild;
    define(t, keys(0, 1), {Int, Int});
    define(out, keys(0, 1), {Int, Int});
    rw out(Id, X) :- t(X, _), Id := f_newid();
    """
    rt = OverlogRuntime(program)
    rt.insert_many("t", [(1, 10), (1, 20), (2, 30)])
    rt.tick()
    rows = rt.rows("out")
    assert len(rows) == 2
    assert sorted(x for _, x in rows) == [1, 2]
    ids = [i for i, _ in rows]
    assert len(set(ids)) == 2


@pytest.mark.parametrize("compiled", [True, False])
def test_negation_probe_matches_reference(compiled):
    program = """
    program neg;
    define(t, keys(0, 1), {Int, Int});
    define(block, keys(0, 1), {Int, Int});
    define(out, keys(0, 1), {Int, Int});
    rn out(X, Y) :- t(X, Y), notin block(X, Y);
    """
    rt = OverlogRuntime(
        program, engine="source" if compiled else "interpreter"
    )
    rt.insert_many("t", [(1, 2), (3, 4)])
    rt.insert("block", (3, 4))
    rt.tick()
    assert rt.rows("out") == [(1, 2)]
    if compiled:
        plan = plans_for(rt, "rn").full
        assert steps_of(plan) == ["t: scan", "antijoin block: pk-get [0, 1]"]


def test_post_delta_exclusion_still_applies_with_probe():
    # Self-join u(X, Y), u(Y, Z): with delta at position 0, position 1
    # reads the full view MINUS the delta (semi-naive exclusion) and still
    # goes through the composite probe.  A pair only derivable from two
    # delta rows must come from the delta@1 plan, not twice.
    program = """
    program selfjoin;
    define(u, keys(0, 1), {Int, Int});
    define(p, keys(0, 1), {Int, Int});
    rs p(X, Z) :- u(X, Y), u(Y, Z);
    """
    rt = OverlogRuntime(program)
    rt.insert_many("u", [(1, 2), (2, 3)])
    rt.tick()
    assert sorted(rt.rows("p")) == [(1, 3)]
    fires = dict(rt.evaluator.rule_fires)
    interp = OverlogRuntime(program, engine="interpreter")
    interp.insert_many("u", [(1, 2), (2, 3)])
    interp.tick()
    assert dict(interp.evaluator.rule_fires) == fires


# -- body ordering -------------------------------------------------------------

ORDER_PROGRAM = """
program order;
define(big, keys(0), {Int, Int});
define(cfg, keys(0), {Int, Int});
define(link, keys(0, 1), {Int, Int});
define(block, keys(), {Int});
define(out, keys(), {Int, Int});
event(req, 2);
o1 out(A, V) :- big(A, B), cfg(B, C), link(C, D), req(D, _), V := A + D;
o2 out(A, K) :- big(A, B), K := B + 1, cfg(K, _), link(A, _);
o3 out(A, 0) :- big(A, B), link(B + 1, A);
o4 out(A, 1) :- big(A, _), notin block(Z), link(A, Z);
"""


def test_driven_plans_pick_events_then_bound_keys_then_most_bound():
    rt = OverlogRuntime(ORDER_PROGRAM)
    plans = plans_for(rt, "o1")
    # The full plan is the body as written.
    assert [line.split(":")[0] for line in steps_of(plans.full)[:4]] == [
        "big", "cfg", "link", "req"
    ]
    # delta@2 starts at link(C, D); of the rest, the event atom goes
    # first, then cfg (no key bound, one column) beats big (none), which
    # cfg then binds the join column of.
    assert steps_of(plans.by_pos[2]) == [
        "link: delta",
        "req: scan-events \\ delta [dedup]",
        "cfg: probe [1]",
        "big: probe [1]",
        "assign V",
    ]
    # Every atom kept the view of where it was *written*: big and cfg
    # before the delta atom (full), req after it (full minus delta).
    order = body_order(rule_named(rt, "o1"), ("delta", 2), rt.catalog)
    assert [(elem.name, view) for elem, view in order[:4]] == [
        ("link", _SRC_DELTA), ("req", _SRC_POST_DELTA),
        ("cfg", _SRC_NORMAL), ("big", _SRC_NORMAL),
    ]


def test_atom_waits_for_the_assignment_that_binds_its_variable():
    rt = OverlogRuntime(ORDER_PROGRAM)
    d2 = plans_for(rt, "o2").by_pos[2]  # driven by link(A, _)
    # cfg(K, _) would have its key bound only once K := B + 1 has run,
    # and that needs big: so big, the assignment, then the pk-bound cfg.
    assert steps_of(d2) == [
        "link: delta [dedup]", "big: pk-get [0]", "assign K", "cfg: pk-get [0]"
    ]


@pytest.mark.parametrize("name", ["o3", "o4"])
def test_bodies_that_pin_textual_order(name):
    # o3 has a computed atom argument; o4 reads Z under notin before
    # link binds it (existential there).  Neither may be reordered, and
    # no removed row may drive o4.
    rt = OverlogRuntime(ORDER_PROGRAM)
    rule = rule_named(rt, name)
    plans = plans_for(rt, name)
    for plan in (plans.full, *plans.by_pos):
        order = body_order(rule, plan.drive, rt.catalog)
        assert [elem for elem, _view in order] == list(rule.body)
    assert plans.by_removed == {}


@pytest.mark.parametrize("mode", list(ENGINES))
def test_reordered_and_pinned_bodies_agree_with_naive_evaluation(mode):
    def run(**kwargs):
        rt = OverlogRuntime(ORDER_PROGRAM, **kwargs)
        batches = [
            [("big", (1, 2)), ("big", (2, 3)), ("cfg", (2, 5)),
             ("cfg", (3, 7)), ("link", (5, 9)), ("link", (3, 1)),
             ("block", (4,))],
            [("req", (9, 0)), ("link", (1, 4)), ("link", (7, 9))],
            [("big", (3, 1)), ("link", (2, 3)), ("req", (9, 1))],
            [("cfg", (2, 7)), ("link", (3, 4)), ("req", (9, 2))],
        ]
        for batch in batches:
            for rel, row in batch:
                rt.insert(rel, row)
            rt.tick()
        return sorted(rt.rows("out"))

    assert run(**ENGINES[mode]) == run(engine="naive")
