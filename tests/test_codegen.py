"""Unit tests for the source engine.

The differential suite (tests/test_plan_equivalence.py) proves the
generated functions *behave* identically to the interpreter; these
tests pin down what the emitter actually generates — access-path choice
(pk-get / probe / scan), delta-first loop order, negation and aggregate
shapes, that ``explain()`` names the access path the generated code
uses, and that a shape the emitter declines runs through the
interpreter — plus the cache-invalidation and catalog regressions that
ride along:

* ``PlanCache.invalidate`` must flush generated source *and* the plan
  profiler's accumulated stats (a new program must never inherit
  same-named rules' timings or stale source text);
* ``Table.clear`` empties built single/composite indexes in place, so
  plan-cached index references stay correct across a clear-then-
  reinsert cycle without recounting ``index_builds``.
"""

import re

import pytest

from repro.boomfs.master import master_program
from repro.mapreduce.jobtracker import scheduler_program
from repro.overlog import OverlogRuntime, parse
from repro.paxos.replica import paxos_program


def make_runtime(src: str, **kwargs) -> OverlogRuntime:
    return OverlogRuntime(parse("program t;\n" + src), address="n0", **kwargs)


JOIN_SRC = """
define(edge, keys(), {Int, Int});
define(path2, keys(), {Int, Int});
j1 path2(X, Z) :- edge(X, Y), edge(Y, Z);
"""

PK_SRC = """
define(fq, keys(0), {Str, Int});
event(req, 2);
define(hit, keys(), {Str, Int});
p1 hit(P, F) :- req(_, P), fq(P, F);
"""

NEG_SRC = """
define(a, keys(), {Int});
define(b, keys(), {Int});
define(only_a, keys(), {Int});
n1 only_a(X) :- a(X), notin b(X);
"""

AGG_SRC = """
define(item, keys(), {Int, Int});
define(per_group, keys(), {Int, Int});
g1 per_group(G, count<V>) :- item(G, V);
"""


class TestGeneratedSource:
    def test_join_rule_emits_plan_per_delta_position(self):
        rt = make_runtime(JOIN_SRC)
        src = rt.generated_source("j1")
        # One generated function per delta position of the join, plus the
        # full recompute, each annotated with its access path.
        assert "def _" in src
        assert "delta@0" in src and "delta@1" in src
        assert "edge: probe" in src or "edge: scan" in src

    def test_pk_lookup_recognized(self):
        rt = make_runtime(PK_SRC)
        src = rt.generated_source("p1")
        # fq has keys(0) and the join binds exactly that column: the
        # emitter must use the primary-key dict, not a scan or index.
        assert "pk-get [0]" in src
        assert "lookup_key" in src

    def test_delta_plan_starts_at_the_delta_atom(self):
        rt = make_runtime(JOIN_SRC)
        src = rt.generated_source("j1")
        # delta@1 is driven by the second edge atom: its loop over the
        # delta rows is outermost and the first atom becomes an index
        # probe on the column the delta bound, never a scan x delta.
        d1 = src[src.index("[delta@1]"):]
        header = d1[:d1.index("def ")]
        assert header.index("edge: delta") < header.index("edge: probe [1]")
        assert "scan" not in header

    def test_negation_compiles_to_membership_check(self):
        rt = make_runtime(NEG_SRC)
        src = rt.generated_source("n1")
        assert "notin b" in src

    def test_aggregate_emits_group_fold(self):
        rt = make_runtime(AGG_SRC)
        src = rt.generated_source("g1")
        assert "agg" in src
        assert "count" in rt.explain("g1")

    def test_lower_tiers_have_no_source(self):
        for engine in ("interpreter", "naive"):
            rt = make_runtime(JOIN_SRC, engine=engine)
            assert "no generated source" in rt.generated_source()

    def test_source_tier_is_the_default(self):
        rt = make_runtime(JOIN_SRC)
        assert rt.evaluator.engine == "source"

    def test_unknown_engine_is_refused(self):
        with pytest.raises(ValueError, match="engine"):
            make_runtime(JOIN_SRC, engine="closure")

    def test_generated_functions_actually_run(self):
        rt = make_runtime(JOIN_SRC)
        for row in [(1, 2), (2, 3), (3, 4)]:
            rt.insert("edge", row)
        rt.tick()
        assert sorted(rt.rows("path2")) == [(1, 3), (2, 4)]


class TestLazyGeneration:
    """Source is generated when a plan first runs, emitted and compiled
    once per process for the same rule over the same tables, and forced
    by everything that shows it."""

    def _plans(self, rt):
        (rule,) = rt.rules
        return rt.evaluator.planner.plans_for(rule)

    def test_install_generates_nothing_and_first_run_generates_one_plan(self):
        rt = make_runtime(PK_SRC)
        plans = self._plans(rt)
        assert all(p.source is None for p in plans.plans)
        rt.tick()  # bootstrap: the full plan runs
        rt.insert("req", (1, "/a"))
        rt.tick()  # delta@0 (req) runs; delta@1 (fq) never has
        full, d0, d1 = plans.plans
        assert full.plain is not None and d0.plain is not None
        assert d1.source is None and d1.plain is None

    def test_showing_the_source_generates_the_rest(self):
        rt = make_runtime(PK_SRC)
        assert "delta@1" in rt.generated_source("p1")
        assert all(p.plain is not None for p in self._plans(rt).plans)
        assert rt.evaluator.planner.codegen_errors == 0

    def test_replicas_of_one_program_share_code_objects(self):
        a, b = make_runtime(JOIN_SRC), make_runtime(JOIN_SRC)
        for rt in (a, b):
            rt.insert("edge", (1, 2))
            rt.tick()
        fa = self._plans(a).full.plain
        fb = self._plans(b).full.plain
        assert fa is not fb and fa.__code__ is fb.__code__
        # ... each bound to its own runtime's tables.
        b.insert("edge", (2, 3))
        b.tick()
        assert a.rows("path2") == [] and b.rows("path2") == [(1, 3)]

    def test_same_rule_text_over_another_schema_is_generated_afresh(self):
        # Same rule, but fq is keyed differently: the pk-get of the one
        # program would be wrong for the other.
        keyed = make_runtime(PK_SRC)
        unkeyed = make_runtime(PK_SRC.replace("keys(0)", "keys()"))
        assert "pk-get [0]" in keyed.generated_source("p1")
        assert "pk-get" not in unkeyed.generated_source("p1")
        assert "fq: probe [0]" in unkeyed.generated_source("p1")


class TestInvalidateFlushes:
    """Satellite: PlanCache.invalidate drops profiler stats + source."""

    def _warm(self):
        rt = make_runtime(JOIN_SRC, profile=True, profile_sample_every=1)
        for row in [(1, 2), (2, 3)]:
            rt.insert("edge", row)
        rt.tick()
        planner = rt.evaluator.planner
        profiler = rt.evaluator._profiler
        assert planner.generated, "expected cached generated source"
        assert profiler._stats, "expected profiler samples after a tick"
        return rt, planner, profiler

    def test_invalidate_flushes_source_and_profiler(self):
        _, planner, profiler = self._warm()
        planner.invalidate()
        assert planner.generated == {}
        assert planner.plans == []
        assert profiler._stats == {}

    def test_rule_swap_reaches_invalidate_then_recompiles(self):
        rt, planner, profiler = self._warm()
        stale = dict(planner.generated)
        rt.add_rule("j2 path2(X, Y) :- edge(X, Y);")
        # The swap flushed old stats and regenerated source for the new
        # rule set — including the rule added after initial compile.
        assert profiler._stats == {}
        assert any(rule == "j2" for rule, _tag in planner.generated)
        assert set(stale) <= set(planner.generated)
        rt.tick()
        assert (1, 2) in rt.rows("path2")


class TestClearThenReinsert:
    """Satellite: Table.clear keeps plan-cached index references valid."""

    def test_clear_empties_indexes_in_place_without_rebuild(self):
        rt = make_runtime(JOIN_SRC)
        table = rt.catalog.table("edge")
        for row in [(1, 2), (1, 3), (2, 3)]:
            table.insert(row)
        single = table.ensure_single_index(0)
        composite = table.ensure_index((0, 1))
        builds = table.index_builds
        table.clear()
        # Same dict objects, emptied in place; no rebuild counted.
        assert table.ensure_single_index(0) is single
        assert table.ensure_index((0, 1)) is composite
        assert not single and not composite
        assert table.index_builds == builds
        table.insert((5, 6))
        assert single[5] == {(5, 6)}
        assert composite[(5, 6)] == {(5, 6)}
        assert table.index_builds == builds

    def test_compiled_plan_correct_across_clear_reinsert(self):
        rt = make_runtime(JOIN_SRC)
        for row in [(1, 2), (2, 3)]:
            rt.insert("edge", row)
        rt.tick()
        assert sorted(rt.rows("path2")) == [(1, 3)]
        # Wipe the base table out from under the compiled plan's cached
        # index references, then drive fresh rows through the same plans.
        rt.catalog.table("edge").clear()
        rt.catalog.table("path2").clear()
        for row in [(7, 8), (8, 9)]:
            rt.insert("edge", row)
        rt.tick()
        assert sorted(rt.rows("path2")) == [(7, 9)]
        assert sorted(rt.rows("edge")) == [(7, 8), (8, 9)]


# -- explain() names what runs -------------------------------------------------

SHIPPED = {
    "boomfs_master": master_program,
    "boom_mr": scheduler_program,
    "paxos": paxos_program,
}

# How each access path reads as a line of generated code.
_ACCESS_CODE = [
    ("pk-get", re.compile(r"= _tbl_(\w+)\.lookup_key\(")),
    ("probe", re.compile(r"in _tbl_(\w+)\.rows_matching_(?:ref|cols)\(")),
    ("scan", re.compile(r"in _tbl_(\w+)\.rows_list\(\)")),
    ("scan-events", re.compile(r"in ev\._event_pool\.get\('([^']+)'")),
    ("delta", re.compile(r"in (delta_rows):")),
]


def code_accesses(source: str) -> list[tuple[str, str]]:
    """(kind, relation) per row access of a plan's first generated
    function, in code order; a delta loop names no relation."""
    first = source.split("\ndef ", 2)[1]
    out = []
    for line in first.splitlines():
        for kind, pattern in _ACCESS_CODE:
            m = pattern.search(line)
            if m:
                out.append((kind, "" if kind == "delta" else m.group(1)))
    return out


def explained_accesses(plan) -> list[tuple[str, str]]:
    """(kind, relation) per atom / antijoin step of ``explain()``."""
    out = []
    for line in plan.explain().splitlines()[1:]:
        step = line.split(". ", 1)[1]
        if ": " not in step:
            continue  # assign / check / filter
        name, path = step.removeprefix("antijoin ").split(": ", 1)
        kind = path.split(" ")[0]
        out.append((kind, "" if kind == "delta" else name))
    return out


@pytest.mark.parametrize("program", list(SHIPPED))
def test_explain_names_the_access_path_the_generated_code_uses(program):
    rt = OverlogRuntime(SHIPPED[program](), address="n0")
    plans = [p for rp in rt.evaluator.planner.plans for p in rp.plans]
    assert plans
    for plan in plans:
        text = plan.explain()
        assert "interpreted" not in text, text
        assert explained_accesses(plan) == code_accesses(plan.source), (
            plan.rule.name, text, plan.source
        )
        # The source header lists the same step lines.
        notes = [
            line[4:] for line in plan.source.splitlines()
            if re.match(r"#   \d+\. ", line)
        ]
        assert notes == [line[2:] for line in text.splitlines()[1:]]


def test_boomfs_r2_gets_file_by_primary_key():
    rt = OverlogRuntime(master_program(), address="n0")
    (rule,) = [r for r in rt.rules if r.name == "r2"]
    full = rt.evaluator.planner.plans_for(rule).full
    assert "file: pk-get [0]" in full.explain()
    assert "_tbl_file.lookup_key(" in full.source


# -- shapes the emitter declines run through the interpreter -----------------------

TWO_IDS = """
define(item, keys(), {Int});
define(tagged, keys(), {Int, Int, Int});
t1 tagged(X, A, B) :- item(X), A := f_newid(), B := f_newid();
"""


def test_two_order_sensitive_sites_fall_back_to_the_interpreter():
    rows = {}
    for engine in ("source", "interpreter"):
        rt = make_runtime(TWO_IDS, engine=engine)
        for batch in ([1, 2, 3], [4, 5]):
            for x in batch:
                rt.insert("item", (x,))
            rt.tick()
        rows[engine] = sorted(rt.rows("tagged"))
    assert rows["source"] == rows["interpreter"]
    assert len({a for _, a, _ in rows["source"]}) == 5

    rt = make_runtime(TWO_IDS)
    assert "no generated source" in rt.generated_source("t1")
    assert "interpreted (2 order-sensitive call sites)" in rt.explain("t1")
    assert rt.evaluator.planner.codegen_errors == 2  # full and delta@0
