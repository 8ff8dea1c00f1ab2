"""Unit tests for the source-codegen evaluator tier.

The differential suite (tests/test_plan_equivalence.py) proves the
generated functions *behave* identically to the closure tier; these
tests pin down what the emitter actually generates — access-path choice
(pk-get / probe / scan), delta-first loop order, negation and aggregate
shapes — plus the cache-invalidation and catalog regressions that ride
along with the tier:

* ``PlanCache.invalidate`` must flush generated source *and* the plan
  profiler's accumulated stats (a new program must never inherit
  same-named rules' timings or stale source text);
* ``Table.clear`` empties built single/composite indexes in place, so
  plan-cached index references stay correct across a clear-then-
  reinsert cycle without recounting ``index_builds``.
"""

from repro.overlog import OverlogRuntime, parse


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
        rt = make_runtime(JOIN_SRC, compile_mode="closure")
        assert "no generated source" in rt.generated_source()
        rt2 = make_runtime(JOIN_SRC, compile_mode="interpreter")
        assert "no generated source" in rt2.generated_source()

    def test_source_tier_is_the_default(self):
        rt = make_runtime(JOIN_SRC)
        assert rt.evaluator.compile_mode == "source"

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
        assert full.src_execute is not None and d0.src_execute is not None
        assert d1.source is None and d1.src_execute is None

    def test_showing_the_source_generates_the_rest(self):
        rt = make_runtime(PK_SRC)
        assert "delta@1" in rt.generated_source("p1")
        assert all(p.src_execute is not None for p in self._plans(rt).plans)
        assert rt.evaluator.planner.codegen_errors == 0

    def test_replicas_of_one_program_share_code_objects(self):
        a, b = make_runtime(JOIN_SRC), make_runtime(JOIN_SRC)
        for rt in (a, b):
            rt.insert("edge", (1, 2))
            rt.tick()
        fa = self._plans(a).full.src_execute
        fb = self._plans(b).full.src_execute
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
