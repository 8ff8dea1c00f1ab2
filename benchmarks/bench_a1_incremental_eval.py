"""A1 (ablation) — what the evaluator's optimizations buy.

The engine's three throughput-critical design choices are (1) semi-naive
delta evaluation with exactly-once firing, (2) cross-step activity
gating (a rule is only re-seeded when a relation it reads changed), and
(3) compiled plans (each rule body lowered to generated Python source,
see docs/EVALUATOR.md).  ``engine="interpreter"`` keeps (1) and (2) but
walks the rule ASTs; ``engine="naive"`` disables all three.

Workload: grow a transitive closure one edge per timestep (the shape of
every recursive view in BOOM-FS, e.g. ``fqpath``) and count work.  The
workload is fully deterministic — naive re-evaluation is unsound for
programs calling nondeterministic builtins like ``f_newid()`` (each naive
round would mint fresh ids and the fixpoint diverges), which is itself a
finding this ablation documents.
"""

import time

from harness import warm_plans, write_json_report, write_report

from repro.analysis import render_table
from repro.overlog import OverlogRuntime

EDGES = 32

PROGRAM = """
program tc;
define(edge, keys(0, 1), {Int, Int});
define(reach, keys(0, 1), {Int, Int});
reach(X, Y) :- edge(X, Y);
reach(X, Z) :- edge(X, Y), reach(Y, Z);
"""


def run_one(engine: str = "source"):
    rt = OverlogRuntime(PROGRAM, engine=engine)
    warm_plans(rt)
    start = time.perf_counter()
    for i in range(EDGES):
        rt.insert("edge", (i, i + 1))
        rt.tick()
    wall = time.perf_counter() - start
    paths = len(rt.rows("reach"))
    assert paths == EDGES * (EDGES + 1) // 2
    return {"wall_ms": wall * 1000, "derivations": rt.total_derivations}


def run_experiment():
    return {
        "compiled plans (default)": run_one(),
        "semi-naive interpreter": run_one("interpreter"),
        "naive fixpoint": run_one("naive"),
    }


def build_report(results) -> str:
    default = results["compiled plans (default)"]
    rows = [
        [
            name,
            r["derivations"],
            round(r["wall_ms"], 1),
            f'{r["wall_ms"] / default["wall_ms"]:.1f}x',
        ]
        for name, r in results.items()
    ]
    table = render_table(
        ["evaluator", "derivations", "host ms", "relative"],
        rows,
        title=(
            f"A1 (ablation) -- evaluation strategy: {EDGES}-edge chain, "
            "one edge per timestep"
        ),
    )
    return table + (
        "\nNaive evaluation re-derives the whole closure on every step;\n"
        "incremental semi-naive evaluation is what keeps per-operation cost\n"
        "bounded as recursive views (like BOOM-FS's fqpath) grow, and\n"
        "compiling rules into generated source removes the AST walk from\n"
        "the remaining hot path.  Naive mode is also unsound for rules\n"
        "using f_newid()/f_uid() — the exactly-once firing discipline is a\n"
        "correctness feature, not just an optimization."
    )


def test_a1_incremental_eval(benchmark):
    results = benchmark.pedantic(run_experiment, rounds=1, iterations=1)
    report = build_report(results)
    write_report("a1_incremental_eval", report)
    write_json_report("a1_incremental_eval", results)
    compiled = results["compiled plans (default)"]
    interpreted = results["semi-naive interpreter"]
    naive = results["naive fixpoint"]
    assert compiled["wall_ms"] < interpreted["wall_ms"]
    assert compiled["wall_ms"] < naive["wall_ms"]
    # All three evaluators reach the same fixpoint with the same number of
    # materialized derivations.
    assert compiled["derivations"] == interpreted["derivations"]
    assert compiled["derivations"] == naive["derivations"]
