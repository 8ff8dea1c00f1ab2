"""E4 — NameNode metadata-operation throughput: BOOM-FS vs baseline.

The paper benchmarks NameNode metadata ops against stock HDFS.  On the
simulator, both masters speak the same protocol over the same network, so
we report two complementary measures:

* simulated throughput with a windowed asynchronous client (protocol
  behaviour: are the declarative master's responses equivalent?), and
* host CPU wall-time per operation (the real cost of evaluating Overlog
  rules versus hand-written dictionaries — the honest price of the
  declarative NameNode in this reproduction).
"""

import time

from harness import warm_plans, write_json_report, write_report

from repro.analysis import render_table
from repro.boomfs import BoomFSMaster
from repro.boomfs.client import FSSession
from repro.hadoop import BaselineNameNode
from repro.overlog import OverlogRuntime
from repro.sim import Cluster, LatencyModel, Process

TOTAL_OPS = 300
WINDOW = 8


class MetadataLoadGen(Process):
    """Keeps WINDOW metadata ops in flight until TOTAL_OPS complete."""

    def __init__(self, address, master, total_ops=TOTAL_OPS, window=WINDOW):
        super().__init__(address)
        self.session = FSSession(self, [master])
        self.total = total_ops
        self.window = window
        self.issued = 0
        self.completed = 0
        self.started_ms = None
        self.finished_ms = None

    def start(self) -> None:
        self.started_ms = self.now
        self.session.mkdir("/bench", self._after_mkdir)

    def _after_mkdir(self, ok, payload, retried) -> None:
        for _ in range(self.window):
            self._issue()

    def _issue(self) -> None:
        if self.issued >= self.total:
            return
        i = self.issued
        self.issued += 1
        # Mixed workload: 60% create, 20% exists, 20% ls.
        if i % 5 in (0, 1, 2):
            self.session.create(f"/bench/f{i}", self._done)
        elif i % 5 == 3:
            self.session.exists(f"/bench/f{max(0, i - 2)}", self._done)
        else:
            self.session.ls("/bench", self._done)

    def _done(self, ok, payload, retried) -> None:
        self.completed += 1
        if self.completed >= self.total:
            self.finished_ms = self.now
        else:
            self._issue()

    def handle_message(self, relation, row) -> None:
        if self.session.handles(relation):
            self.session.on_message(relation, row)

    @property
    def done(self) -> bool:
        return self.finished_ms is not None


def run_one(master_cls, repeats=3, batching=True):
    # Wall time is best-of-N: the minimum is the least-noise estimate of
    # the actual CPU cost on a shared host (sim results are deterministic
    # and identical across repeats).
    best_wall = None
    for _ in range(repeats):
        cluster = Cluster(latency=LatencyModel(1, 1), batching=batching)
        cluster.add(master_cls("master", replication=2))
        gen = cluster.add(MetadataLoadGen("loadgen", "master"))
        warm_plans(cluster)
        wall_start = time.perf_counter()
        ok = cluster.run_until(lambda: gen.done, max_time_ms=600_000)
        wall = time.perf_counter() - wall_start
        assert ok, "load generator did not finish"
        best_wall = wall if best_wall is None else min(best_wall, wall)
    sim_ms = gen.finished_ms - gen.started_ms
    stats = cluster.transport.stats
    return {
        "sim_ms": sim_ms,
        "sim_ops_per_s": TOTAL_OPS / (sim_ms / 1000),
        "wall_us_per_op": best_wall * 1e6 / TOTAL_OPS,
        "envelopes": stats.envelopes_sent,
        "deltas": stats.sent,
        "bytes": stats.bytes_sent,
    }


class MetricsOffMaster(BoomFSMaster):
    """Ablation: the always-on runtime metrics registry disabled."""

    METRICS = False


class InterpreterTierMaster(BoomFSMaster):
    """Ablation: the AST-walking reference interpreter, no plans."""

    def _make_runtime(self) -> OverlogRuntime:
        return OverlogRuntime(
            self._program,
            address=self.address,
            seed=self._seed,
            extra_functions=self._extra_functions,
            engine="interpreter",
        )


def run_experiment():
    return {
        # The two rows the headline ratio is computed from get extra
        # repeats: best-of-N wall time converges to the true CPU cost
        # as N grows, and these two are the ones a CI gate compares.
        "BOOM-FS (Overlog)": run_one(BoomFSMaster, repeats=5),
        # Evaluator ablation: the same rules run through the reference
        # interpreter, so the report shows what generated source buys.
        "BOOM-FS (interpreter tier)": run_one(InterpreterTierMaster),
        "BOOM-FS (metrics off)": run_one(MetricsOffMaster),
        # Ablation: flush-on-fixpoint envelope batching disabled — one
        # envelope per delta, the pre-transport wire behaviour.
        "BOOM-FS (batching off)": run_one(BoomFSMaster, batching=False),
        "Baseline (imperative)": run_one(BaselineNameNode, repeats=5),
    }


def build_report(results) -> str:
    rows = [
        [
            name,
            TOTAL_OPS,
            r["sim_ms"],
            round(r["sim_ops_per_s"]),
            round(r["wall_us_per_op"]),
            r["envelopes"],
            r["deltas"],
        ]
        for name, r in results.items()
    ]
    table = render_table(
        ["NameNode", "ops", "sim ms", "sim ops/s", "host us/op", "envs", "deltas"],
        rows,
        title="E4 -- metadata throughput (300 mixed ops, window=8)",
    )
    boom = results["BOOM-FS (Overlog)"]
    interp = results["BOOM-FS (interpreter tier)"]
    bare = results["BOOM-FS (metrics off)"]
    nobatch = results["BOOM-FS (batching off)"]
    base = results["Baseline (imperative)"]
    ratio = boom["wall_us_per_op"] / base["wall_us_per_op"]
    interp_x = interp["wall_us_per_op"] / boom["wall_us_per_op"]
    metrics_pct = (boom["wall_us_per_op"] / bare["wall_us_per_op"] - 1) * 100
    batch_factor = nobatch["envelopes"] / boom["envelopes"]
    return table + (
        f"\nSimulated throughput is protocol-bound and near-identical; the\n"
        f"declarative master costs {ratio:.1f}x more host CPU per op — the\n"
        f"interpretation overhead the paper also observed (JOL vs Java).\n"
        f"Engine ablation: the reference interpreter costs {interp_x:.1f}x\n"
        f"the generated-source engine per op.\n"
        f"Always-on runtime metrics add {metrics_pct:+.1f}% host CPU per op.\n"
        f"Flush-on-fixpoint batching sends {batch_factor:.1f}x fewer wire\n"
        f"messages for the same {boom['deltas']} deltas, at equal-or-better\n"
        f"simulated throughput."
    )


def test_e4_metadata_throughput(benchmark):
    results = benchmark.pedantic(run_experiment, rounds=1, iterations=1)
    report = build_report(results)
    write_report("e4_metadata_throughput", report)
    write_json_report("e4_metadata_throughput", results)
    sim_rates = [r["sim_ops_per_s"] for r in results.values()]
    assert max(sim_rates) / min(sim_rates) < 1.5  # protocol parity
    # The always-on metrics registry must stay cheap.  Measured cost is
    # ~2% per op; the gate is 25% because best-of-N wall times on a
    # virtualised host still jitter by 10-20% between the two runs.
    boom = results["BOOM-FS (Overlog)"]
    bare = results["BOOM-FS (metrics off)"]
    assert boom["wall_us_per_op"] < bare["wall_us_per_op"] * 1.25
    # Batching ablation: >= 3x fewer wire messages for the same deltas,
    # without giving up simulated throughput.
    nobatch = results["BOOM-FS (batching off)"]
    assert nobatch["deltas"] == boom["deltas"]
    assert nobatch["envelopes"] >= 3 * boom["envelopes"]
    assert boom["sim_ops_per_s"] >= nobatch["sim_ops_per_s"]
    # Headline cost of the declarative NameNode: the source engine
    # targets <= 3x the imperative baseline's us/op (typical measured
    # ratio 3.0-3.5 on a quiet host); 4.0 is the hard gate so shared-CI
    # scheduling noise cannot flake the suite.  check_e4_regression.py
    # enforces the tighter 20%-vs-committed-baseline bound.
    base = results["Baseline (imperative)"]
    assert boom["wall_us_per_op"] <= 4.0 * base["wall_us_per_op"]
    # Both engines must agree on protocol behaviour (identical sim
    # results), and stay ordered: generated source is never slower than
    # the interpreter it is checked against.
    interp = results["BOOM-FS (interpreter tier)"]
    assert interp["sim_ms"] == boom["sim_ms"]
    assert interp["deltas"] == boom["deltas"]
    assert boom["wall_us_per_op"] < interp["wall_us_per_op"]
