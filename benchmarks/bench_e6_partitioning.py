"""E6 — Scale-out via NameNode partitioning (the paper's scalability fig).

The paper hash-partitions the FS metadata over several NameNodes and
shows metadata throughput scaling.  We model master CPU with a
per-derivation service time (so a single master is genuinely the
bottleneck) and drive the partitions with a windowed asynchronous client;
throughput is reported for 1, 2, 4 and 8 partitions.
"""

from harness import write_json_report, write_report

from repro.analysis import render_table
from repro.boomfs.client import FSSession
from repro.boomfs.partition import partition_of, partitioned_master
from repro.sim import Cluster, LatencyModel, Process

TOTAL_OPS = 240
WINDOW = 32
PER_DERIVATION_US = 400  # master CPU service time per derived tuple


class PartitionedLoadGen(Process):
    """Creates files round-robin, routed to the owning partition."""

    def __init__(self, address, masters, total_ops=TOTAL_OPS, window=WINDOW):
        super().__init__(address)
        import itertools

        rids = itertools.count(1)
        self.sessions = [
            FSSession(self, [m], rid_counter=rids) for m in masters
        ]
        self.total = total_ops
        self.window = window
        self.issued = 0
        self.completed = 0
        self.mkdirs_done = 0
        self.started_ms = None
        self.finished_ms = None

    def start(self) -> None:
        for session in self.sessions:
            session.mkdir("/bench", self._after_mkdir)

    def _after_mkdir(self, ok, payload, retried) -> None:
        self.mkdirs_done += 1
        if self.mkdirs_done == len(self.sessions):
            self.started_ms = self.now
            for _ in range(self.window):
                self._issue()

    def _issue(self) -> None:
        if self.issued >= self.total:
            return
        i = self.issued
        self.issued += 1
        path = f"/bench/f{i}"
        owner = self.sessions[partition_of(path, len(self.sessions))]
        owner.create(path, self._done)

    def _done(self, ok, payload, retried) -> None:
        self.completed += 1
        if self.completed >= self.total:
            self.finished_ms = self.now
        else:
            self._issue()

    def handle_message(self, relation, row) -> None:
        for session in self.sessions:
            if session.handles(relation):
                session.on_message(relation, row)

    @property
    def done(self) -> bool:
        return self.finished_ms is not None


def run_one(partitions: int):
    cluster = Cluster(latency=LatencyModel(1, 1))
    masters = []
    for p in range(partitions):
        masters.append(
            cluster.add(
                partitioned_master(
                    f"master{p}",
                    replication=1,
                    per_derivation_cost_us=PER_DERIVATION_US,
                )
            )
        )
    gen = cluster.add(
        PartitionedLoadGen("loadgen", [m.address for m in masters])
    )
    ok = cluster.run_until(lambda: gen.done, max_time_ms=600_000)
    assert ok, "load generator stalled"
    sim_ms = gen.finished_ms - gen.started_ms
    return sim_ms, TOTAL_OPS / (sim_ms / 1000)


def run_experiment():
    return {p: run_one(p) for p in (1, 2, 4, 8)}


def build_report(results) -> str:
    base_rate = results[1][1]
    rows = [
        [p, sim_ms, round(rate), round(rate / base_rate, 2)]
        for p, (sim_ms, rate) in results.items()
    ]
    table = render_table(
        ["partitions", "sim ms for 240 creates", "ops/s", "speedup"],
        rows,
        title=(
            "E6 / paper scale-out figure -- metadata throughput vs "
            "NameNode partitions"
        ),
    )
    return table + (
        f"\nWith master CPU modelled ({PER_DERIVATION_US}us/derivation), file"
        " creates spread\nacross partitions by path hash; throughput scales"
        " near-linearly until the\nwindowed client, not the masters, is the"
        " bottleneck — the paper's shape."
    )


def test_e6_partitioning(benchmark):
    results = benchmark.pedantic(run_experiment, rounds=1, iterations=1)
    report = build_report(results)
    write_report("e6_partitioning", report)
    write_json_report("e6_partitioning", results)
    assert results[2][1] > results[1][1] * 1.3  # 2 partitions help
    assert results[4][1] > results[1][1] * 1.8  # 4 partitions help more
