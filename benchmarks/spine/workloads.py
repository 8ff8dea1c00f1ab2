"""The five spine workloads: build, preload, drive, check.

Each workload is a :class:`Workload` with two steps.  ``generate`` turns
the seed into inputs (op lists with expected replies, the corpus) using
only :mod:`generator`.  ``execute`` builds the cluster, runs the set-up
phase, drives the measured phase from one process and one thread, checks
every output and returns a :class:`RunResult` of raw observations; the
metric arithmetic lives in :mod:`metrics`.

Run length is a fixed op count, ``rate * seconds``: ``rate`` is frozen
here so every commit does identical work for a given ``--seconds``.
Times are raw ``perf_counter_ns`` readings; an untraced run also gets a
:class:`hostclock.HostClock`, sampled at the start of the measured phase
and ``SEGMENTS`` times during it, with which :mod:`metrics` normalises
them afterwards.
"""

from __future__ import annotations

import dataclasses
import gc
import random
from dataclasses import dataclass, field
from time import perf_counter, perf_counter_ns
from typing import Any, Callable, Optional

from generator import SETTLE, WINDOW, Op, OpGenerator, make_corpus, reply_matches
from repro.boomfs import BoomFSMaster, DataNode
from repro.boomfs.client import FSError, FSSession
from repro.hadoop import BaselineNameNode
from repro.mapreduce import JobRunner, JobSpec, build_mr_cluster, local_wordcount
from repro.paxos import ReplicatedMaster
from repro.sim import Cluster, LatencyModel, Process
from repro.transport.asyncio_backend import AsyncCluster

# Transport-clock ceiling for one phase; ops still unanswered then count
# as failed.  The TCP clock is the host's, and a run must end in 180 s.
PHASE_LIMIT_MS = {"sim": 600_000, "async": 150_000}
# Host-speed samples during a measured phase (about four a second: the
# host's dips are that short) and during a preload of under a second.
SEGMENTS = 64
PRELOAD_SEGMENTS = 8


@dataclass
class RunResult:
    """Raw observations of one execution of a workload."""

    ops: int = 0  # ops in the measured phase
    phase_start_ns: int = 0  # host clock when the measured phase began
    wall_ns: int = 0  # host time of the measured phase, samples included
    stage_s: float = 0.0  # MapReduce input staging, part of set-up
    attempted: int = 0
    failed: int = 0
    retried: int = 0  # measured-phase ops that needed a resend
    # Per measured op, in op-list order: its kind, the host clock at issue
    # and at callback (what the client observes), and the same interval
    # on the transport clock.
    kinds: list[str] = field(default_factory=list)
    start_ns: list[int] = field(default_factory=list)
    end_ns: list[int] = field(default_factory=list)
    virtual_ms: list[int] = field(default_factory=list)
    # Deltas over the measured phase: transport stats fields, overlog
    # "ticks"/"derivations", simulator "events".
    counters: dict[str, int] = field(default_factory=dict)
    rows_live: int = 0
    index_builds: int = 0
    # Traced runs: the tracer's ledger for set-up and for the measured phase.
    setup_ledger: Any = None
    ledger: Any = None
    extras: dict[str, float] = field(default_factory=dict)
    problems: list[str] = field(default_factory=list)

    def fail(self, count: int, message: str) -> None:
        if count:
            self.failed += count
            self.problems.append(message)

    @property
    def latency_ns(self) -> list[int]:
        return [end - start for start, end in zip(self.start_ns, self.end_ns)]


class LoadClient(Process):
    """Drives an op list through an :class:`FSSession`.

    Closed loop by default: ``WINDOW`` ops outstanding, each reply issues
    the next.  With ``interval_ms`` it is an open loop: one op per
    interval whatever the replies do, each op timed from its due time.
    Every reply is compared with the generator's sequential model.
    """

    def __init__(
        self,
        address: str,
        masters: list[str],
        ops: list[Op],
        tracer=None,
        interval_ms: Optional[int] = None,
        encode_request=None,
        rpc_timeout_ms: int = 400,
    ):
        super().__init__(address)
        self.session = FSSession(
            self, masters, rpc_timeout_ms=rpc_timeout_ms,
            encode_request=encode_request,
        )
        self.ops = ops
        self.layer_tracer = tracer
        self.interval_ms = interval_ms
        self.issued = 0
        self.completed = 0
        self.mismatched = 0
        self.retried = 0
        self.start_ns = [0] * len(ops)  # by op index
        self.end_ns = [0] * len(ops)
        self.virtual_ms = [0] * len(ops)
        self.served_at: list[tuple[int, int]] = []  # (due virtual ms, done virtual ms)
        self._in_flight: set[int] = set()
        self.max_in_flight_span = 0

    def begin(self) -> None:
        """Schedule the first issue inside the event loop."""
        if self.interval_ms is None:
            self.after(0, lambda: [self._issue() for _ in range(WINDOW)])
        else:
            self.after(0, self._issue_on_schedule)

    def _issue_on_schedule(self) -> None:
        self._issue()
        if self.issued < len(self.ops):
            self.after(self.interval_ms, self._issue_on_schedule)

    def _issue(self) -> None:
        index = self.issued
        if index >= len(self.ops):
            return
        self.issued = index + 1
        op = self.ops[index]
        # The generator only promises settled paths while the in-flight
        # ops stay close together in the list.
        in_flight = self._in_flight
        if in_flight:
            self.max_in_flight_span = max(
                self.max_in_flight_span, index - min(in_flight)
            )
        in_flight.add(index)
        due_ms = self.now
        start = perf_counter_ns()

        def on_reply(ok: bool, payload: Any, retried: bool) -> None:
            end = perf_counter_ns()
            in_flight.discard(index)
            self.completed += 1
            self.start_ns[index] = start
            self.end_ns[index] = end
            done_ms = self.now
            self.virtual_ms[index] = done_ms - due_ms
            self.served_at.append((due_ms, done_ms))
            if retried:
                self.retried += 1
            if not reply_matches(op, ok, payload, retried):
                self.mismatched += 1
            tracer = self.layer_tracer
            if tracer is not None:
                tracer.progress = self.completed
                tracer.client_span(op.kind, self.address, rid, start, end)
            if self.interval_ms is None:
                self._issue()

        rid = self.session.rpc(op.kind, op.path, op.arg, on_reply)

    def handle_message(self, relation: str, row: tuple) -> None:
        if self.session.handles(relation):
            self.session.on_message(relation, row)

    @property
    def done(self) -> bool:
        return self.completed >= len(self.ops)


def _drive(cluster, client: LoadClient, clock=None, segments: int = SEGMENTS) -> None:
    """Add ``client`` and run until every op is answered (or the phase
    limit passes; unanswered ops are counted by :func:`_account`).  With
    a ``clock`` the event loop is left ``segments`` times on the way, at
    equal op counts, to sample the host's speed."""
    cluster.add(client)
    client.begin()
    limit = cluster.now + PHASE_LIMIT_MS[cluster.backend]
    total = len(client.ops)
    edges = {total * k // segments for k in range(1, segments + 1)}
    for edge in sorted(edges) if clock is not None else [total]:
        cluster.run_until(lambda: client.completed >= edge, limit)
        if clock is not None:
            clock.sample()


def _account(result: RunResult, client: LoadClient, settled: bool = True) -> None:
    """Fold a finished (or stuck) client's checks into the result."""
    result.attempted += len(client.ops)
    result.fail(len(client.ops) - client.completed, f"{client.address}: ops never answered")
    result.fail(client.mismatched, f"{client.address}: replies contradict the model")
    if settled and client.max_in_flight_span >= SETTLE:
        result.fail(1, f"{client.address}: in-flight ops spread past the settle distance")


def _overlog_nodes(cluster) -> list:
    return [p for p in cluster.processes.values() if hasattr(p, "runtime")]


def _snapshot(cluster) -> dict[str, int]:
    counters = dataclasses.asdict(cluster.transport.stats)
    nodes = _overlog_nodes(cluster)
    counters["ticks"] = sum(p.runtime.step_count for p in nodes)
    counters["derivations"] = sum(p.runtime.total_derivations for p in nodes)
    sim = getattr(cluster, "sim", None)
    counters["events"] = sim.events_processed if sim is not None else 0
    return counters


def _record(result: RunResult, client: LoadClient) -> None:
    """Copy the measured client's per-op observations into the result."""
    result.retried = client.retried
    result.kinds = [op.kind for op in client.ops]
    result.start_ns = client.start_ns
    result.end_ns = client.end_ns
    result.virtual_ms = client.virtual_ms


def _measure(result: RunResult, cluster, tracer, clock, body: Callable[[], None]) -> None:
    """Run the measured phase: counters and wall time are deltas over it."""
    gc.collect()
    before = _snapshot(cluster)
    if tracer is not None:
        result.setup_ledger = tracer.snapshot()
        tracer.reset()
    if clock is not None:
        clock.sample()
    result.phase_start_ns = start = perf_counter_ns()
    body()
    result.wall_ns = perf_counter_ns() - start
    if tracer is not None:
        result.ledger = tracer.snapshot()
    after = _snapshot(cluster)
    result.counters = {key: after[key] - before[key] for key in after}
    tables = [
        table
        for node in _overlog_nodes(cluster)
        for table in node.runtime.catalog.tables.values()
    ]
    result.rows_live = sum(len(table) for table in tables)
    result.index_builds = sum(table.index_builds for table in tables)


@dataclass
class Workload:
    name: str
    backend: str  # "sim" | "async-tcp"
    rate: float  # measured ops per second of --seconds (frozen)
    primary_nodes: frozenset  # overlog nodes under test (tick attribution)
    generate: Callable[[int, int], Any]  # (seed, ops) -> inputs
    execute: Callable[..., RunResult]  # (inputs, seed, tracer, clock)
    has_baseline: bool = False

    def op_count(self, seconds: float, smoke: bool) -> int:
        count = self.rate * seconds
        return max(1, round(count / 50 if smoke else count))


# -- BOOM-FS metadata workloads ----------------------------------------------------

READ_MIX = {"exists": 60, "ls": 25, "stat": 5, "create": 10}
CHURN_MIX = {"create": 30, "rm": 30, "mv": 15, "mkdir": 5, "exists": 10, "ls": 10}


def _fs_inputs(num_dirs: int, num_files: int, mix: dict[str, int]):
    def generate(seed: int, ops: int):
        gen = OpGenerator(seed)
        preload = gen.preload(num_dirs, num_files)
        return preload, gen.generate(ops, mix), gen.ns

    return generate


def _fs_execute(tcp: bool):
    def execute(
        inputs, seed: int, tracer=None, clock=None, master_cls=BoomFSMaster
    ) -> RunResult:
        preload, ops, model = inputs
        result = RunResult(ops=len(ops))
        if tcp:
            cluster = AsyncCluster(seed=seed, tcp=True, time_scale=1.0)
        else:
            cluster = Cluster(seed=seed, latency=LatencyModel(1, 3))
        try:
            master = cluster.add(master_cls("master", replication=2))
            for i in range(2):
                cluster.add(DataNode(f"dn{i}", masters=["master"]))
            cluster.run_until(
                lambda: len(master.live_datanodes()) == 2, cluster.now + 10_000
            )
            loader = LoadClient("preload", ["master"], preload)
            _drive(cluster, loader, clock, PRELOAD_SEGMENTS)
            _account(result, loader, settled=False)

            client = LoadClient("load", ["master"], ops, tracer=tracer)
            _measure(result, cluster, tracer, clock, lambda: _drive(cluster, client, clock))
            _account(result, client)
            _record(result, client)
            if set(master.paths()) != model.paths():
                result.fail(1, "final namespace differs from the model")
        finally:
            cluster.shutdown()
        return result

    return execute


# -- Paxos-replicated NameNode --------------------------------------------------------

PAXOS_GROUP = ["m0", "m1", "m2"]
PAXOS_DIRS = 64
PAXOS_MIX = {"create": 50, "exists": 30, "ls": 20}
FAILOVER_INTERVAL_MS = 20
FAILOVER_OPS_AFTER_CRASH = 200


def _paxos_generate(seed: int, ops: int):
    gen = OpGenerator(seed)
    preload = gen.preload(PAXOS_DIRS, PAXOS_DIRS)  # one file each, for exists
    phase_a = gen.generate(ops, PAXOS_MIX)
    # Phase B replies must not depend on order: retries reorder ops
    # around the crash.  Creates go to one half of the directories,
    # reads to the other half, which nothing writes any more.
    half = PAXOS_DIRS // 2
    rng = random.Random(seed)
    before_crash = rng.randrange(40, 100)
    phase_b = gen.generate(
        before_crash + FAILOVER_OPS_AFTER_CRASH,
        PAXOS_MIX,
        read_pool=gen.ns.dirs[half:PAXOS_DIRS],
        write_pool=gen.ns.dirs[:half],
    )
    crash_offset_ms = before_crash * FAILOVER_INTERVAL_MS + rng.randrange(
        FAILOVER_INTERVAL_MS
    )
    return preload, phase_a, phase_b, crash_offset_ms, gen.ns


def _client_op(master: str, row: tuple) -> tuple[str, tuple]:
    return "client_op", (master, row)


def _paxos_execute(inputs, seed: int, tracer=None, clock=None) -> RunResult:
    preload, phase_a, phase_b, crash_offset_ms, model = inputs
    result = RunResult(ops=len(phase_a))
    cluster = Cluster(seed=seed, latency=LatencyModel(1, 3))
    masters = [
        cluster.add(ReplicatedMaster(a, PAXOS_GROUP, replication=2))
        for a in PAXOS_GROUP
    ]
    for i in range(2):
        cluster.add(DataNode(f"dn{i}", masters=PAXOS_GROUP))
    cluster.run_until(lambda: any(m.is_leader for m in masters), 30_000)

    def client(address: str, ops: list[Op], **kwargs) -> LoadClient:
        return LoadClient(
            address, PAXOS_GROUP, ops,
            encode_request=_client_op, rpc_timeout_ms=800, **kwargs,
        )

    loader = client("preload", preload)
    _drive(cluster, loader, clock, PRELOAD_SEGMENTS)
    _account(result, loader, settled=False)

    # Phase A: closed loop, every op a decree.
    load_a = client("load", phase_a, tracer=tracer)
    leaders: list[str] = []
    lag_max = 0

    def watch_replicas() -> None:
        # Traced runs only: every 100 virtual ms note who leads and how
        # far the slowest live replica trails.
        nonlocal lag_max
        live = [m for m in masters if not m.crashed]
        applied = [m.applied_through() for m in live]
        lag_max = max(lag_max, max(applied) - min(applied))
        for m in live:
            if m.is_leader and (not leaders or leaders[-1] != m.address):
                leaders.append(m.address)
        cluster.schedule(100, watch_replicas)

    if tracer is not None:
        watch_replicas()
    _measure(result, cluster, tracer, clock, lambda: _drive(cluster, load_a, clock))
    _account(result, load_a)
    _record(result, load_a)
    # Followers apply a decree a message delay after the leader.
    cluster.run_until(
        lambda: len({m.applied_through() for m in masters}) == 1,
        cluster.now + 10_000,
    )
    agreed = {frozenset(m.paths()) for m in masters}
    if len(agreed) != 1:
        result.fail(1, "replicas disagree after phase A")

    # Phase B: open loop, the leader dies at a seeded instant.
    leader = next(m for m in masters if m.is_leader)
    load_b = client("failover", phase_b, interval_ms=FAILOVER_INTERVAL_MS)
    crash_ms = cluster.now + crash_offset_ms
    cluster.crash_at(crash_ms, leader.address)
    _drive(cluster, load_b)
    _account(result, load_b, settled=False)
    served_after = [done for due, done in load_b.served_at if due >= crash_ms]
    if served_after:
        result.extras["failover_virtual_ms"] = min(served_after) - crash_ms
    result.extras["paxos.follower_lag_max"] = lag_max
    result.extras["paxos.leader_changes"] = max(0, len(leaders) - 1)

    # All three replicas must end with the model's namespace: bring the
    # old leader back and let it replay the decided log.
    cluster.restart(leader.address)
    cluster.run_until(
        lambda: len({m.applied_through() for m in masters}) == 1
        and all(len(m.paths()) == len(model.paths()) for m in masters),
        cluster.now + 120_000,
    )
    want = model.paths()
    for m in masters:
        if set(m.paths()) != want:
            result.fail(1, f"{m.address}: final namespace differs from the model")
    return result


# -- BOOM-MR wordcount ---------------------------------------------------------------

MR_TRACKERS = 8
MR_MAPS = 64
MR_WORDS_PER_MAP = 500
MR_REDUCES = 8
MR_SAMPLE_EVERY_MS = 1000  # virtual; a job lasts about 4 500


def _mr_generate(seed: int, jobs: int):
    return make_corpus(seed, MR_MAPS, MR_WORDS_PER_MAP), jobs


def _wordcount_map(_lineno: int, line: str) -> list[tuple[str, int]]:
    return [(word, 1) for word in line.split()]


def _wordcount_reduce(key: str, values: list) -> list[tuple[str, int]]:
    return [(key, sum(values))]


def _mr_execute(inputs, seed: int, tracer=None, clock=None) -> RunResult:
    datasets, jobs = inputs
    result = RunResult(ops=jobs, attempted=jobs)
    map_fn, reduce_fn = _wordcount_map, _wordcount_reduce
    if tracer is not None:
        map_fn = tracer.span("mapreduce.user_fn", "map", map_fn)
        reduce_fn = tracer.span("mapreduce.user_fn", "reduce", reduce_fn)
    # No latency jitter, unlike the other workloads and unlike
    # build_mr_cluster's default LatencyModel(1, 2): with jitter two
    # trackers' heartbeats can reach the JobTracker in one timestep, its
    # FIFO rules hand both the same reduce task, and when the twins'
    # creates share a NameNode fixpoint the output file is corrupted
    # (README, finding 4).  The driver's contract wants workloads on
    # which no operation fails at any seed, and that bug fails a job on
    # most seeds; without jitter the trackers' staggered heartbeats never
    # coincide.  Restore the default here once the bug is fixed.
    mr = build_mr_cluster(
        num_trackers=MR_TRACKERS,
        seed=seed,
        latency=LatencyModel(1, 0, kb_per_ms=2000),
    )
    runner = JobRunner(mr)
    cluster = mr.cluster

    def sample_host() -> None:
        # Staging and each job are one run_until inside the program: reach
        # between its events with a timer, about five times a job.
        clock.sample()
        cluster.schedule(MR_SAMPLE_EVERY_MS, sample_host)

    if clock is not None:
        cluster.schedule(MR_SAMPLE_EVERY_MS, sample_host)
    stage_started = perf_counter()
    paths = runner.stage_inputs("/in", datasets)
    result.stage_s = perf_counter() - stage_started
    job_ids: list[int] = []

    def run_jobs() -> None:
        for j in range(jobs):
            spec = JobSpec(
                job_id=0,
                inputs=paths,
                num_reduces=MR_REDUCES,
                map_func=map_fn,
                reduce_func=reduce_fn,
                output_dir=f"/out/j{j}",
            )
            start = perf_counter_ns()
            try:
                job = runner.run_job(spec)
            except TimeoutError as exc:
                result.fail(1, str(exc))
                continue
            end = perf_counter_ns()
            result.kinds.append("job")
            result.start_ns.append(start)
            result.end_ns.append(end)
            result.virtual_ms.append(job.duration_ms)
            job_ids.append(job.job_id)
            if tracer is not None:
                tracer.progress = j + 1
                tracer.client_span("job", "runner", job.job_id, start, end)

    _measure(result, cluster, tracer, clock, run_jobs)
    # The NameNode learns where the last outputs live from the DataNodes'
    # next chunk reports.
    cluster.run_for(1000)
    want = local_wordcount(datasets)
    wrong = 0
    for j in range(len(job_ids)):
        try:
            wrong += runner.fetch_output(f"/out/j{j}") != want
        except FSError:
            wrong += 1  # an output that cannot be read is a wrong output
    result.fail(wrong, "wordcount output differs from local_wordcount")
    tasks = len(job_ids) * (MR_MAPS + MR_REDUCES)
    jt = mr.jobtracker
    result.extras["mapreduce.tasks"] = tasks
    result.extras["mapreduce.attempts"] = sum(len(jt.attempts(j)) for j in job_ids)
    return result


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "fs_read_sim", "sim", 9600, frozenset({"master"}),
            _fs_inputs(256, 4096, READ_MIX), _fs_execute(tcp=False),
            has_baseline=True,
        ),
        Workload(
            "fs_read_tcp", "async-tcp", 9600, frozenset({"master"}),
            _fs_inputs(256, 4096, READ_MIX), _fs_execute(tcp=True),
        ),
        Workload(
            "fs_churn_sim", "sim", 400, frozenset({"master"}),
            _fs_inputs(128, 4000, CHURN_MIX), _fs_execute(tcp=False),
            has_baseline=True,
        ),
        Workload(
            "paxos_meta_sim", "sim", 150, frozenset(PAXOS_GROUP),
            _paxos_generate, _paxos_execute,
        ),
        Workload(
            "mr_wordcount_sim", "sim", 2.1, frozenset({"jobtracker"}),
            _mr_generate, _mr_execute,
        ),
    )
}


def run_baseline(workload: Workload, inputs, seed: int) -> RunResult:
    """The same op list against the imperative NameNode."""
    return workload.execute(inputs, seed, master_cls=BaselineNameNode)
