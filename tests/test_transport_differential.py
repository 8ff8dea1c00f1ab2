"""Differential harness: the simulator and asyncio backends must agree.

The tentpole guarantee of the pluggable transport is that programs are
backend-agnostic: for the same seeded workload, the discrete-event
simulator and the real-concurrency asyncio backend produce identical
final table states and identical send multisets (modulo delivery order).

Two workloads exercise that claim:

* a metadata workload — a confluent (CALM) sequence of BOOM-FS
  metadata operations, compared *exactly*: final master tables and the
  full multiset of ``(src, dst, relation, row)`` deltas, over queue
  endpoints for every seed and over TCP (the wire codec) for a fifth;
* seeded Paxos — leader election plus replicated submissions, compared
  on decided/applied state and the deduplicated set of protocol-relation
  deltas (timer-driven heartbeats/retransmits legitimately differ
  between virtual and real time, so they are excluded).
"""

import gc
import random
from collections import Counter

import pytest

from repro.boomfs import BoomFSMaster
from repro.boomfs.client import FSSession
from repro.paxos import PaxosReplica
from repro.sim import Cluster, LatencyModel, Process
from repro.transport import AsyncCluster

SEEDS = range(20)

# -- metadata workload --------------------------------------------------------


def _metadata_ops(seed: int, count: int = 25):
    """A seeded, deterministic metadata-op script (issued sequentially,
    so it is identical on any backend)."""
    rng = random.Random(seed)
    ops = [("mkdir", "/d0")]
    dirs = ["/d0"]
    files = []
    for i in range(count):
        roll = rng.random()
        if roll < 0.3:
            path = f"{rng.choice(dirs)}/d{i}"
            ops.append(("mkdir", path))
            dirs.append(path)
        elif roll < 0.6:
            path = f"{rng.choice(dirs)}/f{i}"
            ops.append(("create", path))
            files.append(path)
        elif roll < 0.8 and files:
            ops.append(("stat", rng.choice(files)))
        else:
            ops.append(("ls", rng.choice(dirs)))
    return ops


class _ScriptDriver(Process):
    """Replays a metadata-op script sequentially through an FSSession."""

    def __init__(self, address, master, ops):
        super().__init__(address)
        # Generous RPC timeout: on the async backend virtual time is real
        # time scaled, so a loaded host could otherwise trip spurious
        # retries and perturb the send multiset.
        self.session = FSSession(self, [master], rpc_timeout_ms=20_000)
        self.ops = list(ops)
        self.results = []
        self.done = False

    def start(self):
        self._next()

    def handle_message(self, relation, row):
        self.session.on_message(relation, row)

    def _next(self):
        if not self.ops:
            self.done = True
            return
        op, path = self.ops.pop(0)

        def cb(ok, payload, retried):
            self.results.append((op, path, ok, payload))
            self._next()

        getattr(self.session, op)(path, cb)


def _run_metadata(cluster, seed):
    cluster.transport.record_sends = True
    master = cluster.add(BoomFSMaster("master"))
    driver = cluster.add(
        _ScriptDriver("client", "master", _metadata_ops(seed))
    )
    ok = cluster.run_until(lambda: driver.done, max_time_ms=60_000)
    assert ok, "metadata script did not complete"
    tables = {
        rel: sorted(master.runtime.rows(rel))
        for rel in ("file", "fqpath", "fchunk", "chunk_cnt")
    }
    sends = Counter(cluster.transport.sent_log)
    results = driver.results
    cluster.shutdown()
    return tables, sends, results


def _assert_metadata_agrees(seed, tcp):
    sim_tables, sim_sends, sim_results = _run_metadata(
        Cluster(seed=seed, latency=LatencyModel(1, 2)), seed
    )
    async_tables, async_sends, async_results = _run_metadata(
        AsyncCluster(seed=seed, time_scale=10.0, tcp=tcp), seed
    )
    assert sim_tables == async_tables
    assert sim_results == async_results
    # Full send multisets: every (src, dst, relation, row) delta with its
    # multiplicity — delivery *order* is the only latitude backends get.
    assert sim_sends == async_sends


@pytest.mark.parametrize("seed", SEEDS)
def test_metadata_workload_backends_agree(seed):
    _assert_metadata_agrees(seed, tcp=False)


@pytest.mark.parametrize("seed", SEEDS[::4])
def test_metadata_workload_backends_agree_over_tcp(seed):
    # Every delta crosses a socket through the wire codec.
    _assert_metadata_agrees(seed, tcp=True)


# -- Paxos workload -----------------------------------------------------------

PROTOCOL_RELATIONS = {
    "prepare",
    "promise",
    "promise_acc",
    "accept_req",
    "accepted",
    "decide_msg",
}


def _run_paxos(cluster, seed, n=3, ops=5):
    cluster.transport.record_sends = True
    group = [f"p{i}" for i in range(n)]
    # A huge stagger pins the election outcome (p0) on any backend:
    # elections are otherwise a timing race that virtual and real time
    # may legitimately resolve differently.
    replicas = [
        cluster.add(
            PaxosReplica(
                a,
                group,
                base_election_timeout_ms=300,
                election_stagger_ms=60_000,
            )
        )
        for a in group
    ]
    ok = cluster.run_until(
        lambda: any(r.is_leader for r in replicas), max_time_ms=30_000
    )
    assert ok, "no leader elected"
    leader = next(r for r in replicas if r.is_leader)
    rng = random.Random(seed)
    # Sequential submissions: slot assignment becomes order-independent,
    # so decided logs are comparable across backends.
    for i in range(ops):
        leader.submit(("op", i, rng.randrange(1000)))
        ok = cluster.run_until(
            lambda want=i + 1: all(
                r.applied_through() == want for r in replicas
            ),
            max_time_ms=60_000,
        )
        assert ok, f"op {i} did not replicate everywhere"
    state = {
        "leader": leader.address,
        "logs": [r.decided_log() for r in replicas],
        "applied": [r.applied_through() for r in replicas],
    }
    # Deduplicate: virtual vs real time legitimately changes *how often*
    # timer-driven retransmits fire, never *what* the protocol says.
    protocol_sends = {
        entry
        for entry in cluster.transport.sent_log
        if entry[2] in PROTOCOL_RELATIONS
    }
    cluster.shutdown()
    return state, protocol_sends


@pytest.mark.parametrize("seed", SEEDS)
def test_paxos_backends_agree(seed):
    sim_state, sim_sends = _run_paxos(
        Cluster(seed=seed, latency=LatencyModel(1, 2)), seed
    )
    # The real-time half races a 60 ms election timeout (300 ms scaled by
    # 5): a full collection of the test runner's own heap takes about as
    # long, and one landing between p0's candidacy and its quorum makes
    # p0 stand again at ballot 6 — legitimate Paxos, but not the run the
    # simulator made.  Collect after the run instead of during it.
    gc.disable()
    try:
        async_state, async_sends = _run_paxos(
            AsyncCluster(seed=seed, time_scale=5.0), seed
        )
    finally:
        gc.enable()
    assert sim_state == async_state
    assert sim_sends == async_sends
