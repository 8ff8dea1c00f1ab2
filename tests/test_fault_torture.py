"""Torture tests: randomized fault schedules against live workloads, with
declarative invariants watching the whole time.

These are the "redundancy does not imply fault tolerance" tests: every
seed is a different interleaving of crashes/restarts with operations, and
the assertions are end-state properties (data survives, replicas agree,
invariants hold), not scripted timelines.
"""

import random

import pytest

from repro.boomfs import BoomFSClient, DataNode, FSError, FSTimeout
from repro.paxos import PaxosReplica, ReplicatedFSClient, ReplicatedMaster
from repro.sim import Cluster, LatencyModel

from .helpers import CheckedMaster


@pytest.mark.parametrize("seed", [1, 2, 3])
class TestDataNodeChurn:
    def test_fs_survives_datanode_churn_with_invariants(self, seed):
        rng = random.Random(seed)
        cluster = Cluster(seed=seed, latency=LatencyModel(1, 2))
        master = cluster.add(CheckedMaster("master", replication=2))
        for i in range(5):
            cluster.add(DataNode(f"dn{i}", masters=["master"], heartbeat_ms=300))
        fs = cluster.add(
            BoomFSClient("client", masters=["master"], op_timeout_ms=10_000)
        )
        cluster.run_for(900)
        fs.mkdir("/t")
        written = {}
        for i in range(10):
            data = bytes([i]) * rng.randrange(50, 400)
            fs.write(f"/t/f{i}", data)
            written[f"/t/f{i}"] = data
            # random churn: crash or restart a random datanode
            victim = f"dn{rng.randrange(5)}"
            if cluster.is_up(victim):
                cluster.crash(victim)
                cluster.restart_at(cluster.now + rng.randrange(500, 4000), victim)
            cluster.run_for(rng.randrange(200, 1500))
        # give re-replication time, then everything must be readable
        cluster.run_for(15_000)
        for path, data in written.items():
            assert fs.read(path) == data, path
        assert master.monitor.ok, master.monitor.violations


@pytest.mark.parametrize("seed", [4, 5, 6])
class TestPaxosChurn:
    def test_agreement_under_random_replica_churn(self, seed):
        rng = random.Random(seed)
        cluster = Cluster(seed=seed, latency=LatencyModel(1, 2))
        group = [f"p{i}" for i in range(5)]
        replicas = [cluster.add(PaxosReplica(a, group)) for a in group]
        cluster.run_until(
            lambda: any(r.is_leader for r in replicas if not r.crashed),
            max_time_ms=20_000,
        )
        submitted = 0
        for round_no in range(6):
            leaders = [r for r in replicas if not r.crashed and r.is_leader]
            if leaders:
                for k in range(3):
                    leaders[0].submit(("op", round_no, k))
                    submitted += 3 if k == 2 else 0
            # churn: keep a quorum (crash at most so 3 stay up)
            up = [r for r in replicas if not r.crashed]
            if len(up) > 3 and rng.random() < 0.7:
                victim = rng.choice([r.address for r in up])
                cluster.crash(victim)
            down = [r for r in replicas if r.crashed]
            if down and rng.random() < 0.6:
                cluster.restart(rng.choice(down).address)
            cluster.run_for(rng.randrange(1500, 4000))
        for r in replicas:
            if r.crashed:
                cluster.restart(r.address)
        cluster.run_for(20_000)
        # Agreement: every replica's log must be a consistent prefix-map.
        logs = [r.decided_log() for r in replicas]
        for inst in set().union(*logs):
            values = {log[inst] for log in logs if inst in log}
            assert len(values) == 1, f"instance {inst} diverged: {values}"
        # Liveness: at least the ops submitted while a stable leader held
        # must have been decided.
        assert len(logs[0]) > 0


@pytest.mark.parametrize("seed", [7, 8])
class TestReplicatedFSChurn:
    def test_replicated_namespace_converges_after_master_churn(self, seed):
        rng = random.Random(seed)
        cluster = Cluster(seed=seed, latency=LatencyModel(1, 2))
        group = ["m0", "m1", "m2"]
        masters = [
            cluster.add(ReplicatedMaster(a, group, replication=1))
            for a in group
        ]
        cluster.add(DataNode("dn0", masters=group, heartbeat_ms=300))
        fs = cluster.add(
            ReplicatedFSClient("client", group, op_timeout_ms=45_000)
        )
        cluster.run_until(
            lambda: any(m.is_leader for m in masters), max_time_ms=20_000
        )
        fs.mkdir("/w")
        created = []
        for i in range(6):
            name = f"/w/f{i}"
            try:
                fs.create(name)
                created.append(name)
            except (FSError, FSTimeout):
                pass  # op may be lost during an election; that's allowed
            # churn one master, keeping a quorum of 2
            up = [m for m in masters if not m.crashed]
            if len(up) == 3:
                victim = rng.choice(up).address
                cluster.crash(victim)
                cluster.restart_at(cluster.now + rng.randrange(2000, 6000), victim)
            cluster.run_for(rng.randrange(1000, 3000))
        for m in masters:
            if m.crashed:
                cluster.restart(m.address)
        cluster.run_for(25_000)
        namespaces = [m.paths() for m in masters]
        assert namespaces[0] == namespaces[1] == namespaces[2]
        for name in created:
            assert name in namespaces[0], f"acknowledged create {name} lost"
