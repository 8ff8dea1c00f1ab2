"""Tests for Overlog Paxos and the Paxos-replicated NameNode."""


from repro.boomfs import DataNode
from repro.paxos import PaxosReplica, ReplicatedFSClient, ReplicatedMaster
from repro.sim import Cluster, LatencyModel


def make_group(n=3, seed=0, loss_rate=0.0):
    cluster = Cluster(seed=seed, latency=LatencyModel(1, 2), loss_rate=loss_rate)
    group = [f"p{i}" for i in range(n)]
    replicas = [cluster.add(PaxosReplica(a, group)) for a in group]
    return cluster, group, replicas


def wait_for_leader(cluster, replicas, max_ms=10_000):
    ok = cluster.run_until(
        lambda: any(r.is_leader for r in replicas if not r.crashed),
        max_time_ms=cluster.now + max_ms,
    )
    assert ok, "no leader elected"
    return next(r for r in replicas if not r.crashed and r.is_leader)


def logs_converged(replicas):
    live = [r for r in replicas if not r.crashed]
    logs = [r.decided_log() for r in live]
    return all(log == logs[0] for log in logs)


class TestElection:
    def test_single_leader_emerges(self):
        cluster, _, replicas = make_group()
        wait_for_leader(cluster, replicas)
        cluster.run_for(2000)
        leaders = [r for r in replicas if r.is_leader]
        assert len(leaders) == 1

    def test_leadership_is_stable(self):
        cluster, _, replicas = make_group()
        leader = wait_for_leader(cluster, replicas)
        cluster.run_for(5000)
        assert leader.is_leader

    def test_five_replica_group(self):
        cluster, _, replicas = make_group(n=5)
        wait_for_leader(cluster, replicas)
        cluster.run_for(3000)
        assert sum(1 for r in replicas if r.is_leader) == 1

    def test_single_replica_group(self):
        cluster, _, replicas = make_group(n=1)
        leader = wait_for_leader(cluster, replicas)
        leader.submit(("solo",))
        cluster.run_for(2000)
        assert leader.decided_log() == {1: ("solo",)}


class TestReplication:
    def test_ops_decided_in_order_everywhere(self):
        cluster, _, replicas = make_group()
        leader = wait_for_leader(cluster, replicas)
        for i in range(10):
            leader.submit(("op", i))
        cluster.run_for(3000)
        assert logs_converged(replicas)
        log = replicas[0].decided_log()
        assert len(log) == 10
        assert sorted(log) == list(range(1, 11))
        assert all(r.applied_through() == 10 for r in replicas)

    def test_follower_forwards_to_leader(self):
        cluster, _, replicas = make_group()
        leader = wait_for_leader(cluster, replicas)
        follower = next(r for r in replicas if not r.is_leader)
        follower.submit(("via-follower",))
        cluster.run_for(2000)
        assert replicas[0].decided_log() == {1: ("via-follower",)}

    def test_ops_queued_before_any_leader_are_decided_once(self):
        # p0 has the shortest election timeout, so it wins the first
        # election.  Ops it receives before any leader is known wait in
        # fwq; once it leads, fw5 moves them into its own proposal queue.
        cluster, _, replicas = make_group()
        first = replicas[0]
        ops = [("queued", i) for i in range(3)]
        for v in ops:
            first.submit(v)
        cluster.run_for(1)
        assert first.role == "follower"
        assert len(first.runtime.rows("fwq")) == 3
        assert wait_for_leader(cluster, replicas) is first
        cluster.run_for(3000)
        assert first.runtime.rows("fwq") == []
        for r in replicas:
            assert sorted(r.decided_log().values()) == ops

    def test_agreement_under_message_loss(self):
        cluster, _, replicas = make_group(loss_rate=0.05, seed=5)
        leader = wait_for_leader(cluster, replicas)
        for i in range(8):
            leader.submit(("op", i))
        cluster.run_for(8000)
        assert logs_converged(replicas)
        assert len(replicas[0].decided_log()) == 8


class TestFailover:
    def test_new_leader_after_crash(self):
        cluster, _, replicas = make_group()
        leader = wait_for_leader(cluster, replicas)
        cluster.crash(leader.address)
        new_leader = wait_for_leader(cluster, replicas)
        assert new_leader.address != leader.address

    def test_log_survives_leader_crash(self):
        cluster, _, replicas = make_group()
        leader = wait_for_leader(cluster, replicas)
        for i in range(5):
            leader.submit(("pre", i))
        cluster.run_for(2000)
        cluster.crash(leader.address)
        new_leader = wait_for_leader(cluster, replicas)
        new_leader.submit(("post", 0))
        cluster.run_for(3000)
        live = [r for r in replicas if not r.crashed]
        assert logs_converged(replicas)
        log = live[0].decided_log()
        assert len(log) == 6
        assert ("post", 0) in log.values()

    def test_restarted_replica_catches_up(self):
        cluster, _, replicas = make_group()
        leader = wait_for_leader(cluster, replicas)
        victim = next(r for r in replicas if not r.is_leader)
        cluster.crash(victim.address)
        for i in range(4):
            leader.submit(("op", i))
        cluster.run_for(2000)
        cluster.restart(victim.address)
        cluster.run_for(6000)
        assert victim.decided_log() == leader.decided_log()
        assert victim.applied_through() == 4

    def test_no_progress_without_quorum(self):
        cluster, _, replicas = make_group(n=3)
        leader = wait_for_leader(cluster, replicas)
        others = [r for r in replicas if r is not leader]
        cluster.crash(others[0].address)
        cluster.crash(others[1].address)
        leader.submit(("doomed",))
        cluster.run_for(4000)
        assert leader.decided_log() == {}

    def test_progress_resumes_when_quorum_returns(self):
        cluster, _, replicas = make_group(n=3)
        leader = wait_for_leader(cluster, replicas)
        others = [r for r in replicas if r is not leader]
        cluster.crash(others[0].address)
        cluster.crash(others[1].address)
        leader.submit(("delayed",))
        cluster.run_for(3000)
        cluster.restart(others[0].address)
        cluster.run_for(8000)
        live = [r for r in replicas if not r.crashed]
        assert any(
            ("delayed",) in r.decided_log().values() for r in live
        ), [r.decided_log() for r in live]


class TestSafetyInvariants:
    def test_no_conflicting_decisions_with_duelling_candidates(self):
        # Crash the leader repeatedly to force several elections, then
        # verify instance-level agreement across every replica.
        cluster, _, replicas = make_group(n=5, seed=3)
        leader = wait_for_leader(cluster, replicas)
        for i in range(3):
            leader.submit(("a", i))
        cluster.run_for(1500)
        cluster.crash(leader.address)
        second = wait_for_leader(cluster, replicas)
        for i in range(3):
            second.submit(("b", i))
        cluster.run_for(1500)
        cluster.restart(leader.address)
        cluster.run_for(8000)
        logs = [r.decided_log() for r in replicas if not r.crashed]
        for log in logs:
            for inst, val in log.items():
                for other in logs:
                    if inst in other:
                        assert other[inst] == val, "agreement violated"

    def test_decided_values_were_proposed(self):
        cluster, _, replicas = make_group()
        leader = wait_for_leader(cluster, replicas)
        submitted = [("op", i) for i in range(6)]
        for v in submitted:
            leader.submit(v)
        cluster.run_for(3000)
        decided = set(replicas[0].decided_log().values())
        assert decided <= set(submitted)  # validity


def make_fs_group(n=3, datanodes=3, seed=0):
    cluster = Cluster(seed=seed, latency=LatencyModel(1, 2))
    group = [f"m{i}" for i in range(n)]
    masters = [
        cluster.add(ReplicatedMaster(a, group, replication=2)) for a in group
    ]
    for i in range(datanodes):
        cluster.add(DataNode(f"dn{i}", masters=group, heartbeat_ms=300))
    fs = cluster.add(ReplicatedFSClient("client", group))
    cluster.run_until(
        lambda: any(m.is_leader for m in masters), max_time_ms=10_000
    )
    cluster.run_for(500)
    return cluster, masters, fs


class TestReplicatedNameNode:
    def test_metadata_replicated_to_all(self):
        cluster, masters, fs = make_fs_group()
        fs.mkdir("/d")
        fs.create("/d/f")
        cluster.run_for(2000)
        expected = {"/": 0, "/d": 1, "/d/f": 2}
        for m in masters:
            assert m.paths() == expected

    def test_data_roundtrip(self):
        cluster, masters, fs = make_fs_group()
        fs.mkdir("/d")
        fs.write("/d/f", b"consensus bytes" * 20)
        assert fs.read("/d/f") == b"consensus bytes" * 20

    def test_chunk_ids_identical_across_replicas(self):
        cluster, masters, fs = make_fs_group()
        fs.mkdir("/d")
        fs.write("/d/f", b"z" * 10)
        cluster.run_for(1000)
        fid = masters[0].paths()["/d/f"]
        chunk_lists = [m.chunks_of(fid) for m in masters]
        assert chunk_lists[0] == chunk_lists[1] == chunk_lists[2]
        assert len(chunk_lists[0]) == 1

    def test_failover_preserves_namespace_and_data(self):
        cluster, masters, fs = make_fs_group()
        fs.mkdir("/d")
        fs.write("/d/f", b"must survive")
        leader = next(m for m in masters if m.is_leader)
        cluster.crash(leader.address)
        # Client rides out the election via retry/rotation.
        fs.write("/d/g", b"post failover")
        assert fs.read("/d/f") == b"must survive"
        assert fs.read("/d/g") == b"post failover"
        survivors = [m for m in masters if not m.crashed]
        assert survivors[0].paths() == survivors[1].paths()
        assert "/d/g" in survivors[0].paths()

    def test_restarted_master_rebuilds_fs_state_by_replay(self):
        cluster, masters, fs = make_fs_group()
        fs.mkdir("/d")
        fs.write("/d/f", b"replay me")
        cluster.run_for(1000)
        victim = next(m for m in masters if not m.is_leader)
        before = victim.paths()
        cluster.crash(victim.address)
        fs.create("/d/h")
        cluster.restart(victim.address)
        cluster.run_for(8000)
        assert victim.paths() == {**before, "/d/h": victim.paths()["/d/h"]}
        fid = masters[0].paths()["/d/f"]
        assert victim.chunks_of(fid) == masters[0].chunks_of(fid)
