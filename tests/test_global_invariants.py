"""Cluster-scoped invariants: cross-node safety rules at the monitor.

Covers the global_invariants packs end-to-end on the simulator (state
exports -> monitor joins -> invariant_violation events -> provenance),
the monitor-side Paxos rules via direct injection, shard disjointness
over partitioned masters, export rounds reaching restarted nodes, and
the asyncio-backend InvariantMonitor crash/restart regression.
"""

import pytest

from repro.boomfs import BoomFSClient, BoomFSMaster, DataNode
from repro.boomfs.partition import PartitionedFSClient, partitioned_master
from repro.telemetry import monitor_program
from repro.paxos import ReplicatedFSClient, ReplicatedMaster
from repro.sim import Cluster

from .helpers import CheckedMaster


def _fs_cluster(seed=3, datanodes=3, replication=2, replicas=1):
    """One BoomFSMaster, or a group of ``replicas`` ReplicatedMasters,
    with DataNodes and a file written through a client."""
    cluster = Cluster(seed=seed)
    if replicas == 1:
        masters = ["master"]
        cluster.add(BoomFSMaster("master", replication=replication))
        client = cluster.add(BoomFSClient("client", masters=masters))
    else:
        masters = [f"m{i}" for i in range(replicas)]
        for a in masters:
            cluster.add(ReplicatedMaster(a, masters, replication=replication))
        client = cluster.add(ReplicatedFSClient("client", masters))
    for i in range(datanodes):
        cluster.add(DataNode(f"dn{i}", masters=masters))
    # DataNodes register (and a group elects its leader).
    cluster.run_for(600 if replicas == 1 else 2000)
    client.mkdir("/d")
    client.write("/d/a", b"payload-bytes " * 30)
    cluster.run_for(1500)  # full chunk reports settle the master's beliefs
    return cluster


def _round(cluster, clock):
    cluster.publish_round(clock=clock)
    cluster.run_for(80)


class TestPackSource:
    def test_fused_source_parses_as_one_program(self):
        names = {r.name for r in monitor_program().rules}
        assert {"m1", "fsa1", "gw1", "gp1", "gb3", "gs1"} <= names

    def test_pack_subset_selectable(self):
        from repro.monitoring import GLOBAL_PAXOS_INVARIANTS

        names = {r.name for r in monitor_program([GLOBAL_PAXOS_INVARIANTS]).rules}
        assert {"m1", "gw1", "gp1"} <= names  # the core is always there
        assert "gb3" not in names
        assert "fsa1" not in names


class TestChunkAgreement:
    @pytest.mark.parametrize("replicas", [1, 3])
    def test_clean_rounds_are_silent(self, replicas):
        cluster = _fs_cluster(replicas=replicas)
        monitor = cluster.enable_monitor(interval_ms=None)
        for clock in (1, 2, 3):
            _round(cluster, clock)
        assert monitor.violations() == []
        # A replicated master exports both halves' state.
        exported = ["fs_round", "fs_chunk", "fs_loc", "px_cursor", "px_state"]
        received = [r for r in exported if monitor.runtime.rows(r)]
        assert received == (exported[:3] if replicas == 1 else exported)

    def _wipe_a_replica(self, cluster):
        victim = next(
            cluster.get(f"dn{i}")
            for i in range(3)
            if cluster.get(f"dn{i}").chunks
        )
        victim.wipe_storage()
        return victim

    def test_amnesiac_datanode_detected(self):
        cluster = _fs_cluster()
        monitor = cluster.enable_monitor(interval_ms=None)
        _round(cluster, 1)
        _round(cluster, 2)
        self._wipe_a_replica(cluster)
        _round(cluster, 3)
        _round(cluster, 4)
        names = {row[0] for row in monitor.violations()}
        assert "chunk-agreement" in names

    def test_two_round_guard_defers_first_round(self):
        # One post-wipe round is in-flight-ambiguous; the rule must wait
        # for the second consecutive disagreeing round.
        cluster = _fs_cluster()
        monitor = cluster.enable_monitor(interval_ms=None)
        _round(cluster, 1)
        _round(cluster, 2)
        self._wipe_a_replica(cluster)
        _round(cluster, 3)
        assert monitor.violations() == []

    def test_why_reaches_state_exports(self):
        cluster = _fs_cluster()
        monitor = cluster.enable_monitor(interval_ms=None)
        _round(cluster, 1)
        _round(cluster, 2)
        self._wipe_a_replica(cluster)
        _round(cluster, 3)
        _round(cluster, 4)
        row = next(
            r for r in monitor.violations() if r[0] == "chunk-agreement"
        )
        why = cluster.why("monitor", "invariant_violation", row)
        assert "gb3" in why
        assert "fs_loc" in why

    def test_chunk_unhosted_when_all_replicas_die(self):
        # A single dead DataNode is healed by re-replication before the
        # two-round guard elapses (good!), so kill every *holder* of the
        # chunk.  With no live holder there is no re-replication source
        # either, so the chunk must surface as unhosted for two
        # consecutive rounds.
        cluster = _fs_cluster()
        monitor = cluster.enable_monitor(interval_ms=None)
        _round(cluster, 1)
        _round(cluster, 2)
        holders = [
            f"dn{i}" for i in range(3) if cluster.get(f"dn{i}").chunks
        ]
        assert len(holders) == 2  # replication factor
        for victim in holders:
            cluster.crash(victim)
        # The master prunes dead DataNodes only at 1000ms liveness timer
        # ticks, and only once strictly now - last_hb > dn_timeout
        # (3000ms) — so wait past the first tick *after* the timeout.
        cluster.run_for(4800)
        _round(cluster, 3)
        _round(cluster, 4)
        names = {row[0] for row in monitor.violations()}
        assert "chunk-unhosted" in names


class TestPaxosGlobalInvariants:
    """The monitor-side rules judged via direct export injection: the
    rules only see (relation, row) tuples, so forged exports exercise
    them without standing up a Paxos group."""

    def _monitor(self):
        cluster = Cluster(seed=1)
        monitor = cluster.enable_monitor(interval_ms=None)
        return cluster, monitor

    def test_paxos_agreement_fires_on_conflicting_logs(self):
        cluster, monitor = self._monitor()
        monitor.inject("px_state", ("r1", 1, "op-a"))
        monitor.inject("px_state", ("r2", 1, "op-b"))
        cluster.run_for(50)
        assert ("paxos-agreement", 1) in monitor.violations()

    def test_identical_logs_are_silent(self):
        cluster, monitor = self._monitor()
        monitor.inject("px_state", ("r1", 1, "op-a"))
        monitor.inject("px_state", ("r2", 1, "op-a"))
        cluster.run_for(50)
        assert monitor.violations() == []

    def test_ballot_regression(self):
        cluster, monitor = self._monitor()
        monitor.inject("px_cursor", ("r1", 5, 3, 1))
        cluster.run_for(50)
        monitor.inject("px_cursor", ("r1", 2, 4, 2))
        cluster.run_for(50)
        assert ("ballot-regression", "r1") in monitor.violations()

    def test_applied_regression(self):
        cluster, monitor = self._monitor()
        monitor.inject("px_cursor", ("r1", 5, 9, 1))
        cluster.run_for(50)
        monitor.inject("px_cursor", ("r1", 5, 2, 2))
        cluster.run_for(50)
        assert ("applied-regression", "r1") in monitor.violations()

    def test_monotonic_cursor_is_silent(self):
        cluster, monitor = self._monitor()
        monitor.inject("px_cursor", ("r1", 1, 1, 1))
        cluster.run_for(50)
        monitor.inject("px_cursor", ("r1", 3, 5, 2))
        cluster.run_for(50)
        assert monitor.violations() == []


class TestShardDisjointness:
    def _partitioned(self):
        cluster = Cluster(seed=3)
        cluster.add(partitioned_master("m0", replication=1))
        cluster.add(partitioned_master("m1", replication=1))
        for i in range(2):
            cluster.add(DataNode(f"dn{i}", masters=["m0", "m1"]))
        client = cluster.add(
            PartitionedFSClient("client", [["m0"], ["m1"]])
        )
        client.create("/a.txt")
        cluster.run_for(1000)
        monitor = cluster.enable_monitor(interval_ms=None)
        _round(cluster, 1)
        _round(cluster, 2)
        return cluster, monitor

    def test_disjoint_ownership_is_silent(self):
        _, monitor = self._partitioned()
        assert monitor.violations() == []

    def test_cross_scope_claim_detected(self):
        cluster, monitor = self._partitioned()
        # Forge a claim from the *other* shard's scope on a path the
        # owning shard already exports (at the forger's current round).
        monitor.inject("fs_owner", ("m0", "m0", "/a.txt", 2))
        cluster.run_for(50)
        assert ("shard-overlap", "/a.txt") in monitor.violations()


class TestStateExportLifecycle:
    def test_restart_rearms_state_export(self):
        cluster = _fs_cluster()
        monitor = cluster.enable_monitor(interval_ms=500)
        cluster.run_for(1200)
        crash_at = cluster.now
        cluster.crash("dn0")
        cluster.run_for(600)
        cluster.restart("dn0")
        cluster.run_for(1200)
        rounds = [
            clock
            for node, clock in monitor.runtime.rows("dn_round")
            if node == "dn0"
        ]
        assert any(clock > crash_at for clock in rounds), rounds

    def test_monitor_itself_exports_nothing(self):
        cluster = _fs_cluster()
        monitor = cluster.enable_monitor(interval_ms=None)
        shipped = cluster.publish_round(clock=1)
        assert shipped > 0
        assert monitor.publish(clock=1) == 0


class TestAsyncInvariantMonitor:
    """Asyncio-backend regression: a crash/restart rebuilds the node's
    runtime, and the local InvariantMonitor must be re-attached so
    strict mode still records (and trips on) violations afterwards."""

    def test_strict_monitor_survives_crash_restart(self):
        from repro.transport.asyncio_backend import AsyncCluster

        cluster = AsyncCluster(seed=1, time_scale=5)
        try:
            master = cluster.add(CheckedMaster("master", replication=1))
            cluster.run_for(300)
            cluster.crash("master")
            cluster.run_for(200)
            cluster.restart("master")
            cluster.run_for(300)
            assert master.monitor.ok
            # Corrupt the freshly rebuilt runtime: the re-attached
            # monitor must record the violation when inv_tick fires
            # (the strict raise itself dies inside the node's asyncio
            # task, so the recorded row is the observable contract).
            master.runtime.install("fqpath", [("/ghost", 999)])
            cluster.run_until(
                lambda: not master.monitor.ok, max_time_ms=8000
            )
            assert ("orphan-fqpath", "/ghost") in master.monitor.violations
        finally:
            cluster.shutdown()
