"""Tests for the imperative baseline stack: protocol parity with the
declarative components on the same clients/DataNodes."""

import pytest

from repro.boomfs import BoomFSClient, DataNode, FSError
from repro.hadoop import BaselineNameNode
from repro.sim import Cluster, LatencyModel
from repro.workload import LoadDriver, run_driver


def make_cluster(datanodes=3, replication=2, seed=0):
    cluster = Cluster(seed=seed, latency=LatencyModel(1, 1))
    master = cluster.add(BaselineNameNode("master", replication=replication))
    for i in range(datanodes):
        cluster.add(DataNode(f"dn{i}", masters=["master"], heartbeat_ms=300))
    fs = cluster.add(BoomFSClient("client", masters=["master"]))
    cluster.run_for(700)
    return cluster, master, fs


@pytest.fixture()
def baseline():
    return make_cluster()


class TestBaselineNameNode:
    def test_mkdir_ls_exists(self, baseline):
        _, master, fs = baseline
        fs.mkdir("/a")
        fs.mkdir("/a/b")
        fs.create("/a/f")
        assert fs.ls("/a") == ["b", "f"]
        assert fs.exists("/a/b") is True
        assert fs.exists("/a/f") is False
        assert fs.exists("/nope") is None

    def test_error_codes_match_declarative_master(self, baseline):
        _, _, fs = baseline
        with pytest.raises(FSError, match="noparent"):
            fs.mkdir("/x/y")
        fs.mkdir("/x")
        with pytest.raises(FSError, match="exists"):
            fs.mkdir("/x")
        with pytest.raises(FSError, match="noent"):
            fs.ls("/ghost")
        with pytest.raises(FSError, match="isroot"):
            fs.rm("/")
        fs.create("/f")
        with pytest.raises(FSError, match="notdir"):
            fs.ls("/f")

    def test_write_read_roundtrip(self, baseline):
        _, _, fs = baseline
        data = b"imperative bytes" * 64
        fs.write("/blob", data)
        assert fs.read("/blob") == data

    def test_rm_subtree(self, baseline):
        _, master, fs = baseline
        fs.makedirs("/a/b/c")
        fs.create("/a/b/c/f")
        fs.rm("/a")
        assert set(master.paths()) == {"/"}

    def test_mv(self, baseline):
        _, _, fs = baseline
        fs.mkdir("/src")
        fs.write("/src/f", b"data")
        fs.mkdir("/dst")
        fs.mv("/src/f", "/dst/g")
        assert fs.read("/dst/g") == b"data"
        with pytest.raises(FSError, match="mvfail"):
            fs.mv("/ghost", "/dst/h")

    def test_replication_and_rereplication(self):
        cluster, master, fs = make_cluster(datanodes=4, replication=3)
        fs.write("/f", b"keep" * 40)
        cluster.run_for(300)
        fid = master.resolve("/f")
        (cid,) = master.chunks_of(fid)
        locs = master.chunk_locations(cid)
        assert len(locs) == 3
        cluster.crash(locs[0])
        cluster.run_for(15_000)
        new_locs = master.chunk_locations(cid)
        assert len(new_locs) == 3
        assert locs[0] not in new_locs

    def test_gc_of_removed_file(self):
        cluster, master, fs = make_cluster()
        fs.write("/f", b"z" * 100)
        cluster.run_for(300)
        fs.rm("/f")
        cluster.run_for(8000)
        stored = sum(
            len(cluster.get(f"dn{i}").chunks) for i in range(3)
        )
        assert stored == 0

    def test_datanode_liveness(self):
        cluster, master, fs = make_cluster()
        cluster.crash("dn0")
        cluster.run_for(6000)
        assert master.live_datanodes() == ["dn1", "dn2"]

    def test_restart_loses_metadata(self):
        cluster, master, fs = make_cluster()
        fs.mkdir("/d")
        cluster.crash("master")
        cluster.restart("master")
        cluster.run_for(500)
        assert set(master.paths()) == {"/"}


class TestBehaviouralParity:
    """The same workload must leave both NameNodes with the same visible
    namespace, at the same simulated rate (experiment E4)."""

    SCRIPT = [
        ("mkdir", "/a"),
        ("mkdir", "/a/b"),
        ("create", "/a/b/f1"),
        ("create", "/a/f2"),
        ("mv", ("/a/b/f1", "/a/b/f3")),
        ("rm", "/a/f2"),
        ("mkdir", "/c"),
    ]

    def _apply(self, fs):
        for op, arg in self.SCRIPT:
            if op == "mv":
                fs.mv(*arg)
            else:
                getattr(fs, op)(arg)
        listing = {}
        for d in ("/", "/a", "/a/b", "/c"):
            listing[d] = fs.ls(d)
        return listing

    def test_same_namespace_after_same_script(self):
        from repro.boomfs import BoomFSMaster

        results = []
        for master_cls in (BoomFSMaster, BaselineNameNode):
            cluster = Cluster(latency=LatencyModel(1, 1))
            cluster.add(master_cls("master", replication=2))
            for i in range(2):
                cluster.add(
                    DataNode(f"dn{i}", masters=["master"], heartbeat_ms=300)
                )
            fs = cluster.add(BoomFSClient("client", masters=["master"]))
            cluster.run_for(700)
            results.append(self._apply(fs))
        assert results[0] == results[1]

    def test_same_op_list_at_comparable_simulated_rate(self):
        # Both masters speak one protocol over one network, so virtual-time
        # throughput is protocol-bound: a closed-loop window of the same
        # seeded op list completes at near-identical simulated ops/s.
        from repro.boomfs import BoomFSMaster

        ops = 300
        rates = []
        for master_cls in (BoomFSMaster, BaselineNameNode):
            cluster = Cluster(latency=LatencyModel(1, 1))
            cluster.add(master_cls("master", replication=2))
            driver = run_driver(
                cluster, LoadDriver(total_ops=ops, seed=3, trace=False)
            )
            elapsed_ms = max(r.end_ms for r in driver.records)
            rates.append(ops / elapsed_ms * 1000)
        assert max(rates) / min(rates) < 1.5, rates
