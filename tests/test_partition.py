"""Tests for the hash-partitioned BOOM-FS namespace (scalability revision)."""

import pytest

from repro.boomfs import DataNode, FSError
from repro.boomfs.partition import (
    PartitionedFSClient,
    partition_of,
    partitioned_master,
)
from repro.sim import Cluster, LatencyModel


def make_partitioned(partitions=4, datanodes=4, seed=0):
    cluster = Cluster(seed=seed, latency=LatencyModel(1, 1))
    masters = [
        cluster.add(partitioned_master(f"master{p}", replication=2))
        for p in range(partitions)
    ]
    addrs = [m.address for m in masters]
    for i in range(datanodes):
        cluster.add(DataNode(f"dn{i}", masters=addrs, heartbeat_ms=300))
    fs = cluster.add(PartitionedFSClient("client", [[a] for a in addrs]))
    cluster.run_for(700)
    return cluster, masters, fs


@pytest.fixture()
def part_setup():
    return make_partitioned()


class TestPartitionFunction:
    def test_deterministic(self):
        assert partition_of("/a/b", 4) == partition_of("/a/b", 4)

    def test_spread(self):
        owners = {partition_of(f"/f{i}", 4) for i in range(64)}
        assert owners == {0, 1, 2, 3}

    def test_range(self):
        for i in range(32):
            assert 0 <= partition_of(f"/p{i}", 3) < 3


class TestPartitionedNamespace:
    def test_directories_replicated_everywhere(self, part_setup):
        _, masters, fs = part_setup
        fs.mkdir("/data")
        for m in masters:
            assert "/data" in m.paths()

    def test_files_live_on_exactly_one_partition(self, part_setup):
        _, masters, fs = part_setup
        fs.mkdir("/d")
        for i in range(12):
            fs.create(f"/d/f{i}")
        for i in range(12):
            holders = [m for m in masters if f"/d/f{i}" in m.paths()]
            assert len(holders) == 1
            expected = partition_of(f"/d/f{i}", len(masters))
            assert holders[0].address == f"master{expected}"

    def test_ls_unions_partitions(self, part_setup):
        _, _, fs = part_setup
        fs.mkdir("/d")
        names = sorted(f"f{i}" for i in range(12))
        for name in names:
            fs.create(f"/d/{name}")
        assert fs.ls("/d") == names

    def test_write_read_roundtrip(self, part_setup):
        _, _, fs = part_setup
        fs.mkdir("/d")
        for i in range(6):
            fs.write(f"/d/f{i}", bytes([i]) * 99)
        for i in range(6):
            assert fs.read(f"/d/f{i}") == bytes([i]) * 99

    def test_rm_file_and_dir(self, part_setup):
        _, masters, fs = part_setup
        fs.mkdir("/d")
        for i in range(6):
            fs.create(f"/d/f{i}")
        fs.rm("/d/f0")
        assert "f0" not in fs.ls("/d")
        fs.rm("/d")
        for m in masters:
            assert set(m.paths()) == {"/"}

    def test_mv_within_partition(self, part_setup):
        _, _, fs = part_setup
        fs.mkdir("/d")
        # find a rename that stays in one partition
        n = 4
        for i in range(100):
            old, new = f"/d/a{i}", f"/d/b{i}"
            if partition_of(old, n) == partition_of(new, n):
                fs.create(old)
                fs.mv(old, new)
                assert fs.exists(new) is False
                assert fs.exists(old) is None
                return
        pytest.skip("no same-partition pair found")

    def test_cross_partition_mv_rejected(self, part_setup):
        _, _, fs = part_setup
        fs.mkdir("/d")
        n = 4
        for i in range(100):
            old, new = f"/d/a{i}", f"/d/b{i}"
            if partition_of(old, n) != partition_of(new, n):
                fs.create(old)
                with pytest.raises(FSError, match="crosspartition"):
                    fs.mv(old, new)
                return
        pytest.skip("no cross-partition pair found")

    def test_chunk_ids_do_not_collide_across_partitions(self, part_setup):
        cluster, masters, fs = part_setup
        fs.mkdir("/d")
        for i in range(8):
            fs.write(f"/d/f{i}", b"x" * 10)
        cluster.run_for(500)
        all_chunks: list[str] = []
        for m in masters:
            all_chunks.extend(cid for cid, _, _ in m.runtime.rows("fchunk"))
        assert len(all_chunks) == len(set(all_chunks)) == 8

    def test_partitioned_masters_do_not_gc_each_other(self, part_setup):
        cluster, masters, fs = part_setup
        fs.mkdir("/d")
        fs.write("/d/f", b"y" * 50)
        # gc timers would fire within 8s; chunks must survive since gc1 is
        # dropped from partitioned masters.
        cluster.run_for(9000)
        assert fs.read("/d/f") == b"y" * 50

    def test_makedirs_nested(self, part_setup):
        _, masters, fs = part_setup
        fs.makedirs("/x/y/z")
        for m in masters:
            assert "/x/y/z" in m.paths()
