"""Integration tests for BOOM-FS: the declarative NameNode, DataNodes,
client, failure handling, garbage collection and re-replication."""

import pytest

from repro.boomfs import BoomFSClient, BoomFSMaster, DataNode, FSError, master_program
from repro.overlog import OverlogRuntime
from repro.sim import Cluster, LatencyModel


def make_cluster(datanodes=3, replication=2, seed=0, loss_rate=0.0):
    cluster = Cluster(
        seed=seed, latency=LatencyModel(1, 1), loss_rate=loss_rate
    )
    master = cluster.add(BoomFSMaster("master", replication=replication))
    for i in range(datanodes):
        cluster.add(
            DataNode(f"dn{i}", masters=["master"], heartbeat_ms=300)
        )
    fs = cluster.add(BoomFSClient("client", masters=["master"]))
    cluster.run_for(700)  # let DataNodes register
    return cluster, master, fs


@pytest.fixture()
def fs_setup():
    return make_cluster()


class TestDirectoryOps:
    def test_mkdir_and_ls(self, fs_setup):
        _, master, fs = fs_setup
        fs.mkdir("/a")
        fs.mkdir("/a/b")
        assert fs.ls("/") == ["a"]
        assert fs.ls("/a") == ["b"]
        assert master.paths() == {"/": 0, "/a": 1, "/a/b": 2}

    def test_mkdir_missing_parent_fails(self, fs_setup):
        _, _, fs = fs_setup
        with pytest.raises(FSError, match="noparent"):
            fs.mkdir("/no/such/parent")

    def test_mkdir_duplicate_fails(self, fs_setup):
        _, _, fs = fs_setup
        fs.mkdir("/a")
        with pytest.raises(FSError, match="exists"):
            fs.mkdir("/a")

    def test_makedirs(self, fs_setup):
        _, _, fs = fs_setup
        fs.makedirs("/x/y/z")
        assert fs.ls("/x/y") == ["z"]

    def test_ls_nonexistent(self, fs_setup):
        _, _, fs = fs_setup
        with pytest.raises(FSError, match="noent"):
            fs.ls("/ghost")

    def test_ls_on_file_fails(self, fs_setup):
        _, _, fs = fs_setup
        fs.create("/f")
        with pytest.raises(FSError, match="notdir"):
            fs.ls("/f")

    def test_empty_dir_lists_empty(self, fs_setup):
        _, _, fs = fs_setup
        fs.mkdir("/empty")
        assert fs.ls("/empty") == []

    def test_exists(self, fs_setup):
        _, _, fs = fs_setup
        fs.mkdir("/d")
        fs.create("/d/f")
        assert fs.exists("/d") is True
        assert fs.exists("/d/f") is False
        assert fs.exists("/nope") is None

    def test_create_under_file_fails(self, fs_setup):
        _, _, fs = fs_setup
        fs.create("/f")
        with pytest.raises(FSError, match="notdir"):
            fs.create("/f/child")


def _ask(rt, op, path, arg=None):
    """Send one request to a bare NameNode runtime; return its one reply
    as (ok, payload)."""
    rt.insert("request", (7, "client", op, path, arg))
    replies = []
    while True:
        result = rt.tick(now=0)
        replies += [row[2:] for _, rel, row in result.sends if rel == "response"]
        if not rt.has_pending_work:
            break
    assert len(replies) == 1, replies
    return replies[0]


class TestErrorAnswers:
    """Replies the client hides (it retries ``pending``) or never asks
    for (``addchunk`` on a directory), read off one master's program."""

    @pytest.fixture()
    def master(self):
        rt = OverlogRuntime(
            master_program(), "master", extra_functions={"f_idscope": lambda: "m"}
        )
        rt.install("file", [(0, -1, "", True)])
        rt.install("repfactor", [(1,)])
        rt.install("dn_timeout", [(3000,)])
        rt.insert("heartbeat", ("dn0",))
        assert _ask(rt, "mkdir", "/d")[0]
        assert _ask(rt, "create", "/f")[0]
        ok, (cid, targets) = _ask(rt, "addchunk", "/f")
        assert ok and list(targets) == ["dn0"]
        return rt, cid

    @pytest.mark.parametrize(
        "op", ["exists", "ls", "stat", "rm", "addchunk", "getchunks"]
    )
    def test_missing_path_is_noent(self, master, op):
        rt, _ = master
        assert _ask(rt, op, "/ghost") == (False, "noent")

    @pytest.mark.parametrize("op", ["addchunk", "getchunks"])
    def test_directory_is_isdir(self, master, op):
        rt, _ = master
        assert _ask(rt, op, "/d") == (False, "isdir")

    def test_stat_before_any_replica_reports_is_pending(self, master):
        rt, cid = master
        assert _ask(rt, "stat", "/f") == (False, "pending")
        rt.insert("chunk_report", ("dn0", cid, 5))
        ok, (isdir, size) = _ask(rt, "stat", "/f")
        assert (ok, isdir, size) == (True, False, 5)

    def test_chunklocs_of_an_unreported_chunk_is_nolocs(self, master):
        rt, cid = master
        assert _ask(rt, "chunklocs", "", cid) == (False, "nolocs")
        rt.insert("chunk_report", ("dn0", cid, 5))
        ok, locs = _ask(rt, "chunklocs", "", cid)
        assert (ok, list(locs)) == (True, ["dn0"])


class TestRemove:
    def test_rm_file(self, fs_setup):
        _, master, fs = fs_setup
        fs.create("/f")
        fs.rm("/f")
        assert fs.exists("/f") is None
        assert master.paths() == {"/": 0}

    def test_rm_missing_fails(self, fs_setup):
        _, _, fs = fs_setup
        with pytest.raises(FSError, match="noent"):
            fs.rm("/ghost")

    def test_rm_root_fails(self, fs_setup):
        _, _, fs = fs_setup
        with pytest.raises(FSError, match="isroot"):
            fs.rm("/")

    def test_rm_subtree(self, fs_setup):
        _, master, fs = fs_setup
        fs.makedirs("/a/b/c")
        fs.create("/a/b/c/f1")
        fs.create("/a/f2")
        fs.rm("/a")
        assert master.paths() == {"/": 0}
        assert master.files() == [(0, -1, "", True)]

    def test_rm_does_not_touch_siblings(self, fs_setup):
        _, _, fs = fs_setup
        fs.mkdir("/a")
        fs.mkdir("/ab")  # name-prefix sibling: must survive rm /a
        fs.create("/ab/f")
        fs.rm("/a")
        assert fs.ls("/") == ["ab"]
        assert fs.ls("/ab") == ["f"]


class TestRename:
    def test_mv_file(self, fs_setup):
        _, master, fs = fs_setup
        fs.create("/old")
        fs.mv("/old", "/new")
        assert fs.exists("/old") is None
        assert fs.exists("/new") is False

    def test_mv_directory_subtree(self, fs_setup):
        _, master, fs = fs_setup
        fs.makedirs("/a/b")
        fs.create("/a/b/f")
        fs.mkdir("/target")
        fs.mv("/a", "/target/a2")
        assert sorted(master.paths()) == [
            "/",
            "/target",
            "/target/a2",
            "/target/a2/b",
            "/target/a2/b/f",
        ]

    def test_mv_into_own_subtree_fails(self, fs_setup):
        _, _, fs = fs_setup
        fs.makedirs("/a/b")
        with pytest.raises(FSError, match="mvfail"):
            fs.mv("/a", "/a/b/c")

    def test_mv_to_existing_target_fails(self, fs_setup):
        _, _, fs = fs_setup
        fs.create("/x")
        fs.create("/y")
        with pytest.raises(FSError, match="mvfail"):
            fs.mv("/x", "/y")

    def test_mv_missing_source_fails(self, fs_setup):
        _, _, fs = fs_setup
        with pytest.raises(FSError, match="mvfail"):
            fs.mv("/ghost", "/elsewhere")

    def test_data_follows_rename(self, fs_setup):
        _, _, fs = fs_setup
        fs.write("/f", b"payload")
        fs.mv("/f", "/g")
        assert fs.read("/g") == b"payload"


class TestDataPath:
    def test_write_read_roundtrip(self, fs_setup):
        _, _, fs = fs_setup
        data = bytes(range(256)) * 40
        fs.write("/blob", data)
        assert fs.read("/blob") == data

    def test_multi_chunk_file(self):
        cluster, master, fs = make_cluster()
        fs.session.chunk_size = 1000
        data = b"0123456789" * 450  # 4500 bytes -> 5 chunks
        chunks = fs.write("/big", data)
        assert chunks == 5
        assert fs.read("/big") == data

    def test_empty_file(self, fs_setup):
        _, _, fs = fs_setup
        fs.write("/empty", b"")
        assert fs.read("/empty") == b""

    def test_replication_places_on_distinct_nodes(self, fs_setup):
        cluster, master, fs = fs_setup
        fs.write("/f", b"x" * 10)
        cluster.run_for(100)
        (cid,) = master.chunks_of(master.paths()["/f"])
        locs = master.chunk_locations(cid)
        assert len(locs) == 2  # replication factor
        assert len(set(locs)) == 2

    def test_read_missing_file_fails(self, fs_setup):
        _, _, fs = fs_setup
        with pytest.raises(FSError, match="noent"):
            fs.read("/ghost")

    def test_write_existing_path_fails(self, fs_setup):
        _, _, fs = fs_setup
        fs.write("/f", b"1")
        with pytest.raises(FSError, match="exists"):
            fs.write("/f", b"2")

    def test_read_survives_one_replica_crash(self, fs_setup):
        cluster, master, fs = fs_setup
        fs.write("/f", b"important" * 100)
        cluster.run_for(100)
        (cid,) = master.chunks_of(master.paths()["/f"])
        locs = master.chunk_locations(cid)
        cluster.crash(locs[0])
        assert fs.read("/f") == b"important" * 100


class TestDataNodeLiveness:
    def test_dead_datanode_expires(self):
        cluster, master, fs = make_cluster(datanodes=3)
        assert master.live_datanodes() == ["dn0", "dn1", "dn2"]
        cluster.crash("dn1")
        cluster.run_for(6000)
        assert master.live_datanodes() == ["dn0", "dn2"]
        # its hb_chunk rows are swept too
        assert all(addr != "dn1" for addr, _, _ in master.runtime.rows("hb_chunk"))

    def test_restarted_datanode_reregisters(self):
        cluster, master, fs = make_cluster(datanodes=2)
        cluster.crash("dn0")
        cluster.run_for(6000)
        assert master.live_datanodes() == ["dn1"]
        cluster.restart("dn0")
        cluster.run_for(1000)
        assert master.live_datanodes() == ["dn0", "dn1"]


class TestGarbageCollection:
    def test_removed_file_chunks_are_collected(self):
        cluster, master, fs = make_cluster(datanodes=3, replication=2)
        fs.write("/f", b"z" * 500)
        cluster.run_for(200)
        stored = sum(len(cluster.get(f"dn{i}").chunks) for i in range(3))
        assert stored == 2
        fs.rm("/f")
        cluster.run_for(8000)
        stored = sum(len(cluster.get(f"dn{i}").chunks) for i in range(3))
        assert stored == 0


class TestReReplication:
    def test_lost_replica_is_restored(self):
        cluster, master, fs = make_cluster(datanodes=4, replication=3)
        fs.write("/f", b"precious" * 50)
        cluster.run_for(200)
        (cid,) = master.chunks_of(master.paths()["/f"])
        locs = master.chunk_locations(cid)
        assert len(locs) == 3
        cluster.crash(locs[0])
        cluster.run_for(15_000)
        new_locs = master.chunk_locations(cid)
        assert len(new_locs) == 3
        assert locs[0] not in new_locs


class TestMessageLoss:
    def test_fs_survives_lossy_network(self):
        # 5% message loss; full chunk reports and RPC retries recover.
        cluster, master, fs = make_cluster(
            datanodes=3, replication=2, loss_rate=0.05, seed=11
        )
        fs.mkdir("/d")
        for i in range(5):
            fs.write(f"/d/f{i}", bytes([i]) * 200)
        cluster.run_for(3000)
        for i in range(5):
            assert fs.read(f"/d/f{i}") == bytes([i]) * 200


class TestMasterRestart:
    def test_cold_master_loses_metadata_but_datanodes_rereport(self):
        # Without Paxos (paper section 4), a NameNode restart loses all
        # metadata -- this is exactly the failure the availability
        # revision addresses.
        cluster, master, fs = make_cluster()
        fs.mkdir("/d")
        fs.write("/d/f", b"data")
        cluster.crash("master")
        cluster.restart("master")
        cluster.run_for(2000)
        assert master.paths() == {"/": 0}  # metadata gone
        assert master.live_datanodes() == ["dn0", "dn1", "dn2"]  # dns re-register
        # chunk inventory resurfaces via heartbeat full reports
        assert len(master.runtime.rows("hb_chunk")) > 0
