"""Model-based testing: BOOM-FS vs an in-memory reference filesystem.

Hypothesis drives random operation sequences against both the declarative
filesystem (full cluster: Overlog NameNode, DataNodes, client) and a
trivially-correct dict model; every response — success, failure code, and
payload — must match.  This is the strongest correctness statement in the
suite: the NameNode's Overlog rules behave exactly like the obvious
imperative specification under arbitrary workloads.
"""

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.boomfs import BoomFSClient, BoomFSMaster, DataNode, FSError
from repro.sim import Cluster, LatencyModel

NAMES = ["a", "b", "c"]
SEGMENTS = st.lists(st.sampled_from(NAMES), min_size=1, max_size=3)
PAYLOADS = st.binary(min_size=0, max_size=64)


class FSModel:
    """The obvious reference implementation."""

    def __init__(self):
        self.dirs = {"/"}
        self.files: dict[str, bytes] = {}

    def parent(self, path):
        return path.rsplit("/", 1)[0] or "/"

    def exists(self, path):
        if path in self.dirs:
            return True
        if path in self.files:
            return False
        return None

    def mkdir(self, path):
        if path in self.dirs or path in self.files:
            return "exists"
        if self.parent(path) in self.files:
            return "notdir"
        if self.parent(path) not in self.dirs:
            return "noparent"
        self.dirs.add(path)
        return None

    def write(self, path, data):
        if path in self.dirs or path in self.files:
            return "exists"
        if self.parent(path) in self.files:
            return "notdir"
        if self.parent(path) not in self.dirs:
            return "noparent"
        self.files[path] = data
        return None

    def read(self, path):
        if path in self.files:
            return None, self.files[path]
        if path in self.dirs:
            return "isdir", None
        return "noent", None

    def ls(self, path):
        if path in self.files:
            return "notdir", None
        if path not in self.dirs:
            return "noent", None
        children = set()
        for p in self.dirs | set(self.files):
            if p != "/" and self.parent(p) == path:
                children.add(p.rsplit("/", 1)[1])
        return None, sorted(children)

    def rm(self, path):
        if path == "/":
            return "isroot"
        if path in self.files:
            del self.files[path]
            return None
        if path in self.dirs:
            prefix = path + "/"
            self.dirs = {d for d in self.dirs if d != path and not d.startswith(prefix)}
            self.files = {
                p: v for p, v in self.files.items() if not p.startswith(prefix)
            }
            return None
        return "noent"

    def mv(self, old, new):
        src = self.exists(old)
        if (
            src is None
            or old == "/"
            or self.exists(new) is not None
            or new == old
            or new.startswith(old + "/")
            or self.parent(new) not in self.dirs
        ):
            return "mvfail"
        if src is False:
            self.files[new] = self.files.pop(old)
            return None
        prefix = old + "/"
        moved_dirs = {d for d in self.dirs if d == old or d.startswith(prefix)}
        self.dirs -= moved_dirs
        self.dirs |= {new + d[len(old):] for d in moved_dirs}
        moved_files = {p for p in self.files if p.startswith(prefix)}
        for p in moved_files:
            self.files[new + p[len(old):]] = self.files.pop(p)
        return None


class BoomFSMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.cluster = Cluster(latency=LatencyModel(1, 1))
        self.master = self.cluster.add(BoomFSMaster("master", replication=2))
        for i in range(2):
            self.cluster.add(
                DataNode(f"dn{i}", masters=["master"], heartbeat_ms=300)
            )
        self.fs = self.cluster.add(BoomFSClient("client", masters=["master"]))
        self.cluster.run_for(700)
        self.model = FSModel()

    @invariant()
    def namenode_tables_match_the_model(self):
        """The namespace the NameNode holds is the model's, row for row:
        no path, file or chunk of a removed or renamed subtree is left
        behind (rules rs1-r4 and ms1-m3 walk the subtree by parent id)."""
        master = self.master
        if master is None:
            return
        paths = master.paths()
        assert set(paths) == self.model.dirs | set(self.model.files)
        fids = {row[0] for row in master.files()}
        assert fids == set(paths.values())
        assert {fid for _c, fid, _i in master.runtime.rows("fchunk")} <= fids

    def _path(self, segments):
        return "/" + "/".join(segments)

    def _attempt(self, fn):
        try:
            return None, fn()
        except FSError as exc:
            return exc.code, None

    @rule(segments=SEGMENTS)
    def mkdir(self, segments):
        path = self._path(segments)
        code, _ = self._attempt(lambda: self.fs.mkdir(path))
        assert code == self.model.mkdir(path), f"mkdir {path}"

    @rule(segments=SEGMENTS, data=PAYLOADS)
    def write(self, segments, data):
        path = self._path(segments)
        code, _ = self._attempt(lambda: self.fs.write(path, data))
        assert code == self.model.write(path, data), f"write {path}"

    @rule(top=st.sampled_from(NAMES), data=PAYLOADS)
    def grow_tree(self, top, data):
        """``/top/a/b`` with a chunk-holding file at every level, so that
        a later rm or mv of ``/top`` walks nested directories and has
        chunks to drop."""
        path = ""
        for segment in (top, "a", "b"):
            path += "/" + segment
            code, _ = self._attempt(lambda: self.fs.mkdir(path))
            assert code == self.model.mkdir(path), f"mkdir {path}"
            leaf = path + "/c"
            code, _ = self._attempt(lambda: self.fs.write(leaf, data))
            assert code == self.model.write(leaf, data), f"write {leaf}"

    @rule(segments=SEGMENTS)
    def read(self, segments):
        path = self._path(segments)
        code, got = self._attempt(lambda: self.fs.read(path))
        want_code, want = self.model.read(path)
        assert code == want_code, f"read {path}: {code} != {want_code}"
        if code is None:
            assert got == want, f"read {path} content"

    @rule(segments=SEGMENTS)
    def ls(self, segments):
        path = self._path(segments)
        code, got = self._attempt(lambda: self.fs.ls(path))
        want_code, want = self.model.ls(path)
        assert code == want_code, f"ls {path}: {code} != {want_code}"
        if code is None:
            assert got == want, f"ls {path}: {got} != {want}"

    @rule()
    def ls_root(self):
        _, want = self.model.ls("/")
        assert self.fs.ls("/") == want

    @rule(segments=SEGMENTS)
    def exists(self, segments):
        path = self._path(segments)
        assert self.fs.exists(path) == self.model.exists(path), f"exists {path}"

    @rule(segments=SEGMENTS)
    def rm(self, segments):
        path = self._path(segments)
        code, _ = self._attempt(lambda: self.fs.rm(path))
        assert code == self.model.rm(path), f"rm {path}"

    @rule(segments=SEGMENTS)
    def stat(self, segments):
        path = self._path(segments)
        code, got = self._attempt(lambda: self.fs.stat(path))
        state = self.model.exists(path)
        if state is None:
            assert code == "noent", f"stat {path}"
        elif state is True:
            assert code is None and got == (True, 0), f"stat {path}"
        else:
            assert code is None, f"stat {path}"
            assert got == (False, len(self.model.files[path])), f"stat {path}"

    @rule(old=SEGMENTS, new=SEGMENTS)
    def mv(self, old, new):
        old_p, new_p = self._path(old), self._path(new)
        code, _ = self._attempt(lambda: self.fs.mv(old_p, new_p))
        assert code == self.model.mv(old_p, new_p), f"mv {old_p} {new_p}"


def test_rm_and_mv_of_nested_directories_with_chunks():
    """The subtree walk, step by step: mv re-derives every path under the
    moved directory, rm drops every file, path and chunk under it."""
    machine = BoomFSMachine()
    fs, master, model = machine.fs, machine.master, machine.model
    for d in ("/a", "/a/b", "/a/b/c", "/keep"):
        fs.mkdir(d)
        model.mkdir(d)
    for f in ("/a/x", "/a/b/y", "/a/b/c/z", "/keep/w"):
        fs.write(f, f.encode() * 40)
        model.write(f, f.encode() * 40)
    machine.namenode_tables_match_the_model()
    chunks = len(master.runtime.rows("fchunk"))
    assert chunks >= 4

    fs.mv("/a/b", "/keep/b2")
    assert model.mv("/a/b", "/keep/b2") is None
    machine.namenode_tables_match_the_model()
    assert fs.read("/keep/b2/c/z") == b"/a/b/c/z" * 40
    assert len(master.runtime.rows("fchunk")) == chunks

    fs.rm("/keep")
    assert model.rm("/keep") is None
    machine.namenode_tables_match_the_model()
    assert set(master.paths()) == {"/", "/a", "/a/x"}
    assert len(master.runtime.rows("fchunk")) == len(master.chunks_of(
        master.paths()["/a/x"]
    ))
    machine.teardown()


TestBoomFSAgainstModel = BoomFSMachine.TestCase
TestBoomFSAgainstModel.settings = settings(
    max_examples=20, stateful_step_count=10, deadline=None
)


class BaselineFSMachine(BoomFSMachine):
    """Same machine against the imperative baseline NameNode: both
    implementations must satisfy the same model."""

    def __init__(self):
        RuleBasedStateMachine.__init__(self)
        from repro.hadoop import BaselineNameNode

        self.master = None  # no Overlog tables to hold against the model
        self.cluster = Cluster(latency=LatencyModel(1, 1))
        self.cluster.add(BaselineNameNode("master", replication=2))
        for i in range(2):
            self.cluster.add(
                DataNode(f"dn{i}", masters=["master"], heartbeat_ms=300)
            )
        self.fs = self.cluster.add(BoomFSClient("client", masters=["master"]))
        self.cluster.run_for(700)
        self.model = FSModel()


TestBaselineAgainstModel = BaselineFSMachine.TestCase
TestBaselineAgainstModel.settings = settings(
    max_examples=12, stateful_step_count=10, deadline=None
)
