"""Partitioned BOOM-FS namespace (the paper's scalability revision).

The paper observes that, because all NameNode state is relational, scaling
the metadata plane out is just *partitioning relations*: each NameNode
partition runs the unmodified master program over the slice of the
namespace that hashes to it.

Partitioning scheme (mirrors the paper's approach):

* **directories are replicated** to every partition, so path resolution
  (`fqpath`) works locally everywhere;
* **files are hashed** by full path onto exactly one partition, which owns
  their metadata and chunk list;
* ``ls`` scatter-gathers across partitions and unions the results;
* the orphan-chunk collector (rule ``gc1``) is dropped from partitioned
  masters: DataNodes are shared, so one partition cannot conclude that a
  chunk unknown to *it* is garbage.  A master without it is a shard, so
  its state export claims the file paths it owns (``fs_owner``), which
  the monitor's shard-disjointness invariant checks.

Cross-partition ``mv`` of files is not supported (the paper's prototype
had the same restriction: it would require a distributed transaction).
"""

from __future__ import annotations

import itertools
from typing import Any, Callable, Optional

from ..overlog.functions import stable_hash
from ..transport import Address
from ..sim.node import Process
from .chunks import DEFAULT_CHUNK_SIZE
from .client import IDEMPOTENT_ERRORS, FSError, FSSession, FSTimeout
from .master import PARTITION_DROPPED_RULES, BoomFSMaster


def partitioned_master(address: str, **kw: Any) -> BoomFSMaster:
    """Construct one partition's NameNode: gc disabled, and its state
    export claims the file paths it owns."""
    return BoomFSMaster(address, drop_rules=PARTITION_DROPPED_RULES, **kw)


def partition_of(path: str, partition_count: int) -> int:
    """The partition index owning ``path`` (files only; dirs live on all)."""
    return stable_hash(path) % partition_count


class PartitionedFSClient(Process):
    """Synchronous client over a hash-partitioned set of NameNodes.

    ``partitions`` is a list of master address lists — one (possibly
    replicated) master group per partition.
    """

    def __init__(
        self,
        address: Address,
        partitions: list[list[Address]] | list[Address],
        chunk_size: int = DEFAULT_CHUNK_SIZE,
        op_timeout_ms: int = 60_000,
        rpc_timeout_ms: int = 400,
        encode_request=None,
    ):
        super().__init__(address)
        norm: list[list[Address]] = [
            [p] if isinstance(p, str) else list(p) for p in partitions
        ]
        if not norm:
            raise ValueError("need at least one partition")
        self.op_timeout_ms = op_timeout_ms
        shared_rids = itertools.count(1)
        self.sessions = [
            FSSession(
                self,
                group,
                chunk_size=chunk_size,
                rpc_timeout_ms=rpc_timeout_ms,
                rid_counter=shared_rids,
                encode_request=encode_request,
            )
            for group in norm
        ]

    @property
    def partition_count(self) -> int:
        return len(self.sessions)

    def handle_message(self, relation: str, row: tuple) -> None:
        # rids are unique across sessions' shared host, but each session
        # tracks its own pending set; offering the message to each session
        # is safe because unknown rids are ignored.
        for session in self.sessions:
            if session.handles(relation):
                session.on_message(relation, row)

    # -- routing ------------------------------------------------------------

    def owner(self, path: str) -> FSSession:
        return self.sessions[partition_of(path, self.partition_count)]

    # -- sync plumbing ---------------------------------------------------------

    def _await(self, op: str, path: str, box: list) -> tuple[bool, Any, bool]:
        assert self.cluster is not None
        self.cluster.run_until(
            lambda: bool(box), max_time_ms=self.cluster.now + self.op_timeout_ms
        )
        if not box:
            raise FSTimeout(op, path)
        return box[0]

    def _call_one(
        self, session: FSSession, op: str, path: str,
        start: Callable[[FSSession, Callable], None],
    ) -> Any:
        box: list = []
        start(session, lambda ok, payload, retried: box.append((ok, payload, retried)))
        ok, payload, retried = self._await(op, path, box)
        if ok:
            return payload
        if retried and IDEMPOTENT_ERRORS.get(op) == payload:
            return None
        raise FSError(str(payload), op, path)

    def _call_all(
        self, op: str, path: str,
        start: Callable[[FSSession, Callable], None],
    ) -> list[Any]:
        boxes: list[list] = []
        for session in self.sessions:
            box: list = []
            boxes.append(box)
            start(
                session,
                lambda ok, payload, retried, box=box: box.append(
                    (ok, payload, retried)
                ),
            )
        results = []
        for box in boxes:
            ok, payload, retried = self._await(op, path, box)
            if not ok:
                if retried and IDEMPOTENT_ERRORS.get(op) == payload:
                    results.append(None)
                    continue
                raise FSError(str(payload), op, path)
            results.append(payload)
        return results

    # -- public API ------------------------------------------------------------

    def mkdir(self, path: str) -> None:
        """Create a directory on every partition."""
        self._call_all("mkdir", path, lambda s, cb: s.mkdir(path, cb))

    def makedirs(self, path: str) -> None:
        parts = [p for p in path.split("/") if p]
        current = ""
        for part in parts:
            current += "/" + part
            if self.exists(current) is None:
                self.mkdir(current)

    def create(self, path: str) -> Any:
        return self._call_one(
            self.owner(path), "create", path, lambda s, cb: s.create(path, cb)
        )

    def exists(self, path: str) -> Optional[bool]:
        try:
            return self._call_one(
                self.owner(path), "exists", path, lambda s, cb: s.exists(path, cb)
            )
        except FSError as exc:
            if exc.code == "noent":
                return None
            raise

    def ls(self, path: str) -> list[str]:
        """Union of each partition's listing for ``path``."""
        listings = self._call_all("ls", path, lambda s, cb: s.ls(path, cb))
        names: set[str] = set()
        for listing in listings:
            names.update(listing)
        return sorted(names)

    def rm(self, path: str) -> None:
        """Remove a file (owner partition) or a directory (all)."""
        is_dir = self.exists(path)
        if is_dir is None:
            raise FSError("noent", "rm", path)
        if is_dir:
            self._call_all("rm", path, lambda s, cb: s.rm(path, cb))
        else:
            self._call_one(
                self.owner(path), "rm", path, lambda s, cb: s.rm(path, cb)
            )

    def mv(self, old: str, new: str) -> None:
        """Rename a file within its partition.

        Cross-partition moves and directory moves are unsupported (they
        would require a distributed transaction; the paper's prototype had
        the same restriction).
        """
        if self.exists(old) is True:
            raise FSError("mvdir_unsupported", "mv", old)
        if partition_of(old, self.partition_count) != partition_of(
            new, self.partition_count
        ):
            raise FSError("crosspartition", "mv", old)
        self._call_one(
            self.owner(old), "mv", old, lambda s, cb: s.mv(old, new, cb)
        )

    def write(self, path: str, data: bytes) -> int:
        result = self._call_one(
            self.owner(path), "write", path, lambda s, cb: s.write(path, data, cb)
        )
        return 0 if result is None else int(result)

    def read(self, path: str) -> bytes:
        return self._call_one(
            self.owner(path), "read", path, lambda s, cb: s.read(path, cb)
        )
