"""Imperative HDFS-style NameNode: the baseline BOOM-FS is compared to.

Speaks *exactly* the same wire protocol as the declarative master
(``request``/``response``, ``heartbeat``/``chunk_report``/``chunk_gone``,
``gc_chunk``/``replicate_cmd``), so DataNodes and clients are reused
unchanged — only the metadata plane differs: hand-written Python state
machines instead of Overlog rules.  This is the same design axis the
paper measures (declarative vs imperative NameNode on equal substrate),
and the module doubles as the imperative-LoC anchor for the code-size
table (E1).
"""

from __future__ import annotations

import itertools
from typing import Any, Optional

from ..overlog.functions import stable_hash
from ..transport import Address
from ..sim.node import Process

ROOT_FILE_ID = 0


class BaselineNameNode(Process):
    def __init__(
        self,
        address: Address = "master",
        replication: int = 3,
        dn_timeout_ms: int = 3000,
        gc_interval_ms: int = 3000,
        liveness_interval_ms: int = 1000,
    ):
        super().__init__(address)
        self.replication = replication
        self.dn_timeout_ms = dn_timeout_ms
        self.gc_interval_ms = gc_interval_ms
        self.liveness_interval_ms = liveness_interval_ms
        self._ids = itertools.count(1)
        self._reset_state()

    def _reset_state(self) -> None:
        # fid -> (parent_fid, name, is_dir)
        self.files: dict[int, tuple[int, str, bool]] = {
            ROOT_FILE_ID: (-1, "", True)
        }
        self.children: dict[int, dict[str, int]] = {ROOT_FILE_ID: {}}
        self.file_chunks: dict[int, list[str]] = {}
        self.datanodes: dict[str, int] = {}
        self.chunk_locs: dict[str, dict[str, int]] = {}

    # -- lifecycle -------------------------------------------------------------

    def start(self) -> None:
        self.after(self.liveness_interval_ms, self._liveness_sweep)
        self.after(self.gc_interval_ms, self._gc_sweep)

    def reset_for_restart(self) -> None:
        self._reset_state()  # cold restart loses metadata, like the paper's

    # -- path resolution ---------------------------------------------------------

    def resolve(self, path: str) -> Optional[int]:
        if path == "/":
            return ROOT_FILE_ID
        fid = ROOT_FILE_ID
        for part in path.strip("/").split("/"):
            child = self.children.get(fid, {}).get(part)
            if child is None:
                return None
            fid = child
        return fid

    def path_of(self, fid: int) -> str:
        parts: list[str] = []
        while fid != ROOT_FILE_ID:
            parent, name, _ = self.files[fid]
            parts.append(name)
            fid = parent
        return "/" + "/".join(reversed(parts))

    def _split(self, path: str) -> tuple[str, str]:
        idx = path.rstrip("/").rfind("/")
        parent = path[:idx] or "/"
        return parent, path.rstrip("/")[idx + 1 :]

    # -- message handling -----------------------------------------------------------

    def handle_message(self, relation: str, row: tuple) -> None:
        if relation == "request":
            rid, client, op, path, arg = row
            ok, payload = self._dispatch(op, path, arg)
            self.send(client, "response", (client, rid, ok, payload))
        elif relation == "heartbeat":
            (addr,) = row
            self.datanodes[addr] = self.now
        elif relation == "chunk_report":
            addr, cid, size = row
            self.chunk_locs.setdefault(cid, {})[addr] = size
        elif relation == "chunk_gone":
            addr, cid = row
            locs = self.chunk_locs.get(cid)
            if locs is not None:
                locs.pop(addr, None)
                if not locs:
                    del self.chunk_locs[cid]

    def _dispatch(self, op: str, path: str, arg: Any) -> tuple[bool, Any]:
        handler = getattr(self, f"_op_{op}", None)
        if handler is None:
            return False, "badop"
        return handler(path, arg)

    # -- directory ops ------------------------------------------------------------------

    def _create_node(self, path: str, is_dir: bool) -> tuple[bool, Any]:
        if self.resolve(path) is not None:
            return False, "exists"
        parent_path, name = self._split(path)
        parent = self.resolve(parent_path)
        if parent is None:
            return False, "noparent"
        if not self.files[parent][2]:
            return False, "notdir"
        fid = next(self._ids)
        self.files[fid] = (parent, name, is_dir)
        self.children[parent][name] = fid
        if is_dir:
            self.children[fid] = {}
        return True, fid

    def _op_mkdir(self, path: str, _arg: Any) -> tuple[bool, Any]:
        return self._create_node(path, True)

    def _op_create(self, path: str, _arg: Any) -> tuple[bool, Any]:
        return self._create_node(path, False)

    def _op_stat(self, path: str, _arg: Any) -> tuple[bool, Any]:
        fid = self.resolve(path)
        if fid is None:
            return False, "noent"
        if self.files[fid][2]:
            return True, (True, 0)
        size = 0
        for cid in self.file_chunks.get(fid, []):
            locs = self.chunk_locs.get(cid)
            if not locs:
                return False, "pending"
            size += min(locs.values())
        return True, (False, size)

    def _op_exists(self, path: str, _arg: Any) -> tuple[bool, Any]:
        fid = self.resolve(path)
        if fid is None:
            return False, "noent"
        return True, self.files[fid][2]

    def _op_ls(self, path: str, _arg: Any) -> tuple[bool, Any]:
        fid = self.resolve(path)
        if fid is None:
            return False, "noent"
        if not self.files[fid][2]:
            return False, "notdir"
        return True, tuple(sorted(self.children[fid]))

    def _op_rm(self, path: str, _arg: Any) -> tuple[bool, Any]:
        fid = self.resolve(path)
        if fid is None:
            return False, "noent"
        if fid == ROOT_FILE_ID:
            return False, "isroot"
        self._remove_subtree(fid)
        parent_path, name = self._split(path)
        parent = self.resolve(parent_path)
        if parent is not None:
            self.children[parent].pop(name, None)
        return True, path

    def _remove_subtree(self, fid: int) -> None:
        for child in list(self.children.get(fid, {}).values()):
            self._remove_subtree(child)
        self.children.pop(fid, None)
        self.file_chunks.pop(fid, None)
        self.files.pop(fid, None)

    def _op_mv(self, old: str, new: str) -> tuple[bool, Any]:
        fid = self.resolve(old)
        if (
            fid is None
            or fid == ROOT_FILE_ID
            or self.resolve(new) is not None
            or new == old
            or new.startswith(old + "/")
        ):
            return False, "mvfail"
        new_parent_path, new_name = self._split(new)
        new_parent = self.resolve(new_parent_path)
        if new_parent is None or not self.files[new_parent][2]:
            return False, "mvfail"
        old_parent, old_name, is_dir = self.files[fid]
        del self.children[old_parent][old_name]
        self.files[fid] = (new_parent, new_name, is_dir)
        self.children[new_parent][new_name] = fid
        return True, new

    # -- chunk ops -----------------------------------------------------------------------

    def _op_addchunk(self, path: str, _arg: Any) -> tuple[bool, Any]:
        fid = self.resolve(path)
        if fid is None:
            return False, "noent"
        if self.files[fid][2]:
            return False, "isdir"
        if not self.datanodes:
            return False, "nodatanodes"
        cid = f"{self.address}:{next(self._ids)}"
        self.file_chunks.setdefault(fid, []).append(cid)
        ranked = sorted(
            self.datanodes, key=lambda addr: stable_hash(cid + addr)
        )
        return True, (cid, tuple(ranked[: self.replication]))

    def _op_getchunks(self, path: str, _arg: Any) -> tuple[bool, Any]:
        fid = self.resolve(path)
        if fid is None:
            return False, "noent"
        if self.files[fid][2]:
            return False, "isdir"
        chunks = self.file_chunks.get(fid, [])
        return True, tuple((i, cid) for i, cid in enumerate(chunks))

    def _op_chunklocs(self, _path: str, cid: Any) -> tuple[bool, Any]:
        locs = self.chunk_locs.get(cid)
        if not locs:
            return False, "nolocs"
        return True, tuple(sorted(locs))

    # -- background sweeps ------------------------------------------------------------------

    def _liveness_sweep(self) -> None:
        if self.crashed:
            return
        dead = [
            addr
            for addr, last in self.datanodes.items()
            if self.now - last > self.dn_timeout_ms
        ]
        for addr in dead:
            del self.datanodes[addr]
            for cid in list(self.chunk_locs):
                self.chunk_locs[cid].pop(addr, None)
                if not self.chunk_locs[cid]:
                    del self.chunk_locs[cid]
        self.after(self.liveness_interval_ms, self._liveness_sweep)

    def _gc_sweep(self) -> None:
        if self.crashed:
            return
        live_chunks = {
            cid for chunks in self.file_chunks.values() for cid in chunks
        }
        # Orphaned chunks are deleted; under-replicated ones re-replicated.
        for cid, locs in list(self.chunk_locs.items()):
            if cid not in live_chunks:
                for addr in locs:
                    self.send(addr, "gc_chunk", (addr, cid))
            elif 0 < len(locs) < self.replication:
                src = min(locs)
                candidates = [a for a in self.datanodes if a not in locs]
                if candidates:
                    target = min(
                        candidates, key=lambda addr: stable_hash(cid + addr)
                    )
                    self.send(src, "replicate_cmd", (src, cid, target))
        self.after(self.gc_interval_ms, self._gc_sweep)

    # -- inspection (test parity with BoomFSMaster) --------------------------------------------

    def paths(self) -> dict[str, int]:
        return {self.path_of(fid): fid for fid in self.files}

    def live_datanodes(self) -> list[str]:
        return sorted(self.datanodes)

    def chunks_of(self, fid: int) -> list[str]:
        return list(self.file_chunks.get(fid, []))

    def chunk_locations(self, cid: str) -> list[str]:
        return sorted(self.chunk_locs.get(cid, {}))
