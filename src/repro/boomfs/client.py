"""BOOM-FS client library.

Two layers:

* :class:`FSSession` — asynchronous, callback-based.  It can be embedded
  in any simulated :class:`~repro.sim.node.Process` (the MapReduce
  TaskTracker embeds one to read its input chunks) and implements RPC
  retry/failover across a list of master replicas.
* :class:`BoomFSClient` — a synchronous facade for tests, examples and
  benchmarks.  Each call drives the simulator until its response arrives,
  so client code reads like ordinary blocking filesystem code.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Any, Callable, Optional

from ..transport import Address
from ..sim.node import Process
from ..sim.simulator import EventHandle
from .chunks import DEFAULT_CHUNK_SIZE, assemble_chunks, split_chunks


class FSError(Exception):
    """A filesystem operation failed; ``code`` is the master's error tag."""

    def __init__(self, code: str, op: str = "", path: str = ""):
        super().__init__(f"{op} {path}: {code}".strip())
        self.code = code
        self.op = op
        self.path = path


class FSTimeout(FSError):
    """No response arrived within the deadline (master unreachable)."""

    def __init__(self, op: str = "", path: str = ""):
        super().__init__("timeout", op, path)


Callback = Callable[[bool, Any, bool], None]  # (ok, payload, retried)

# Errors that signal an earlier, response-lost attempt already succeeded.
IDEMPOTENT_ERRORS = {"mkdir": "exists", "create": "exists", "rm": "noent"}


@dataclass
class _PendingRpc:
    op: str
    path: str
    arg: Any
    callback: Callback
    timeout_handle: Optional[EventHandle] = None
    retries: int = 0


class FSSession:
    """Asynchronous BOOM-FS protocol driver bound to a host process."""

    RELATIONS = frozenset({"response", "chunk_ack", "chunk_data"})

    def __init__(
        self,
        host: Process,
        masters: list[Address],
        chunk_size: int = DEFAULT_CHUNK_SIZE,
        rpc_timeout_ms: int = 400,
        max_retries: int = 12,
        rid_counter: Optional[itertools.count] = None,
        encode_request: Optional[
            Callable[[Address, tuple], tuple[str, tuple]]
        ] = None,
        preferred_nodes: Optional[frozenset] = None,
    ):
        if not masters:
            raise ValueError("need at least one master address")
        # DataNodes fetched from first when holding a wanted chunk (data
        # locality: a TaskTracker prefers its machine-local DataNode).
        self.preferred_nodes = preferred_nodes or frozenset()
        self.host = host
        self.masters = list(masters)
        self.chunk_size = chunk_size
        self.rpc_timeout_ms = rpc_timeout_ms
        self.max_retries = max_retries
        self._leader = 0
        # Sessions sharing one host must share the counter so request ids
        # stay unique per client address (see PartitionedFSClient).
        self._rids = rid_counter if rid_counter is not None else itertools.count(1)
        self._encode_request = encode_request
        self._pending: dict[int, _PendingRpc] = {}
        self._ack_waiters: dict[int, tuple[set, Callable[[], None], EventHandle]] = {}
        self._data_waiters: dict[int, Callable[[Optional[bytes]], None]] = {}

    # -- message plumbing -----------------------------------------------------

    def handles(self, relation: str) -> bool:
        return relation in self.RELATIONS

    def on_message(self, relation: str, row: tuple) -> None:
        if relation == "response":
            _, rid, ok, payload = row
            pending = self._pending.pop(rid, None)
            if pending is None:
                return  # late duplicate after a retry already completed
            if pending.timeout_handle is not None:
                pending.timeout_handle.cancel()
            pending.callback(ok, payload, pending.retries > 0)
        elif relation == "chunk_ack":
            rid, _, addr = row
            waiter = self._ack_waiters.get(rid)
            if waiter is None:
                return
            needed, done, timeout = waiter
            needed.discard(addr)
            if not needed:
                del self._ack_waiters[rid]
                timeout.cancel()
                done()
        elif relation == "chunk_data":
            rid, _, data = row
            handler = self._data_waiters.pop(rid, None)
            if handler is not None:
                handler(data)

    # -- RPC with master failover -------------------------------------------------

    def rpc(self, op: str, path: str, arg: Any, callback: Callback) -> int:
        rid = next(self._rids)
        pending = _PendingRpc(op=op, path=path, arg=arg, callback=callback)
        self._pending[rid] = pending
        self._transmit(rid)
        return rid

    def _transmit(self, rid: int) -> None:
        pending = self._pending.get(rid)
        if pending is None:
            return
        master = self.masters[self._leader % len(self.masters)]
        row = (rid, self.host.address, pending.op, pending.path, pending.arg)
        if self._encode_request is not None:
            relation, row = self._encode_request(master, row)
        else:
            relation = "request"
        self.host.send(master, relation, row)
        pending.timeout_handle = self.host.after(
            self.rpc_timeout_ms, lambda: self._on_rpc_timeout(rid)
        )

    def _on_rpc_timeout(self, rid: int) -> None:
        pending = self._pending.get(rid)
        if pending is None:
            return
        pending.retries += 1
        if pending.retries > self.max_retries:
            del self._pending[rid]
            pending.callback(False, "timeout", True)
            return
        # Assume the current master is down; rotate and resend.
        self._leader = (self._leader + 1) % len(self.masters)
        self._transmit(rid)

    # -- metadata operations ---------------------------------------------------------

    def mkdir(self, path: str, cb: Callback) -> None:
        self.rpc("mkdir", path, None, cb)

    def create(self, path: str, cb: Callback) -> None:
        self.rpc("create", path, None, cb)

    def exists(self, path: str, cb: Callback) -> None:
        self.rpc("exists", path, None, cb)

    def ls(self, path: str, cb: Callback) -> None:
        self.rpc("ls", path, None, cb)

    def rm(self, path: str, cb: Callback) -> None:
        self.rpc("rm", path, None, cb)

    def mv(self, old: str, new: str, cb: Callback) -> None:
        self.rpc("mv", old, new, cb)

    def stat(self, path: str, cb: Callback) -> None:
        self.rpc("stat", path, None, cb)

    # -- data path: write ----------------------------------------------------------------

    def write(self, path: str, data: bytes, cb: Callback) -> None:
        """Create ``path`` and store its data (single-writer, no overwrite)."""
        chunks = split_chunks(data, self.chunk_size)

        def after_create(ok: bool, payload: Any, retried: bool) -> None:
            if not ok and not (retried and payload == "exists"):
                cb(False, payload, retried)
                return
            self._write_chunks(path, chunks, 0, cb)

        self.create(path, after_create)

    def _write_chunks(
        self, path: str, chunks: list[bytes], index: int, cb: Callback
    ) -> None:
        if index >= len(chunks):
            cb(True, len(chunks), False)
            return

        def after_addchunk(ok: bool, payload: Any, retried: bool) -> None:
            if not ok:
                cb(False, payload, retried)
                return
            cid, addrs = payload[0], list(payload[1])
            if not addrs:
                cb(False, "nodatanodes", retried)
                return
            self._store_to_datanodes(
                cid,
                chunks[index],
                addrs,
                on_done=lambda: self._write_chunks(path, chunks, index + 1, cb),
                on_fail=lambda: cb(False, "storetimeout", retried),
            )

        self.rpc("addchunk", path, None, after_addchunk)

    def _store_to_datanodes(
        self,
        cid: str,
        data: bytes,
        addrs: list[Address],
        on_done: Callable[[], None],
        on_fail: Callable[[], None],
    ) -> None:
        rid = next(self._rids)
        needed = set(addrs)
        # Budget grows with chunk size: bulk transfers take simulated time.
        budget = self.rpc_timeout_ms + len(data) // 1024
        attempts = 0

        def transmit() -> None:
            nonlocal attempts
            attempts += 1
            waiter = self._ack_waiters.get(rid)
            if waiter is None:
                return
            remaining = waiter[0]
            # Sorted iteration: set order is hash-order, which would leak
            # PYTHONHASHSEED into the send sequence (and the trace log).
            for addr in sorted(remaining):
                self.host.send(
                    addr, "store_chunk", (cid, data, self.host.address, rid)
                )
            handle = self.host.after(budget, timed_out)
            self._ack_waiters[rid] = (remaining, on_done, handle)

        def timed_out() -> None:
            if rid not in self._ack_waiters:
                return
            if attempts >= self.max_retries:
                del self._ack_waiters[rid]
                on_fail()
            else:
                # Retransmit to replicas that have not acked (store is
                # idempotent: same chunk id, same bytes).
                transmit()

        placeholder = self.host.after(budget, timed_out)
        self._ack_waiters[rid] = (needed, on_done, placeholder)
        placeholder.cancel()
        transmit()

    # -- data path: read --------------------------------------------------------------------

    def read(self, path: str, cb: Callback) -> None:
        """Fetch all chunks of ``path`` and reassemble its contents."""

        def after_getchunks(ok: bool, payload: Any, retried: bool) -> None:
            if not ok:
                cb(False, payload, retried)
                return
            chunk_ids = [cid for _, cid in payload]  # already (idx, cid) sorted
            self._read_chunks(path, chunk_ids, [], cb)

        self.rpc("getchunks", path, None, after_getchunks)

    def _read_chunks(
        self, path: str, remaining: list[str], collected: list[bytes], cb: Callback
    ) -> None:
        if not remaining:
            cb(True, assemble_chunks(collected), False)
            return
        cid = remaining[0]

        def after_locs(ok: bool, payload: Any, retried: bool) -> None:
            if not ok:
                cb(False, payload, retried)
                return
            addrs = sorted(
                payload, key=lambda a: (a not in self.preferred_nodes, a)
            )
            self._fetch_from(
                cid,
                addrs,
                on_data=lambda data: (
                    collected.append(data),
                    self._read_chunks(path, remaining[1:], collected, cb),
                ),
                on_fail=lambda: cb(False, "chunklost", retried),
            )

        self.rpc("chunklocs", "", cid, after_locs)

    def _fetch_from(
        self,
        cid: str,
        addrs: list[Address],
        on_data: Callable[[bytes], None],
        on_fail: Callable[[], None],
    ) -> None:
        if not addrs:
            on_fail()
            return
        rid = next(self._rids)
        settled = False

        def on_chunk_data(data: Optional[bytes]) -> None:
            nonlocal settled
            if settled:
                return
            settled = True
            handle.cancel()
            if data is None:
                self._fetch_from(cid, addrs[1:], on_data, on_fail)
            else:
                on_data(data)

        def timed_out() -> None:
            nonlocal settled
            if settled:
                return
            settled = True
            self._data_waiters.pop(rid, None)
            self._fetch_from(cid, addrs[1:], on_data, on_fail)

        self._data_waiters[rid] = on_chunk_data
        handle = self.host.after(self.rpc_timeout_ms, timed_out)
        self.host.send(addrs[0], "fetch_chunk", (rid, cid, self.host.address))


class BoomFSClient(Process):
    """Synchronous BOOM-FS client for tests, examples and benchmarks.

    Must be added to the cluster like any process; every call drives the
    simulator until the operation settles, then returns or raises
    :class:`FSError`.
    """

    def __init__(
        self,
        address: Address,
        masters: list[Address] | str = "master",
        chunk_size: int = DEFAULT_CHUNK_SIZE,
        op_timeout_ms: int = 60_000,
        rpc_timeout_ms: int = 400,
        encode_request: Optional[
            Callable[[Address, tuple], tuple[str, tuple]]
        ] = None,
    ):
        super().__init__(address)
        if isinstance(masters, str):
            masters = [masters]
        self.session = FSSession(
            self,
            masters,
            chunk_size=chunk_size,
            rpc_timeout_ms=rpc_timeout_ms,
            encode_request=encode_request,
        )
        self.op_timeout_ms = op_timeout_ms
        self._pending_trace: Any = None

    def handle_message(self, relation: str, row: tuple) -> None:
        if self.session.handles(relation):
            self.session.on_message(relation, row)

    # -- tracing -------------------------------------------------------------

    def start_trace(self, name: str):
        """Begin a causal trace; the *next* operation runs under it.

        Returns the root :class:`~repro.metrics.trace.SpanRef`, usable with
        ``cluster.tracer.span_tree`` / ``render_tree`` afterwards.
        """
        assert self.cluster is not None, "client must be added to a cluster"
        ref = self.cluster.tracer.start_trace(name, node=str(self.address))
        self._pending_trace = ref
        return ref

    # -- sync driver -------------------------------------------------------------

    def _call(self, op: str, path: str, start: Callable[[Callback], None]) -> Any:
        assert self.cluster is not None, "client must be added to a cluster"
        box: list[tuple[bool, Any, bool]] = []
        done = lambda ok, payload, retried: box.append((ok, payload, retried))
        ref, self._pending_trace = self._pending_trace, None
        if ref is not None:
            with self.cluster.tracer.activate((ref,)):
                start(done)
        else:
            start(done)
        self.cluster.run_until(
            lambda: bool(box), max_time_ms=self.cluster.now + self.op_timeout_ms
        )
        if not box:
            raise FSTimeout(op, path)
        ok, payload, retried = box[0]
        if ok:
            return payload
        if retried and IDEMPOTENT_ERRORS.get(op) == payload:
            # The lost first attempt already took effect.
            return None
        raise FSError(str(payload), op, path)

    # -- public API -----------------------------------------------------------------

    def mkdir(self, path: str) -> Any:
        """Create a directory; parent must exist."""
        return self._call("mkdir", path, lambda cb: self.session.mkdir(path, cb))

    def makedirs(self, path: str) -> None:
        """Create a directory and any missing ancestors (like mkdir -p)."""
        parts = [p for p in path.split("/") if p]
        current = ""
        for part in parts:
            current += "/" + part
            if self.exists(current) is None:
                self.mkdir(current)

    def create(self, path: str) -> Any:
        """Create an empty file; parent directory must exist."""
        return self._call("create", path, lambda cb: self.session.create(path, cb))

    def exists(self, path: str) -> Optional[bool]:
        """None if absent, else True for a directory, False for a file."""
        try:
            return self._call(
                "exists", path, lambda cb: self.session.exists(path, cb)
            )
        except FSError as exc:
            if exc.code == "noent":
                return None
            raise

    def ls(self, path: str) -> list[str]:
        """Sorted child names of a directory."""
        return list(self._call("ls", path, lambda cb: self.session.ls(path, cb)))

    def rm(self, path: str) -> None:
        """Remove a file or directory subtree."""
        self._call("rm", path, lambda cb: self.session.rm(path, cb))

    def mv(self, old: str, new: str) -> None:
        """Rename/move ``old`` to ``new`` (new parent must exist)."""
        self._call("mv", old, lambda cb: self.session.mv(old, new, cb))

    def stat(self, path: str) -> tuple[bool, int]:
        """(is_dir, size_bytes) for a path; raises FSError("noent") if
        absent.  Size may briefly be reported as "pending" right after a
        write, before any DataNode's chunk report lands; this call retries
        internally until the size is known."""
        while True:
            try:
                payload = self._call(
                    "stat", path, lambda cb: self.session.stat(path, cb)
                )
                return bool(payload[0]), int(payload[1])
            except FSError as exc:
                if exc.code != "pending":
                    raise
                assert self.cluster is not None
                self.cluster.run_for(100)

    def write(self, path: str, data: bytes) -> int:
        """Create ``path`` with ``data``; returns the chunk count."""
        result = self._call(
            "write", path, lambda cb: self.session.write(path, data, cb)
        )
        return 0 if result is None else int(result)

    def read(self, path: str) -> bytes:
        """Read and reassemble a file's contents."""
        return self._call("read", path, lambda cb: self.session.read(path, cb))

    def chunk_locations(self, path: str) -> list[str]:
        """DataNode addresses holding the file's *first* chunk (the
        locality hint MapReduce uses to place map tasks)."""
        chunks = self._call(
            "getchunks", path, lambda cb: self.session.rpc(
                "getchunks", path, None, cb
            )
        )
        if not chunks:
            return []
        first_cid = chunks[0][1]
        return list(
            self._call(
                "chunklocs",
                path,
                lambda cb: self.session.rpc("chunklocs", "", first_cid, cb),
            )
        )
