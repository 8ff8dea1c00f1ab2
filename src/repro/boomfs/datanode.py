"""BOOM-FS DataNode: the imperative data plane.

As in the paper, chunk storage and transfer are ordinary imperative code;
only the metadata plane is declarative.  A DataNode:

* stores chunk bytes in memory,
* heartbeats every ``heartbeat_ms`` to every configured master, attaching
  an incremental chunk report (full inventory every ``full_report_every``
  beats, to recover from message loss),
* serves ``store_chunk`` / ``fetch_chunk`` requests from clients,
* obeys ``gc_chunk`` (delete) and ``replicate_cmd`` (copy to a peer)
  orders from the master.
"""

from __future__ import annotations

from typing import Iterable

from ..transport import Address
from ..sim.node import Process


class DataNode(Process):
    def __init__(
        self,
        address: Address,
        masters: Iterable[Address] = ("master",),
        heartbeat_ms: int = 500,
        full_report_every: int = 4,
    ):
        super().__init__(address)
        self.masters = list(masters)
        self.heartbeat_ms = heartbeat_ms
        self.full_report_every = full_report_every
        self.chunks: dict[str, bytes] = {}
        self._beat_count = 0

    # -- lifecycle ------------------------------------------------------------

    def start(self) -> None:
        self._beat_count = 0
        self._heartbeat()

    def reset_for_restart(self) -> None:
        # A restarted DataNode keeps its disk (chunks) but loses soft state.
        self._beat_count = 0

    def _heartbeat(self) -> None:
        if self.crashed:
            return
        self.metrics.counter("dn.heartbeats").inc()
        self._beat_count += 1
        full = self._beat_count % self.full_report_every == 1
        for master in self.masters:
            self.send(master, "heartbeat", (self.address,))
            if full:
                for cid, data in self.chunks.items():
                    self.send(
                        master, "chunk_report", (self.address, cid, len(data))
                    )
        self.after(self.heartbeat_ms, self._heartbeat)

    # -- message handling --------------------------------------------------------

    def handle_message(self, relation: str, row: tuple) -> None:
        if relation == "store_chunk":
            cid, data, reply_to, rid = row
            self.metrics.counter("dn.chunks_stored").inc()
            self.metrics.counter("dn.bytes_stored").inc(len(data))
            self._store(cid, data)
            if reply_to is not None:
                self.send(reply_to, "chunk_ack", (rid, cid, self.address))
        elif relation == "fetch_chunk":
            rid, cid, reply_to = row
            self.metrics.counter("dn.chunks_served").inc()
            self.send(
                reply_to, "chunk_data", (rid, cid, self.chunks.get(cid))
            )
        elif relation == "gc_chunk":
            _, cid = row
            self._drop(cid)
        elif relation == "replicate_cmd":
            _, cid, target = row
            data = self.chunks.get(cid)
            if data is not None and target != self.address:
                self.send(target, "store_chunk", (cid, data, None, 0))

    # -- storage -------------------------------------------------------------------

    def _store(self, cid: str, data: bytes) -> None:
        self.chunks[cid] = data
        self.metrics.gauge("dn.stored_bytes").set(self.stored_bytes)
        for master in self.masters:
            self.send(master, "chunk_report", (self.address, cid, len(data)))

    def _drop(self, cid: str) -> None:
        if cid in self.chunks:
            del self.chunks[cid]
            self.metrics.counter("dn.chunks_gced").inc()
            self.metrics.gauge("dn.stored_bytes").set(self.stored_bytes)
            for master in self.masters:
                self.send(master, "chunk_gone", (self.address, cid))

    def wipe_storage(self) -> None:
        """Disk-loss fault: forget every stored chunk.  Used by amnesia
        failure schedules — a wiped DataNode that restarts quickly keeps
        heartbeating, so the master's stale chunk beliefs are exactly
        what the cluster-scoped chunk-agreement invariant exists to
        catch."""
        self.chunks.clear()
        self.metrics.gauge("dn.stored_bytes").set(0)

    def state_export_rows(self, clock: int) -> list[tuple]:
        """Cluster-invariant export: this node's actual chunk inventory
        (see repro.monitoring.global_invariants)."""
        from ..monitoring.global_invariants import datanode_state_rows

        return datanode_state_rows(self, clock)

    def holds(self, cid: str) -> bool:
        return cid in self.chunks

    @property
    def stored_bytes(self) -> int:
        return sum(len(d) for d in self.chunks.values())
