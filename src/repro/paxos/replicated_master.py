"""Paxos-replicated BOOM-FS NameNode (the paper's availability revision).

The paper's point: because both Paxos and the NameNode are Overlog
programs over relations, "replicating the NameNode" is just loading both
programs into the same runtime and adding a two-rule bridge that feeds
decided log entries into the FS program's ``request`` event.  This module
does literally that.

Determinism contract: every replica applies the same client operations in
the same log order, and all identifier generation in the FS program flows
through ``f_newid()``/``f_idscope()``, which advance identically under
replay.  Soft state (DataNode liveness, chunk locations) is *not*
replicated — DataNodes heartbeat to every replica, exactly as HDFS block
reports rebuild a restarted NameNode.
"""

from __future__ import annotations

from typing import Optional

from ..boomfs.chunks import DEFAULT_CHUNK_SIZE
from ..boomfs.client import BoomFSClient
from ..boomfs.master import ROOT_FILE_ID, master_program
from ..overlog import parse
from ..transport import Address
from .replica import PaxosReplica, paxos_program

# The bridge: decided operations re-enter the FS program as `request`
# events.  Values travel through Paxos as packed 5-tuples.
_GLUE_SOURCE = """
program fs_glue;
u1 request(Rid, Client, Op, Path, Arg) :-
        fs_op(V),
        Rid := f_nth(V, 0), Client := f_nth(V, 1), Op := f_nth(V, 2),
        Path := f_nth(V, 3), Arg := f_nth(V, 4);
"""


def replicated_master_program(drop_rules: tuple[str, ...] = ()):
    """paxos ∪ fs_glue ∪ boomfs_master, as one Overlog program."""
    return (
        paxos_program()
        .merged(parse(_GLUE_SOURCE))
        .merged(master_program(drop_rules))
    )


class ReplicatedMaster(PaxosReplica):
    """One replica of a Paxos-replicated NameNode group."""

    def __init__(
        self,
        address: str,
        group: list[str],
        replication: int = 3,
        dn_timeout_ms: int = 3000,
        id_scope: Optional[str] = None,
        base_election_timeout_ms: int = 1000,
        election_stagger_ms: int = 400,
        drop_rules: tuple[str, ...] = (),
        seed: int = 0,
    ):
        self.replication = replication
        self.dn_timeout_ms = dn_timeout_ms
        # All replicas must share one id scope (default: the group name).
        scope = id_scope if id_scope is not None else "+".join(sorted(group))
        self.id_scope = scope
        # Sharded-and-replicated deployments flip this so exports carry
        # fs_owner claims (replicas of one group share a scope, so they
        # never trip shard-disjointness against each other).
        self.export_ownership = False
        super().__init__(
            address,
            group,
            program=replicated_master_program(drop_rules),
            base_election_timeout_ms=base_election_timeout_ms,
            election_stagger_ms=election_stagger_ms,
            seed=seed,
            extra_functions={"f_idscope": lambda: scope},
        )

    def bootstrap(self) -> None:
        super().bootstrap()  # paxos config + durable acceptor state
        rt = self.runtime
        rt.install("file", [(ROOT_FILE_ID, -1, "", True)])
        rt.install("repfactor", [(self.replication,)])
        rt.install("dn_timeout", [(self.dn_timeout_ms,)])

    def state_export_rows(self, clock: int) -> list[tuple]:
        """Both halves of the replicated NameNode export: the Paxos
        cursor/log (from PaxosReplica) plus the FS chunk state."""
        from ..monitoring.global_invariants import boomfs_state_rows

        rows = super().state_export_rows(clock)
        rows.extend(
            boomfs_state_rows(
                self.runtime,
                str(self.address),
                clock,
                ownership_scope=(
                    self.id_scope if self.export_ownership else None
                ),
            )
        )
        return rows

    # -- inspection (mirrors BoomFSMaster) ------------------------------------

    def paths(self) -> dict[str, int]:
        return {path: fid for path, fid in self.runtime.rows("fqpath")}

    def files(self) -> list[tuple]:
        return self.runtime.rows("file")

    def live_datanodes(self) -> list[str]:
        return sorted(addr for addr, _ in self.runtime.rows("datanode"))

    def chunks_of(self, file_id: int) -> list[str]:
        rows = [r for r in self.runtime.rows("fchunk") if r[1] == file_id]
        return [cid for cid, _, _ in sorted(rows, key=lambda r: r[2])]

    def chunk_locations(self, chunk_id: str) -> list[str]:
        return sorted(
            addr
            for addr, cid, _ in self.runtime.rows("hb_chunk")
            if cid == chunk_id
        )


class ReplicatedFSClient(BoomFSClient):
    """Synchronous client for a Paxos-replicated NameNode group.

    Operations are packed into ``client_op`` values; whichever replica
    receives one forwards it to the current leader, which sequences it
    through the log.  Every replica applies the op and responds; the first
    response wins, later duplicates are ignored.  RPC timeouts rotate
    through the replica list, so the client rides out leader failures.
    """

    def __init__(
        self,
        address: Address,
        replicas: list[Address],
        chunk_size: int = DEFAULT_CHUNK_SIZE,
        op_timeout_ms: int = 60_000,
        rpc_timeout_ms: int = 800,
    ):
        super().__init__(
            address,
            masters=list(replicas),
            chunk_size=chunk_size,
            op_timeout_ms=op_timeout_ms,
            rpc_timeout_ms=rpc_timeout_ms,
            encode_request=lambda master, row: ("client_op", (master, row)),
        )
