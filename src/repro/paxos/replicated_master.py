"""Paxos-replicated BOOM-FS NameNode (the paper's availability revision).

The paper's point: because both Paxos and the NameNode are Overlog
programs over relations, "replicating the NameNode" is just loading both
programs into the same runtime and adding a one-rule bridge that feeds
decided log entries into the FS program's ``request`` event.  This module
does literally that, and the node is likewise the Paxos replica composed
with the BOOM-FS master.

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
from ..boomfs.master import BoomFSMaster, master_program
from ..overlog import parse
from ..sim.node import OverlogProcess
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


class ReplicatedMaster(PaxosReplica, BoomFSMaster):
    """One replica of a Paxos-replicated NameNode group: the Paxos half
    and the BOOM-FS half over the union of their programs.  Hooks chain
    through ``super()`` in that order (bootstrap facts and state exports
    are Paxos's, then BOOM-FS's); everything else is inherited."""

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
        # All replicas must share one id scope (default: the group name).
        scope = id_scope if id_scope is not None else "+".join(sorted(group))
        functions = {
            **self._paxos_half(
                address, group, base_election_timeout_ms, election_stagger_ms
            ),
            **self._fs_half(replication, dn_timeout_ms, drop_rules, scope),
        }
        # One runtime over the union program: each half's own __init__
        # would build a runtime over its half alone.
        program = replicated_master_program(drop_rules)
        OverlogProcess.__init__(
            self, address, program, seed=seed, extra_functions=functions
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
