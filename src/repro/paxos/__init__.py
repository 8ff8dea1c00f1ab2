"""Overlog Paxos and the Paxos-replicated BOOM-FS NameNode.

The consensus protocol itself lives in ``programs/paxos.olg`` — MultiPaxos
with failure-driven leader election, continuous phase-1 recovery, accept
retransmission and follower catch-up, all as Overlog rules.  Python code
here only bootstraps configuration, persists acceptor state across
simulated crashes, and glues decided log entries into the BOOM-FS program.
"""

from .replica import PaxosReplica, paxos_program
from .replicated_master import (
    ReplicatedFSClient,
    ReplicatedMaster,
    replicated_master_program,
)

__all__ = [
    "PaxosReplica",
    "ReplicatedFSClient",
    "ReplicatedMaster",
    "paxos_program",
    "replicated_master_program",
]
