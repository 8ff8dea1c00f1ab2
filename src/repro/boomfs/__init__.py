"""BOOM-FS: an HDFS-workalike with a declarative (Overlog) metadata plane.

The NameNode state machine — path resolution, directory operations, chunk
allocation/placement, DataNode liveness, garbage collection and
re-replication — is an Overlog program (``programs/boomfs_master.olg``)
executed by :mod:`repro.overlog`.  DataNodes and clients are imperative,
exactly as in the paper.

Typical setup::

    from repro.sim import Cluster
    from repro.boomfs import BoomFSMaster, DataNode, BoomFSClient

    cluster = Cluster()
    cluster.add(BoomFSMaster("master", replication=2))
    for i in range(3):
        cluster.add(DataNode(f"dn{i}", masters=["master"]))
    fs = cluster.add(BoomFSClient("client", masters=["master"]))
    cluster.run_for(1000)          # let DataNodes register
    fs.mkdir("/data")
    fs.write("/data/hello", b"hello, declarative world")
    assert fs.read("/data/hello") == b"hello, declarative world"
"""

from .chunks import DEFAULT_CHUNK_SIZE, assemble_chunks, split_chunks
from .client import BoomFSClient, FSError, FSSession, FSTimeout
from .datanode import DataNode
from .master import BoomFSMaster, master_program
from .shell import FSShell, ShellError

__all__ = [
    "BoomFSClient",
    "BoomFSMaster",
    "DEFAULT_CHUNK_SIZE",
    "DataNode",
    "FSError",
    "FSSession",
    "FSShell",
    "FSTimeout",
    "ShellError",
    "assemble_chunks",
    "master_program",
    "split_chunks",
]
