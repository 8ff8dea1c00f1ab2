#!/usr/bin/env python3
"""Scalability revision: hash-partition the NameNode across 4 masters.

Each partition runs the *unmodified* BOOM-FS Overlog program over its
slice of the namespace (directories replicated, files hashed by path);
the client routes per-path and scatter-gathers `ls`.  The example shows
file placement across partitions and that throughput scales when the
metadata plane is the bottleneck.

Run:  python examples/partitioned_namespace.py
"""

from repro.boomfs import DataNode
from repro.boomfs.partition import (
    PartitionedFSClient,
    partition_of,
    partitioned_master,
)
from repro.sim import Cluster, LatencyModel

PARTITIONS = 4

cluster = Cluster(latency=LatencyModel(1, 1))
masters = [
    cluster.add(partitioned_master(f"master{p}", replication=2))
    for p in range(PARTITIONS)
]
addrs = [m.address for m in masters]
for i in range(4):
    cluster.add(DataNode(f"dn{i}", masters=addrs, heartbeat_ms=300))
fs = cluster.add(PartitionedFSClient("client", [[a] for a in addrs]))
cluster.run_for(800)

print(f"{PARTITIONS} NameNode partitions, each running the unmodified "
      "boomfs_master.olg program\n")

fs.mkdir("/data")
print("mkdir /data  -> replicated to every partition:")
for m in masters:
    print(f"  {m.address}: paths = {sorted(m.paths())}")

print("\nCreating 12 files; each lives on exactly one partition:")
for i in range(12):
    path = f"/data/file{i:02d}"
    fs.write(path, f"contents of {path}".encode())
placement: dict[str, list[str]] = {a: [] for a in addrs}
for i in range(12):
    path = f"/data/file{i:02d}"
    owner = f"master{partition_of(path, PARTITIONS)}"
    placement[owner].append(path.rsplit('/', 1)[1])
for addr in addrs:
    print(f"  {addr}: {placement[addr]}")

print("\nls /data scatter-gathers across partitions:")
print(" ", fs.ls("/data"))

print("\nReading back through the partition router:")
sample = "/data/file07"
print(f"  {sample} -> {fs.read(sample).decode()!r}")

fs.rm("/data")
print("\nrm /data fans out to every partition; namespace now:",
      {m.address: sorted(m.paths()) for m in masters})
