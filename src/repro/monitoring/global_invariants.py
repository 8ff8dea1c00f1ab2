"""Cluster-scoped invariants: cross-node safety rules at the monitor.

The packs in :mod:`repro.monitoring.invariants` run *inside* one
component and can only see that component's tables.  The packs here run
on the telemetry monitor (:mod:`repro.telemetry.monitor`) over **state
exports**: every node periodically ships a snapshot of its
safety-relevant relations (``px_*`` for Paxos replicas, ``fs_*`` for
BOOM-FS masters, ``dn_*`` for DataNodes) to the monitor, where more
Overlog joins them *across* nodes — the paper's point that monitoring
lives at the same semantic level as the system, now applied to
properties no single node can check:

* **paxos-agreement** — two replicas decided different values for the
  same log instance (the core safety property of consensus);
* **ballot-regression / applied-regression** — a replica's durable
  promise high-water or applied cursor went backwards.  Ballot
  regression means broken durability (a true safety violation); applied
  regression is the expected signature of a crash-restart log replay,
  which makes it a useful *detection* signal for fault campaigns;
* **chunk-agreement** — the master believes a DataNode holds a chunk the
  DataNode's own inventory disproves (the silent-wrongness case: a
  DataNode that loses its disk but restarts quickly never retracts its
  old chunk reports, so no alert pack notices);
* **chunk-unhosted / replication-factor** — a chunk the namespace
  references has no (or too few) live locations in the master's view;
* **shard-overlap** — two namespace shards both claim ownership of one
  file path (the partitioned master's disjointness contract).

Transient-state hygiene: every export round carries the sender's clock,
and rules that could misfire on in-flight messages require the condition
to hold for *two consecutive rounds on both sides* before deriving a
violation.  The monitor's core program
(:data:`~repro.telemetry.monitor.MONITOR_PROGRAM`) declares every
exported relation and keeps the last-two-round window (``fs_cur`` /
``fs_prev``, ``dn_cur`` / ``dn_prev``): round markers
(``fs_round``/``dn_round``/``px_cursor``) are small and kept forever
(bounded by round count); bulk state rows are pruned below the previous
round.  The packs here hold only the judging rules.

Wire-up is :meth:`repro.transport.base_cluster.BaseCluster.enable_monitor`:
each export round ships every node's state export beside its telemetry,
and a violation lands on the monitor's ``signal_log`` like an alarm,
explained by ``cluster.why(monitor, "invariant_violation", row)`` and
dumped by a flight recorder armed with ``dump_on=("violation", ...)``.
"""

from __future__ import annotations

from typing import Optional

from ..telemetry.alerts import DEFAULT_ALERT_PACKS

#: Paxos cross-replica safety over ``px_state``/``px_cursor`` exports.
GLOBAL_PAXOS_INVARIANTS = """
program global_paxos_invariants;

define(px_cur, keys(0), {Str, Int});
define(px_ballot_high, keys(0), {Str, Int});
define(px_applied_high, keys(0), {Str, Int});

/* no two replicas may decide different values at one instance */
gp1 invariant_violation("paxos-agreement", I) :-
        px_state(N1, I, V1), px_state(N2, I, V2), V1 != V2;

gp2 px_cur(N, max<C>) :- px_cursor(N, _, _, C);
gp3 px_ballot_high(N, max<B>) :- px_cursor(N, B, _, _);
gp4 px_applied_high(N, max<A>) :- px_cursor(N, _, A, _);

/* the durable promise high-water must never regress (safety) */
gp5 invariant_violation("ballot-regression", N) :-
        px_cur(N, C), px_cursor(N, B, _, C),
        px_ballot_high(N, H), B < H;

/* the applied cursor regressing is the signature of a crash-restart
   log replay: not unsafe, but exactly the event a fault campaign
   wants a timestamped detection for */
gp6 invariant_violation("applied-regression", N) :-
        px_cur(N, C), px_cursor(N, _, A, C),
        px_applied_high(N, H), A < H;
"""

#: BOOM-FS master-vs-datanode agreement and replication safety.
GLOBAL_BOOMFS_INVARIANTS = """
program global_boomfs_invariants;

/* master, chunk, round, live location count */
define(fs_loc_cnt, keys(0, 1, 2), {Str, Str, Int, Int});

gb1 fs_loc_cnt(M, C, R, count<D>) :- fs_loc(M, C, D, R);
gb2 delete fs_loc_cnt(M, C, R, N) :-
        fs_loc_cnt(M, C, R, N), fs_prev(M, P), R < P;

/* the master believed D held C for its last two rounds, while D's own
   last two inventory exports both lack C: the belief is stale — the
   amnesiac-restart case no heartbeat or alert pack ever corrects */
gb3 invariant_violation("chunk-agreement", C) :-
        fs_loc(M, C, D, R1), fs_cur(M, R1),
        fs_loc(M, C, D, R0), fs_prev(M, R0),
        dn_cur(D, DR), notin dn_chunk(D, C, DR),
        dn_prev(D, DP), notin dn_chunk(D, C, DP);

/* a chunk the namespace references has had no live location at all
   for two consecutive master rounds (every replica dead or timed out) */
gb4 invariant_violation("chunk-unhosted", C) :-
        fs_chunk(M, C, R1), fs_cur(M, R1),
        fs_chunk(M, C, R0), fs_prev(M, R0),
        notin fs_loc(M, C, _, R1),
        notin fs_loc(M, C, _, R0);

/* a referenced chunk has been below the replication factor (but not
   unhosted) for two consecutive master rounds */
gb5 invariant_violation("replication-factor", C) :-
        fs_chunk(M, C, R1), fs_cur(M, R1),
        fs_chunk(M, C, R0), fs_prev(M, R0),
        fs_rf(M, F),
        fs_loc_cnt(M, C, R1, N1), N1 < F,
        fs_loc_cnt(M, C, R0, N0), N0 < F;
"""

#: Namespace-shard disjointness for the partitioned master: files are
#: hashed to exactly one partition (directories replicate everywhere),
#: so one file path claimed by two *different* id scopes is a routing
#: or split-brain bug.  Only shards export ``fs_owner``: masters built
#: without the shard-unsafe rules (``PARTITION_DROPPED_RULES``).
GLOBAL_SHARD_INVARIANTS = """
program global_shard_invariants;

gs1 invariant_violation("shard-overlap", Path) :-
        fs_owner(S1, N1, Path, R1), fs_cur(N1, R1),
        fs_owner(S2, N2, Path, R2), fs_cur(N2, R2),
        S1 != S2;
"""

GLOBAL_INVARIANT_PACKS = (
    GLOBAL_PAXOS_INVARIANTS,
    GLOBAL_BOOMFS_INVARIANTS,
    GLOBAL_SHARD_INVARIANTS,
)

#: The monitor's default packs: every alert and cluster-invariant pack.
DEFAULT_PACKS = DEFAULT_ALERT_PACKS + GLOBAL_INVARIANT_PACKS


def paxos_state_rows(runtime, node: str, clock: int) -> list[tuple]:
    """A Paxos replica's export: cursor (promise high-water + applied)
    and the full decided log, as ``(relation, row)`` pairs."""
    promised = runtime.rows("max_promised")
    ballot = promised[0][1] if promised else 0
    applied_rows = runtime.rows("applied")
    applied = applied_rows[0][1] if applied_rows else 0
    rows: list[tuple] = [("px_cursor", (node, ballot, applied, clock))]
    for inst, value in runtime.rows("decided"):
        rows.append(("px_state", (node, inst, value)))
    return rows


def boomfs_state_rows(
    runtime,
    node: str,
    clock: int,
    ownership_scope: Optional[str] = None,
) -> list[tuple]:
    """A BOOM-FS master's export: its round marker, replication factor,
    chunk references, location beliefs — and, when ``ownership_scope``
    is given, one ``fs_owner`` row per *file* path it claims (dirs are
    replicated across shards by design, so they never count)."""
    rows: list[tuple] = [("fs_round", (node, clock))]
    factor_rows = runtime.rows("repfactor")
    if factor_rows:
        rows.append(("fs_rf", (node, factor_rows[0][0])))
    for dn, cid, _size in runtime.rows("hb_chunk"):
        rows.append(("fs_loc", (node, cid, dn, clock)))
    for cid, _fid, _idx in runtime.rows("fchunk"):
        rows.append(("fs_chunk", (node, cid, clock)))
    if ownership_scope is not None:
        is_dir = {fid: d for fid, _p, _n, d in runtime.rows("file")}
        for path, fid in runtime.rows("fqpath"):
            if path and not is_dir.get(fid, True):
                rows.append(("fs_owner", (ownership_scope, node, path, clock)))
    return rows


def datanode_state_rows(datanode, clock: int) -> list[tuple]:
    """A DataNode's export: its round marker plus its actual chunk
    inventory (ground truth the master's beliefs are checked against)."""
    node = str(datanode.address)
    rows: list[tuple] = [("dn_round", (node, clock))]
    for cid in sorted(datanode.chunks):
        rows.append(("dn_chunk", (node, cid, clock)))
    return rows


__all__ = [
    "DEFAULT_PACKS",
    "GLOBAL_BOOMFS_INVARIANTS",
    "GLOBAL_INVARIANT_PACKS",
    "GLOBAL_PAXOS_INVARIANTS",
    "GLOBAL_SHARD_INVARIANTS",
    "boomfs_state_rows",
    "datanode_state_rows",
    "paxos_state_rows",
]
