"""The BOOM-FS NameNode: an Overlog program hosted on a simulated node.

All metadata logic lives in ``programs/boomfs_master.olg``; this module
only loads the program, installs bootstrap facts (the root directory and
configuration), and exposes inspection helpers used by tests and
benchmarks.  :class:`BoomFSMaster` is also the BOOM-FS half of the
Paxos-replicated NameNode (:mod:`repro.paxos.replicated_master`).
"""

from __future__ import annotations

from typing import Optional

from ..overlog import Program, Rule, parse
from ..sim.node import OverlogProcess, program_source

# Rules a namespace shard must not run: DataNodes are shared across
# shards, so one shard's metadata cannot prove that a chunk unknown to it
# is garbage (the orphan-chunk collector ``gc1``).  Dropping them is what
# makes a master a shard, so it is also what makes its state export claim
# the file paths it owns (``fs_owner``, checked for shard disjointness).
PARTITION_DROPPED_RULES = ("gc1",)


def master_program(drop_rules: tuple[str, ...] = ()) -> Program:
    """Parse the NameNode program, optionally dropping named rules.

    Dropping rules is the Overlog way to reconfigure behaviour: e.g. the
    partitioned deployment removes :data:`PARTITION_DROPPED_RULES`.
    """
    program = parse(program_source("boomfs/programs/boomfs_master.olg"))
    if drop_rules:
        kept: tuple[Rule, ...] = tuple(
            r for r in program.rules if r.name not in drop_rules
        )
        program = program.with_rules(kept)
    return program


ROOT_FILE_ID = 0


class BoomFSMaster(OverlogProcess):
    """A NameNode instance.

    Parameters
    ----------
    address:
        network address, e.g. ``"master0"``.
    replication:
        target replica count for new chunks.
    dn_timeout_ms:
        heartbeat silence after which a DataNode is declared dead.
    drop_rules:
        rule names to remove from the program (see :func:`master_program`).
    """

    def __init__(
        self,
        address: str = "master",
        replication: int = 3,
        dn_timeout_ms: int = 3000,
        drop_rules: tuple[str, ...] = (),
        id_scope: Optional[str] = None,
        seed: int = 0,
        step_cost_ms: int = 0,
        per_derivation_cost_us: int = 0,
        provenance: bool = False,
        profile: bool = False,
    ):
        scope = id_scope if id_scope is not None else address
        super().__init__(
            address,
            master_program(drop_rules),
            seed=seed,
            step_cost_ms=step_cost_ms,
            per_derivation_cost_us=per_derivation_cost_us,
            extra_functions=self._fs_half(
                replication, dn_timeout_ms, drop_rules, scope
            ),
            provenance=provenance,
            profile=profile,
        )

    def _fs_half(
        self,
        replication: int,
        dn_timeout_ms: int,
        drop_rules: tuple[str, ...],
        id_scope: str,
    ) -> dict:
        """Configure this node's BOOM-FS half; returns its functions."""
        self.replication = replication
        self.dn_timeout_ms = dn_timeout_ms
        # f_idscope prefixes chunk ids: masters sharing DataNodes must not
        # collide (partitions get distinct scopes), while Paxos replicas
        # share one scope so replayed ops mint identical ids.
        self.id_scope = id_scope
        self._shard = any(r in drop_rules for r in PARTITION_DROPPED_RULES)
        return {"f_idscope": lambda: id_scope}

    def bootstrap(self) -> None:
        self.runtime.install("file", [(ROOT_FILE_ID, -1, "", True)])
        self.runtime.install("repfactor", [(self.replication,)])
        self.runtime.install("dn_timeout", [(self.dn_timeout_ms,)])
        # NameNode-level metrics ride on the runtime's registry: request
        # mix by op (locally inserted events are watchable; outbound
        # responses and repair orders are counted off the step's sends in
        # handle_step_result, since remote-destined tuples never
        # materialize locally).
        requests = self.metrics
        self.runtime.watch(
            "request",
            lambda row: requests.counter(f"fs.requests.{row[2]}").inc(),
        )
        # Replication health as a lazy collector gauge: chunks with fewer
        # live replicas than repfactor, computed from the runtime's own
        # tables only when a snapshot (or telemetry export) asks.  The
        # telemetry monitor's BOOMFS_ALERTS pack alarms on any positive
        # sample (docs/TELEMETRY.md).
        self.metrics.add_collector(self._collect_replication_health)

    def _collect_replication_health(self, snap: dict) -> None:
        rt = self.runtime
        factor_rows = rt.rows("repfactor")
        factor = factor_rows[0][0] if factor_rows else self.replication
        replicas = {cid: n for cid, n in rt.rows("rep_cnt")}
        under = sum(
            1
            for cid, _fid, _idx in rt.rows("fchunk")
            if replicas.get(cid, 0) < factor
        )
        gauge = self.metrics.gauge("fs.chunks.under_replicated")
        gauge.set(under)
        snap["gauges"]["fs.chunks.under_replicated"] = under

    def handle_step_result(self, result) -> None:
        counter = self.metrics.counter
        for _dest, relation, row in result.sends:
            if relation == "response":
                counter(
                    "fs.responses.ok" if row[2] else "fs.responses.error"
                ).inc()
            elif relation == "replicate_cmd":
                counter("fs.replications_ordered").inc()
            elif relation == "gc_chunk":
                counter("fs.gc_ordered").inc()

    def state_export_rows(self, clock: int) -> list[tuple]:
        """Cluster-invariant export: chunk references, location beliefs
        and, for a shard, the file paths it owns (see
        repro.monitoring.global_invariants)."""
        from ..monitoring.global_invariants import boomfs_state_rows

        return boomfs_state_rows(
            self.runtime,
            str(self.address),
            clock,
            ownership_scope=self.id_scope if self._shard else None,
        )

    # -- inspection helpers (tests, benchmarks, invariants) ------------------

    def paths(self) -> dict[str, int]:
        """Snapshot of the fqpath view: path -> file id."""
        return {path: fid for path, fid in self.runtime.rows("fqpath")}

    def files(self) -> list[tuple]:
        return self.runtime.rows("file")

    def chunks_of(self, file_id: int) -> list[str]:
        """Chunk ids of a file, in file order."""
        rows = [r for r in self.runtime.rows("fchunk") if r[1] == file_id]
        return [cid for cid, _, _ in sorted(rows, key=lambda r: r[2])]

    def live_datanodes(self) -> list[str]:
        return sorted(addr for addr, _ in self.runtime.rows("datanode"))

    def chunk_locations(self, chunk_id: str) -> list[str]:
        return sorted(
            addr
            for addr, cid, _ in self.runtime.rows("hb_chunk")
            if cid == chunk_id
        )

    # -- provenance debugging (docs/PROVENANCE.md) ---------------------------

    def why_path(self, path: str, fmt: str = "text"):
        """Derivation DAG of the ``fqpath`` view entry for ``path`` —
        *why does this path exist?* — stitched across the cluster when
        attached (so client-originated ``request`` tuples resolve to
        their sender).  Requires ``provenance=True``."""
        fid = self.paths().get(path)
        if fid is None:
            return self.why_not_path(path, fmt=fmt)
        if self.cluster is not None:
            return self.cluster.provenance.why(
                self.address, "fqpath", (path, fid), fmt=fmt
            )
        return self.runtime.why("fqpath", (path, fid), fmt=fmt)

    def why_not_path(self, path: str, fmt: str = "text"):
        """Replay the ``fqpath`` rules to explain why ``path`` does not
        resolve (missing parent, no such file...).  The file id is
        unknowable from the outside, so it is queried as UNKNOWN."""
        from ..provenance.why import UNKNOWN

        return self.runtime.why_not("fqpath", (path, UNKNOWN), fmt=fmt)

    # -- latency debugging (docs/OBSERVABILITY.md) ---------------------------

    def why_slow(self, trace_id: str, fmt: str = "text"):
        """Critical-path latency attribution of one traced request that
        crossed this master — *why did this op take so long?* — the
        time-domain sibling of :meth:`why_path`.  Delegates to the
        cluster's tracer, so it requires the master to be attached."""
        if self.cluster is None:
            return "(not attached to a cluster — no tracer)"
        return self.cluster.latency_report(trace_id, fmt=fmt)
