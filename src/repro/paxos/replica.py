"""Paxos replica process.

:class:`PaxosReplica` hosts the pure consensus program (for protocol unit
tests and the Paxos microbenchmark), and is the Paxos half of the
replicated NameNode (:mod:`repro.paxos.replicated_master`), which composes
it with the BOOM-FS half.

Durability: real Paxos requires acceptor state to survive crashes.  The
simulator's crash/restart wipes volatile state, so the replica persists its
acceptor and learner tables (``max_promised``, ``acc``, ``decided``) to a
"disk" dict owned by the Python object, and reinstalls them on restart.
The applied cursor deliberately restarts at 1: the state machine is rebuilt
by replaying the decided log, which is exactly the recovery story the
declarative design buys.
"""

from __future__ import annotations

from typing import Any

from ..overlog import Program, parse
from ..sim.node import OverlogProcess, program_source


def paxos_program() -> Program:
    return parse(program_source("paxos/programs/paxos.olg"))


class PaxosReplica(OverlogProcess):
    """One replica of a Paxos group.

    Parameters
    ----------
    address: this replica's network address.
    group: addresses of *all* replicas (including this one), in a fixed
        order shared by every member — the index in this list staggers
        election timeouts and disambiguates ballots.
    base_election_timeout_ms / election_stagger_ms:
        follower i suspects the leader after base + i * stagger of silence.
    """

    def __init__(
        self,
        address: str,
        group: list[str],
        base_election_timeout_ms: int = 1000,
        election_stagger_ms: int = 400,
        seed: int = 0,
        provenance: bool = False,
        profile: bool = False,
    ):
        super().__init__(
            address,
            paxos_program(),
            seed=seed,
            extra_functions=self._paxos_half(
                address, group, base_election_timeout_ms, election_stagger_ms
            ),
            provenance=provenance,
            profile=profile,
        )

    def _paxos_half(
        self,
        address: str,
        group: list[str],
        base_election_timeout_ms: int,
        election_stagger_ms: int,
    ) -> dict:
        """Configure this node's Paxos half; returns its functions."""
        if address not in group:
            raise ValueError(f"{address} not in its own group {group}")
        self.group = list(group)
        self.base_election_timeout_ms = base_election_timeout_ms
        self.election_stagger_ms = election_stagger_ms
        self._disk: dict[str, list[tuple]] = {}
        self._localseq = 0
        return {"f_localseq": self._next_localseq}

    def _next_localseq(self) -> int:
        self._localseq += 1
        return self._localseq

    # -- bootstrap -----------------------------------------------------------

    def bootstrap(self) -> None:
        index = self.group.index(self.address)
        rt = self.runtime
        rt.install("members", [(m,) for m in self.group])
        rt.install("nmembers", [(0, len(self.group))])
        rt.install("quorum", [(0, len(self.group) // 2 + 1)])
        rt.install("me", [(0, self.address)])
        rt.install("my_index", [(0, index)])
        rt.install(
            "election_timeout",
            [(0, self.base_election_timeout_ms + index * self.election_stagger_ms)],
        )
        rt.install("role", [(0, "follower")])
        rt.install("curr_ballot", [(0, 0)])
        rt.install("next_inst", [(0, 1)])
        rt.install("applied", [(0, 1)])
        rt.install("leader_seen", [(0, 0)])
        # Durable acceptor/learner state, if any survived a crash.
        rt.install("max_promised", self._disk.get("max_promised", [(0, 0)]))
        rt.install("acc", self._disk.get("acc", []))
        rt.install("decided", self._disk.get("decided", []))
        metrics = self.metrics
        rt.watch("decided", lambda row: metrics.counter("paxos.decided").inc())
        rt.watch(
            "role", lambda row: metrics.counter("paxos.role_changes").inc()
        )
        # Leader liveness for the telemetry plane: 1 on the leader, 0
        # elsewhere; the monitor's PAXOS_ALERTS pack alarms when the
        # cluster-wide sum of reported samples is zero (no live leader).
        leader_gauge = metrics.gauge("paxos.is_leader")
        leader_gauge.set(0)
        rt.watch(
            "role",
            lambda row: leader_gauge.set(1 if row[1] == "leader" else 0),
        )
        super().bootstrap()  # the other half of a composed node, if any

    def on_crash(self) -> None:
        # Persist acceptor and learner state ("fsync on crash" is a
        # simulator convenience; the tables are tiny).
        self._disk = {
            "max_promised": self.runtime.rows("max_promised"),
            "acc": self.runtime.rows("acc"),
            "decided": self.runtime.rows("decided"),
        }
        super().on_crash()

    def state_export_rows(self, clock: int) -> list[tuple]:
        """Cluster-invariant export: promise/applied cursor plus the
        decided log (see repro.monitoring.global_invariants)."""
        from ..monitoring.global_invariants import paxos_state_rows

        rows = paxos_state_rows(self.runtime, str(self.address), clock)
        return rows + super().state_export_rows(clock)

    # -- inspection -----------------------------------------------------------

    @property
    def role(self) -> str:
        rows = self.runtime.rows("role")
        return rows[0][1] if rows else "unknown"

    @property
    def is_leader(self) -> bool:
        return self.role == "leader"

    def decided_log(self) -> dict[int, Any]:
        return {inst: value for inst, value in self.runtime.rows("decided")}

    def applied_through(self) -> int:
        rows = self.runtime.rows("applied")
        return rows[0][1] - 1 if rows else 0

    def submit(self, value: Any) -> None:
        """Inject a client operation at this replica (it forwards to the
        leader if it is not the leader itself)."""
        self.inject("client_op", (self.address, value))

    # -- provenance debugging (docs/PROVENANCE.md) ---------------------------

    def why_decided(self, inst: int, fmt: str = "text"):
        """Derivation DAG of the ``decided`` entry for instance ``inst``
        — *why did this slot decide this value?* — stitched across the
        group's ledgers when attached, so the quorum of ``accepted``
        messages resolves back to the acceptors that sent them.
        Requires ``provenance=True``."""
        value = self.decided_log().get(inst)
        if value is None:
            from ..provenance.why import UNKNOWN

            return self.runtime.why_not("decided", (inst, UNKNOWN), fmt=fmt)
        if self.cluster is not None:
            return self.cluster.provenance.why(
                self.address, "decided", (inst, value), fmt=fmt
            )
        return self.runtime.why("decided", (inst, value), fmt=fmt)
