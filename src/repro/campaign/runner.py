"""The campaign runner: one seeded fault campaign, end to end.

A campaign is: build a BOOM-FS cluster (either backend), preload some
replicated files, arm the full observability stack — the monitor plane
(telemetry, per-op latency SLOs and cluster-scoped invariants in one
export round), the flight recorder — then drive an open-loop metadata
workload while a generated multi-class fault schedule fires, and record
everything that happens on one unified timeline.  On the simulator
backend the whole run is deterministic, so the timeline (and the JSON
artifact) is byte-reproducible for a given :class:`CampaignSpec`.

The chronology matters and is encoded here once:

1. topology + preload *before* the monitor is armed, so bring-up noise
   (empty chunk tables, first heartbeats) never shows up as signal;
2. one ``enable_monitor`` arms every pack and the export round, so the
   monitor's signal log holds every alarm firing, alarm clear and
   violation at the step that derived it;
3. the load driver is open-loop (``arrival_ms``), so the workload spans
   the fault slots instead of racing ahead of them;
4. after the last scheduled event the run quiesces for ``quiesce_ms``
   so clears and late violations land before episodes are extracted.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..boomfs.client import BoomFSClient
from ..boomfs.datanode import DataNode
from ..boomfs.master import BoomFSMaster
from ..sim.failure import FAULT_CLASSES, generate_campaign
from ..workload.driver import LoadDriver
from .report import alarm_episodes, campaign_report, violation_episodes
from .timeline import Timeline, dump_json


@dataclass
class CampaignSpec:
    """Everything that determines a campaign run (and its artifact)."""

    name: str = "campaign"
    seed: int = 0
    backend: str = "sim"  # "sim" | "asyncio"
    datanodes: int = 5
    replication: int = 2
    preload_files: int = 4
    total_ops: int = 1000
    arrival_ms: int = 60
    round_ms: int = 500  # export round interval
    warmup_ms: int = 3000  # monitor armed -> first fault slot
    quiesce_ms: int = 8000  # after the last scheduled event
    slot_ms: int = 12_000
    #: p99 SLO on request latency (virtual ms).  ``None`` picks a
    #: backend-calibrated default: the simulator's virtual clock is
    #: exact, but on asyncio wall-clock scheduling jitter is multiplied
    #: by ``time_scale`` before it reaches the latency digest, so a
    #: sim-tight threshold would cry wolf on a healthy cluster there.
    slo_p99_ms: Optional[float] = None
    match_window_ms: int = 8000
    #: Fault classes to inject, in slot order; () = no-fault control run.
    classes: tuple = FAULT_CLASSES
    #: Straggler severity: the victim's ``step_cost_ms`` during the
    #: slowdown slot.  It delays each of the victim's steps by that much
    #: (inputs arriving meanwhile join the delayed step), so every
    #: request the victim serves is slower by it per step it takes and
    #: the p99 SLO alarm has cause to fire.  It builds no queue: with
    #: ``per_derivation_cost_us`` at 0 a step does not keep the node busy
    #: (``OverlogProcess._run_step``).
    slowdown_cost_ms: int = 120
    #: asyncio backend only: virtual-ms per real-ms compression.
    time_scale: float = 10.0
    dump_dir: Optional[str] = None  # flight-recorder post-mortems


@dataclass
class CampaignResult:
    spec: CampaignSpec
    timeline: Timeline
    end_ms: int
    latency: dict  # the load driver's percentile report
    report: dict  # campaign_report() output

    def to_dict(self) -> dict:
        return {
            "name": self.spec.name,
            "backend": self.spec.backend,
            "seed": self.spec.seed,
            "end_ms": self.end_ms,
            "events": self.timeline.to_dicts(),
            "latency": self.latency,
            "report": self.report,
        }

    def to_json(self) -> str:
        """Byte-deterministic (on the sim backend) campaign artifact."""
        return dump_json(self.to_dict())


def _build_cluster(spec: CampaignSpec):
    if spec.backend == "sim":
        from ..sim.cluster import Cluster

        return Cluster(seed=spec.seed)
    if spec.backend == "asyncio":
        from ..transport.asyncio_backend import AsyncCluster

        return AsyncCluster(seed=spec.seed, time_scale=spec.time_scale)
    raise ValueError(f"unknown backend {spec.backend!r} (sim|asyncio)")


def run_campaign(spec: CampaignSpec) -> CampaignResult:
    """Run one campaign to completion and analyse it."""
    timeline = Timeline()
    cluster = _build_cluster(spec)
    try:
        cluster.add(
            BoomFSMaster("master", replication=spec.replication)
        )
        datanodes = [f"dn{i}" for i in range(spec.datanodes)]
        for name in datanodes:
            cluster.add(DataNode(name, masters=["master"]))
        cluster.run_for(600)  # first heartbeats register every DataNode

        client = cluster.add(BoomFSClient("client", masters=["master"]))
        client.mkdir("/seed")
        payload = b"campaign-chunk-payload " * 40
        for i in range(spec.preload_files):
            client.write(f"/seed/f{i}", payload)
        # Let full chunk reports land so the master's location beliefs
        # are settled before anything starts judging them.
        cluster.run_for(1200)

        monitor = cluster.enable_monitor(
            interval_ms=spec.round_ms, per_op_latency=True
        )
        slo_p99_ms = spec.slo_p99_ms
        if slo_p99_ms is None:
            slo_p99_ms = (
                150.0
                if spec.backend == "sim"
                else 500.0 * spec.time_scale
            )
        monitor.set_slo("request.latency_ms", slo_p99_ms)
        cluster.enable_flight_recorder(
            directory=spec.dump_dir,
            dump_on=("crash", "alarm", "violation"),
        )

        schedule_end = cluster.now
        if spec.classes:
            schedule = generate_campaign(
                masters=["master"],
                datanodes=datanodes,
                others=["client", "loadgen", "monitor"],
                seed=spec.seed,
                start_ms=cluster.now + spec.warmup_ms,
                slot_ms=spec.slot_ms,
                classes=spec.classes,
                slowdown_cost_ms=spec.slowdown_cost_ms,
            )

            def observe(kind: str, ms: int, subject: str) -> None:
                category = "fault" if kind in FAULT_CLASSES else "repair"
                timeline.add(ms, category, kind, subject)

            schedule.apply(cluster, observer=observe)
            schedule_end = schedule.end_ms()

        driver = cluster.add(
            LoadDriver(
                "loadgen",
                masters=["master"],
                total_ops=spec.total_ops,
                arrival_ms=spec.arrival_ms,
                seed=spec.seed,
            )
        )
        timeline.add(
            cluster.now,
            "workload",
            "start",
            str(driver.address),
            detail=f"{spec.total_ops} ops @ {spec.arrival_ms}ms",
        )
        deadline = (
            cluster.now + spec.total_ops * spec.arrival_ms + 120_000
        )
        finished = cluster.run_until(
            lambda: driver.done, max_time_ms=deadline
        )
        timeline.add(
            cluster.now,
            "workload",
            "done" if finished else "timeout",
            str(driver.address),
            detail=f"{driver._completed}/{spec.total_ops} ops",
        )
        horizon = max(cluster.now, schedule_end) + spec.quiesce_ms
        if cluster.now < horizon:
            cluster.run_for(horizon - cluster.now)
        end_ms = cluster.now

        for ep in alarm_episodes(monitor.signal_log):
            timeline.add(
                ep["start_ms"],
                "alarm",
                ep["name"],
                ep["subject"],
                detail=ep["detail"],
            )
            if ep["clear_ms"] is not None:
                timeline.add(
                    ep["clear_ms"], "alarm-clear", ep["name"], ep["subject"]
                )
        for ep in violation_episodes(
            monitor.signal_log, end_ms, spec.round_ms
        ):
            timeline.add(
                ep["start_ms"], "violation", ep["name"], ep["subject"]
            )
            if ep["clear_ms"] is not None:
                timeline.add(
                    ep["clear_ms"],
                    "violation-clear",
                    ep["name"],
                    ep["subject"],
                )

        return CampaignResult(
            spec=spec,
            timeline=timeline,
            end_ms=end_ms,
            latency=driver.percentile_report(),
            report=campaign_report(
                timeline, end_ms, match_window_ms=spec.match_window_ms
            ),
        )
    finally:
        cluster.shutdown()


__all__ = ["CampaignResult", "CampaignSpec", "run_campaign"]
