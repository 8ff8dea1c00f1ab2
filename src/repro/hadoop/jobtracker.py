"""Imperative Hadoop-style JobTracker: the baseline for BOOM-MR.

Implements the same scheduling semantics as the declarative FIFO +
Hadoop-speculation policies — one map and one reduce assignment per
heartbeat, reduces gated on map completion, backup attempts for laggards,
tracker-death rescheduling — as conventional Python state machines.
Interface-compatible with :class:`repro.mapreduce.jobtracker.JobTracker`
so the runner and TaskTrackers work unchanged.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Optional

from ..mapreduce.types import JobSpec
from ..transport import Address
from ..sim.node import Process


@dataclass
class _TaskInfo:
    kind: str
    state: str = "pending"  # pending | running | done
    attempts: list = field(default_factory=list)  # (attempt, tracker, state, start)
    progress: dict = field(default_factory=dict)  # attempt -> (fraction, report_ms)
    winner: Optional[str] = None


class BaselineJobTracker(Process):
    def __init__(
        self,
        address: Address = "jobtracker",
        policy: str = "fifo",  # "fifo" (no speculation) or "hadoop"
        tt_timeout_ms: int = 3000,
        spec_min_runtime_ms: int = 1500,
        spec_lag: float = 0.2,
        liveness_interval_ms: int = 1000,
        seed: int = 0,
    ):
        if policy not in ("fifo", "hadoop"):
            raise ValueError(f"baseline supports fifo/hadoop, not {policy!r}")
        super().__init__(address)
        self.policy = policy
        self.tt_timeout_ms = tt_timeout_ms
        self.spec_min_runtime_ms = spec_min_runtime_ms
        self.spec_lag = spec_lag
        self.liveness_interval_ms = liveness_interval_ms
        self._job_ids = itertools.count(1)
        self.specs: dict[int, JobSpec] = {}
        self.jobs: dict[int, dict[int, _TaskInfo]] = {}
        self.job_meta: dict[int, tuple[int, int]] = {}  # (nmaps, nreds)
        self.job_states: dict[int, str] = {}
        self.trackers: dict[str, int] = {}
        self.completions: dict[int, int] = {}
        self.submissions: dict[int, int] = {}
        self.task_launches: dict[tuple[int, int], int] = {}
        self.task_completions: dict[tuple[int, int], int] = {}

    def start(self) -> None:
        self.after(self.liveness_interval_ms, self._liveness_sweep)

    # -- submission ------------------------------------------------------------

    def submit(
        self,
        spec: JobSpec,
        locality: Optional[dict[int, list[str]]] = None,
    ) -> int:
        job_id = spec.job_id if spec.job_id else next(self._job_ids)
        spec.job_id = job_id
        self.specs[job_id] = spec
        self.submissions[job_id] = self.now
        self.locality = getattr(self, "locality", {})
        self.locality[job_id] = locality or {}
        self.job_meta[job_id] = (spec.num_maps, spec.num_reduces)
        self.job_states[job_id] = "running"
        tasks: dict[int, _TaskInfo] = {}
        for t in spec.map_task_ids():
            tasks[t] = _TaskInfo("map")
        for t in spec.reduce_task_ids():
            tasks[t] = _TaskInfo("reduce")
        self.jobs[job_id] = tasks
        for addr in self.trackers:
            self.send(addr, "job_spec", (job_id, spec))
        return job_id

    def is_complete(self, job_id: int) -> bool:
        return job_id in self.completions

    # -- message handling -----------------------------------------------------------

    def handle_message(self, relation: str, row: tuple) -> None:
        if relation == "tt_hb":
            addr, free_m, free_r = row
            self.trackers[addr] = self.now
            self._assign(addr, free_m, free_r)
        elif relation == "prog":
            addr, job_id, task_id, attempt, fraction = row
            task = self._task(job_id, task_id)
            if task is not None:
                task.progress[attempt] = (fraction, self.now)
        elif relation == "task_done":
            self._on_task_done(*row)
        elif relation == "fetch_failed":
            _, job_id, task_id = row
            self._on_fetch_failed(job_id, task_id)
        elif relation == "get_map_locs":
            job_id, reply_to = row
            tasks = self.jobs.get(job_id, {})
            locs = tuple(
                (t, info.winner)
                for t, info in tasks.items()
                if info.kind == "map" and info.winner is not None
            )
            self.send(reply_to, "map_locs", (job_id, locs))
        elif relation == "get_job_spec":
            job_id, reply_to = row
            spec = self.specs.get(job_id)
            if spec is not None:
                self.send(reply_to, "job_spec", (job_id, spec))

    def _task(self, job_id: int, task_id: int) -> Optional[_TaskInfo]:
        return self.jobs.get(job_id, {}).get(task_id)

    # -- scheduling -------------------------------------------------------------------

    def _assign(self, addr: str, free_m: int, free_r: int) -> None:
        if free_m > 0:
            picked = self._pick_pending(addr, "map") or (
                self._pick_speculative(addr, "map") if self.policy == "hadoop" else None
            )
            if picked is not None:
                self._launch(addr, *picked)
        if free_r > 0:
            picked = self._pick_pending(addr, "reduce") or (
                self._pick_speculative(addr, "reduce")
                if self.policy == "hadoop"
                else None
            )
            if picked is not None:
                self._launch(addr, *picked)

    def _pick_pending(self, addr: str, kind: str) -> Optional[tuple[int, int]]:
        fallback: Optional[tuple[int, int]] = None
        for job_id in sorted(self.jobs):
            if self.job_states.get(job_id) != "running":
                continue
            tasks = self.jobs[job_id]
            if kind == "reduce" and not self._maps_done(job_id):
                continue
            locality = getattr(self, "locality", {}).get(job_id, {})
            for task_id in sorted(tasks):
                info = tasks[task_id]
                if info.kind != kind or info.state != "pending":
                    continue
                if kind == "map" and addr in locality.get(task_id, ()):
                    return job_id, task_id  # data-local assignment
                if fallback is None:
                    fallback = (job_id, task_id)
        return fallback

    def _maps_done(self, job_id: int) -> bool:
        return all(
            info.state == "done"
            for info in self.jobs[job_id].values()
            if info.kind == "map"
        )

    def _pick_speculative(self, addr: str, kind: str) -> Optional[tuple[int, int]]:
        """Hadoop's heuristic: back up a running task whose progress lags
        the job average by spec_lag after spec_min_runtime_ms."""
        for job_id in sorted(self.jobs):
            if self.job_states.get(job_id) != "running":
                continue
            tasks = self.jobs[job_id]
            fractions = [
                frac
                for info in tasks.values()
                if info.kind == kind
                for frac, _ in info.progress.values()
            ]
            if not fractions:
                continue
            avg = sum(fractions) / len(fractions)
            for task_id in sorted(tasks):
                info = tasks[task_id]
                if info.kind != kind or info.state != "running":
                    continue
                running = [a for a in info.attempts if a[2] == "running"]
                if len(running) != 1 or len(info.attempts) > 1:
                    continue
                attempt, tracker, _, started = running[0]
                if tracker == addr:
                    continue
                frac, _ = info.progress.get(attempt, (0.0, 0))
                if frac < avg - self.spec_lag and self.now - started > self.spec_min_runtime_ms:
                    return job_id, task_id
        return None

    def _launch(self, addr: str, job_id: int, task_id: int) -> None:
        info = self.jobs[job_id][task_id]
        attempt = len(info.attempts)
        info.attempts.append((attempt, addr, "running", self.now))
        info.state = "running"
        self.task_launches.setdefault((job_id, task_id), self.now)
        self.send(addr, "launch", (addr, job_id, task_id, attempt, info.kind))

    # -- completion -----------------------------------------------------------------------

    def _on_task_done(self, addr: str, job_id: int, task_id: int, attempt: int) -> None:
        info = self._task(job_id, task_id)
        if info is None:
            return
        info.state = "done"
        info.progress[attempt] = (1.0, self.now)
        self.task_completions.setdefault((job_id, task_id), self.now)
        if info.kind == "map" and info.winner is None:
            info.winner = addr
        updated = []
        for a, tracker, state, started in info.attempts:
            if a == attempt:
                updated.append((a, tracker, "done", started))
            elif state == "running":
                updated.append((a, tracker, "killed", started))
                self.send(tracker, "kill", (tracker, job_id, task_id, a))
            else:
                updated.append((a, tracker, state, started))
        info.attempts = updated
        self._check_job_complete(job_id)

    def _check_job_complete(self, job_id: int) -> None:
        if self.job_states.get(job_id) != "running":
            return
        tasks = self.jobs[job_id]
        _, nreds = self.job_meta[job_id]
        target_kind = "reduce" if nreds > 0 else "map"
        if all(
            info.state == "done"
            for info in tasks.values()
            if info.kind == target_kind
        ):
            self.job_states[job_id] = "done"
            self.completions[job_id] = self.now

    def _on_fetch_failed(self, job_id: int, task_id: int) -> None:
        info = self._task(job_id, task_id)
        if (
            info is not None
            and info.state == "done"
            and self.job_states.get(job_id) == "running"
        ):
            info.state = "pending"
            info.winner = None

    # -- tracker liveness ---------------------------------------------------------------------

    def _liveness_sweep(self) -> None:
        if self.crashed:
            return
        dead = [
            addr
            for addr, last in self.trackers.items()
            if self.now - last > self.tt_timeout_ms
        ]
        for addr in dead:
            del self.trackers[addr]
            for job_id, tasks in self.jobs.items():
                for task_id, info in tasks.items():
                    changed = False
                    updated = []
                    for a, tracker, state, started in info.attempts:
                        if tracker == addr and state == "running":
                            updated.append((a, tracker, "lost", started))
                            changed = True
                        else:
                            updated.append((a, tracker, state, started))
                    info.attempts = updated
                    if changed and info.state == "running" and not any(
                        s == "running" for _, _, s, _ in info.attempts
                    ):
                        info.state = "pending"
        self.after(self.liveness_interval_ms, self._liveness_sweep)

    # -- inspection (parity with the declarative JobTracker) --------------------------------------

    def task_states(self, job_id: int) -> dict[int, str]:
        return {t: info.state for t, info in self.jobs.get(job_id, {}).items()}

    def attempts(self, job_id: int) -> list[tuple]:
        out = []
        for t, info in self.jobs.get(job_id, {}).items():
            for a, tracker, state, started in info.attempts:
                out.append((job_id, t, a, tracker, state, started))
        return out

    def speculative_attempts(self, job_id: int) -> list[tuple]:
        return [r for r in self.attempts(job_id) if r[2] > 0]

    def live_trackers(self) -> list[str]:
        return sorted(self.trackers)
