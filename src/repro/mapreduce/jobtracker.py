"""BOOM-MR JobTracker: Overlog scheduling policy + thin imperative glue.

The glue does only what the paper's Java glue did: feed job submissions
into the relations, ship job specs to TaskTrackers, answer map-output
location queries (from the ``winner`` relation), and surface job
completion to the runner.  Which task runs where — including speculation —
is decided entirely by the merged Overlog policy.
"""

from __future__ import annotations

import itertools

from ..overlog import Program, parse
from ..sim.node import OverlogProcess, program_source
from .types import JobSpec

POLICIES = ("fifo", "hadoop", "late")


def scheduler_program(policy: str = "fifo") -> Program:
    """The JobTracker program for a policy: FIFO core plus, optionally,
    one of the speculative-execution rule modules (``spec_<policy>``)."""
    if policy not in POLICIES:
        raise ValueError(f"unknown policy {policy!r}; pick one of {POLICIES}")
    path = "mapreduce/scheduler_programs/{}.olg"
    program = parse(program_source(path.format("boom_mr")))
    if policy != "fifo":
        program = program.merged(
            parse(program_source(path.format(f"spec_{policy}")))
        )
    return program


class JobTracker(OverlogProcess):
    """The BOOM-MR master.

    Parameters
    ----------
    policy: "fifo" (no speculation), "hadoop", or "late".
    spec_min_runtime_ms / spec_lag / slow_node_ratio: speculation knobs
        (installed into spec_conf / late_conf).
    """

    def __init__(
        self,
        address: str = "jobtracker",
        policy: str = "fifo",
        tt_timeout_ms: int = 3000,
        spec_min_runtime_ms: int = 1500,
        spec_lag: float = 0.2,
        slow_node_ratio: float = 0.5,
        seed: int = 0,
    ):
        self.policy = policy
        self.tt_timeout_ms = tt_timeout_ms
        self.spec_min_runtime_ms = spec_min_runtime_ms
        self.spec_lag = spec_lag
        self.slow_node_ratio = slow_node_ratio
        self._job_ids = itertools.count(1)
        self.specs: dict[int, JobSpec] = {}
        self.completions: dict[int, int] = {}  # job id -> finish ms
        self.submissions: dict[int, int] = {}  # job id -> submit ms
        self.task_launches: dict[tuple[int, int], int] = {}
        self.task_completions: dict[tuple[int, int], int] = {}
        super().__init__(address, scheduler_program(policy), seed=seed)

    def bootstrap(self) -> None:
        rt = self.runtime
        rt.install("tt_timeout", [(0, self.tt_timeout_ms)])
        if self.policy == "hadoop":
            rt.install(
                "spec_conf", [(0, self.spec_min_runtime_ms, self.spec_lag)]
            )
        elif self.policy == "late":
            rt.install(
                "late_conf",
                [(0, self.spec_min_runtime_ms, self.slow_node_ratio)],
            )
        self.runtime.watch("job_complete", self._on_job_complete)
        self.runtime.watch("do_assign", self._on_assign)
        self.runtime.watch("task_done", self._on_task_done)

    def _on_job_complete(self, row: tuple) -> None:
        job_id, finish_ms = row
        if job_id not in self.completions:
            self.metrics.counter("mr.jobs_completed").inc()
        self.completions.setdefault(job_id, finish_ms)

    def _on_assign(self, row: tuple) -> None:
        _, job_id, task_id, _ = row
        self.metrics.counter("mr.task_assignments").inc()
        self.task_launches.setdefault((job_id, task_id), self.now)

    def _on_task_done(self, row: tuple) -> None:
        _, job_id, task_id, _ = row
        self.metrics.counter("mr.tasks_completed").inc()
        self.task_completions.setdefault((job_id, task_id), self.now)

    # -- job submission ---------------------------------------------------------

    def submit(
        self,
        spec: JobSpec,
        locality: Optional[dict[int, list[str]]] = None,
    ) -> int:
        """Register a job; returns its id.  Trackers known at submit time
        receive the spec (the runner starts trackers before submitting).

        ``locality`` maps a map task id to TaskTracker addresses whose
        machine holds that task's input (installed as ``task_loc`` rows;
        the scheduling rules prefer local assignments).
        """
        job_id = spec.job_id if spec.job_id else next(self._job_ids)
        spec.job_id = job_id
        self.specs[job_id] = spec
        self.submissions[job_id] = self.now
        self.metrics.counter("mr.jobs_submitted").inc()
        rt = self.runtime
        rt.insert("job", (job_id, spec.num_maps, spec.num_reduces, self.now))
        for task_id, tracker_addrs in (locality or {}).items():
            for addr in tracker_addrs:
                rt.insert("task_loc", (job_id, task_id, addr))
        rt.insert("job_state", (job_id, "running"))
        for t in spec.map_task_ids():
            rt.insert("task", (job_id, t, "map"))
            rt.insert("task_state", (job_id, t, "pending"))
        for t in spec.reduce_task_ids():
            rt.insert("task", (job_id, t, "reduce"))
            rt.insert("task_state", (job_id, t, "pending"))
        self._schedule_step()
        for addr, _ in self.runtime.rows("tracker"):
            self.send(addr, "job_spec", (job_id, spec))
        return job_id

    def is_complete(self, job_id: int) -> bool:
        return job_id in self.completions

    # -- imperative message handling ----------------------------------------------

    def handle_message(self, relation: str, row: tuple) -> None:
        if relation == "get_map_locs":
            job_id, reply_to = row
            locs = tuple(
                (t, addr)
                for j, t, addr in self.runtime.rows("winner")
                if j == job_id
            )
            self.send(reply_to, "map_locs", (job_id, locs))
        elif relation == "get_job_spec":
            job_id, reply_to = row
            spec = self.specs.get(job_id)
            if spec is not None:
                self.send(reply_to, "job_spec", (job_id, spec))
        else:
            super().handle_message(relation, row)

    # -- inspection ------------------------------------------------------------------

    def task_states(self, job_id: int) -> dict[int, str]:
        return {
            t: state
            for j, t, state in self.runtime.rows("task_state")
            if j == job_id
        }

    def attempts(self, job_id: int) -> list[tuple]:
        return [r for r in self.runtime.rows("attempt") if r[0] == job_id]

    def speculative_attempts(self, job_id: int) -> list[tuple]:
        return [r for r in self.attempts(job_id) if r[2] > 0]

    def live_trackers(self) -> list[str]:
        return sorted(addr for addr, _ in self.runtime.rows("tracker"))
