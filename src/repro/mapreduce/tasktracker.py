"""BOOM-MR TaskTracker: the imperative worker.

Mechanism only — slots, task execution, shuffle serving — mirroring the
paper's split where all *policy* sits in the JobTracker's Overlog rules.

Execution model: a map task reads its input file from BOOM-FS (costing
simulated transfer time), then "computes" for
``overhead + bytes/throughput * speed_factor`` milliseconds of virtual
time; the real Python map function runs at completion so outputs are
genuine.  ``speed_factor`` > 1 makes this node a straggler — the knob the
LATE experiments turn.  Reduce tasks ask the JobTracker where each map's
output lives (the ``winner`` relation), fetch their partition from every
map's tracker, compute, and optionally write ``part-NNNNN`` files back to
the filesystem.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional

from ..boomfs.client import FSSession
from ..overlog.functions import stable_hash
from ..transport import Address
from ..sim.node import Process
from ..sim.simulator import EventHandle
from .types import JobSpec, partition_for, reduce_index


@dataclass
class _Attempt:
    job_id: int
    task_id: int
    attempt: int
    kind: str  # "map" | "reduce"
    started_ms: int
    compute_start_ms: Optional[int] = None
    duration_ms: Optional[int] = None
    done_handle: Optional[EventHandle] = None
    killed: bool = False
    # reduce-side state
    pending_fetches: set = field(default_factory=set)
    collected: dict = field(default_factory=dict)
    fetch_deadline: Optional[EventHandle] = None

    @property
    def key(self) -> tuple[int, int, int]:
        return (self.job_id, self.task_id, self.attempt)

    def progress(self, now: int) -> float:
        if self.duration_ms is None or self.compute_start_ms is None:
            return 0.02
        if self.duration_ms <= 0:
            return 0.98
        frac = (now - self.compute_start_ms) / self.duration_ms
        return max(0.02, min(0.98, frac))


class TaskTracker(Process):
    def __init__(
        self,
        address: Address,
        jobtracker: Address = "jobtracker",
        fs_masters: Optional[list[Address]] = None,
        map_slots: int = 2,
        reduce_slots: int = 2,
        speed_factor: float = 1.0,
        heartbeat_ms: int = 400,
        map_overhead_ms: int = 150,
        reduce_overhead_ms: int = 150,
        map_bytes_per_ms: int = 100,
        reduce_bytes_per_ms: int = 150,
        fetch_timeout_ms: int = 1500,
        encode_fs_request: Any = None,
        local_datanode: Optional[Address] = None,
    ):
        super().__init__(address)
        self.jobtracker = jobtracker
        self.local_datanode = local_datanode
        self.map_slots = map_slots
        self.reduce_slots = reduce_slots
        self.speed_factor = speed_factor
        self.heartbeat_ms = heartbeat_ms
        self.map_overhead_ms = map_overhead_ms
        self.reduce_overhead_ms = reduce_overhead_ms
        self.map_bytes_per_ms = map_bytes_per_ms
        self.reduce_bytes_per_ms = reduce_bytes_per_ms
        self.fetch_timeout_ms = fetch_timeout_ms
        self.fs: Optional[FSSession] = None
        if fs_masters:
            preferred = (
                frozenset({local_datanode}) if local_datanode else frozenset()
            )
            self.fs = FSSession(
                self,
                list(fs_masters),
                encode_request=encode_fs_request,
                preferred_nodes=preferred,
            )
        self.specs: dict[int, JobSpec] = {}
        self.running: dict[tuple[int, int, int], _Attempt] = {}
        self.map_outputs: dict[tuple[int, int], list[list]] = {}
        self._awaiting_spec: dict[int, list[tuple]] = {}
        self.tasks_executed = 0

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> None:
        # Stagger first heartbeats so trackers don't all hit the
        # JobTracker in the same timestep (Hadoop serialized heartbeats).
        offset = 1 + stable_hash(self.address) % self.heartbeat_ms
        self.after(offset, self._heartbeat)

    def reset_for_restart(self) -> None:
        self.specs = {}
        self.running = {}
        self.map_outputs = {}
        self._awaiting_spec = {}

    # -- slots ----------------------------------------------------------------

    def _free_slots(self) -> tuple[int, int]:
        maps = sum(1 for a in self.running.values() if a.kind == "map")
        reds = sum(1 for a in self.running.values() if a.kind == "reduce")
        return self.map_slots - maps, self.reduce_slots - reds

    # -- heartbeat ---------------------------------------------------------------

    def _heartbeat(self) -> None:
        if self.crashed:
            return
        free_m, free_r = self._free_slots()
        self.send(self.jobtracker, "tt_hb", (self.address, free_m, free_r))
        for a in self.running.values():
            self.send(
                self.jobtracker,
                "prog",
                (self.address, a.job_id, a.task_id, a.attempt, a.progress(self.now)),
            )
        self.after(self.heartbeat_ms, self._heartbeat)

    # -- messages -------------------------------------------------------------------

    def handle_message(self, relation: str, row: tuple) -> None:
        if self.fs is not None and self.fs.handles(relation):
            self.fs.on_message(relation, row)
        elif relation == "launch":
            _, job_id, task_id, attempt, kind = row
            self._launch(job_id, task_id, attempt, kind)
        elif relation == "kill":
            _, job_id, task_id, attempt = row
            self._kill((job_id, task_id, attempt))
        elif relation == "job_spec":
            job_id, spec = row
            self.specs[job_id] = spec
            for pending in self._awaiting_spec.pop(job_id, []):
                self._launch(*pending)
        elif relation == "map_locs":
            job_id, locs = row
            self._on_map_locs(job_id, locs)
        elif relation == "fetch_map_out":
            job_id, map_t, r_index, reply_to = row
            out = self.map_outputs.get((job_id, map_t))
            records = tuple(out[r_index]) if out is not None else None
            self.send(reply_to, "map_out_data", (job_id, map_t, r_index, records))
        elif relation == "map_out_data":
            self._on_map_out_data(*row)

    # -- launch ------------------------------------------------------------------------

    def _launch(self, job_id: int, task_id: int, attempt: int, kind: str) -> None:
        spec = self.specs.get(job_id)
        if spec is None:
            self._awaiting_spec.setdefault(job_id, []).append(
                (job_id, task_id, attempt, kind)
            )
            self.send(self.jobtracker, "get_job_spec", (job_id, self.address))
            return
        state = _Attempt(job_id, task_id, attempt, kind, started_ms=self.now)
        self.running[state.key] = state
        if kind == "map":
            self._start_map(state, spec)
        else:
            self._start_reduce(state, spec)

    def _kill(self, key: tuple[int, int, int]) -> None:
        state = self.running.pop(key, None)
        if state is not None:
            state.killed = True
            if state.done_handle is not None:
                state.done_handle.cancel()
            if state.fetch_deadline is not None:
                state.fetch_deadline.cancel()

    def _finish(self, state: _Attempt) -> None:
        if state.killed or state.key not in self.running:
            return
        del self.running[state.key]
        self.tasks_executed += 1
        self.send(
            self.jobtracker,
            "task_done",
            (self.address, state.job_id, state.task_id, state.attempt),
        )

    # -- map execution ---------------------------------------------------------------------

    def _start_map(self, state: _Attempt, spec: JobSpec) -> None:
        path = spec.inputs[state.task_id]
        if self.fs is None:
            raise RuntimeError("map task needs a filesystem session")

        def on_read(ok: bool, data: Any, _retried: bool) -> None:
            if state.killed:
                return
            if not ok:
                # Input temporarily unreadable (e.g. NameNode failing
                # over): retry until the kill/los e path cleans us up.
                self.after(500, lambda: self.fs.read(path, on_read))
                return
            state.compute_start_ms = self.now
            state.duration_ms = int(
                self.map_overhead_ms
                + len(data) / self.map_bytes_per_ms * self.speed_factor
            )
            state.done_handle = self.after(
                state.duration_ms, lambda: self._complete_map(state, spec, data)
            )

        self.fs.read(path, on_read)

    def _complete_map(self, state: _Attempt, spec: JobSpec, data: bytes) -> None:
        if state.killed:
            return
        if spec.num_reduces > 0:
            partitions: list[list] = [[] for _ in range(spec.num_reduces)]
            for lineno, line in enumerate(data.decode("utf-8", "replace").splitlines()):
                for key, value in spec.map_func(lineno, line):
                    partitions[partition_for(key, spec.num_reduces)].append(
                        (key, value)
                    )
            self.map_outputs[(state.job_id, state.task_id)] = partitions
        self._finish(state)

    # -- reduce execution -------------------------------------------------------------------

    def _start_reduce(self, state: _Attempt, spec: JobSpec) -> None:
        self._request_locs(state)

    def _request_locs(self, state: _Attempt) -> None:
        if state.killed:
            return
        self.send(self.jobtracker, "get_map_locs", (state.job_id, self.address))

    def _on_map_locs(self, job_id: int, locs: tuple) -> None:
        spec = self.specs.get(job_id)
        if spec is None:
            return
        waiting = [
            a
            for a in self.running.values()
            if a.kind == "reduce" and a.job_id == job_id and a.duration_ms is None
            and not a.pending_fetches
        ]
        for state in waiting:
            if len(locs) < spec.num_maps:
                # Some map output is (re-)executing; poll again shortly.
                self.after(500, lambda s=state: self._request_locs(s))
                continue
            state.collected = {}
            state.pending_fetches = {t for t, _ in locs}
            r_index = reduce_index(state.task_id)
            for map_t, addr in locs:
                self.send(
                    addr,
                    "fetch_map_out",
                    (job_id, map_t, r_index, self.address),
                )
            state.fetch_deadline = self.after(
                self.fetch_timeout_ms, lambda s=state: self._fetch_timed_out(s)
            )

    def _fetch_timed_out(self, state: _Attempt) -> None:
        if state.killed or not state.pending_fetches:
            return
        # Report every straggling map as failed and start over.
        for map_t in state.pending_fetches:
            self.send(
                self.jobtracker, "fetch_failed", (self.address, state.job_id, map_t)
            )
        state.pending_fetches = set()
        state.collected = {}
        self.after(500, lambda: self._request_locs(state))

    def _on_map_out_data(
        self, job_id: int, map_t: int, r_index: int, records: Optional[tuple]
    ) -> None:
        for state in list(self.running.values()):
            if (
                state.kind != "reduce"
                or state.job_id != job_id
                or reduce_index(state.task_id) != r_index
                or map_t not in state.pending_fetches
            ):
                continue
            if records is None:
                # That tracker lost the output (restart): trigger map
                # re-execution and retry.
                self.send(
                    self.jobtracker, "fetch_failed", (self.address, job_id, map_t)
                )
                state.pending_fetches = set()
                state.collected = {}
                if state.fetch_deadline is not None:
                    state.fetch_deadline.cancel()
                self.after(500, lambda s=state: self._request_locs(s))
                return
            state.collected[map_t] = records
            state.pending_fetches.discard(map_t)
            if not state.pending_fetches:
                if state.fetch_deadline is not None:
                    state.fetch_deadline.cancel()
                self._begin_reduce_compute(state)

    def _begin_reduce_compute(self, state: _Attempt) -> None:
        spec = self.specs[state.job_id]
        shuffled = sum(
            len(str(k)) + 8 for recs in state.collected.values() for k, _ in recs
        )
        state.compute_start_ms = self.now
        state.duration_ms = int(
            self.reduce_overhead_ms
            + shuffled / self.reduce_bytes_per_ms * self.speed_factor
        )
        state.done_handle = self.after(
            state.duration_ms, lambda: self._complete_reduce(state, spec)
        )

    def _complete_reduce(self, state: _Attempt, spec: JobSpec) -> None:
        if state.killed:
            return
        groups: dict[str, list] = {}
        for records in state.collected.values():
            for key, value in records:
                groups.setdefault(key, []).append(value)
        output: list[tuple] = []
        for key in sorted(groups):
            output.extend(spec.reduce_func(key, groups[key]))
        if spec.output_dir is None or self.fs is None:
            self._finish(state)
            return
        path = f"{spec.output_dir}/part-{reduce_index(state.task_id):05d}"
        data = "\n".join(f"{k}\t{v}" for k, v in output).encode()

        def on_write(ok: bool, payload: Any, retried: bool) -> None:
            # A speculative twin may have written the identical file first.
            if ok or payload == "exists":
                self._finish(state)
            elif payload == "noparent":
                # Create the output directory (first reducer to get here
                # wins; "exists" from the others is fine) and retry.
                self.fs.mkdir(
                    spec.output_dir,
                    lambda *_: self.after(
                        100, lambda: self.fs.write(path, data, on_write)
                    ),
                )
            else:
                self.after(500, lambda: self.fs.write(path, data, on_write))

        self.fs.write(path, data, on_write)
