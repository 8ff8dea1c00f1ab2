"""Rule-level unit tests for the BOOM-MR scheduler programs.

These drive the JobTracker's Overlog directly — inserting heartbeats and
progress reports as raw tuples and asserting on the derived assignments —
so each policy rule is tested in isolation from the cluster machinery.
"""


from repro.mapreduce import REDUCE_BASE, scheduler_program
from repro.overlog import OverlogRuntime


def make_rt(policy="fifo", **conf):
    rt = OverlogRuntime(scheduler_program(policy), address="jt")
    rt.install("tt_timeout", [(0, 3000)])
    if policy == "hadoop":
        rt.install(
            "spec_conf",
            [(0, conf.get("min_runtime", 1000), conf.get("lag", 0.2))],
        )
    elif policy == "late":
        rt.install(
            "late_conf",
            [(0, conf.get("min_runtime", 1000), conf.get("ratio", 0.5))],
        )
    return rt


def submit(rt, job_id=1, maps=2, reduces=1, locality=None):
    rt.insert("job", (job_id, maps, reduces, 0))
    rt.insert("job_state", (job_id, "running"))
    for t in range(maps):
        rt.insert("task", (job_id, t, "map"))
        rt.insert("task_state", (job_id, t, "pending"))
    for r in range(reduces):
        rt.insert("task", (job_id, REDUCE_BASE + r, "reduce"))
        rt.insert("task_state", (job_id, REDUCE_BASE + r, "pending"))
    for t, addrs in (locality or {}).items():
        for addr in addrs:
            rt.insert("task_loc", (job_id, t, addr))


def step(rt, now=0):
    rt.tick(now=now)
    while rt.has_pending_work:
        rt.tick(now=now)


def heartbeat(rt, addr, free_m=1, free_r=1, now=0):
    rt.insert("tt_hb", (addr, free_m, free_r))
    result = rt.tick(now=now)
    launches = [row for _, rel, row in result.sends if rel == "launch"]
    while rt.has_pending_work:
        rt.tick(now=now)
    return launches


class TestFifoRules:
    def test_map_assigned_on_heartbeat(self):
        rt = make_rt()
        submit(rt)
        step(rt)
        launches = heartbeat(rt, "tt0")
        assert launches == [("tt0", 1, 0, 0, "map")]

    def test_lowest_task_first(self):
        rt = make_rt()
        submit(rt, maps=3)
        step(rt)
        (first,) = heartbeat(rt, "tt0")
        assert first[2] == 0
        (second,) = heartbeat(rt, "tt1")
        assert second[2] == 1

    def test_lower_job_id_wins(self):
        rt = make_rt()
        submit(rt, job_id=2)
        submit(rt, job_id=1)
        step(rt)
        (launch,) = heartbeat(rt, "tt0")
        assert launch[1] == 1

    def test_no_free_slots_no_assignment(self):
        rt = make_rt()
        submit(rt)
        step(rt)
        assert heartbeat(rt, "tt0", free_m=0, free_r=0) == []

    def test_reduce_gated_on_maps(self):
        rt = make_rt()
        submit(rt, maps=1, reduces=1)
        step(rt)
        launches = heartbeat(rt, "tt0", free_m=0, free_r=1)
        assert launches == []  # map not done yet
        heartbeat(rt, "tt1")  # assign the map
        rt.insert("task_done", ("tt1", 1, 0, 0))
        step(rt)
        launches = heartbeat(rt, "tt0", free_m=0, free_r=1)
        assert launches == [("tt0", 1, REDUCE_BASE, 0, "reduce")]

    def test_done_task_not_reassigned(self):
        rt = make_rt()
        submit(rt, maps=1, reduces=0)
        step(rt)
        heartbeat(rt, "tt0")
        rt.insert("task_done", ("tt0", 1, 0, 0))
        step(rt)
        assert heartbeat(rt, "tt1") == []

    def test_attempt_numbering_increments(self):
        rt = make_rt()
        submit(rt, maps=1, reduces=0)
        step(rt)
        (a0,) = heartbeat(rt, "tt0")
        assert a0[3] == 0
        # tracker dies: liveness sweep re-pends the task
        rt.insert("tt_liveness", (1, 10_000))
        step(rt, now=10_000)
        step(rt, now=10_000)
        (a1,) = heartbeat(rt, "tt1", now=10_000)
        assert a1[3] == 1  # second attempt

    def test_job_complete_event(self):
        rt = make_rt()
        seen = []
        rt.watch("job_complete", seen.append)
        submit(rt, maps=1, reduces=1)
        step(rt)
        heartbeat(rt, "tt0")
        rt.insert("task_done", ("tt0", 1, 0, 0))
        step(rt)
        heartbeat(rt, "tt0")
        rt.insert("task_done", ("tt0", 1, REDUCE_BASE, 0))
        step(rt)
        assert [row[0] for row in seen] == [1]

    def test_winner_recorded_for_first_finisher(self):
        rt = make_rt()
        submit(rt, maps=1, reduces=1)
        step(rt)
        heartbeat(rt, "tt0")
        rt.insert("task_done", ("tt0", 1, 0, 0))
        step(rt)
        assert rt.rows("winner") == [(1, 0, "tt0")]

    def test_fetch_failed_repends_map_and_clears_winner(self):
        rt = make_rt()
        submit(rt, maps=1, reduces=1)
        step(rt)
        heartbeat(rt, "tt0")
        rt.insert("task_done", ("tt0", 1, 0, 0))
        step(rt)
        rt.insert("fetch_failed", ("ttX", 1, 0))
        step(rt)
        step(rt)
        assert (1, 0, "pending") in rt.rows("task_state")
        assert rt.rows("winner") == []


class TestLocalityRules:
    def test_local_task_preferred(self):
        rt = make_rt()
        submit(rt, maps=2, locality={1: ["tt0"]})
        step(rt)
        (launch,) = heartbeat(rt, "tt0")
        assert launch[2] == 1  # its local map, not map 0

    def test_fallback_to_remote_when_no_local(self):
        rt = make_rt()
        submit(rt, maps=1, locality={0: ["ttZ"]})
        step(rt)
        (launch,) = heartbeat(rt, "tt0")
        assert launch[2] == 0  # remote assignment still happens


def _running_task(
    rt, job, task, tracker, start, progress, report_at, kind="map"
):
    """Install the state of a task mid-flight (tracker registered too, or
    the tracker-death rules would mark the attempt lost)."""
    rt.insert("tracker", (tracker, report_at))
    rt.insert("task", (job, task, kind))
    rt.insert("task_state", (job, task, "running"))
    rt.insert("attempt", (job, task, 0, tracker, "running", start))
    rt.insert("progress", (job, task, 0, progress, report_at))


class TestHadoopSpeculationRules:
    def test_laggard_gets_backup(self):
        rt = make_rt("hadoop", min_runtime=1000, lag=0.2)
        rt.insert("job", (1, 2, 0, 0))
        rt.insert("job_state", (1, "running"))
        _running_task(rt, 1, 0, "slow", start=0, progress=0.1, report_at=5000)
        _running_task(rt, 1, 1, "fast", start=0, progress=0.9, report_at=5000)
        step(rt, now=5000)
        launches = heartbeat(rt, "idle", now=5000)
        assert launches == [("idle", 1, 0, 1, "map")]

    def test_no_backup_before_min_runtime(self):
        rt = make_rt("hadoop", min_runtime=60_000)
        rt.insert("job", (1, 2, 0, 0))
        rt.insert("job_state", (1, "running"))
        _running_task(rt, 1, 0, "slow", start=0, progress=0.1, report_at=5000)
        _running_task(rt, 1, 1, "fast", start=0, progress=0.9, report_at=5000)
        step(rt, now=5000)
        assert heartbeat(rt, "idle", now=5000) == []

    def test_no_backup_on_original_tracker(self):
        rt = make_rt("hadoop", min_runtime=1000)
        rt.insert("job", (1, 2, 0, 0))
        rt.insert("job_state", (1, "running"))
        _running_task(rt, 1, 0, "slow", start=0, progress=0.1, report_at=5000)
        _running_task(rt, 1, 1, "fast", start=0, progress=0.9, report_at=5000)
        step(rt, now=5000)
        assert heartbeat(rt, "slow", now=5000) == []

    def test_pending_work_beats_speculation(self):
        rt = make_rt("hadoop", min_runtime=1000)
        rt.insert("job", (1, 3, 0, 0))
        rt.insert("job_state", (1, "running"))
        _running_task(rt, 1, 0, "slow", start=0, progress=0.1, report_at=5000)
        _running_task(rt, 1, 1, "fast", start=0, progress=0.9, report_at=5000)
        rt.insert("task", (1, 2, "map"))
        rt.insert("task_state", (1, 2, "pending"))
        step(rt, now=5000)
        (launch,) = heartbeat(rt, "idle", now=5000)
        assert launch[2] == 2  # the pending map, no backup


class TestLateRules:
    def _two_tasks(self, rt):
        rt.insert("job", (1, 2, 0, 0))
        rt.insert("job_state", (1, "running"))
        # task 0: 10% after 5s (time_left ~ 45s); task 1: 50% (~5s left)
        _running_task(rt, 1, 0, "slow", start=0, progress=0.1, report_at=5000)
        _running_task(rt, 1, 1, "meh", start=0, progress=0.5, report_at=5000)
        step(rt, now=5000)

    def test_longest_time_left_chosen(self):
        rt = make_rt("late", min_runtime=1000)
        self._two_tasks(rt)
        (launch,) = heartbeat(rt, "idle", now=5000)
        assert launch[2] == 0

    def test_slow_node_refused_backup(self):
        rt = make_rt("late", min_runtime=1000, ratio=0.9)
        self._two_tasks(rt)
        # 'crawler' reports a running attempt with a terrible rate, making
        # it a slow node: LATE must not place a backup there.
        rt.insert("tracker", ("crawler", 5000))
        rt.insert("task", (1, 5, "map"))
        rt.insert("task_state", (1, 5, "running"))
        rt.insert("attempt", (1, 5, 0, "crawler", "running", 0))
        rt.insert("progress", (1, 5, 0, 0.01, 5000))
        step(rt, now=5000)
        assert heartbeat(rt, "crawler", free_m=1, now=5000) == []

    def test_at_most_one_backup(self):
        rt = make_rt("late", min_runtime=1000)
        self._two_tasks(rt)
        (launch,) = heartbeat(rt, "idle", now=5000)
        rt.insert("attempt", (1, 0, 1, "idle", "running", 5000))
        step(rt, now=5000)
        # attempt_cnt is now 2: no further backups for task 0; task 1 is
        # the only candidate left.
        launches = heartbeat(rt, "idle2", now=5000)
        assert all(l[2] != 0 for l in launches)

    def test_fast_rated_tracker_gets_one_map_backup(self):
        rt = make_rt("late", min_runtime=1000, ratio=0.9)
        self._two_tasks(rt)
        # 'fast' runs map 2 at 90% after 5s: it has a rate sample, above
        # the global average, so it is a fast node, not an unrated one.
        _running_task(rt, 1, 2, "fast", start=0, progress=0.9, report_at=5000)
        step(rt, now=5000)
        assert heartbeat(rt, "fast", free_m=2, now=5000) == [
            ("fast", 1, 0, 1, "map")
        ]

    def test_unrated_tracker_gets_a_reduce_backup(self):
        rt = make_rt("late", min_runtime=1000)
        rt.insert("job", (1, 0, 2, 0))
        rt.insert("job_state", (1, "running"))
        for r, (tracker, progress) in enumerate((("slow", 0.1), ("meh", 0.5))):
            _running_task(
                rt, 1, REDUCE_BASE + r, tracker, start=0, progress=progress,
                report_at=5000, kind="reduce",
            )
        step(rt, now=5000)
        assert heartbeat(rt, "idle", free_m=0, free_r=1, now=5000) == [
            ("idle", 1, REDUCE_BASE, 1, "reduce")
        ]
