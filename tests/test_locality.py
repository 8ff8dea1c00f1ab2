"""Tests for data-locality scheduling (BOOM-MR's Hadoop-FIFO port) and
machine colocation in the network model."""


from repro.mapreduce import (
    JobRunner,
    JobSpec,
    build_mr_cluster,
    local_wordcount,
    make_input_files,
    wordcount_map,
    wordcount_reduce,
)
from repro.sim import LatencyModel, Simulator
from repro.transport import SimTransport


class TestColocation:
    def test_same_machine_skips_bandwidth(self):
        sim = Simulator()
        net = SimTransport(sim, latency=LatencyModel(1, 0, kb_per_ms=1))
        net.colocate(["a", "b"])
        got = []
        net.register("b", lambda env: got.append(sim.now))
        net.register("c", lambda env: got.append(sim.now))
        payload = ("x" * 100_000,)  # ~100KB -> ~97ms on the wire
        net.send_row("a", "b", "data", payload)  # local
        net.send_row("a", "c", "data", payload)  # remote
        sim.run_until(1000)
        local_time, remote_time = got[0], got[1]
        assert local_time <= 2
        assert remote_time > 50
        assert net.stats.remote_bytes >= 100_000

    def test_separate_colocate_calls_are_distinct_machines(self):
        sim = Simulator()
        net = SimTransport(sim)
        net.colocate(["a1", "a2"])
        net.colocate(["b1", "b2"])
        assert net.same_machine("a1", "a2")
        assert net.same_machine("b1", "b2")
        assert not net.same_machine("a1", "b1")

    def test_unregistered_addresses_not_colocated(self):
        sim = Simulator()
        net = SimTransport(sim)
        assert not net.same_machine("x", "y")
        assert not net.same_machine("x", "x")  # unknown machines


def run_wordcount_locality(use_locality: bool, seed: int = 13):
    mr = build_mr_cluster(num_trackers=4, seed=seed)
    runner = JobRunner(mr)
    datasets = make_input_files(4000, 8, seed=seed)
    paths = runner.stage_inputs("/in", datasets)
    spec = JobSpec(0, paths, 2, wordcount_map, wordcount_reduce, "/out")
    remote_before = mr.cluster.network.stats.remote_bytes
    result = runner.run_job(spec, use_locality=use_locality)
    remote = mr.cluster.network.stats.remote_bytes - remote_before
    output = runner.fetch_output("/out")
    assert output == local_wordcount(datasets)
    return result, remote, mr


class TestLocalityScheduling:
    def test_locality_hints_computed(self):
        mr = build_mr_cluster(num_trackers=4, seed=13)
        runner = JobRunner(mr)
        paths = runner.stage_inputs("/in", make_input_files(500, 4, seed=13))
        spec = JobSpec(0, paths, 2, wordcount_map, wordcount_reduce)
        hints = runner.locality_hints(spec)
        assert set(hints) == {0, 1, 2, 3}
        for trackers in hints.values():
            assert all(t.startswith("tt") for t in trackers)

    def test_local_assignments_dominate(self):
        result, _, mr = run_wordcount_locality(use_locality=True)
        jt = mr.jobtracker
        local = 0
        total = 0
        task_locs = {
            (j, t): addr for j, t, addr in jt.runtime.rows("task_loc")
        }
        local_sets: dict[tuple, set] = {}
        for j, t, addr in jt.runtime.rows("task_loc"):
            local_sets.setdefault((j, t), set()).add(addr)
        for j, t, a, tracker, state, _ in jt.attempts(result.job_id):
            if t < 1_000_000 and a == 0:
                total += 1
                if tracker in local_sets.get((j, t), set()):
                    local += 1
        assert total == 8
        assert local >= total * 0.6, f"only {local}/{total} local"

    def test_locality_reduces_remote_bytes(self):
        _, remote_with, _ = run_wordcount_locality(use_locality=True)
        _, remote_without, _ = run_wordcount_locality(use_locality=False)
        assert remote_with < remote_without

    def test_output_identical_with_and_without_locality(self):
        r1, _, _ = run_wordcount_locality(use_locality=True)
        r2, _, _ = run_wordcount_locality(use_locality=False)
        # same tasks completed either way
        assert len(r1.map_times) == len(r2.map_times) == 8
