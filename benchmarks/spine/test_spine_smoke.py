"""Smoke test of the measurement spine.

    python -m pytest benchmarks/spine -q

Runs the whole suite at 1/50 of its op counts with every output check
on, and pins the parts of the generator the checker's verdicts rest on.
"""

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from generator import SETTLE, OpGenerator, reply_matches  # noqa: E402


def test_generator_is_seeded_and_settled():
    mix = {"create": 30, "rm": 30, "mv": 15, "mkdir": 5, "exists": 10, "ls": 10}

    def build(seed):
        gen = OpGenerator(seed)
        return gen.preload(32, 256), gen.generate(2000, mix), gen.ns

    preload, ops, ns = build(7)
    assert (preload, ops) == build(7)[:2]
    assert ops != build(8)[1]
    # No op shares a directory with a write less than SETTLE ops before it.
    def dirs_of(op):
        paths = [op.path] + ([op.arg] if op.kind == "mv" else [])
        return {p if op.kind in ("ls", "mkdir") else p.rsplit("/", 1)[0] for p in paths}

    writes = {"create", "rm", "mv", "mkdir"}
    for i, op in enumerate(ops):
        for earlier in ops[max(0, i - SETTLE + 1):i]:
            if earlier.kind in writes or op.kind in writes:
                assert not dirs_of(op) & dirs_of(earlier), (earlier, op)
    # The model ends where the op list says it should.
    files = {p.path for p in preload if p.kind == "create"}
    for op in ops:
        if op.kind == "create":
            files.add(op.path)
        elif op.kind == "rm":
            files.remove(op.path)
        elif op.kind == "mv":
            files.remove(op.path)
            files.add(op.arg)
    assert files == {p for p in ns.paths() if p.count("/") == 2}


def test_reply_checker():
    gen = OpGenerator(1)
    gen.preload(20, 20)
    create, ls = gen.generate(1, {"create": 1})[0], gen.generate(1, {"ls": 1})[0]
    assert reply_matches(create, True, 99, False)
    assert not reply_matches(create, False, "exists", False)
    assert reply_matches(create, False, "exists", True)  # lost first reply
    assert reply_matches(ls, True, ls.payload, False)
    assert not reply_matches(ls, True, ls.payload + ("ghost",), False)


def test_smoke_suite(tmp_path):
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke", "--out", str(tmp_path)],
        capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
    results = json.loads((tmp_path / "results.json").read_text())
    manifest = json.loads((HERE.parents[1] / "BENCHMARK.json").read_text())
    report = results["sets"][0]
    assert list(report) == [w["name"] for w in manifest["workloads"]]
    for name, workload in report.items():
        assert workload["failed"] == 0 and workload["attempted"] > 0
        # Every gated metric, plus the ones the suite prints without a gate.
        assert set(workload["end_to_end"]) >= {m["name"] for m in manifest["end_to_end"]}
        assert {"op_p50_us", "op_p99_us", "host_speed"} <= set(workload["end_to_end"])
        layers = workload["per_layer"]
        assert set(layers) == {m["name"] for m in manifest["per_layer"]}
        # Layer separation: only the TCP workload runs the codec.
        assert (layers["codec.calls_per_op"]["value"] > 0) == (name == "fs_read_tcp")
        assert 0 < layers["trace.coverage_frac"]["value"] <= 1
        assert (tmp_path / f"trace_{name}.jsonl").stat().st_size > 0
    assert report["paxos_meta_sim"]["end_to_end"]["failover_virtual_ms"]["median"] > 0
    span = json.loads((tmp_path / "trace_fs_read_sim.jsonl").read_text().splitlines()[0])
    assert set(span) == {
        "layer", "name", "start_ns", "end_ns", "id", "parent", "node", "rids",
    }
