#!/usr/bin/env python3
"""The measurement spine: one command for every workload and metric.

Two ways in:

``run.py --workload W --seed N --seconds S --trace 0|1``
    One run of one workload in this interpreter (the benchmark driver's
    contract).  The last stdout line is a JSON object with ``correct``,
    ``attempted``, ``failed`` and ``metrics``: the end-to-end metrics
    with ``--trace 0``, the per-layer ledger with ``--trace 1``.

``run.py [--repeats K] [--smoke] [--check-noise]``
    The whole suite.  Every (workload, repeat) runs in a fresh
    interpreter (this file, re-invoked as above); the report gives each
    metric's median and quartiles over repeats and is stamped with
    commit, host, nproc, python, seed, backend and wall time.

See README.md next to this file for what each number means.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from time import perf_counter_ns

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
DEFAULT_SEED = 1
# Counts that virtual time makes exact on the simulator: --check-noise
# requires them to repeat to the last digit.
EXACT_ON_SIM = (
    "transport.envelopes_per_op",
    "overlog.derivations_per_op",
    "overlog.ticks_per_op",
    "paxos.msgs_per_decree",
    "sim.virtual_op_ms_p50",
    "mapreduce.job_virtual_ms_p50",
    "paxos.failover_virtual_ms",
)


def load_manifest() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _import_program() -> None:
    """Put this checkout's ``src/`` first on the path, or give up: the
    benchmark measures the program beside it, never an installed copy."""
    if not (ROOT / "src" / "repro").is_dir():
        sys.exit(f"spine: no program to measure: {ROOT / 'src' / 'repro'} is missing")
    sys.path.insert(0, str(ROOT / "src"))


def _self_command(args: argparse.Namespace, workload: str, *extra: str) -> list[str]:
    command = [
        sys.executable, str(HERE / "run.py"),
        "--workload", workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--out", str(args.out),
        *extra,
    ]
    return command + (["--smoke"] if args.smoke else [])


# -- one run of one workload (driver contract) -------------------------------------


def run_one(args: argparse.Namespace) -> int:
    from hostclock import HostClock

    clock = HostClock()  # before the program is imported: set-up starts here
    from metrics import end_to_end, per_layer
    from tracing import LayerTracer
    from workloads import WORKLOADS, run_baseline

    clock.sample()  # the program is imported
    workload = WORKLOADS[args.workload]
    manifest = load_manifest()
    ops = workload.op_count(args.seconds, args.smoke)
    if not args.trace:
        generating = perf_counter_ns()
        inputs = workload.generate(args.seed, ops)
        generating = (generating, perf_counter_ns())
        clock.sample()
        result = workload.execute(inputs, args.seed, clock=clock)
        if not any(result.end_ns):
            sys.exit(f"spine: {workload.name}: no op was answered: " + "; ".join(result.problems))
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        values = end_to_end(result, clock, generating, rss_kb)
        declared = manifest["end_to_end"]
        # For the suite: what the driver's form has no place for.
        print("host_speed", clock.host_speed, "x")
        for key in sorted(values.keys() - {m["name"] for m in declared}):
            print(key, values[key], "us")
        if "failover_virtual_ms" in result.extras:
            print("failover_virtual_ms", result.extras["failover_virtual_ms"], "vms")
    else:
        # The traced pass, its untraced reference and the imperative
        # baseline share this process, so each gets a third of the ops.
        inputs = workload.generate(args.seed, max(1, ops // 3))
        untraced = workload.execute(inputs, args.seed)
        baseline = (
            run_baseline(workload, inputs, args.seed)
            if workload.has_baseline
            else None
        )
        tracer = LayerTracer(workload.primary_nodes)
        tracer.install()
        try:
            result = workload.execute(inputs, args.seed, tracer=tracer)
        finally:
            tracer.uninstall()
        values = per_layer(workload, result, untraced, baseline)
        declared = manifest["per_layer"]
        args.out.mkdir(parents=True, exist_ok=True)
        result.ledger.write_jsonl(args.out / f"trace_{workload.name}.jsonl")
        for other in filter(None, (untraced, baseline)):
            result.fail(other.failed, "untraced/baseline pass: " + "; ".join(other.problems))

    for problem in result.problems:
        print(f"spine: {workload.name}: {problem}", file=sys.stderr)
    print(
        json.dumps(
            {
                "correct": result.failed == 0,
                "attempted": result.attempted,
                "failed": result.failed,
                "metrics": {
                    m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in declared
                },
            }
        )
    )
    return 0 if result.failed == 0 else 1


# -- the suite --------------------------------------------------------------------------


def _stamp(args: argparse.Namespace) -> dict:
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
        ).stdout.strip()
    except OSError:
        commit = ""
    return {
        "commit": commit or "unknown",
        "host": platform.node(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "seed": args.seed,
        "seconds": args.seconds,
        "smoke": args.smoke,
        "repeats": args.repeats,
    }


def _run_child(args: argparse.Namespace, workload: str, trace: int) -> dict:
    started = time.perf_counter()
    done = subprocess.run(
        _self_command(args, workload, "--trace", str(trace)),
        stdout=subprocess.PIPE,
        text=True,
    )
    lines = done.stdout.strip().splitlines()
    if not lines or not lines[-1].startswith("{"):
        sys.exit(f"spine: {workload} --trace {trace} gave no result (exit {done.returncode})")
    out = json.loads(lines[-1])
    out["wall_s"] = time.perf_counter() - started
    # Lines before the result are "name value unit": host_speed, op_p99_us...
    for name, value, unit in (line.split() for line in lines[:-1]):
        out["metrics"][name] = {"value": float(value), "unit": unit}
    return out


def run_set(args: argparse.Namespace, order: list[str]) -> dict:
    """Every workload in ``order``: ``repeats`` untraced runs, one traced,
    each in a fresh interpreter.  One child at a time, so nothing
    competes with the workload being timed; a smoke run checks outputs,
    not speed, and uses both cores."""
    from metrics import quartiles
    from workloads import WORKLOADS

    jobs = [(name, trace) for name in order for trace in [0] * args.repeats + [1]]
    with ThreadPoolExecutor(max_workers=2 if args.smoke else 1) as pool:
        children = list(pool.map(lambda job: _run_child(args, *job), jobs))
    report = {}
    for name in order:
        mine = [c for (n, _), c in zip(jobs, children) if n == name]
        runs, traced = mine[:-1], mine[-1]
        attempted = sum(r["attempted"] for r in mine)
        failed = sum(r["failed"] for r in mine)
        end_to_end = {}
        for metric, first in runs[0]["metrics"].items():
            values = [r["metrics"][metric]["value"] for r in runs]
            q1, median, q3 = quartiles(values)
            end_to_end[metric] = {
                "unit": first["unit"], "median": median, "q1": q1, "q3": q3,
                "n": len(values),
            }
        report[name] = {
            "backend": WORKLOADS[name].backend,
            "ops": WORKLOADS[name].op_count(args.seconds, args.smoke),
            "wall_s": sum(r["wall_s"] for r in mine),
            "attempted": attempted,
            "failed": failed,
            "failed_frac": failed / attempted,
            "end_to_end": end_to_end,
            "per_layer": traced["metrics"],
        }
    return report


def render(stamp: dict, report: dict, gated: set[str]) -> str:
    lines = ["spine " + " ".join(f"{k}={v}" for k, v in stamp.items())]
    for name, w in report.items():
        lines.append("")
        lines.append(
            f"== {name}  backend={w['backend']}  ops={w['ops']}  wall={w['wall_s']:.1f}s"
        )
        for metric, s in w["end_to_end"].items():
            if metric == "op_p99_us" and w["ops"] < 1000:
                lines.append(f"  {metric:<20} omitted: {w['ops']} ops are too few")
                continue
            lines.append(
                f"  {metric:<20} {s['median']:>14.4f} {s['unit']:<4} "
                f"q1 {s['q1']:.4f}  q3 {s['q3']:.4f}  n={s['n']}"
                + (f"  of {w['ops']} ops" if metric.startswith("op_") else "")
                + ("" if metric in gated else "  (not gated)")
            )
        lines.append(
            f"  {'failed_frac':<20} {w['failed_frac']:>14g}      "
            f"({w['failed']} of {w['attempted']})"
        )
        for metric, s in w["per_layer"].items():
            lines.append(f"    {metric:<44} {s['value']:>14.4f} {s['unit']}")
    return "\n".join(lines)


def check_noise(first: dict, second: dict, bounds: dict[str, tuple[str, float]]) -> list[str]:
    """Two sets of the same commit must agree: every end-to-end median
    within its bound, every exact-on-sim count identical."""
    complaints = []
    for name, a in first.items():
        b = second[name]
        for metric, (better, bound) in bounds.items():
            x, y = a["end_to_end"][metric]["median"], b["end_to_end"][metric]["median"]
            worse = (y - x) / x if better == "lower" else (x - y) / x
            if abs(worse) > bound:
                complaints.append(
                    f"{name}: {metric} medians {x:.4f} vs {y:.4f} differ by "
                    f"{abs(worse):.1%} > {bound:.0%}"
                )
        if a["failed"] or b["failed"]:
            complaints.append(f"{name}: failed ops {a['failed']} / {b['failed']}")
        if a["backend"] != "sim":
            continue
        for metric in EXACT_ON_SIM:
            x, y = a["per_layer"][metric]["value"], b["per_layer"][metric]["value"]
            if x != y:
                complaints.append(f"{name}: {metric} not exact: {x!r} vs {y!r}")
        if a["end_to_end"].get("failover_virtual_ms") != b["end_to_end"].get(
            "failover_virtual_ms"
        ):
            complaints.append(f"{name}: failover_virtual_ms not exact")
    return complaints


def run_suite(args: argparse.Namespace) -> int:
    from workloads import WORKLOADS

    manifest = load_manifest()
    order = list(WORKLOADS)
    stamp = _stamp(args)
    started = time.perf_counter()
    report = run_set(args, order)
    sets = [report]
    complaints = []
    if args.check_noise:
        sets.append(run_set(args, order[::-1]))
        bounds = {
            m["name"]: (m["better"], m["bound"]) for m in manifest["end_to_end"]
        }
        complaints = check_noise(sets[0], sets[1], bounds)
    stamp["wall_s"] = round(time.perf_counter() - started, 1)
    for one in sets:
        print(render(stamp, one, {m["name"] for m in manifest["end_to_end"]}))
    args.out.mkdir(parents=True, exist_ok=True)
    (args.out / "results.json").write_text(
        json.dumps({"stamp": stamp, "sets": sets}, indent=1) + "\n"
    )
    for complaint in complaints:
        print(f"check-noise: {complaint}")
    failed = sum(w["failed"] for one in sets for w in one.values())
    if args.check_noise and not complaints:
        print("check-noise: two sets agree within every bound")
    return 1 if failed or complaints else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="run only this workload, in this process")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument(
        "--seconds", type=float, default=None,
        help="sets the op budget: ops = frozen rate x seconds (default: run_seconds)",
    )
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, default=HERE / "out")
    parser.add_argument("--smoke", action="store_true", help="op counts / 50")
    parser.add_argument("--repeats", type=int, default=5, help="suite: untraced runs per workload")
    parser.add_argument("--check-noise", action="store_true")
    args = parser.parse_args()
    _import_program()
    if args.seconds is None:
        args.seconds = load_manifest()["run_seconds"]
    if args.smoke:
        args.repeats = 1
    return run_one(args) if args.workload else run_suite(args)


if __name__ == "__main__":
    sys.exit(main())
