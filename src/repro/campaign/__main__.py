"""CLI: run a fault-campaign matrix and write its artifacts.

Example (CI's campaign-smoke job)::

    python -m repro.campaign --backend sim --backend asyncio \\
        --seeds 3 --ops 400 --classes crash partition amnesia \\
        --out campaign-artifacts

Per backend this first runs a *no-fault control* campaign — identical
observability stack, empty fault schedule — and fails the process (exit
1) if the control run produced any alarm or invariant violation: a
monitoring plane that cries wolf on a healthy cluster is broken.  Then
it runs one campaign per seed, writes each timeline/report JSON plus
the pooled scenario matrix, and prints the text reports.  A simulator
campaign with a false positive or a false negative also fails the
process; asyncio campaigns only report theirs, since their timing is
real time.
"""

from __future__ import annotations

import argparse
import pathlib
import sys

from ..sim.failure import FAULT_CLASSES
from .report import render_campaign_text, render_matrix_text, run_matrix
from .runner import CampaignSpec, run_campaign
from .timeline import dump_json


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.campaign",
        description="Run seeded fault campaigns against BOOM-FS.",
    )
    parser.add_argument(
        "--backend",
        action="append",
        choices=["sim", "asyncio"],
        help="backend(s) to run on (repeatable; default: sim)",
    )
    parser.add_argument("--seeds", type=int, default=3)
    parser.add_argument("--ops", type=int, default=1000)
    parser.add_argument("--arrival-ms", type=int, default=60)
    parser.add_argument(
        "--classes",
        nargs="*",
        choices=list(FAULT_CLASSES),
        default=None,
        help="fault classes to inject (default: all)",
    )
    parser.add_argument(
        "--out",
        type=pathlib.Path,
        default=pathlib.Path("campaign-artifacts"),
    )
    parser.add_argument(
        "--control-only",
        action="store_true",
        help="run only the no-fault control gate",
    )
    args = parser.parse_args(argv)

    backends = args.backend or ["sim"]
    classes = tuple(args.classes) if args.classes else FAULT_CLASSES
    args.out.mkdir(parents=True, exist_ok=True)

    failed = False
    results = []
    for backend in backends:
        control = run_campaign(
            CampaignSpec(
                name=f"control-{backend}",
                seed=0,
                backend=backend,
                classes=(),
                total_ops=args.ops,
                arrival_ms=args.arrival_ms,
            )
        )
        (args.out / f"control-{backend}.json").write_text(control.to_json())
        alarms = control.report["alarms_total"]
        violations = control.report["violations_total"]
        print(
            f"[control {backend}] alarms={alarms} violations={violations}"
            f" -> {'FAIL' if alarms or violations else 'ok'}"
        )
        if alarms or violations:
            failed = True
        if args.control_only:
            continue
        for seed in range(args.seeds):
            spec = CampaignSpec(
                name=f"{backend}-seed{seed}",
                seed=seed,
                backend=backend,
                classes=classes,
                total_ops=args.ops,
                arrival_ms=args.arrival_ms,
            )
            result = run_campaign(spec)
            (args.out / f"{spec.name}.json").write_text(result.to_json())
            print(render_campaign_text(result))
            results.append(result)
            report = result.report
            if backend == "sim" and (
                report["false_positives"] or report["false_negatives"]
            ):
                print(f"[{spec.name}] false positive/negative -> FAIL")
                failed = True

    if results:
        matrix = run_matrix(results)
        (args.out / "matrix.json").write_text(dump_json(matrix))
        print(render_matrix_text(matrix))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
