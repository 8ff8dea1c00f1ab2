"""CI perf-regression gate for the E4 metadata-throughput benchmark.

Compares a freshly written ``benchmarks/reports/e4_metadata_throughput.json``
against the committed reference ``benchmarks/reports/e4_codegen_baseline.json``
and exits nonzero when the generated-source engine regresses:

* the BOOM-FS / imperative-baseline wall-time ratio may not grow by more
  than ``--tolerance`` (default 20%) over the committed ratio — ratios
  are paired within one run, so this gate is host-speed independent;
* the deterministic protocol fields (``sim_ms``, ``deltas``,
  ``envelopes``) must match the baseline exactly for every row both
  files share — a drift here means evaluator semantics changed, not
  just speed;
* the engine ordering must hold: generated source strictly cheaper than
  the reference interpreter.

Regenerate the committed baseline after an intentional perf change::

    PYTHONPATH=src python -m pytest -q benchmarks/bench_e4_metadata_throughput.py
    PYTHONPATH=src python benchmarks/check_e4_regression.py --rebaseline
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

REPORTS_DIR = Path(__file__).resolve().parent / "reports"
REPORT = REPORTS_DIR / "e4_metadata_throughput.json"
BASELINE = REPORTS_DIR / "e4_codegen_baseline.json"

BOOM = "BOOM-FS (Overlog)"
BASE = "Baseline (imperative)"
INTERP = "BOOM-FS (interpreter tier)"
EXACT_FIELDS = ("sim_ms", "deltas", "envelopes")


def _rows(path: Path) -> dict:
    payload = json.loads(path.read_text())
    return payload.get("results", payload)


def _ratio(rows: dict) -> float:
    return rows[BOOM]["wall_us_per_op"] / rows[BASE]["wall_us_per_op"]


def rebaseline() -> int:
    rows = _rows(REPORT)
    baseline = {
        "_source": REPORT.name,
        "_note": "Committed E4 reference; regenerate with check_e4_regression.py --rebaseline",
        "ratio_boom_vs_imperative": round(_ratio(rows), 3),
        "rows": {
            name: {f: r[f] for f in EXACT_FIELDS} for name, r in rows.items()
        },
    }
    BASELINE.write_text(json.dumps(baseline, indent=2, sort_keys=True) + "\n")
    print(f"baseline written to {BASELINE} (ratio {baseline['ratio_boom_vs_imperative']}x)")
    return 0


def check(tolerance: float) -> int:
    if not BASELINE.exists():
        print(f"FAIL: committed baseline {BASELINE} is missing", file=sys.stderr)
        return 1
    if not REPORT.exists():
        print(
            f"FAIL: {REPORT} not found — run the E4 bench first:\n"
            "  PYTHONPATH=src python -m pytest -q "
            "benchmarks/bench_e4_metadata_throughput.py",
            file=sys.stderr,
        )
        return 1
    rows = _rows(REPORT)
    baseline = json.loads(BASELINE.read_text())

    failures = []
    current_ratio = _ratio(rows)
    committed = baseline["ratio_boom_vs_imperative"]
    limit = committed * (1.0 + tolerance)
    print(
        f"E4 codegen gate: ratio {current_ratio:.2f}x vs committed "
        f"{committed:.2f}x (limit {limit:.2f}x, tolerance {tolerance:.0%})"
    )
    if current_ratio > limit:
        failures.append(
            f"wall-time ratio regressed: {current_ratio:.2f}x > {limit:.2f}x"
        )

    for name, expected in baseline["rows"].items():
        got = rows.get(name)
        if got is None:
            failures.append(f"row {name!r} missing from current report")
            continue
        for field in EXACT_FIELDS:
            if got[field] != expected[field]:
                failures.append(
                    f"{name}: {field} changed {expected[field]} -> {got[field]} "
                    "(deterministic protocol field; evaluator semantics drifted)"
                )

    if BOOM in rows and INTERP in rows:
        if rows[BOOM]["wall_us_per_op"] >= rows[INTERP]["wall_us_per_op"]:
            failures.append(
                "engine inversion: generated source is not faster than "
                "the reference interpreter"
            )

    if failures:
        for f in failures:
            print(f"FAIL: {f}", file=sys.stderr)
        return 1
    print("ok: no E4 perf regression")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--tolerance",
        type=float,
        default=0.20,
        help="allowed fractional growth of the boom/imperative wall ratio "
        "(default 0.20 = 20%%)",
    )
    parser.add_argument(
        "--rebaseline",
        action="store_true",
        help="rewrite the committed baseline from the current report",
    )
    args = parser.parse_args(argv)
    if args.rebaseline:
        return rebaseline()
    return check(args.tolerance)


if __name__ == "__main__":
    raise SystemExit(main())
