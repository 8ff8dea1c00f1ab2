"""Shared helpers for the experiment benchmarks.

Every ``bench_*.py`` regenerates one of the paper's tables/figures (or an
ablation of one) in simulated time, message counts or code size: it runs
the experiment on the simulator, renders the same rows/series the paper
reports, writes the report under ``benchmarks/reports/`` and prints it
(visible with ``pytest benchmarks/ --benchmark-only -s``).

Reports are the artifacts EXPERIMENTS.md cites.  They hold no host-time
reading, so a re-run at the same ``PYTHONHASHSEED`` reproduces them byte
for byte; host-time performance is measured by ``benchmarks/spine``.
"""

from __future__ import annotations

import json
from pathlib import Path

REPORTS_DIR = Path(__file__).resolve().parent / "reports"


def write_report(name: str, text: str) -> Path:
    REPORTS_DIR.mkdir(exist_ok=True)
    path = REPORTS_DIR / f"{name}.txt"
    path.write_text(text + "\n")
    print(f"\n{text}\n[report written to {path}]")
    return path


def _jsonable(value):
    """Coerce experiment payloads to plain JSON types (tuples/sets become
    lists, unknown objects their repr)."""
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, (set, frozenset)):
        return sorted(_jsonable(v) for v in value)
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return repr(value)


def write_json_report(name: str, payload, seed=0) -> Path:
    """Write the machine-readable twin of a text report,
    ``benchmarks/reports/<name>.json``, stamped with the seed(s) the run
    used."""
    REPORTS_DIR.mkdir(exist_ok=True)
    path = REPORTS_DIR / f"{name}.json"
    document = {"_seed": _jsonable(seed), "results": _jsonable(payload)}
    path.write_text(json.dumps(document, indent=2, sort_keys=True) + "\n")
    print(f"[json report written to {path}]")
    return path
