"""Shared helpers for the experiment benchmarks.

Every ``bench_eN_*.py`` regenerates one of the paper's tables/figures:
it runs the experiment on the simulator, renders the same rows/series the
paper reports, writes the report under ``benchmarks/reports/`` and prints
it (visible with ``pytest benchmarks/ --benchmark-only -s``).

Reports are the artifacts EXPERIMENTS.md cites.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

REPORTS_DIR = Path(__file__).resolve().parent / "reports"

# Import time is as close to bench-process start as the harness can see:
# every JSON report stamps its wall-clock age against this, so CI trends
# catch a bench whose runtime quietly balloons even when its numbers stay
# healthy.
_T0 = time.perf_counter()


def warm_plans(*hosts) -> None:
    """Lower every plan of the given runtimes (or of every node of the
    given clusters) to source before a timed region.  Generation is lazy
    — a plan is compiled the first time it runs — and these benches
    report the steady-state cost of an op; what set-up costs is the
    spine's ``setup_s`` (benchmarks/spine)."""
    for host in hosts:
        nodes = getattr(host, "processes", None)
        for node in [host] if nodes is None else nodes.values():
            runtime = getattr(node, "runtime", node)
            if hasattr(runtime, "generated_source"):
                runtime.generated_source()


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


def write_json_report(
    name: str,
    payload,
    backend: str = "sim",
    seed=0,
    mode: str = "metrics",
) -> Path:
    """Write the machine-readable twin of a text report:
    ``benchmarks/reports/<name>.json``.

    Every report records which transport backend produced it (``sim`` by
    default — pass ``cluster.backend`` when a bench runs elsewhere), the
    seed(s) the run used, and which observability planes were live
    (``mode``: ``"off"`` — metrics disabled, ``"metrics"`` — the
    always-on registry, ``"metrics+telemetry"`` — the export loop too,
    ``"matrix"`` — the rows themselves compare modes), so numbers from
    different substrates or instrumentation levels are never compared
    silently.
    """
    REPORTS_DIR.mkdir(exist_ok=True)
    path = REPORTS_DIR / f"{name}.json"
    document = {
        "_backend": backend,
        "_mode": mode,
        "_seed": _jsonable(seed),
        "_wall_s": round(time.perf_counter() - _T0, 3),
        "results": _jsonable(payload),
    }
    path.write_text(json.dumps(document, indent=2, sort_keys=True) + "\n")
    print(f"[json report written to {path}]")
    return path
