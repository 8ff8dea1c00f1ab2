"""Every script in ``examples/`` runs to completion.

Each runs in a fresh interpreter, in a scratch working directory (the
examples write their JSONL exports there), at its own fixed seeds and
``PYTHONHASHSEED=0``, under a time bound.  The output of a deterministic
example must equal its golden, ``tests/examples_golden/<name>.out``.
After a meant change, rewrite one with

    PYTHONHASHSEED=0 PYTHONPATH=src python examples/<name>.py \\
        > tests/examples_golden/<name>.out
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
EXAMPLES = sorted((ROOT / "examples").glob("*.py"))
GOLDEN = Path(__file__).resolve().parent / "examples_golden"
# Examples whose output holds host time, so it differs from run to run:
# they must exit 0, and their output is not compared.
HOST_TIME = {
    "why_a_path": "prints the sampled plan profiler's host-time estimates",
}
TIMEOUT_S = 60


@pytest.mark.parametrize("script", EXAMPLES, ids=lambda p: p.stem)
def test_example_runs_and_prints_its_golden(script, tmp_path):
    env = {**os.environ, "PYTHONHASHSEED": "0", "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run(
        [sys.executable, str(script)],
        cwd=tmp_path, env=env, capture_output=True, text=True,
        timeout=TIMEOUT_S,
    )
    assert proc.returncode == 0, proc.stderr
    if script.stem not in HOST_TIME:
        assert proc.stdout == (GOLDEN / f"{script.stem}.out").read_text()


def test_every_golden_belongs_to_a_deterministic_example():
    deterministic = {p.stem for p in EXAMPLES} - HOST_TIME.keys()
    assert {p.stem for p in GOLDEN.glob("*.out")} == deterministic
