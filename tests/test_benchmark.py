"""The benchmark's trace mode runs end to end on the current sources.

``perfbench/run.py --trace 1`` wraps the package's functions and the
``GridField`` and ``HermitianFormField`` validators from outside, so a
refactor can leave it failing or reading zero where work is done.  One short
``newton-n2`` trace (a few seconds) guards both.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_trace_mode_runs_and_counts_the_form_constructor():
    proc = subprocess.run(
        [
            sys.executable,
            str(ROOT / "perfbench" / "run.py"),
            "--workload", "newton-n2",
            "--seed", "1",
            "--seconds", "1",
            "--trace", "1",
        ],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["failed"] == 0
    assert result["metrics"]["geometry.form_init.calls"]["value"] > 0
