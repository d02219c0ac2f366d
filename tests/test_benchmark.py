"""The benchmark's trace mode runs end to end on the current sources.

``perfbench/run.py --trace 1`` wraps the package's functions and the
``GridField`` and ``HermitianFormField`` validators from outside, so a
refactor can leave it failing or reading zero where work is done.  One short
``newton-n2`` trace (a few seconds) guards both, and one ``pole-n2`` trace
(several seconds) guards the ladder path: ``torusma run`` through the
wrapped entry points while the states archive is written from a second
thread, the exact agreement of two traced runs' counts, and ``verify``
finding the stored record consistent.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _trace(workload):
    proc = subprocess.run(
        [
            sys.executable,
            str(ROOT / "perfbench" / "run.py"),
            "--workload", workload,
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
    assert result["failed"] == 0, proc.stdout
    return result["metrics"]


def test_trace_mode_runs_and_counts_the_form_constructor():
    assert _trace("newton-n2")["geometry.form_init.calls"]["value"] > 0


def test_trace_mode_runs_the_ladder_and_writes_its_record():
    metrics = _trace("pole-n2")
    assert metrics["continuation.rungs"]["value"] == 4
    assert metrics["report.write_artifacts.bytes"]["value"] > 0
