"""The benchmark's check round as a tier-1 test.

``spikebench/run.py --seconds 0`` builds a workload's inputs, runs every
correctness check of the benchmark once (the step-fold spike digests of
the taped passes, the DSN's membranes against its scan oracle, the DSN
gradient against central differences, the stream and property checks) and
prints one JSON line that says whether all of them held.  Each workload
runs in a subprocess of its own, as the benchmark runs it.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("workload", ["long", "wide"])
def test_benchmark_check_round_holds(workload):
    done = subprocess.run(
        [sys.executable, str(ROOT / "spikebench" / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "0"],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
        timeout=600)
    assert done.returncode == 0, done.stdout[-4000:]
    verdict = json.loads(done.stdout.strip().splitlines()[-1])
    assert verdict["correct"] is True, done.stdout[-4000:]
    assert verdict["failed"] == 0, done.stdout[-4000:]
