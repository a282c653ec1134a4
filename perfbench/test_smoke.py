"""The benchmark's own test: python3 -m pytest perfbench/test_smoke.py

Runs `run.py --smoke`, which measures every workload once in both modes on
seed 0 and fails unless every metric named in BENCHMARK.json is emitted with
its unit and every output passes its reference check.  Takes about a minute.
"""

import subprocess
import sys
from pathlib import Path


def test_smoke_emits_every_metric():
    run = Path(__file__).with_name("run.py")
    done = subprocess.run([sys.executable, str(run), "--smoke"], capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, done.stdout + done.stderr
