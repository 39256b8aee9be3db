"""The benchmark's own test: ``python -m pytest bench/test_bench.py``.

Runs ``run.py --smoke``: every workload once per mode at a tiny size, with
every output check, and the emitted metric names and units compared with
BENCHMARK.json.
"""

import subprocess
import sys
from pathlib import Path


def test_smoke():
    run = Path(__file__).with_name("run.py")
    p = subprocess.run(
        [sys.executable, str(run), "--smoke"], capture_output=True, text=True, timeout=900
    )
    assert p.returncode == 0, p.stderr
