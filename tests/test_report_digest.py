import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "report_digest.py"


def digest(streams: int, hash_seed: str) -> str:
    # each run is its own process with its own string-hash seed, so a report
    # that depended on set or hash order would move the digest
    env = {**os.environ, "PYTHONHASHSEED": hash_seed}
    done = subprocess.run(
        [sys.executable, str(TOOL), "--src", str(ROOT / "src"), "--streams", str(streams)],
        capture_output=True,
        text=True,
        check=True,
        env=env,
    )
    return done.stdout.strip()


def test_digest_repeats_and_depends_on_the_streams():
    first = digest(30, "1")
    assert len(first) == 64
    assert digest(30, "2") == first
    assert digest(31, "1") != first
