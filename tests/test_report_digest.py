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


def test_digest_of_100_streams_is_pinned():
    # 100 streams, 34 of them also through a WindowMap
    assert digest(100, "1") == (
        "e9ad92236dbd77b0c2a3cb88b0a9d78e9a6d4c969d443525927d535555b933d5"
    )
