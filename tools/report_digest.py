#!/usr/bin/env python3
"""One SHA-256 over the reports of seeded random streams, independent of repr.

    python3 tools/report_digest.py [--src DIR] [--streams N]

Imports ``intervalsel`` from DIR (default ``./src``) and runs N seeded
random streams (default 400).  Stream i draws from ``random.Random(i)``:
a window width delta in 2..11, up to 12 unit intervals with mixed
denominators, fed one at a time into an instance on the wrapper domain
[-1, delta + 1).  After about 30 % of the feeds, and after the last,
``output()`` is called; every third stream also runs through a
``WindowMap`` on lefts spread over three widths, and its window reports
and merged output (what ``run_windowed`` returns) are taken too.  Each
report becomes one line, ``json.dumps(report.to_dict(), sort_keys=True)``,
and the printed digest hashes all lines in order.  Two trees whose digests agree gave the same
reports, field for field, on every stream; the digest reads no ``repr``,
so a change to how a value type prints does not move it.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import random
import sys
from pathlib import Path

DENOMINATORS = (1, 2, 3, 4, 7, 1 << 20)
MAX_FEEDS = 12
OUTPUT_RATE = 0.3
WINDOWED_EVERY = 3


def report_lines(streams: int):
    """The JSON line of every report, in order, over streams 0..streams-1."""
    from intervalsel.geometry import Scalar, UnitInterval
    from intervalsel.restricted import InstanceState, wrapper_domain
    from intervalsel.windows import WindowMap

    def draw(rng: random.Random, span: int) -> list:
        """Up to MAX_FEEDS unit intervals with lefts in [0, span - 1)."""
        stream = []
        for _ in range(rng.randint(0, MAX_FEEDS)):
            den = rng.choice(DENOMINATORS)
            stream.append(UnitInterval(Scalar(rng.randrange((span - 1) * den), den)))
        return stream

    for i in range(streams):
        rng = random.Random(i)
        delta = rng.randint(2, 11)
        inst = InstanceState(wrapper_domain(delta))
        for iv in draw(rng, delta):
            inst.feed(iv)
            if rng.random() < OUTPUT_RATE:
                yield json.dumps(inst.output().to_dict(), sort_keys=True)
        yield json.dumps(inst.output().to_dict(), sort_keys=True)
        if i % WINDOWED_EVERY:
            continue
        wm = WindowMap(delta)
        for iv in draw(rng, 3 * delta):
            wm.feed(iv)
        for origin, report in wm.window_reports():
            yield json.dumps({"origin": origin, **report.to_dict()}, sort_keys=True)
        yield json.dumps([str(iv.left) for iv in wm.merge_output()])


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", default="src", help="directory holding intervalsel")
    parser.add_argument("--streams", type=int, default=400, help="number of streams")
    args = parser.parse_args(argv)
    if args.streams < 1:
        parser.error("--streams must be at least 1")
    sys.path.insert(0, str(Path(args.src).resolve()))
    digest = hashlib.sha256()
    for line in report_lines(args.streams):
        digest.update(line.encode() + b"\n")
    print(digest.hexdigest())
    return 0


if __name__ == "__main__":
    sys.exit(main())
