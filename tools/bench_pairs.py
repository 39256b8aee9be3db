#!/usr/bin/env python3
"""Alternating parent-vs-change pairs of the benchmark, summarised as JSON.

    python3 tools/bench_pairs.py --parent REV --change REV \\
        --workload mc-restricted:10 --workload dp-large:5 \\
        --out BENCH_<label>.json

Exports each git revision with ``git archive`` into its own fresh
directory, so both sides run the committed files only, and runs that
copy's unchanged ``bench/run.py --workload W --seed N --trace 0`` there,
so the benchmark's own default sets the run length.  ``W:P`` asks for P
pairs of workload W; pair j (from 0) uses seed j + 1 on both sides, and
the side that runs first alternates from pair to pair.  Runs are strictly sequential: the benchmark pins itself and
its children to one CPU.

The output holds, per workload and end-to-end metric of BENCHMARK.json,
each side's runs, median and quartiles, the pairs the change won (ties
count for neither side), the change's median relative to the parent's,
and the failed and attempted CLI runs; plus both git shas, the CPU count
and the Python and numpy versions.  It is rewritten after every pair, so
an interrupted session keeps the pairs it finished.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
from importlib import metadata
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")


def git(*args: str) -> str:
    return subprocess.run(
        ["git", *args], cwd=ROOT, check=True, capture_output=True, text=True
    ).stdout.strip()


def export(sha: str, dest: Path) -> Path:
    """A fresh copy of the committed files of ``sha`` in ``dest``."""
    dest.mkdir(parents=True)
    archive = subprocess.run(
        ["git", "archive", sha], cwd=ROOT, check=True, capture_output=True
    ).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)
    return dest


def bench_once(copy: Path, workload: str, seed: int) -> dict:
    """The result line of one end-to-end benchmark run in ``copy``."""
    proc = subprocess.run(
        [
            sys.executable, "bench/run.py", "--workload", workload,
            "--seed", str(seed), "--trace", "0",
        ],
        cwd=copy,
        capture_output=True,
        text=True,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"bench/run.py failed in {copy}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values: list[float]) -> dict:
    """Median and quartiles; a single run (after the first pair) is all three."""
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    else:
        q1 = q3 = values[0]
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "runs": values}


def summarise(spec: dict, results: dict) -> dict:
    """Per-metric medians, quartiles and pair wins of one workload's runs."""
    metrics = {}
    for m in spec["end_to_end"]:
        name = m["name"]
        runs = {
            side: [r["metrics"][name]["value"] for r in results[side]] for side in SIDES
        }
        if any(v is None for side in SIDES for v in runs[side]):
            metrics[name] = {"unit": m["unit"], "runs": runs, "note": "a run left no value"}
            continue
        sign = 1 if m["better"] == "higher" else -1
        pairs = list(zip(runs["parent"], runs["change"]))
        entry = {"unit": m["unit"], "better": m["better"], "bound": m["bound"]}
        entry.update({side: spread(runs[side]) for side in SIDES})
        entry["change_wins"] = sum(sign * (c - p) > 0 for p, c in pairs)
        entry["parent_wins"] = sum(sign * (c - p) < 0 for p, c in pairs)
        entry["change_over_parent"] = entry["change"]["median"] / entry["parent"]["median"]
        metrics[name] = entry
    return {
        "pairs": len(results["parent"]),
        "seeds": results["seeds"],
        "first": results["first"],
        "attempted": {side: sum(r["attempted"] for r in results[side]) for side in SIDES},
        "failed": {side: sum(r["failed"] for r in results[side]) for side in SIDES},
        "metrics": metrics,
    }


def environment() -> dict:
    try:
        numpy = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy = None
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy,
        "platform": platform.platform(),
    }


def workload_arg(text: str) -> tuple[str, int]:
    name, _, pairs = text.partition(":")
    count = int(pairs) if pairs else 10
    if count < 2:
        raise argparse.ArgumentTypeError("need at least 2 pairs for quartiles")
    return name, count


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--parent", default="HEAD~1", help="git revision of the parent")
    parser.add_argument("--change", default="HEAD", help="git revision of the change")
    parser.add_argument(
        "--workload", type=workload_arg, action="append", required=True,
        help="NAME or NAME:PAIRS (default 10 pairs); repeatable",
    )
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--work", type=Path, help="directory for the two copies")
    args = parser.parse_args()

    shas = {"parent": git("rev-parse", args.parent), "change": git("rev-parse", args.change)}
    if args.work is not None:
        args.work.mkdir(parents=True, exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="bench-pairs-", dir=args.work))
    try:
        copies = {side: export(shas[side], work / side) for side in SIDES}
        spec = json.loads((copies["change"] / "BENCHMARK.json").read_text())
        report = {
            "command": "python3 bench/run.py --workload W --seed N --trace 0",
            "shas": shas,
            "environment": environment(),
            "workloads": {},
        }
        for name, count in args.workload:
            results: dict = {"parent": [], "change": [], "seeds": [], "first": []}
            for j in range(count):
                seed = j + 1
                order = SIDES if j % 2 == 0 else SIDES[::-1]
                for side in order:
                    results[side].append(bench_once(copies[side], name, seed))
                results["seeds"].append(seed)
                results["first"].append(order[0])
                report["workloads"][name] = summarise(spec, results)
                args.out.write_text(json.dumps(report, indent=1) + "\n")
                ips = {s: results[s][-1]["metrics"]["items_per_s"]["value"] for s in SIDES}
                print(f"{name} pair {j + 1}/{count} seed {seed}: items_per_s {ips}",
                      file=sys.stderr, flush=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
