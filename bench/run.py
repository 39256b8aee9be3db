#!/usr/bin/env python3
"""Benchmark of the intervalsel CLI, end to end and layer by layer.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --smoke

Run from a source checkout; the program is ``python -m intervalsel`` with
``src`` on ``PYTHONPATH``, one process at a time, ``--threads 1`` where the
subcommand has the flag.

``--trace 0`` spawns CLI runs, each on a fresh input set, for S seconds,
each after a set-up probe (``bench/probe.py``), and reports the medians of
the end-to-end metrics in BENCHMARK.json.  Times are in reference seconds:
each child's wall time is divided by the mean time of a fixed calibration
kernel run just before and just after it, times ``REFERENCE_CAL_S``.  On a
shared machine the CPU speed swings by tens of percent within seconds; the
kernel sees the same swings, so the ratio stays steady where raw wall time
does not.  The raw times are kept in the record.

``--trace 1`` alternates CLI runs with untraced and traced in-process passes
of the same library calls, checks that all three agree, and reports the
per-layer metrics; ``bench/layers.json`` says which end-to-end metric and
workload each one should move.

Every run's output is checked: exit code, the workload's seed-independent
checks, byte-identical stdout for repeated inputs, and at the default seed
the SHA-256 of stdout recorded in ``bench/digests.json``.  A failed run
counts in ``failed``; none is dropped.  The last stdout line is the result
JSON; the full record (environment, sizes, samples, errors, and for traced
runs the spans) goes to ``bench/results/``.

``--smoke`` runs every workload once per mode at a tiny size and checks that
the emitted metric names and units match BENCHMARK.json exactly.
``--record-digests`` rewrites ``bench/digests.json`` from the current program.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
import traceback
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from workloads import WORKLOADS  # noqa: E402

DEFAULT_SEED = 1
MIN_RUNS = 3
# Each run gets a fresh input set; digests.json covers this many.
MAX_RUNS = 40
RUN_TIMEOUT_S = 60.0
# Stop starting runs once this much time has passed, so that one
# measurement stays inside three minutes even if the program slows down.
DEADLINE_S = 110.0
ENV = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
# About what the calibration kernel takes on a 2-CPU x86 sandbox, so a
# reference second is close to a second there.
REFERENCE_CAL_S = 0.1


@dataclass
class Proc:
    wall_s: float
    rss_mb: float
    code: int | None
    stdout: str
    stderr: str


def spawn(cmd: list[str], work: Path, timeout: float = RUN_TIMEOUT_S) -> Proc:
    """Run a child to completion; wall time from spawn to exit, and peak RSS.

    The kernel starts a child's ru_maxrss at the spawning process's resident
    size, so the RSS cannot read below this process's own (``bench_rss_mb``
    in the record).
    """
    out_path, err_path = work / "stdout", work / "stderr"
    lock = threading.Lock()
    state = {"exited": False, "killed": False}

    def kill() -> None:
        with lock:
            if not state["exited"]:  # not yet reaped, so the pid is still ours
                os.kill(proc.pid, signal.SIGKILL)
                state["killed"] = True

    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, cwd=ROOT, env=ENV)
        timer = threading.Timer(timeout, kill)
        timer.start()
        os.waitid(os.P_PID, proc.pid, os.WEXITED | os.WNOWAIT)
        wall = time.perf_counter() - start
        with lock:
            state["exited"] = True
        timer.cancel()
        # wait4 rather than Popen.wait: it returns this child's rusage
        _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Proc(
        wall_s=wall,
        rss_mb=usage.ru_maxrss / 1024,
        code=None if state["killed"] else proc.returncode,
        stdout=out_path.read_text(),
        stderr=err_path.read_text(),
    )


def calibrate() -> float:
    """Seconds for a fixed mix of interpreter work: integer arithmetic,
    small-object allocation and slicing.  Pure Python, because importing
    numpy here would raise the floor of every child's peak RSS (see spawn).
    """
    start = time.perf_counter()
    total = 0
    for i in range(640_000):
        total += i * i % 7
    table = {}
    for i in range(240_000):
        table[i % 977] = (i, i + 1)
    values = list(range(3000))
    for i in range(1, 1000):
        total += sum(values[:i])
    return time.perf_counter() - start


class Calibrated:
    """Spawns children between calibration runs and scales their wall time."""

    def __init__(self, work: Path):
        self.work = work
        self.last = calibrate()

    def spawn(self, cmd: list[str]) -> tuple[Proc, float]:
        p = spawn(cmd, self.work)
        before, self.last = self.last, calibrate()
        return p, p.wall_s * REFERENCE_CAL_S / ((before + self.last) / 2)


def cli(argv: list[str]) -> list[str]:
    return [sys.executable, "-m", "intervalsel", *argv]


def probe(argv: list[str]) -> list[str]:
    return [sys.executable, str(BENCH / "probe.py"), *argv]


def exit_errors(p: Proc) -> list[str]:
    if p.code is None:
        return [f"killed after {RUN_TIMEOUT_S:.0f} s"]
    if p.code != 0:
        return [f"exit code {p.code}: {p.stderr.strip()[-400:]}"]
    return []


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


class Runs:
    """Counts runs attempted and failed, and keeps every failure's reason."""

    def __init__(self, workload, seed: int, digests: dict):
        self.workload = workload
        self.seed = seed
        self.digests = digests.get(workload.size, {}).get(workload.name, [])
        self.seen: dict[int, str] = {}
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def record(self, label: str, errors: list[str]) -> bool:
        self.attempted += 1
        if errors:
            self.failed += 1
            self.errors.extend(f"{label}: {e}" for e in errors)
        return not errors

    def check_probe(self, p: Proc) -> dict | None:
        errors = exit_errors(p)
        info = None
        if not errors:
            try:
                info = json.loads(p.stdout)
                if not Path(info["module"]).resolve().is_relative_to(ROOT / "src"):
                    errors.append(f"imported intervalsel from {info['module']}")
            except (json.JSONDecodeError, KeyError) as exc:
                errors.append(f"bad probe output: {exc}")
        return info if self.record("set-up probe", errors) else None

    def check_cli(self, p: Proc, inp) -> bool:
        errors = exit_errors(p)
        if not errors:
            errors = self.workload.check(p.stdout, inp)
            digest = sha256(p.stdout)
            j = inp.index
            if self.seed == DEFAULT_SEED and j < len(self.digests) and digest != self.digests[j]:
                errors.append(
                    f"stdout digest {digest[:12]} differs from the recorded {self.digests[j][:12]}"
                )
            if self.seen.setdefault(j, digest) != digest:
                errors.append("stdout differs from an earlier run of the same input")
        return self.record(f"run of input set {inp.index}", errors)

    def warm_up(self, work: Path, first) -> None:
        """Untimed: a probe and a CLI run on the first input set fill the
        bytecode caches (the timed loop runs that input again, which checks
        that stdout repeats), then the seed-independent check runs."""
        self.check_probe(spawn(probe(first.argv), work))
        self.check_cli(spawn(cli(first.argv), work), first)
        for argv, check in self.workload.check_runs():
            p = spawn(cli(argv), work)
            self.record(" ".join(argv), exit_errors(p) or check(p.stdout))


def input_sets(make, seconds: float, minimum: int, t0: float):
    """Input sets 0, 1, ... for as long as the measurement lasts."""
    start = time.perf_counter()
    j = 0
    while j < minimum or (
        time.perf_counter() - start < seconds
        and j < MAX_RUNS
        and time.perf_counter() - t0 < DEADLINE_S
    ):
        yield make(j)
        j += 1


def measure_end_to_end(
    wl, runs: Runs, make, seconds: float, work: Path, t0: float
) -> tuple[dict, dict]:
    first = make(0)
    runs.warm_up(work, first)
    clock = Calibrated(work)
    walls, setups, rss, raw_walls, raw_setups = [], [], [], [], []
    for inp in input_sets(make, seconds, MIN_RUNS, t0):
        p, ref_s = clock.spawn(probe(inp.argv))
        runs.check_probe(p)
        setups.append(ref_s)
        raw_setups.append(p.wall_s)
        p, ref_s = clock.spawn(cli(inp.argv))
        runs.check_cli(p, inp)
        walls.append(ref_s)
        raw_walls.append(p.wall_s)
        rss.append(p.rss_mb)
    wall_s = statistics.median(walls)
    setup_s = statistics.median(setups)
    metrics = {
        "wall_s": wall_s,
        "setup_s": setup_s,
        "items_per_s": first.items / (wall_s - setup_s),
        "peak_rss_mb": statistics.median(rss),
    }
    samples = {
        "items_per_run": first.items,
        "wall_s": walls,
        "setup_s": setups,
        "peak_rss_mb": rss,
        "raw_wall_s": raw_walls,
        "raw_setup_s": raw_setups,
    }
    return metrics, samples


def measure_traced(
    wl, runs: Runs, make, seconds: float, work: Path, t0: float
) -> tuple[dict, dict, list]:
    sys.path.insert(0, str(ROOT / "src"))
    import intervalsel  # noqa: F401  (imported before any pass is timed)
    import tracing

    first = make(0)
    runs.warm_up(work, first)
    # before the passes, while this process is still the size of a CLI run
    pool_start_ms = tracing.pool_start_ms()
    imports = []
    for _ in range(3):
        info = runs.check_probe(spawn(probe(first.argv), work))
        if info:
            imports.append(info["import_s"])

    tr, null = tracing.Tracer(), tracing.NullTracer()
    stdout_bytes = []
    timings = []  # (CLI wall, untraced pass, traced pass) of each complete pass
    for inp in input_sets(make, seconds, 1, t0):
        p = spawn(cli(inp.argv), work)
        stdout_bytes.append(len(p.stdout.encode()))
        cli_ok = runs.check_cli(p, inp)
        errors = []
        j = inp.index
        pass_s = {}
        try:
            # alternate which pass goes first, so neither always runs warm
            for traced_pass in (j % 2 == 1, j % 2 == 0):
                t = time.perf_counter()
                if traced_pass:
                    tr.run = j
                    with tracing.instrument(tr):
                        with_spans = wl.drive(tr, inp)
                else:
                    plain = wl.drive(null, inp)
                pass_s[traced_pass] = time.perf_counter() - t
            timings.append((p.wall_s, pass_s[False], pass_s[True]))
            if cli_ok and not wl.summary(p.stdout) == plain == with_spans:
                errors.append("traced, untraced and CLI results differ")
        except Exception:  # a driver failure is a failed run, reported in full
            errors.append(traceback.format_exc(limit=3))
        runs.record(f"in-process pass {j}", errors)

    passes = len(timings)
    metrics = tracing.layer_metrics(tr, passes) if passes else {}
    exact = tracing.exact_lane_s() if wl.name == "dp-large" else 0.0
    if passes:
        metrics.update(tracing.recurrence_lane_metrics(tr, passes, exact))
    text = first.path.read_text() if first.path else None
    metrics.update(tracing.geometry_metrics(wl.intervals(first), text))
    # Overheads are paired within a pass, so that a change of machine speed
    # between passes does not show as overhead.
    overhead_s = [c - u for c, u, _ in timings] or [math.nan]
    trace_share = [t / u - 1 for _, u, t in timings] or [math.nan]
    metrics.update(
        {
            "rng.draws_per_s": tracing.rng_draws_per_s(),
            "harness.pool_start_ms": pool_start_ms,
            "cli.import_s": statistics.median(imports or [math.nan]),
            "cli.overhead_s": statistics.median(overhead_s),
            "cli.stdout_bytes": statistics.median(stdout_bytes),
            "trace.overhead_share": statistics.median(trace_share),
        }
    )
    samples = {
        "items_per_run": first.items,
        "cli_wall_s": [c for c, _, _ in timings],
        "untraced_s": [u for _, u, _ in timings],
        "traced_s": [t for _, _, t in timings],
    }
    return metrics, samples, tr.spans


# --- environment and results ------------------------------------------------------


def git_sha() -> str | None:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment() -> dict:
    from importlib import metadata  # heavy; imported after the last child ran

    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    try:
        numpy = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy = None
    return {
        "git_sha": git_sha(),
        "src_sha256": h.hexdigest(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy,
        "platform": platform.platform(),
    }


def _number(value):
    """A metric value as a JSON number; null when a failed run left none."""
    if value is None or not math.isfinite(value):
        return None
    return value


def result_line(spec: dict, metrics: dict, runs: Runs, trace: int) -> dict:
    declared = spec["per_layer"] if trace else spec["end_to_end"]
    return {
        "correct": runs.failed == 0,
        "attempted": runs.attempted,
        "failed": runs.failed,
        "metrics": {
            m["name"]: {"value": _number(metrics.get(m["name"])), "unit": m["unit"]}
            for m in declared
        },
    }


def write_record(args, wl, result: dict, runs: Runs, samples: dict, spans) -> Path:
    out = BENCH / "results"
    out.mkdir(exist_ok=True)
    stamp = datetime.now(timezone.utc).strftime("%Y%m%dT%H%M%S%fZ")
    stem = out / f"{args.workload}-seed{args.seed}-trace{args.trace}-{stamp}"
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "size": args.size,
        "sizes": wl.params,
        "environment": environment(),
        "bench_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "result": result,
        "samples": samples,
        "errors": runs.errors,
    }
    stem.with_suffix(".json").write_text(json.dumps(record, indent=1) + "\n")
    if spans is not None:
        fields = ["name", "start_ns", "end_ns", "parent", "run", "attrs"]
        stem.with_name(stem.name + "-spans.json").write_text(
            json.dumps({"fields": fields, "spans": spans}) + "\n"
        )
    return stem.with_suffix(".json")


def load_json(path: Path):
    return json.loads(path.read_text())


def measure(args) -> int:
    if not (ROOT / "src" / "intervalsel" / "__init__.py").is_file():
        print("error: no intervalsel sources under src/", file=sys.stderr)
        return 2
    t0 = time.perf_counter()
    # One CPU for this process, the children it spawns and the calibration
    # kernel, so that the kernel times the CPU the program ran on.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    spec = load_json(ROOT / "BENCHMARK.json")
    wl = WORKLOADS[args.workload](args.size)
    runs = Runs(wl, args.seed, load_json(BENCH / "digests.json"))
    work = BENCH / "_work" / str(os.getpid())
    work.mkdir(parents=True, exist_ok=True)
    make = functools.partial(wl.make, work, args.seed)
    try:
        if args.trace:
            metrics, samples, spans = measure_traced(wl, runs, make, args.seconds, work, t0)
        else:
            metrics, samples = measure_end_to_end(wl, runs, make, args.seconds, work, t0)
            spans = None
        result = result_line(spec, metrics, runs, args.trace)
        path = write_record(args, wl, result, runs, samples, spans)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for error in runs.errors:
        print("check failed:", error, file=sys.stderr)
    print(f"record: {path.relative_to(ROOT)}", file=sys.stderr)
    print(json.dumps(result))
    return 0


# --- smoke test and digest recording ---------------------------------------------------


def smoke() -> int:
    spec = load_json(ROOT / "BENCHMARK.json")
    layers = load_json(BENCH / "layers.json")
    problems = []
    if [w["name"] for w in spec["workloads"]] != list(WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from the implemented ones")
    if sorted(layers) != sorted(m["name"] for m in spec["per_layer"]):
        problems.append("bench/layers.json does not cover exactly the per-layer metrics")
    for name in WORKLOADS:
        for trace in (0, 1):
            declared = spec["per_layer"] if trace else spec["end_to_end"]
            cmd = [sys.executable, str(BENCH / "run.py"), "--workload", name, "--seed",
                   str(DEFAULT_SEED), "--seconds", "1", "--trace", str(trace), "--size", "smoke"]
            p = subprocess.run(cmd, capture_output=True, text=True, timeout=180)
            label = f"{name} --trace {trace}"
            before = len(problems)
            try:
                result = json.loads(p.stdout.strip().splitlines()[-1])
            except (IndexError, json.JSONDecodeError):
                problems.append(f"{label}: no result line (exit {p.returncode}): {p.stderr[-400:]}")
                continue
            if p.returncode != 0 or sorted(result) != ["attempted", "correct", "failed", "metrics"]:
                problems.append(f"{label}: exit {p.returncode}, result keys {sorted(result)}")
            elif not result["correct"]:
                problems.append(f"{label}: incorrect: {p.stderr[-800:]}")
            got = {k: v["unit"] for k, v in result.get("metrics", {}).items()}
            want = {m["name"]: m["unit"] for m in declared}
            if got != want:
                diff = sorted(set(got) ^ set(want))
                problems.append(f"{label}: metric names or units differ: {diff}")
            bad = [k for k, v in result.get("metrics", {}).items()
                   if not isinstance(v["value"], (int, float)) or not math.isfinite(v["value"])]
            if bad:
                problems.append(f"{label}: non-finite values for {bad}")
            print(f"smoke {label}: {'ok' if len(problems) == before else 'FAIL'}", file=sys.stderr)
    for problem in problems:
        print("smoke:", problem, file=sys.stderr)
    return 1 if problems else 0


def record_digests() -> int:
    digests: dict = {}
    work = BENCH / "_work" / str(os.getpid())
    work.mkdir(parents=True, exist_ok=True)
    try:
        for size in ("full", "smoke"):
            for name, cls in WORKLOADS.items():
                wl = cls(size)
                digests.setdefault(size, {})[name] = []
                for j in range(MAX_RUNS):
                    inp = wl.make(work, DEFAULT_SEED, j)
                    p = spawn(cli(inp.argv), work)
                    errors = exit_errors(p) or wl.check(p.stdout, inp)
                    if errors:
                        print(f"{name} {size} {j}: {errors}", file=sys.stderr)
                        return 1
                    digests[size][name].append(sha256(p.stdout))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    (BENCH / "digests.json").write_text(json.dumps(digests, indent=1) + "\n")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "smoke"), default="full")
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--record-digests", action="store_true")
    args = parser.parse_args()
    if args.smoke:
        return smoke()
    if args.record_digests:
        return record_digests()
    if args.workload is None:
        parser.error("--workload is required")
    return measure(args)


if __name__ == "__main__":
    sys.exit(main())
