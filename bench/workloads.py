"""The four benchmark workloads: inputs, CLI arguments, output checks and
the in-process driver that replays the CLI's library calls under a tracer.

Input set ``j`` of a workload seed is one CLI run: its files and program
seed.  All randomness comes from ``random.Random`` seeded with a string, so
a workload seed always yields the same input sets.

Checks use only the CLI's stdout and the benchmark's own exact reference
computations (``fractions.Fraction``), never the library under test.
"""

from __future__ import annotations

import csv
import io
import json
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Callable

# Full sizes make one CLI run take about 1 s on a 2-CPU x86 sandbox, so a
# 25 s measurement holds a dozen runs, each one median sample.  Smoke
# sizes only prove the plumbing.
SIZES = {
    "dp-large": {"full": {"delta": 22000}, "smoke": {"delta": 2000}},
    "mc-restricted": {"full": {"trials": 10}, "smoke": {"trials": 2}},
    "gadget-windowed": {"full": {"samples": 15}, "smoke": {"samples": 2}},
    "stream-unrestricted": {"full": {"length": 150}, "smoke": {"length": 20}},
}

MC_DELTA = 7
MC_ALPHA = MC_DELTA - 1
MC_BOUND = Fraction(74, 15)  # out_lb(6)
GADGET_T = 20
GADGET_DELTA = 6
STREAM_DELTA = 5
STREAM_DENOMINATORS = (1, 2, 3, 4, 5, 7, 8, 10, 16, 100)
DECIMAL_DENOMINATORS = {2, 4, 5, 8, 10, 16, 100}

# Seed-independent runs made once per measurement, untimed.
DP_EXACT_ARGV = ["dp", "--sweep", "2..6"]
# The certified bound out_lb(alpha) is claimed for instances with room to
# spare.  At delta = alpha + 1 >= 6 it is provably out of reach
# (tests/test_recurrence.py::test_tightest_packing_caps_alpha_five), so the
# mc-restricted runs cannot be held to meets_prediction; this run inside the
# certified regime (alpha 3, delta 5, checked by acceptance criterion c07)
# must meet it.
MC_CERTIFIED_ARGV = [
    "montecarlo", "--kind", "independent", "--alpha", "3", "--delta", "5",
    "--trials", "200", "--seed", "11", "--threads", "1",
]


@dataclass
class RunInput:
    """One CLI run: its arguments, its work-item count and its data."""

    index: int
    argv: list[str]
    items: int
    seed: int | None = None
    path: Path | None = None
    lefts: list[Fraction] = field(default_factory=list)


def _rng(workload: str, seed: int, j: int) -> random.Random:
    return random.Random(f"{workload}/{seed}/{j}")


def _program_seed(rng: random.Random) -> int:
    return rng.getrandbits(48)


def _fmt12(value: float) -> str:
    return f"{value:.12g}"


def _close(a: float, b: float, rel: float = 1e-10) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b), 1.0)


def _fraction_text(value: Fraction, rng: random.Random) -> str:
    if value.denominator == 1:
        return str(value.numerator)
    if value.denominator in DECIMAL_DENOMINATORS and rng.random() < 0.5:
        digits = 0
        while (value * 10**digits).denominator != 1:
            digits += 1
        scaled = value.numerator * 10**digits // value.denominator
        whole, frac = divmod(scaled, 10**digits)
        return f"{whole}.{frac:0{digits}d}"
    return f"{value.numerator}/{value.denominator}"


def _write(path: Path, lefts: list[Fraction], rng: random.Random, header: str) -> None:
    lines = [f"# {header}"] + [_fraction_text(x, rng) for x in lefts]
    path.write_text("\n".join(lines) + "\n")


def _independent(lefts) -> bool:
    ordered = sorted(lefts)
    return all(b - a > 1 for a, b in zip(ordered, ordered[1:]))


def _alpha(lefts) -> int:
    """Greedy maximum independent set size of unit intervals (exact)."""
    count, last = 0, None
    for x in sorted(lefts):
        if last is None or x - last > 1:
            count, last = count + 1, x
    return count


def _table_attrs(table) -> dict:
    return {"x_max": table.x_max, "disagreement": table.max_rel_disagreement}


def _parse_json(stdout: str, errors: list[str]) -> dict | None:
    try:
        return json.loads(stdout)
    except json.JSONDecodeError as exc:
        errors.append(f"stdout is not JSON: {exc}")
        return None


class Workload:
    name: str

    def __init__(self, size: str):
        self.size = size
        self.params = SIZES[self.name][size]

    def make(self, work: Path, seed: int, j: int) -> RunInput:
        raise NotImplementedError

    def check(self, stdout: str, inp: RunInput) -> list[str]:
        raise NotImplementedError

    def check_runs(self) -> list[tuple[list[str], Callable[[str], list[str]]]]:
        """Seed-independent CLI runs and their checks, made once, untimed."""
        return []

    def summary(self, stdout: str) -> dict:
        """The quantities the traced driver must reproduce, read from stdout."""
        raise NotImplementedError

    def drive(self, tr, inp: RunInput) -> dict:
        """Replay the CLI's library calls in order; return ``summary`` keys."""
        raise NotImplementedError

    def intervals(self, inp: RunInput):
        """The workload's own intervals for the geometry timings, or None."""
        return None


# --- dp-large -----------------------------------------------------------------


class DpLarge(Workload):
    name = "dp-large"

    def make(self, work, seed, j):
        delta = self.params["delta"]
        return RunInput(j, argv=["dp", "--delta", str(delta)], items=delta)

    def _rows(self, stdout: str, errors: list[str]) -> list[dict]:
        reader = csv.DictReader(io.StringIO(stdout))
        if reader.fieldnames != ["delta", "restricted_factor", "overall_factor", "binding_alpha"]:
            errors.append(f"unexpected CSV header {reader.fieldnames}")
            return []
        try:
            return [
                {
                    "delta": int(r["delta"]),
                    "restricted": float(r["restricted_factor"]),
                    "overall": float(r["overall_factor"]),
                    "binding_alpha": int(r["binding_alpha"]),
                }
                for r in reader
            ]
        except (TypeError, ValueError) as exc:
            errors.append(f"bad CSV row: {exc}")
            return []

    def check(self, stdout, inp):
        errors: list[str] = []
        rows = self._rows(stdout, errors)
        delta = self.params["delta"]
        if errors:
            return errors
        if len(rows) != 1 or rows[0]["delta"] != delta:
            return [f"expected one row for delta {delta}, got {rows}"]
        row = rows[0]
        if not 1 <= row["binding_alpha"] <= delta - 1:
            errors.append(f"binding alpha {row['binding_alpha']} outside [1, {delta - 1}]")
        if not Fraction(2, 3) < row["restricted"] <= 1:
            errors.append(f"restricted factor {row['restricted']} outside (2/3, 1]")
        if not _close(row["overall"], (delta - 1) / delta * row["restricted"]):
            errors.append("overall factor is not (delta-1)/delta * restricted factor")
        if not row["overall"] > 2 / 3:
            errors.append(f"overall factor {row['overall']} does not beat 2/3 at delta {delta}")
        return errors

    def _check_exact(self, stdout: str) -> list[str]:
        errors: list[str] = []
        rows = {r["delta"]: r for r in self._rows(stdout, errors)}
        if errors or sorted(rows) != [2, 3, 4, 5, 6]:
            return errors or [f"dp --sweep 2..6 printed deltas {sorted(rows)}"]
        # delta 4: min over alpha <= 3 of out_lb(alpha)/alpha = out_lb(3)/3 = 8/9
        if not (_close(rows[4]["restricted"], 8 / 9, 1e-11) and rows[4]["binding_alpha"] == 3):
            errors.append(f"out_lb(3) != 8/3: delta 4 row is {rows[4]}")
        if not _close(rows[5]["overall"], 2 / 3, 1e-11):
            errors.append(f"delta 5 overall factor is {rows[5]['overall']}, not 2/3")
        return errors

    def check_runs(self):
        return [(DP_EXACT_ARGV, self._check_exact)]

    def summary(self, stdout):
        lines = stdout.splitlines()
        return {"row": lines[1] if len(lines) > 1 else None}

    def drive(self, tr, inp):
        from intervalsel import recurrence

        delta = self.params["delta"]
        table = tr.call(
            "recurrence.build",
            recurrence.build_out_table,
            delta - 1,
            attrs=_table_attrs,
        )
        curve = tr.call("recurrence.sweep", recurrence.sweep, delta, delta, table)
        (row,) = curve.rows
        return {
            "row": f"{row.delta},{_fmt12(float(row.restricted))},"
            f"{_fmt12(float(row.overall))},{row.binding_alpha}"
        }


# --- mc-restricted ------------------------------------------------------------


class McRestricted(Workload):
    name = "mc-restricted"

    def make(self, work, seed, j):
        rng = _rng(self.name, seed, j)
        # alpha pairwise independent lefts in [0, delta - 1), gaps above 1,
        # none integral: positions in units of 1/q as in harness.gen_independent.
        q = 1 << 20
        budget = (MC_DELTA - MC_ALPHA) * q - MC_ALPHA
        while True:
            offsets = sorted(rng.randrange(budget + 1) for _ in range(MC_ALPHA))
            nums = [(q + 1) * k + off for k, off in enumerate(offsets)]
            if all(n % q for n in nums):
                break
        lefts = [Fraction(n, q) for n in nums]
        path = work / f"{self.name}-{j}.txt"
        _write(path, lefts, rng, f"independent instance, alpha {MC_ALPHA}")
        trials = self.params["trials"]
        program_seed = _program_seed(rng)
        argv = [
            "montecarlo", "--kind", "custom-file", "--input", str(path),
            "--delta", str(MC_DELTA), "--trials", str(trials), "--seed", str(program_seed),
            "--algorithm", "restricted", "--threads", "1",
        ]
        return RunInput(j, argv=argv, items=trials, seed=program_seed, path=path)

    @staticmethod
    def _check_summary(rep: dict, trials: int, alpha: int, bound: Fraction) -> list[str]:
        keys = {"trials", "mean", "std", "min", "max", "alpha", "empirical_factor",
                "predicted_bound", "stderr", "meets_prediction"}
        if set(rep) != keys:
            return [f"report keys {sorted(rep)}"]
        errors = []
        if rep["trials"] != trials:
            errors.append(f"trials {rep['trials']} != {trials}")
        if rep["alpha"] != alpha:
            errors.append(f"alpha {rep['alpha']} != {alpha}")
        if not 0 <= rep["min"] <= rep["mean"] <= rep["max"] <= alpha:
            errors.append(f"output sizes not within [0, alpha]: {rep}")
        if not _close(rep["predicted_bound"], float(bound), 1e-11):
            errors.append(f"predicted bound {rep['predicted_bound']} != {bound}")
        if not _close(rep["empirical_factor"], rep["mean"] / alpha):
            errors.append("empirical factor is not mean / alpha")
        threshold = rep["predicted_bound"] - 3 * rep["stderr"]
        clear = abs(rep["mean"] - threshold) > 1e-9  # not decided by the rounding
        if clear and rep["meets_prediction"] != (rep["mean"] >= threshold):
            errors.append("meets_prediction disagrees with mean >= bound - 3 stderr")
        return errors

    def check(self, stdout, inp):
        errors: list[str] = []
        rep = _parse_json(stdout, errors)
        if rep is None:
            return errors
        return self._check_summary(rep, inp.items, MC_ALPHA, MC_BOUND)

    def _check_certified(self, stdout: str) -> list[str]:
        errors: list[str] = []
        rep = _parse_json(stdout, errors)
        if rep is None:
            return errors
        errors = self._check_summary(rep, 200, 3, Fraction(8, 3))
        if rep.get("meets_prediction") is not True:
            errors.append("meets_prediction is false in the certified regime (alpha 3, delta 5)")
        return errors

    def check_runs(self):
        return [(MC_CERTIFIED_ARGV, self._check_certified)]

    def summary(self, stdout):
        rep = json.loads(stdout)
        return {
            "trials": rep["trials"],
            "size_sum": round(rep["mean"] * rep["trials"]),
            "min": rep["min"],
            "max": rep["max"],
            "alpha": rep["alpha"],
        }

    def drive(self, tr, inp):
        from intervalsel import harness
        from intervalsel.geometry import alpha
        from intervalsel.recurrence import build_out_table
        from intervalsel.restricted import run_restricted
        from intervalsel.rng import derive, fisher_yates

        spec = harness.InstanceSpec(
            kind="custom-file", delta=MC_DELTA, seed=inp.seed, path=str(inp.path)
        )
        sizes = []
        with tr.span("harness.monte_carlo"):
            intervals = tr.call("harness.instance", harness.instance_from_spec, spec)
            tr.call("geometry.alpha", alpha, intervals)
            for k in range(inp.items):
                order = tr.call(
                    "rng.shuffle", lambda: fisher_yates(intervals, derive(inp.seed, k + 1))
                )
                with tr.span("algorithm"):
                    report = run_restricted(MC_DELTA, order)
                sizes.append(len(report.output))
            # monte_carlo rebuilds the instance for the summary line
            again = tr.call("harness.instance", harness.instance_from_spec, spec)
            a = tr.call("geometry.alpha", alpha, again)
            tr.call("recurrence.build", build_out_table, max(a, 2), attrs=_table_attrs)
        return {
            "trials": len(sizes),
            "size_sum": sum(sizes),
            "min": min(sizes),
            "max": max(sizes),
            "alpha": a,
        }

    def intervals(self, inp):
        from intervalsel.geometry import parse_intervals

        return parse_intervals(inp.path.read_text())


# --- windowed runs (gadget-windowed, stream-unrestricted) ------------------------


def windowed_run(tr, delta: int, stream):
    """``windows.run_windowed`` with a span around each feed and the merge."""
    from intervalsel.windows import WindowMap

    with tr.span("algorithm"):
        wm = WindowMap(delta)
        for iv in stream:
            tr.call("windows.feed", wm.feed, iv)
        merged = tr.call("windows.merge", wm.merge_output)
        tr.annotate(active=wm.active_count, merged=len(merged))
    return wm, merged


class GadgetWindowed(Workload):
    name = "gadget-windowed"

    def make(self, work, seed, j):
        program_seed = _program_seed(_rng(self.name, seed, j))
        samples = self.params["samples"]
        argv = [
            "gadget", "--t", str(GADGET_T), "--simulate", "--algorithm",
            f"windowed:{GADGET_DELTA}", "--threads", "1", "--samples", str(samples),
            "--seed", str(program_seed),
        ]
        return RunInput(j, argv=argv, items=samples, seed=program_seed)

    def check(self, stdout, inp):
        errors: list[str] = []
        rep = _parse_json(stdout, errors)
        if rep is None:
            return errors
        keys = {"t", "n", "samples", "success_rate", "mean_output_size", "approx_factor",
                "unique_triple_rate", "target_built_privately", "target_built_publicly"}
        if set(rep) != keys:
            return [f"report keys {sorted(rep)}"]
        if (rep["t"], rep["n"], rep["samples"]) != (GADGET_T, GADGET_T + 2, inp.items):
            errors.append(f"t, n, samples = {rep['t']}, {rep['n']}, {rep['samples']}")
        # the gadget's alpha is 3
        if not 0 <= rep["mean_output_size"] <= 3:
            errors.append(f"mean output size {rep['mean_output_size']} outside [0, 3]")
        if not _close(rep["approx_factor"], rep["mean_output_size"] / 3):
            errors.append("approx factor is not mean output size / 3")
        for key in ("success_rate", "unique_triple_rate"):
            if not 0 <= rep[key] <= 1:
                errors.append(f"{key} {rep[key]} outside [0, 1]")
        branches = (rep["target_built_privately"], rep["target_built_publicly"])
        if sum(b["samples"] for b in branches) != inp.items:
            errors.append("branch sample counts do not add up to the samples")
        if any(not 0 <= b["mean_output_size"] <= 3 for b in branches):
            errors.append("a branch mean output size lies outside [0, 3]")
        return errors

    def summary(self, stdout):
        rep = json.loads(stdout)
        return {
            "samples": rep["samples"],
            "size_sum": round(rep["mean_output_size"] * rep["samples"]),
            "triples": round(rep["unique_triple_rate"] * rep["samples"]),
        }

    def drive(self, tr, inp):
        from intervalsel.gadget import random_gadget, resolve_algorithm
        from intervalsel.rng import derive

        size_sum = triples = 0
        with tr.span("gadget.simulate_protocol"):
            resolve_algorithm(f"windowed:{GADGET_DELTA}")
            for k in range(inp.items):
                with tr.span("gadget.build"):
                    g = random_gadget(GADGET_T, derive(inp.seed, k))
                    stream = g.stream
                _, merged = windowed_run(tr, GADGET_DELTA, stream)
                size_sum += len(merged)
                triples += len(merged) == 3
        return {"samples": inp.items, "size_sum": size_sum, "triples": triples}

    def intervals(self, inp):
        from intervalsel.gadget import random_gadget
        from intervalsel.rng import derive

        return list(random_gadget(GADGET_T, derive(inp.seed, 0)).stream)


class StreamUnrestricted(Workload):
    name = "stream-unrestricted"

    def make(self, work, seed, j):
        rng = _rng(self.name, seed, j)
        length = self.params["length"]
        lefts = []
        for _ in range(2 * length):
            den = rng.choice(STREAM_DENOMINATORS)
            lefts.append(Fraction(rng.randrange((length - 1) * den), den))
        path = work / f"{self.name}-{j}.txt"
        _write(path, lefts, rng, f"{len(lefts)} unit intervals on [0, {length})")
        program_seed = _program_seed(rng)
        argv = [
            "run", "--unrestricted", "--delta", str(STREAM_DELTA), "--order", "shuffle",
            "--seed", str(program_seed), "--input", str(path),
        ]
        return RunInput(j, argv=argv, items=len(lefts), seed=program_seed, path=path, lefts=lefts)

    def check(self, stdout, inp):
        errors: list[str] = []
        rep = _parse_json(stdout, errors)
        if rep is None:
            return errors
        if set(rep) != {"output_size", "output_intervals", "alpha", "active_windows", "windows"}:
            return [f"report keys {sorted(rep)}"]
        given = set(inp.lefts)
        out = [Fraction(x) for x in rep["output_intervals"]]
        want_alpha = _alpha(inp.lefts)
        origins = {
            o for x in given for o in range(math.floor(x) - STREAM_DELTA + 2, math.floor(x) + 1)
        }
        if rep["alpha"] != want_alpha:
            errors.append(f"alpha {rep['alpha']} != {want_alpha}")
        if not rep["output_size"] == len(out) <= want_alpha:
            errors.append(
                f"output size {rep['output_size']} for {len(out)} intervals, alpha {want_alpha}"
            )
        if not set(out) <= given or not _independent(out):
            errors.append("output is not an independent subset of the input")
        if rep["active_windows"] != len(origins) or len(rep["windows"]) != len(origins):
            errors.append(f"{rep['active_windows']} active windows, expected {len(origins)}")
        for w in rep["windows"]:
            back = [Fraction(x) for x in w["output_intervals"]]
            if w["origin"] not in origins or w["output_size"] != len(back):
                errors.append(f"window {w['origin']} report is inconsistent")
            elif not set(back) <= given or not _independent(back):
                errors.append(f"window {w['origin']} output is not an independent input subset")
        return errors

    def summary(self, stdout):
        return json.loads(stdout)

    def drive(self, tr, inp):
        from intervalsel.geometry import alpha, parse_intervals
        from intervalsel.rng import SplitMix64, fisher_yates

        text = tr.call("cli.read", inp.path.read_text)
        stream = tr.call("geometry.parse", parse_intervals, text)
        stream = tr.call("rng.shuffle", fisher_yates, stream, SplitMix64(inp.seed))
        wm, merged = windowed_run(tr, STREAM_DELTA, stream)
        # what cli._cmd_run does after the merge: every window output again,
        # translated back, and the JSON report
        with tr.span("cli.report"):
            windows = []
            for rep in tr.call("windows.reports", wm.window_reports):
                entry = rep.report.to_dict()
                entry["origin"] = rep.origin
                entry["output_intervals"] = [
                    str(iv.translate(rep.origin).left) for iv in rep.report.output
                ]
                windows.append(entry)
            payload = {
                "output_size": len(merged),
                "output_intervals": [str(iv.left) for iv in merged],
                "alpha": tr.call("geometry.alpha", alpha, stream),
                "active_windows": wm.active_count,
                "windows": windows,
            }
            tr.call("cli.emit", lambda: json.dumps(payload, sort_keys=True))
        return payload

    def intervals(self, inp):
        from intervalsel.geometry import parse_intervals

        return parse_intervals(inp.path.read_text())


WORKLOADS = {w.name: w for w in (DpLarge, McRestricted, GadgetWindowed, StreamUnrestricted)}
