"""Instance generation, seeded orders, Monte Carlo runs, and property drivers.

Trials are independent: trial k draws all of its randomness from
``derive(seed, k + 1)`` (index 0 is reserved for instance generation), so
results do not depend on execution order or worker count.  A trial
returns its output size; ``rng.map_trials`` counts the trials per size,
merging blocks of trials by adding counts, which is exact, and the summary
statistics are read off the merged histogram.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import permutations
from pathlib import Path
from typing import Literal, NamedTuple, Sequence

# gadget and windows load with harness although a restricted run on a
# custom instance uses neither: bench/probe.py loads every module, and a
# montecarlo run that loads less than the probe shrinks the window that
# mc-restricted's items_per_s divides by (ROADMAP item 3).
from . import gadget as gadget_mod
from .geometry import (
    CheckError,
    IndependentSet,
    Scalar,
    UnitInterval,
    alpha,
    parse_intervals,
)
from .recurrence import out_lb
from .restricted import run_restricted
from .rng import SplitMix64, derive, fisher_yates, map_trials
from .windows import run_windowed

MAX_EXHAUSTIVE = 8
DEFAULT_JITTER_DENOMINATOR = 1 << 20
# A gadget instance is the construction shifted right by 2.  Its largest
# coordinate is the shifted left end of J_R at index t - 1,
# 3 + (t-1)/(t+1) + 1/t**2 + 1/t**3 = (4t**4 + 2t**3 + t**2 + 2t + 1) / (t**3 (t+1)),
# in lowest terms for even t.  Its numerator fits the signed 64-bit range up
# to t = 38,967, so every shifted construction with t <= MAX_GADGET_T fits
# (some odd t beyond it fit too, as for gadget.MAX_T).
MAX_GADGET_T = 38_967

AlgorithmName = Literal["restricted", "windowed"]


class ValidationError(CheckError):
    """An algorithm output failed a hard check (independence or the alpha ceiling)."""


class InstanceSpec(NamedTuple):
    """Recipe for a reproducible instance family.

    kind "independent" needs alpha; "clique" needs size; "gadget" needs t;
    "custom-file" needs path.  A field of another kind (``KIND_FIELDS``) is
    refused.  delta is the window width the stream must fit (inputs
    confined to [0, delta)); seed drives all generation.
    """

    kind: Literal["independent", "clique", "gadget", "custom-file"]
    delta: int
    seed: int
    alpha: int | None = None
    size: int | None = None
    t: int | None = None
    path: str | None = None
    aligned: bool = False


# The spec fields each kind reads, the one it needs first; a spec of any other
# kind leaves them unset.
KIND_FIELDS = {
    "independent": ("alpha", "aligned"),
    "clique": ("size",),
    "gadget": ("t",),
    "custom-file": ("path",),
}


class TrialSummary(NamedTuple):
    trials: int
    mean: float
    std: float
    min: int
    max: int
    alpha: int
    empirical_factor: float
    predicted_bound: float
    stderr: float
    meets_prediction: bool


def gen_independent(
    alpha_target: int, delta: int, seed: int, aligned: bool = False
) -> list[UnitInterval]:
    """alpha pairwise-independent unit intervals inside [0, delta).

    Left endpoints are rationals over the jitter denominator and are kept
    non-integral unless ``aligned`` asks for integer positions (which only
    pack up to alpha <= delta // 2).
    """
    if delta < 2:
        raise ValueError("delta must be at least 2")
    if not 1 <= alpha_target <= delta - 1:
        raise ValueError(f"alpha must be in [1, {delta - 1}], got {alpha_target}")
    rng = derive(seed, 0)
    if aligned:
        if 2 * (alpha_target - 1) > delta - 2:
            raise ValueError(
                f"aligned packing of alpha={alpha_target} needs delta >= {2 * alpha_target}"
            )
        slack = delta - 2 - 2 * (alpha_target - 1)
        offsets = sorted(rng.below(slack + 1) for _ in range(alpha_target))
        return [
            UnitInterval(Scalar(off + 2 * k)) for k, off in enumerate(offsets)
        ]

    q = DEFAULT_JITTER_DENOMINATOR
    # Positions in units of 1/q: consecutive lefts at least q+1 apart (gap
    # strictly above 1) and the last one strictly below (delta-1)*q.
    budget = (delta - alpha_target) * q - alpha_target
    if budget < 0:
        raise ValueError("jitter denominator too small for this packing")
    for _ in range(256):
        offsets = sorted(rng.below(budget + 1) for _ in range(alpha_target))
        numerators = [(q + 1) * k + off for k, off in enumerate(offsets)]
        if all(n % q != 0 for n in numerators):
            return [UnitInterval(Scalar(n, q)) for n in numerators]
    raise ValueError("jitter denominator too small to avoid integer endpoints")


def gen_clique(size: int) -> list[UnitInterval]:
    """size mutually overlapping unit intervals (max independent set 1)."""
    if size < 1:
        raise ValueError("clique size must be positive")
    return [UnitInterval(Scalar(i, size + 1)) for i in range(size)]


def instance_from_spec(spec: InstanceSpec) -> list[UnitInterval]:
    if spec.kind not in KIND_FIELDS:
        raise ValueError(f"unknown instance kind {spec.kind!r}")
    needed = KIND_FIELDS[spec.kind][0]
    if getattr(spec, needed) is None:
        raise ValueError(f"{spec.kind} instances need {needed}")
    for kind, fields in KIND_FIELDS.items():
        for field in fields:
            unset = InstanceSpec._field_defaults[field]
            if kind != spec.kind and getattr(spec, field) is not unset:
                raise ValueError(f"{field} applies only to {kind} instances")
    if spec.kind == "independent":
        return gen_independent(spec.alpha, spec.delta, spec.seed, aligned=spec.aligned)
    if spec.kind == "clique":
        return gen_clique(spec.size)
    if spec.kind == "gadget":
        if spec.t > MAX_GADGET_T:
            raise ValueError(
                f"t must be <= {MAX_GADGET_T}: larger gadget instances, shifted "
                "right by 2, leave the 64-bit coordinate range"
            )
        # Shift right so the construction fits [0, delta); width just above 4.
        if spec.delta < 5:
            raise ValueError("gadget instances need delta >= 5")
        g = gadget_mod.random_gadget(spec.t, derive(spec.seed, 0))
        return [iv.translate(2) for iv in g.stream]
    return parse_intervals(Path(spec.path).read_text())


def _validate_output(output: IndependentSet, ceiling: int) -> int:
    # IndependentSet construction already proved pairwise independence.
    size = len(output)
    if size > ceiling:
        raise ValidationError(f"output of size {size} exceeds alpha={ceiling}")
    return size


def _trial(
    intervals: list[UnitInterval],
    ceiling: int,
    delta: int,
    seed: int,
    algorithm: AlgorithmName,
    k: int,
) -> int:
    """Output size of trial k: the algorithm on the k-th uniform order."""
    order = fisher_yates(intervals, derive(seed, k + 1))
    if algorithm == "restricted":
        output = run_restricted(delta, order).output
    elif algorithm == "windowed":
        output = run_windowed(delta, order)
    else:
        raise ValueError(f"unknown algorithm {algorithm!r}")
    return _validate_output(output, ceiling)


def consecutive_floor_packing(intervals: Sequence[UnitInterval]) -> bool:
    """Whether the intervals are pairwise independent and the floors of their
    left ends are consecutive integers: the placement where the split-point
    rule's exact mean falls below out_lb(alpha) from alpha 5 on."""
    floors = sorted(iv.left.num // iv.left.den for iv in intervals)
    consecutive = all(f + 1 == g for f, g in zip(floors, floors[1:]))
    return consecutive and alpha(intervals) == len(intervals)


def monte_carlo(
    spec: InstanceSpec,
    trials: int,
    algorithm: AlgorithmName = "restricted",
    threads: int = 1,
    intervals: Sequence[UnitInterval] | None = None,
) -> TrialSummary:
    """Run the chosen algorithm on fresh uniform orders of one fixed instance.

    Reports mean and dispersion of the output size, the oracle's alpha, and
    the certified lower bound out_lb(alpha) for comparison.  The prediction
    check is one-sided: mean >= bound - 3 * stderr.  ``intervals`` is the
    instance ``spec`` builds, for a caller that already built it.
    """
    if trials < 1:
        raise ValueError("need at least one trial")

    # Built once: a bad spec fails before any trial, and all trials share it.
    if intervals is None:
        intervals = instance_from_spec(spec)
    a = alpha(intervals)
    trial_args = (intervals, a, spec.delta, spec.seed, algorithm)
    sizes = map_trials(_trial, trial_args, trials, threads)
    count = sum(sizes.values())
    total = sum(size * n for size, n in sizes.items())
    total_sq = sum(size * size * n for size, n in sizes.items())

    mean = total / count
    var = (total_sq - count * mean * mean) / (count - 1) if count > 1 else 0.0
    std = math.sqrt(max(var, 0.0))
    stderr = std / math.sqrt(count)
    bound = float(out_lb(a))
    lo, hi = min(sizes), max(sizes)
    if not lo <= mean <= hi <= a:
        raise ValidationError(
            f"summary out of order: min={lo} mean={mean} max={hi} alpha={a}"
        )
    return TrialSummary(
        trials=count,
        mean=mean,
        std=std,
        min=lo,
        max=hi,
        alpha=a,
        empirical_factor=mean / a if a else 0.0,
        predicted_bound=bound,
        stderr=stderr,
        meets_prediction=mean >= bound - 3 * stderr,
    )


def exhaustive_expectation(intervals: Sequence[UnitInterval], delta: int) -> Fraction:
    """Exact mean output size over every permutation of the instance (n <= 8)."""
    n = len(intervals)
    if n > MAX_EXHAUSTIVE:
        raise ValueError(f"exhaustive expectation limited to n <= {MAX_EXHAUSTIVE}")
    if n == 0:
        return Fraction(0)
    ceiling = alpha(intervals)
    total = 0
    count = 0
    for order in permutations(intervals):
        total += _validate_output(run_restricted(delta, order).output, ceiling)
        count += 1
    return Fraction(total, count)


class MonotonicityReport(NamedTuple):
    trials: int
    violations: int
    examples: tuple[dict, ...]


def _random_stream(rng: SplitMix64, delta: int, n: int) -> list[UnitInterval]:
    """n arbitrary unit intervals inside [0, delta), degenerate cases included."""
    out = []
    for _ in range(n):
        den = (1, 2, 4, DEFAULT_JITTER_DENOMINATOR)[rng.below(4)]
        num = rng.below((delta - 1) * den)
        out.append(UnitInterval(Scalar(num, den)))
    arrangement = rng.below(3)
    if arrangement == 1:
        out.sort(key=lambda iv: iv.left)
    elif arrangement == 2:
        out.sort(key=lambda iv: iv.left, reverse=True)
    return out


def _substream_trial(seed: int, k: int) -> tuple | None:
    """Trial k of the substream check: None, or the violation it found as
    (trial, delta, stream, substream, full_size, sub_size)."""
    rng = derive(seed, k)
    delta = 2 + rng.below(5)
    n = rng.below(11)
    stream = _random_stream(rng, delta, n)
    mode = rng.below(8)
    if mode == 0:
        sub = list(stream)
    elif mode == 1:
        sub = []
    else:
        sub = [iv for iv in stream if rng.bit()]
    full_size = len(run_restricted(delta, stream).output)
    sub_size = len(run_restricted(delta, sub).output)
    if sub_size <= full_size:
        return None
    lefts = tuple(str(iv.left) for iv in stream), tuple(str(iv.left) for iv in sub)
    return (k, delta, *lefts, full_size, sub_size)


def substream_monotonicity_test(trials: int, seed: int) -> MonotonicityReport:
    """Deleting intervals from a stream must never grow the output.

    Per trial: a random stream in an arbitrary (not necessarily uniform)
    order, a random order-preserving substream, one run of each, and a
    check that |OUT(substream)| <= |OUT(stream)|.  Reports the number of
    violations and the first five in trial order; a correct implementation
    finds none.
    """
    if trials < 1:
        raise ValueError("need at least one trial")
    found = sorted(v for v in map_trials(_substream_trial, (seed,), trials, 1) if v)
    keys = ("trial", "delta", "stream", "substream", "full_size", "sub_size")
    examples = tuple(dict(zip(keys, v)) for v in found[:5])
    return MonotonicityReport(trials=trials, violations=len(found), examples=examples)
