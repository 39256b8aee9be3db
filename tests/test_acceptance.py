"""Acceptance gate: one test per criterion, each printing a pass line with
the measured values and enforcing its runtime budget.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines on a green run.
"""

import subprocess
import sys
import time
from fractions import Fraction
from itertools import permutations

from intervalsel.gadget import random_gadget, simulate_protocol, verify, wing_after_probability
from intervalsel.geometry import format_intervals, max_independent_set
from intervalsel.harness import (
    InstanceSpec,
    exhaustive_expectation,
    monte_carlo,
    substream_monotonicity_test,
)
from intervalsel.recurrence import DELTA5_NOTE, build_out_table
from intervalsel.restricted import run_restricted
from intervalsel.rng import SplitMix64, derive
from intervalsel.windows import run_windowed

from brute import (
    brute_force_alpha,
    brute_force_independent,
    direct_out,
    random_intervals,
    u,
)

SEED = 20260810


class Stopwatch:
    def __init__(self, budget_seconds: float):
        self.budget = budget_seconds
        self.start = time.monotonic()

    @property
    def elapsed(self) -> float:
        return time.monotonic() - self.start

    def check(self):
        assert self.elapsed < self.budget, (
            f"runtime {self.elapsed:.1f}s exceeded budget {self.budget}s"
        )


def report(criterion: int, message: str):
    print(f"ACCEPTANCE C{criterion:02d} PASS - {message}")


def run_dp(argv):
    cmd = [sys.executable, "-m", "intervalsel", "dp", *argv]
    proc = subprocess.run(cmd, capture_output=True, text=True, check=True)
    lines = proc.stdout.strip().splitlines()
    rows = {}
    for line in lines[1:]:
        delta, restricted, overall, binding = line.split(",")
        rows[int(delta)] = (float(restricted), float(overall), int(binding))
    return rows, proc.stderr


def test_c01_dp_base_cases_exact():
    clock = Stopwatch(1.0)
    table = build_out_table(4)
    expected = [Fraction(0), Fraction(1), Fraction(2), Fraction(8, 3), Fraction(10, 3)]
    for x, want in enumerate(expected):
        assert table.bound(x) == want
        assert direct_out(x) == want  # independent direct-summation recomputation
    clock.check()
    report(1, f"out_lb(0..4) = {[str(v) for v in expected]} exact in {clock.elapsed:.2f}s")


def test_c02_overall_factor_at_delta_5000():
    clock = Stopwatch(60.0)
    rows, _ = run_dp(["--delta", "5000"])
    _, overall, _ = rows[5000]
    assert overall >= 0.7401
    clock.check()
    report(2, f"dp --delta 5000 overall_factor = {overall:.10f} >= 0.7401 in {clock.elapsed:.1f}s")


def test_c03_restricted_factor_at_delta_100000():
    clock = Stopwatch(600.0)
    rows, _ = run_dp(["--delta", "100000"])
    restricted, _, _ = rows[100000]
    assert 0.74017 <= restricted <= 0.74019
    clock.check()
    report(3, f"dp --delta 100000 restricted_factor = {restricted:.10f} in {clock.elapsed:.1f}s")


def test_c04_barrier_crossing_and_delta5_flag():
    clock = Stopwatch(5.0)
    rows, stderr = run_dp(["--sweep", "2..100"])
    for delta, (_, overall, _) in rows.items():
        if delta >= 6:
            assert overall > 2 / 3, f"delta={delta} overall={overall}"
    assert rows[5][1] == float(f"{2/3:.12g}")  # reported verbatim, exactly 2/3
    assert DELTA5_NOTE in stderr
    clock.check()
    report(4, f"overall > 2/3 for 6..100, overall(5) = {rows[5][1]} with flag, {clock.elapsed:.1f}s")


def test_c05_substream_monotonicity_thousand_pairs():
    clock = Stopwatch(30.0)
    result = substream_monotonicity_test(1000, SEED)
    assert result.trials == 1000
    assert result.violations == 0
    clock.check()
    report(5, f"1000 stream/substream pairs, 0 violations in {clock.elapsed:.1f}s")


def test_c06_exact_for_alpha_at_most_two():
    clock = Stopwatch(60.0)
    checked = 0
    orders = 0
    k = 0
    while checked < 200:
        rng = derive(SEED + 6, k)
        k += 1
        delta = 3 if rng.bit() else 4
        stream = random_intervals(rng, delta, 1 + rng.below(6))
        a = brute_force_alpha(stream)
        if not 1 <= a <= 2:
            continue
        checked += 1
        for order in permutations(stream):
            orders += 1
            got = run_restricted(delta, order)
            assert len(got.output) == a, (
                f"instance {[str(iv.left) for iv in order]} delta={delta}: "
                f"{len(got.output)} != alpha {a}"
            )
    clock.check()
    report(6, f"200 instances (alpha <= 2), {orders} orders, all exact in {clock.elapsed:.1f}s")


def test_c07_alpha_three_exhaustive_vs_monte_carlo(tmp_path):
    clock = Stopwatch(30.0)
    instance = [u(0), u("5/4"), u("5/2")]
    exact = exhaustive_expectation(instance, 4)
    assert exact >= Fraction(8, 3)

    path = tmp_path / "alpha3.txt"
    path.write_text(format_intervals(instance) + "\n")
    spec = InstanceSpec(kind="custom-file", delta=4, seed=SEED, path=str(path))
    summary = monte_carlo(spec, 10_000)
    spread = max(3 * summary.stderr, 1e-12)
    assert abs(summary.mean - float(exact)) <= spread
    clock.check()
    report(
        7,
        f"exact E = {exact} >= 8/3; Monte Carlo mean {summary.mean:.4f} "
        f"within 3 stderr ({summary.stderr:.5f}) in {clock.elapsed:.1f}s",
    )


def test_c08_output_validity_everywhere():
    # Library outputs are validated at construction (IndependentSet) and
    # against the oracle ceiling inside the harness; this battery re-checks
    # both properties with the test-local brute force across algorithms.
    clock = Stopwatch(60.0)
    rng = SplitMix64(SEED + 8)
    runs = 0
    for _ in range(150):
        delta = 2 + rng.below(4)
        stream = random_intervals(rng, delta, rng.below(8))
        ceiling = brute_force_alpha(stream)
        for output in (
            run_restricted(delta, stream).output,
            run_windowed(delta, stream),
        ):
            runs += 1
            assert brute_force_independent(list(output))
            assert len(output) <= ceiling
    clock.check()
    report(8, f"{runs} runs, every output independent and <= alpha, {clock.elapsed:.1f}s")


def test_c09_oracle_equals_subset_brute_force():
    clock = Stopwatch(60.0)
    for k in range(1000):
        rng = derive(SEED + 9, k)
        n = rng.below(13)
        stream = random_intervals(rng, 2 + rng.below(6), n)
        assert len(max_independent_set(stream)) == brute_force_alpha(stream)
    clock.check()
    report(9, f"greedy == subset brute force on 1000 instances (n <= 12), {clock.elapsed:.1f}s")


def test_c10_gadget_structure_battery():
    clock = Stopwatch(120.0)
    count = 0
    for t in range(3, 51):
        for j in range(100):
            g = random_gadget(t, derive(SEED + t, j))
            rep = verify(g)
            assert rep.alpha == 3 and rep.unique_triple
            count += 1
    clock.check()
    report(10, f"{count} gadgets over t in 3..50 verified in {clock.elapsed:.1f}s")


def test_c11_wing_after_probability():
    clock = Stopwatch(10.0)
    p = wing_after_probability(10, 100_000, seed=SEED)
    assert abs(p - 1 / 3) <= 0.01
    clock.check()
    report(11, f"target-first frequency {p:.5f} = 1/3 +/- 0.01 in {clock.elapsed:.1f}s")


def test_c12_protocol_oracle_baseline():
    clock = Stopwatch(60.0)
    stats = simulate_protocol(10, 10_000, "oracle", seed=SEED)
    assert abs(stats.success_rate - 2 / 3) <= 0.02
    assert stats.approx_factor == 1.0
    clock.check()
    report(
        12,
        f"oracle baseline success {stats.success_rate:.4f} = 2/3 +/- 0.02, "
        f"factor {stats.approx_factor} in {clock.elapsed:.1f}s",
    )
