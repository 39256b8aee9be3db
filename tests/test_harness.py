import concurrent.futures
import gc
import multiprocessing
import os
from fractions import Fraction

import pytest

from intervalsel import gadget as gadget_mod, harness, restricted
from intervalsel.geometry import ScalarOverflowError, alpha, max_independent_set
from intervalsel.harness import (
    MAX_GADGET_T,
    InstanceSpec,
    exhaustive_expectation,
    gen_clique,
    gen_independent,
    instance_from_spec,
    monte_carlo,
    substream_monotonicity_test,
)
from intervalsel.restricted import GridBudgetError
from intervalsel.rng import (
    SplitMix64,
    cpu_count,
    derive,
    fisher_yates,
    map_trials,
    mix64,
)

from brute import random_intervals, u

SEED = 20260810


class InProcessPool:
    """A process-pool stand-in that maps in this process and records the
    worker counts it was asked for."""

    workers: list[int] = []

    def __init__(self, max_workers, initializer=None):
        self.workers.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, *columns):
        return map(fn, *columns)


class TestRng:
    def test_derive_is_pure(self):
        a = derive(SEED, 3)
        b = derive(SEED, 3)
        assert [a.next_u64() for _ in range(4)] == [b.next_u64() for _ in range(4)]
        assert derive(SEED, 3).next_u64() != derive(SEED, 4).next_u64()

    def test_cpu_count_reads_the_affinity_set(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 3}, raising=False)
        assert cpu_count() == 2
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert cpu_count() == 1

    def test_below_bounds(self):
        rng = SplitMix64(1)
        values = [rng.below(7) for _ in range(2000)]
        assert min(values) == 0 and max(values) == 6

    def test_mix64_is_stable(self):
        # Pinned so any change to the generator is loud.
        assert mix64(0x123456789ABCDEF) == 0xB2C058E4EBB5112C


def _collector_enabled(k: int) -> bool:
    return gc.isenabled()


class TestMapTrials:
    @pytest.mark.parametrize("method", multiprocessing.get_all_start_methods())
    def test_workers_take_the_parents_collector_state(self, method, monkeypatch):
        # A fork inherits the collector state; spawn and forkserver (the
        # Linux default from Python 3.14) start a fresh interpreter.
        pool = concurrent.futures.ProcessPoolExecutor

        def pool_of_method(**kwargs):
            return pool(mp_context=multiprocessing.get_context(method), **kwargs)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", pool_of_method)
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            outcomes = map_trials(_collector_enabled, (), 6, threads=2)
        finally:
            if was_enabled:
                gc.enable()
        assert outcomes == {False: 6}


class TestShuffle:
    def test_empty(self):
        assert fisher_yates([], SplitMix64(SEED)) == []

    def test_fixed_seed_replays(self):
        items = [u(i * 2) for i in range(6)]
        order = fisher_yates(items, SplitMix64(42))
        assert order == fisher_yates(items, SplitMix64(42))
        assert order != fisher_yates(items, SplitMix64(43))

    def test_uniform_over_six_orders(self):
        items = ["a", "b", "c"]
        counts: dict[tuple, int] = {}
        rng = SplitMix64(SEED)
        trials = 100_000
        for _ in range(trials):
            order = tuple(fisher_yates(items, rng))
            counts[order] = counts.get(order, 0) + 1
        assert len(counts) == 6
        for count in counts.values():
            assert abs(count / trials - 1 / 6) <= 0.01


class TestGenerators:
    def test_single_interval(self):
        got = gen_independent(1, 4, SEED)
        assert len(got) == 1
        assert alpha(got) == 1

    def test_max_packing_is_feasible(self):
        got = gen_independent(5, 6, SEED)
        assert alpha(got) == 5

    def test_alpha_out_of_range(self):
        with pytest.raises(ValueError):
            gen_independent(6, 6, SEED)
        with pytest.raises(ValueError):
            gen_independent(0, 6, SEED)

    def test_non_integral_by_default(self):
        for k in range(20):
            for iv in gen_independent(3, 5, SEED + k):
                assert iv.left.den > 1

    def test_aligned_mode(self):
        got = gen_independent(3, 7, SEED, aligned=True)
        assert all(iv.left.den == 1 for iv in got)
        assert alpha(got) == 3
        with pytest.raises(ValueError):
            gen_independent(4, 6, SEED, aligned=True)

    def test_requested_alpha_is_achieved(self):
        for k in range(30):
            rng = derive(SEED, k)
            delta = 3 + rng.below(5)
            a = 1 + rng.below(delta - 1)
            got = gen_independent(a, delta, SEED + k)
            assert alpha(got) == a

    def test_clique(self):
        got = gen_clique(9)
        assert alpha(got) == 1

    def test_instance_from_spec_gadget_fits(self):
        spec = InstanceSpec(kind="gadget", delta=5, seed=SEED, t=6)
        stream = instance_from_spec(spec)
        assert len(stream) == 8
        assert alpha(stream) == 3

    def test_gadget_shift_bound_is_tight(self, monkeypatch):
        # index t - 1 with every bit set puts the largest coordinate, J_R,
        # furthest right; the shifted construction fits at the bound
        t = MAX_GADGET_T
        g = gadget_mod.build(t, t - 1, [1] * t, [1] * t, list(range(t + 2)))
        shifted = [iv.translate(2).left for iv in g.stream]
        assert max(shifted) == g.wing_right.translate(2).left
        t += 1
        g = gadget_mod.build(t, t - 1, [1] * t, [1] * t, list(range(t + 2)))
        with pytest.raises(ScalarOverflowError):
            g.wing_right.translate(2)
        monkeypatch.setattr(gadget_mod, "random_gadget", lambda *_: pytest.fail("drawn"))
        with pytest.raises(ValueError, match="64-bit"):
            instance_from_spec(InstanceSpec(kind="gadget", delta=5, seed=SEED, t=t))

    def test_narrow_gadget_delta_is_refused_before_drawing(self, monkeypatch):
        monkeypatch.setattr(gadget_mod, "random_gadget", lambda *_: pytest.fail("drawn"))
        with pytest.raises(ValueError, match="delta >= 5"):
            instance_from_spec(InstanceSpec(kind="gadget", delta=4, seed=SEED, t=5))


class TestExhaustive:
    def test_trivial(self):
        assert exhaustive_expectation([], 4) == 0
        assert exhaustive_expectation([u("1/2")], 4) == 1

    def test_alpha_two_is_exact(self):
        assert exhaustive_expectation([u(0), u("3/2")], 3) == 2

    def test_alpha_three_meets_bound(self):
        value = exhaustive_expectation([u(0), u("5/4"), u("5/2")], 4)
        assert value >= Fraction(8, 3)

    def test_size_cap(self):
        with pytest.raises(ValueError):
            exhaustive_expectation([u(2 * i) for i in range(9)], 20)


class TestMonteCarlo:
    def test_alpha_two_mean_is_exactly_two(self):
        spec = InstanceSpec(kind="independent", delta=5, seed=SEED, alpha=2)
        summary = monte_carlo(spec, 400)
        assert summary.mean == 2.0
        assert summary.alpha == 2
        assert summary.meets_prediction

    def test_clique_mean_is_exactly_one(self):
        spec = InstanceSpec(kind="clique", delta=5, seed=SEED, size=7)
        summary = monte_carlo(spec, 400)
        assert summary.mean == 1.0
        assert summary.alpha == 1

    def test_alpha_three_against_exhaustive(self):
        spec = InstanceSpec(kind="independent", delta=4, seed=SEED, alpha=3)
        instance = instance_from_spec(spec)
        exact = exhaustive_expectation(instance, 4)
        summary = monte_carlo(spec, 4000)
        spread = max(3 * summary.stderr, 1e-9)
        assert abs(summary.mean - float(exact)) <= spread
        assert summary.meets_prediction

    def test_windowed_agrees_on_alpha_two(self):
        spec = InstanceSpec(kind="independent", delta=4, seed=SEED, alpha=2)
        summary = monte_carlo(spec, 300, algorithm="windowed")
        assert summary.mean == 2.0

    def test_summary_invariants(self):
        spec = InstanceSpec(kind="independent", delta=5, seed=SEED, alpha=3)
        s = monte_carlo(spec, 500)
        assert s.min <= s.mean <= s.max <= s.alpha
        assert s.trials == 500

    def test_gadget_kind_runs_restricted(self):
        spec = InstanceSpec(kind="gadget", delta=5, seed=SEED, t=5)
        summary = monte_carlo(spec, 150)
        assert summary.alpha == 3
        assert summary.max <= 3
        assert summary.min >= 1

    def test_parallel_matches_serial(self):
        # 3 trials take the serial fallback; 4 and 5 are the smallest pool
        # runs, with trial 0 in this process; 201 split into uneven blocks.
        spec = InstanceSpec(kind="independent", delta=4, seed=SEED, alpha=3)
        for trials in (3, 4, 5, 201):
            serial = monte_carlo(spec, trials, threads=1)
            parallel = monte_carlo(spec, trials, threads=4)
            assert serial == parallel

    def test_pool_is_capped_at_the_cpu_count(self, monkeypatch):
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InProcessPool)
        InProcessPool.workers.clear()
        spec = InstanceSpec(kind="independent", delta=4, seed=SEED, alpha=3)
        huge = monte_carlo(spec, 40, threads=1 << 40)
        workers = InProcessPool.workers
        assert workers and workers[0] <= (os.cpu_count() or 1)
        assert huge == monte_carlo(spec, 40, threads=1)

    def test_pool_is_capped_at_the_affinity_set(self, monkeypatch):
        # a process pinned to one CPU (taskset, a cpuset) starts no pool:
        # one worker would only add its start-up and the pickling
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InProcessPool)
        InProcessPool.workers.clear()
        spec = InstanceSpec(kind="independent", delta=4, seed=SEED, alpha=3)
        assert monte_carlo(spec, 40, threads=4) == monte_carlo(spec, 40, threads=1)
        assert InProcessPool.workers == []

    def test_instance_is_built_once_per_run(self, tmp_path, monkeypatch):
        # Blocks get the parsed intervals, so a custom file is read once and
        # every block of a parallel run sees the same instance.
        path = tmp_path / "instance.txt"
        path.write_text("1/3\n7/4\n3\n")
        spec = InstanceSpec(kind="custom-file", delta=5, seed=SEED, path=str(path))
        serial = monte_carlo(spec, 40, threads=1)
        assert monte_carlo(spec, 40, threads=2) == serial
        built = []

        def counted(spec):
            built.append(spec)
            return instance_from_spec(spec)

        monkeypatch.setattr(harness, "instance_from_spec", counted)
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InProcessPool)
        for threads in (1, 2):
            built.clear()
            assert monte_carlo(spec, 40, threads=threads) == serial
            assert len(built) == 1

    def test_needs_a_trial(self):
        spec = InstanceSpec(kind="independent", delta=4, seed=SEED, alpha=2)
        with pytest.raises(ValueError):
            monte_carlo(spec, 0)

    def test_budget_is_checked_before_the_pool_starts(self, monkeypatch):
        # one delta-100000 root grid holds about 1e10 cells, past the budget
        def no_pool(*args, **kwargs):
            raise AssertionError("a process pool started before the budget check")

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
        spec = InstanceSpec(kind="independent", delta=100_000, seed=SEED, alpha=2)
        for algorithm in ("restricted", "windowed"):
            with pytest.raises(GridBudgetError):
                monte_carlo(spec, 8, algorithm=algorithm, threads=2)
        with pytest.raises(GridBudgetError):
            gadget_mod.simulate_protocol(4, 8, "windowed:100000", SEED, threads=2)

    def test_later_grid_is_refused_before_the_pool_starts(self, monkeypatch):
        # A delta-9 root grid holds 144 cells and fits; trial 0's later grids
        # (a conditional child, a second window) go over, in this process.
        def no_pool(*args, **kwargs):
            raise AssertionError("a process pool started before trial 0 ran")

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
        monkeypatch.setattr(restricted, "MAX_GRID_CELLS", 150)
        spec = InstanceSpec(kind="independent", delta=9, seed=1, alpha=3)
        for algorithm in ("restricted", "windowed"):
            with pytest.raises(GridBudgetError):
                monte_carlo(spec, 8, algorithm=algorithm, threads=2)


class TestSubstreamMonotonicity:
    def test_no_violations(self):
        report = substream_monotonicity_test(200, SEED)
        assert report.trials == 200
        assert report.violations == 0

    def test_identity_and_empty_substreams(self):
        # mode selection inside the driver covers S' = S and S' = empty;
        # spot-check both directly as well.
        from intervalsel.restricted import run_restricted

        rng = SplitMix64(SEED)
        stream = random_intervals(rng, 5, 6)
        full = len(run_restricted(5, stream).output)
        assert len(run_restricted(5, list(stream)).output) == full
        assert len(run_restricted(5, []).output) == 0 <= full


class TestOptimalCoreDomination:
    def test_mixed_instance_dominates_its_core(self):
        # Expected output on the full instance is at least the expected
        # output on its optimal core alone, order for order in distribution.
        rng = SplitMix64(4242)
        cases = 0
        while cases < 5:
            delta = 3 + rng.below(2)
            n = 4 + rng.below(3)  # up to 6; one larger case below
            stream = random_intervals(rng, delta, n)
            core = list(max_independent_set(stream))
            if not 2 <= len(core) < len(stream):
                continue
            cases += 1
            full = exhaustive_expectation(stream, delta)
            core_only = exhaustive_expectation(core, delta)
            assert full >= core_only

    def test_one_seven_interval_case(self):
        stream = [u(0), u("1/4"), u("3/2"), u("8/5"), u(3), u("13/4"), u("7/2")]
        core = list(max_independent_set(stream))
        assert 2 <= len(core) < 7
        assert exhaustive_expectation(stream, 5) >= exhaustive_expectation(core, 5)
