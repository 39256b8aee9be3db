from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from intervalsel import restricted
from intervalsel.gadget import build, simulate_protocol
from intervalsel.geometry import (
    IndependentSet,
    ScalarOverflowError,
    UnitInterval,
    alpha,
)
from intervalsel.harness import InstanceSpec, monte_carlo
from intervalsel.restricted import (
    GridBudgetError,
    InstanceState,
    run_restricted,
    wrapper_domain,
)
from intervalsel.rng import SplitMix64, fisher_yates
from intervalsel.windows import WindowMap, run_windowed, windows_containing

from brute import brute_force_alpha, brute_force_independent, random_intervals, u


class TestWindowsContaining:
    def test_examples(self):
        assert list(windows_containing(u("1/2"), 2)) == [0]
        assert list(windows_containing(u(0), 3)) == [-1, 0]
        assert len(windows_containing(u("22/7"), 5)) == 4

    def test_delta_must_be_at_least_two(self):
        with pytest.raises(ValueError):
            windows_containing(u(0), 1)

    @given(
        left=st.fractions(
            min_value=Fraction(-50), max_value=Fraction(50), max_denominator=64
        ),
        delta=st.integers(min_value=2, max_value=9),
    )
    def test_matches_direct_enumeration(self, left, delta):
        iv = u(left)
        expected = [
            i for i in range(-60, 61) if i <= left and left + 1 < i + delta
        ]
        got = list(windows_containing(iv, delta))
        assert got == expected
        assert len(got) == delta - 1


class TestWindowMap:
    def test_first_feed_activates_delta_minus_one(self):
        wm = WindowMap(3)
        wm.feed(u("1/2"))
        assert wm.active_count == 2

    def test_refeeding_is_idempotent_on_activation(self):
        wm = WindowMap(3)
        wm.feed(u("1/2"))
        wm.feed(u("1/2"))
        assert wm.active_count == 2

    def test_distant_intervals_use_disjoint_windows(self):
        wm = WindowMap(3)
        wm.feed(u(0))
        wm.feed(u(100))
        assert wm.active_count == 4
        assert wm.active_origins == [-1, 0, 99, 100]

    def test_empty_merge(self):
        assert len(WindowMap(4).merge_output()) == 0

    def test_single_interval_anywhere(self):
        wm = WindowMap(4)
        wm.feed(u("-1234/7"))
        assert len(wm.merge_output()) == 1

    def test_windows_share_one_grid_budget(self, monkeypatch):
        # [1/2, 3/2) lies in the windows at origins -1 and 0 of delta 3; a
        # single interval creates no conditional generator, so each window
        # holds only its 6 x 6 root grid.
        monkeypatch.setattr(restricted, "MAX_GRID_CELLS", 50)
        for origin in (-1, 0):
            alone = InstanceState(wrapper_domain(3))
            alone.feed(u("1/2").translate(-origin))
            assert alone._cells == [36]
        with pytest.raises(GridBudgetError):
            WindowMap(3).feed(u("1/2"))

    def test_space_accounting_against_alpha(self):
        rng = SplitMix64(31337)
        for _ in range(40):
            delta = 2 + rng.below(4)
            stream = random_intervals(rng, delta + 3, rng.below(8))
            wm = WindowMap(delta)
            for iv in stream:
                wm.feed(iv)
            if stream:
                assert wm.active_count <= 3 * delta * brute_force_alpha(stream)

    def test_merge_is_independent_and_below_alpha(self):
        rng = SplitMix64(808)
        for _ in range(40):
            delta = 2 + rng.below(4)
            stream = random_intervals(rng, delta + 2, rng.below(8))
            merged = run_windowed(delta, stream)
            assert brute_force_independent(list(merged))
            assert len(merged) <= brute_force_alpha(stream)

    def test_covers_aligned_restricted_run(self):
        # Inputs confined to [0, delta) activate the origin-0 window, whose
        # instance sees the whole stream; the merge can only improve on it.
        rng = SplitMix64(606)
        for _ in range(25):
            delta = 3 + rng.below(3)
            stream = random_intervals(rng, delta, 1 + rng.below(6))
            merged = run_windowed(delta, stream)
            single = run_restricted(delta, stream)
            assert len(merged) >= len(single.output)

    def test_disjoint_instance_in_one_window_recovers_alpha(self):
        instance = [u(0), u("3/2"), u(3)]
        assert alpha(instance) == 3
        assert len(run_windowed(5, instance)) == 3

    def test_determinism(self):
        rng = SplitMix64(17)
        stream = fisher_yates(random_intervals(rng, 6, 7), rng)
        assert run_windowed(4, stream) == run_windowed(4, stream)


class TestCoordinates:
    """Windows answer in the coordinates they were fed."""

    def test_windowed_runs_move_no_coordinate(self, monkeypatch):
        rng = SplitMix64(4242)
        stream = random_intervals(rng, 9, 14)
        spec = InstanceSpec(kind="independent", delta=5, seed=7, alpha=3)

        def runs():
            return (
                run_windowed(4, stream),
                monte_carlo(spec, 4, algorithm="windowed"),
                simulate_protocol(6, 4, "windowed:5", 7),
            )

        expected = runs()

        def moved(self, k):
            raise AssertionError(f"{self} translated by {k}")

        monkeypatch.setattr(UnitInterval, "translate", moved)
        assert runs() == expected

    def test_window_view_is_each_report_moved_by_minus_origin(self):
        rng = SplitMix64(99)
        for _ in range(12):
            delta = 2 + rng.below(4)
            stream = random_intervals(rng, delta + 4, rng.below(9))
            wm = WindowMap(delta)
            for iv in stream:
                wm.feed(iv)
            reports, views = wm.reports(), wm.window_reports()
            assert [o for o, _ in views] == [o for o, _ in reports] == wm.active_origins
            for (origin, report), (_, view) in zip(reports, views):
                assert view == report._replace(
                    output=IndependentSet(iv.translate(-origin) for iv in report.output),
                    winning_split_point=report.winning_split_point - origin,
                )
                # as if the instance ran on [-1, delta + 1) on moved intervals
                alone = InstanceState(wrapper_domain(delta))
                for iv in stream:
                    if origin in windows_containing(iv, delta):
                        alone.feed(iv.translate(-origin))
                assert alone.output() == view

    def test_wide_gadget_triple_is_found(self):
        # The right wing at index t - 1, moved into its lowest window of
        # width 6 (origin -3), would leave the 64-bit range; windows fed it
        # as it is find the unique triple.
        t = 36_854
        g = build(t, t - 1, [0] * t, [0] * t, list(range(t + 2)))
        triple = [g.wing_left, g.clique[t - 1], g.wing_right]
        with pytest.raises(ScalarOverflowError):
            g.wing_right.translate(3)
        assert run_windowed(6, triple) == IndependentSet(triple)
