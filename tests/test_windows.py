from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from intervalsel import restricted
from intervalsel.geometry import alpha
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
