from decimal import Decimal
from fractions import Fraction
from itertools import permutations

import numpy as np
import pytest

from intervalsel import recurrence
from intervalsel.cli import _fmt
from intervalsel.geometry import alpha
from intervalsel.harness import exhaustive_expectation
from intervalsel.recurrence import (
    DEFAULT_EXACT_UNTIL,
    DELTA5_NOTE,
    build_out_table,
    out_lb,
    sweep,
)
from intervalsel.restricted import run_restricted

from brute import decimal_lane, direct_out, reference_float_lane, reference_min_ratio, u


class TestOutTable:
    def test_base_cases_and_small_values(self):
        t = build_out_table(6)
        assert t.bound(0) == 0
        assert t.bound(1) == 1
        assert t.bound(2) == 2
        assert t.bound(3) == Fraction(8, 3)
        assert t.bound(4) == Fraction(10, 3)
        assert t.bound(5) == Fraction(62, 15)
        assert t.bound(6) == Fraction(74, 15)

    def test_negative_is_zero_and_range_checked(self):
        t = build_out_table(3)
        assert t.bound(-4) == 0
        with pytest.raises(IndexError):
            t.bound(4)

    def test_matches_direct_summation(self):
        # the whole exact lane, summed in scaled integers one mirrored pair
        # at a time, against the defining sum of Fractions
        t = build_out_table(DEFAULT_EXACT_UNTIL)
        for x in range(DEFAULT_EXACT_UNTIL + 1):
            assert t.bound(x) == direct_out(x), x

    def test_out_lb_reads_like_the_table(self):
        # exact lane alone up to x = 64, the table's float beyond
        for x in range(81):
            expected = build_out_table(max(x, 2)).bound(x)
            got = out_lb(x)
            assert got == expected, x
            assert type(got) is type(expected), x

    def test_exact_and_float_lanes_agree(self):
        t = build_out_table(200)
        assert t.exact_limit == DEFAULT_EXACT_UNTIL == 64
        assert t.max_rel_disagreement <= 1e-9
        for x in (10, 40, 64):
            assert abs(float(t.exact[x]) - float(t.approx[x])) <= 1e-9 * x

    def test_monotone_and_below_identity(self):
        t = build_out_table(120)
        prev = Fraction(0)
        for x in range(121):
            v = t.bound(x)
            assert v >= prev
            assert v <= x
            prev = v

    def test_ratio_trend_is_observed_not_assumed(self):
        # values[x]/x looks non-increasing beyond x=2; the table records any
        # violation instead of asserting the trend as a theorem.  Check the
        # recorded list against a direct scan.
        t = build_out_table(300)
        direct = [
            x
            for x in range(3, 300)
            if float(t.bound(x + 1)) / (x + 1) > float(t.bound(x)) / x + 1e-12
        ]
        assert direct == []
        assert t.ratio_violations == ()


class TestFloatLane:
    # The half-length lane rounds differently from the direct one, so values
    # agree to a tolerance set from float64 precision, not bit for bit; the
    # printed 12-digit output must still be identical.

    def test_small_tables_match_reference_lane(self):
        for x_max in range(8):
            lane = recurrence._float_lane(x_max)
            np.testing.assert_allclose(lane, reference_float_lane(x_max), rtol=1e-15)

    def test_matches_fifty_digit_decimal_lane(self):
        approx = build_out_table(1200).approx
        for x, exact in enumerate(decimal_lane(1200)):
            assert abs(Decimal(float(approx[x])) - exact) <= Decimal("1e-15") * exact, x

    def test_sweep_prints_the_same_as_reference_lane(self, monkeypatch):
        def printed(curve):
            rows = [
                (row.delta, _fmt(row.restricted), _fmt(row.overall), row.binding_alpha)
                for row in curve.rows
            ]
            return rows, curve.notes

        ours = printed(sweep(2, 3000))
        monkeypatch.setattr(recurrence, "_float_lane", reference_float_lane)
        assert printed(sweep(2, 3000)) == ours


def factor_row(delta, table):
    """The sweep row of one window width, as `dp --delta` prints it."""
    (row,) = sweep(delta, delta, table).rows
    return row


class TestFactors:
    def test_restricted_examples(self):
        t = build_out_table(8)
        assert factor_row(2, t).restricted == 1
        assert factor_row(4, t).restricted == Fraction(8, 9)
        assert factor_row(5, t).restricted == Fraction(5, 6)
        assert factor_row(4, t).binding_alpha == 3

    def test_overall_examples(self):
        t = build_out_table(8)
        assert factor_row(2, t).overall == Fraction(1, 2)
        assert factor_row(5, t).overall == Fraction(2, 3)
        assert factor_row(6, t).overall == Fraction(31, 45)

    def test_bad_delta(self):
        t = build_out_table(8)
        with pytest.raises(ValueError):
            factor_row(1, t)
        with pytest.raises(ValueError):
            factor_row(100, t)

    def test_float_lane_used_beyond_exact_limit(self):
        # delta 300 reads out_lb(299), past the exact lane's last x = 64
        value = factor_row(300, build_out_table(299)).restricted
        assert isinstance(value, float)
        exact = recurrence._exact_lane(299)
        best = min(exact[a] / a for a in range(1, 300))
        assert abs(value - float(best)) < 1e-9


class TestSweepMatchesReference:
    # sweep's running minimum is the only min-ratio pass in the library.  The
    # reference takes the minimum directly for each delta, in whichever lane
    # covers delta - 1; the range crosses the switch at x = 64.

    def test_every_row_matches_direct_minimum(self):
        table = build_out_table(2999)
        for row in sweep(2, 3000, table).rows:
            delta = row.delta
            best, best_alpha = reference_min_ratio(delta, table)
            assert row.restricted == best, delta
            assert type(row.restricted) is type(best), delta
            assert row.binding_alpha == best_alpha, delta
            if isinstance(best, Fraction):
                overall = Fraction(delta - 1, delta) * best
            else:
                overall = (delta - 1) / delta * best
            assert row.overall == overall, delta
            assert type(row.overall) is type(overall), delta


class TestSweep:
    def test_rows_and_reference_lines(self):
        curve = sweep(2, 20)
        assert [row.delta for row in curve.rows] == list(range(2, 21))
        assert curve.barrier_adversarial == Fraction(2, 3)
        assert curve.barrier_space == Fraction(8, 9)

    def test_delta5_note_present_when_covered(self):
        assert DELTA5_NOTE in sweep(2, 10).notes
        assert sweep(6, 10).notes == ()

    def test_overall_monotone_over_observed_range(self):
        curve = sweep(2, 150)
        assert curve.overall_monotone
        assert curve.monotone_violations == ()

    def test_restricted_dominates_overall(self):
        for row in sweep(2, 60).rows:
            assert row.overall <= row.restricted

    def test_range_validation(self):
        with pytest.raises(ValueError):
            sweep(1, 5)
        with pytest.raises(ValueError):
            sweep(9, 5)

    def test_reuses_supplied_table(self):
        t = build_out_table(99)
        curve = sweep(2, 100, table=t)
        assert curve.rows[-1].delta == 100
        with pytest.raises(ValueError):
            sweep(2, 200, table=t)


class TestCrossValidation:
    # Exhaustive expected output of the streamed algorithm on concrete
    # well-separated instances must dominate the certified table values.
    # Packing alpha intervals into [0, alpha+1) is so tight that one optimal
    # interval necessarily starts inside the first unit of some recursive
    # subdomain; from alpha = 5 that unbuffered start costs the bound, so
    # the alpha = 5 checks run with one extra unit of room, on placements
    # that use it.

    @pytest.mark.parametrize(
        "lefts,delta",
        [
            (("0",), 2),
            (("0", "3/2"), 3),
            (("0", "5/4", "5/2"), 4),
            (("0", "7/6", "7/3", "7/2"), 5),
            (("0", "13/10", "13/5", "21/5", "28/5"), 7),
            (("1/16", "49/32", "3", "143/32", "95/16"), 7),
        ],
    )
    def test_exhaustive_mean_meets_table(self, lefts, delta):
        instance = [u(x) for x in lefts]
        a = len(instance)
        assert alpha(instance) == a
        total = 0
        count = 0
        for order in permutations(instance):
            total += len(run_restricted(delta, order).output)
            count += 1
        table = build_out_table(a)
        assert Fraction(total, count) >= table.bound(a)

    @pytest.mark.parametrize("a", [2, 3, 4, 5])
    def test_tightest_packing_mean_is_two_thirds_of_delta(self, a):
        # At delta = alpha + 1 the floors are 0, ..., alpha - 1 whatever the
        # placement, and the mean over all orders is 2(alpha + 1)/3 (2, 8/3,
        # 10/3, 4).  At alpha = 5 that is below the certified value 62/15,
        # which is thus provably not reachable; the honest value is pinned.
        instance = [u(Fraction(9 * j, 8)) for j in range(a)]
        assert alpha(instance) == a
        orders = list(permutations(instance))
        total = sum(len(run_restricted(a + 1, order).output) for order in orders)
        assert Fraction(total, len(orders)) == Fraction(2 * (a + 1), 3)

    def test_placement_not_room_decides_alpha_five(self):
        # The even spread over [0, 6), run with two units of room, still
        # gives exactly 4; spread over [0, 7) instead (above), the same
        # five intervals at delta 7 give 53/12 and meet the table.
        instance = [u(x) for x in ("1/16", "41/32", "5/2", "119/32", "79/16")]
        assert alpha(instance) == 5
        total = sum(
            len(run_restricted(7, order).output) for order in permutations(instance)
        )
        assert Fraction(total, 120) == 4

    @pytest.mark.parametrize(
        "floors, mean",
        [
            ((0, 1, 2, 3, 4), Fraction(4)),
            ((0, 1, 2, 3, 5), Fraction(13, 3)),
            ((0, 1, 2, 4, 5), Fraction(53, 12)),
            ((0, 1, 3, 4, 5), Fraction(53, 12)),
            ((0, 2, 3, 4, 5), Fraction(13, 3)),
            ((1, 2, 3, 4, 5), Fraction(4)),
        ],
    )
    def test_alpha_five_gap_words_at_delta_seven(self, floors, mean):
        # A split point separates neighbouring optimal intervals iff their
        # floors differ by at least 2, so on an independent instance the
        # run depends on the gap word of the floors.  Of the six 5-subsets
        # of {0, ..., 5}, only the two consecutive ones, with no free split
        # point, fall below out_lb(5) = 62/15; one free gap anywhere meets it.
        instance = [u(f + Fraction(j + 1, 7)) for j, f in enumerate(floors)]
        assert alpha(instance) == 5
        assert exhaustive_expectation(instance, 7) == mean
        consecutive = floors == tuple(range(floors[0], floors[0] + 5))
        assert (mean < out_lb(5)) == consecutive
        assert out_lb(5) == Fraction(62, 15)
