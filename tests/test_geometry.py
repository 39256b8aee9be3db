import operator
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from intervalsel.geometry import (
    I64_MAX,
    I64_MIN,
    Domain,
    IndependentSet,
    ParseError,
    Scalar,
    ScalarOverflowError,
    UnitInterval,
    alpha,
    contained_in,
    format_intervals,
    intersects,
    max_independent_set,
    parse_intervals,
)
from intervalsel.rng import SplitMix64

from brute import brute_force_alpha, random_intervals, u


small_rational = st.fractions(
    min_value=Fraction(-1000), max_value=Fraction(1000), max_denominator=1 << 16
)
near_64_bit_edges = st.integers(I64_MIN, I64_MIN + 3) | st.integers(I64_MAX - 3, I64_MAX)


class TestScalar:
    def test_reduction_and_sign(self):
        assert Scalar(2, 4) == Scalar(1, 2)
        assert Scalar(3, -6) == Scalar(-1, 2)
        assert str(Scalar(-4, 2)) == "-2"

    def test_zero_denominator(self):
        with pytest.raises(ZeroDivisionError):
            Scalar(1, 0)

    def test_parse(self):
        assert Scalar.parse("0.25") == Scalar(1, 4)
        assert Scalar.parse("1/4") == Scalar(1, 4)
        assert Scalar.parse("-3") == Scalar(-3)
        assert Scalar.parse("2.5") == Scalar(5, 2)
        with pytest.raises(ParseError):
            Scalar.parse("nope")

    def test_text_bounds_are_checked_before_fraction(self):
        # inside both bounds the text is read exactly, zeros and all
        assert Scalar.parse("0.25" + "0" * 990) == Scalar(1, 4)
        assert Scalar.parse("25e-2") == Scalar(1, 4)
        assert Scalar.parse("0e1000") == Scalar(0)
        for text in ("1e1001", "1E-1001", "1e1_000_000_0", "0e1001", "1" * 1001):
            with pytest.raises(ParseError):
                Scalar.parse(text)
        with pytest.raises(ScalarOverflowError, match="64-bit range"):
            Scalar.parse("1e1000")

    def test_overflow_is_an_error(self):
        with pytest.raises(ScalarOverflowError):
            Scalar(1 << 63, 1)

    def test_floor(self):
        assert Scalar(7, 2).floor() == 3
        assert Scalar(-1, 2).floor() == -1
        assert Scalar(4).floor() == 4

    @given(x=small_rational, y=small_rational)
    def test_ordering_matches_fractions(self, x, y):
        sx, sy = Scalar(x.numerator, x.denominator), Scalar(y.numerator, y.denominator)
        assert (sx < sy) == (x < y)
        assert (sx > sy) == (x > y)
        assert (sx == sy) == (x == y)

    @pytest.mark.parametrize("other", [1, Fraction(1, 2), "1/2", 0.5])
    def test_operands_are_scalars_only(self, other):
        half = Scalar(1, 2)
        assert half != other
        for op in (operator.lt, operator.gt, operator.add, operator.sub):
            with pytest.raises(TypeError):
                op(half, other)
            with pytest.raises(TypeError):
                op(other, half)

    @given(
        num=st.integers(I64_MIN, I64_MAX) | near_64_bit_edges,
        den=st.just(1) | st.integers(1, I64_MAX),
        k=st.integers(-(1 << 64), 1 << 64),
    )
    def test_integer_shift_matches_fractions(self, num, den, k):
        iv = UnitInterval(Scalar(num, den))
        x = Fraction(num, den)
        for shift, want in ((lambda: iv.translate(k).left, x + k), (lambda: iv.right, x + 1)):
            if I64_MIN <= want.numerator <= I64_MAX:
                got = shift()
                assert Fraction(got.num, got.den) == want
            else:
                with pytest.raises(ScalarOverflowError):
                    shift()
        assert iv.translate(0) == iv


class TestPredicates:
    def test_intersects_examples(self):
        assert intersects(u(0), u(1))  # shared endpoint of closed intervals
        assert not intersects(u(0), u("3/2"))
        assert intersects(u(0), u(0))

    def test_contained_in_examples(self):
        assert contained_in(u("3/10"), Domain(0, 2))
        assert not contained_in(u(0), Domain(0, 1))  # no unit interval fits
        assert not contained_in(u(1), Domain(0, 2))  # right boundary open

    @given(x=small_rational, y=small_rational)
    def test_intersects_symmetric(self, x, y):
        a, b = u(x), u(y)
        assert intersects(a, b) == intersects(b, a)

    @given(x=small_rational, y=small_rational)
    def test_intersection_is_left_distance(self, x, y):
        a, b = u(x), u(y)
        assert intersects(a, b) == (abs(x - y) <= 1)


class TestDomain:
    def test_empty_domain_rejected(self):
        with pytest.raises(ValueError):
            Domain(0, 0)
        with pytest.raises(ValueError):
            Domain(3, 1)


class TestIndependentSet:
    def test_sorted_canonical(self):
        s = IndependentSet([u(4), u(0), u(2)])
        assert [str(iv.left) for iv in s] == ["0", "2", "4"]

    def test_rejects_conflict(self):
        with pytest.raises(ValueError):
            IndependentSet([u(0), u("1/2")])
        with pytest.raises(ValueError):
            IndependentSet([u(0), u(1)])  # touching endpoints conflict


class TestOracle:
    def test_trivial_cases(self):
        assert len(max_independent_set([])) == 0
        assert alpha([u(0), u("1/2"), u(2)]) == 2

    def test_deterministic_choice(self):
        chosen = max_independent_set([u("1/2"), u(0), u(2)])
        assert [str(iv.left) for iv in chosen] == ["0", "2"]

    def test_first_of_equal_intervals_is_kept(self):
        first, second = u("1/3"), u("1/3")
        chosen = max_independent_set([u(2), first, second])
        assert len(chosen) == 2
        assert chosen.intervals[0] is first

    def test_gadget_instance_has_alpha_three(self):
        from intervalsel.gadget import build

        g = build(4, 2, [1, 0, 1, 0], [0, 1, 0, 1], [0, 1, 2, 3, 4, 5])
        assert alpha(list(g.clique) + [g.wing_left, g.wing_right]) == 3

    def test_matches_brute_force(self):
        rng = SplitMix64(1234)
        for _ in range(300):
            n = rng.below(11)
            intervals = random_intervals(rng, 2 + rng.below(5), n)
            assert len(max_independent_set(intervals)) == brute_force_alpha(intervals)


class TestTextFormat:
    def test_parse_and_comments(self):
        text = "# header\n0.25\n\n1/4\n3\n"
        got = parse_intervals(text)
        assert [str(iv.left) for iv in got] == ["1/4", "1/4", "3"]

    def test_bad_line_reports_position(self):
        with pytest.raises(ParseError, match="line 2"):
            parse_intervals("1\nwhat\n")

    def test_right_end_must_fit(self):
        assert str(parse_intervals("9223372036854775806")[0].right) == str((1 << 63) - 1)
        with pytest.raises(ScalarOverflowError, match="line 2"):
            parse_intervals("0\n9223372036854775807\n")

    def test_round_trip(self):
        intervals = [u("1/4"), u(3), u("-7/2")]
        again = parse_intervals(format_intervals(intervals))
        assert [iv.left for iv in again] == [iv.left for iv in intervals]
