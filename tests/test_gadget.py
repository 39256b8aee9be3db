from fractions import Fraction

import pytest

from intervalsel.gadget import (
    MAX_T,
    GadgetInvariantError,
    build,
    random_gadget,
    resolve_algorithm,
    sample_sigma,
    simulate_protocol,
    verify,
    wing_after_probability,
    wing_gap_inequality_holds,
)
from intervalsel.geometry import (
    IndependentSet,
    Scalar,
    ScalarOverflowError,
    UnitInterval,
    alpha,
    intersects,
    max_independent_set,
)
from intervalsel.rng import SplitMix64, derive

from brute import CHI2_CRIT_999

SEED = 20260810

IDENTITY_SIGMA_T4 = [0, 1, 2, 3, 4, 5]


def frac(s: Scalar) -> Fraction:
    return Fraction(s.num, s.den)


def scalar(f: Fraction) -> Scalar:
    return Scalar(f.numerator, f.denominator)


class TestBuild:
    def test_clique_coordinates(self):
        g = build(4, 2, [0, 0, 0, 0], [1, 1, 1, 1], IDENTITY_SIGMA_T4)
        # wings arrive at positions 4 and 5, so every clique item is private
        # i/(t+1) + b_i/t**2 with every private bit b_i = 0
        assert [frac(iv.left) for iv in g.clique] == [Fraction(i, 5) for i in range(4)]

    def test_wing_coordinates(self):
        g = build(4, 2, [0] * 4, [0] * 4, IDENTITY_SIGMA_T4)
        assert frac(g.wing_left.right) == Fraction(2, 5) - Fraction(1, 64)
        assert frac(g.wing_right.left) == 1 + Fraction(2, 5) + Fraction(1, 16) + Fraction(1, 64)

    def test_bit_shift_moves_interval(self):
        lo = build(4, 1, [0, 0, 0, 0], [0] * 4, IDENTITY_SIGMA_T4)
        hi = build(4, 1, [0, 1, 0, 0], [0] * 4, IDENTITY_SIGMA_T4)
        assert hi.clique[1].left == scalar(frac(lo.clique[1].left) + Fraction(1, 16))

    def test_public_bits_used_after_first_wing(self):
        # wings at positions 0 and 1: nothing is private
        sigma = [2, 3, 4, 5, 0, 1]
        g = build(4, 0, [1, 1, 1, 1], [0, 0, 0, 0], sigma)
        # the public bits, all 0, are baked in, not Alice's
        assert [frac(iv.left) for iv in g.clique] == [Fraction(i, 5) for i in range(4)]
        assert not g.alice_built_target

    def test_stream_order_follows_sigma(self):
        sigma = [5, 4, 3, 2, 1, 0]  # clique reversed, wings first
        g = build(4, 3, [0] * 4, [0] * 4, sigma)
        assert g.stream[0] is g.wing_right
        assert g.stream[1] is g.wing_left
        assert all(iv is g.clique[3 - k] for k, iv in enumerate(g.stream[2:]))
        assert g.first_wing_position == 0

    def test_validation(self):
        with pytest.raises(ValueError):
            build(2, 0, [0, 0], [0, 0], [0, 1, 2, 3])  # wing geometry degenerates
        with pytest.raises(ValueError):
            build(4, 4, [0] * 4, [0] * 4, IDENTITY_SIGMA_T4)
        with pytest.raises(ValueError):
            build(4, 0, [0] * 3, [0] * 4, IDENTITY_SIGMA_T4)
        with pytest.raises(ValueError):
            build(4, 0, [0] * 4, [0] * 4, [0, 0, 1, 2, 3, 4])

    def test_largest_t_builds_with_the_worst_index(self):
        # index t - 1 puts J_R, the largest coordinate, furthest right; every
        # bit set does the same for the clique.  The even t below builds too.
        for t in (MAX_T, MAX_T - 1):
            g = build(t, t - 1, [1] * t, [1] * t, list(range(t + 2)))
            assert frac(g.wing_right.left) == (
                1 + Fraction(t - 1, t + 1) + Fraction(1, t**2) + Fraction(1, t**3)
            )

    def test_t_above_the_bound_is_refused_before_drawing(self):
        t = MAX_T + 1
        # the bound is tight: J_R at index t - 1 leaves the 64-bit range
        with pytest.raises(ScalarOverflowError):
            scalar(1 + Fraction(t - 1, t + 1) + Fraction(1, t**2) + Fraction(1, t**3))
        with pytest.raises(ValueError, match="64-bit"):
            build(t, 0, [0] * t, [0] * t, list(range(t + 2)))
        rng = SplitMix64(SEED)
        with pytest.raises(ValueError, match="64-bit"):
            random_gadget(t, rng)
        assert rng.state == SplitMix64(SEED).state

    def test_gap_inequality_threshold(self):
        assert not wing_gap_inequality_holds(2)
        assert all(wing_gap_inequality_holds(t) for t in range(3, 60))


class TestVerify:
    def test_small_battery_exhaustive(self):
        rng = SplitMix64(SEED)
        for t in range(3, 13):
            for _ in range(20):
                report = verify(random_gadget(t, rng), exhaustive=True)
                assert report.alpha == 3
                assert report.unique_triple
                assert report.triple_checked_exhaustively

    def test_removing_target_drops_alpha_to_two(self):
        g = random_gadget(6, SplitMix64(SEED))
        rest = [iv for i, iv in enumerate(g.clique) if i != g.index]
        assert alpha(rest + [g.wing_left, g.wing_right]) == 2

    def test_removing_wings_leaves_a_clique(self):
        g = random_gadget(6, SplitMix64(SEED))
        assert alpha(list(g.clique)) == 1

    def test_wing_incidence_counts(self):
        g = random_gadget(9, SplitMix64(SEED + 1))
        for i, iv in enumerate(g.clique):
            hits = int(intersects(iv, g.wing_left)) + int(intersects(iv, g.wing_right))
            assert hits == (0 if i == g.index else 1)

    def test_verify_rejects_tampering(self):
        g = random_gadget(5, SplitMix64(SEED))
        # move the left wing a full unit left so the target's neighbour
        # no longer reaches it
        broken = g._replace(wing_left=g.wing_left.translate(-1))
        with pytest.raises(GadgetInvariantError):
            verify(broken)

    def test_verify_rejects_tampered_clique_member(self):
        g = random_gadget(8, SplitMix64(SEED))
        for k in (0, g.index, g.t - 1):
            others = [frac(iv.left) for j, iv in enumerate(g.clique) if j != k]
            # just out of reach of one other member, on either side
            for left in (
                min(others) + 1 + Fraction(1, 1 << 20),
                max(others) - 1 - Fraction(1, 1 << 20),
            ):
                clique = list(g.clique)
                clique[k] = UnitInterval(scalar(left))
                broken = g._replace(clique=tuple(clique))
                with pytest.raises(GadgetInvariantError, match="fail to intersect"):
                    verify(broken)


class TestWingProbability:
    def test_concentrates_at_one_third(self):
        p = wing_after_probability(10, 30_000, seed=SEED)
        assert abs(p - 1 / 3) <= 0.01

    def test_single_item_case(self):
        # one clique item plus two wings: exactly 1/3 of the 3! orders
        p = wing_after_probability(1, 30_000, seed=SEED)
        assert abs(p - 1 / 3) <= 0.01

    def test_forced_first_position_always_counts(self):
        rng = SplitMix64(SEED)
        for _ in range(200):
            positions = sample_sigma(6, rng)
            target = positions.index(0)
            if target < 6:  # position 0 held by a clique item
                assert positions[target] < min(positions[6], positions[7])


class TestProtocol:
    def test_oracle_baseline(self):
        stats = simulate_protocol(10, 3000, "oracle", seed=SEED)
        assert stats.approx_factor == 1.0
        assert stats.unique_triple_rate == 1.0
        assert abs(stats.success_rate - 2 / 3) <= 0.03
        # private branch decodes perfectly; public branch is a coin flip
        assert stats.target_built_privately.success_rate == 1.0
        assert abs(stats.target_built_publicly.success_rate - 0.5) <= 0.04

    def test_first_only_baseline(self):
        stats = simulate_protocol(10, 3000, "first", seed=SEED)
        assert stats.approx_factor == pytest.approx(1 / 3)
        assert abs(stats.success_rate - 0.5) <= 0.03

    def test_windowed_algorithm_reports(self):
        stats = simulate_protocol(5, 150, "windowed:4", seed=SEED)
        assert 0 < stats.approx_factor <= 1.0
        assert stats.n == 7

    def test_branch_sample_accounting(self):
        stats = simulate_protocol(7, 900, "oracle", seed=SEED)
        private = stats.target_built_privately.samples
        assert private + stats.target_built_publicly.samples == 900
        assert abs(private / 900 - 1 / 3) <= 0.05

    def test_parallel_matches_serial(self):
        serial = simulate_protocol(6, 300, "oracle", seed=SEED, threads=1)
        parallel = simulate_protocol(6, 300, "oracle", seed=SEED, threads=3)
        assert serial == parallel

    def test_bad_algorithm_is_fatal(self):
        def not_an_independent_set(stream):
            return list(stream[:4])

        with pytest.raises((GadgetInvariantError, ValueError)):
            simulate_protocol(5, 10, not_an_independent_set, seed=SEED)

    def test_wings_only_algorithm_is_legal(self):
        def wings_only(stream):
            # J_L lies left of every clique interval and J_R right of them
            by_left = sorted(stream, key=lambda iv: iv.left)
            return IndependentSet([by_left[0], by_left[-1]])

        # A local function cannot be pickled, so threads=2 must run serially.
        stats = simulate_protocol(5, 50, wings_only, seed=SEED)
        assert stats == simulate_protocol(5, 50, wings_only, seed=SEED, threads=2)
        assert stats.mean_output_size == 2.0
        assert stats.unique_triple_rate == 0.0

    def test_triple_outside_the_stream_is_refused(self):
        def flipped_target(stream):
            # J_L and J_R are the extreme intervals, and I[A] at
            # A/(t+1) + b/t**2 is the one independent of both: keep it with
            # the other bit, an interval the stream does not hold
            t = len(stream) - 2
            by_left = sorted(stream, key=lambda iv: iv.left)
            wing_left, wing_right = by_left[0], by_left[-1]
            (target,) = (
                iv
                for iv in by_left[1:-1]
                if not intersects(iv, wing_left) and not intersects(iv, wing_right)
            )
            base = Fraction(int(frac(target.left) * (t + 1)), t + 1)
            other_bit = int(frac(target.left) == base)
            flipped = UnitInterval(scalar(base + Fraction(other_bit, t * t)))
            return IndependentSet([wing_left, flipped, wing_right])

        with pytest.raises(GadgetInvariantError, match="size-3 output"):
            simulate_protocol(5, 20, flipped_target, seed=3)

    def test_far_apart_triple_is_refused(self):
        def far_apart(stream):
            return IndependentSet(UnitInterval(Scalar(10 * k)) for k in range(3))

        with pytest.raises(GadgetInvariantError, match="size-3 output"):
            simulate_protocol(5, 20, far_apart, seed=3)

    def test_resolve_algorithm_names(self):
        assert resolve_algorithm("oracle") is not None
        assert resolve_algorithm("windowed:3") is not None
        with pytest.raises(ValueError):
            resolve_algorithm("quantum")
        for name in ("windowed:1", "windowed:-3"):
            with pytest.raises(ValueError, match="delta must be at least 2"):
                resolve_algorithm(name)
        for name in ("windowed:abc", "windowed:"):
            with pytest.raises(ValueError, match=f"bad algorithm '{name}': expected"):
                resolve_algorithm(name)


class TestStreamDistribution:
    def test_target_arrival_position_is_uniform(self):
        t = 6
        counts = [0] * (t + 2)
        samples = 40_000
        for k in range(samples):
            g = random_gadget(t, derive(SEED, k))
            counts[g.target_position] += 1
        expected = samples / (t + 2)
        chi2 = sum((c - expected) ** 2 / expected for c in counts)
        assert chi2 <= CHI2_CRIT_999[t + 1]

    def test_wings_before_target_still_recoverable_by_oracle(self):
        hit = 0
        for k in range(2000):
            g = random_gadget(5, derive(SEED + 1, k))
            if max(g.wing_left_position, g.wing_right_position) < g.target_position:
                hit += 1
                assert len(max_independent_set(g.stream)) == 3
        assert hit > 0
