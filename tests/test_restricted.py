import gc
import sys
import tracemalloc
from fractions import Fraction
from itertools import permutations
from math import isqrt

import pytest
from hypothesis import given, settings, strategies as st

from intervalsel import gadget, harness, restricted, windows
from intervalsel.geometry import Domain, alpha
from intervalsel.harness import gen_independent
from intervalsel.restricted import (
    DomainError,
    GridBudgetError,
    InstanceState,
    run_on_stream,
    run_restricted,
    wrapper_domain,
)
from intervalsel.rng import SplitMix64, derive, fisher_yates

from brute import brute_force_alpha, brute_force_independent, random_intervals, u


class TestInstanceBasics:
    def test_length_one_domain_has_no_split_points(self):
        inst = InstanceState(Domain(0, 1))
        assert len(inst.output().output) == 0

    def test_degenerate_domain_rejected(self):
        with pytest.raises(ValueError):
            InstanceState(Domain(0, 0))

    def test_domain_longer_than_the_recursion_limit(self):
        # The output pass recurses only into nested generators, not once per
        # unit of domain length.
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(250)
        try:
            report = run_on_stream(Domain(0, 400), [u("795/2")])
        finally:
            sys.setrecursionlimit(limit)
        assert [str(iv.left) for iv in report.output] == ["795/2"]

    def test_wrapper_domain(self):
        assert wrapper_domain(6) == Domain(-1, 7)

    def test_fresh_instance_is_lazy_and_empty(self):
        rep = InstanceState(Domain(-1, 7)).output()
        assert len(rep.output) == 0
        assert rep.instances_touched == 1
        assert rep.peak_stored_intervals == 0
        assert rep.winning_split_point == 0
        assert rep.winning_side == "right-candidate"

    def test_feed_outside_domain(self):
        inst = InstanceState(Domain(0, 3))
        with pytest.raises(DomainError):
            inst.feed(u(5))
        with pytest.raises(DomainError):
            inst.feed(u(2))  # right endpoint hits the open boundary


def _instance_with_mid_stream_output():
    stream = fisher_yates(gen_independent(8, 9, seed=3), SplitMix64(4))
    inst = InstanceState(wrapper_domain(9))
    for iv in stream[:4]:
        inst.feed(iv)
    inst.output()
    for iv in stream[4:]:
        inst.feed(iv)
    assert len(inst.output().output) >= 1


def _windows():
    stream = random_intervals(SplitMix64(5), 30, 60)
    wm = windows.WindowMap(5)
    for iv in stream:
        wm.feed(iv)
    wm.merge_output()
    assert len(windows.run_windowed(5, stream)) >= 1


def _monte_carlo(algorithm):
    spec = harness.InstanceSpec(kind="independent", delta=7, seed=6, alpha=5)
    assert harness.monte_carlo(spec, 6, algorithm=algorithm).trials == 6


def _caught_domain_error():
    inst = InstanceState(Domain(0, 3))
    inst.feed(u("1/2"))
    try:
        inst.feed(u(5))
    except DomainError:
        pass


ENGINE_PATHS = {
    "instance": _instance_with_mid_stream_output,
    "windows": _windows,
    "monte_carlo_restricted": lambda: _monte_carlo("restricted"),
    "monte_carlo_windowed": lambda: _monte_carlo("windowed"),
    "gadget_windowed": lambda: gadget.simulate_protocol(8, 4, "windowed:6", seed=7),
    "substream": lambda: harness.substream_monotonicity_test(4, seed=8),
    "domain_error": _caught_domain_error,
}


class TestNoReferenceCycles:
    """Each engine path leaves nothing for the cyclic collector: states point
    only down, so reference counting frees a run, and the CLI runs with the
    collector off."""

    @pytest.mark.parametrize("path", sorted(ENGINE_PATHS))
    def test_path_leaves_no_cycles(self, path):
        was_enabled = gc.isenabled()
        gc.collect()  # one-time import cycles (numpy's, say) do not count
        gc.disable()
        try:
            ENGINE_PATHS[path]()
            assert gc.collect() == 0
        finally:
            if was_enabled:
                gc.enable()


def _generators(grid):
    """(width, generator) of each row and column generator of ``grid`` fed
    so far; every other cell is a state or empty.  With w = k + 1, row a's
    generator, on [a, k), sits in the unused cell ``a * w`` and column b's,
    on [0, b), in ``k * w + b``."""
    w = isqrt(len(grid))
    k = w - 1
    for idx, c in enumerate(grid):
        if c is None or isinstance(c, restricted._State):
            continue
        a, b = divmod(idx, w)
        if b == 0 and 1 <= a <= k - 2:
            yield k - a, c
        else:
            assert a == k and 2 <= b <= k - 1, (k, a, b)
            yield b, c


def _grid_cells(grid) -> int:
    """Cells of a generator's grid and of every grid below it; a
    one-interval record counts the (k + 1)**2 cells charged for it."""
    total = len(grid)
    for width, c in _generators(grid):
        if isinstance(c, list):
            total += _grid_cells(c)
        else:
            assert isinstance(c, restricted._One)
            total += (width + 1) ** 2
    return total


def _state(inst, a, b):
    """The state on [a, b) of the instance's root grid, or None."""
    a0, b0 = inst.domain.a, inst.domain.b
    return inst._grid[(a - a0) * (b0 - a0 + 1) + b - a0]


def _row(inst, a):
    """Row a's generator of the instance's root grid: A_R(a) of every state
    [a, b), held on [a, b0) and counted from a."""
    a0, b0 = inst.domain.a, inst.domain.b
    return inst._grid[(a - a0) * (b0 - a0 + 1)]


def _column(inst, b):
    """Column b's generator of the instance's root grid: A_L(b) of every
    state [a, b), held on [a0, b) and counted from a0."""
    a0, b0 = inst.domain.a, inst.domain.b
    return inst._grid[(b0 - a0) * (b0 - a0 + 1) + b - a0]


def _at(gen, a, b):
    """The summary of a filled generator's state on [a, b), counted from
    its origin: a state, a one-interval record's summary, or None."""
    if isinstance(gen, list):
        return gen[a * isqrt(len(gen)) + b]
    return None if gen is None else gen.at(a, b)


class TestGridBudget:
    def test_count_covers_every_generator(self):
        rng = SplitMix64(4242)
        for _ in range(30):
            delta = 2 + rng.below(6)
            inst = InstanceState(wrapper_domain(delta))
            for iv in random_intervals(rng, delta, rng.below(9)):
                inst.feed(iv)
            assert inst._cells[0] == _grid_cells(inst._grid)

    def test_feed_is_charged_before_a_child_grid(self, monkeypatch):
        # [2.5, 3.5) then [0, 1) on [0, 5): the state on [0, 4) takes a
        # conditional generator A_L(4) on [0, 4), a 5 x 5 grid.
        stream = [u("5/2"), u(0)]
        monkeypatch.setattr(restricted, "MAX_GRID_CELLS", 36 + 25)
        fits = InstanceState(Domain(0, 5))
        for iv in stream:
            fits.feed(iv)
        assert fits._cells == [61]
        monkeypatch.setattr(restricted, "MAX_GRID_CELLS", 36 + 24)
        tight = InstanceState(Domain(0, 5))
        tight.feed(stream[0])
        with pytest.raises(GridBudgetError, match="at least 61 cells"):
            tight.feed(stream[1])
        monkeypatch.setattr(restricted, "MAX_GRID_CELLS", 35)
        with pytest.raises(GridBudgetError):
            InstanceState(Domain(0, 5))

    def test_output_pass_allocates_nothing_per_state(self):
        # The summaries live on the states, so the output pass allocates
        # nothing per state but its count integers and the memory the feed
        # left, which the budget bounds, is nearly the whole run's; a memo of
        # one tuple per state added more than half again here.
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            inst = InstanceState(wrapper_domain(8))
            for iv in gen_independent(7, 8, seed=1):
                inst.feed(iv)
            held = tracemalloc.get_traced_memory()[0] - base
            tracemalloc.reset_peak()
            inst.output()
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak - held < 0.05 * held


# The run's grid-cell count after every feed, with one conditional generator
# per row and per column of each grid: (seed, delta, n) of
# `random_intervals` on the wrapper domain.
CELLS_AFTER_EVERY_FEED = {
    (1, 7, 10): [100, 100, 294, 294, 294, 330, 330, 330, 560, 560],
    (2, 8, 12): [121, 121, 121, 415, 415, 709, 1245, 1633, 1633, 2601, 3208, 3208],
    (3, 6, 14): [81, 145, 145, 258, 258, 258, 258, 307, 539, 709, 709, 709, 941, 941],
}

# The same counts with one conditional generator per state, each on the
# state's own domain; sharing the generators of a row or column never
# charges more.
CELLS_WITH_A_GENERATOR_PER_STATE = {
    (1, 7, 10): [100, 100, 553, 553, 553, 614, 614, 614, 1018, 1018],
    (2, 8, 12): [121, 121, 121, 945, 945, 1469, 2770, 4562, 4562, 9695, 11448, 11448],
    (3, 6, 14): [81, 230, 230, 428, 428, 489, 489, 599, 1108, 1609, 1657, 1657, 2166, 2166],
}


class TestOneIntervalGenerators:
    """A conditional generator is held as its one interval until its second
    arrives, charged as its grid from the first."""

    def test_closed_form_matches_the_recurrence(self):
        n = {}
        for left in range(15):
            for right in range(15):
                n[left, right] = (
                    1 + sum(n[left, r] for r in range(right))
                    + sum(n[l, right] for l in range(left))
                )
                assert restricted._one_interval_nodes(left, right) == n[left, right]

    def test_record_summary_matches_an_allocated_grid(self):
        # an instance's root grid is always allocated; fed one interval at
        # floor f, its root summary on every [a, b) that holds the interval
        # is the one a record of width k gives there, and a record has no
        # state on a domain that does not hold it
        for k in range(2, 15):
            for f in range(k - 1):
                iv = u(Fraction(2 * f + 1, 2))
                one = restricted._One(iv, f)
                for a in range(k - 1):
                    for b in range(a + 2, k + 1):
                        s = one.at(a, b)
                        if not a <= f <= b - 2:
                            assert s is None, (k, f, a, b)
                            continue
                        rep = run_on_stream(Domain(a, b), [iv])
                        summary = (len(rep.output), rep.instances_touched, rep.peak_stored_intervals)
                        assert summary == (s.size, s.nodes, s.stored), (k, f, a, b)

    def test_second_interval_turns_the_record_into_its_grid(self):
        # 2 is independent of and right of 0, the slot of the states [0, b)
        # for b >= 4, so row 0's generator, their A_R on [0, 7), holds it
        # alone; 5/2 overlaps 2, so it reaches that generator and nothing new
        inst = InstanceState(Domain(-1, 7))
        inst.feed(u(0))
        inst.feed(u(2))
        record = _row(inst, 0)
        assert isinstance(record, restricted._One)
        assert str(record.lo.left) == "2"
        assert [record.at(0, b) is not None for b in range(2, 8)] == [False] * 2 + [True] * 4
        assert [_row(inst, a) for a in (1, 2, 3, 4, 5)] == [None] * 5
        assert [_column(inst, b) for b in range(1, 7)] == [None] * 6
        cells = inst._cells[0]
        assert cells == 9 * 9 + 8 * 8
        inst.feed(u("5/2"))
        assert inst._cells[0] == cells  # charged once, at the first feed
        grid = _row(inst, 0)
        assert isinstance(grid, list) and len(grid) == 8 * 8
        assert [grid[b] is not None for b in range(2, 8)] == [False] * 2 + [True] * 4
        assert [str(iv.left) for iv in inst.output().output] == ["0", "2"]

    @pytest.mark.parametrize("case", sorted(CELLS_AFTER_EVERY_FEED))
    def test_cells_after_every_feed_are_unchanged(self, case):
        seed, delta, n = case
        inst = InstanceState(wrapper_domain(delta))
        seen = []
        for iv in random_intervals(SplitMix64(seed), delta, n):
            inst.feed(iv)
            seen.append(inst._cells[0])
        assert seen == CELLS_AFTER_EVERY_FEED[case]
        per_state = CELLS_WITH_A_GENERATOR_PER_STATE[case]
        assert all(new <= old for new, old in zip(seen, per_state, strict=True))


def _cut_substream(stream, a, b, side):
    """The intervals of ``stream`` inside [a, b) that the state [a, b) of a
    root fed ``stream`` passes to its conditional child: "R" those right of
    and independent of the left-most interval inside [a, b) so far, "L"
    those left of and independent of the right-most."""
    out, lo, hi = [], None, None
    for iv in stream:
        x = Fraction(iv.left.num, iv.left.den)
        if not a <= x < b - 1:
            continue
        lo = x if lo is None else min(lo, x)
        hi = x if hi is None else max(hi, x)
        if (x > lo + 1) if side == "R" else (x < hi - 1):
            out.append(iv)
    return out


class TestRowAndColumnGenerators:
    """A_R(a) of every state [a, b) is row a's generator read on [a, b), and
    A_L(b) of every [a, b) is column b's generator read on [a, b): for a
    fixed a, whether an interval passes the slot test of [a, b) does not
    depend on b, and for a fixed b not on a."""

    def test_a_cut_generator_is_the_run_on_its_substream(self):
        rng = SplitMix64(2030)
        checked = 0
        for j in range(60):
            delta = 3 + j % 6
            stream = random_intervals(rng, delta, 4 + rng.below(9))
            inst = InstanceState(wrapper_domain(delta))
            for iv in stream:
                inst.feed(iv)
            inst.output()
            a0, b0 = inst.domain.a, inst.domain.b
            for a in range(a0, b0 - 1):
                for b in range(a + 2, b0 + 1):
                    if _state(inst, a, b) is None:
                        continue
                    cuts = []
                    if a > a0:
                        cuts.append(("R", _at(_row(inst, a), 0, b - a)))
                    if b < b0:
                        cuts.append(("L", _at(_column(inst, b), a - a0, b - a0)))
                    for side, got in cuts:
                        sub = _cut_substream(stream, a, b, side)
                        if not sub:
                            assert got is None, (j, a, b, side)
                            continue
                        want = run_on_stream(Domain(a, b), sub)
                        assert (got.size, got.nodes, got.stored) == (
                            len(want.output), want.instances_touched, want.peak_stored_intervals,
                        ), (j, a, b, side)
                        checked += 1
        assert checked > 900


class TestFeedTraces:
    # The root's pass-through child T_R(i) is the state on [i, b) and T_L(i)
    # the state on [a, i); the slot R_i is the left-most interval T_R(i) was
    # fed, L_i the right-most fed to T_L(i), and A_R(i) is row i's generator
    # read on [i, b).

    def test_first_arrival_lands_in_matching_slots(self):
        inst = InstanceState(Domain(-1, 3))
        inst.feed(u(0))
        t_r0, t_l2 = _state(inst, 0, 3), _state(inst, -1, 2)
        assert t_r0 is not None and t_l2 is not None
        assert str(t_r0.lo.left) == "0"
        assert str(t_l2.hi.left) == "0"

    def test_disjoint_pair_feeds_conditional_child(self):
        inst = InstanceState(Domain(-1, 5))
        inst.feed(u(0))
        inst.feed(u(2))
        # second interval is independent of and right of R_0
        assert isinstance(_row(inst, 0), restricted._One)
        assert _row(inst, 0).at(0, 5) is not None
        assert len(inst.output().output) == 2

    def test_overlapping_pair_is_not_propagated(self):
        inst = InstanceState(Domain(-1, 5))
        inst.feed(u(0))
        inst.feed(u("1/4"))
        assert _row(inst, 0) is None
        assert all(gen is None for gen in inst._grid if not isinstance(gen, restricted._State))
        assert len(inst.output().output) == 1


class TestOutputs:
    def test_single_interval(self):
        assert len(run_restricted(6, [u("1/2")]).output) == 1

    def test_two_disjoint_either_order(self):
        assert len(run_on_stream(Domain(-1, 5), [u(0), u(2)]).output) == 2
        assert len(run_on_stream(Domain(-1, 5), [u(2), u(0)]).output) == 2

    def test_two_disjoint_misaligned_either_order(self):
        # Fractional positions leaving no integer strictly between the
        # intervals: recovery relies on the conditional left child keyed by
        # the left-most slot.
        first, second = u("3/10"), u("3/2")
        assert len(run_on_stream(Domain(-1, 4), [first, second]).output) == 2
        assert len(run_on_stream(Domain(-1, 4), [second, first]).output) == 2

    def test_three_disjoint_all_orders(self):
        instance = [u(0), u(2), u(4)]
        sizes = [
            len(run_on_stream(Domain(-1, 7), order).output)
            for order in permutations(instance)
        ]
        assert sizes[0] == 3  # ascending order is lossless
        assert min(sizes) >= 2

    def test_empty_stream(self):
        assert len(run_on_stream(Domain(-1, 7), []).output) == 0

    def test_duplicate_intervals_count_once(self):
        rep = run_on_stream(Domain(-1, 4), [u("1/2"), u("1/2"), u("1/2")])
        assert len(rep.output) == 1

    def test_interval_hugging_the_right_boundary(self):
        left = Fraction(2) - Fraction(1, 1 << 20)
        assert len(run_restricted(3, [u(left)]).output) == 1

    def test_run_restricted_rejects_outside_inputs(self):
        with pytest.raises(DomainError):
            run_restricted(3, [u("5/2")])  # [5/2, 7/2] leaves [0, 3)


@st.composite
def floor_twins(draw, den=16):
    """(delta, two orders): one arrival order of two independent placements
    with the same strictly increasing floors in {0, ..., delta - 2}.

    Floors one apart need rising offsets in [0, 1) for a gap above 1, so
    each run of consecutive floors draws its offsets as a sorted set.
    """
    delta = draw(st.integers(3, 8))
    floors = sorted(draw(st.sets(st.integers(0, delta - 2), min_size=1)))
    runs = [[floors[0]]]
    for f in floors[1:]:
        if f == runs[-1][-1] + 1:
            runs[-1].append(f)
        else:
            runs.append([f])

    def placement():
        lefts = []
        for run in runs:
            n = len(run)
            offsets = sorted(draw(st.sets(st.integers(0, den - 1), min_size=n, max_size=n)))
            lefts += [u(Fraction(f * den + o, den)) for f, o in zip(run, offsets)]
        return lefts

    first, second = placement(), placement()
    order = draw(st.permutations(range(len(floors))))
    return delta, [first[j] for j in order], [second[j] for j in order]


class TestAlgorithmProperties:
    @settings(max_examples=300, deadline=None)
    @given(floor_twins())
    def test_floors_decide_an_independent_run(self, case):
        # On an independent instance the feed reads containment through each
        # left end's floor and the slot tests through the arrival order alone.
        delta, first, second = case
        reports = [run_restricted(delta, order) for order in (first, second)]
        ranks = [
            [sorted(order, key=lambda iv: iv.left).index(iv) for iv in rep.output]
            for order, rep in zip((first, second), reports)
        ]
        assert ranks[0] == ranks[1]
        assert reports[0]._replace(output=None) == reports[1]._replace(output=None)

    def test_output_always_independent_and_below_alpha(self):
        rng = SplitMix64(2024)
        for _ in range(150):
            delta = 2 + rng.below(4)
            stream = random_intervals(rng, delta, rng.below(9))
            rep = run_restricted(delta, stream)
            assert brute_force_independent(list(rep.output))
            assert len(rep.output) <= brute_force_alpha(stream)

    def test_substream_monotonicity_small(self):
        rng = SplitMix64(99)
        for _ in range(120):
            delta = 2 + rng.below(4)
            stream = random_intervals(rng, delta, rng.below(8))
            sub = [iv for iv in stream if rng.bit()]
            full_size = len(run_restricted(delta, stream).output)
            assert len(run_restricted(delta, sub).output) <= full_size

    def test_exact_for_alpha_up_to_two_exhaustively(self):
        rng = SplitMix64(7)
        checked = 0
        while checked < 40:
            delta = 3 if rng.bit() else 4
            stream = random_intervals(rng, delta, 1 + rng.below(5))
            a = brute_force_alpha(stream)
            if not 1 <= a <= 2:
                continue
            checked += 1
            for order in permutations(stream):
                assert len(run_restricted(delta, order).output) == a

    def test_ascending_order_is_lossless_up_to_alpha_five(self):
        for a in range(1, 6):
            gap = 1 + Fraction(1, max(2 * (a - 1), 1))
            instance = [u(Fraction(j) * gap) for j in range(a)]
            assert alpha(instance) == a
            assert len(run_restricted(a + 1, instance).output) == a

    def test_alpha_three_mean_meets_bound(self):
        instance = [u(0), u("5/4"), u("5/2")]
        total = sum(
            len(run_restricted(4, order).output) for order in permutations(instance)
        )
        assert Fraction(total, 6) >= Fraction(8, 3)

    def test_determinism(self):
        rng = SplitMix64(5)
        stream = random_intervals(rng, 5, 7)
        order = fisher_yates(stream, derive(5, 1))
        first = run_restricted(5, order)
        second = run_restricted(5, order)
        assert first.output == second.output
        assert first.winning_split_point == second.winning_split_point


class TestReportCounters:
    def test_counters_grow_with_feeds(self):
        inst = InstanceState(Domain(-1, 5))
        assert inst.output().instances_touched == 1
        inst.feed(u(0))
        mid = inst.output()
        inst.feed(u(2))
        end = inst.output()
        assert 1 < mid.instances_touched <= end.instances_touched
        assert 0 < mid.peak_stored_intervals <= end.peak_stored_intervals

    def test_report_dict_shape(self):
        rep = run_restricted(4, [u(0), u(2)])
        d = rep.to_dict()
        assert d["output_size"] == 2
        assert set(d) == {
            "output_size",
            "output_intervals",
            "winning_split_point",
            "winning_side",
            "instances_touched",
            "peak_stored_intervals",
        }
