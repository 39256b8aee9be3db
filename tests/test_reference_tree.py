"""The hash-consed DAG against the explicit recursion tree it replaces.

Every field of the report must agree, counters included, after every feed:
``instances_touched`` and ``peak_stored_intervals`` are logical tree counts
that the DAG derives without building the tree.
"""

from math import isqrt
from unittest import mock

from hypothesis import given, settings, strategies as st

from intervalsel import windows
from intervalsel.geometry import Domain, Scalar, UnitInterval
from intervalsel.harness import gen_independent
from intervalsel.restricted import InstanceState, _One, wrapper_domain
from intervalsel.rng import derive, fisher_yates
from intervalsel.windows import WindowMap, run_windowed

from reference_tree import InstanceState as TreeInstanceState

DENOMINATORS = (1, 2, 3, 4, 1 << 20)


@st.composite
def streams(draw, max_delta=7, max_size=8, span=0):
    """(delta, stream): unit intervals inside [0, delta + span), mixed denominators."""
    delta = draw(st.integers(2, max_delta))
    width = delta + span - 1  # left endpoints in [0, width) keep [x, x+1] inside
    lefts = st.sampled_from(DENOMINATORS).flatmap(
        lambda den: st.integers(0, width * den - 1).map(lambda num: Scalar(num, den))
    )
    return delta, draw(st.lists(lefts.map(UnitInterval), max_size=max_size))


@settings(max_examples=150, deadline=None)
@given(streams(), st.integers(-40, 40))
def test_reports_match_after_every_feed(case, origin):
    # wrapper_domain(delta) and the stream, both moved by origin
    delta, stream = case
    domain = Domain(origin - 1, origin + delta + 1)
    dag = InstanceState(domain)
    tree = TreeInstanceState(domain)
    assert dag.output() == tree.output()
    for iv in stream:
        iv = iv.translate(origin)
        dag.feed(iv)
        tree.feed(iv)
        assert dag.output() == tree.output()


@settings(max_examples=60, deadline=None)
@given(streams(max_delta=5, max_size=7, span=4))
def test_windowed_runs_match(case):
    delta, stream = case

    def run():
        wm = WindowMap(delta)
        for iv in stream:
            wm.feed(iv)
        return wm.window_reports(), run_windowed(delta, stream)

    dag = run()
    # The tree holds no grids, so it ignores the windows' shared cell count.
    def tree_window(domain, cells):
        return TreeInstanceState(domain)

    with mock.patch.object(windows, "InstanceState", tree_window):
        tree = run()
    assert dag == tree


def _records(grid, path=()):
    """The path of every conditional generator below ``grid`` still held as
    a one-interval record.  With w = k + 1, row a's generator sits in the
    cell ``a * w`` of its grid and column b's in ``k * w + b``."""
    w = isqrt(len(grid))
    k = w - 1
    found = set()
    for idx in [a * w for a in range(1, k - 1)] + [k * w + b for b in range(2, k)]:
        gen, here = grid[idx], path + (idx,)
        if isinstance(gen, _One):
            found.add(here)
        elif gen is not None:
            found |= _records(gen, here)
    return found


def test_outputs_around_a_second_interval_match():
    # Independent intervals in shuffled orders, plus a seeded stray one, with
    # output() after every feed: generators are read as records, then again
    # after their second interval made them grids.
    promoted = 0
    for seed in range(12):
        rng = derive(5, seed)
        stream = fisher_yates(gen_independent(5, 6, seed=seed), rng)
        stream.insert(rng.below(6), UnitInterval(Scalar(rng.below(20), 4)))
        dag = InstanceState(wrapper_domain(6))
        tree = TreeInstanceState(wrapper_domain(6))
        before = set()
        for iv in stream:
            dag.feed(iv)
            tree.feed(iv)
            assert dag.output() == tree.output()
            now = _records(dag._grid)
            promoted += len(before - now)
            before = now
    assert promoted > 0


def test_dense_stream_counts_match():
    # twelve intervals on delta 6, overlapping and disjoint: 3678 tree nodes
    # held as 640 distinct states
    nums = (9, 0, 17, 5, 13, 1, 19, 8, 3, 15, 11, 6)
    stream = [UnitInterval(Scalar(n, 4)) for n in nums]
    dag = InstanceState(wrapper_domain(6))
    tree = TreeInstanceState(wrapper_domain(6))
    for iv in stream:
        dag.feed(iv)
        tree.feed(iv)
    report = dag.output()
    assert report == tree.output()
    assert report.instances_touched > 1000
