"""Recursive split-point streaming algorithm on a fixed integer domain.

An instance on [a, b) watches every integer split point i strictly inside
the domain.  For each i it keeps the left-most interval seen inside
[i, b) (slot ``R_i``), the right-most seen inside [a, i) (slot ``L_i``),
and four recursive children: unconditional pass-through children T_L(i)
on [a, i) and T_R(i) on [i, b), plus conditional children A_L(i) and
A_R(i) that only receive intervals strictly beyond the current slot.
Per arriving interval and split point the update order matters and is
fixed: pass-through feed, slot update, then the conditional feed judged
against the *updated* slot.

At the end of the stream each split point offers two candidates,
``OUT(T_L(i)) + R_i + OUT(A_R(i))`` and ``OUT(A_L(i)) + L_i + OUT(T_R(i))``,
and the largest over all split points is returned (smallest split point
wins ties, the R-side candidate preferred, for reproducibility).

The specification is a recursion tree, created lazily: a child appears on
its first feed, which is observably identical to an eager tree (a node
never fed outputs the empty set).  That tree is not built here.  A node
receives exactly its *generator's* substream restricted to its own domain,
so its state is a function of the key ``(generator, a, b)``:

* the root's generator is the root itself;
* a pass-through child T_L(i) or T_R(i) keeps its parent's generator;
* a conditional child A_R(i) of a node ``(g, a, b)`` has generator
  ``("R", g, i, b)``: its slot R_i is the left-most interval of g's
  substream inside [i, b), whatever ``a`` is.  A_L(i) likewise has
  ``("L", g, a, i)``.

Nodes with one key share one state, so the tree is a DAG of far fewer
distinct states (hash-consing, as in the unique table of a BDD).  A
generator on a domain of length k is its grid: one flat list of
(k + 1)**2 cells that holds its states by domain, counted from the grid's
own origin, so ``grid[a * (k + 1) + b]`` is the state on [a, b).  The slot
R_i of every node ``(g, a, b)`` is the left-most interval ever fed to
T_R(i) = ``(g, i, b)``, and L_i the right-most fed to T_L(i), so a state
stores two slots: those two intervals.

The conditional generators of a grid are shared by row and by column.
For a fixed ``(g, i)``, the generators ``("R", g, i, b)`` are one substream
cut at different right ends: after the slot update, an arriving x lies
beyond R_i + 1 iff g was already fed some y with floor(y) >= i and
y < x - 1, and such a y lies inside [i, b) for every b whose domain holds
x.  So row i's generator, on [i, k), holds them all: ``("R", g, i, b)`` is
its state on [i, b).  The two differ only in the conditional generator of
that state's last column, which no state inside [i, b) reads.  Likewise,
``("L", g, a, i)`` for every a is column i's generator, on [0, i), read on
[a, i).  Row a's generator sits in the unused cell ``grid[a * (k + 1)]``
and column b's in ``grid[k * (k + 1) + b]``, so a feed that reaches a grid
feeds each of its row and column generators at most once.  A conditional
generator is its grid only from its second interval on: fed one interval,
it is a ``_One`` record of that interval, whose state on any domain is
closed form, and its second interval allocates the grid and replays the
first into it.  Neither a state nor a grid knows where its domain lies:
the passes carry a grid and its width down, and an arriving interval's
floor counted from the grid's origin, and only ``InstanceState`` adds its
domain's left end back.  An arriving interval updates each reachable
distinct state once, slots first; each row and column generator is then
judged once, against the updated slots of its least domain that holds the
interval, as the tree orders a slot update before the conditional feed.

The DAG holds no reference cycles: a grid points to its states and its
row and column generators, a state to its two intervals, a record to its
interval, and nothing points back up.  Reference counting alone frees an
instance once it is dropped, which is why the CLI can run with the cyclic
garbage collector off; ``TestNoReferenceCycles`` in the tests pins it for
every engine path.

The end-of-stream pass visits each distinct state once and writes into
it only sizes: the best candidate size, its split point and side, and the
two counters below.  It fills each grid's row and column generators, then
the grid shortest domain first, so it recurses only into nested grids: the
budget below, not the domain length, bounds its depth.  It allocates
nothing per state but the integers of its counts, so what the feed left is
nearly the run's memory.  The winning
set is then rebuilt once, by following (split point, side) from the root,
which takes one slot interval per visited state of the result.

``instances_touched`` and ``peak_stored_intervals`` still report the
logical tree: a state's subtree count is the sum over its child edges of
each child's subtree count, stored on the state.  They can be exponentially
larger than what is held: time and memory scale with the distinct states.
Memory is bounded by one budget: each grid's (k + 1)**2 cells are charged
to a counter of its run (one instance, or all windows of a WindowMap)
before they are allocated, a conditional generator's at its first
interval, when it becomes a record, and ``GridBudgetError`` is raised past
``MAX_GRID_CELLS``.  So the counter is the number of cells the run holds
or would hold once its records are grids.  A run holds 5 to 12 charged
cells per state and 11 to 27 bytes per charged cell, which the output pass
does not raise; cells also bound the few but huge grids of a large delta.

A single instance is a mutable single-writer state machine, for
``output()`` as well as for ``feed()``, since the pass rewrites every
state's summary; distinct instances are independent and may run
concurrently.
"""

from __future__ import annotations

from functools import lru_cache
from math import comb
from typing import Iterable, NamedTuple, Sequence

from .geometry import Domain, DomainError, IndependentSet, UnitInterval, contained_in

RIGHT_CANDIDATE = "right-candidate"
LEFT_CANDIDATE = "left-candidate"


MAX_GRID_CELLS = 1 << 25


class GridBudgetError(MemoryError):
    """A run's state grids would hold more than ``MAX_GRID_CELLS`` cells."""


class RunReport(NamedTuple):
    """Outcome of one streamed run plus bookkeeping counters.

    ``instances_touched`` counts the nodes of the lazily materialised
    recursion tree (the root included); ``peak_stored_intervals`` counts
    occupied L/R slots over that whole tree.  Both are logical counts: the
    states actually held are shared between tree nodes.  Slots never empty
    once filled, so the end-of-stream count equals the peak.
    """

    output: IndependentSet
    winning_split_point: int | None
    winning_side: str | None
    instances_touched: int
    peak_stored_intervals: int

    def to_dict(self) -> dict:
        return {
            "output_size": len(self.output),
            "output_intervals": [str(iv.left) for iv in self.output],
            "winning_split_point": self.winning_split_point,
            "winning_side": self.winning_side,
            "instances_touched": self.instances_touched,
            "peak_stored_intervals": self.peak_stored_intervals,
        }


def _charge(k: int, cells: list[int]) -> int:
    """Charge the grid of a generator on a domain of length k; its cell count.

    With w = k + 1, the grid is a flat list of w * w cells, and
    ``grid[a * w + b]`` is the state on [a, b), counted from the grid's
    origin, or None until an interval inside [a, b) reaches the generator;
    its root, the state on [0, k), is at index k.  The cells ``a * w`` and
    ``k * w + b``, which no state uses, hold the generators of row a and
    column b.  ``cells`` is the one-item count of grid cells the run holds,
    raised here before any allocation.
    """
    w = k + 1
    total = cells[0] + w * w
    if total > MAX_GRID_CELLS:
        raise GridBudgetError(
            f"grid-cell budget exceeded: this run needs at least {total} cells "
            f"of state grids, more than MAX_GRID_CELLS = {MAX_GRID_CELLS}"
        )
    cells[0] = total
    return w * w


def _one_interval_nodes(left: int, right: int) -> int:
    """Tree nodes N(left, right) below the root of a generator fed one interval.

    The interval's floor f lies ``left`` units right of the domain's left
    end and f + 2 lies ``right`` units left of its right end.  The root
    [0, k) has the pass-through children [0, i) for i >= f + 2 and [i, k)
    for i <= f and no conditional one, so N(L, R) = 1 + sum over r < R of
    N(L, r) + sum over l < L of N(l, R).  Its generating function is
    1 / (1 - 2x - 2y + 3xy), which gives this sum.
    """
    return sum(
        comb(left + right - j, j) * comb(left + right - 2 * j, left - j)
        * 2 ** (left + right - 2 * j) * (-3) ** j
        for j in range(min(left, right) + 1)
    )


class _OneSummary:
    """The end-of-stream summary of a domain that holds one interval.

    ``size`` is 1, or 0 on a domain of length 2, where no unit interval fits
    a length-1 child; ``nodes`` is N(left, right) and ``stored`` one slot per
    node but the root.
    """

    __slots__ = ("size", "nodes", "stored")

    def __init__(self, left: int, right: int):
        self.size = 1 if left or right else 0
        self.nodes = _one_interval_nodes(left, right)
        self.stored = self.nodes - 1


# The shared summary of a one-interval domain with this room on each side.
# The sum of ``_one_interval_nodes`` takes about 2 us and a cached read
# 0.1 us.  The cache keeps one entry per distinct pair a process met, and
# every pair has left + right <= k - 2 for a width k whose grid fits the
# budget: at delta 11 the conditional widths are at most 12, so a run meets
# at most 66 pairs however many trials it runs.
_one_summary = lru_cache(maxsize=None)(_OneSummary)


class _One:
    """A conditional generator fed one interval so far, held without its grid.

    ``lo`` is the interval and ``f`` its floor counted from the grid's
    origin.  The grid's cells are charged when the record is made, so the
    budget sees the same count at the same feed as for an allocated grid,
    which replaces the record at the generator's second interval.
    """

    __slots__ = ("lo", "f")

    def __init__(self, iv: UnitInterval, f: int):
        self.lo = iv
        self.f = f

    def at(self, a: int, b: int) -> _OneSummary | None:
        """The summary of the grid's state on [a, b), or None if it was never
        fed: present iff the interval fits, N(f - a, b - f - 2) tree nodes."""
        f = self.f
        if a <= f and f + 2 <= b:
            return _one_summary(f - a, b - f - 2)
        return None


def _feed_generator(
    gen: list | _One | None, k: int, cells: list[int],
    iv: UnitInterval, num: int, den: int, fl: int,
) -> list | _One:
    """Feed ``iv`` to a conditional generator of width k; what it is after.

    None is charged its grid and becomes a one-interval record, and a record
    becomes its grid, allocated without a second charge and fed the recorded
    interval before ``iv``, so it holds the states an eagerly allocated grid
    would.
    """
    if gen is None:
        _charge(k, cells)
        return _One(iv, fl)
    if gen.__class__ is _One:
        one, x = gen, gen.lo.left
        gen = [None] * ((k + 1) * (k + 1))
        _feed(gen, k, cells, one.lo, x.num, x.den, one.f)
    _feed(gen, k, cells, iv, num, den, fl)
    return gen


class _State:
    """One distinct state: every tree node with this generator and domain.

    ``lo`` and ``hi`` are the left-most and right-most interval it was fed,
    which are the slots R_a and L_b of each of its tree parents.  A state
    knows neither its generator nor its domain: the passes carry its grid
    and that grid's width down.

    ``size``, ``point``, ``side``, ``nodes`` and ``stored`` are the state's
    end-of-stream summary, written by ``_fill`` and read only after it;
    ``point`` counts from the origin of the state's grid.
    """

    __slots__ = ("lo", "hi", "size", "point", "side", "nodes", "stored")

    def __init__(self, first: UnitInterval):
        self.lo = first
        self.hi = first


def _feed(
    grid: list, k: int, cells: list[int],
    iv: UnitInterval, num: int, den: int, fl: int,
) -> None:
    """Update, once each, the states of ``grid`` (width k) that contain ``iv``.

    The left endpoint is x = num/den, and fl is floor(x) counted from the
    grid's origin.  The interval lies in [a, b) iff a <= fl and b >= fl + 2;
    every such state exists in the tree below the generator's root through
    pass-through children, so all of them receive it.  The slots are
    updated first; each row's and column's conditional generator is then
    fed once, judged against the updated slots.
    """
    w = k + 1
    for a in range(fl + 1):
        row = a * w
        for idx in range(row + fl + 2, row + w):
            s = grid[idx]
            if s is None:
                grid[idx] = _State(iv)
                continue
            lo = s.lo.left
            if num * lo.den < lo.num * den:
                s.lo = iv
            hi = s.hi.left
            if num * hi.den > hi.num * den:
                s.hi = iv
    # Independent of and further right than R_a: x > lo + 1 on [a, b) iff
    # on [a, fl + 2), the least such domain.  Only rows a > 0 are someone's
    # T_R.  Row a's generator is on [a, k), counted from a.
    for a in range(1, fl + 1):
        lo = grid[a * w + fl + 2].lo.left
        if num * lo.den > (lo.num + lo.den) * den:
            grid[a * w] = _feed_generator(grid[a * w], k - a, cells, iv, num, den, fl - a)
    # Independent of and further left than L_b: x < hi - 1 on [a, b) iff on
    # [fl, b).  Only columns b < k are someone's T_L.  Column b's generator
    # is on [0, b).
    row, col = fl * w, k * w
    for b in range(fl + 2, k):
        hi = grid[row + b].hi.left
        if num * hi.den < (hi.num - hi.den) * den:
            grid[col + b] = _feed_generator(grid[col + b], b, cells, iv, num, den, fl)


def _fill(grid: list, k: int) -> None:
    """Summarise each state of ``grid`` (width k) and of the grids below it.

    A state's summary is written into its own fields: the best candidate
    size, its split point and side, and the tree nodes and occupied slots of
    every tree node of the state; the counts are sums over child edges of
    the children's counts.  The row and column generators are filled first.
    Then the children [a, i) and [i, b) of [a, b) lie left of it in its row
    and below it in its column, so rows run bottom up and columns left to
    right, and every child is summarised before its parent reads it.  A
    one-interval record answers for any of its domains in closed form.
    """
    w = k + 1
    col = k * w
    for i in range(1, k - 1):
        c = grid[i * w]  # row i's generator, on [i, k)
        if c.__class__ is list:
            _fill(c, k - i)
    for i in range(2, k):
        c = grid[col + i]  # column i's generator, on [0, i)
        if c.__class__ is list:
            _fill(c, i)
    for a in range(k - 2, -1, -1):
        row = a * w  # grid[row + i] is the state on [a, i)
        for b in range(a + 2, k + 1):
            s = grid[row + b]
            if s is None:
                continue
            if b == a + 2:
                # no unit interval fits either length-1 child of [a, a + 2)
                s.size, s.point, s.side = 0, a + 1, RIGHT_CANDIDATE
                s.nodes, s.stored = 1, 0
                continue
            best, point, side = 0, a + 1, RIGHT_CANDIDATE
            nodes, stored = 1, 0
            for i in range(a + 1, b):
                # sizes of OUT(T_L(i)) + R_i + OUT(A_R(i)) and OUT(A_L(i)) + L_i + OUT(T_R(i))
                r_size = l_size = 0
                tl = grid[row + i]
                # each pass-through child's first feed filled the slot L_i or R_i
                if tl is not None:
                    r_size = tl.size
                    nodes += tl.nodes
                    stored += 1 + tl.stored
                    l_size = 1
                    # A_L(i): the state on [a, i) of column i's generator
                    c = grid[col + i]
                    if c is not None:
                        c = c[a * (i + 1) + i] if c.__class__ is list else c.at(a, i)
                        if c is not None:
                            l_size += c.size
                            nodes += c.nodes
                            stored += c.stored
                tr = grid[i * w + b]
                if tr is not None:
                    l_size += tr.size
                    nodes += tr.nodes
                    stored += 1 + tr.stored
                    r_size += 1
                    # A_R(i): the state on [0, b - i) of row i's generator
                    c = grid[i * w]
                    if c is not None:
                        c = c[b - i] if c.__class__ is list else c.at(0, b - i)
                        if c is not None:
                            r_size += c.size
                            nodes += c.nodes
                            stored += c.stored
                if r_size > best:
                    best, point, side = r_size, i, RIGHT_CANDIDATE
                if l_size > best:
                    best, point, side = l_size, i, LEFT_CANDIDATE
            s.size, s.point, s.side, s.nodes, s.stored = best, point, side, nodes, stored


def _picks(grid: list, k: int) -> list[UnitInterval]:
    """The winning candidate of the root of the filled grid of width k.

    Follows (split point, side) from the root down through the children
    that form the winning candidate, taking one slot interval per visited
    state of nonzero size; a one-interval record of nonzero size on the
    visited domain gives its interval.
    """
    picks: list[UnitInterval] = []
    todo = [(grid, k + 1, 0, k)]  # a grid or a record, its row length, a domain in it
    while todo:
        grid, w, a, b = todo.pop()
        if grid.__class__ is _One:
            s = grid.at(a, b)
            if s is not None and s.size:
                picks.append(grid.lo)
            continue
        s = grid[a * w + b]
        if s is None or not s.size:
            continue
        i = s.point
        tl, tr = grid[a * w + i], grid[i * w + b]
        if s.side == RIGHT_CANDIDATE:
            if tl is not None:
                todo.append((grid, w, a, i))
            if tr is not None:
                picks.append(tr.lo)
                c = grid[i * w]  # row i's generator on [i, k)
                if c is not None:
                    todo.append((c, w - i, 0, b - i))
        else:
            if tr is not None:
                todo.append((grid, w, i, b))
            if tl is not None:
                picks.append(tl.hi)
                c = grid[(w - 1) * w + i]  # column i's generator on [0, i)
                if c is not None:
                    todo.append((c, i + 1, a, i))
    return picks


class InstanceState:
    """The recursive algorithm on one integer domain, as a DAG of shared states.

    ``cells`` is the one-item grid-cell count of a run, shared by the windows
    of a WindowMap; by default an instance counts its own.
    """

    __slots__ = ("domain", "_grid", "_cells")

    def __init__(self, domain: Domain, cells: list[int] | None = None):
        self.domain = domain
        self._cells = [0] if cells is None else cells
        self._grid = [None] * _charge(domain.b - domain.a, self._cells)

    def feed(self, interval: UnitInterval) -> None:
        """Route one arriving interval through every reachable state.

        Raises DomainError unless the interval lies inside this domain;
        recursive feeds below satisfy containment by construction and skip
        the check.
        """
        d = self.domain
        if not contained_in(interval, d):
            raise DomainError(f"{interval} not contained in {d}")
        x = interval.left
        _feed(self._grid, d.b - d.a, self._cells, interval, x.num, x.den, x.num // x.den - d.a)

    def output(self) -> RunReport:
        """Largest candidate over all split points, validated as independent."""
        grid, a, k = self._grid, self.domain.a, self.domain.b - self.domain.a
        root = grid[k]
        if root is None:
            point = a + 1 if k >= 2 else None
            side = RIGHT_CANDIDATE if point is not None else None
            return RunReport(IndependentSet(), point, side, 1, 0)
        _fill(grid, k)
        return RunReport(
            output=IndependentSet(_picks(grid, k)),
            winning_split_point=a + root.point,
            winning_side=root.side,
            instances_touched=root.nodes,
            peak_stored_intervals=root.stored,
        )


def run_on_stream(domain: Domain, stream: Iterable[UnitInterval]) -> RunReport:
    """Feed the stream in order into a fresh instance and report the output."""
    inst = InstanceState(domain)
    for iv in stream:
        inst.feed(iv)
    return inst.output()


def wrapper_domain(delta: int) -> Domain:
    """Domain used to serve inputs confined to [0, delta).

    The instance runs on [-1, delta + 1) so that for every input the split
    points immediately left and right of it exist, including at the
    boundary positions 0 and delta.
    """
    if delta < 2:
        raise ValueError("delta must be at least 2")
    return Domain(-1, delta + 1)


def run_restricted(delta: int, stream: Sequence[UnitInterval]) -> RunReport:
    """Run on [-1, delta+1); every input must lie inside [0, delta)."""
    outer = wrapper_domain(delta)
    inner = Domain(0, delta)
    for iv in stream:
        if not contained_in(iv, inner):
            raise DomainError(f"{iv} not contained in {inner}")
    return run_on_stream(outer, stream)
