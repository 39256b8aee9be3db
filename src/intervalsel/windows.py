"""Shifting-window lift from a fixed domain to the whole line.

Every integer origin i defines a window [i, i + delta).  A unit interval
is fully contained in exactly delta - 1 such windows.  Each arriving
interval activates its containing windows (lazily: inactive windows use no
space), and is fed as it is into a per-window recursive instance running
on [i - 1, i + delta + 1), the wrapper domain moved by i; the instance
indexes its grids from its own left end, so the move costs nothing per
feed.  Window outputs stay in the coordinates they were fed in, and at the
end a maximum independent set of their union is returned.

A WindowMap is single-writer during a stream; the per-window instances
are independent of one another.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple

from .geometry import Domain, IndependentSet, UnitInterval, max_independent_set
from .restricted import InstanceState, RunReport


def windows_containing(interval: UnitInterval, delta: int) -> range:
    """Origins i with i <= left and left + 1 < i + delta; always delta - 1 of them.

    A range, so that at a huge delta the budget refuses the first window's
    grid before any memory goes to the origins.
    """
    if delta < 2:
        raise ValueError("delta must be at least 2")
    fl = interval.left.floor()
    return range(fl - delta + 2, fl + 1)


class WindowReport(NamedTuple):
    origin: int
    report: RunReport


class WindowMap:
    """Lazily activated length-delta windows, each backed by one instance."""

    __slots__ = ("delta", "_active", "_cells")

    def __init__(self, delta: int):
        if delta < 2:
            raise ValueError("delta must be at least 2")
        self.delta = delta
        self._active: dict[int, InstanceState] = {}
        self._cells = [0]  # grid cells of all windows, against one budget

    @property
    def active_origins(self) -> list[int]:
        return sorted(self._active)

    @property
    def active_count(self) -> int:
        return len(self._active)

    def feed(self, interval: UnitInterval) -> None:
        """Activate the containing windows and feed each the interval."""
        for origin in windows_containing(interval, self.delta):
            inst = self._active.get(origin)
            if inst is None:
                domain = Domain(origin - 1, origin + self.delta + 1)
                inst = self._active[origin] = InstanceState(domain, self._cells)
            inst.feed(interval)

    def reports(self) -> list[WindowReport]:
        """Each active window's report, as its instance gives it."""
        return [
            WindowReport(origin, self._active[origin].output())
            for origin in self.active_origins
        ]

    def window_reports(self) -> list[WindowReport]:
        """Each active window's report in window coordinates, as if its
        instance ran on [-1, delta + 1).  Only the stream-unrestricted
        replay in ``bench/workloads.py`` and ``tools/report_digest.py``
        read this view.
        """
        return [WindowReport(o, _to_window(r, o)) for o, r in self.reports()]

    def merge_output(self) -> IndependentSet:
        """Merge of every active window's current output."""
        return merge_reports(self.reports())


def _to_window(report: RunReport, origin: int) -> RunReport:
    """A report of the window at ``origin`` moved by -origin."""
    return report._replace(
        output=IndependentSet(iv.translate(-origin) for iv in report.output),
        winning_split_point=report.winning_split_point - origin,
    )


def merge_reports(reports: Iterable[WindowReport]) -> IndependentSet:
    """Pool every window's output and select a maximum subset.

    The pooled candidates number at most (delta - 1) * alpha; duplicates
    from overlapping windows are collapsed before the exact greedy pass.
    """
    pool: dict = {}
    for rep in reports:
        for iv in rep.report.output:
            pool.setdefault(iv.left, iv)
    return max_independent_set(list(pool.values()))


def run_windowed(delta: int, stream) -> IndependentSet:
    """Feed the stream through a fresh WindowMap and merge."""
    wm = WindowMap(delta)
    for iv in stream:
        wm.feed(iv)
    return wm.merge_output()
