"""The split-point recursion as an explicit tree, used only by the tests.

This is the library's earlier ``InstanceState``, its logic unchanged:
every recursion node is materialised as its own object and fed separately,
and the counters are two full-tree walks.  It is the independent reference the
hash-consed implementation in ``intervalsel.restricted`` is compared with,
as ``brute.py`` is for alpha and the recurrence.  It costs about 5x per
domain unit, so keep streams small.
"""

from __future__ import annotations

from intervalsel.geometry import Domain, IndependentSet, UnitInterval, contained_in
from intervalsel.restricted import (
    LEFT_CANDIDATE,
    RIGHT_CANDIDATE,
    DomainError,
    RunReport,
)


class InstanceState:
    """One node of the recursive algorithm, confined to an integer domain."""

    __slots__ = ("domain", "_r", "_l", "_tr", "_ar", "_tl", "_al")

    def __init__(self, domain: Domain):
        self.domain = domain
        self._r: dict[int, UnitInterval] = {}
        self._l: dict[int, UnitInterval] = {}
        self._tr: dict[int, InstanceState] = {}
        self._ar: dict[int, InstanceState] = {}
        self._tl: dict[int, InstanceState] = {}
        self._al: dict[int, InstanceState] = {}

    def feed(self, interval: UnitInterval) -> None:
        """Route one arriving interval through every split point.

        Raises DomainError unless the interval lies inside this domain;
        recursive feeds below satisfy containment by construction and skip
        the check.
        """
        if not contained_in(interval, self.domain):
            raise DomainError(f"{interval} not contained in {self.domain}")
        self._feed(interval)

    def _feed(self, iv: UnitInterval) -> None:
        # Containment at an inner node reduces to integer tests against the
        # floor of the left endpoint: with a <= x and x+1 < b guaranteed,
        # I lies in [i, b) iff i <= floor(x), and in [a, i) iff i >= floor(x)+2.
        a = self.domain.a
        b = self.domain.b
        left = iv.left
        num = left.num
        den = left.den
        fl = num // den

        for i in range(a + 1, fl + 1):
            child = self._tr.get(i)
            if child is None:
                child = InstanceState(Domain(i, b))
                self._tr[i] = child
            child._feed(iv)
            r = self._r.get(i)
            if r is None or left < r.left:
                self._r[i] = iv
                r = iv
            rl = r.left
            # independent of and further right than the slot: x > R_i + 1
            if num * rl.den > (rl.num + rl.den) * den:
                child = self._ar.get(i)
                if child is None:
                    child = InstanceState(Domain(i, b))
                    self._ar[i] = child
                child._feed(iv)

        for i in range(fl + 2, b):
            child = self._tl.get(i)
            if child is None:
                child = InstanceState(Domain(a, i))
                self._tl[i] = child
            child._feed(iv)
            l = self._l.get(i)
            if l is None or left > l.left:
                self._l[i] = iv
                l = iv
            ll = l.left
            # independent of and further left than the slot: x < L_i - 1
            if num * ll.den < (ll.num - ll.den) * den:
                child = self._al.get(i)
                if child is None:
                    child = InstanceState(Domain(a, i))
                    self._al[i] = child
                child._feed(iv)

    def _best(self) -> tuple[list[UnitInterval], int | None, str | None]:
        best: list[UnitInterval] = []
        best_point: int | None = None
        best_side: str | None = None
        a, b = self.domain.a, self.domain.b
        if b - a >= 2:
            best_point = a + 1
            best_side = RIGHT_CANDIDATE
        for i in range(a + 1, b):
            tl = self._tl.get(i)
            cand = tl._best()[0] if tl is not None else []
            r = self._r.get(i)
            if r is not None:
                cand = cand + [r]
            ar = self._ar.get(i)
            if ar is not None:
                cand = cand + ar._best()[0]
            if len(cand) > len(best):
                best, best_point, best_side = cand, i, RIGHT_CANDIDATE

            al = self._al.get(i)
            cand = al._best()[0] if al is not None else []
            l = self._l.get(i)
            if l is not None:
                cand = cand + [l]
            tr = self._tr.get(i)
            if tr is not None:
                cand = cand + tr._best()[0]
            if len(cand) > len(best):
                best, best_point, best_side = cand, i, LEFT_CANDIDATE
        return best, best_point, best_side

    def output(self) -> RunReport:
        """Largest candidate over all split points, validated as independent."""
        best, point, side = self._best()
        return RunReport(
            output=IndependentSet(best),
            winning_split_point=point,
            winning_side=side,
            instances_touched=self._count_instances(),
            peak_stored_intervals=self._count_stored(),
        )

    def _count_instances(self) -> int:
        total = 1
        for children in (self._tr, self._ar, self._tl, self._al):
            for child in children.values():
                total += child._count_instances()
        return total

    def _count_stored(self) -> int:
        total = len(self._r) + len(self._l)
        for children in (self._tr, self._ar, self._tl, self._al):
            for child in children.values():
                total += child._count_stored()
        return total
