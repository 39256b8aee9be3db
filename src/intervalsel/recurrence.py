"""Dynamic program certifying expected output-size lower bounds.

``out_lb(x)`` is a certified lower bound on the expected output size of
the split-point algorithm over uniformly random arrival orders, taken in
the worst case over instances whose maximum independent set has size x.
Base cases: out_lb(0) = 0, out_lb(1) = 1, out_lb(2) = 2, and out_lb(y) = 0
for y < 0.  For x >= 3 the table is filled bottom-up with

    out_lb(x) = 1 + (1/x) * sum_{i=1..x} max( out_lb(i-1) + out_lb(x-i-1),
                                              out_lb(x-i) + out_lb(i-2) )

The table stores exact rationals up to x = DEFAULT_EXACT_UNTIL = 64
(denominators grow multiplicatively) and double precision beyond it; the
two lanes are compared on their overlap and must agree to 1e-9 relative
error.  These are lower bounds throughout: the derived approximation
factors certify "at least this good", never exact performance.

The floating lane does not evaluate the x maxima directly.  With
a_j = v(j) + v(x-2-j) for j < x-1 and a_{x-1} = v(x-1), the two branches
of term i = j+1 are a_j and a_{x-1-j}, so by max(a, b) = (a+b+|a-b|)/2

    sum_j max(a_j, a_{x-1-j}) = 2 P(x-2) + v(x-1)
                                + sum_{j < x//2} |D(j) - D(x-1-j)|

where P is the prefix sum of v and D(k) = v(k) - v(k-1), D(0) = 0, the
increments, because a_j - a_{x-1-j} = D(j) - D(x-1-j).  Each step is
then one subtraction, one absolute value and one sum over x//2 cells.
The increments are exact in floating point (Sterbenz), as neighbouring
table values lie within a factor 2 of each other.  The running P is
Neumaier-compensated: a plain running sum drifts to ~8e-16 relative
error by x = 1200, against ~3e-16 for the direct evaluation of the
maxima and for the compensated form (measured against a 50-digit
decimal evaluation in the tests).  The exact lane keeps the direct
sum of the maxima, in integers scaled by 3*4*...*x (a multiple of every
denominator), so the 1e-9 cross-check compares two different
formulations.  ``out_lb`` reads the exact lane alone up to x = 64, and
numpy is imported only where the floating lane is built.

The restricted-domain factor for a window width delta is
min over alpha in {1..delta-1} of out_lb(alpha)/alpha, and the overall
(unrestricted) factor multiplies that by the window loss (delta-1)/delta.
``sweep`` reads both, and the binding alpha, off one pass over a table.

Filling the table is inherently sequential; evaluating factors from a
built table is read-only and thread-safe.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import TYPE_CHECKING, NamedTuple, Union

if TYPE_CHECKING:
    import numpy as np

Bound = Union[Fraction, float]

DEFAULT_EXACT_UNTIL = 64
AGREEMENT_RTOL = 1e-9

BARRIER_ADVERSARIAL = Fraction(2, 3)
BARRIER_SPACE = Fraction(8, 9)

DELTA5_NOTE = (
    "delta=5: overall factor computes to exactly 2/3, not strictly above it; "
    "the first window width strictly beating the 2/3 barrier is delta=6"
)


class OutTable(NamedTuple):
    """Certified lower bounds out_lb(0..x_max), exact then floating.

    ``ratio_violations`` lists the x where out_lb(x+1)/(x+1) exceeds
    out_lb(x)/x beyond x = 2.  The ratio looks non-increasing over every
    computed range, but that is observed structure, not a theorem, so
    violations are recorded for reporting instead of being asserted away.
    """

    x_max: int
    exact_limit: int
    exact: tuple[Fraction, ...]
    approx: np.ndarray
    max_rel_disagreement: float
    ratio_violations: tuple[int, ...] = ()

    def bound(self, x: int) -> Bound:
        """out_lb(x): exact Fraction when available, float beyond."""
        if x < 0:
            return Fraction(0)
        if x > self.x_max:
            raise IndexError(f"table covers x <= {self.x_max}, got {x}")
        if x <= self.exact_limit:
            return self.exact[x]
        return float(self.approx[x])


def _exact_lane(x_max: int) -> list[Fraction]:
    # out_lb(x) has a denominator dividing 3*4*...*x, so every value times
    # scale = 3*4*...*x_max is an integer and the division by x is exact.
    # Terms i and x+1-i hold the same two branches swapped: each pair is
    # summed once and doubled, the middle term of an odd x once.
    scale = math.prod(range(3, x_max + 1))
    lb = [0, scale, 2 * scale][: x_max + 1] + [0]  # lb[-1] = out_lb(-1) = 0
    for x in range(3, x_max + 1):
        total = 0
        for i in range(1, x // 2 + 1):
            total += max(lb[i - 1] + lb[x - i - 1], lb[x - i] + lb[i - 2])
        total *= 2
        if x % 2:
            i = (x + 1) // 2
            total += lb[i - 1] + lb[i - 2]
        cur = scale + total // x
        if cur < lb[x - 1] or cur > x * scale:
            raise ArithmeticError(
                f"out_lb({x}) = {Fraction(cur, scale)} breaks table invariants"
            )
        lb.insert(x, cur)
    return [Fraction(v, scale) for v in lb[:-1]]


def _aligned(a: np.ndarray, boundary: int) -> np.ndarray:
    """The view of ``a`` from its first element on a ``boundary``-byte address."""
    return a[(-a.ctypes.data % boundary) // a.itemsize :]


def _float_lane(x_max: int) -> np.ndarray:
    # Half-length form of the sum (module docstring):
    #   sum_j max(a_j, a_{x-1-j}) = sum_j a_j + sum_{j < x//2} |a_j - a_{x-1-j}|
    #   sum_j a_j = 2 P(x-2) + v[x-1],   a_j - a_{x-1-j} = d[j] - d[x-1-j]
    # with d[k] = v[k] - v[k-1] (d[0] = 0).  The running prefix sum P is
    # Neumaier-compensated (all terms are non-negative): a plain running sum
    # drifts to ~8e-16 relative error by x = 1200, against ~3e-16, and moves
    # printed digits of `dp --sweep 2..3000`.  r mirrors d (r[x_max-k] = d[k]),
    # so d[x-1-j] for j < x//2 is the contiguous slice r[x_max+1-x:].
    # d and r are cut from one array, each starting on a 4096-byte page, and
    # buf starts on a 64-byte cache line, because the loop's speed depends on
    # that alignment: at x_max 21999 on a 2-CPU x86 machine it took about
    # 0.22 s with all three on cache lines and 0.29 s with each 16 bytes past
    # one, where the allocator may place them.  Where buf lies relative to d
    # and r made no measurable difference, and a small heap block reuses
    # resident pages, so buf is allocated on its own.
    import numpy as np

    n = x_max + 1
    span = -(-n // 512) * 512  # whole 4096-byte pages of float64
    work = _aligned(np.zeros(2 * span + 512, dtype=np.float64), 4096)
    d, r = work[:n], work[span : span + n]
    buf = _aligned(np.empty(x_max // 2 + 9, dtype=np.float64), 64)
    v = np.zeros(n, dtype=np.float64)
    base = (0.0, 1.0, 2.0)[:n]
    v[: len(base)] = base
    d[1 : len(base)] = np.diff(base)
    r[:] = d[::-1]
    prefix, carry = 1.0, 0.0  # P(x-2) at x = 3, compensation
    prev = 2.0  # v[x-1]
    for x in range(3, x_max + 1):
        h = x // 2
        half = buf[:h]
        lo = x_max + 1 - x
        np.subtract(d[:h], r[lo : lo + h], half)
        np.abs(half, half)
        cur = 1.0 + (2.0 * (prefix + carry) + prev + float(np.add.reduce(half))) / x
        v[x] = cur
        d[x] = r[lo - 1] = cur - prev
        total = prefix + prev
        if prefix >= prev:
            carry += (prefix - total) + prev
        else:
            carry += (prev - total) + prefix
        prefix, prev = total, cur
    return v


def build_out_table(x_max: int) -> OutTable:
    """Fill out_lb(0..x_max) bottom-up and validate its shape.

    The exact lane covers x <= DEFAULT_EXACT_UNTIL.  Raises if the computed
    table ever decreases or exceeds the identity line (both would invalidate
    the certification), or if the exact and floating lanes disagree beyond
    1e-9 relative error on their overlap.
    """
    import numpy as np

    if x_max < 0:
        raise ValueError("x_max must be non-negative")

    exact_limit = min(x_max, DEFAULT_EXACT_UNTIL)
    exact = _exact_lane(exact_limit)
    approx = _float_lane(x_max)

    worst = 0.0
    for x in range(exact_limit + 1):
        e = float(exact[x])
        rel = abs(approx[x] - e) / max(abs(e), 1.0)
        worst = max(worst, rel)
    if worst > AGREEMENT_RTOL:
        raise ArithmeticError(
            f"exact and floating lanes disagree: relative error {worst:.3e}"
        )

    diffs = np.diff(approx)
    if (diffs < 0).any() or (approx > np.arange(x_max + 1)).any():
        raise ArithmeticError("floating lane breaks table invariants")

    violations: tuple[int, ...] = ()
    if x_max >= 4:
        xs = np.arange(2, x_max + 1, dtype=np.float64)
        ratios = approx[2:] / xs
        jumps = np.nonzero(ratios[1:] > ratios[:-1] * (1 + 1e-12))[0]
        violations = tuple(int(j) + 2 for j in jumps)

    return OutTable(
        x_max=x_max,
        exact_limit=exact_limit,
        exact=tuple(exact),
        approx=approx,
        max_rel_disagreement=worst,
        ratio_violations=violations,
    )


def out_lb(x: int) -> Bound:
    """out_lb(x) as ``build_out_table(max(x, 2)).bound(x)`` returns it.

    Up to DEFAULT_EXACT_UNTIL this reads the exact lane alone, without the
    floating lane or numpy.
    """
    if x < 0:
        return Fraction(0)
    if x <= DEFAULT_EXACT_UNTIL:
        return _exact_lane(x)[x]
    return build_out_table(x).bound(x)


class FactorRow(NamedTuple):
    delta: int
    restricted: Bound
    overall: Bound
    binding_alpha: int


class FactorCurve(NamedTuple):
    """Sweep of (restricted, overall) factors over a range of window widths.

    The overall curve is expected, but not assumed, to be non-decreasing;
    any observed decrease is recorded in ``monotone_violations`` rather than
    silently dropped.  The two reference barriers bracket the curve.
    """

    rows: tuple[FactorRow, ...]
    notes: tuple[str, ...]
    monotone_violations: tuple[int, ...]
    barrier_adversarial: Fraction = BARRIER_ADVERSARIAL
    barrier_space: Fraction = BARRIER_SPACE

    @property
    def overall_monotone(self) -> bool:
        return not self.monotone_violations


def sweep(delta_min: int, delta_max: int, table: OutTable | None = None) -> FactorCurve:
    """Rows (delta, restricted, overall, binding alpha) for a range of deltas.

    The running minimum over alpha is shared across the sweep, so the whole
    range costs one table build plus a linear pass.
    """
    if not 2 <= delta_min <= delta_max:
        raise ValueError("need 2 <= delta_min <= delta_max")
    if table is None:
        table = build_out_table(delta_max - 1)
    elif table.x_max < delta_max - 1:
        raise ValueError("supplied table does not cover the sweep range")

    # out_lb(1..delta_max-1) as table.bound reads it: exact, then float
    bounds = [
        *table.exact[:delta_max],
        *table.approx[table.exact_limit + 1 : delta_max].tolist(),
    ]
    rows: list[FactorRow] = []
    best: Bound = Fraction(1)
    best_alpha = 1
    for delta in range(2, delta_max + 1):
        a_new = delta - 1
        ratio = bounds[a_new] / a_new
        if ratio < best:
            best, best_alpha = ratio, a_new
        if delta >= delta_min:
            rows.append(
                FactorRow(
                    delta=delta,
                    restricted=best,
                    # a float best gives the float (delta-1)/delta * best
                    overall=Fraction(delta - 1, delta) * best,
                    binding_alpha=best_alpha,
                )
            )

    violations = tuple(
        cur.delta for prev, cur in zip(rows, rows[1:]) if cur.overall < prev.overall
    )
    notes = [DELTA5_NOTE] if delta_min <= 5 <= delta_max else []
    if table.ratio_violations:
        notes.append(
            f"out_lb(x)/x increased at x = {list(table.ratio_violations)}; "
            "the usual non-increasing trend did not hold on this range"
        )
    return FactorCurve(
        rows=tuple(rows),
        notes=tuple(notes),
        monotone_violations=violations,
    )
