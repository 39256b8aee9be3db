"""Independent reference implementations used only by the tests.

These deliberately share no code path with the library: the independent-set
size comes from a bitmask dynamic program over all subsets, and the
recurrence values from a direct memoised translation of the defining sum.
"""

from decimal import Decimal, localcontext
from fractions import Fraction
from functools import lru_cache

import numpy as np

from intervalsel.geometry import Scalar, UnitInterval, intersects
from intervalsel.recurrence import Bound, OutTable


def u(left) -> UnitInterval:
    """Unit interval from an int, Fraction, decimal string or Scalar left end."""
    return UnitInterval(Scalar.parse(str(left)))


def brute_force_alpha(intervals) -> int:
    """Maximum independent-set size by subset DP (n <= ~20)."""
    n = len(intervals)
    conflict = [0] * n
    for i in range(n):
        for j in range(n):
            if i != j and intersects(intervals[i], intervals[j]):
                conflict[i] |= 1 << j
    ok = bytearray(1 << n)
    ok[0] = 1
    best = 0
    for mask in range(1, 1 << n):
        low = mask & -mask
        i = low.bit_length() - 1
        rest = mask ^ low
        if ok[rest] and not (conflict[i] & rest):
            ok[mask] = 1
            best = max(best, mask.bit_count())
    return best


def brute_force_independent(intervals) -> bool:
    return all(
        not intersects(intervals[i], intervals[j])
        for i in range(len(intervals))
        for j in range(i + 1, len(intervals))
    )


@lru_cache(maxsize=None)
def direct_out(x: int) -> Fraction:
    """Direct summation of the defining recurrence, independent of the table."""
    if x <= 0:
        return Fraction(0)
    if x == 1:
        return Fraction(1)
    if x == 2:
        return Fraction(2)
    total = sum(
        max(
            direct_out(i - 1) + direct_out(x - i - 1),
            direct_out(x - i) + direct_out(i - 2),
        )
        for i in range(1, x + 1)
    )
    return 1 + Fraction(total, x)


def reference_float_lane(x_max: int) -> np.ndarray:
    """The float lane in its direct form: max(first, first[::-1]) summed."""
    v = np.zeros(x_max + 1, dtype=np.float64)
    if x_max >= 1:
        v[1] = 1.0
    if x_max >= 2:
        v[2] = 2.0
    buf = np.empty(x_max + 1, dtype=np.float64)
    for x in range(3, x_max + 1):
        w = buf[:x]
        w[: x - 1] = v[x - 2 :: -1]
        w[x - 1] = 0.0
        first = v[:x] + w
        v[x] = 1.0 + float(np.maximum(first, first[::-1]).sum()) / x
    return v


def reference_min_ratio(delta: int, table: OutTable) -> tuple[Bound, int]:
    """Restricted factor and binding alpha by a direct minimum over the table:
    exact Fractions while delta - 1 is in the exact lane, else one numpy
    argmin over the float lane."""
    if delta < 2:
        raise ValueError("delta must be at least 2")
    if table.x_max < delta - 1:
        raise ValueError(f"table covers x <= {table.x_max}; delta={delta} needs {delta - 1}")
    if delta - 1 <= table.exact_limit:
        best: Bound = Fraction(1)
        best_alpha = 1
        for a in range(2, delta):
            ratio = table.exact[a] / a
            if ratio < best:
                best, best_alpha = ratio, a
        return best, best_alpha
    ratios = table.approx[1:delta] / np.arange(1, delta, dtype=np.float64)
    idx = int(np.argmin(ratios))
    return float(ratios[idx]), idx + 1


def decimal_lane(x_max: int, digits: int = 50) -> list[Decimal]:
    """The defining recurrence summed directly in ``digits``-digit decimals."""
    values = [Decimal(0), Decimal(1), Decimal(2)][: x_max + 1]
    with localcontext() as ctx:
        ctx.prec = digits
        for x in range(3, x_max + 1):
            lb = values + [Decimal(0)]  # lb[-1] = out_lb(-1) = 0
            total = Decimal(0)
            for i in range(1, x + 1):
                total += max(lb[i - 1] + lb[x - i - 1], lb[x - i] + lb[i - 2])
            values.append(1 + total / x)
    return values


def random_intervals(rng, delta: int, n: int) -> list[UnitInterval]:
    """n arbitrary unit intervals inside [0, delta), mixed denominators."""
    out = []
    for _ in range(n):
        den = (1, 2, 4, 1 << 20)[rng.below(4)]
        out.append(UnitInterval(Scalar(rng.below((delta - 1) * den), den)))
    return out


# chi-square 0.999 quantiles by degrees of freedom, for uniformity checks
CHI2_CRIT_999 = {5: 20.515, 7: 24.322, 11: 31.264}
