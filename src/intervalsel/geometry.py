"""Exact interval primitives and the offline independent-set oracle.

Coordinates are reduced rationals confined to the signed 64-bit range.
They are built once, compared with each other and shifted by integers;
a construction or a shift that would leave that range raises instead of
wrapping or silently falling back to floats, so every geometric predicate
in this package is exact by construction.

The four value types share one protocol, written once in ``_Value``: they
are immutable after construction, and they pickle, compare, hash and print
through the tuple of their slot values.  All are safe to share between
threads; the module functions are pure.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Sequence

I64_MIN = -(1 << 63)
I64_MAX = (1 << 63) - 1


class ScalarOverflowError(ArithmeticError):
    """A rational result left the signed 64-bit numerator/denominator range."""


class ParseError(ValueError):
    """Malformed coordinate or interval text."""


class DomainError(ValueError):
    """An interval was fed to an instance whose domain does not contain it."""


class CheckError(RuntimeError):
    """A hard check of an algorithm's output or of a construction failed.

    Base of ``harness.ValidationError`` and ``gadget.GadgetInvariantError``,
    declared here so that the CLI can map both to exit 1 without importing
    either module.
    """


# Bounds on coordinate text.  Inside them the largest integer Fraction can
# build has about 2,000 digits, which is cheap to build and to print; a
# coordinate in the 64-bit range needs far fewer.
MAX_COORDINATE_CHARS = 1000
MAX_DECIMAL_EXPONENT = 1000


def _decimal_exponent(body: str) -> int:
    """The exponent after ``e`` in decimal text, or 0 if there is none to read.

    Text that is not a well-formed number is left for ``Fraction`` to refuse.
    """
    _, marker, exponent = body.lower().partition("e")
    if not marker:
        return 0
    try:
        return int(exponent)
    except ValueError:
        return 0


class _Value:
    """Base of the value types: the fields are the subclass's ``__slots__``.

    ``__init__`` writes each field once through ``object.__setattr__``;
    after that any assignment raises.  Pickling, equality, hashing and
    ``repr`` (``Name(field=value, ...)``) all read the tuple of field values.
    """

    __slots__ = ()

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __reduce__(self):
        return (type(self), self._values())

    def __eq__(self, other) -> bool:
        if type(other) is type(self):
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        shown = ", ".join(
            f"{name}={value!r}" for name, value in zip(self.__slots__, self._values())
        )
        return f"{type(self).__name__}({shown})"


class Scalar(_Value):
    """A reduced rational with 64-bit numerator and positive 64-bit denominator.

    Always stored with gcd(|num|, den) = 1 and den > 0; the range is checked
    after reduction, so a construction that leaves it raises.  ``<`` is the
    one ordering and is exact (the cross products are Python integers, never
    stored); ``a > b`` is Python's reflection, ``b < a``.  Its operands are
    Scalars only.  Equality and hashing are the base's, on ``(num, den)``;
    a sort by left endpoint calls only ``<``.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: int, den: int = 1):
        if den == 0:
            raise ZeroDivisionError("scalar with zero denominator")
        if den < 0:
            num, den = -num, -den
        g = math.gcd(num, den)
        if g > 1:
            num //= g
            den //= g
        if not (I64_MIN <= num <= I64_MAX) or den > I64_MAX:
            raise ScalarOverflowError(f"{num}/{den} outside the 64-bit range")
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    @classmethod
    def parse(cls, text: str) -> "Scalar":
        """Parse ``"3"``, ``"1/4"`` or a decimal like ``"0.25"`` exactly.

        Decimals are read as base-10 rationals (0.25 -> 1/4), never as
        binary floats.  Text longer than ``MAX_COORDINATE_CHARS`` or with a
        decimal exponent beyond ``MAX_DECIMAL_EXPONENT`` is refused before
        ``Fraction`` builds the power of ten.
        """
        body = text.strip()
        if len(body) > MAX_COORDINATE_CHARS:
            raise ParseError(
                f"coordinate of {len(body)} characters, "
                f"more than {MAX_COORDINATE_CHARS}"
            )
        if abs(_decimal_exponent(body)) > MAX_DECIMAL_EXPONENT:
            raise ParseError(
                f"bad coordinate {body!r}: exponent beyond {MAX_DECIMAL_EXPONENT}"
            )
        try:
            frac = Fraction(body)
        except (ValueError, ZeroDivisionError) as exc:
            raise ParseError(f"bad coordinate {body!r}: {exc}") from None
        try:
            return cls(frac.numerator, frac.denominator)
        except ScalarOverflowError:
            raise ScalarOverflowError(
                f"coordinate {body!r} outside the 64-bit range"
            ) from None

    def floor(self) -> int:
        return self.num // self.den

    def __lt__(self, other) -> bool:
        if not isinstance(other, Scalar):
            return NotImplemented
        return self.num * other.den < other.num * self.den

    def __str__(self) -> str:
        return str(self.num) if self.den == 1 else f"{self.num}/{self.den}"


# UnitInterval and Domain are plain slotted classes rather than NamedTuples:
# their fields are read in the feed's inner loops, and CPython 3.11 reads a
# slot about three times faster than a NamedTuple field.


class UnitInterval(_Value):
    """Closed interval [left, left + 1].

    The right endpoint is implicit: unit length is a construction invariant,
    not a stored field that could drift.
    """

    __slots__ = ("left",)

    def __init__(self, left: Scalar):
        object.__setattr__(self, "left", left)

    @property
    def right(self) -> Scalar:
        left = self.left
        return Scalar(left.num + left.den, left.den)

    def translate(self, k: int) -> "UnitInterval":
        """The interval shifted by the integer k, such as a window origin."""
        left = self.left
        return UnitInterval(Scalar(left.num + k * left.den, left.den))

    def __str__(self) -> str:
        return f"[{self.left}, {self.right}]"


class Domain(_Value):
    """Half-open integer domain [a, b)."""

    __slots__ = ("a", "b")

    def __init__(self, a: int, b: int):
        if a >= b:
            raise ValueError(f"domain [{a}, {b}) requires a < b")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)

    def __str__(self) -> str:
        return f"[{self.a}, {self.b})"


def intersects(i: UnitInterval, j: UnitInterval) -> bool:
    """True iff the closed intervals share a point: |i.left - j.left| <= 1.

    Touching endpoints count as intersecting; [0,1] and [1,2] conflict.
    """
    il, jl = i.left, j.left
    diff = il.num * jl.den - jl.num * il.den
    return abs(diff) <= il.den * jl.den


def contained_in(i: UnitInterval, d: Domain) -> bool:
    """True iff [left, left+1] lies inside [a, b): a <= left and left + 1 < b.

    The right boundary is open, so no unit interval fits a length-1 domain.
    """
    left = i.left
    return left.num >= d.a * left.den and left.num + left.den < d.b * left.den


class IndependentSet(_Value):
    """A pairwise-independent set of unit intervals, sorted by left endpoint.

    Construction validates independence; for unit intervals sorted by left
    endpoint this reduces to checking consecutive pairs.
    """

    __slots__ = ("intervals",)

    def __init__(self, intervals: Iterable[UnitInterval] = ()):
        items = sorted(intervals, key=lambda iv: iv.left)
        for prev, cur in zip(items, items[1:]):
            if intersects(prev, cur):
                raise ValueError(f"intervals {prev} and {cur} intersect")
        object.__setattr__(self, "intervals", tuple(items))

    def __len__(self) -> int:
        return len(self.intervals)

    def __iter__(self):
        return iter(self.intervals)


def max_independent_set(intervals: Sequence[UnitInterval]) -> IndependentSet:
    """Largest independent subset via the earliest-right-endpoint greedy sweep.

    Deterministic: sort by left endpoint, which for unit intervals is the
    order of right endpoints, and accept an interval only if it is strictly
    independent of the last one chosen.  The sort is stable, so among equal
    intervals the first to arrive is kept.  For intervals the greedy sweep
    is exactly optimal.
    """
    chosen: list[UnitInterval] = []
    for iv in sorted(intervals, key=lambda iv: iv.left):
        if not chosen or not intersects(chosen[-1], iv):
            chosen.append(iv)
    return IndependentSet(chosen)


def alpha(intervals: Sequence[UnitInterval]) -> int:
    """Maximum independent-set size of the instance."""
    return len(max_independent_set(intervals))


# --- interval text format -------------------------------------------------
#
# One interval per line, identified by its left endpoint: a decimal
# ("0.25"), a rational ("1/4") or an integer.  Lines starting with '#'
# and blank lines are ignored.  Shared by every CLI subcommand.


def parse_intervals(text: str) -> list[UnitInterval]:
    intervals = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        try:
            iv = UnitInterval(Scalar.parse(line))
            iv.right  # the right end, left + 1, must fit the 64-bit range too
        except (ParseError, ScalarOverflowError) as exc:
            raise type(exc)(f"line {lineno}: {exc}") from None
        intervals.append(iv)
    return intervals


def format_intervals(intervals: Iterable[UnitInterval]) -> str:
    return "\n".join(str(iv.left) for iv in intervals)
