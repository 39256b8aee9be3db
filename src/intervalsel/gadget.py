"""Hard-instance construction coupling interval selection to bit recovery.

The construction stacks t mutually overlapping unit intervals (a clique,
so any independent set keeps at most one of them) and two wing intervals
around the clique member at a secret index A:

    I[i]  = [ i/(t+1) + b_i/t**2,  1 + i/(t+1) + b_i/t**2 ]      b_i in {0,1}
    J_L   = [ A/(t+1) - 1/t**3 - 1,  A/(t+1) - 1/t**3 ]
    J_R   = [ 1 + A/(t+1) + 1/t**2 + 1/t**3,  2 + A/(t+1) + 1/t**2 + 1/t**3 ]

Every clique interval other than I[A] intersects exactly one wing, so the
unique independent set of size 3 is {J_L, I[A], J_R}; recovering it reveals
the bit b_A.  The wing geometry needs 1/(t+1) >= 1/t**2 + 1/t**3, which
holds exactly for t >= 3 and is checked per instance.

Arrival order: a bijection assigns each of the t+2 logical items (t bit
items plus the two wing items) a stream position.  Items arriving before
the earlier wing position j' carry the sender's private bits; items at or
after j' carry public bits or the wings.  The resulting stream is a
uniform random order of the finished instance when the bijection is drawn
uniformly.

Simulation samples are independent: sample k draws everything from
``derive(seed, k)``, so ``rng.map_trials`` may run blocks of samples in
parallel.  A sample returns its outcome (output size, bit recovered
correctly, target built privately); ``map_trials`` counts samples per
outcome, and the protocol statistics are read off those counts.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from typing import Callable, NamedTuple, Sequence, Union

from .geometry import (
    CheckError,
    IndependentSet,
    Scalar,
    UnitInterval,
    intersects,
    max_independent_set,
)
from .rng import SplitMix64, derive, fisher_yates, map_trials

MIN_T = 3
# The largest coordinate built is the left end of J_R at A = t - 1,
# 1 + (t-1)/(t+1) + 1/t**2 + 1/t**3 = (2t**4 + t**2 + 2t + 1) / (t**3 (t+1)),
# in lowest terms for even t.  Its numerator fits the signed 64-bit range up
# to t = 46,341, so every construction with MIN_T <= t <= MAX_T fits (some
# odd t beyond it fit too, as the fraction then reduces by 2).
MAX_T = 46_341

Algorithm = Callable[[Sequence[UnitInterval]], IndependentSet]


class GadgetInvariantError(CheckError):
    """A structural property of the construction failed; names the property."""


class GadgetInstance(NamedTuple):
    """One sampled instance: bits, arrival bijection, and the built intervals.

    ``clique_positions[i]`` is the stream position of clique interval i;
    the wing positions complete the bijection over [t+2].  ``stream`` lists
    the intervals in arrival order.
    """

    t: int
    index: int
    alice_bits: tuple[int, ...]
    public_bits: tuple[int, ...]
    clique_positions: tuple[int, ...]
    wing_left_position: int
    wing_right_position: int
    clique: tuple[UnitInterval, ...]
    wing_left: UnitInterval
    wing_right: UnitInterval

    @property
    def n(self) -> int:
        return self.t + 2

    @property
    def first_wing_position(self) -> int:
        return min(self.wing_left_position, self.wing_right_position)

    @property
    def target_position(self) -> int:
        return self.clique_positions[self.index]

    @property
    def alice_built_target(self) -> bool:
        """True iff the target interval arrives before both wings."""
        return self.target_position < self.first_wing_position

    @property
    def stream(self) -> tuple[UnitInterval, ...]:
        order: list[UnitInterval | None] = [None] * self.n
        for i, pos in enumerate(self.clique_positions):
            order[pos] = self.clique[i]
        order[self.wing_left_position] = self.wing_left
        order[self.wing_right_position] = self.wing_right
        return tuple(order)  # type: ignore[arg-type]


def wing_gap_inequality_holds(t: int) -> bool:
    """1/(t+1) >= 1/t**2 + 1/t**3: neighbours reach their wing, exactly."""
    return Fraction(1, t + 1) >= Fraction(1, t * t) + Fraction(1, t**3)


def check_t(t: int) -> None:
    """Refuse a clique size outside [MIN_T, MAX_T] with a ValueError."""
    if t < MIN_T:
        raise ValueError(
            f"t must be >= {MIN_T}: for smaller t the wing gap inequality "
            "1/(t+1) >= 1/t^2 + 1/t^3 fails and off-target intervals miss their wing"
        )
    if t > MAX_T:
        raise ValueError(
            f"t must be <= {MAX_T}: larger constructions leave the 64-bit "
            "coordinate range"
        )


def build(
    t: int,
    index: int,
    alice_bits: Sequence[int],
    public_bits: Sequence[int],
    sigma: Sequence[int],
) -> GadgetInstance:
    """Construct the instance for one draw of bits and arrival bijection.

    ``sigma[item]`` is the stream position of logical item ``item``: items
    0..t-1 are the clique bit items, item t the left wing, item t+1 the
    right wing.
    """
    check_t(t)
    if not 0 <= index < t:
        raise ValueError(f"index must lie in [0, {t})")
    if len(alice_bits) != t or len(public_bits) != t:
        raise ValueError("bit vectors must have length t")
    if any(b not in (0, 1) for b in (*alice_bits, *public_bits)):
        raise ValueError("bit vectors must be 0/1")
    if sorted(sigma) != list(range(t + 2)):
        raise ValueError("sigma must be a bijection onto positions 0..t+1")

    j_prime = min(sigma[t], sigma[t + 1])

    # Each left end is one fraction, which Scalar reduces before its range
    # check: I[i] over t**2 (t+1), the wings over t**3 (t+1), where
    # 1/t**2 + 1/t**3 = (t+1)**2 / (t**3 (t+1)).
    t_sq = t * t
    t_cu = t_sq * t
    clique = []
    for i in range(t):
        bit = alice_bits[i] if sigma[i] < j_prime else public_bits[i]
        clique.append(UnitInterval(Scalar(i * t_sq + bit * (t + 1), t_sq * (t + 1))))

    den = t_cu * (t + 1)
    wing_left = UnitInterval(Scalar(index * t_cu - (t + 1) - den, den))
    wing_right = UnitInterval(Scalar(index * t_cu + (t + 1) ** 2 + den, den))

    return GadgetInstance(
        t=t,
        index=index,
        alice_bits=tuple(alice_bits),
        public_bits=tuple(public_bits),
        clique_positions=tuple(sigma[:t]),
        wing_left_position=sigma[t],
        wing_right_position=sigma[t + 1],
        clique=tuple(clique),
        wing_left=wing_left,
        wing_right=wing_right,
    )


def sample_sigma(t: int, rng: SplitMix64) -> list[int]:
    """Uniform bijection item -> position over t+2 items."""
    perm = fisher_yates(range(t + 2), rng)
    positions = [0] * (t + 2)
    for pos, item in enumerate(perm):
        positions[item] = pos
    return positions


def random_gadget(t: int, rng: SplitMix64) -> GadgetInstance:
    """Draw bits, a target index, and an arrival bijection uniformly."""
    check_t(t)
    alice_bits = rng.bits(t)
    index = rng.below(t)
    public_bits = rng.bits(t)
    return build(t, index, alice_bits, public_bits, sample_sigma(t, rng))


class VerificationReport(NamedTuple):
    t: int
    index: int
    alpha: int
    clique_pairwise_intersecting: bool
    wing_incidence_ok: bool
    target_independent_of_wings: bool
    unique_triple: bool
    wing_gap_inequality: bool
    triple_checked_exhaustively: bool
    n: int
    target_built_privately: bool
    first_wing_position: int


def verify(g: GadgetInstance, exhaustive: bool = False) -> VerificationReport:
    """Check every structural guarantee with exact arithmetic.

    Raises GadgetInvariantError naming the violated property.  Uniqueness
    of the size-3 set follows from the clique property (at most one clique
    member per independent set, so a 3-set must hold both wings) plus the
    per-interval wing incidence counts; ``exhaustive=True`` additionally
    enumerates all triples, which is only practical for modest t.
    """
    if not wing_gap_inequality_holds(g.t):
        raise GadgetInvariantError(f"wing gap inequality fails for t={g.t}")

    # Unit intervals pairwise intersect iff the extreme left endpoints are
    # at most 1 apart, so the pair to check is the left-most and right-most.
    first = min(range(g.t), key=lambda k: g.clique[k].left)
    last = max(range(g.t), key=lambda k: g.clique[k].left)
    if not intersects(g.clique[first], g.clique[last]):
        a, b = sorted((first, last))
        raise GadgetInvariantError(f"clique intervals {a} and {b} fail to intersect")

    for i, iv in enumerate(g.clique):
        hits_left = intersects(iv, g.wing_left)
        hits_right = intersects(iv, g.wing_right)
        if i == g.index:
            if hits_left or hits_right:
                raise GadgetInvariantError(f"target interval {i} intersects a wing")
        elif i < g.index:
            if not hits_left or hits_right:
                raise GadgetInvariantError(
                    f"clique interval {i} < target must intersect exactly the left wing"
                )
        elif hits_left or not hits_right:
            raise GadgetInvariantError(
                f"clique interval {i} > target must intersect exactly the right wing"
            )

    instance = list(g.clique) + [g.wing_left, g.wing_right]
    a = len(max_independent_set(instance))
    if a != 3:
        raise GadgetInvariantError(f"oracle alpha is {a}, expected 3")

    # With the incidence counts proven, any independent triple must be both
    # wings plus the one clique interval independent of both: the target.
    IndependentSet([g.wing_left, g.clique[g.index], g.wing_right])

    if exhaustive:
        triple = {g.wing_left.left, g.clique[g.index].left, g.wing_right.left}
        found = []
        n = len(instance)
        for x in range(n):
            for y in range(x + 1, n):
                if intersects(instance[x], instance[y]):
                    continue
                for z in range(y + 1, n):
                    if not intersects(instance[x], instance[z]) and not intersects(
                        instance[y], instance[z]
                    ):
                        found.append({instance[x].left, instance[y].left, instance[z].left})
        if found != [triple]:
            raise GadgetInvariantError(
                f"expected exactly one independent triple, found {len(found)}"
            )

    return VerificationReport(
        t=g.t,
        index=g.index,
        alpha=a,
        clique_pairwise_intersecting=True,
        wing_incidence_ok=True,
        target_independent_of_wings=True,
        unique_triple=True,
        wing_gap_inequality=True,
        triple_checked_exhaustively=exhaustive,
        n=g.n,
        target_built_privately=g.alice_built_target,
        first_wing_position=g.first_wing_position,
    )


def _target_first(t: int, seed: int, k: int) -> bool:
    """Whether draw k places the target before both wings."""
    rng = derive(seed, k)
    index = rng.below(t)
    positions = sample_sigma(t, rng)
    return positions[index] < min(positions[t], positions[t + 1])


def wing_after_probability(t: int, samples: int, seed: int) -> float:
    """Fraction of uniform draws where the target precedes both wings.

    Only the relative order of three of the t+2 items matters, so the
    fraction concentrates at 1/3 for every t >= 1.
    """
    if samples < 1:
        raise ValueError("need at least one sample")
    if t < 1:
        raise ValueError("need at least one clique item")
    return map_trials(_target_first, (t, seed), samples, 1)[True] / samples


# --- protocol simulation ----------------------------------------------------


def _first_only_algorithm(stream: Sequence[UnitInterval]) -> IndependentSet:
    return IndependentSet(list(stream[:1]))


def resolve_algorithm(name: str) -> Algorithm:
    """Map "oracle", "first" or "windowed:DELTA" to a stream consumer."""
    if name == "oracle":
        return max_independent_set
    if name == "first":
        return _first_only_algorithm
    if name.startswith("windowed:"):
        try:
            delta = int(name.split(":", 1)[1])
        except ValueError:
            raise ValueError(
                f"bad algorithm {name!r}: expected oracle, first or windowed:DELTA"
            ) from None
        if delta < 2:  # refused here, before a sample or a pool starts
            raise ValueError("delta must be at least 2")
        from .windows import run_windowed

        return lambda stream: run_windowed(delta, stream)
    raise ValueError(f"unknown algorithm {name!r}")


class BranchStats(NamedTuple):
    samples: int
    success_rate: float
    mean_output_size: float


class ProtocolStats(NamedTuple):
    """Aggregate outcome of simulating the recovery protocol."""

    t: int
    n: int
    samples: int
    success_rate: float
    mean_output_size: float
    approx_factor: float
    unique_triple_rate: float
    target_built_privately: BranchStats
    target_built_publicly: BranchStats


def _run_sample(
    t: int, algorithm: Union[str, Algorithm], seed: int, k: int
) -> tuple[int, bool, bool]:
    """Protocol round k: returns (output size, bit correct, target built privately).

    A size-3 output must be the stream's {J_L, I[A], J_R}; any other raises
    GadgetInvariantError.  A registry name is resolved here, so only the name
    crosses to a worker.
    """
    fn = resolve_algorithm(algorithm) if isinstance(algorithm, str) else algorithm
    rng = derive(seed, k)
    g = random_gadget(t, rng)
    raw = fn(g.stream)
    output = raw if isinstance(raw, IndependentSet) else IndependentSet(raw)
    size = len(output)
    if size > 3:
        raise GadgetInvariantError(f"algorithm produced size {size} > alpha = 3")

    if size == 3 and set(output) != {g.wing_left, g.clique[g.index], g.wing_right}:
        raise GadgetInvariantError("size-3 output is not the stream's {J_L, I[A], J_R}")
    # A triple whose I[A] Alice built carries her bit; otherwise a coin decides.
    correct = (size == 3 and g.alice_built_target) or rng.bit() == g.alice_bits[g.index]
    return size, correct, g.alice_built_target


def _totals(outcomes: Counter, private: bool | None = None) -> BranchStats:
    """Totals over the samples whose target was built privately (True),
    publicly (False), or over every sample (None)."""
    samples = successes = size_sum = 0
    for (size, correct, built_privately), n in outcomes.items():
        if private is None or built_privately == private:
            samples += n
            successes += correct * n
            size_sum += size * n
    if not samples:
        return BranchStats(0, 0.0, 0.0)
    return BranchStats(samples, successes / samples, size_sum / samples)


def simulate_protocol(
    t: int,
    samples: int,
    algorithm: Union[str, Algorithm],
    seed: int,
    threads: int = 1,
) -> ProtocolStats:
    """Simulate the one-pass recovery protocol against a streaming algorithm.

    Per sample: draw bits, target index and arrival bijection; build the
    instance; run the algorithm over the arrival-ordered stream; recover a
    bit per the output rule (a coin flip unless the output is the full
    triple and the target was built from the private bits).  Reports the
    recovery success rate, the achieved approximation factor (mean size
    over 3), and the breakdown by who built the target interval.

    ``algorithm`` may be a registry name ("oracle", "first",
    "windowed:DELTA") or any callable from a stream to an independent set;
    parallel execution needs the picklable name form.
    """
    if isinstance(algorithm, str):
        resolve_algorithm(algorithm)  # a bad name fails before any sample runs
    if samples < 1:
        raise ValueError("need at least one sample")

    # A callable may not pickle, so only a registry name runs in parallel.
    workers = threads if isinstance(algorithm, str) else 1
    outcomes = map_trials(_run_sample, (t, algorithm, seed), samples, workers)
    total = _totals(outcomes)
    triples = sum(n for (size, _, _), n in outcomes.items() if size == 3)
    return ProtocolStats(
        t=t,
        n=t + 2,
        samples=samples,
        success_rate=total.success_rate,
        mean_output_size=total.mean_output_size,
        approx_factor=total.mean_output_size / 3.0,
        unique_triple_rate=triples / samples,
        target_built_privately=_totals(outcomes, True),
        target_built_publicly=_totals(outcomes, False),
    )
