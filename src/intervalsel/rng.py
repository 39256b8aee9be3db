"""Deterministic 64-bit randomness for reproducible experiments.

The generator is SplitMix64: state advances by the golden-gamma constant
and is finalised with the standard two-round mixer.  It is fixed here so
trials replay bit-identically on any platform or thread count.

Substreams are derived, not advanced: ``derive(seed, k)`` seeds a fresh
generator from mix64(seed XOR mix64(k + 1)), so trial k's randomness is a
pure function of (seed, k) and independent of evaluation order.
``map_trials`` relies on exactly that to split a run into blocks of trials
and evaluate them on any number of worker processes.
"""

from __future__ import annotations

import os
from collections import Counter

MASK64 = (1 << 64) - 1
GOLDEN_GAMMA = 0x9E3779B97F4A7C15


def mix64(z: int) -> int:
    z &= MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
    return z ^ (z >> 31)


class SplitMix64:
    __slots__ = ("state",)

    def __init__(self, seed: int):
        self.state = seed & MASK64

    def next_u64(self) -> int:
        self.state = (self.state + GOLDEN_GAMMA) & MASK64
        return mix64(self.state)

    def below(self, n: int) -> int:
        """Uniform integer in [0, n), unbiased via rejection."""
        if n <= 0:
            raise ValueError("below() needs n >= 1")
        limit = MASK64 - (MASK64 + 1) % n
        while True:
            u = self.next_u64()
            if u <= limit:
                return u % n

    def bit(self) -> int:
        return self.next_u64() >> 63

    def bits(self, count: int) -> tuple[int, ...]:
        return tuple(self.bit() for _ in range(count))


def derive(seed: int, index: int) -> SplitMix64:
    """Independent substream k of a master seed; pure in (seed, index)."""
    return SplitMix64(mix64((seed & MASK64) ^ mix64(index + 1)))


def map_trials(block, args: tuple, n: int, threads: int) -> Counter:
    """Outcome counts of trials 0..n-1, summed over blocks of trials.

    ``block(*args, start, stop)`` must return a Counter of the outcomes of
    trials start..stop-1, each drawn only from its own ``derive`` substream,
    so that every split of the range gives the same total.  Runs in this
    process when ``threads <= 1`` or ``n < 4``.  Otherwise trial 0 runs here
    first, so an error every trial shares (a grid over budget) is raised
    before a pool starts; trials 1..n-1 are split into about
    ``4 * threads`` blocks and mapped over a process pool of
    min(threads, blocks, CPU count) workers, which needs ``block`` and
    ``args`` to be picklable.  The pool module, and ``multiprocessing`` with
    it, is imported only here, so a serial run never loads it.
    """
    if threads <= 1 or n < 4:
        return block(*args, 0, n)
    first = block(*args, 0, 1)
    from concurrent.futures import ProcessPoolExecutor

    chunk = -(-(n - 1) // (threads * 4))
    starts = range(1, n, chunk)
    stops = [min(s + chunk, n) for s in starts]
    columns = [[arg] * len(starts) for arg in args]
    workers = min(threads, len(starts), os.cpu_count() or 1)
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return sum(pool.map(block, *columns, starts, stops), first)


def fisher_yates(items, rng: SplitMix64) -> list:
    """Uniform permutation of the items (returns a new list)."""
    out = list(items)
    for i in range(len(out) - 1, 0, -1):
        j = rng.below(i + 1)
        out[i], out[j] = out[j], out[i]
    return out
