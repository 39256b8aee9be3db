"""Deterministic 64-bit randomness for reproducible experiments.

The generator is SplitMix64: state advances by the golden-gamma constant
and is finalised with the standard two-round mixer.  It is fixed here so
trials replay bit-identically on any platform or thread count.

Substreams are derived, not advanced: ``derive(seed, k)`` seeds a fresh
generator from mix64(seed XOR mix64(k + 1)), so trial k's randomness is a
pure function of (seed, k) and independent of evaluation order.
``map_trials`` relies on exactly that to split a run into blocks of trials
and evaluate them on any number of worker processes; it holds the one loop
over trials, and callers give it a function of one trial.
"""

from __future__ import annotations

import gc
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


def cpu_count() -> int:
    """CPUs this process may run on: its affinity set where the platform has
    one (a ``taskset`` or a cpuset narrows it), else the host's count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _count(trial, args: tuple, start: int, stop: int) -> Counter:
    """Counts of the outcomes ``trial(*args, k)`` for k in start..stop-1."""
    return Counter(trial(*args, k) for k in range(start, stop))


def map_trials(trial, args: tuple, n: int, threads: int) -> Counter:
    """Counts of the outcomes ``trial(*args, k)`` for k = 0..n-1.

    Each trial must draw only from its own ``derive`` substream and return
    a hashable outcome, so that every split of the range into blocks gives
    the same total.  Runs in this process when ``threads <= 1``, ``n < 4``
    or this process may use one CPU only (a ``taskset`` or a cpuset), where
    a pool would have a single worker.  Otherwise trial 0 runs here first,
    so an error every trial shares (a grid over budget) is raised before a
    pool starts; trials 1..n-1 are split into about ``4 * threads`` blocks,
    each counted by ``_count`` in a process pool of min(threads, blocks,
    ``cpu_count()``) workers, which needs ``trial`` and ``args`` to be
    picklable.  The workers take this process's collector state whatever
    the start method: a fork inherits it, and a spawned or forkserver
    worker disables its collector first when this process runs without
    one.  The pool module, and ``multiprocessing`` with it, is imported
    only here, so a serial run never loads it.
    """
    if threads <= 1 or n < 4 or cpu_count() <= 1:
        return _count(trial, args, 0, n)
    first = _count(trial, args, 0, 1)
    from concurrent.futures import ProcessPoolExecutor

    chunk = -(-(n - 1) // (threads * 4))
    starts = range(1, n, chunk)
    stops = [min(s + chunk, n) for s in starts]
    m = len(starts)
    workers = min(threads, m, cpu_count())
    init = None if gc.isenabled() else gc.disable
    with ProcessPoolExecutor(max_workers=workers, initializer=init) as pool:
        return sum(pool.map(_count, [trial] * m, [args] * m, starts, stops), first)


def fisher_yates(items, rng: SplitMix64) -> list:
    """Uniform permutation of the items (returns a new list)."""
    out = list(items)
    for i in range(len(out) - 1, 0, -1):
        j = rng.below(i + 1)
        out[i], out[j] = out[j], out[i]
    return out
