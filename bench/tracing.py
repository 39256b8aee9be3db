"""In-memory span tracer, layer instrumentation and per-layer metrics.

A span is ``[name, start_ns, end_ns, parent_index, run_id, attrs]``; the
parent is the span open when it started (-1 at top level) and the run id
is the traced pass it belongs to.  Spans stay in memory until the
benchmark writes them out at the end.

The workload drivers open spans around the library calls they make.  For
the layers those calls reach only from inside the library, ``instrument``
wraps the public entry points for the duration of a traced pass:
``InstanceState.feed`` and ``InstanceState.output`` (the restricted layer
under ``windows`` and ``run_restricted``) and ``max_independent_set``
(the geometry oracle under ``alpha`` and the window merge).
"""

from __future__ import annotations

import contextlib
import statistics
import sys
import time

MS, US, NS = 1e3, 1e6, 1e9


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.run = 0
        self._open: list[int] = []

    def _start(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._open[-1] if self._open else -1
        self.spans.append([name, time.perf_counter_ns(), 0, parent, self.run, None])
        self._open.append(idx)
        return idx

    def _end(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter_ns()
        self._open.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        idx = self._start(name)
        try:
            yield
        finally:
            self._end(idx)

    def call(self, name: str, fn, *args, attrs=None):
        idx = self._start(name)
        try:
            result = fn(*args)
        finally:
            self._end(idx)
        if attrs is not None:
            self.spans[idx][5] = attrs(result)
        return result

    def annotate(self, **attrs) -> None:
        """Attach counts to the innermost open span."""
        self.spans[self._open[-1]][5] = attrs


class NullTracer:
    """The drivers' untraced mode: same calls, nothing recorded."""

    _null = contextlib.nullcontext()

    def span(self, name):
        return self._null

    def call(self, name, fn, *args, attrs=None):
        return fn(*args)

    def annotate(self, **attrs):
        pass


@contextlib.contextmanager
def instrument(tr: Tracer):
    """Wrap the library's inner layer boundaries in spans for one pass."""
    from intervalsel import geometry
    from intervalsel.restricted import InstanceState

    def wrap(name, fn, attrs=None):
        def traced(*args):
            return tr.call(name, fn, *args, attrs=attrs)

        return traced

    report_attrs = lambda rep: {  # noqa: E731
        "nodes": rep.instances_touched,
        "stored": rep.peak_stored_intervals,
        "size": len(rep.output),
    }
    patches = [
        (InstanceState, "feed", wrap("restricted.feed", InstanceState.feed)),
        (InstanceState, "output", wrap("restricted.output", InstanceState.output, report_attrs)),
    ]
    mis = geometry.max_independent_set
    traced_mis = wrap("geometry.mis", mis)
    for name, module in list(sys.modules.items()):
        in_package = name.split(".")[0] == "intervalsel"
        if in_package and getattr(module, "max_independent_set", None) is mis:
            patches.append((module, "max_independent_set", traced_mis))
    saved = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in patches]
    for owner, attr, new in patches:
        setattr(owner, attr, new)
    try:
        yield
    finally:
        for owner, attr, old in saved:
            setattr(owner, attr, old)


# --- metrics ------------------------------------------------------------------


def tail(values: list[float]) -> tuple[float, float]:
    """(percentile, value): the highest percentile with at least ten samples
    beyond it.  With ten samples or fewer there is none; the maximum is
    returned as the 100th percentile."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= 10:
        return 100.0, ordered[-1] if ordered else 0.0
    k = n - 10
    return 100.0 * k / n, ordered[k - 1]


def _dur(span) -> float:
    return (span[2] - span[1]) / NS


def layer_metrics(tr: Tracer, passes: int) -> dict[str, float]:
    """Per-layer metrics from the spans of ``passes`` traced passes.

    A trial is one ``algorithm`` span: a Monte Carlo trial, a protocol
    sample or a whole windowed stream.  Metrics of layers a workload never
    enters read 0.
    """
    spans = tr.spans

    def ancestor(idx: int, name: str) -> int:
        idx = spans[idx][3]
        while idx >= 0 and spans[idx][0] != name:
            idx = spans[idx][3]
        return idx

    by_name: dict[str, list[int]] = {}
    for i, s in enumerate(spans):
        by_name.setdefault(s[0], []).append(i)

    def durs(name: str, within: str | None = None) -> list[float]:
        return [
            _dur(spans[i])
            for i in by_name.get(name, [])
            if within is None or ancestor(i, within) >= 0
        ]

    def attr_sum(name: str, key: str, within: str | None = None) -> int:
        return sum(
            (spans[i][5] or {}).get(key, 0)
            for i in by_name.get(name, [])
            if within is None or ancestor(i, within) >= 0
        )

    def per(total: float, count: int) -> float:
        return total / count if count else 0.0

    def mean(values: list[float]) -> float:
        return per(sum(values), len(values))

    trials = durs("algorithm")
    n_trials = len(trials)

    def per_trial(name: str) -> float:
        return per(sum(durs(name, "algorithm")), n_trials)

    def count_per_trial(key: str) -> float:
        return per(attr_sum("restricted.output", key, "algorithm"), n_trials)

    windowed = [i for i in by_name.get("algorithm", []) if spans[i][5]]
    n_windowed = len(windowed)
    trial_pct, trial_tail = tail(trials)
    wfeeds = durs("windows.feed")
    wfeed_pct, wfeed_tail = tail(wfeeds)
    merged = sum(spans[i][5]["merged"] for i in windowed)
    pooled = attr_sum("restricted.output", "size", within="windows.merge")
    drivers = ("harness.monte_carlo", "gadget.simulate_protocol")
    driver_s = sum(sum(durs(d)) for d in drivers)
    in_algorithm_s = sum(sum(durs("algorithm", d)) for d in drivers)
    builds = [spans[i] for i in by_name.get("recurrence.build", [])]
    window_feeds = sum(
        spans[spans[i][3]][0] == "windows.feed" for i in by_name.get("restricted.feed", [])
    )
    samples = [i for i in windowed if ancestor(i, "gadget.simulate_protocol") >= 0]
    sample_s = sum(_dur(spans[i]) for i in samples)
    triples = sum(spans[i][5]["merged"] == 3 for i in samples)

    return {
        "geometry.mis_ms": mean(durs("geometry.mis")) * MS,
        "geometry.mis_calls": per(len(by_name.get("geometry.mis", [])), passes),
        "rng.shuffle_us_per_trial": per(sum(durs("rng.shuffle")), n_trials) * US,
        "restricted.feed_ms_per_trial": per_trial("restricted.feed") * MS,
        "restricted.output_ms_per_trial": per_trial("restricted.output") * MS,
        "restricted.trial_ms_p50": (statistics.median(trials) if trials else 0.0) * MS,
        "restricted.trial_ms_ptail": trial_tail * MS,
        "restricted.trial_ptail_pct": trial_pct if trials else 0.0,
        "restricted.trials": n_trials,
        "restricted.nodes_per_trial": count_per_trial("nodes"),
        "restricted.stored_per_trial": count_per_trial("stored"),
        "windows.feed_ms_per_run": per(sum(wfeeds), n_windowed) * MS,
        "windows.merge_ms_per_run": per(sum(durs("windows.merge")), n_windowed) * MS,
        "windows.feed_us_p50": (statistics.median(wfeeds) if wfeeds else 0.0) * US,
        "windows.feed_us_ptail": wfeed_tail * US,
        "windows.feed_ptail_pct": wfeed_pct if wfeeds else 0.0,
        "windows.feeds": len(wfeeds),
        "windows.active_windows": per(sum(spans[i][5]["active"] for i in windowed), n_windowed),
        "windows.window_feeds": per(window_feeds, n_windowed),
        "windows.merge_keep_ratio": per(merged, pooled),
        "recurrence.build_s": per(sum(map(_dur, builds)), passes),
        "recurrence.sweep_pass_s": per(sum(durs("recurrence.sweep")), passes),
        "recurrence.max_rel_disagreement": max((s[5]["disagreement"] for s in builds), default=0.0),
        "gadget.build_us_per_sample": mean(durs("gadget.build")) * US,
        "gadget.algorithm_ms_per_sample": per(sample_s, len(samples)) * MS,
        "gadget.triple_rate": per(triples, len(samples)),
        "harness.instance_ms": mean(durs("harness.instance")) * MS,
        "harness.driver_share": 1.0 - in_algorithm_s / driver_s if driver_s else 0.0,
        "cli.report_ms": per(sum(durs("cli.report")), passes) * MS,
    }


def recurrence_lane_metrics(tr: Tracer, passes: int, exact_lane_s: float) -> dict[str, float]:
    """Split the table build into its exact and float lanes.

    ``exact_lane_s`` is a separate ``build_out_table(DEFAULT_EXACT_UNTIL)``;
    the rest of the build is the float lane, O(x_max^2 / 2) cells.
    """
    builds = [s for s in tr.spans if s[0] == "recurrence.build"]
    if not builds or exact_lane_s == 0.0:
        return {"recurrence.exact_lane_s": exact_lane_s, "recurrence.float_ns_per_cell": 0.0}
    x_max = builds[0][5]["x_max"]
    float_s = sum(map(_dur, builds)) / passes - exact_lane_s
    return {
        "recurrence.exact_lane_s": exact_lane_s,
        "recurrence.float_ns_per_cell": float_s / (x_max * x_max / 2) * NS,
    }


# --- microbenchmarks on the workload's own data ----------------------------------


def _ns_per_op(fn, ops: int, repeats: int = 5) -> float:
    per_op = []
    for _ in range(repeats):
        start = time.perf_counter_ns()
        fn()
        per_op.append((time.perf_counter_ns() - start) / ops)
    return statistics.median(per_op)


def geometry_metrics(intervals, text: str | None) -> dict[str, float]:
    """Predicate, translate and parse cost on the workload's intervals,
    loop overhead included.  Workloads without intervals read 0."""
    from intervalsel.geometry import intersects, parse_intervals

    out = {
        "geometry.parse_us_per_interval": 0.0,
        "geometry.lt_ns": 0.0,
        "geometry.intersects_ns": 0.0,
        "geometry.translate_ns": 0.0,
    }
    if intervals:
        ivs = intervals[:150]
        pairs = [(a, b) for a in ivs for b in ivs]
        lefts = [(a.left, b.left) for a, b in pairs]
        reps = max(1, 20000 // len(ivs))
        out["geometry.lt_ns"] = _ns_per_op(lambda: [x < y for x, y in lefts], len(lefts))
        out["geometry.intersects_ns"] = _ns_per_op(
            lambda: [intersects(a, b) for a, b in pairs], len(pairs)
        )
        out["geometry.translate_ns"] = _ns_per_op(
            lambda: [iv.translate(-3) for _ in range(reps) for iv in ivs], reps * len(ivs)
        )
    if text is not None:
        n = len(parse_intervals(text))
        reps = max(1, 5000 // n)
        out["geometry.parse_us_per_interval"] = (
            _ns_per_op(lambda: [parse_intervals(text) for _ in range(reps)], reps * n) / 1e3
        )
    return out


def rng_draws_per_s() -> float:
    from intervalsel.rng import SplitMix64

    rng = SplitMix64(12345)
    n = 100_000
    ns = _ns_per_op(lambda: [rng.below(1000) for _ in range(n)], n, repeats=3)
    return NS / ns


def pool_start_ms() -> float:
    """monte_carlo on 4 trials of a 2-clique with threads=2 minus threads=1:
    the process-pool start-up a user pays for the default --threads."""
    from intervalsel import harness

    spec = harness.InstanceSpec(kind="clique", delta=3, seed=1, size=2)

    def timed(threads: int) -> float:
        start = time.perf_counter()
        harness.monte_carlo(spec, 4, threads=threads)
        return time.perf_counter() - start

    pooled = statistics.median(timed(2) for _ in range(3))
    serial = statistics.median(timed(1) for _ in range(3))
    return (pooled - serial) * MS


def exact_lane_s() -> float:
    from intervalsel.recurrence import DEFAULT_EXACT_UNTIL, build_out_table

    times = []
    for _ in range(5):
        start = time.perf_counter()
        build_out_table(DEFAULT_EXACT_UNTIL)
        times.append(time.perf_counter() - start)
    return statistics.median(times)
