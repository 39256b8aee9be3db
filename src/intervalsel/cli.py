"""Command-line front end: dp, run, montecarlo, gadget, substream-test.

Machine-readable results go to stdout (JSON for single-run reports, CSV
for factor sweeps); the fully resolved configuration and all diagnostics
go to stderr.  Identical subcommand, flags and seed produce byte-identical
stdout.  Seeds are never read from the environment: give --seed or accept
an auto-generated one, which is printed with the configuration.

Exit status: 0 on success; 1 when the input cannot be read, decoded or
parsed, lies outside the domain, a run exceeds the grid-cell budget of
``restricted`` or memory runs out, or a verification or data check fails;
2 on usage errors.  ``dispatch`` alone maps exceptions to these codes.

The ``config:`` line is every parsed option, plus what the run resolved:
the seed, ``run``'s interval count, the index that ``gadget --verify``
drew, and the samples, algorithm and threads that ``gadget --simulate``
defaults when they are not given, as ``montecarlo`` does its threads (the
CPUs the process may run on, ``rng.cpu_count()``).  An option the run would ignore is
refused, and so is a seed outside [0, 2**64).  A JSON report is its result
record, field by field.

Each handler imports the modules it runs, so a run compiles and loads only
those: ``dp`` loads ``recurrence`` and numpy; ``run`` loads ``restricted``
and ``rng``, and ``windows`` with --unrestricted; ``gadget`` loads
``gadget`` and ``rng``, and ``windows`` and ``restricted`` only to simulate
``windowed:DELTA``; ``montecarlo`` and ``substream-test`` load ``harness``,
which brings every other module.  ``geometry`` declares the errors
``dispatch`` maps, so every run loads it.

``main`` turns the cyclic garbage collector off for the process before it
dispatches.  Every state of the engine points only down, to intervals and
to grids, so reference counting frees a run once its instance is dropped,
and the collector would only rescan the growing state DAG
(``tests/test_restricted.py`` pins that the engine's paths leave no
cycles).  ``dispatch``, which tests and library callers run in-process,
leaves the collector as it found it.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import sys
import time
from fractions import Fraction
from pathlib import Path

from .geometry import (
    CheckError,
    Domain,
    DomainError,
    ParseError,
    alpha,
    format_intervals,
    parse_intervals,
)

SIGNIFICANT_DIGITS = 12
ERROR_PATH_RESERVE_BYTES = 1 << 20


class UsageError(ValueError):
    pass


def _fmt(value) -> str:
    if isinstance(value, Fraction):
        value = float(value)
    if isinstance(value, float):
        return f"{value:.{SIGNIFICANT_DIGITS}g}"
    return str(value)


def _jsonable(value):
    if hasattr(value, "_asdict"):  # a report record prints its fields
        value = value._asdict()
    if isinstance(value, (Fraction, float)):
        return float(_fmt(value))
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    return value


def _emit_json(payload: dict) -> None:
    print(json.dumps(_jsonable(payload), sort_keys=True))


def _echo_config(config: dict) -> None:
    print("config:", json.dumps(_jsonable(config), sort_keys=True), file=sys.stderr)


def _options(args, **resolved) -> dict:
    """The options given or defaulted, and what the run resolved, such as the seed."""
    return {k: v for k, v in {**vars(args), **resolved}.items() if v is not None}


def _resolve_seed(seed: int | None) -> int:
    if seed is not None:
        if not 0 <= seed < 1 << 64:
            raise UsageError(f"--seed must lie in [0, 2**64), got {seed}")
        return seed
    return int.from_bytes(os.urandom(8), "big") >> 1


def _check_threads(threads: int) -> None:
    if threads < 1:
        raise UsageError(f"--threads must be at least 1, got {threads}")


def _read_intervals(path: str):
    text = sys.stdin.read() if path == "-" else Path(path).read_text()
    return parse_intervals(text)


# --- dp ---------------------------------------------------------------------


def _add_dp(sub) -> None:
    p = sub.add_parser("dp", help="factor table for one delta or a sweep")
    p.add_argument("--delta", type=int, help="window width to evaluate")
    p.add_argument("--sweep", metavar="MIN..MAX", help="evaluate a range of deltas")
    p.add_argument("--format", choices=("csv", "json"), default="csv")


# The dp output columns, one per ``recurrence.FactorRow`` field, in order.
DP_COLUMNS = ("delta", "restricted_factor", "overall_factor", "binding_alpha")


def _cmd_dp(args) -> int:
    from . import recurrence

    if (args.delta is None) == (args.sweep is None):
        raise UsageError("give exactly one of --delta or --sweep")
    if args.sweep is not None:
        try:
            lo, hi = (int(part) for part in args.sweep.split("..", 1))
        except ValueError:
            raise UsageError(f"bad sweep range {args.sweep!r}; expected MIN..MAX")
    else:
        lo = hi = args.delta
    if lo < 2:
        raise UsageError("delta must be at least 2")
    if hi < lo:
        raise UsageError("need 2 <= delta_min <= delta_max")

    _echo_config(_options(args))
    start = time.perf_counter()
    import numpy  # noqa: F401  (the table build's import, timed on its own)

    imported = time.perf_counter()
    table = recurrence.build_out_table(hi - 1)
    metrics = {
        "x_max": table.x_max,
        "numpy_import_s": imported - start,
        "build_s": time.perf_counter() - imported,
        "max_rel_disagreement": table.max_rel_disagreement,
        "ratio_violations": len(table.ratio_violations),
    }
    print("metrics:", json.dumps(_jsonable(metrics), sort_keys=True), file=sys.stderr)
    curve = recurrence.sweep(lo, hi, table=table)
    for note in curve.notes:
        print("note:", note, file=sys.stderr)
    tight = [row.delta for row in curve.rows if row.binding_alpha == row.delta - 1 >= 5]
    if tight:
        where = f"delta {tight[0]}"
        if len(tight) > 1:
            where = f"{len(tight)} deltas in {tight[0]}..{tight[-1]}"
        print(
            f"note: binding alpha is delta - 1 >= 5 at {where}: the factor rests on "
            "out_lb(alpha) at the tightest packing, whose consecutive floors give "
            "the split-point rule an exact mean below out_lb(alpha) "
            "(README, Certified factors, honestly)",
            file=sys.stderr,
        )
    if not curve.overall_monotone:
        print(
            "warning: overall factor decreased at deltas",
            list(curve.monotone_violations),
            file=sys.stderr,
        )
    print(
        f"reference barriers: adversarial-order {_fmt(curve.barrier_adversarial)}, "
        f"space lower bound {_fmt(curve.barrier_space)}",
        file=sys.stderr,
    )

    if args.format == "csv":
        print(",".join(DP_COLUMNS))
        for row in curve.rows:
            print(",".join(_fmt(v) for v in row))
    else:
        _emit_json(
            {
                "rows": [dict(zip(DP_COLUMNS, row)) for row in curve.rows],
                "notes": list(curve.notes),
                "overall_monotone": curve.overall_monotone,
                "barrier_adversarial": curve.barrier_adversarial,
                "barrier_space": curve.barrier_space,
            }
        )
    return 0


# --- run --------------------------------------------------------------------


def _add_run(sub) -> None:
    p = sub.add_parser("run", help="one streamed run over an input file")
    p.add_argument("--domain", metavar="A,B", help="explicit integer domain [A,B)")
    p.add_argument("--unrestricted", action="store_true", help="shifting-window lift")
    p.add_argument("--delta", type=int, help="window width for --unrestricted")
    p.add_argument("--input", required=True, help="interval file ('-' for stdin)")
    p.add_argument("--order", choices=("given", "shuffle"), default="given")
    p.add_argument("--seed", type=int)


def _cmd_run(args) -> int:
    from .restricted import run_on_stream
    from .rng import SplitMix64, fisher_yates

    if args.unrestricted == bool(args.domain):
        raise UsageError("give exactly one of --domain A,B or --unrestricted")
    if args.unrestricted != (args.delta is not None):
        raise UsageError("--delta goes with --unrestricted, and only with it")
    if args.order != "shuffle" and args.seed is not None:
        raise UsageError("--seed goes with --order shuffle, and only with it")
    if args.domain:
        try:
            a, b = (int(part) for part in args.domain.split(",", 1))
            domain = Domain(a, b)
        except ValueError as exc:
            raise UsageError(f"bad domain {args.domain!r}: {exc}")

    seed = _resolve_seed(args.seed) if args.order == "shuffle" else None
    stream = _read_intervals(args.input)
    if args.order == "shuffle":
        stream = fisher_yates(stream, SplitMix64(seed))
    _echo_config(_options(args, seed=seed, intervals=len(stream)))

    if args.unrestricted:
        from . import windows

        wm = windows.WindowMap(args.delta)
        for iv in stream:
            wm.feed(iv)
        reports = wm.reports()
        merged = windows.merge_reports(reports)
        window_payload = []
        for origin, report in reports:
            entry = report.to_dict()
            entry["winning_split_point"] -= origin
            entry["origin"] = origin
            window_payload.append(entry)
        _emit_json(
            {
                "output_size": len(merged),
                "output_intervals": [str(iv.left) for iv in merged],
                "alpha": alpha(stream),
                "active_windows": wm.active_count,
                "windows": window_payload,
            }
        )
        return 0

    report = run_on_stream(domain, stream)
    payload = report.to_dict()
    payload["alpha"] = alpha(stream)
    payload["chosen_text"] = format_intervals(report.output)
    _emit_json(payload)
    return 0


# --- montecarlo ---------------------------------------------------------------


def _add_montecarlo(sub) -> None:
    p = sub.add_parser("montecarlo", help="seeded trials over random orders")
    p.add_argument(
        "--kind",
        choices=("independent", "clique", "gadget", "custom-file"),
        default="independent",
    )
    p.add_argument("--alpha", type=int, help="independent-set size (kind=independent)")
    p.add_argument("--size", type=int, help="clique size (kind=clique)")
    p.add_argument("--t", type=int, help="clique items (kind=gadget)")
    p.add_argument("--input", help="interval file (kind=custom-file)")
    p.add_argument("--aligned", action="store_true", help="integer left endpoints")
    p.add_argument("--delta", type=int, required=True)
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--seed", type=int)
    p.add_argument("--algorithm", choices=("restricted", "windowed"), default="restricted")
    p.add_argument("--threads", type=int, help="default: CPU count")
    p.add_argument("--format", choices=("json", "csv"), default="json")


def _cmd_montecarlo(args) -> int:
    from . import harness
    from .rng import cpu_count

    threads = cpu_count() if args.threads is None else args.threads
    _check_threads(threads)
    seed = _resolve_seed(args.seed)
    spec = harness.InstanceSpec(
        kind=args.kind,
        delta=args.delta,
        seed=seed,
        alpha=args.alpha,
        size=args.size,
        t=args.t,
        path=args.input,
        aligned=args.aligned,
    )
    _echo_config(_options(args, seed=seed, threads=threads))
    intervals = harness.instance_from_spec(spec)
    if len(intervals) >= 5 and harness.consecutive_floor_packing(intervals):
        print(
            f"note: the {len(intervals)} intervals are independent on consecutive "
            "floors, where from alpha 5 on the split-point rule's exact mean is "
            "below out_lb(alpha): predicted_bound need not be met "
            "(README, Certified factors, honestly)",
            file=sys.stderr,
        )
    summary = harness.monte_carlo(
        spec,
        args.trials,
        algorithm=args.algorithm,
        threads=threads,
        intervals=intervals,
    )
    if args.format == "csv":
        print(",".join(summary._fields))
        print(",".join(_fmt(v) for v in summary))
    else:
        _emit_json(summary)
    return 0


# --- gadget -------------------------------------------------------------------


def _add_gadget(sub) -> None:
    p = sub.add_parser("gadget", help="hard-instance construction and protocol")
    p.add_argument("--t", type=int, required=True, help="clique size (>= 3)")
    p.add_argument("--verify", action="store_true")
    p.add_argument("--simulate", action="store_true")
    p.add_argument("--index", type=int, help="target index (default: random)")
    p.add_argument("--xbits", help="private bits as hex, bit i = (v >> i) & 1")
    p.add_argument("--ybits", help="public bits as hex")
    p.add_argument("--seed", type=int)
    p.add_argument("--samples", type=int, help="default 1000 (simulation only)")
    p.add_argument(
        "--algorithm",
        help="oracle (default) | first | windowed:DELTA (simulation only)",
    )
    p.add_argument("--exhaustive", action="store_true", help="enumerate all triples")
    p.add_argument("--threads", type=int, help="default: CPU count (simulation only)")


def _parse_bits(hex_text: str | None, t: int, rng) -> tuple[int, ...]:
    if hex_text is None:
        return rng.bits(t)
    try:
        value = int(hex_text, 16)
    except ValueError:
        raise UsageError(f"bad hex bit vector {hex_text!r}")
    if value < 0 or value >= 1 << t:
        raise UsageError(f"bit vector {hex_text!r} does not fit in {t} bits")
    return tuple((value >> i) & 1 for i in range(t))


def _cmd_gadget(args) -> int:
    from . import gadget as gadget_mod
    from .rng import SplitMix64, cpu_count

    if args.verify == args.simulate:
        raise UsageError("give exactly one of --verify or --simulate")
    if args.simulate and (
        args.exhaustive or {args.index, args.xbits, args.ybits} != {None}
    ):
        raise UsageError("--index, --xbits, --ybits and --exhaustive go with --verify")
    if args.verify and {args.samples, args.algorithm, args.threads} != {None}:
        raise UsageError("--samples, --algorithm and --threads go with --simulate")
    gadget_mod.check_t(args.t)  # before any bit is drawn
    seed = _resolve_seed(args.seed)

    if args.verify:
        rng = SplitMix64(seed)
        xbits = _parse_bits(args.xbits, args.t, rng)
        index = args.index if args.index is not None else rng.below(args.t)
        if not 0 <= index < args.t:
            raise UsageError(f"--index must lie in [0, {args.t})")
        ybits = _parse_bits(args.ybits, args.t, rng)
        sigma = gadget_mod.sample_sigma(args.t, rng)
        _echo_config(_options(args, seed=seed, index=index))
        instance = gadget_mod.build(args.t, index, xbits, ybits, sigma)
        _emit_json(gadget_mod.verify(instance, exhaustive=args.exhaustive))
        return 0

    simulation = {
        "samples": 1000 if args.samples is None else args.samples,
        "algorithm": "oracle" if args.algorithm is None else args.algorithm,
        "threads": cpu_count() if args.threads is None else args.threads,
    }
    _check_threads(simulation["threads"])
    _echo_config(_options(args, seed=seed, **simulation))
    stats = gadget_mod.simulate_protocol(args.t, seed=seed, **simulation)
    _emit_json(stats)
    return 0


# --- substream-test -------------------------------------------------------------


def _add_substream(sub) -> None:
    p = sub.add_parser(
        "substream-test", help="check that deleting intervals never grows the output"
    )
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--seed", type=int)


def _cmd_substream(args) -> int:
    from . import harness

    seed = _resolve_seed(args.seed)
    _echo_config(_options(args, seed=seed))
    report = harness.substream_monotonicity_test(args.trials, seed)
    _emit_json(report)
    return 0 if report.violations == 0 else 1


# --- dispatch --------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="intervalsel",
        description="Random-order streaming selection of unit intervals",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    _add_dp(sub)
    _add_run(sub)
    _add_montecarlo(sub)
    _add_gadget(sub)
    _add_substream(sub)
    return parser


_COMMANDS = {
    "dp": _cmd_dp,
    "run": _cmd_run,
    "montecarlo": _cmd_montecarlo,
    "gadget": _cmd_gadget,
    "substream-test": _cmd_substream,
}


def _join_domain_values(argv) -> list:
    """Fold ``--domain -1,5`` into ``--domain=-1,5`` so argparse does not
    mistake the negative bound for an option."""
    out = []
    skip = False
    for i, arg in enumerate(argv):
        if skip:
            skip = False
            continue
        if arg == "--domain" and i + 1 < len(argv) and argv[i + 1].startswith("-"):
            out.append(f"--domain={argv[i + 1]}")
            skip = True
        else:
            out.append(arg)
    return out


def dispatch(argv) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(_join_domain_values(list(argv)))
    except SystemExit as exc:
        return int(exc.code or 0)
    # Held back for the error path, which needs memory of its own once a
    # run has used it all; without it the error line is sometimes lost.
    reserve = bytes(ERROR_PATH_RESERVE_BYTES)
    try:
        return _COMMANDS[args.subcommand](args)
    except (
        ParseError,
        ArithmeticError,
        MemoryError,
        DomainError,
        OSError,
        UnicodeError,
        CheckError,
    ) as exc:
        del reserve
        code, message = 1, f"error: {str(exc) or type(exc).__name__}"
    except ValueError as exc:
        # UsageError, and the ValueErrors of rejected parameter combinations
        code, message = 2, f"usage error: {exc}"
    print(message, file=sys.stderr)
    return code


def main() -> None:
    gc.disable()  # the engine makes no reference cycles: see the module docstring
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
