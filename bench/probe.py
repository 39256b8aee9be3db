"""Set-up probe: what a CLI run does before the first interval is fed or the
first DP row is computed.

Run in a fresh interpreter with the same arguments as the CLI run it
stands for, e.g. ``python3 bench/probe.py dp --delta 36000``.  It imports
the package, parses the arguments and builds the workload's input the way
the CLI does, then prints ``{"import_s", "build_s", "module"}`` as JSON.
The benchmark times it from spawn to exit as ``setup_s``.
"""

import json
import sys
import time

start = time.perf_counter()
import intervalsel  # noqa: E402
from intervalsel import cli, gadget, harness, windows  # noqa: E402
from intervalsel.geometry import alpha, parse_intervals  # noqa: E402
from intervalsel.rng import SplitMix64, fisher_yates  # noqa: E402

imported = time.perf_counter()
args = cli.build_parser().parse_args(sys.argv[1:])
if args.subcommand == "montecarlo":
    spec = harness.InstanceSpec(
        kind=args.kind, delta=args.delta, seed=args.seed, path=args.input
    )
    alpha(harness.instance_from_spec(spec))
elif args.subcommand == "gadget":
    gadget.resolve_algorithm(args.algorithm)
elif args.subcommand == "run":
    with open(args.input) as f:
        stream = fisher_yates(parse_intervals(f.read()), SplitMix64(args.seed))
    windows.WindowMap(args.delta)
built = time.perf_counter()
print(
    json.dumps(
        {
            "import_s": imported - start,
            "build_s": built - imported,
            "module": intervalsel.__file__,
        }
    )
)
