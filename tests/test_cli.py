import concurrent.futures
import contextlib
import gc
import hashlib
import io
import json
import os
import resource
import subprocess
import sys
import tempfile
import time
import types
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from intervalsel import cli, gadget as gadget_mod, harness, restricted
from intervalsel.cli import dispatch
from intervalsel.gadget import MAX_T
from intervalsel.harness import MAX_GADGET_T
from intervalsel.geometry import UnitInterval

SEED = "20260810"

# stdout SHA-256 recorded before the float lane took its half-length form;
# any printed digit that moves fails TestDp::test_golden_stdout.
GOLDEN_DP_STDOUT = {
    ("dp", "--sweep", "2..3000"): (
        "2efef64b15dfa85c7c38ca1ac2f68c528463837380752724f7c099243aef6a36"
    ),
    ("dp", "--delta", "22000"): (
        "7083c672df8265f5e3dad93c1e66d079d743d2b84fd83ae0c334fda3f8388480"
    ),
    # JSON rows on both sides of the exact lane's last x = 64; recorded with
    # the rest of GOLDEN_PATH_STDOUT
    ("dp", "--sweep", "2..70", "--format", "json"): (
        "6851200b85bd08b0e19e10cb09c9360aeaa69a5aad18618bc795c74258e74f4b"
    ),
}

# stdout SHA-256 of the restricted, windowed and unrestricted paths, recorded
# before the end-of-stream pass kept sizes and back-pointers instead of lists.
GOLDEN_TRIAL_STDOUT = {
    "montecarlo-restricted": (
        [
            "montecarlo", "--kind", "independent", "--alpha", "10", "--delta", "11",
            "--trials", "5", "--seed", "3", "--threads", "1",
        ],
        "90785304ad55bf7797da0aaf5f87d2c915dcf75c62ed47928da09908f11e7dfc",
    ),
    "gadget-windowed": (
        [
            "gadget", "--t", "20", "--simulate", "--algorithm", "windowed:6",
            "--samples", "15", "--seed", "5", "--threads", "1",
        ],
        "d55c9962802321f0e1241b873cc8a5f6af6318114fe79e4462aa42844f2aea60",
    ),
    "run-unrestricted": (
        ["run", "--unrestricted", "--delta", "5", "--order", "shuffle", "--seed", "4"],
        "1fa4bebdb37735fea6beca254b77e0746f700b2fdfcd5892244409cbb3147769",
    ),
}
# stdout SHA-256 of the gadget, restricted-run and CSV paths that the tables
# above leave out, recorded before UnitInterval lost its label field.
GOLDEN_PATH_STDOUT = {
    "gadget-verify": (
        ["gadget", "--t", "12", "--verify", "--seed", "5"],
        "6805ccb63173bec74bbbe922599d63fa3e8cafd62254d7fd41197968a1ccd8e6",
    ),
    "gadget-verify-exhaustive": (
        ["gadget", "--t", "12", "--verify", "--exhaustive", "--seed", "5"],
        "75a4f7623105fc919adfcc3dcc22bc4856774d6380b46ebe23e31ca12a2f1711",
    ),
    "gadget-oracle": (
        [
            "gadget", "--t", "10", "--simulate", "--algorithm", "oracle",
            "--samples", "200", "--seed", "5", "--threads", "1",
        ],
        "9a40789f8be06362ef33ca279efcc1d194faf133559df2f51078ee9bde9fd891",
    ),
    "run-domain": (
        ["run", "--domain", "-1,11"],
        "6c0818ca03261bbd3f1d03bb0f944640d9a13448fcb12b83191bb1c62d5b472f",
    ),
    "montecarlo-csv": (
        [
            "montecarlo", "--kind", "independent", "--alpha", "5", "--delta", "7",
            "--trials", "20", "--seed", "3", "--threads", "1", "--format", "csv",
        ],
        "c91de43e9043cf4d8364cde18b674aa85b7c2af4587055dec17de38e33f5cdcb",
    ),
}
# stdout SHA-256 of report paths that the tables above leave out, recorded
# before the report records lost their hand-written dict conversions.
GOLDEN_REPORT_STDOUT = {
    "gadget-first": (
        [
            "gadget", "--t", "10", "--simulate", "--algorithm", "first",
            "--samples", "200", "--seed", "5", "--threads", "1",
        ],
        "e40b425d901544622d5328ccc309272dcf700ca88fa83fbb9c6a5c8222ede09e",
    ),
    "montecarlo-windowed": (
        [
            "montecarlo", "--kind", "gadget", "--t", "6", "--delta", "5",
            "--trials", "20", "--seed", "3", "--threads", "1",
            "--algorithm", "windowed",
        ],
        "8ea2e0d9b2e12b8f6285636450489f88595a35acb1339c58d1db4e827e79b27e",
    ),
}
# substream-test against an engine whose output shrinks as its stream grows,
# so that most trials violate: 40 trials, seed 7, exit status 1, and the first
# five violations in trial order as examples; recorded with the table above.
GOLDEN_VIOLATIONS_STDOUT = (
    "8c6f0c166fe29ed5176aa6ab1e857a44c1a975f948ceec07bed8114f2f717082"
)
# the input of the "run-*" entries: 60 lefts on the quarter grid in [0, 10)
GOLDEN_STREAM = "\n".join(f"{(7 * j) % 40}/4" for j in range(60)) + "\n"

# Each optional montecarlo key once, and substream-test: the stderr config
# lines, recorded before the config became the parsed options themselves.
MC = "montecarlo --delta 4 --trials 3 --seed 7 --threads 1"
GOLDEN_CONFIG = {
    "alpha": (
        f"{MC} --alpha 2",
        '{"algorithm": "restricted", "aligned": false, "alpha": 2, "delta": 4, '
        '"format": "json", "kind": "independent", "seed": 7, '
        '"subcommand": "montecarlo", "threads": 1, "trials": 3}',
    ),
    "size": (
        f"{MC} --kind clique --size 3",
        '{"algorithm": "restricted", "aligned": false, "delta": 4, '
        '"format": "json", "kind": "clique", "seed": 7, "size": 3, '
        '"subcommand": "montecarlo", "threads": 1, "trials": 3}',
    ),
    "t": (
        "montecarlo --kind gadget --t 3 --delta 5 --trials 2 --seed 7 --threads 1",
        '{"algorithm": "restricted", "aligned": false, "delta": 5, '
        '"format": "json", "kind": "gadget", "seed": 7, '
        '"subcommand": "montecarlo", "t": 3, "threads": 1, "trials": 2}',
    ),
    "input": (
        f"{MC} --kind custom-file --input intervals.txt",
        '{"algorithm": "restricted", "aligned": false, "delta": 4, '
        '"format": "json", "input": "intervals.txt", "kind": "custom-file", '
        '"seed": 7, "subcommand": "montecarlo", "threads": 1, "trials": 3}',
    ),
    "aligned": (
        f"{MC} --alpha 2 --aligned",
        '{"algorithm": "restricted", "aligned": true, "alpha": 2, "delta": 4, '
        '"format": "json", "kind": "independent", "seed": 7, '
        '"subcommand": "montecarlo", "threads": 1, "trials": 3}',
    ),
    "csv": (
        f"{MC} --alpha 2 --format csv",
        '{"algorithm": "restricted", "aligned": false, "alpha": 2, "delta": 4, '
        '"format": "csv", "kind": "independent", "seed": 7, '
        '"subcommand": "montecarlo", "threads": 1, "trials": 3}',
    ),
    "windowed": (
        f"{MC} --alpha 2 --algorithm windowed",
        '{"algorithm": "windowed", "aligned": false, "alpha": 2, "delta": 4, '
        '"format": "json", "kind": "independent", "seed": 7, '
        '"subcommand": "montecarlo", "threads": 1, "trials": 3}',
    ),
    "substream-test": (
        "substream-test --trials 2 --seed 7",
        '{"seed": 7, "subcommand": "substream-test", "trials": 2}',
    ),
    # dp, run and gadget: recorded when their config lines became the parsed
    # options too, with run's interval count and gadget --verify's index
    "dp-delta": (
        "dp --delta 50",
        '{"delta": 50, "format": "csv", "subcommand": "dp"}',
    ),
    "dp-sweep": (
        "dp --sweep 2..6 --format json",
        '{"format": "json", "subcommand": "dp", "sweep": "2..6"}',
    ),
    "run-domain": (
        "run --domain -1,7 --input intervals.txt",
        '{"domain": "-1,7", "input": "intervals.txt", "intervals": 3, '
        '"order": "given", "subcommand": "run", "unrestricted": false}',
    ),
    "run-unrestricted": (
        "run --unrestricted --delta 4 --order shuffle --seed 7 --input intervals.txt",
        '{"delta": 4, "input": "intervals.txt", "intervals": 3, '
        '"order": "shuffle", "seed": 7, "subcommand": "run", "unrestricted": true}',
    ),
    # recorded again when --verify came to refuse the --simulate options
    "gadget-verify": (
        "gadget --t 12 --verify --seed 7",
        '{"exhaustive": false, "index": 6, "seed": 7, "simulate": false, '
        '"subcommand": "gadget", "t": 12, "verify": true}',
    ),
    "gadget-simulate": (
        "gadget --t 6 --simulate --algorithm windowed:6 --samples 3 --seed 7 --threads 1",
        '{"algorithm": "windowed:6", "exhaustive": false, "samples": 3, '
        '"seed": 7, "simulate": true, "subcommand": "gadget", "t": 6, '
        '"threads": 1, "verify": false}',
    ),
}

# One option per case that the run would ignore: each is refused instead.
INAPPLICABLE_OPTIONS = {
    "run-delta-with-domain": [
        "run", "--domain", "0,7", "--delta", "3", "--input", "intervals.txt",
    ],
    "run-seed-with-given-order": [
        "run", "--domain", "0,5", "--input", "intervals.txt", "--seed", "9",
    ],
    "run-seed-unshuffled-unrestricted": [
        "run", "--unrestricted", "--delta", "4", "--input", "intervals.txt",
        "--seed", "9",
    ],
    **{
        f"montecarlo-{option[2:]}-{kind}": [
            "montecarlo", "--kind", kind, *extra, option, *value,
            "--delta", "4", "--trials", "2", "--seed", SEED, "--threads", "1",
        ]
        for option, value, kind, extra in [
            ("--alpha", ["2"], "clique", ["--size", "3"]),
            ("--aligned", [], "clique", ["--size", "3"]),
            ("--size", ["3"], "independent", ["--alpha", "2"]),
            ("--t", ["3"], "independent", ["--alpha", "2"]),
            ("--input", ["intervals.txt"], "independent", ["--alpha", "2"]),
        ]
    },
    **{
        f"gadget-simulate-{option[2:]}": [
            "gadget", "--t", "4", "--simulate", option, *value,
            "--samples", "2", "--seed", SEED, "--threads", "1",
        ]
        for option, value in [
            ("--index", ["2"]), ("--xbits", ["f"]), ("--ybits", ["f"]),
            ("--exhaustive", []),
        ]
    },
    **{
        f"gadget-verify-{option[2:]}": [
            "gadget", "--t", "4", "--verify", option, value, "--seed", SEED,
        ]
        for option, value in [
            ("--samples", "7"), ("--algorithm", "first"), ("--threads", "1"),
        ]
    },
}


def run_cli(args, capsys):
    code = dispatch(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def interval_file(tmp_path):
    path = tmp_path / "intervals.txt"
    path.write_text("# demo instance\n0\n2\n1/2\n")
    return str(path)


class TestDispatch:
    def test_no_arguments_is_usage_error(self, capsys):
        code, _, _ = run_cli([], capsys)
        assert code == 2

    def test_unknown_flag_is_usage_error(self, capsys):
        code, _, _ = run_cli(["dp", "--deltas", "4"], capsys)
        assert code == 2

    def test_serial_run_loads_no_pool_or_dataclasses(self):
        # the pool module (and multiprocessing) is imported when a pool
        # starts, and the records are built without dataclasses
        script = (
            "import json, sys\n"
            "from intervalsel.cli import dispatch\n"
            "dispatch(['montecarlo', '--alpha', '2', '--delta', '4', "
            "'--trials', '8', '--seed', '1', '--threads', '1'])\n"
            "unwanted = ('multiprocessing', 'concurrent.futures.process', 'dataclasses')\n"
            "print(json.dumps([m for m in unwanted if m in sys.modules]))\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, check=True
        )
        assert json.loads(proc.stdout.splitlines()[-1]) == []

    def test_library_modules_load_without_numpy(self):
        # only the dp float lane needs numpy, and imports it where it runs
        script = (
            "import sys\n"
            "import intervalsel.geometry, intervalsel.restricted, intervalsel.windows\n"
            "import intervalsel.rng, intervalsel.gadget, intervalsel.harness\n"
            "import intervalsel.recurrence, intervalsel.cli\n"
            "print('numpy' in sys.modules)\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, check=True
        )
        assert proc.stdout.split() == ["False"]

    @pytest.mark.parametrize(
        "args,loads_numpy",
        [
            (["run", "--unrestricted", "--delta", "5", "--input", "{path}"], False),
            (["gadget", "--t", "6", "--simulate", "--algorithm", "windowed:6",
              "--samples", "20", "--seed", "1"], False),
            (["montecarlo", "--alpha", "6", "--delta", "7", "--trials", "4",
              "--seed", "1"], False),
            (["substream-test", "--trials", "2", "--seed", "7"], False),
            (["dp", "--delta", "70"], True),
        ],
    )
    def test_only_dp_loads_numpy(self, args, loads_numpy, tmp_path):
        path = tmp_path / "stream.txt"
        path.write_text("0\n3/2\n7/2\n4\n")
        args = [a.format(path=path) for a in args]
        script = (
            "import contextlib, io, json, sys\n"
            "from intervalsel.cli import dispatch\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    code = dispatch({args!r})\n"
            "print(json.dumps([code, 'numpy' in sys.modules]))\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, check=True
        )
        assert json.loads(proc.stdout.splitlines()[-1]) == [0, loads_numpy]

    @pytest.mark.parametrize(
        "args,modules",
        [
            (["run", "--unrestricted", "--delta", "5", "--input", "{path}",
              "--order", "shuffle", "--seed", "1"],
             "geometry restricted rng windows"),
            (["run", "--domain", "0,6", "--input", "{path}"], "geometry restricted rng"),
            (["gadget", "--t", "6", "--simulate", "--algorithm", "windowed:6",
              "--samples", "20", "--seed", "1", "--threads", "1"],
             "gadget geometry restricted rng windows"),
            (["gadget", "--t", "6", "--verify", "--seed", "1"], "gadget geometry rng"),
            (["montecarlo", "--alpha", "6", "--delta", "7", "--trials", "4",
              "--seed", "1", "--threads", "1"],
             "gadget geometry harness recurrence restricted rng windows"),
            (["substream-test", "--trials", "2", "--seed", "7"],
             "gadget geometry harness recurrence restricted rng windows"),
            (["dp", "--delta", "70"], "geometry recurrence"),
            (["gadget", "--t", "6", "--simulate", "--algorithm", "oracle",
              "--samples", "20", "--seed", "1", "--threads", "1"],
             "gadget geometry rng"),
            (["gadget", "--t", "6", "--simulate", "--algorithm", "first",
              "--samples", "20", "--seed", "1", "--threads", "1"],
             "gadget geometry rng"),
        ],
    )
    def test_each_subcommand_loads_only_its_modules(self, args, modules, tmp_path):
        path = tmp_path / "stream.txt"
        path.write_text("0\n3/2\n7/2\n4\n")
        args = [a.format(path=path) for a in args]
        script = (
            "import contextlib, io, json, sys\n"
            "from intervalsel.cli import dispatch\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    code = dispatch({args!r})\n"
            "loaded = sorted(m for m in sys.modules if m.startswith('intervalsel.'))\n"
            "print(json.dumps([code, loaded]))\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, check=True
        )
        expected = sorted(f"intervalsel.{m}" for m in ["cli", *modules.split()])
        assert json.loads(proc.stdout.splitlines()[-1]) == [0, expected]

    @pytest.mark.parametrize(
        "module,error",
        [("harness", "ValidationError"), ("gadget", "GadgetInvariantError")],
    )
    def test_check_errors_exit_one_without_their_modules_loaded(self, module, error):
        # dispatch maps both to exit 1 through their base in geometry, so it
        # needs neither module loaded before a handler raises
        script = (
            "import contextlib, io, json, sys\n"
            "from intervalsel import cli\n"
            "def handler(args):\n"
            f"    before = 'intervalsel.{module}' in sys.modules\n"
            f"    from intervalsel.{module} import {error}\n"
            f"    raise {error}(f'loaded before: {{before}}')\n"
            "cli._COMMANDS['dp'] = handler\n"
            "err = io.StringIO()\n"
            "with contextlib.redirect_stderr(err):\n"
            "    code = cli.dispatch(['dp', '--delta', '4'])\n"
            "print(json.dumps([code, err.getvalue()]))\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, check=True
        )
        assert json.loads(proc.stdout.splitlines()[-1]) == [
            1, "error: loaded before: False\n"
        ]

    @pytest.mark.parametrize(
        "args",
        [
            ["dp", "--delta", "4", "--exact-until", "64"],
            ["run", "--domain", "-1,5", "--input", "-", "--allow-large"],
        ],
    )
    def test_removed_options_are_unknown(self, args, capsys):
        code, out, err = run_cli(args, capsys)
        assert code == 2
        assert out == ""
        assert "unrecognized arguments" in err

    def test_unknown_subcommand(self, capsys):
        code, _, _ = run_cli(["frobnicate"], capsys)
        assert code == 2


@pytest.fixture
def collector_state():
    """Restores the cyclic collector's state after the test."""
    was_enabled = gc.isenabled()
    yield
    if was_enabled:
        gc.enable()
    else:
        gc.disable()


class TestCyclicCollector:
    ARGS = ["gadget", "--t", "5", "--verify", "--seed", "1"]

    def test_main_leaves_the_collector_disabled(
        self, collector_state, monkeypatch, capsys
    ):
        exits = []
        monkeypatch.setattr(sys, "argv", ["intervalsel", *self.ARGS])
        monkeypatch.setattr(sys, "exit", exits.append)
        gc.enable()
        cli.main()
        assert not gc.isenabled()
        assert exits == [0]
        assert capsys.readouterr().out == run_cli(self.ARGS, capsys)[1]

    @pytest.mark.parametrize("enabled", [True, False])
    def test_dispatch_leaves_the_collector_as_it_was(
        self, collector_state, enabled, capsys
    ):
        (gc.enable if enabled else gc.disable)()
        assert run_cli(self.ARGS, capsys)[0] == 0
        assert gc.isenabled() == enabled


class TestDp:
    def test_single_delta_csv(self, capsys):
        code, out, err = run_cli(["dp", "--delta", "4"], capsys)
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "delta,restricted_factor,overall_factor,binding_alpha"
        delta, restricted, overall, binding = lines[1].split(",")
        assert delta == "4"
        assert restricted == "0.888888888889"
        assert overall == "0.666666666667"
        assert binding == "3"
        assert "config:" in err

    def test_delta_five_discrepancy_note(self, capsys):
        code, out, err = run_cli(["dp", "--delta", "5"], capsys)
        assert code == 0
        assert out.strip().splitlines()[1].split(",")[2] == "0.666666666667"
        assert "delta=5" in err and "2/3" in err

    @pytest.mark.parametrize(
        "args,where",
        [
            (["--delta", "6"], "at delta 6:"),
            (["--sweep", "2..9"], "at 4 deltas in 6..9:"),
            (["--sweep", "2..9", "--format", "json"], "at 4 deltas in 6..9:"),
            (["--delta", "5"], None),
            (["--sweep", "2..5"], None),
        ],
    )
    def test_tight_binding_alpha_note_on_stderr_only(self, args, where, capsys):
        code, out, err = run_cli(["dp", *args], capsys)
        assert code == 0
        notes = [
            line for line in err.splitlines()
            if line.startswith("note: binding alpha is delta - 1 >= 5")
        ]
        if where is None:
            assert notes == []
        else:
            assert len(notes) == 1 and where in notes[0]
        assert "binding alpha" not in out

    def test_sweep_row_count(self, capsys):
        code, out, _ = run_cli(["dp", "--sweep", "2..100"], capsys)
        assert code == 0
        assert len(out.strip().splitlines()) == 100  # header + 99 rows

    def test_json_format(self, capsys):
        code, out, _ = run_cli(["dp", "--delta", "6", "--format", "json"], capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["rows"][0]["overall_factor"] == pytest.approx(31 / 45)
        assert payload["overall_monotone"] is True

    def test_missing_delta(self, capsys):
        assert run_cli(["dp"], capsys)[0] == 2

    def test_bad_sweep_spec(self, capsys):
        assert run_cli(["dp", "--sweep", "5"], capsys)[0] == 2
        code, out, err = run_cli(["dp", "--delta", "2", "--sweep", "3..4"], capsys)
        assert code == 2
        assert out == ""
        assert err.splitlines()[-1] == (
            "usage error: give exactly one of --delta or --sweep"
        )
        code, _, err = run_cli(["dp", "--sweep", "9..5"], capsys)
        assert code == 2
        assert "usage error: need 2 <= delta_min <= delta_max" in err

    def test_golden_stdout(self, capsys):
        for args, digest in GOLDEN_DP_STDOUT.items():
            code, out, _ = run_cli(list(args), capsys)
            assert code == 0
            assert hashlib.sha256(out.encode()).hexdigest() == digest, args

    def test_metrics_line(self, capsys):
        code, _, err = run_cli(["dp", "--sweep", "2..300"], capsys)
        assert code == 0
        lines = err.splitlines()
        assert lines[0].startswith("config: ")
        label, text = lines[1].split(" ", 1)
        assert label == "metrics:"
        metrics = json.loads(text)
        assert list(metrics) == [
            "build_s", "max_rel_disagreement", "numpy_import_s",
            "ratio_violations", "x_max",
        ]
        assert metrics["x_max"] == 299
        assert metrics["max_rel_disagreement"] <= 1e-9
        assert metrics["ratio_violations"] == 0
        assert metrics["build_s"] >= 0
        assert metrics["numpy_import_s"] >= 0

    def test_unallocatable_table_is_a_data_error(self):
        # The address-space cap makes the 745 GiB table fail to allocate
        # whatever the host's overcommit policy.
        def cap_address_space():
            resource.setrlimit(resource.RLIMIT_AS, (4 << 30, 4 << 30))

        proc = subprocess.run(
            [sys.executable, "-m", "intervalsel", "dp", "--delta", "100000000000"],
            capture_output=True,
            text=True,
            timeout=60,
            preexec_fn=cap_address_space,
        )
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert proc.stderr.splitlines()[-1].startswith("error: ")
        assert "Traceback" not in proc.stderr


class TestRun:
    def test_restricted_run(self, interval_file, capsys):
        code, out, _ = run_cli(
            ["run", "--domain", "-1,5", "--input", interval_file], capsys
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["output_size"] == 2
        assert payload["alpha"] == 2
        assert payload["chosen_text"] == "0\n2"

    def test_shuffle_needs_same_seed_for_same_bytes(self, interval_file, capsys):
        args = [
            "run", "--domain", "-1,5", "--input", interval_file,
            "--order", "shuffle", "--seed", SEED,
        ]
        _, first, _ = run_cli(args, capsys)
        _, second, _ = run_cli(args, capsys)
        assert first == second

    def test_unrestricted_run(self, interval_file, capsys):
        code, out, _ = run_cli(
            ["run", "--unrestricted", "--delta", "3", "--input", interval_file],
            capsys,
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["output_size"] == 2
        assert payload["active_windows"] == 4
        assert {w["origin"] for w in payload["windows"]} == {-1, 0, 1, 2}

    def test_unrestricted_run_moves_no_coordinate(self, interval_file, monkeypatch, capsys):
        argv = ["run", "--unrestricted", "--delta", "3", "--input", interval_file]
        expected = run_cli(argv, capsys)

        def moved(self, k):
            raise AssertionError(f"{self} translated by {k}")

        monkeypatch.setattr(UnitInterval, "translate", moved)
        assert run_cli(argv, capsys) == expected

    def test_interval_outside_domain_fails_validation(self, interval_file, capsys):
        code, _, err = run_cli(
            ["run", "--domain", "0,2", "--input", interval_file], capsys
        )
        assert code == 1
        assert "not contained" in err

    def test_large_domain_runs_within_budget(self, interval_file, tmp_path, capsys):
        # Only the grid-cell budget limits a domain: a short stream on a
        # long domain holds few states and runs.
        one = tmp_path / "one.txt"
        one.write_text("3/2\n")
        code, out, err = run_cli(["run", "--domain", "0,11", "--input", str(one)], capsys)
        assert code == 0, err
        assert json.loads(out)["output_size"] == 1
        code, out, err = run_cli(
            ["run", "--domain", "-1,12", "--input", interval_file], capsys
        )
        assert code == 0, err
        assert json.loads(out)["output_size"] == 2

    @pytest.mark.parametrize(
        "args, line",
        [
            # the left end overflows while parsing
            (["--domain", "-1,5"], "1e400"),
            # the left end fits, the right end left + 1 does not (here
            # 2^63 / (2^63 - 1), then 2^63)
            (["--unrestricted", "--delta", "4"], "1/9223372036854775807"),
            (["--unrestricted", "--delta", "3"], "9223372036854775807"),
        ],
    )
    def test_coordinate_overflow_is_a_data_error(self, args, line, tmp_path, capsys):
        path = tmp_path / "huge.txt"
        path.write_text(line + "\n")
        code, out, err = run_cli(["run", *args, "--input", str(path)], capsys)
        assert code == 1
        assert out == ""
        assert "error:" in err and "64-bit range" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "lines",
        [["-9223372036854775808"], ["-9223372036854775807", "-9223372036854775805"]],
    )
    def test_lowest_left_ends_run_unrestricted(self, lines, tmp_path, capsys):
        # window origins reach below -2^63, and windows take the intervals as they are
        path = tmp_path / "low.txt"
        path.write_text("\n".join(lines) + "\n")
        code, out, err = run_cli(
            ["run", "--unrestricted", "--delta", "4", "--input", str(path)], capsys
        )
        assert code == 0
        assert "error:" not in err
        assert json.loads(out)["output_intervals"] == lines

    def test_domain_and_unrestricted_conflict(self, interval_file, capsys):
        code, _, _ = run_cli(
            [
                "run", "--domain", "0,4", "--unrestricted", "--delta", "3",
                "--input", interval_file,
            ],
            capsys,
        )
        assert code == 2

    def test_missing_input_file(self, capsys):
        code, _, _ = run_cli(["run", "--domain", "0,4", "--input", "/no/such"], capsys)
        assert code == 1


class TestMonteCarlo:
    def test_json_report(self, capsys):
        code, out, err = run_cli(
            [
                "montecarlo", "--kind", "independent", "--alpha", "2",
                "--delta", "4", "--trials", "60", "--seed", SEED,
                "--threads", "1",
            ],
            capsys,
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["mean"] == 2.0
        assert payload["alpha"] == 2
        assert json.loads(err.split("config:", 1)[1])["seed"] == int(SEED)

    @pytest.mark.parametrize(
        "lefts,noted",
        [
            # alpha 5 on the floors 0..4
            ("0\n11/10\n11/5\n33/10\n22/5\n", True),
            # alpha 4 on consecutive floors meets out_lb
            ("0\n11/10\n11/5\n33/10\n", False),
            # alpha 5 with one free split point (floors 0 1 2 3 5)
            ("0\n11/10\n11/5\n33/10\n5\n", False),
            # consecutive floors, but not independent
            ("0\n11/10\n2\n33/10\n22/5\n", False),
        ],
    )
    def test_consecutive_floor_note(self, lefts, noted, tmp_path, capsys):
        path = tmp_path / "instance.txt"
        path.write_text(lefts)
        code, out, err = run_cli(
            [
                "montecarlo", "--kind", "custom-file", "--input", str(path),
                "--delta", "7", "--trials", "3", "--seed", SEED, "--threads", "1",
            ],
            capsys,
        )
        assert code == 0
        assert json.loads(out)["trials"] == 3
        note = "note: the 5 intervals are independent on consecutive floors"
        assert (note in err) == noted

    def test_tight_independent_instance_is_noted(self, capsys):
        code, _, err = run_cli(
            [
                "montecarlo", "--alpha", "6", "--delta", "7", "--trials", "3",
                "--seed", SEED, "--threads", "1",
            ],
            capsys,
        )
        assert code == 0
        assert "note: the 6 intervals are independent on consecutive floors" in err

    @pytest.mark.parametrize(
        "command",
        [
            ["montecarlo", "--alpha", "2", "--delta", "4", "--trials", "8"],
            ["gadget", "--t", "4", "--simulate", "--samples", "8"],
        ],
    )
    @pytest.mark.parametrize("threads", ["0", "-2"])
    def test_thread_count_below_one_is_refused(self, command, threads, capsys):
        code, out, err = run_cli([*command, "--seed", SEED, "--threads", threads], capsys)
        assert code == 2
        assert out == ""
        assert "config:" not in err
        assert err.splitlines()[-1] == (
            f"usage error: --threads must be at least 1, got {threads}"
        )

    @pytest.mark.parametrize(
        "command",
        [
            ["montecarlo", "--alpha", "2", "--delta", "4", "--trials", "8"],
            ["gadget", "--t", "4", "--simulate", "--samples", "8"],
        ],
    )
    def test_default_threads_follow_the_affinity_set(self, command, monkeypatch, capsys):
        def no_pool(*args, **kwargs):
            raise AssertionError("a process pool started on one CPU")

        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
        code, _, err = run_cli([*command, "--seed", SEED], capsys)
        assert code == 0
        config = err.split("config:", 1)[1].splitlines()[0]
        assert json.loads(config)["threads"] == 1

    def test_csv_report(self, capsys):
        code, out, _ = run_cli(
            [
                "montecarlo", "--kind", "clique", "--size", "5",
                "--delta", "4", "--trials", "30", "--seed", SEED,
                "--threads", "1", "--format", "csv",
            ],
            capsys,
        )
        assert code == 0
        header, row = out.strip().splitlines()
        assert header.split(",")[0] == "trials"
        assert row.split(",")[0] == "30"

    def test_gadget_kind(self, capsys):
        code, out, _ = run_cli(
            [
                "montecarlo", "--kind", "gadget", "--t", "4",
                "--delta", "5", "--trials", "25", "--seed", SEED,
                "--threads", "1",
            ],
            capsys,
        )
        assert code == 0
        assert json.loads(out)["alpha"] == 3

    def test_gadget_t_above_the_shift_bound_is_refused(self, capsys):
        code, out, err = run_cli(
            [
                "montecarlo", "--kind", "gadget", "--t", str(MAX_GADGET_T + 1),
                "--delta", "5", "--trials", "10", "--seed", SEED, "--threads", "1",
            ],
            capsys,
        )
        assert code == 2
        assert out == ""
        assert err.splitlines()[-1].startswith("usage error: t must be <=")

    def test_alpha_out_of_range_is_usage(self, capsys):
        code, _, _ = run_cli(
            [
                "montecarlo", "--kind", "independent", "--alpha", "5",
                "--delta", "4", "--trials", "10", "--seed", SEED,
                "--threads", "1",
            ],
            capsys,
        )
        assert code == 2

    def test_window_below_two_is_named(self, tmp_path, capsys):
        # named before the alpha range, which at delta 1 would be [1, 0], and
        # before a clique or an empty file meets the wrapper domain
        empty = tmp_path / "empty.txt"
        empty.write_text("")
        for kind in (
            ["independent", "--alpha", "2"],
            ["clique", "--size", "1"],
            ["custom-file", "--input", str(empty)],
        ):
            for algorithm in ("restricted", "windowed"):
                code, out, err = run_cli(
                    [
                        "montecarlo", "--kind", *kind, "--algorithm", algorithm,
                        "--delta", "1", "--trials", "10", "--seed", SEED,
                        "--threads", "1",
                    ],
                    capsys,
                )
                assert (code, out) == (2, ""), (kind, algorithm)
                assert err.splitlines()[-1] == "usage error: delta must be at least 2"

    def test_auto_seed_is_printed(self, capsys):
        code, _, err = run_cli(
            [
                "montecarlo", "--kind", "independent", "--alpha", "2",
                "--delta", "4", "--trials", "5", "--threads", "1",
            ],
            capsys,
        )
        assert code == 0
        assert isinstance(json.loads(err.split("config:", 1)[1])["seed"], int)


class TestGadget:
    def test_verify_report(self, capsys):
        code, out, _ = run_cli(
            ["gadget", "--t", "6", "--verify", "--seed", SEED, "--exhaustive"],
            capsys,
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["alpha"] == 3
        assert payload["unique_triple"] is True
        assert payload["n"] == 8

    def test_verify_with_explicit_bits(self, capsys):
        code, out, _ = run_cli(
            [
                "gadget", "--t", "4", "--verify", "--index", "2",
                "--xbits", "a", "--ybits", "5", "--seed", SEED,
            ],
            capsys,
        )
        assert code == 0
        assert json.loads(out)["index"] == 2

    def test_bits_must_fit(self, capsys):
        code, _, _ = run_cli(
            ["gadget", "--t", "4", "--verify", "--xbits", "fff", "--seed", SEED],
            capsys,
        )
        assert code == 2

    def test_simulate_oracle(self, capsys):
        code, out, _ = run_cli(
            [
                "gadget", "--t", "6", "--simulate", "--samples", "400",
                "--algorithm", "oracle", "--seed", SEED, "--threads", "1",
            ],
            capsys,
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["approx_factor"] == 1.0
        assert abs(payload["success_rate"] - 2 / 3) < 0.1

    def test_t_below_three_rejected(self, capsys):
        assert run_cli(["gadget", "--t", "2", "--verify"], capsys)[0] == 2

    def test_needs_exactly_one_mode(self, capsys):
        assert run_cli(["gadget", "--t", "4", "--seed", SEED], capsys)[0] == 2

    @pytest.mark.parametrize(
        "command",
        [
            ["gadget", "--verify"],
            ["gadget", "--simulate", "--threads", "2"],
            ["montecarlo", "--kind", "gadget", "--delta", "5", "--trials", "8"],
        ],
    )
    def test_t_above_the_bound_is_refused_at_once(self, command, capsys):
        start = time.perf_counter()
        code, out, err = run_cli([*command, "--t", str(MAX_T + 1), "--seed", SEED], capsys)
        assert time.perf_counter() - start < 1.0
        assert code == 2
        assert out == ""
        assert err.splitlines()[-1].startswith("usage error:")


    @pytest.mark.parametrize("delta", ["1", "-3"])
    def test_small_window_is_refused_before_sampling(self, delta, monkeypatch, capsys):
        def no_samples(*args):
            raise AssertionError("samples ran before the algorithm was refused")

        monkeypatch.setattr(gadget_mod, "map_trials", no_samples)
        code, out, err = run_cli(
            [
                "gadget", "--t", "4", "--simulate", "--algorithm", f"windowed:{delta}",
                "--threads", "2", "--samples", "8", "--seed", SEED,
            ],
            capsys,
        )
        assert code == 2
        assert out == ""
        assert err.splitlines()[-1] == "usage error: delta must be at least 2"

    def test_bad_window_width_is_named(self, capsys):
        code, out, err = run_cli(
            [
                "gadget", "--t", "4", "--simulate", "--algorithm", "windowed:abc",
                "--seed", SEED,
            ],
            capsys,
        )
        assert code == 2
        assert out == ""
        assert err.splitlines()[-1] == (
            "usage error: bad algorithm 'windowed:abc': "
            "expected oracle, first or windowed:DELTA"
        )


class TestInapplicableOptions:
    @pytest.mark.parametrize("name", INAPPLICABLE_OPTIONS)
    def test_is_refused(self, name, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "intervals.txt").write_text("0\n2\n")
        code, out, err = run_cli(INAPPLICABLE_OPTIONS[name], capsys)
        assert code == 2
        assert out == ""
        assert err.splitlines()[-1].startswith("usage error:")


class TestSeedRange:
    # seeds alias modulo 2**64 in the generator, so one outside is refused
    COMMANDS = {
        "montecarlo": [
            "montecarlo", "--alpha", "2", "--delta", "4", "--trials", "2", "--threads", "1",
        ],
        "gadget-verify": ["gadget", "--t", "4", "--verify"],
        "gadget-simulate": [
            "gadget", "--t", "4", "--simulate", "--samples", "2", "--threads", "1",
        ],
        "substream-test": ["substream-test", "--trials", "2"],
        "run-shuffle": [
            "run", "--domain", "0,5", "--order", "shuffle", "--input", "intervals.txt",
        ],
    }

    @pytest.mark.parametrize("seed", ["-1", str(1 << 64)])
    @pytest.mark.parametrize("command", COMMANDS)
    def test_seed_outside_64_bits_is_refused(self, command, seed, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "intervals.txt").write_text("0\n2\n")
        code, out, err = run_cli([*self.COMMANDS[command], "--seed", seed], capsys)
        assert code == 2
        assert out == ""
        assert "usage error: --seed must lie in [0, 2**64)" in err

    def test_largest_seed_runs(self, capsys):
        code, out, _ = run_cli(
            ["substream-test", "--trials", "2", "--seed", str((1 << 64) - 1)], capsys
        )
        assert (code, json.loads(out)["violations"]) == (0, 0)


class TestSubstream:
    def test_clean_report(self, capsys):
        code, out, _ = run_cli(
            ["substream-test", "--trials", "40", "--seed", SEED], capsys
        )
        assert code == 0
        payload = json.loads(out)
        assert payload == {"trials": 40, "violations": 0, "examples": []}

    def test_violation_report(self, monkeypatch, capsys):
        def shrinking(delta, stream):
            return types.SimpleNamespace(output=[None] * (10 - len(stream)))

        monkeypatch.setattr(harness, "run_restricted", shrinking)
        code, out, _ = run_cli(["substream-test", "--trials", "40", "--seed", "7"], capsys)
        assert code == 1
        assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN_VIOLATIONS_STDOUT
        payload = json.loads(out)
        trials = [example["trial"] for example in payload["examples"]]
        assert trials == sorted(trials) and len(trials) == 5 < payload["violations"]


class TestSubstreamTrials:
    @pytest.mark.parametrize("trials", ["0", "-1"])
    def test_no_trials_is_usage_error(self, trials, capsys):
        code, out, err = run_cli(
            ["substream-test", "--trials", trials, "--seed", SEED], capsys
        )
        assert code == 2
        assert out == ""
        assert "usage error: need at least one trial" in err


class TestTrialGoldenStdout:
    @pytest.mark.parametrize(
        "name", [*GOLDEN_TRIAL_STDOUT, *GOLDEN_PATH_STDOUT, *GOLDEN_REPORT_STDOUT]
    )
    def test_golden_stdout(self, name, tmp_path, capsys):
        args, digest = {
            **GOLDEN_TRIAL_STDOUT, **GOLDEN_PATH_STDOUT, **GOLDEN_REPORT_STDOUT
        }[name]
        if args[0] == "run":
            path = tmp_path / "stream.txt"
            path.write_text(GOLDEN_STREAM)
            args = [*args, "--input", str(path)]
        code, out, _ = run_cli(args, capsys)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest


class TestGoldenConfig:
    @pytest.mark.parametrize("name", GOLDEN_CONFIG)
    def test_config_line(self, name, tmp_path, monkeypatch, capsys):
        args, config = GOLDEN_CONFIG[name]
        monkeypatch.chdir(tmp_path)
        (tmp_path / "intervals.txt").write_text("# demo instance\n0\n2\n1/2\n")
        code, _, err = run_cli(args.split(), capsys)
        assert code == 0
        assert [line for line in err.splitlines() if line.startswith("config:")] == [
            f"config: {config}"
        ]


# Input files that no command can use.
BAD_INPUTS = {
    "bad-coordinate": b"0\nabc\n",
    "outside-domain": b"0\n7.5\n",
    "directory": None,
    "non-utf8": b"\xff\xfe0\n",
    # exponents whose power of ten has 100,001 and 10,000,001 digits
    "huge-exponent": b"1e100000\n",
    "huger-exponent": b"1e10000000\n",
}
INPUT_COMMANDS = {
    "run-domain": ["run", "--domain", "0,5"],
    "run-unrestricted": ["run", "--unrestricted", "--delta", "4"],
    "montecarlo-custom-file": [
        "montecarlo", "--kind", "custom-file", "--delta", "5", "--trials", "3",
        "--seed", SEED, "--threads", "1",
    ],
}
# The unrestricted lift has no domain (every interval lies in some window),
# so "outside-domain" is an error only for the commands that fix one:
# [0, 5), and [0, 5) inside the [-1, 6) wrapper for delta 5.
DATA_ERROR_CASES = [
    (bad_input, command)
    for bad_input in BAD_INPUTS
    for command in INPUT_COMMANDS
    if (bad_input, command) != ("outside-domain", "run-unrestricted")
]


class TestExitCodes:
    @pytest.mark.parametrize("bad_input, command", DATA_ERROR_CASES)
    def test_unusable_input_is_a_data_error(self, bad_input, command, tmp_path, capsys):
        path = tmp_path / "input"
        if BAD_INPUTS[bad_input] is None:
            path.mkdir()
        else:
            path.write_bytes(BAD_INPUTS[bad_input])
        start = time.perf_counter()
        code, out, err = run_cli([*INPUT_COMMANDS[command], "--input", str(path)], capsys)
        assert time.perf_counter() - start < 1.0
        assert code == 1
        assert out == ""
        assert err.splitlines()[-1].startswith("error: ")
        assert "Traceback" not in err

    @settings(max_examples=150, deadline=None)
    @given(
        st.one_of(
            st.text(max_size=80),
            st.lists(
                st.one_of(
                    st.fractions(min_value=-3, max_value=9, max_denominator=8).map(str),
                    st.decimals(min_value=-3, max_value=9, places=2).map(str),
                    st.text(max_size=6),
                ),
                max_size=12,
            ).map("\n".join),
        )
    )
    def test_any_text_exits_zero_or_one(self, text):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "input.txt"
            path.write_text(text, encoding="utf-8")
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = dispatch(["run", "--domain", "-1,7", "--input", str(path)])
        assert code in (0, 1), err.getvalue()
        assert "Traceback" not in err.getvalue()
        if code == 1:
            assert out.getvalue() == ""
            assert err.getvalue().splitlines()[-1].startswith("error: ")

    def test_long_domain_runs(self, tmp_path, capsys):
        # 1,002,001 cells, well inside the budget, which alone limits the
        # domain length: the output pass must not recurse per unit of it.
        path = tmp_path / "one.txt"
        path.write_text("997.5\n")
        code, out, err = run_cli(["run", "--domain", "0,1000", "--input", str(path)], capsys)
        assert code == 0, err
        assert json.loads(out)["output_size"] == 1
        assert "Traceback" not in err

    def test_out_of_memory_is_a_data_error(self, tmp_path):
        # 80 lefts on the eighth grid over a length-20 domain need far more
        # distinct states than the 200 MB address-space cap allows; the
        # states must be freed before the error line is printed.  `run`
        # does not import numpy; one BLAS thread would keep the thread
        # stacks numpy reserves at import out of the cap on many-core hosts
        # if it ever did.
        path = tmp_path / "big.txt"
        path.write_text("\n".join(f"{(37 * j) % 151}/8" for j in range(80)))

        def cap_address_space():
            resource.setrlimit(resource.RLIMIT_AS, (200 << 20, 200 << 20))

        start = time.perf_counter()
        proc = subprocess.run(
            [
                sys.executable, "-m", "intervalsel", "run", "--domain", "0,20",
                "--input", str(path),
            ],
            capture_output=True,
            text=True,
            timeout=60,
            preexec_fn=cap_address_space,
            env={**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"},
        )
        assert time.perf_counter() - start < 10.0
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert proc.stderr.splitlines()[-1] == "error: MemoryError"
        assert "Traceback" not in proc.stderr


class TestGridBudget:
    @pytest.mark.parametrize(
        "command",
        [
            ["run", "--domain", "-1,12", "--input", "INPUT"],
            ["run", "--unrestricted", "--delta", "9", "--input", "INPUT"],
            [
                "montecarlo", "--alpha", "3", "--delta", "9", "--trials", "4",
                "--seed", SEED, "--threads", "1",
            ],
            [
                "montecarlo", "--alpha", "3", "--delta", "9", "--trials", "4",
                "--seed", SEED, "--threads", "1", "--algorithm", "windowed",
            ],
            [
                "gadget", "--t", "4", "--simulate", "--algorithm", "windowed:9",
                "--samples", "4", "--seed", SEED, "--threads", "1",
            ],
        ],
    )
    def test_every_entry_point_is_bounded(self, command, interval_file, monkeypatch, capsys):
        # A delta-9 root grid holds 12**2 = 144 cells.
        monkeypatch.setattr(restricted, "MAX_GRID_CELLS", 100)
        args = [interval_file if arg == "INPUT" else arg for arg in command]
        code, out, err = run_cli(args, capsys)
        assert code == 1
        assert out == ""
        assert "Traceback" not in err
        assert err.splitlines()[-1].startswith("error: grid-cell budget exceeded:")
        assert "MAX_GRID_CELLS = 100" in err

    @pytest.mark.parametrize(
        "command",
        [
            ["montecarlo", "--alpha", "2", "--delta", "100000", "--trials", "8"],
            [
                "montecarlo", "--alpha", "2", "--delta", "100000", "--trials", "8",
                "--algorithm", "windowed",
            ],
            [
                "gadget", "--t", "4", "--simulate", "--algorithm", "windowed:100000",
                "--samples", "8",
            ],
        ],
    )
    def test_parallel_run_is_refused_before_the_pool_starts(
        self, command, monkeypatch, capsys
    ):
        _, _, serial_err = run_cli([*command, "--seed", SEED, "--threads", "1"], capsys)

        def no_pool(*args, **kwargs):
            raise AssertionError("a process pool started before the budget check")

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
        code, out, err = run_cli([*command, "--seed", SEED, "--threads", "2"], capsys)
        assert code == 1
        assert out == ""
        assert err.splitlines()[-1] == serial_err.splitlines()[-1]
        assert err.splitlines()[-1].startswith("error: grid-cell budget exceeded:")

    def test_large_delta_is_refused_before_allocating(self, tmp_path):
        # One window's root grid at delta 100000 holds about 1e10 cells; the
        # budget refuses it before the list is allocated, so the run ends at
        # once with the budget's message, not with a MemoryError.  At delta
        # 3e8 a list of the delta - 1 origins of an interval's windows would
        # alone pass the cap, so they must not be listed before the grid.
        path = tmp_path / "one.txt"
        path.write_text("0\n")

        def cap_address_space():
            resource.setrlimit(resource.RLIMIT_AS, (200 << 20, 200 << 20))

        for delta in ("100000", "300000000"):
            start = time.perf_counter()
            proc = subprocess.run(
                [
                    sys.executable, "-m", "intervalsel", "run", "--unrestricted",
                    "--delta", delta, "--input", str(path),
                ],
                capture_output=True,
                text=True,
                timeout=60,
                preexec_fn=cap_address_space,
                env={**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"},
            )
            assert time.perf_counter() - start < 10.0, delta
            assert proc.returncode == 1, delta
            assert proc.stdout == ""
            assert proc.stderr.splitlines()[-1].startswith(
                "error: grid-cell budget exceeded:"
            ), (delta, proc.stderr)
            assert "Traceback" not in proc.stderr


class TestByteDeterminism:
    def test_repeat_invocations_match_exactly(self):
        cmd = [
            sys.executable, "-m", "intervalsel",
            "montecarlo", "--kind", "independent", "--alpha", "3",
            "--delta", "5", "--trials", "40", "--seed", SEED, "--threads", "1",
        ]
        first = subprocess.run(cmd, capture_output=True, check=True)
        second = subprocess.run(cmd, capture_output=True, check=True)
        assert first.stdout == second.stdout

    def test_thread_count_does_not_change_output(self):
        for args in (
            ["gadget", "--t", "5", "--simulate", "--samples", "120",
             "--algorithm", "oracle"],
            ["montecarlo", "--kind", "independent", "--alpha", "3",
             "--delta", "5", "--trials", "41"],
        ):
            base = [sys.executable, "-m", "intervalsel", *args, "--seed", SEED]
            one = subprocess.run(base + ["--threads", "1"], capture_output=True, check=True)
            four = subprocess.run(base + ["--threads", "4"], capture_output=True, check=True)
            assert one.stdout == four.stdout
