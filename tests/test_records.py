"""Contracts of the record types: immutable, validated where they check
their fields, picklable, and printed as ``Name(field=value, ...)``."""

import pickle
from collections import Counter

import pytest

from intervalsel import harness
from intervalsel.gadget import random_gadget, simulate_protocol, verify
from intervalsel.geometry import (
    Domain,
    Scalar,
    UnitInterval,
    max_independent_set,
)
from intervalsel.harness import (
    InstanceSpec,
    TrialSummary,
    ValidationError,
    monte_carlo,
    substream_monotonicity_test,
)
from intervalsel.recurrence import build_out_table, sweep
from intervalsel.restricted import run_restricted
from intervalsel.rng import SplitMix64
from intervalsel.windows import WindowMap

SEED = 20260810

RECORD_NAMES = [
    "Scalar",
    "UnitInterval",
    "IndependentSet",
    "Domain",
    "RunReport",
    "WindowReport",
    "InstanceSpec",
    "TrialSummary",
    "MonotonicityReport",
    "GadgetInstance",
    "VerificationReport",
    "BranchStats",
    "ProtocolStats",
    "OutTable",
    "FactorRow",
    "FactorCurve",
]


def fields(record):
    """Field names: a NamedTuple's, or the slots of a geometry value type."""
    return getattr(record, "_fields", None) or type(record).__slots__


@pytest.fixture(scope="module")
def records():
    """One instance of each record type, built through the public API."""
    half = UnitInterval(Scalar(1, 2))
    spec = InstanceSpec(kind="independent", delta=4, seed=SEED, alpha=2)
    windows = WindowMap(3)
    windows.feed(half)
    gadget = random_gadget(4, SplitMix64(SEED))
    stats = simulate_protocol(4, 6, "oracle", SEED)
    table = build_out_table(6)
    curve = sweep(3, 5, table)
    return {
        "Scalar": half.left,
        "UnitInterval": half,
        "IndependentSet": max_independent_set([half, UnitInterval(Scalar(5, 2))]),
        "Domain": Domain(0, 3),
        "RunReport": run_restricted(4, [half, UnitInterval(Scalar(2))]),
        "WindowReport": windows.window_reports()[0],
        "InstanceSpec": spec,
        "TrialSummary": monte_carlo(spec, 5, threads=1),
        "MonotonicityReport": substream_monotonicity_test(3, SEED),
        "GadgetInstance": gadget,
        "VerificationReport": verify(gadget),
        "BranchStats": stats.target_built_privately,
        "ProtocolStats": stats,
        "OutTable": table,
        "FactorRow": curve.rows[0],
        "FactorCurve": curve,
    }


@pytest.mark.parametrize("name", RECORD_NAMES)
def test_fields_cannot_be_assigned(records, name):
    record = records[name]
    assert type(record).__name__ == name
    for field in fields(record):
        with pytest.raises(AttributeError):
            setattr(record, field, getattr(record, field))
    with pytest.raises(AttributeError):
        record.extra = 1


@pytest.mark.parametrize("name", RECORD_NAMES)
def test_repr_names_the_type_and_fields(records, name):
    record = records[name]
    shown = ", ".join(f"{f}={getattr(record, f)!r}" for f in fields(record))
    assert repr(record) == f"{name}({shown})"


class TestDomain:
    @pytest.mark.parametrize("a, b", [(1, 1), (3, 1)])
    def test_empty_or_reversed_domain_is_refused(self, a, b):
        with pytest.raises(ValueError, match="requires a < b"):
            Domain(a, b)

    def test_keyword_construction(self):
        d = Domain(b=4, a=-1)
        assert (d.a, d.b, str(d)) == (-1, 4, "[-1, 4)")


class TestTrialSummary:
    FIELDS = dict(
        trials=4,
        mean=2.0,
        std=0.5,
        min=1,
        max=3,
        alpha=3,
        empirical_factor=2 / 3,
        predicted_bound=2.0,
        stderr=0.25,
        meets_prediction=True,
    )

    def test_ordered_fields_are_accepted(self):
        # the field order is the CSV column order
        assert TrialSummary(**self.FIELDS)._asdict() == self.FIELDS
        assert TrialSummary._fields == tuple(self.FIELDS)

    # each replaces the trials' counts of output sizes with one that reaches
    # above alpha = 2, which monte_carlo refuses as it builds the summary
    @pytest.mark.parametrize("changes", [{3: 1}, {1: 2, 3: 1}, {2: 3, 4: 1}, {5: 4}])
    def test_fields_out_of_order_are_refused(self, changes, monkeypatch):
        monkeypatch.setattr(harness, "map_trials", lambda *args: Counter(changes))
        spec = InstanceSpec(kind="independent", delta=4, seed=SEED, alpha=2)
        with pytest.raises(ValidationError, match="out of order"):
            monte_carlo(spec, 5, threads=1)


@pytest.mark.parametrize(
    "name",
    [
        "InstanceSpec",
        "Scalar",
        "UnitInterval",
        "IndependentSet",
        "RunReport",
        "Domain",
        "TrialSummary",
    ],
)
def test_pickle_round_trip(records, name):
    # InstanceSpec crosses the process pool of monte_carlo
    record = records[name]
    copy = pickle.loads(pickle.dumps(record))
    assert type(copy) is type(record)
    assert copy == record
    assert hash(copy) == hash(record)
