"""Random-order streaming selection of unit intervals.

A library and CLI around a one-pass streaming algorithm for picking a
large independent set of unit-length intervals when the stream arrives in
uniform random order: exact rational geometry and an offline oracle, the
recursive split-point algorithm on fixed integer domains, the
shifting-window lift to the whole line, the dynamic program certifying
expected approximation factors, a hardness construction reducing bit
recovery to interval selection, and seeded Monte Carlo harnesses.
"""

from .gadget import (
    GadgetInstance,
    GadgetInvariantError,
    ProtocolStats,
    VerificationReport,
    build as build_gadget,
    random_gadget,
    simulate_protocol,
    verify as verify_gadget,
    wing_after_probability,
)
from .geometry import (
    Domain,
    IndependentSet,
    ParseError,
    Scalar,
    ScalarOverflowError,
    UnitInterval,
    alpha,
    contained_in,
    format_intervals,
    intersects,
    max_independent_set,
    parse_intervals,
)
from .harness import (
    InstanceSpec,
    MonotonicityReport,
    TrialSummary,
    ValidationError,
    exhaustive_expectation,
    gen_clique,
    gen_independent,
    instance_from_spec,
    monte_carlo,
    substream_monotonicity_test,
)
from .recurrence import (
    FactorCurve,
    FactorRow,
    OutTable,
    build_out_table,
    sweep,
)
from .restricted import (
    DomainError,
    GridBudgetError,
    InstanceState,
    RunReport,
    run_on_stream,
    run_restricted,
    wrapper_domain,
)
from .rng import SplitMix64, derive, fisher_yates
from .windows import WindowMap, run_windowed, windows_containing

__version__ = "0.1.0"
