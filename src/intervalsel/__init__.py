"""Random-order streaming selection of unit intervals.

A library and CLI around a one-pass streaming algorithm for picking a
large independent set of unit-length intervals when the stream arrives in
uniform random order: exact rational geometry and an offline oracle, the
recursive split-point algorithm on fixed integer domains, the
shifting-window lift to the whole line, the dynamic program certifying
expected approximation factors, a hardness construction reducing bit
recovery to interval selection, and seeded Monte Carlo harnesses.
"""

__version__ = "0.1.0"
