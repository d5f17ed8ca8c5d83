"""Defective parking functions: exact counts, limits, and simulation.

m drivers pick favorite spaces in a linear car park with n spaces and
spill rightward when their choice is taken; cp(n, m, k) counts the
preference sequences under which exactly k drivers never park.  The
package computes these counts exactly by two independent closed routes,
reproduces them by direct process simulation, and evaluates the limit
laws they obey (Rayleigh tail at m = n, the tree-function full-lot
curve, and fixed-defect ratio limits).

The exact and asymptotic routes need only the standard library; the
simulation names load numpy on first use.
"""

import importlib

from .asymptotic import (
    defect_ratio_limit,
    full_lot_limit,
    pmf_approx,
    rayleigh_cdf,
    tree_function,
)
from .exact import (
    DefectDistribution,
    DefectTable,
    abel_identity_check,
    defect_count_explicit,
    defect_count_recurrence,
    defect_distribution,
    parking_function_count,
    ratio_as_float,
    tail_sum,
    tail_sum_alternating,
)

__version__ = "0.1.0"

__all__ = [
    "DefectDistribution",
    "DefectTable",
    "EmpiricalDistribution",
    "EnumerationCapError",
    "ParkOutcome",
    "abel_identity_check",
    "cars_until_full",
    "defect_count_explicit",
    "defect_count_recurrence",
    "defect_distribution",
    "defect_ratio_limit",
    "enumerate_exhaustive",
    "full_lot_limit",
    "park",
    "park_naive",
    "parking_function_count",
    "pmf_approx",
    "rayleigh_cdf",
    "ratio_as_float",
    "sample_empirical",
    "tail_sum",
    "tail_sum_alternating",
    "tree_function",
]

# simulate needs numpy, which the exact and asymptotic routes do not, so its
# names are loaded on first access (PEP 562)
_SIMULATE_EXPORTS = (
    "EmpiricalDistribution",
    "EnumerationCapError",
    "ParkOutcome",
    "cars_until_full",
    "enumerate_exhaustive",
    "park",
    "park_naive",
    "sample_empirical",
)


def __getattr__(name: str):
    if name in ("rng", "simulate"):
        # the submodules that load numpy, imported when first named
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _SIMULATE_EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import simulate
    # bind every export at once, so later lookups are plain attribute reads
    for attr in _SIMULATE_EXPORTS:
        globals()[attr] = getattr(simulate, attr)
    return globals()[name]


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_SIMULATE_EXPORTS))
