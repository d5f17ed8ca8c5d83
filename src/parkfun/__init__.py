"""Defective parking functions: exact counts, limits, and simulation.

m drivers pick favorite spaces in a linear car park with n spaces and
spill rightward when their choice is taken; cp(n, m, k) counts the
preference sequences under which exactly k drivers never park.  The
package computes these counts exactly by two independent closed routes,
reproduces them by direct process simulation, and evaluates the limit
laws they obey (Rayleigh tail at m = n, the tree-function full-lot
curve, and fixed-defect ratio limits).
"""

from .asymptotic import (
    defect_ratio_limit,
    density_integral_check,
    full_lot_limit,
    full_lot_series,
    limiting_density,
    limiting_tail,
    phi,
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
    table_value,
    tail_sum,
    tail_sum_alternating,
    tail_upper_bound_check,
)
from .simulate import (
    EmpiricalDistribution,
    EnumerationCapError,
    ParkOutcome,
    cars_until_full,
    enumerate_exhaustive,
    park,
    park_naive,
    sample_empirical,
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
    "density_integral_check",
    "enumerate_exhaustive",
    "full_lot_limit",
    "full_lot_series",
    "limiting_density",
    "limiting_tail",
    "park",
    "park_naive",
    "parking_function_count",
    "phi",
    "pmf_approx",
    "rayleigh_cdf",
    "ratio_as_float",
    "sample_empirical",
    "table_value",
    "tail_sum",
    "tail_sum_alternating",
    "tail_upper_bound_check",
    "tree_function",
]
