"""Orthogonality times for pairs of Hamiltonian evolutions.

Given two Hermitian generators (hbar = 1), this package finds the first time
their evolution operators drive a common initial state to orthogonal states,
constructs that optimal state, evaluates rigorous lower bounds on the time,
and numerically verifies the Frobenius-norm subadditivity of principal
logarithms of unitary products that underpins the bounds.

The names below are the package's entry points; everything else is reached
through its module, as ``orthotime.<module>.<name>``.
"""

from .bounds import (
    BoundsReport,
    aa_lower_bound,
    bounds_report,
    margolus_bound,
    saturating_pair,
    span_lower_bound,
)
from .discriminate import (
    DiscriminationResult,
    NoOrthogonality,
    ScanContinuityWarning,
    find_t_perp,
)
from .qubit import qubit_t_perp
from .theorem import check_subadditivity, run_trials

__version__ = "0.1.0"

__all__ = [
    "find_t_perp",
    "DiscriminationResult",
    "NoOrthogonality",
    "ScanContinuityWarning",
    "qubit_t_perp",
    "bounds_report",
    "BoundsReport",
    "aa_lower_bound",
    "span_lower_bound",
    "margolus_bound",
    "saturating_pair",
    "check_subadditivity",
    "run_trials",
]
