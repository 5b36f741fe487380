"""Each input rule is stated once, in ``linalg``, and every entry point that
takes an operator pair, a positive, nonnegative or finite scalar, or a count
goes through it: a bad value raises an error that names the argument, NaN and
infinity included."""

import re

import numpy as np
import pytest

from orthotime import bounds, cli, discriminate, linalg, qubit, theorem
from orthotime.errors import DimensionMismatchError
from helpers import I2, SX, SZ

HA3 = np.diag([1.0, 0.0, -1.0]).astype(complex)


# Each routed scalar, named "function.argument", with valid values in every
# other argument.
SCALAR_SITES = {
    "find_t_perp.t_max": lambda v: discriminate.find_t_perp(SZ, SX, t_max=v),
    "fig1_rows.omega_sum": lambda v: cli.fig1_rows(0.1, 0.5, 2, omega_sum=v),
    "fig2_rows.omega_ratio": lambda v: cli.fig2_rows(0.0, 1.0, 2, omega_ratio=v),
    "fig2_rows.omega_sum": lambda v: cli.fig2_rows(0.0, 1.0, 2, omega_sum=v),
    "margolus_bound.average energy": bounds.margolus_bound,
    "saturating_pair.omega_a": lambda v: bounds.saturating_pair(v, 1.0),
    "saturating_pair.omega_b": lambda v: bounds.saturating_pair(1.0, v),
    "conjecture_scan.k_ratio": lambda v: theorem.conjecture_scan(HA3, v, 0.1, 3, 1),
    "conjecture_scan.t": lambda v: theorem.conjecture_scan(HA3, 1.0, v, 3, 1),
}

# An integer beyond the float range counts as infinite.
HUGE_INT = 10**400


def _value_id(value):
    return "1e400" if value is HUGE_INT else None


BAD_SCALARS = [
    (np.nan, "must be finite"),
    (np.inf, "must be finite"),
    (HUGE_INT, "must be finite"),
    (0.0, "must be positive"),
    (-1.0, "must be positive"),
]


@pytest.mark.parametrize("value, rule", BAD_SCALARS, ids=_value_id)
@pytest.mark.parametrize("site", list(SCALAR_SITES))
def test_bad_positive_scalar_is_named(site, value, rule):
    name = site.split(".", 1)[1]
    with pytest.raises(ValueError, match=f"^{name} {rule}$"):
        SCALAR_SITES[site](value)


# Each routed scalar that need only be finite (or finite and nonnegative),
# with the values that reach the rule: non-finite ones, or for the frequency
# sum two finite frequencies whose sum overflows.
NON_FINITE = [np.nan, np.inf, -np.inf, HUGE_INT]
Z_AXIS = [0.0, 0.0, 1.0]
FIELD = qubit.QubitField(1.0, Z_AXIS)
FINITE_SITES = {
    "find_t_perp.alpha": (lambda v: discriminate.find_t_perp(SZ, SX, alpha=v), NON_FINITE),
    "saturating_pair.alpha": (lambda v: bounds.saturating_pair(1.0, 1.0, alpha=v), NON_FINITE),
    "QubitField.omega": (lambda v: qubit.QubitField(v, Z_AXIS), NON_FINITE),
    "qubit_t_perp.gamma": (lambda v: qubit.qubit_t_perp(v, 1.0, 2.0), NON_FINITE),
    "qubit_t_perp.omega_a": (lambda v: qubit.qubit_t_perp(0.3, v, 2.0), NON_FINITE),
    "qubit_t_perp.omega_b": (lambda v: qubit.qubit_t_perp(0.3, 1.0, v), NON_FINITE),
    "qubit_t_perp.omega_a + omega_b": (lambda v: qubit.qubit_t_perp(2.0, v, v), [1e308]),
    "equatorial_state.alpha": (lambda v: qubit.equatorial_state(Z_AXIS, v), NON_FINITE),
    "discrimination_state.t": (lambda v: qubit.discrimination_state(FIELD, FIELD, v),
                               NON_FINITE),
    "product_unitary.t": (lambda v: discriminate.product_unitary(SZ, SX, v), NON_FINITE),
    "phase_spectrum.t": (lambda v: discriminate.phase_spectrum(SZ, SX, v), NON_FINITE),
    "bracket.t": (lambda v: discriminate.bracket(I2[0], SZ, SX, v), NON_FINITE),
    "orthogonal_state.alpha": (lambda v: discriminate.orthogonal_state(I2, (0, 1), v),
                               NON_FINITE),
    "geodesic_length_at.t": (lambda v: bounds.bounds_report(SZ, SX, I2[0]).geodesic_length_at(v),
                             NON_FINITE),
}


@pytest.mark.parametrize("site, value", [(site, value) for site, (_, values)
                                         in FINITE_SITES.items() for value in values],
                         ids=_value_id)
def test_non_finite_scalar_is_named(site, value):
    name = site.split(".", 1)[1]
    with pytest.raises(ValueError, match=f"^{re.escape(name)} must be finite$"):
        FINITE_SITES[site][0](value)


# Each routed frequency that must be finite and nonnegative.
NONNEGATIVE_SITES = {
    "QubitField.omega": lambda v: qubit.QubitField(v, Z_AXIS),
    "qubit_t_perp.omega_a": lambda v: qubit.qubit_t_perp(0.3, v, 2.0),
    "qubit_t_perp.omega_b": lambda v: qubit.qubit_t_perp(0.3, 1.0, v),
}


@pytest.mark.parametrize("value", [-1.0, -5e-324])
@pytest.mark.parametrize("site", list(NONNEGATIVE_SITES))
def test_negative_frequency_is_named(site, value):
    name = site.split(".", 1)[1]
    with pytest.raises(ValueError, match=f"^{name} must be nonnegative$"):
        NONNEGATIVE_SITES[site](value)


# Each routed count, with valid values in every other argument; all must be
# integers of at least 1.
COUNT_SITES = {
    "conjecture_scan.n_samples": lambda v: theorem.conjecture_scan(HA3, 1.0, 0.1, v, 1),
    "run_trials.n_trials": lambda v: theorem.run_trials(v, 2, 1),
    "run_trials.dim_max": lambda v: theorem.run_trials(3, v, 1),
    "random_unitary.dim": lambda v: theorem.random_unitary(v, 1),
    "fig1_rows.n_points": lambda v: cli.fig1_rows(0.1, 0.5, v),
    "fig2_rows.n_points": lambda v: cli.fig2_rows(0.0, 1.0, v),
    "saturating_pair.dim": lambda v: bounds.saturating_pair(1.0, 1.0, dim=v),
}
BAD_COUNTS = [0, -3, 2.5, 3.0, np.float64(2.0), True, np.nan, "2", None]


@pytest.mark.parametrize("value", BAD_COUNTS, ids=repr)
@pytest.mark.parametrize("site", list(COUNT_SITES))
def test_bad_count_is_named(site, value):
    name = site.split(".", 1)[1]
    with pytest.raises(ValueError, match=f"^{name} must be an integer of at least 1$"):
        COUNT_SITES[site](value)


@pytest.mark.parametrize("site", list(COUNT_SITES))
def test_numpy_integer_count_is_accepted(site):
    COUNT_SITES[site](np.int64(2))


def test_saturating_pair_of_one_dimension_is_a_dimension_mismatch():
    with pytest.raises(DimensionMismatchError, match="^dim must be at least 2$"):
        bounds.saturating_pair(1.0, 1.0, dim=1)


PAIR_SITES = {
    "_EvolutionPair": (discriminate._EvolutionPair, ("ha", "hb")),
    "find_t_perp": (discriminate.find_t_perp, ("ha", "hb")),
    "span_lower_bound": (bounds.span_lower_bound, ("ha", "hb")),
    "bounds_report": (bounds.bounds_report, ("ha", "hb")),
    "check_subadditivity": (theorem.check_subadditivity, ("u", "v")),
    "log_frechet_diag": (linalg.log_frechet_diag, ("g", "h")),
}


@pytest.mark.parametrize("site", sorted(PAIR_SITES))
def test_pair_of_two_shapes_is_a_shape_mismatch(site):
    fn, _ = PAIR_SITES[site]
    with pytest.raises(DimensionMismatchError, match=r"^shape mismatch: \(2, 2\) vs \(3, 3\)$"):
        fn(np.eye(2, dtype=complex), np.eye(3, dtype=complex))


@pytest.mark.parametrize("first", [True, False])
@pytest.mark.parametrize("site", sorted(PAIR_SITES))
def test_non_square_operand_is_named(site, first):
    fn, names = PAIR_SITES[site]
    bad = np.ones((3, 2))
    args = (bad, SZ) if first else (SZ, bad)
    name = names[0] if first else names[1]
    with pytest.raises(DimensionMismatchError, match=f"^{name} must be a square matrix"):
        fn(*args)


def test_bounds_report_checks_the_pair_before_its_eigendecompositions(monkeypatch):
    calls = []
    monkeypatch.setattr(linalg, "herm_eig", lambda h: calls.append(h))
    with pytest.raises(DimensionMismatchError, match="shape mismatch"):
        bounds.bounds_report(SZ, np.eye(3, dtype=complex))
    assert calls == []
