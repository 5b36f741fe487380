"""End-to-end acceptance suite.

One test per criterion; each prints a single PASS line with its headline
numbers (run with ``pytest tests/test_acceptance.py -v -s``).  Tolerances are
pinned here and nowhere else.
"""

import time

import numpy as np
import pytest
from numpy.testing import assert_allclose

from orthotime import bounds, cli, linalg, qubit, theorem
from orthotime.discriminate import DiscriminationResult, NoOrthogonality, bracket, find_t_perp
from helpers import qubit_horizon, random_axis, random_hermitian

import scipy.linalg


def _report(criterion, message):
    print(f"[acceptance] criterion {criterion}: PASS ({message})")


def _qubit_pair(gamma, omega_a, omega_b):
    axis_a, axis_b = cli.axes_for_gamma(gamma)
    field_a = qubit.QubitField(omega_a, axis_a)
    field_b = qubit.QubitField(omega_b, axis_b)
    return field_a, field_b


def _row_residual(gamma, omega_a, omega_b, t_perp):
    """Bracket magnitude of the closed-form optimal state at the found time."""
    field_a, field_b = _qubit_pair(gamma, omega_a, omega_b)
    psi = qubit.discrimination_state(field_a, field_b, t_perp)
    value = bracket(psi, qubit.qubit_hamiltonian(field_a),
                    qubit.qubit_hamiltonian(field_b), t_perp)
    return abs(value)


@pytest.fixture(scope="session")
def fig1_data():
    start = time.perf_counter()
    rows = cli.fig1_rows(0.05, 0.95, 50, omega_sum=2.0)
    return rows, time.perf_counter() - start


@pytest.fixture(scope="session")
def fig2_data():
    start = time.perf_counter()
    rows = cli.fig2_rows(0.0, np.pi, 100, omega_ratio=3.0, omega_sum=2.0)
    return rows, time.perf_counter() - start


@pytest.fixture(scope="session")
def qubit_oracle_data():
    """200 random qubit pairs: closed form vs the generic d = 2 engine."""
    rng = np.random.default_rng(20250807)
    records = []
    start = time.perf_counter()
    for _ in range(200):
        omega_a, omega_b = rng.uniform(0.1, 5.0, size=2)
        axis_a, axis_b = random_axis(rng), random_axis(rng)
        gamma = float(np.arccos(np.clip(axis_a @ axis_b, -1.0, 1.0)))
        t_closed = qubit.qubit_t_perp(gamma, omega_a, omega_b)
        ha = qubit.qubit_hamiltonian(qubit.QubitField(omega_a, axis_a))
        hb = qubit.qubit_hamiltonian(qubit.QubitField(omega_b, axis_b))
        horizon = qubit_horizon(gamma, omega_a, omega_b)
        outcome = find_t_perp(ha, hb, t_max=1.05 * horizon)
        records.append((ha, hb, t_closed, outcome))
    return records, time.perf_counter() - start


@pytest.fixture(scope="session")
def random_matrix_data():
    """50 random Hermitian pairs, d in 2..6, spectral radius <= 2."""
    rng = np.random.default_rng(20250808)
    records = []
    start = time.perf_counter()
    for _ in range(50):
        dim = int(rng.integers(2, 7))
        ha = random_hermitian(rng, dim, radius=rng.uniform(0.3, 2.0))
        hb = random_hermitian(rng, dim, radius=rng.uniform(0.3, 2.0))
        records.append((ha, hb, find_t_perp(ha, hb)))
    return records, time.perf_counter() - start


def test_criterion_1_fig1_alignment_zero(fig1_data):
    rows, elapsed = fig1_data
    assert len(rows) == 50
    worst_bound = worst_norm = 0.0
    for row in rows:
        assert row.exists
        # omega_sum = 2, so wa - wb = 2r and the difference-field energy is 2r
        e_bar = qubit.mean_energy_bar(1.0 + row.abscissa, 1.0 - row.abscissa, 1.0)
        assert_allclose(e_bar, 2.0 * row.abscissa, rtol=1e-12)
        expected = np.pi / (2.0 * e_bar)
        worst_bound = max(worst_bound, abs(row.t_perp_raw - expected) / expected)
        expected_norm = 1.0 / (8.0 * row.abscissa)
        worst_norm = max(worst_norm, abs(row.t_perp_norm - expected_norm) / expected_norm)
        assert abs(row.t_perp_raw - row.t_margolus) <= 1e-10 * row.t_margolus
    assert worst_bound <= 1e-10
    assert worst_norm <= 1e-10
    assert elapsed < 1.0
    _report(1, f"50 rows, worst rel err vs pi/(2 Ebar) {worst_bound:.2e}, "
               f"vs 1/(8r) {worst_norm:.2e}, {elapsed:.2f}s")


def test_criterion_2_fig2_ratio_three(fig2_data):
    rows, elapsed = fig2_data
    assert len(rows) == 100
    span = np.pi / 4.0  # omega_sum = 2 -> wa + wb = 2
    for row in rows:
        assert row.exists, f"missing orthogonality time at gamma = {row.abscissa}"
        assert row.t_perp_raw >= span * (1.0 - 1e-10)
        assert_allclose(row.t_lb_span, span, rtol=1e-12)
    last = rows[-1]
    assert abs(last.abscissa - np.pi) <= 1e-12
    saturation = abs(last.t_perp_raw - span) / span
    assert saturation <= 1e-10
    assert elapsed < 2.0
    _report(2, f"100 rows all exist, gamma=pi saturation rel err {saturation:.2e}, "
               f"{elapsed:.2f}s")


def test_criterion_3_nonexistence_case():
    gamma = np.pi / 4.0
    assert qubit.qubit_t_perp(gamma, 1.0, 1.0) is None
    field_a, field_b = _qubit_pair(gamma, 1.0, 1.0)
    ha = qubit.qubit_hamiltonian(field_a)
    hb = qubit.qubit_hamiltonian(field_b)
    default_horizon = 100.0 * bounds.span_lower_bound(ha, hb)
    outcome = find_t_perp(ha, hb, t_max=10.0 * default_horizon)
    assert isinstance(outcome, NoOrthogonality)
    assert outcome.g_infimum > 0.0
    _report(3, f"no root for equal frequencies at gamma=pi/4; "
               f"g infimum {outcome.g_infimum:.6f} > 0 over 10x horizon")


def test_criterion_4_generic_vs_closed_form(qubit_oracle_data):
    records, elapsed = qubit_oracle_data
    assert len(records) == 200
    worst = 0.0
    for ha, hb, t_closed, outcome in records:
        found = isinstance(outcome, DiscriminationResult)
        assert (t_closed is not None) == found, "existence disagreement"
        if found:
            worst = max(worst, abs(outcome.t_perp - t_closed) / t_closed)
    assert worst <= 1e-6
    assert elapsed < 30.0
    _report(4, f"200 random qubit pairs agree, worst rel diff {worst:.2e}, "
               f"{elapsed:.2f}s")


def test_criterion_5_bracket_residuals(fig1_data, fig2_data, qubit_oracle_data):
    worst = 0.0
    for row in fig1_data[0]:
        omega_a, omega_b = 1.0 + row.abscissa, 1.0 - row.abscissa
        worst = max(worst, _row_residual(0.0, omega_a, omega_b, row.t_perp_raw))
    for row in fig2_data[0]:
        worst = max(worst, _row_residual(row.abscissa, 1.5, 0.5, row.t_perp_raw))
    for _, _, _, outcome in qubit_oracle_data[0]:
        if isinstance(outcome, DiscriminationResult):
            worst = max(worst, outcome.residual)
    assert worst <= 1e-8
    _report(5, f"all found discriminations, worst residual {worst:.2e}")


def test_criterion_6_bound_ordering(random_matrix_data, qubit_oracle_data):
    found = 0
    worst_geodesic = np.inf
    all_records = list(random_matrix_data[0])
    all_records += [(ha, hb, out) for ha, hb, _, out in qubit_oracle_data[0]]
    for ha, hb, outcome in all_records:
        if not isinstance(outcome, DiscriminationResult):
            continue
        found += 1
        t_aa = bounds.aa_lower_bound(ha, hb, outcome.state)
        t_span = bounds.span_lower_bound(ha, hb)
        assert t_span <= t_aa * (1.0 + 1e-12)
        assert t_aa <= outcome.t_perp * (1.0 + 1e-9)
        length = bounds.bounds_report(ha, hb, outcome.state).geodesic_length_at(outcome.t_perp)
        worst_geodesic = min(worst_geodesic, length)
        assert length >= np.pi - 1e-9
    assert found >= 50
    assert all(isinstance(out, DiscriminationResult)
               for _, _, out in random_matrix_data[0])
    _report(6, f"ordering chain on {found} found discriminations, "
               f"min geodesic length {worst_geodesic:.9f} >= pi - 1e-9")


def test_criterion_7_saturating_construction():
    rng = np.random.default_rng(20250809)
    worst = 0.0
    for _ in range(50):
        omega_a, omega_b = rng.uniform(0.2, 4.0, size=2)
        dim = int(rng.integers(2, 7))
        alpha = rng.uniform(0.0, 2.0 * np.pi)
        ha, hb, psi = bounds.saturating_pair(omega_a, omega_b, dim, alpha)
        expected = np.pi / (2.0 * (omega_a + omega_b))
        outcome = find_t_perp(ha, hb, alpha=alpha)
        assert isinstance(outcome, DiscriminationResult)
        worst = max(worst, abs(outcome.t_perp - expected) / expected)
        assert abs(bracket(psi, ha, hb, outcome.t_perp)) <= 1e-8
    assert worst <= 1e-10
    _report(7, f"50 anti-aligned pairs saturate the span bound, "
               f"worst rel err {worst:.2e}")


def test_criterion_8_theorem_harness():
    start = time.perf_counter()
    trials = theorem.run_trials(1000, 6, seed=20250810)
    unskipped = [t for t in trials if not t.skipped]
    worst_margin = min(t.margin for t in unskipped)
    assert worst_margin >= -1e-9

    rng = np.random.default_rng(20250811)
    worst_step = np.inf
    for _ in range(200):
        dim = int(rng.integers(2, 5))
        x = random_hermitian(rng, dim, radius=np.pi / 4)
        y = random_hermitian(rng, dim, radius=np.pi / 4)
        s = rng.uniform(0.0, 1.0 - 1e-3)
        lhs, rhs = theorem.check_induction_step(x, y, s, 1e-3)
        worst_step = min(worst_step, rhs + 1e-8 * (1.0 + rhs) - lhs)
        assert lhs <= rhs + 1e-8 * (1.0 + rhs)

    worst_frechet = 0.0
    checked = 0
    while checked < 100:
        dim = int(rng.integers(2, 7))
        vals = rng.uniform(0.5, 2.0, dim) * np.exp(1j * rng.uniform(-2.5, 2.5, dim))
        if np.min(np.abs(vals[:, None] - vals[None, :]) + np.eye(dim)) < 0.05:
            continue
        g = np.diag(vals)
        h = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        step = 1e-5
        fd = (scipy.linalg.logm(g + step * h) - scipy.linalg.logm(g - step * h)) / (2 * step)
        rel = np.linalg.norm(linalg.log_frechet_diag(g, h) - fd) / np.linalg.norm(fd)
        worst_frechet = max(worst_frechet, rel)
        checked += 1
    assert worst_frechet <= 1e-6
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    _report(8, f"1000 trials worst margin {worst_margin:.2e}, 200 induction steps, "
               f"100 derivative checks worst rel {worst_frechet:.2e}, {elapsed:.2f}s")


def test_criterion_9_conjecture_scan():
    rng = np.random.default_rng(20250812)
    ha = random_hermitian(rng, 3, radius=1.0)
    report = theorem.conjecture_scan(ha, 1.0, 0.1, n_samples=500, seed=20250813)
    ha_traceless = ha - (np.trace(ha) / 3.0) * np.eye(3)
    expected = 2.0 * linalg.frobenius(ha_traceless)
    assert abs(report.anti_aligned_norm - expected) <= 1e-10 * expected
    assert report.max_sample_norm <= report.anti_aligned_norm + 1e-8
    _report(9, f"500 samples, max {report.max_sample_norm:.6f} <= "
               f"anti-aligned {report.anti_aligned_norm:.6f}")
