import warnings

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from orthotime import discriminate, linalg, qubit
from orthotime.discriminate import (
    DiscriminationResult,
    NoOrthogonality,
    ScanContinuityWarning,
    bracket,
    find_t_perp,
    max_circular_gap,
    orthogonal_state,
    phase_spectrum,
    product_unitary,
)
from orthotime.errors import DimensionMismatchError
from helpers import SX, SZ, qubit_horizon, random_axis, random_hermitian


class TestProductUnitary:
    def test_identical_generators_give_identity(self):
        rng = np.random.default_rng(2)
        h = random_hermitian(rng, 3)
        for t in (0.1, 1.0, 7.3):
            assert_allclose(product_unitary(h, h, t), np.eye(3), atol=1e-12)

    def test_zero_time(self):
        assert_allclose(product_unitary(SZ, SX, 0.0), np.eye(2), atol=1e-14)

    def test_commuting_opposite_fields(self):
        # oracle: direct Pade exponential of the combined generator
        for t in (0.3, 1.1):
            assert_allclose(product_unitary(SZ, -SZ, t),
                            scipy.linalg.expm(-2j * t * SZ), atol=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            product_unitary(SZ, np.eye(3, dtype=complex), 1.0)


class TestPhaseSpectrum:
    def test_equal_generators_all_zero(self):
        spectrum = phase_spectrum(SZ, SZ, 2.0)
        assert_allclose(spectrum.phases, 0.0, atol=1e-12)

    def test_zero_time_all_zero(self):
        rng = np.random.default_rng(8)
        spectrum = phase_spectrum(random_hermitian(rng, 4), random_hermitian(rng, 4), 0.0)
        assert_allclose(spectrum.phases, 0.0, atol=1e-14)

    def test_opposite_fields_quarter_turn(self):
        spectrum = phase_spectrum(SZ, -SZ, np.pi / 4)
        assert_allclose(spectrum.phases, [-np.pi / 2, np.pi / 2], atol=1e-12)

    def test_orthogonal_axes_at_half_pi_are_antipodal(self):
        spectrum = phase_spectrum(SZ, SX, np.pi / 2)
        separation = spectrum.phases[1] - spectrum.phases[0]
        assert abs(min(separation, 2 * np.pi - separation) - np.pi) <= 1e-10


class TestMaxCircularGap:
    def test_all_coincident(self):
        gap, pair = max_circular_gap(np.zeros(4))
        assert_allclose(gap, 2 * np.pi)
        assert pair == (3, 0)

    def test_single_point(self):
        gap, pair = max_circular_gap(np.array([0.4]))
        assert_allclose(gap, 2 * np.pi)
        assert pair == (0, 0)

    def test_antipodal_pair(self):
        gap, pair = max_circular_gap(np.array([-np.pi / 2, np.pi / 2]))
        assert_allclose(gap, np.pi)
        assert pair in ((0, 1), (1, 0))

    def test_equally_spaced(self):
        gap, _ = max_circular_gap(np.sort([0.0, 2 * np.pi / 3, -2 * np.pi / 3]))
        assert_allclose(gap, 2 * np.pi / 3)

    def test_rejects_unsorted(self):
        with pytest.raises(ValueError):
            max_circular_gap(np.array([1.0, -1.0]))

    @settings(max_examples=200, derandomize=True)
    @given(st.lists(st.floats(min_value=-np.pi + 1e-9, max_value=np.pi),
                    min_size=1, max_size=10))
    def test_gap_bounds_and_rotation_invariance(self, values):
        phases = np.sort(np.asarray(values))
        gap, _ = max_circular_gap(phases)
        assert 0.0 <= gap <= 2 * np.pi + 1e-12
        shift = 0.7
        rotated = np.sort((phases + shift + np.pi) % (2 * np.pi) - np.pi)
        gap_rot, _ = max_circular_gap(rotated)
        assert abs(gap - gap_rot) <= 1e-9


class TestOrthogonalState:
    def test_identity_frame(self):
        psi = orthogonal_state(np.eye(4, dtype=complex), (0, 1), 0.0)
        assert_allclose(psi, np.array([1, 1, 0, 0]) / np.sqrt(2), atol=1e-14)

    def test_bracket_equals_phase_average(self):
        # <psi|U|psi> must reduce to (e^{i th_i} + e^{i th_j}) / 2
        rng = np.random.default_rng(13)
        for _ in range(10):
            g = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
            frame, _ = np.linalg.qr(g)
            theta = np.sort(rng.uniform(-np.pi, np.pi, 5))
            u = (frame * np.exp(1j * theta)) @ frame.conj().T
            i, j = sorted(rng.choice(5, size=2, replace=False))
            alpha = rng.uniform(0, 2 * np.pi)
            psi = orthogonal_state(frame, (i, j), alpha)
            got = psi.conj() @ u @ psi
            assert abs(got - 0.5 * (np.exp(1j * theta[i]) + np.exp(1j * theta[j]))) <= 1e-12

    def test_alpha_sweep_leaves_magnitude_unchanged(self):
        spectrum = phase_spectrum(SZ, SX, 0.9)
        mags = []
        for alpha in (0.0, np.pi / 2, np.pi):
            psi = orthogonal_state(spectrum.frame, (0, 1), alpha)
            mags.append(abs(bracket(psi, SZ, SX, 0.9)))
        assert_allclose(mags, mags[0], atol=1e-12)

    def test_index_errors(self):
        with pytest.raises(IndexError):
            orthogonal_state(np.eye(2, dtype=complex), (0, 2))
        with pytest.raises(ValueError):
            orthogonal_state(np.eye(2, dtype=complex), (1, 1))


class TestBracket:
    def test_unity_at_zero_time(self):
        psi = np.array([1, 0], dtype=complex)
        assert_allclose(bracket(psi, SZ, SX, 0.0), 1.0)

    def test_equal_generators_pure_phase(self):
        rng = np.random.default_rng(19)
        h = random_hermitian(rng, 3)
        psi = np.zeros(3, complex)
        psi[0] = 1.0
        for t in (0.2, 1.7, 4.0):
            assert abs(abs(bracket(psi, h, h, t)) - 1.0) <= 1e-12

    def test_requires_unit_norm(self):
        with pytest.raises(ValueError, match="state vector must have unit norm"):
            bracket(np.array([1.0, 1.0], complex), SZ, SX, 1.0)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            bracket(np.array([1.0, 0.0, 0.0], complex), SZ, SX, 1.0)


class TestFindTPerp:
    def test_identical_pair_reports_no_orthogonality(self):
        out = find_t_perp(SZ, SZ, t_max=5.0)
        assert isinstance(out, NoOrthogonality)
        assert_allclose(out.g_infimum, np.pi, atol=1e-12)

    def test_opposite_fields_quarter_pi(self):
        out = find_t_perp(SZ, -SZ)
        assert isinstance(out, DiscriminationResult)
        assert_allclose(out.t_perp, np.pi / 4, rtol=1e-9)
        assert out.residual <= 1e-8

    def test_opposite_fields_brute_force_oracle(self):
        # coarse independent search: minimize |<psi|U(t)|psi>| over a grid of
        # Bloch states and times, take the first time it dips near zero
        thetas = np.linspace(0.0, np.pi, 41)
        states = np.stack([np.cos(thetas / 2), np.sin(thetas / 2)], axis=1).astype(complex)
        ts = np.linspace(0.01, 1.2, 240)
        first = None
        for t in ts:
            u = product_unitary(SZ, -SZ, t)
            vals = np.abs(np.einsum("sd,de,se->s", states.conj(), u, states))
            if vals.min() < 5e-3:
                first = t
                break
        assert first is not None
        assert abs(first - np.pi / 4) <= (ts[1] - ts[0]) + 5e-3
        out = find_t_perp(SZ, -SZ)
        assert abs(out.t_perp - first) <= (ts[1] - ts[0]) + 5e-3

    def test_orthogonal_axes_tangency(self):
        # equal frequencies at right angles: the gap margin touches zero
        # without crossing, at t = pi/2
        out = find_t_perp(SZ, SX)
        assert isinstance(out, DiscriminationResult)
        assert_allclose(out.t_perp, np.pi / 2, rtol=1e-6)
        assert out.residual <= 1e-8

    def test_scalar_shift_invariance(self):
        rng = np.random.default_rng(23)
        for _ in range(5):
            ha = random_hermitian(rng, 3, radius=1.5)
            hb = random_hermitian(rng, 3, radius=1.5)
            base = find_t_perp(ha, hb)
            shifted = find_t_perp(ha + 0.83 * np.eye(3), hb - 1.27 * np.eye(3))
            assert isinstance(base, DiscriminationResult)
            assert isinstance(shifted, DiscriminationResult)
            assert_allclose(shifted.t_perp, base.t_perp, rtol=1e-9)

    def test_antipodal_pair_at_result(self):
        rng = np.random.default_rng(29)
        for _ in range(5):
            ha = random_hermitian(rng, 4, radius=1.5)
            hb = random_hermitian(rng, 4, radius=1.5)
            out = find_t_perp(ha, hb)
            assert isinstance(out, DiscriminationResult)
            spectrum = phase_spectrum(ha, hb, out.t_perp)
            i, j = out.pair
            sep = abs(spectrum.phases[j] - spectrum.phases[i])
            circ = min(sep, 2 * np.pi - sep)
            assert abs(circ - np.pi) <= 1e-8
            # at most two nonzero components in the eigenframe
            coeffs = spectrum.frame.conj().T @ out.state
            assert np.sum(np.abs(coeffs) > 1e-8) == 2
            assert abs(np.linalg.norm(out.state) - 1.0) <= 1e-12

    def test_matches_closed_form_on_random_qubits(self):
        rng = np.random.default_rng(31)
        for _ in range(25):
            wa, wb = rng.uniform(0.1, 5.0, size=2)
            na, nb = random_axis(rng), random_axis(rng)
            gamma = np.arccos(np.clip(na @ nb, -1.0, 1.0))
            t_closed = qubit.qubit_t_perp(gamma, wa, wb)
            ha = qubit.qubit_hamiltonian(qubit.QubitField(wa, na))
            hb = qubit.qubit_hamiltonian(qubit.QubitField(wb, nb))
            horizon = qubit_horizon(gamma, wa, wb)
            out = find_t_perp(ha, hb, t_max=1.05 * horizon,
                              scan_step=min(1.05 * horizon / 2000, np.pi / (4 * (wa + wb))))
            assert t_closed is not None and isinstance(out, DiscriminationResult)
            assert_allclose(out.t_perp, t_closed, rtol=1e-6)

    def test_scan_respects_lipschitz_bound(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", ScanContinuityWarning)
            find_t_perp(SZ, SX)
            rng = np.random.default_rng(37)
            find_t_perp(random_hermitian(rng, 5), random_hermitian(rng, 5))

    def test_both_scalar_is_never_orthogonal(self):
        out = find_t_perp(2.0 * np.eye(3, dtype=complex), -np.eye(3, dtype=complex))
        assert isinstance(out, NoOrthogonality)
        assert_allclose(out.g_infimum, np.pi)

    @pytest.mark.parametrize("ha, hb", [(2.0 * np.eye(3, dtype=complex),
                                         -np.eye(3, dtype=complex)), (SZ, SX)])
    @pytest.mark.parametrize("kwargs", [{"t_max": -1.0}, {"t_max": 0.0}, {"scan_step": -1.0}])
    def test_nonpositive_horizon_or_step_raises(self, ha, hb, kwargs):
        with pytest.raises(ValueError):
            find_t_perp(ha, hb, **kwargs)

    @pytest.mark.parametrize("ha, hb", [(2.0 * np.eye(3, dtype=complex),
                                         -np.eye(3, dtype=complex)), (SZ, SX)])
    @pytest.mark.parametrize("name, value, message", [
        ("t_max", np.inf, "t_max must be finite"),
        ("t_max", np.nan, "t_max must be finite"),
        ("scan_step", np.inf, "scan_step must be finite"),
        ("scan_step", np.nan, "scan_step must be finite"),
        ("refine_tol", -1.0, "refine_tol must be positive"),
        ("refine_tol", 0.0, "refine_tol must be positive"),
        ("refine_tol", np.nan, "refine_tol must be finite"),
        ("refine_tol", np.inf, "refine_tol must be finite"),
    ])
    def test_non_finite_or_nonpositive_argument_is_named(self, ha, hb, name, value, message):
        with pytest.raises(ValueError, match=message):
            find_t_perp(ha, hb, **{name: value})

    def test_one_dimensional_never_orthogonal(self):
        out = find_t_perp(np.array([[1.0 + 0j]]), np.array([[2.0 + 0j]]), t_max=4.0)
        assert isinstance(out, NoOrthogonality)
