import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from orthotime import bounds, linalg, qubit
from helpers import SX, SZ, random_axis

Z_AXIS = np.array([0.0, 0.0, 1.0])
X_AXIS = np.array([1.0, 0.0, 0.0])


class TestQubitHamiltonian:
    def test_z_field(self):
        h = qubit.qubit_hamiltonian(qubit.QubitField(1.0, Z_AXIS))
        assert_allclose(h, SZ)

    def test_x_field_with_gain(self):
        h = qubit.qubit_hamiltonian(qubit.QubitField(2.0, X_AXIS))
        assert_allclose(h, 2.0 * SX)
        assert_allclose(np.linalg.eigvalsh(h), [-2.0, 2.0])

    def test_eigenvalues_are_offset_plus_minus_omega(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            omega = rng.uniform(0.1, 4.0)
            r0 = rng.uniform(-2.0, 2.0)
            h = qubit.qubit_hamiltonian(qubit.QubitField(omega, random_axis(rng), r0))
            values, _ = linalg.herm_eig(h)
            assert_allclose(values, [r0 - omega, r0 + omega], atol=1e-12)

    def test_rejects_non_unit_axis(self):
        with pytest.raises(ValueError, match="axis must have unit length"):
            qubit.QubitField(1.0, np.array([1.0, 1.0, 0.0]))

    def test_rejects_a_nan_axis(self):
        with pytest.raises(ValueError, match="axis must have unit length"):
            qubit.QubitField(1.0, np.array([np.nan, 0.0, 0.0]))

    @pytest.mark.parametrize("omega", [np.nan, -1.0])
    def test_rejects_a_nan_or_negative_frequency(self, omega):
        # Finiteness is checked first, as for every nonnegative scalar.
        rule = "finite" if np.isnan(omega) else "nonnegative"
        with pytest.raises(ValueError, match=f"^omega must be {rule}$"):
            qubit.QubitField(omega, Z_AXIS)


class TestRotation:
    def test_zero_angle(self):
        assert_allclose(qubit.rotation(Z_AXIS, 0.0), np.eye(2), atol=1e-15)

    def test_pi_about_z(self):
        assert_allclose(qubit.rotation(Z_AXIS, np.pi), -1j * SZ, atol=1e-15)

    def test_agrees_with_matrix_exponential(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            axis = random_axis(rng)
            theta = rng.uniform(-2 * np.pi, 2 * np.pi)
            h = qubit.qubit_hamiltonian(qubit.QubitField(1.0, axis))
            assert_allclose(qubit.rotation(axis, theta), linalg.expm_i(h, theta / 2),
                            atol=1e-13)


class TestComposeRotations:
    def test_zero_angles(self):
        comp = qubit.compose_rotations(0.0, Z_AXIS, 0.0, X_AXIS)
        assert_allclose(comp.theta, 0.0, atol=1e-15)
        assert_allclose(comp.axis, 0.0)

    def test_shared_axis_subtracts_angles(self):
        comp = qubit.compose_rotations(0.4, Z_AXIS, 1.1, Z_AXIS)
        assert_allclose(comp.theta, 0.7, atol=1e-12)
        assert_allclose(comp.axis, Z_AXIS, atol=1e-12)

    def test_matrix_identity_random(self):
        # oracle: the reconstructed rotation must equal the 2x2 product
        rng = np.random.default_rng(11)
        worst = 0.0
        for _ in range(1000):
            ta, tb = rng.uniform(-2 * np.pi, 2 * np.pi, size=2)
            na, nb = random_axis(rng), random_axis(rng)
            comp = qubit.compose_rotations(ta, na, tb, nb)
            direct = qubit.rotation(nb, tb) @ qubit.rotation(na, -ta)
            if np.linalg.norm(comp.axis) == 0.0:
                recon = np.cos(comp.theta / 2) * np.eye(2, dtype=complex)
            else:
                recon = qubit.rotation(comp.axis, comp.theta)
            worst = max(worst, np.linalg.norm(recon - direct))
        assert worst <= 1e-12

    @settings(max_examples=150, derandomize=True)
    @given(ta=st.floats(-6.0, 6.0), tb=st.floats(-6.0, 6.0),
           raw=st.tuples(st.floats(-1, 1), st.floats(-1, 1), st.floats(-1, 1)))
    def test_matrix_identity_hypothesis(self, ta, tb, raw):
        v = np.asarray(raw)
        norm = np.linalg.norm(v)
        if norm < 0.1:
            return
        na = v / norm
        nb = np.roll(na, 1)
        comp = qubit.compose_rotations(ta, na, tb, nb)
        direct = qubit.rotation(nb, tb) @ qubit.rotation(na, -ta)
        recon = (qubit.rotation(comp.axis, comp.theta)
                 if np.linalg.norm(comp.axis) > 0
                 else np.cos(comp.theta / 2) * np.eye(2, dtype=complex))
        assert np.linalg.norm(recon - direct) <= 1e-12


class TestCriterion:
    def test_unity_at_zero_time(self):
        assert_allclose(qubit.criterion(1.234, 3.0, 0.7, 0.0), 1.0, atol=1e-15)

    def test_aligned_reduces_to_difference_cosine(self):
        ts = np.linspace(0.0, 2.0, 7)
        assert_allclose(qubit.criterion(0.0, 3.0, 1.0, ts), np.cos(2.0 * ts), atol=1e-15)

    def test_right_angle_equal_frequencies_at_half_pi(self):
        assert abs(qubit.criterion(np.pi / 2, 1.0, 1.0, np.pi / 2)) <= 1e-15


class TestQubitTPerp:
    def test_aligned_three_to_one(self):
        # analytic reduction cos(2t) = 0; oracle below is a dense grid scan
        ts = np.linspace(0.0, np.pi / 2, 200_001)
        fs = qubit.criterion(0.0, 3.0, 1.0, ts)
        k = int(np.nonzero(fs <= 0)[0][0])
        t = qubit.qubit_t_perp(0.0, 3.0, 1.0)
        assert ts[k - 1] <= t <= ts[k] + 1e-12
        assert_allclose(t, np.pi / 4, rtol=1e-11)

    def test_anti_aligned_three_to_one(self):
        assert_allclose(qubit.qubit_t_perp(np.pi, 3.0, 1.0), np.pi / 8, rtol=1e-10)

    def test_equal_frequencies_small_angle_has_no_root(self):
        assert qubit.qubit_t_perp(np.pi / 4, 1.0, 1.0) is None
        assert qubit.qubit_t_perp(0.0, 2.0, 2.0) is None

    def test_scan_memory_does_not_grow_with_the_grid(self):
        # 5,000,000 grid intervals, the late root near 31 % of the horizon;
        # a materialized grid alone would take 40 MB.
        tracemalloc.start()
        try:
            t = qubit.qubit_t_perp(0.3, 1.0, 1.0 + 1e-7)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert t == 15712059.895596543
        assert peak < 5e6

    def test_boundary_angle_root_at_horizon(self):
        t = qubit.qubit_t_perp(np.pi / 2, 1.0, 1.0)
        assert t is not None
        assert_allclose(t, np.pi / 2, rtol=1e-6)

    def test_aligned_first_root_is_half_pi_over_delta(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            wa, wb = rng.uniform(0.1, 5.0, size=2)
            if wa == wb:
                continue
            assert_allclose(qubit.qubit_t_perp(0.0, wa, wb),
                            np.pi / (2.0 * abs(wa - wb)), rtol=1e-10)

    def test_anti_aligned_saturates_span_bound(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            wa, wb = rng.uniform(0.1, 5.0, size=2)
            assert_allclose(qubit.qubit_t_perp(np.pi, wa, wb),
                            np.pi / (2.0 * (wa + wb)), atol=1e-10, rtol=1e-10)

    def test_rejects_negative_or_all_zero(self):
        with pytest.raises(ValueError):
            qubit.qubit_t_perp(0.3, -1.0, 1.0)
        with pytest.raises(ValueError):
            qubit.qubit_t_perp(0.3, 0.0, 0.0)

    @pytest.mark.parametrize("args", [(np.nan, 1.0, 2.0), (0.3, np.inf, 2.0), (0.3, 1.0, np.nan),
                                      (np.inf, 3.0, 1.0)])
    def test_rejects_non_finite_input(self, args):
        name = ("gamma", "omega_a", "omega_b")[int(np.argmin(np.isfinite(args)))]
        with pytest.raises(ValueError, match=f"^{name} must be finite$"):
            qubit.qubit_t_perp(*args)


    @pytest.mark.parametrize("gamma", [0.3, 2.0])
    def test_subnormal_frequency_scale_is_named(self, gamma):
        # pi / 5e-324 overflows: the horizon (and so the grid count) is infinite.
        with pytest.raises(ValueError, match=r"^horizon \(inf\) gives no finite scan grid count$"):
            qubit.qubit_t_perp(gamma, 5e-324, 0.0)


class TestMeanEnergyBar:
    @pytest.mark.parametrize("wa,wb,cg,expected", [
        (3.0, 1.0, 1.0, 2.0),
        (1.0, 1.0, -1.0, 2.0),
        (1.0, 1.0, 1.0, 0.0),
    ])
    def test_values(self, wa, wb, cg, expected):
        assert_allclose(qubit.mean_energy_bar(wa, wb, cg), expected, atol=1e-12)

    def test_matches_difference_field_half_gap(self):
        rng = np.random.default_rng(19)
        for _ in range(10):
            wa, wb = rng.uniform(0.1, 4.0, size=2)
            na, nb = random_axis(rng), random_axis(rng)
            diff = (qubit.qubit_hamiltonian(qubit.QubitField(wa, na))
                    - qubit.qubit_hamiltonian(qubit.QubitField(wb, nb)))
            values = np.linalg.eigvalsh(diff)
            assert_allclose(qubit.mean_energy_bar(wa, wb, float(na @ nb)),
                            (values[1] - values[0]) / 2.0, atol=1e-12)


class TestEquatorialState:
    def test_z_axis(self):
        assert_allclose(qubit.equatorial_state(Z_AXIS, 0.0),
                        np.array([1.0, 1.0]) / np.sqrt(2.0), atol=1e-15)
        assert_allclose(qubit.equatorial_state(Z_AXIS, np.pi),
                        np.array([1.0, -1.0]) / np.sqrt(2.0), atol=1e-15)

    def test_axis_expectation_vanishes(self):
        rng = np.random.default_rng(23)
        for _ in range(20):
            axis = random_axis(rng)
            alpha = rng.uniform(0.0, 2 * np.pi)
            psi = qubit.equatorial_state(axis, alpha)
            h = qubit.qubit_hamiltonian(qubit.QubitField(1.0, axis))
            assert abs(psi.conj() @ h @ psi) <= 1e-12
            assert abs(np.linalg.norm(psi) - 1.0) <= 1e-12


class TestOffsetInvariance:
    def test_offsets_do_not_move_criterion_roots(self):
        # offsets enter only as a global phase; the closed form never sees
        # them, and the generic engine's time agrees with the offset-free one
        from orthotime.discriminate import find_t_perp

        rng = np.random.default_rng(29)
        for _ in range(5):
            wa, wb = rng.uniform(0.5, 3.0, size=2)
            na, nb = random_axis(rng), random_axis(rng)
            plain_a = qubit.qubit_hamiltonian(qubit.QubitField(wa, na))
            plain_b = qubit.qubit_hamiltonian(qubit.QubitField(wb, nb))
            shifted_a = qubit.qubit_hamiltonian(qubit.QubitField(wa, na, r0=0.9))
            shifted_b = qubit.qubit_hamiltonian(qubit.QubitField(wb, nb, r0=-1.4))
            base = find_t_perp(plain_a, plain_b)
            shifted = find_t_perp(shifted_a, shifted_b)
            assert_allclose(shifted.t_perp, base.t_perp, rtol=1e-9)


class TestDiscriminationState:
    def test_bracket_vanishes_at_closed_form_root(self):
        from orthotime.discriminate import bracket

        rng = np.random.default_rng(31)
        for _ in range(20):
            wa, wb = rng.uniform(0.1, 5.0, size=2)
            na, nb = random_axis(rng), random_axis(rng)
            gamma = np.arccos(np.clip(na @ nb, -1.0, 1.0))
            t = qubit.qubit_t_perp(gamma, wa, wb)
            if t is None:
                continue
            fa, fb = qubit.QubitField(wa, na), qubit.QubitField(wb, nb)
            psi = qubit.discrimination_state(fa, fb, t)
            value = bracket(psi, qubit.qubit_hamiltonian(fa), qubit.qubit_hamiltonian(fb), t)
            assert abs(value) <= 1e-8

    def test_phase_overflow_is_named(self):
        # The rotation angle 2 omega t overflows at t = 1e308.
        fa, fb = qubit.QubitField(1.0, [0.0, 0.0, 1.0]), qubit.QubitField(1.0, [1.0, 0.0, 0.0])
        with pytest.raises(ValueError, match=r"^t \* 2 max\(omega_a, omega_b\) \(1e\+308 \* 2\.0\)"):
            qubit.discrimination_state(fa, fb, 1e308)
        assert np.all(np.isfinite(qubit.discrimination_state(fa, fb, 1e307)))
