import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from orthotime import bounds, linalg, qubit
from helpers import I2, SX, SY, SZ, random_axis

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

    @settings(max_examples=200, derandomize=True)
    @given(omega=st.one_of(st.sampled_from([0.0, -0.0, 5e-324, 1e-300, 1e300, 1.7e308]),
                           st.floats(0.0, 10.0)),
           raw=st.tuples(*[st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-1.0, 1.0))] * 3))
    def test_matrix_has_the_bits_of_the_pauli_sum(self, omega, raw):
        # The explicit matrix against 0 I + omega (x sx + y sy + z sz), whose
        # + 0 I turns every zero real or imaginary part into +0.0.
        size = math.sqrt(sum(c * c for c in raw))
        assume(size >= 1e-3)
        x, y, z = axis = np.array(raw) / size  # keeps the sign of a zero component
        field = qubit.QubitField(omega, axis)
        pauli_sum = 0.0 * I2 + field.omega * (x * SX + y * SY + z * SZ)
        assert qubit.qubit_hamiltonian(field).tobytes() == pauli_sum.tobytes()

    def test_eigenvalues_are_minus_plus_omega(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            omega = rng.uniform(0.1, 4.0)
            h = qubit.qubit_hamiltonian(qubit.QubitField(omega, random_axis(rng)))
            values, _ = linalg.herm_eig(h)
            assert_allclose(values, [-omega, omega], atol=1e-12)

    def test_rejects_non_unit_axis(self):
        with pytest.raises(ValueError, match="axis must have unit length"):
            qubit.QubitField(1.0, np.array([1.0, 1.0, 0.0]))

    def test_rejects_a_nan_axis(self):
        with pytest.raises(ValueError, match="axis must have unit length"):
            qubit.QubitField(1.0, np.array([np.nan, 0.0, 0.0]))

    def test_rejects_an_axis_that_is_not_a_3_vector(self):
        with pytest.raises(ValueError,
                           match=r"^axis must be a real 3-vector, got shape \(2,\)$"):
            qubit.QubitField(1.0, [0.0, 1.0])

    @pytest.mark.parametrize("omega", [np.nan, -1.0])
    def test_rejects_a_nan_or_negative_frequency(self, omega):
        # Finiteness is checked first, as for every nonnegative scalar.
        rule = "finite" if np.isnan(omega) else "nonnegative"
        with pytest.raises(ValueError, match=f"^omega must be {rule}$"):
            qubit.QubitField(omega, Z_AXIS)


class TestCriterion:
    def test_unity_at_zero_time(self):
        assert_allclose(qubit.criterion(1.234, 3.0, 0.7, 0.0), 1.0, atol=1e-15)

    def test_aligned_reduces_to_difference_cosine(self):
        ts = np.linspace(0.0, 2.0, 7)
        assert_allclose(qubit.criterion(0.0, 3.0, 1.0, ts), np.cos(2.0 * ts), atol=1e-15)

    def test_right_angle_equal_frequencies_at_half_pi(self):
        assert abs(qubit.criterion(np.pi / 2, 1.0, 1.0, np.pi / 2)) <= 1e-15

    @settings(max_examples=300, derandomize=True)
    @given(gamma=st.floats(0.0, np.pi), wa=st.floats(0.0, 5.0), wb=st.floats(0.0, 5.0),
           x=st.floats(0.0, 1e3))
    def test_float_time_gives_the_array_bits(self, gamma, wa, wb, x):
        # The scalar path, the array path and the numpy formula agree exactly.
        value = qubit.criterion(gamma, wa, wb, x)
        assert type(value) is float
        assert value == qubit.criterion(gamma, wa, wb, np.array([x]))[0]
        formula = (np.cos(0.5 * gamma) ** 2 * np.cos((wa - wb) * np.array([x]))
               + np.sin(0.5 * gamma) ** 2 * np.cos((wa + wb) * np.array([x])))
        assert value == formula[0]

    def test_float_times_give_the_numpy_bits_on_seeded_rows(self):
        # Wider than the hypothesis sample: the weights' squares and the
        # cosines round as numpy's scalars and arrays do on every row.
        rng = np.random.default_rng(47)
        for _ in range(4000):
            gamma, wa, wb = rng.uniform(0.0, np.pi), *rng.uniform(0.0, 5.0, size=2)
            xs = rng.uniform(0.0, 1e3, size=8)
            formula = (np.cos(0.5 * gamma) ** 2 * np.cos((wa - wb) * xs)
                   + np.sin(0.5 * gamma) ** 2 * np.cos((wa + wb) * xs))
            assert [qubit.criterion(gamma, wa, wb, x) for x in xs.tolist()] == formula.tolist()


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

    @settings(max_examples=400, derandomize=True)
    @given(u=st.floats(0.0, 1.0), near=st.integers(0, 3), total=st.floats(0.5, 4.0),
           rel=st.one_of(st.just(0.0), st.floats(1e-3, 1.0)))
    def test_no_root_only_in_the_special_scenario(self, u, near, total, rel):
        # Orthogonality is reached in every scenario but one: equal
        # frequencies with cos^2(gamma/2) - sin^2(gamma/2) = cos(gamma) above
        # BRANCH_TOL.  A quarter of the angles lie within 1e-12 of pi/2.
        gamma = 0.5 * math.pi + (2.0 * u - 1.0) * 1e-12 if near == 0 else math.pi * u
        wa, wb = 0.5 * total * (1.0 + rel), 0.5 * total * (1.0 - rel)
        aligned = math.cos(0.5 * gamma) ** 2 - math.sin(0.5 * gamma) ** 2 > qubit.BRANCH_TOL
        assert (qubit.qubit_t_perp(gamma, wa, wb) is None) == (wa == wb and aligned)

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

    def test_horizon_near_the_float_range_scales_the_root(self):
        # The horizon pi / 2e-308 is about 1.6e308, so the densified grid
        # count 4 horizon (wa + wb) / pi overflows to inf: the 5,000,000 cap
        # still applies, and the root scales with the frequencies.
        t = qubit.qubit_t_perp(1.4, (1 + 1e-3) * 1e-305, (1 - 1e-3) * 1e-305)
        assert_allclose(t, 1e305 * qubit.qubit_t_perp(1.4, 1 + 1e-3, 1 - 1e-3), rtol=1e-12)


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
            shifted_a = 0.9 * np.eye(2, dtype=complex) + plain_a
            shifted_b = -1.4 * np.eye(2, dtype=complex) + plain_b
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

    @settings(max_examples=200, derandomize=True)
    @given(wa=st.floats(0.1, 5.0), wb=st.floats(0.1, 5.0), t=st.floats(0.0, 10.0),
           raw_a=st.tuples(*[st.floats(-1.0, 1.0)] * 3),
           raw_b=st.tuples(*[st.floats(-1.0, 1.0)] * 3))
    def test_bracket_is_the_criterion_at_every_time(self, wa, wb, t, raw_a, raw_b):
        # The state's axis and sign are right at every t, not only at roots:
        # the engine's bracket equals the real closed-form criterion.
        from orthotime.discriminate import bracket

        assume(min(np.linalg.norm(raw_a), np.linalg.norm(raw_b)) >= 0.1)
        na, nb = (np.asarray(v) / np.linalg.norm(v) for v in (raw_a, raw_b))
        fa, fb = qubit.QubitField(wa, na), qubit.QubitField(wb, nb)
        value = qubit.criterion(np.arccos(np.clip(na @ nb, -1.0, 1.0)), wa, wb, t)
        try:
            psi = qubit.discrimination_state(fa, fb, t)
        except ValueError as exc:  # only where the product is a global phase
            assert "differ only by a global phase" in str(exc)
            assert abs(abs(value) - 1.0) <= 1e-12
            return
        ha, hb = qubit.qubit_hamiltonian(fa), qubit.qubit_hamiltonian(fb)
        assert abs(bracket(psi, ha, hb, t) - value) <= 1e-12

    def test_state_is_the_numpy_formula_bit_for_bit(self):
        # The vector part with np.cross and np.linalg.norm, and the
        # equatorial state with numpy's trigonometry: the scalar steps must
        # round as numpy does.
        def numpy_equatorial(n, alpha):
            theta = np.arccos(np.clip(n[2], -1.0, 1.0))
            phi = np.arctan2(n[1], n[0])
            up = np.array([np.cos(0.5 * theta), np.sin(0.5 * theta) * np.exp(1j * phi)])
            down = np.array([-np.sin(0.5 * theta) * np.exp(-1j * phi), np.cos(0.5 * theta)])
            return (up + np.exp(1j * alpha) * down) / np.sqrt(2.0)

        rng = np.random.default_rng(43)
        for k in range(500):
            wa, wb = rng.uniform(0.0, 5.0, size=2)
            na, nb = random_axis(rng), random_axis(rng)
            t = 10.0 ** rng.uniform(-3.0, 3.0)
            alpha = 0.0 if k % 2 else rng.uniform(-np.pi, np.pi)
            fa, fb = qubit.QubitField(wa, na), qubit.QubitField(wb, nb)
            half_a, half_b = 0.5 * (-2.0 * wa * t), 0.5 * (-2.0 * wb * t)
            sa, ca = np.sin(half_a), np.cos(half_a)
            sb, cb = np.sin(half_b), np.cos(half_b)
            vec = -sb * ca * nb + cb * sa * na - sb * sa * np.cross(na, nb)
            axis = vec / float(np.linalg.norm(vec))
            expected = numpy_equatorial(axis, alpha)
            assert qubit.equatorial_state(axis, alpha).tobytes() == expected.tobytes()
            state = qubit.discrimination_state(fa, fb, t, alpha)
            assert state.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("wb, axis_b, t", [(2.0, X_AXIS, 0.0), (1.0, Z_AXIS, 1.3)],
                             ids=["zero_time", "identical_fields"])
    def test_evolutions_that_differ_by_a_phase_are_named(self, wb, axis_b, t):
        fa, fb = qubit.QubitField(1.0, Z_AXIS), qubit.QubitField(wb, axis_b)
        message = (f"the two evolutions differ only by a global phase at t = {t!r}; "
                   "no state can discriminate them")
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            qubit.discrimination_state(fa, fb, t)

    def test_phase_overflow_is_named(self):
        # The rotation angle 2 omega t overflows at t = 1e308.
        fa, fb = qubit.QubitField(1.0, [0.0, 0.0, 1.0]), qubit.QubitField(1.0, [1.0, 0.0, 0.0])
        with pytest.raises(ValueError, match=r"^t \* 2 max\(omega_a, omega_b\) \(1e\+308 \* 2\.0\)"):
            qubit.discrimination_state(fa, fb, 1e308)
        assert np.all(np.isfinite(qubit.discrimination_state(fa, fb, 1e307)))
