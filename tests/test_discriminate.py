import re
import tracemalloc

import numpy as np
import pytest
import scipy.linalg
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from orthotime import bounds, discriminate, linalg, qubit
from orthotime.discriminate import (
    DiscriminationResult,
    NoOrthogonality,
    bracket,
    find_t_perp,
    max_circular_gap,
    orthogonal_state,
    phase_spectrum,
    product_unitary,
)
from orthotime.errors import ConvergenceError, DimensionMismatchError
from helpers import (SX, SZ, haar_unitary, overflow_pair, qubit_horizon, random_axis,
                     random_hermitian, random_state)


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

    @pytest.mark.parametrize("phases", [[np.nan, 0.0], [0.0, np.inf], [0.0, 4.0],
                                        [-np.pi, 0.0], [-4.0, 0.0]])
    def test_rejects_phases_outside_the_principal_range(self, phases):
        with pytest.raises(ValueError, match=r"^phases must lie in \(-pi, pi\]$"):
            max_circular_gap(np.array(phases))

    def test_accepts_pi_itself(self):
        gap, pair = max_circular_gap(np.array([0.0, np.pi]))
        assert gap == np.pi and pair == (0, 1)

    def test_rejects_no_phases(self):
        with pytest.raises(ValueError, match="^need at least one phase$"):
            max_circular_gap([])

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
            out = find_t_perp(ha, hb, t_max=1.05 * horizon)
            assert t_closed is not None and isinstance(out, DiscriminationResult)
            assert_allclose(out.t_perp, t_closed, rtol=1e-6)

    def test_scan_respects_lipschitz_bound(self):
        # A margin batch that broke the bound would raise ConvergenceError.
        assert isinstance(find_t_perp(SZ, SX), DiscriminationResult)
        rng = np.random.default_rng(37)
        find_t_perp(random_hermitian(rng, 5), random_hermitian(rng, 5))

    def test_corrupted_margin_stops_the_scan(self, monkeypatch):
        # Beats 100x faster than the pair's L, as a corrupted evaluator would give.
        clean = qubit._two_beats
        monkeypatch.setattr(qubit, "_two_beats", lambda w, b, t: clean(w, b, 100.0 * t))
        with pytest.raises(ConvergenceError, match="^scan jump ratio "):
            find_t_perp(SZ, SX)

    def test_scan_memory_does_not_grow_with_the_grid(self):
        # A rootless pair (as below) on 1,018,592 grid intervals of pi/8: the
        # scan evaluates all of them, in 14 full blocks of 65536 points and 11
        # smaller ones, where a materialized grid alone would take 8.1 MB.
        # One d = 2 block evaluates two real cosines of 65536 points (0.5 MB each).
        ha, hb = SZ, np.cos(0.5) * SZ + np.sin(0.5) * SX
        tracemalloc.start()
        try:
            out = find_t_perp(ha, hb, t_max=4e5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert isinstance(out, NoOrthogonality)
        assert_allclose(out.g_infimum, np.pi - 1.0, atol=1e-4)
        assert peak < 4e6

    def test_grid_size_beyond_float_range_is_named(self):
        # t_max * 2 is finite, but t_max over the step pi/8 is not.
        with pytest.raises(ValueError, match=r"^t_max \(8e\+307\) gives no finite scan grid"):
            find_t_perp(SZ, SX, t_max=8e307)

    def test_grid_step_below_float_range_is_named(self):
        # t_max / SCAN_POINTS underflows to a zero step.
        with pytest.raises(ValueError, match=r"^t_max \(1e-322\) gives no finite scan grid"):
            find_t_perp(SZ, SX, t_max=1e-322)

    @pytest.mark.parametrize("dim", [2, 3])
    def test_phase_overflow_on_the_horizon_is_named(self, dim):
        # t_max * 2e10 overflows, so the phases would be NaN on the horizon.
        with pytest.raises(ValueError, match=r"t_max \* \(max\|lam\| \+ max\|mu\|\)"):
            find_t_perp(*overflow_pair(dim), t_max=1e300)

    @pytest.mark.parametrize("helper", [product_unitary, phase_spectrum,
                                        lambda ha, hb, t: bracket(np.eye(len(ha))[0], ha, hb, t)])
    def test_phase_overflow_at_t_is_named(self, helper):
        with pytest.raises(ValueError, match=r"^t \* \(max\|lam\| \+ max\|mu\|\)"):
            helper(*overflow_pair(2), 1e300)

    @pytest.mark.parametrize("dim", [2, 3])
    def test_no_root_reports_the_lowest_grid_sample(self, dim):
        # Equal frequencies with axes 0.5 rad apart: the product is a rotation
        # by at most 1 rad, so g >= pi - 1 > 0, reached first at t = pi/2.
        # Both spans are 2, so L = 4 and the step is min(t_max/2000, pi/8).
        ha = np.zeros((dim, dim), dtype=complex)
        hb = np.zeros((dim, dim), dtype=complex)
        ha[:2, :2] = SZ
        hb[:2, :2] = np.cos(0.5) * SZ + np.sin(0.5) * SX
        t_max = 20.0
        step = t_max / discriminate.SCAN_POINTS
        out = find_t_perp(ha, hb, t_max=t_max)
        assert isinstance(out, NoOrthogonality)
        pair = discriminate._EvolutionPair(ha, hb)
        ts = np.linspace(0.0, t_max, int(np.ceil(t_max / step)) + 1)
        g = (pair.gap_margin_from_trace(pair.trace_margin(ts)) if dim == 2
             else pair.gap_margin(ts))
        k = int(np.argmin(g))
        assert (out.g_infimum, out.t_at_infimum) == (g[k], ts[k])
        assert_allclose(out.g_infimum, np.pi - 1.0, atol=1e-4)
        assert_allclose(out.t_at_infimum, np.pi / 2, atol=step)

    @pytest.mark.parametrize("ha, hb", [(2.0 * np.eye(3, dtype=complex),
                                         -np.eye(3, dtype=complex)), (SZ, SX)])
    @pytest.mark.parametrize("alpha", [np.nan, np.inf, -np.inf])
    def test_non_finite_alpha_raises(self, ha, hb, alpha):
        with pytest.raises(ValueError, match="alpha must be finite"):
            find_t_perp(ha, hb, alpha=alpha)

    @pytest.mark.parametrize("dim", [2, 3])
    def test_margin_batches_that_break_the_lipschitz_bound_raise(self, dim):
        rng = np.random.default_rng(41)
        pair = discriminate._EvolutionPair(random_hermitian(rng, dim), random_hermitian(rng, dim))
        # Spectra 100x faster than the half-spans behind L, as a corrupted
        # evaluator would give.
        pair.lam = 100.0 * pair.lam
        if dim == 2:
            pair.beats = (100.0 * pair.beats[0], 100.0 * pair.beats[1])
        ts = np.linspace(0.0, 1.0, 33)
        values = (qubit._two_beats(pair.weights, pair.beats, ts) if dim == 2
                  else linalg._largest_arc(pair.phases_grid(ts))[0] - np.pi)
        ratio = np.max(np.abs(np.diff(values)) / (pair.lipschitz * np.diff(ts)))
        assert ratio > 2.0
        margin = pair.trace_margin if dim == 2 else pair.gap_margin
        with pytest.raises(ConvergenceError, match="^" + re.escape(f"scan jump ratio {ratio:.3e} exceeds")):
            margin(ts)
        margin(np.array([0.5]))  # a single sample has no neighbour to check

    def test_both_scalar_is_never_orthogonal(self):
        out = find_t_perp(2.0 * np.eye(3, dtype=complex), -np.eye(3, dtype=complex))
        assert isinstance(out, NoOrthogonality)
        assert_allclose(out.g_infimum, np.pi)

    @pytest.mark.parametrize("ha, hb", [(2.0 * np.eye(3, dtype=complex),
                                         -np.eye(3, dtype=complex)), (SZ, SX)])
    @pytest.mark.parametrize("kwargs", [{"t_max": -1.0}, {"t_max": 0.0}])
    def test_nonpositive_horizon_or_step_raises(self, ha, hb, kwargs):
        with pytest.raises(ValueError):
            find_t_perp(ha, hb, **kwargs)

    @pytest.mark.parametrize("ha, hb", [(2.0 * np.eye(3, dtype=complex),
                                         -np.eye(3, dtype=complex)), (SZ, SX)])
    @pytest.mark.parametrize("name, value, message", [
        ("t_max", np.inf, "t_max must be finite"),
        ("t_max", np.nan, "t_max must be finite"),
    ])
    def test_non_finite_or_nonpositive_argument_is_named(self, ha, hb, name, value, message):
        with pytest.raises(ValueError, match=message):
            find_t_perp(ha, hb, **{name: value})

    # pi / L overflows for L below about 1.75e-306; the default horizon is
    # then capped at the largest float, which still holds the root pi / L
    # (near that maximum, so the refiner must not add its bracket ends).
    @pytest.mark.parametrize("ha, hb, lipschitz", [
        (np.diag([1e-307, 0.0]), np.zeros((2, 2)), 1e-307),
        (np.diag([1e-306, 0.0]), np.zeros((2, 2)), 1e-306),
        (np.diag([3e-308, 0.0]), np.zeros((2, 2)), 3e-308),
        (np.diag([1e-307, 0.0, 0.0]), np.diag([0.0, 0.0, 2e-307]), 3e-307),
    ], ids=["1e-307", "1e-306", "3e-308", "dim_3"])
    def test_default_horizon_of_a_tiny_span_is_capped(self, ha, hb, lipschitz):
        out = find_t_perp(ha.astype(complex), hb.astype(complex))
        assert isinstance(out, DiscriminationResult)
        assert_allclose(out.t_perp, np.pi / lipschitz, rtol=1e-9)

    def test_default_horizon_of_a_subnormal_span_reports_no_orthogonality(self):
        # Half of 5e-324 underflows, so the d = 2 margin is flat at 2.
        out = find_t_perp(np.diag([5e-324, 0.0]).astype(complex), np.zeros((2, 2), complex))
        assert repr(out) == ("NoOrthogonality(t_max=1.7976931348623157e+308, "
                             "g_infimum=3.141592653589793, t_at_infimum=0.0)")

    def test_one_dimensional_never_orthogonal(self):
        out = find_t_perp(np.array([[1.0 + 0j]]), np.array([[2.0 + 0j]]), t_max=4.0)
        assert isinstance(out, NoOrthogonality)


def _kernel_pairs():
    """Seeded pairs at d = 1..8, and an hb with a threefold eigenvalue."""
    rng = np.random.default_rng(43)
    pairs = [(random_hermitian(rng, d, radius=2.0), random_hermitian(rng, d, radius=2.0))
             for d in range(1, 9)]
    q = haar_unitary(rng, 5)
    hb = (q * np.array([0.7, 0.7, 0.7, -1.1, 1.9])) @ q.conj().T
    pairs.append((random_hermitian(rng, 5, radius=2.0), hb))
    return pairs


class TestKernelReference:
    """The product unitary, its spectrum and the bracket against an
    independent Pade exponential of each factor."""

    @pytest.mark.parametrize("ha, hb", _kernel_pairs())
    @pytest.mark.parametrize("t", [0.37, 2.9])
    def test_matches_scipy_expm(self, ha, hb, t):
        ref = scipy.linalg.expm(1j * hb * t) @ scipy.linalg.expm(-1j * ha * t)
        assert_allclose(product_unitary(ha, hb, t), ref, atol=1e-12)
        spectrum = phase_spectrum(ha, hb, t)
        frame, dim = spectrum.frame, ha.shape[0]
        assert_allclose(frame.conj().T @ frame, np.eye(dim), atol=1e-12)
        assert_allclose((frame * np.exp(1j * spectrum.phases)) @ frame.conj().T, ref,
                        atol=1e-12)
        psi = random_state(np.random.default_rng(dim), dim)
        assert abs(bracket(psi, ha, hb, t) - psi.conj() @ ref @ psi) <= 1e-12


class TestCommutingReference:
    """Rotated commuting pairs at any d: ha = W diag(lam) W*, hb = W diag(mu)
    W* give U(t) = W diag(e^{i (mu - lam) t}) W*, so with Delta = mu - lam the
    first orthogonality time is pi / (max Delta - min Delta), exactly."""

    @settings(max_examples=250, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2**32 - 1), dim=st.integers(2, 16),
           exponent=st.floats(-3.0, 3.0), shifted=st.booleans(),
           offset=st.floats(-1e4, 1e4))
    def test_first_time_is_pi_over_the_spread(self, seed, dim, exponent, shifted, offset):
        rng = np.random.default_rng(seed)
        scale = 10.0 ** exponent
        lam, mu = rng.uniform(-scale, scale, (2, dim))
        w = haar_unitary(rng, dim)
        c = offset * scale if shifted else 0.0
        ha = (w * (lam + c)) @ w.conj().T
        hb = (w * (mu - c / 2.0)) @ w.conj().T
        delta = mu - lam
        t_ref = np.pi / (delta.max() - delta.min())
        # The default horizon, HORIZON_SPANS span bounds pi / L.
        t_max = discriminate.HORIZON_SPANS * np.pi / (np.ptp(lam) + np.ptp(mu))
        out = find_t_perp(ha, hb)
        if t_ref <= t_max:
            assert isinstance(out, DiscriminationResult)
            assert abs(out.t_perp - t_ref) <= discriminate.REFINE_REL_TOL * t_max
        else:
            assert isinstance(out, NoOrthogonality)


def _metamorphic_pair(dim):
    rng = np.random.default_rng(47 + dim)
    return random_hermitian(rng, dim, radius=1.5), random_hermitian(rng, dim, radius=1.5)


class TestMetamorphicRelations:
    """Relations t_perp must satisfy without knowing its value."""

    @pytest.mark.parametrize("nu", [[0.4, -1.3], [0.9, 0.9, -0.6], [0.2, -0.7, 1.1],
                                    [1.0, -1.0, 0.5, 0.5, 0.5, -0.2, 0.3, -1.0]])
    def test_commuting_diagonal_pair(self, nu):
        nu = np.array(nu)
        ha = np.diag(np.linspace(-0.5, 0.8, nu.size)).astype(complex)
        hb = ha + np.diag(nu)
        out = find_t_perp(ha, hb)
        assert isinstance(out, DiscriminationResult)
        assert_allclose(out.t_perp, np.pi / (nu.max() - nu.min()), rtol=1e-9)

    @pytest.mark.parametrize("dim", [2, 3, 8])
    def test_invariances_and_scaling(self, dim):
        ha, hb = _metamorphic_pair(dim)
        base = find_t_perp(ha, hb)
        assert isinstance(base, DiscriminationResult)
        q = haar_unitary(np.random.default_rng(53), dim)
        self.check_invariances_and_scaling(ha, hb, base, q)

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2**32 - 1), dim=st.sampled_from([2, 3, 4]))
    def test_invariances_and_scaling_on_drawn_pairs(self, seed, dim):
        rng = np.random.default_rng(seed)
        ha, hb = random_hermitian(rng, dim, radius=1.5), random_hermitian(rng, dim, radius=1.5)
        base = find_t_perp(ha, hb)
        assume(isinstance(base, DiscriminationResult))  # a root inside the default horizon
        self.check_invariances_and_scaling(ha, hb, base, haar_unitary(rng, dim))

    @staticmethod
    def check_invariances_and_scaling(ha, hb, base, q):
        """Conjugation by q, swap and scalar offsets keep ``base.t_perp``;
        scaling both by c divides it by c."""
        shift = np.eye(ha.shape[0])
        variants = {
            "conjugated": (q @ ha @ q.conj().T, q @ hb @ q.conj().T, 1.0),
            "swapped": (hb, ha, 1.0),
            "offset": (ha + 2.3 * shift, hb - 0.9 * shift, 1.0),
        }
        for c in (1e-6, 1e-3, 1e3, 1e6):
            variants[f"scaled {c:g}"] = (c * ha, c * hb, c)
        for name, (ha2, hb2, c) in variants.items():
            out = find_t_perp(ha2, hb2)
            assert isinstance(out, DiscriminationResult), name
            assert_allclose(out.t_perp * c, base.t_perp, rtol=1e-9, err_msg=name)


def _offset_qubit_pair(gamma, ratio):
    """qubit_hamiltonian pair with axes gamma apart, scalar offsets 0.7 and
    -1.3 added to the matrices, wa + wb = 2 and (wa - wb) / (wa + wb) = ratio."""
    rng = np.random.default_rng(59)
    na = random_axis(rng)
    perp = np.cross(na, random_axis(rng))
    nb = np.cos(gamma) * na + np.sin(gamma) * perp / np.linalg.norm(perp)
    wa, wb = 1.0 + ratio, 1.0 - ratio
    shift = np.eye(2, dtype=complex)
    return (wa, wb, 0.7 * shift + qubit.qubit_hamiltonian(qubit.QubitField(wa, na)),
            -1.3 * shift + qubit.qubit_hamiltonian(qubit.QubitField(wb, nb)))


class TestQubitCrossEngine:
    """The d = 2 engine against the closed form near gamma = pi/2 and at
    near-equal frequencies.  The last ratio puts the closed-form root beyond
    the default horizon when gamma = pi/2 - 1e-3."""

    GAMMAS = [np.pi / 2 + d for d in (0.0, 1e-6, -1e-6, 1e-3, -1e-3)]
    RATIOS = [0.5, 0.2, 0.1, 3e-2, 1e-2, 3e-3, 1e-3, 1e-4]

    @pytest.mark.parametrize("gamma", GAMMAS)
    def test_trace_margin_is_twice_the_criterion(self, gamma):
        for ratio in self.RATIOS:
            wa, wb, ha, hb = _offset_qubit_pair(gamma, ratio)
            pair = discriminate._EvolutionPair(ha, hb)
            ts = np.linspace(0.0, 100.0 * np.pi / pair.lipschitz, 1001)
            assert_allclose(pair.trace_margin(ts), 2.0 * qubit.criterion(gamma, wa, wb, ts),
                            rtol=0, atol=1e-12, err_msg=f"ratio {ratio}")

    @pytest.mark.parametrize("gamma", GAMMAS)
    def test_find_t_perp_matches_qubit_t_perp(self, gamma):
        for ratio in self.RATIOS:
            wa, wb, ha, hb = _offset_qubit_pair(gamma, ratio)
            closed = qubit.qubit_t_perp(gamma, wa, wb)
            out = find_t_perp(ha, hb)
            if closed > 100.0 * np.pi / (2.0 * (wa + wb)):  # beyond the default horizon
                assert isinstance(out, NoOrthogonality), f"ratio {ratio}"
            else:
                assert isinstance(out, DiscriminationResult), f"ratio {ratio}"
                assert_allclose(out.t_perp, closed, rtol=1e-6, err_msg=f"ratio {ratio}")


@pytest.mark.parametrize("dim", [2, 8])
def test_find_t_perp_diagonalizes_each_hamiltonian_once(monkeypatch, dim):
    calls = []
    herm_eig = linalg.herm_eig
    monkeypatch.setattr(linalg, "herm_eig", lambda h: calls.append(h) or herm_eig(h))
    out = find_t_perp(*_metamorphic_pair(dim))
    assert isinstance(out, DiscriminationResult)
    assert len(calls) == 2


def _gap_scan_pairs(seed=1, dim=8, cases=16):
    """The Hermitian pairs the gap_scan benchmark draws for ``seed``."""
    rng = np.random.default_rng([seed, 1])

    def hermitian():
        g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        return 0.5 * (g + g.conj().T)

    return [(hermitian(), hermitian()) for _ in range(cases)]


@pytest.mark.parametrize("seed", [1, 7, 201])
def test_the_optimal_state_is_continuous_in_t(seed):
    # The frame's column phases are pinned, so the state, and with it the
    # state-dependent bound t_lb_aa, does not jump between adjacent floats.
    for ha, hb in _gap_scan_pairs(seed):
        t_perp = find_t_perp(ha, hb).t_perp
        down = np.nextafter(t_perp, 0.0)
        ts = [t_perp, np.nextafter(t_perp, np.inf), down, np.nextafter(down, 0.0)]
        bounds_aa = []
        for t in ts:
            spectrum = phase_spectrum(ha, hb, t)
            _, pair = max_circular_gap(spectrum.phases)
            psi = orthogonal_state(spectrum.frame, pair)
            bounds_aa.append(bounds.aa_lower_bound(ha, hb, psi))
        assert max(bounds_aa) - min(bounds_aa) <= 1e-12 * max(bounds_aa)


def _certified_start(f0, lipschitz, step, decay=None):
    """s = max(k - 1, 0) for k = ceil((f0 - 2 w) / r), with the window
    w = L step and the start envelope's fall r = decay step, decay = L by
    default."""
    decay = lipschitz if decay is None else decay
    k = int(np.ceil((f0 - 2.0 * lipschitz * step) / (decay * step)))
    return max(k - 1, 0)


def _gap_scan_margin_points(monkeypatch, ha, hb):
    """find_t_perp(ha, hb) and the margin points it evaluated."""
    points = []
    margin = discriminate._EvolutionPair.gap_margin
    with monkeypatch.context() as patch:
        patch.setattr(discriminate._EvolutionPair, "gap_margin",
                      lambda self, ts: points.append(np.size(ts)) or margin(self, ts))
        out = find_t_perp(ha, hb)
    return out, sum(points)


class TestCertifiedStart:
    """Both engines start their scans where the start envelope and the
    curve's value at t = 0 leave room for a root, and sample nothing before
    that unless the scan finds no root."""

    @pytest.mark.parametrize("case", range(16))
    def test_gap_scan_pairs_need_few_margin_points(self, monkeypatch, case):
        # Each root lies just past the spectral-arc bound pi / S, S the spread
        # of hb - ha, so one first block (8 points from just before the
        # bound, more where S is near L) and about 4 refinement points suffice.
        out, points = _gap_scan_margin_points(monkeypatch, *_gap_scan_pairs()[case])
        assert isinstance(out, DiscriminationResult)
        assert points <= 30

    def test_gap_scan_pairs_need_few_margin_points_on_average(self, monkeypatch):
        counts = [_gap_scan_margin_points(monkeypatch, ha, hb)[1] for ha, hb in _gap_scan_pairs()]
        assert np.mean(counts) <= 15

    def test_trace_margin_skips_the_certified_prefix(self, monkeypatch):
        ts_seen = []
        margin = discriminate._EvolutionPair.trace_margin
        monkeypatch.setattr(discriminate._EvolutionPair, "trace_margin",
                            lambda self, ts: ts_seen.append(np.ravel(ts)) or margin(self, ts))
        ha, hb = _offset_qubit_pair(1.0, 0.5)[2:]
        out = find_t_perp(ha, hb)
        assert isinstance(out, DiscriminationResult)
        pair = discriminate._EvolutionPair(ha, hb)
        lipschitz, decay = pair.lipschitz, pair.envelope_slope()
        spread = np.ptp(np.linalg.eigvalsh(hb - ha))
        assert spread <= decay <= spread + 1e-12 < lipschitz
        step = discriminate.HORIZON_SPANS * np.pi / lipschitz / discriminate.SCAN_POINTS
        s = _certified_start(2.0, lipschitz, step, decay)
        assert s > _certified_start(2.0, lipschitz, step) > 0  # later than the loose start
        assert np.concatenate(ts_seen).min() == s * step

    @pytest.mark.parametrize("row", [(1.0, 3.0, 1.0), (0.5, 2.0, 1.0), (2.0, 1.0, 1.5)])
    def test_qubit_t_perp_skips_the_certified_prefix(self, monkeypatch, row):
        ts_seen = []
        criterion = qubit.criterion
        monkeypatch.setattr(qubit, "criterion",
                            lambda *args: ts_seen.append(np.ravel(args[-1])) or criterion(*args))
        gamma, wa, wb = row
        assert qubit.qubit_t_perp(gamma, wa, wb) is not None
        # Every row has 2000 intervals over its horizon.
        step = qubit_horizon(gamma, wa, wb) / qubit.SCAN_POINTS
        a, b = np.cos(0.5 * gamma) ** 2, np.sin(0.5 * gamma) ** 2
        s = _certified_start(1.0, a * abs(wa - wb) + b * (wa + wb), step)
        assert s > 0
        assert np.concatenate(ts_seen).min() == s * step


def _bits(out):
    """Every field of a find_t_perp result, floats by their exact repr and
    the state by its bytes."""
    if isinstance(out, NoOrthogonality):
        return ("none", repr(out.t_max), repr(out.g_infimum), repr(out.t_at_infimum))
    return (repr(out.t_perp), out.pair, repr(out.alpha), out.state.tobytes(), repr(out.residual))


def _sharp_start_cases():
    """(id, ha, hb, t_max) for seeded pairs at d = 2-8: plain, with scalar
    offsets c and -c/2, with a near-scalar and a scalar difference, and on a
    horizon too short for a root."""
    cases = []
    for dim in range(2, 9):
        rng = np.random.default_rng(3200 + dim)
        ha, hb = random_hermitian(rng, dim), random_hermitian(rng, dim)
        eye = np.eye(dim, dtype=complex)
        cases.append((f"d{dim}", ha, hb, None))
        for c in (1e4, 1e8, 1e12):
            cases.append((f"d{dim}-offset{c:.0e}", ha + c * eye, hb - 0.5 * c * eye, None))
        cases.append((f"d{dim}-near-scalar", ha, ha + 1e-9 * hb, None))
        cases.append((f"d{dim}-scalar", ha, ha + 0.75 * eye, None))
        span_bound = np.pi / discriminate._EvolutionPair(ha, hb).lipschitz
        cases.append((f"d{dim}-short", ha, hb, 0.5 * span_bound))
    return cases


class TestSharpStartChangesNoOutput:
    """The start envelope's slope S = spread(hb - ha) skips more of the grid
    than the Lipschitz constant L would, and changes no output bit."""

    @pytest.mark.parametrize("case", _sharp_start_cases(), ids=lambda case: case[0])
    def test_same_result_as_the_loose_envelope(self, monkeypatch, case):
        name, ha, hb, t_max = case
        pair = discriminate._EvolutionPair(ha, hb)
        assert pair.envelope_slope() < pair.lipschitz  # the sharp start is a different scan
        sharp = find_t_perp(ha, hb, t_max)
        monkeypatch.setattr(discriminate._EvolutionPair, "envelope_slope",
                            lambda self: self.lipschitz)
        assert _bits(sharp) == _bits(find_t_perp(ha, hb, t_max))
        has_root = not name.endswith(("scalar", "short"))
        assert isinstance(sharp, DiscriminationResult) == has_root


def _cayley_kappa_max(u):
    """max|kappa| of each row of the trace-antipode Cayley step."""
    kappa = np.linalg.eigvalsh(linalg._cayley(u, -np.angle(np.trace(u, axis1=1, axis2=2))))
    return np.abs(kappa).max(axis=1)


def _record_eigvals(monkeypatch):
    """Patch ``np.linalg.eigvals`` to keep a copy of every input."""
    calls = []
    eigvals = np.linalg.eigvals
    monkeypatch.setattr(np.linalg, "eigvals", lambda m: calls.append(np.array(m)) or eigvals(m))
    return calls


class TestCayleyPhases:
    """``phases_grid`` takes batch phases from the trace-antipode Cayley step
    and sends ill-conditioned rows to ``np.linalg.eigvals``."""

    EPS = np.finfo(float).eps

    def bound(self, u):
        """The Cayley step's derived phase error eps (1 + kappa_max^2) per
        row, plus 4 d eps for the round-off of eigvals itself."""
        return self.EPS * (1.0 + _cayley_kappa_max(u) ** 2) + 4 * u.shape[-1] * self.EPS

    @pytest.mark.parametrize("dim", [3, 4, 5, 8, 12, 16])
    def test_matches_sorted_eigvals_within_the_derived_bound(self, dim):
        rng = np.random.default_rng(700 + dim)
        ha, hb = random_hermitian(rng, dim), random_hermitian(rng, dim)
        out = find_t_perp(ha, hb)
        assert isinstance(out, DiscriminationResult)
        pair = discriminate._EvolutionPair(ha, hb)
        ts = np.linspace(0.0, 3.0 * out.t_perp, 61)
        u = pair.product_grid(ts)
        got, ref = pair.phases_grid(ts), linalg._eig_phases(u)
        assert np.pi - np.abs(ref).max() > 1e-9  # no phase near the cut, where rows may wrap
        assert np.all(np.abs(got - ref).max(axis=1) <= self.bound(u))
        g = linalg._largest_arc(ref)[0] - np.pi
        assert (g < 0).sum() >= 10 and (g > 0).sum() >= 10  # samples on both sides of the root
        kappa_max = _cayley_kappa_max(u)
        assert np.any(kappa_max[g < 0] <= linalg.CAYLEY_KAPPA_MAX)  # exact past the root

    def test_rows_over_the_kappa_bound_take_the_eigvals_route(self, monkeypatch):
        rng = np.random.default_rng(708)
        pair = discriminate._EvolutionPair(random_hermitian(rng, 8), random_hermitian(rng, 8))
        ts = np.linspace(0.0, 2.0, 41)
        u = pair.product_grid(ts)
        kappa_max = _cayley_kappa_max(u)
        cut = float(np.median(kappa_max))
        monkeypatch.setattr(linalg, "CAYLEY_KAPPA_MAX", cut)
        calls = _record_eigvals(monkeypatch)
        got = pair.phases_grid(ts)
        referred = kappa_max > cut
        assert 0 < referred.sum() < len(ts)
        assert len(calls) == 1 and np.array_equal(calls[0], u[referred])
        assert np.all(np.abs(got - linalg._eig_phases(u)).max(axis=1) <= self.bound(u))

    @staticmethod
    def stack_pair(rows):
        """A d = 4 pair whose product grid is replaced by ``rows`` after two
        generic rows."""
        rng = np.random.default_rng(709)
        pair = discriminate._EvolutionPair(random_hermitian(rng, 4), random_hermitian(rng, 4))
        generic = discriminate._EvolutionPair.product_grid(pair, [0.6, 1.7])
        stack = np.concatenate([generic, np.array(rows, dtype=complex)])
        pair.product_grid = lambda ts: stack
        return pair, stack

    def test_singular_row_takes_its_eigvals_phases(self, monkeypatch):
        # 1 + e^{-i arg tr U} U is exactly singular for U = diag(-1, 1, 1, 1),
        # which makes numpy's stacked inverse fail for every row.
        pair, stack = self.stack_pair([np.diag([-1.0, 1.0, 1.0, 1.0])])
        calls = _record_eigvals(monkeypatch)
        got = pair.phases_grid([0.6, 1.7, 2.0])
        assert len(calls) == 1 and np.array_equal(calls[0], stack[2:])
        assert np.array_equal(got[2], [0.0, 0.0, 0.0, np.pi])
        assert np.all(np.abs(got[:2] - linalg._eig_phases(stack[:2])).max(axis=1)
                      <= self.bound(stack[:2]))

    def test_trace_zero_row_takes_the_eigvals_route(self, monkeypatch):
        # tr U = 0 leaves no antipode; the Cayley step would be well conditioned here.
        pair, stack = self.stack_pair([np.diag([1j, -1j, 1j, -1j])])
        calls = _record_eigvals(monkeypatch)
        got = pair.phases_grid([0.6, 1.7, 2.0])
        assert len(calls) == 1 and np.array_equal(calls[0], stack[2:])
        assert_allclose(got[2], [-np.pi / 2, -np.pi / 2, np.pi / 2, np.pi / 2], atol=1e-15)

    def test_one_time_call_takes_the_eigvals_route(self, monkeypatch):
        rng = np.random.default_rng(710)
        pair = discriminate._EvolutionPair(random_hermitian(rng, 5), random_hermitian(rng, 5))
        calls = _record_eigvals(monkeypatch)
        got = pair.phases_grid([0.9])
        assert len(calls) == 1 and calls[0].shape == (1, 5, 5)
        assert np.array_equal(got, linalg._eig_phases(pair.product_grid([0.9])))

    @pytest.mark.parametrize("case", range(16))
    def test_gap_scan_pairs_call_eigvals_on_one_matrix_at_a_time(self, monkeypatch, case):
        # With -1 at the trace's antipode, no block sample of these pairs
        # falls back; eigvals sees only the one-time refinement calls and
        # unitary_eig's single matrix.
        calls = _record_eigvals(monkeypatch)
        out = find_t_perp(*_gap_scan_pairs()[case])
        assert isinstance(out, DiscriminationResult)
        assert calls and all(m.ndim == 2 or len(m) == 1 for m in calls)
