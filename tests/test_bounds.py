import numpy as np
import pytest
import scipy.linalg
from numpy.testing import assert_allclose

from orthotime import bounds, linalg, qubit
from orthotime.discriminate import DiscriminationResult, bracket, find_t_perp
from orthotime.errors import DimensionMismatchError, NonHermitianError
from helpers import (SX, SZ, count_linalg_calls, haar_unitary, random_axis, random_hermitian,
                     random_state)


class TestEnergyUncertainty:
    def test_eigenvector_has_zero_uncertainty(self):
        assert bounds.energy_uncertainty(SZ, np.array([1.0, 0.0], complex)) == 0.0

    def test_equatorial_state_of_z(self):
        psi = np.array([1.0, 1.0], complex) / np.sqrt(2.0)
        assert_allclose(bounds.energy_uncertainty(SZ, psi), 1.0)

    def test_matches_spectral_sampling_oracle(self):
        # oracle: probabilities p_i = |<v_i|psi>|^2 over the eigenbasis
        rng = np.random.default_rng(3)
        for _ in range(15):
            h = random_hermitian(rng, 5, radius=2.5)
            psi = random_state(rng, 5)
            values, vectors = linalg.herm_eig(h)
            p = np.abs(vectors.conj().T @ psi) ** 2
            expected = np.sqrt(max(p @ values**2 - (p @ values) ** 2, 0.0))
            assert_allclose(bounds.energy_uncertainty(h, psi), expected, atol=1e-10)

    @pytest.mark.parametrize("scale", [1e-305, 1e200])
    def test_keeps_the_scale_of_h(self, scale):
        # <H^2> - <H>^2 underflows to 0 at 1e-305 and overflows at 1e200.
        psi = np.array([1.0, 1.0], complex) / np.sqrt(2.0)
        assert_allclose(bounds.energy_uncertainty(scale * SZ, psi), scale, rtol=1e-15)


class TestAaLowerBound:
    def test_opposite_fields_equatorial_state(self):
        psi = np.array([1.0, 1.0], complex) / np.sqrt(2.0)
        got = bounds.aa_lower_bound(SZ, -SZ, psi)
        assert_allclose(got, np.pi / 4)
        # equals the exact orthogonality time of this pair
        out = find_t_perp(SZ, -SZ)
        assert_allclose(got, out.t_perp, rtol=1e-9)

    @pytest.mark.parametrize("scale", [1e-305, 1e200])
    def test_extreme_scales(self, scale):
        psi = np.array([1.0, 1.0], complex) / np.sqrt(2.0)
        assert_allclose(bounds.aa_lower_bound(scale * SZ, -scale * SZ, psi),
                        np.pi / (4.0 * scale), rtol=1e-15)

    def test_shared_eigenvector_raises(self):
        psi = np.array([1.0, 0.0], complex)
        with pytest.raises(ValueError, match="state is an eigenvector of both operators"):
            bounds.aa_lower_bound(SZ, 2.0 * SZ, psi)
        with pytest.raises(ValueError, match="both operators are scalar; no finite bound"):
            bounds.aa_lower_bound(2.0 * np.eye(2), -3.0 * np.eye(2), psi)  # half-spans 0

    @pytest.mark.parametrize("c", [0.0, 1e6, 1e10, 1e12, 1e14])
    def test_offset_does_not_move_the_threshold(self, c):
        # A scalar offset leaves dE_a = 0 and dE_b = 1 in |0>, so the bound
        # stays pi/2; the threshold is measured on the half-spans, which no
        # offset moves either.
        shift = c * np.eye(2)
        assert bounds.aa_lower_bound(SZ + shift, SX + shift, [1.0, 0.0]) == np.pi / 2

    def test_threshold_is_the_half_span_sum(self):
        # v is an eigenvector of both operators and psi tilts it by eta
        # toward u.  To first order dE_a + dE_b = eta * slope, and eta is set
        # so that it equals r * 1e-12 * (wa + wb): the bound raises just
        # below the threshold and exists just above it.
        rng = np.random.default_rng(43)
        for d in range(2, 7):
            for _ in range(6):
                scale = 10.0 ** rng.uniform(-3.0, 3.0)
                w = haar_unitary(rng, d)
                v_frame = w.copy()
                v_frame[:, 1:] = w[:, 1:] @ haar_unitary(rng, d - 1)
                lam, mu = (rng.uniform(-1.0, 1.0, d) * scale for _ in range(2))
                ha = (w * lam) @ w.conj().T
                hb = (v_frame * mu) @ v_frame.conj().T
                v, u = w[:, 0], w[:, 1]
                spans = sum(np.ptp(np.linalg.eigvalsh(h)) / 2.0 for h in (ha, hb))
                slope = abs(lam[0] - lam[1]) + np.linalg.norm(hb @ u - mu[0] * u)
                for r in (0.8, 1.25):
                    eta = r * bounds.COMMON_EIGENVECTOR_TOL * spans / slope
                    psi = np.cos(eta) * v + np.sin(eta) * u
                    total = bounds.energy_uncertainty(ha, psi) + bounds.energy_uncertainty(hb, psi)
                    assert_allclose(total / (bounds.COMMON_EIGENVECTOR_TOL * spans), r, rtol=0.1)
                    if r < 1.0:
                        with pytest.raises(ValueError, match="state is an eigenvector of both"):
                            bounds.bounds_report(ha, hb, psi)
                    else:
                        assert bounds.bounds_report(ha, hb, psi).t_lb_aa == np.pi / (2.0 * total)

    def test_bound_below_measured_time(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            d = int(rng.integers(2, 6))
            ha = random_hermitian(rng, d, radius=1.5)
            hb = random_hermitian(rng, d, radius=1.5)
            out = find_t_perp(ha, hb)
            assert isinstance(out, DiscriminationResult)
            assert bounds.aa_lower_bound(ha, hb, out.state) <= out.t_perp * (1 + 1e-9)


class TestSpanLowerBound:
    def test_pauli_pair(self):
        assert_allclose(bounds.span_lower_bound(SZ, SX), np.pi / 4)

    def test_qubit_fields(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            wa, wb = rng.uniform(0.1, 4.0, size=2)
            ha = qubit.qubit_hamiltonian(qubit.QubitField(wa, random_axis(rng)))
            hb = qubit.qubit_hamiltonian(qubit.QubitField(wb, random_axis(rng)))
            assert_allclose(bounds.span_lower_bound(ha, hb),
                            np.pi / (2.0 * (wa + wb)), atol=1e-12)

    def test_rejects_non_finite_spectrum(self):
        with pytest.raises(NonHermitianError, match="fails the Hermiticity tolerance"):
            bounds.span_lower_bound(np.diag([np.inf, 1.0]), np.eye(2))

    def test_both_scalar_raise(self):
        with pytest.raises(ValueError, match="both operators are scalar; no finite bound"):
            bounds.span_lower_bound(np.eye(2, dtype=complex), 3.0 * np.eye(2, dtype=complex))


class TestMargolusBound:
    def test_matches_aligned_qubit_time(self):
        e_bar = qubit.mean_energy_bar(3.0, 1.0, 1.0)
        assert_allclose(e_bar, 2.0)
        assert_allclose(bounds.margolus_bound(e_bar), qubit.qubit_t_perp(0.0, 3.0, 1.0),
                        rtol=1e-10)

    @pytest.mark.parametrize("scale", [1e-305, 1.0, 1e200])
    def test_mean_energy_bar_at_extreme_scales(self, scale):
        assert_allclose(qubit.mean_energy_bar(3.0 * scale, scale, 1.0), 2.0 * scale, rtol=1e-15)
        assert_allclose(qubit.mean_energy_bar(scale, scale, 0.0), np.sqrt(2.0) * scale,
                        rtol=1e-15)
        assert_allclose(qubit.mean_energy_bar(scale, scale, -1.0), 2.0 * scale, rtol=1e-15)

    def test_zero_energy_raises(self):
        with pytest.raises(ValueError, match="average energy must be positive"):
            bounds.margolus_bound(0.0)

    def test_right_angle_case_stays_below_root(self):
        e_bar = qubit.mean_energy_bar(1.0, 1.0, 0.0)
        assert_allclose(e_bar, np.sqrt(2.0))
        t = qubit.qubit_t_perp(np.pi / 2, 1.0, 1.0)
        assert bounds.margolus_bound(e_bar) <= t


class TestGeodesicLength:
    def test_zero_time(self):
        psi = np.array([1.0, 1.0], complex) / np.sqrt(2.0)
        assert bounds.bounds_report(SZ, SX, psi).geodesic_length_at(0.0) == 0.0

    def test_equals_pi_at_aa_bound(self):
        rng = np.random.default_rng(13)
        ha = random_hermitian(rng, 3)
        hb = random_hermitian(rng, 3)
        psi = random_state(rng, 3)
        t_lb = bounds.aa_lower_bound(ha, hb, psi)
        length = bounds.bounds_report(ha, hb, psi).geodesic_length_at(t_lb)
        assert_allclose(length, np.pi, atol=1e-12)

    def test_at_least_pi_at_found_times(self):
        rng = np.random.default_rng(17)
        for _ in range(8):
            ha = random_hermitian(rng, 4, radius=1.5)
            hb = random_hermitian(rng, 4, radius=1.5)
            out = find_t_perp(ha, hb)
            assert isinstance(out, DiscriminationResult)
            length = bounds.bounds_report(ha, hb, out.state).geodesic_length_at(out.t_perp)
            assert length >= np.pi - 1e-9


class TestBrodyTime:
    """Brody's minimal-time angles, 2 arccos|overlap| per evolution
    segment, at the found orthogonality times."""

    def test_segment_angles_sum_to_at_least_pi(self):
        # two-segment decomposition through the intermediate state
        rng = np.random.default_rng(19)
        for _ in range(10):
            d = int(rng.integers(2, 7))
            ha = random_hermitian(rng, d, radius=1.5)
            hb = random_hermitian(rng, d, radius=1.5)
            out = find_t_perp(ha, hb)
            assert isinstance(out, DiscriminationResult)
            psi = out.state
            psi_m = scipy.linalg.expm(-1j * out.t_perp * ha) @ psi
            psi_f = scipy.linalg.expm(1j * out.t_perp * hb) @ psi_m
            assert abs(psi.conj() @ psi_f) <= 1e-8
            alpha_a = 2.0 * np.arccos(min(abs(psi.conj() @ psi_m), 1.0))
            alpha_b = 2.0 * np.arccos(min(abs(psi_m.conj() @ psi_f), 1.0))
            assert alpha_a + alpha_b >= np.pi - 1e-9


class TestSaturatingPair:
    def test_equal_frequencies_dim_two(self):
        ha, hb, psi = bounds.saturating_pair(1.0, 1.0, dim=2, alpha=0.0)
        out = find_t_perp(ha, hb)
        assert_allclose(out.t_perp, np.pi / 4, rtol=1e-10)
        assert abs(bracket(psi, ha, hb, out.t_perp)) <= 1e-8

    def test_three_to_one(self):
        ha, hb, psi = bounds.saturating_pair(3.0, 1.0, dim=2)
        out = find_t_perp(ha, hb)
        assert_allclose(out.t_perp, np.pi / 8, rtol=1e-10)

    def test_padding_leaves_time_unchanged(self):
        t2 = find_t_perp(*bounds.saturating_pair(2.0, 0.7, dim=2)[:2]).t_perp
        t5 = find_t_perp(*bounds.saturating_pair(2.0, 0.7, dim=5)[:2]).t_perp
        assert_allclose(t5, t2, rtol=1e-10)

    def test_rejects_nonpositive_frequency(self):
        with pytest.raises(ValueError, match="omega_a must be positive"):
            bounds.saturating_pair(0.0, 1.0)


class TestBoundsReport:
    def test_span_never_exceeds_aa(self):
        rng = np.random.default_rng(29)
        for _ in range(10):
            d = int(rng.integers(2, 6))
            ha = random_hermitian(rng, d, radius=2.0)
            hb = random_hermitian(rng, d, radius=2.0)
            psi = random_state(rng, d)
            try:
                report = bounds.bounds_report(ha, hb, psi)
            except ValueError as exc:
                assert "state is an eigenvector of both operators" in str(exc)
                continue
            assert report.t_lb_span <= report.t_lb_aa * (1 + 1e-12)
            assert report.t_lb_aa >= 0 and report.t_lb_span >= 0
            assert_allclose(report.geodesic_length_at(report.t_lb_aa), np.pi, atol=1e-12)

    def test_each_half_span_is_computed_once(self, monkeypatch):
        # One eigensolve per operator, through the unchecked route: the
        # operators were checked once already.
        calls = count_linalg_calls(monkeypatch)
        report = bounds.bounds_report(SZ, 2.0 * SX)
        assert calls == {"_eigh": 2, "assert_hermitian": 2}
        assert (report.span_a, report.span_b, report.t_lb_span) == (1.0, 2.0, np.pi / 6)

    def test_each_energy_uncertainty_is_computed_once(self, monkeypatch):
        # One Hermiticity check per operator and one state check in all.
        calls = count_linalg_calls(monkeypatch)
        psi = np.array([1.0, 1.0j]) / np.sqrt(2.0)
        report = bounds.bounds_report(SZ, 2.0 * SX, psi)
        assert calls == {"_eigh": 2, "assert_hermitian": 2, "as_unit_state": 1}
        assert report.t_lb_aa == bounds.aa_lower_bound(SZ, 2.0 * SX, psi)
        assert_allclose((report.delta_E_a, report.delta_E_b), (1.0, 2.0), rtol=1e-15)

    def test_report_is_its_public_pieces_bit_for_bit(self):
        rng = np.random.default_rng(37)
        for d in range(2, 7):
            for _ in range(12):
                scale = 10.0 ** rng.uniform(-3.0, 3.0)
                ha, hb = (random_hermitian(rng, d, radius=scale) for _ in range(2))
                psi = random_state(rng, d)
                e_bar = rng.uniform(0.1, 3.0)
                pieces = bounds.BoundsReport(
                    bounds.energy_uncertainty(ha, psi), bounds.energy_uncertainty(hb, psi),
                    bounds.spectral_half_span(ha), bounds.spectral_half_span(hb),
                    bounds.aa_lower_bound(ha, hb, psi), bounds.span_lower_bound(ha, hb),
                    bounds.margolus_bound(e_bar))
                assert repr(bounds.bounds_report(ha, hb, psi, e_bar)) == repr(pieces)

    def test_checks_keep_their_order_and_messages(self):
        bad_state = np.ones(3)
        with pytest.raises(DimensionMismatchError, match="shape mismatch"):
            bounds.bounds_report(SZ, np.eye(3, dtype=complex), bad_state)
        with pytest.raises(NonHermitianError,
                           match=r"^matrix fails the Hermiticity tolerance 1e-12$"):
            bounds.bounds_report(SZ, SZ + 1e-6j * SX, bad_state)
        # The scalar pair is named before the state is looked at.
        with pytest.raises(ValueError, match="both operators are scalar"):
            bounds.bounds_report(np.eye(2, dtype=complex), 3.0 * np.eye(2, dtype=complex),
                                 bad_state)
        with pytest.raises(DimensionMismatchError, match="state shape"):
            bounds.bounds_report(SZ, SX, bad_state, e_bar=-1.0)
        with pytest.raises(ValueError, match="state vector must have unit norm"):
            bounds.bounds_report(SZ, SX, 2.0 * np.array([1.0, 0.0]), e_bar=-1.0)
        with pytest.raises(ValueError, match="state is an eigenvector of both operators"):
            bounds.bounds_report(SZ, 2.0 * SZ, np.array([1.0, 0.0]), e_bar=-1.0)
        with pytest.raises(ValueError, match="average energy must be positive"):
            bounds.bounds_report(SZ, SX, np.array([1.0, 0.0]), e_bar=-1.0)

    def test_rejects_mismatched_or_scalar_pairs(self):
        with pytest.raises(DimensionMismatchError, match="shape mismatch"):
            bounds.bounds_report(SZ, np.eye(3, dtype=complex))
        with pytest.raises(ValueError, match="both operators are scalar"):
            bounds.bounds_report(np.eye(2, dtype=complex), 3.0 * np.eye(2, dtype=complex))

    def test_stateless_report_has_none_entries(self):
        report = bounds.bounds_report(SZ, SX)
        assert report.delta_E_a is None and report.t_lb_aa is None
        assert_allclose(report.t_lb_span, np.pi / 4)
        with pytest.raises(ValueError):
            report.geodesic_length_at(1.0)
