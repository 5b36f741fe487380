import numpy as np
import pytest
import scipy.linalg
from numpy.testing import assert_allclose

from orthotime import linalg, theorem
from orthotime.discriminate import bracket
from orthotime.errors import CutProximityError, DimensionMismatchError, NonUnitaryError
from helpers import SX, SZ, random_hermitian


class TestRandomUnitary:
    def test_scalar_case_has_unit_modulus(self):
        u = theorem.random_unitary(1, 123)
        assert_allclose(abs(u[0, 0]), 1.0, atol=1e-13)

    def test_deterministic_per_seed(self):
        assert_allclose(theorem.random_unitary(4, 99), theorem.random_unitary(4, 99))
        assert not np.allclose(theorem.random_unitary(4, 99), theorem.random_unitary(4, 100))

    def test_unitarity(self):
        for seed in range(10):
            u = theorem.random_unitary(5, seed)
            assert np.linalg.norm(u.conj().T @ u - np.eye(5)) <= 1e-12


class TestSubadditivity:
    def test_identity_pair(self):
        trial = theorem.check_subadditivity(np.eye(2, dtype=complex),
                                            np.eye(2, dtype=complex))
        assert trial.lhs == trial.rhs == 0.0
        assert not trial.skipped

    def test_commuting_aligned_equality(self):
        u = np.diag([np.exp(1j * np.pi / 4), np.exp(-1j * np.pi / 4)])
        trial = theorem.check_subadditivity(u, u)
        assert_allclose(trial.lhs, np.pi / np.sqrt(2.0), atol=1e-13)
        assert_allclose(trial.rhs, np.pi / np.sqrt(2.0), atol=1e-13)
        assert abs(trial.margin) <= 1e-13

    def test_no_violations_on_random_pairs(self):
        trials = theorem.run_trials(300, 6, seed=20250810)
        unskipped = [t for t in trials if not t.skipped]
        assert unskipped, "expected unskipped trials"
        assert min(t.margin for t in unskipped) >= -1e-9

    def test_near_cut_factor_is_skipped(self):
        u = np.diag([np.exp(1j * (np.pi - 1e-12)), 1.0])
        trial = theorem.check_subadditivity(u, np.eye(2, dtype=complex))
        assert trial.skipped and "u" in trial.skip_reason

    def test_small_generators_never_skip(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            d = int(rng.integers(1, 7))
            u = scipy.linalg.expm(-1j * random_hermitian(rng, d, radius=np.pi / 4))
            v = scipy.linalg.expm(-1j * random_hermitian(rng, d, radius=np.pi / 4))
            assert not theorem.check_subadditivity(u, v).skipped

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            theorem.check_subadditivity(np.eye(2, dtype=complex), np.eye(3, dtype=complex))

    @pytest.mark.parametrize("u, v", [
        (2.0 * np.diag([-1.0, 1.0]), np.eye(2)),
        (2.0 * np.eye(2), np.eye(2)),
        (np.diag([np.exp(1j * (np.pi - 1e-12)), 1.0]), 2.0 * np.eye(2)),
    ], ids=["near-cut", "scaled-identity", "near-cut-u-with-bad-v"])
    def test_non_unitary_input_raises_before_the_cut_check(self, u, v):
        with pytest.raises(NonUnitaryError):
            theorem.check_subadditivity(u, v)

    @pytest.mark.parametrize("dim", [1, 3, 6])
    def test_one_eigenvalue_computation_per_trial(self, monkeypatch, dim):
        calls = []
        eigvals = np.linalg.eigvals
        monkeypatch.setattr(np.linalg, "eigvals", lambda m: calls.append(np.shape(m)) or eigvals(m))
        theorem.check_subadditivity(theorem.random_unitary(dim, 1), theorem.random_unitary(dim, 2))
        assert calls == [(3, dim, dim)]

    def test_norms_match_principal_log(self):
        master = np.random.default_rng(20251018)
        for _ in range(200):
            dim = int(master.integers(1, 7))
            u = theorem.random_unitary(dim, int(master.integers(2**63 - 1)))
            v = theorem.random_unitary(dim, int(master.integers(2**63 - 1)))
            trial = theorem.check_subadditivity(u, v)
            if trial.skipped:
                continue
            ref_lhs = linalg.frobenius(linalg.principal_log_u(u @ v))
            ref_rhs = (linalg.frobenius(linalg.principal_log_u(u))
                       + linalg.frobenius(linalg.principal_log_u(v)))
            tol = 1e-12 * max(1.0, ref_rhs)
            assert abs(trial.lhs - ref_lhs) <= tol
            assert abs(trial.rhs - ref_rhs) <= tol


class TestInductionStep:
    def test_zero_y_keeps_norm(self):
        rng = np.random.default_rng(7)
        x = random_hermitian(rng, 3, radius=1.0)
        lhs, rhs = theorem.check_induction_step(x, np.zeros((3, 3), complex), 0.4, 1e-3)
        assert_allclose(lhs, rhs, atol=1e-12)
        assert_allclose(lhs, linalg.frobenius(x), atol=1e-12)

    def test_zero_x_is_exactly_linear(self):
        rng = np.random.default_rng(11)
        y = random_hermitian(rng, 3, radius=1.0)
        lhs, rhs = theorem.check_induction_step(np.zeros((3, 3), complex), y, 0.0, 1e-3)
        assert_allclose(lhs, 1e-3 * linalg.frobenius(y), atol=1e-14)
        assert_allclose(rhs, 1e-3 * linalg.frobenius(y), atol=1e-14)

    def test_random_small_steps_never_violate(self):
        rng = np.random.default_rng(13)
        for _ in range(50):
            d = int(rng.integers(2, 5))
            x = random_hermitian(rng, d, radius=np.pi / 4)
            y = random_hermitian(rng, d, radius=np.pi / 4)
            s = rng.uniform(0.0, 1.0 - 1e-3)
            lhs, rhs = theorem.check_induction_step(x, y, s, 1e-3)
            assert lhs <= rhs + 1e-8 * (1.0 + rhs)

    def test_rejects_bad_interval(self):
        with pytest.raises(ValueError):
            theorem.check_induction_step(np.zeros((2, 2), complex),
                                         np.zeros((2, 2), complex), 0.9, 0.2)

    # A backward step, a start past 1 and NaN leave the forward step in
    # [0, 1]; (0, -0.5) would evaluate the path at s = -0.5, and (0.5, -0.2)
    # would report lhs > rhs, a false violation.
    @pytest.mark.parametrize("s, ds", [(0.0, -0.5), (0.5, -0.2), (1.2, -0.3), (-0.1, 0.2),
                                       (np.nan, 0.1), (0.5, np.nan)])
    def test_rejects_a_step_that_is_not_forward_in_the_unit_interval(self, s, ds):
        rng = np.random.default_rng(17)
        x = random_hermitian(rng, 2, radius=1.0)
        y = random_hermitian(rng, 2, radius=1.0)
        with pytest.raises(ValueError, match=r"^need 0 <= s <= s \+ ds <= 1$"):
            theorem.check_induction_step(x, y, s, ds)

    def test_accepts_a_zero_step_at_either_end(self):
        rng = np.random.default_rng(19)
        x = random_hermitian(rng, 2, radius=1.0)
        y = random_hermitian(rng, 2, radius=1.0)
        for s in (0.0, 1.0):
            lhs, rhs = theorem.check_induction_step(x, y, s, 0.0)
            assert lhs == rhs


    def test_matches_scipy_references(self):
        # ||Z(s)||_F is the 2-norm of the eigenphases of e^{iX} e^{isY}; here
        # both factors come from scipy's Pade exponential.
        def path_norm(x, y, s):
            u = scipy.linalg.expm(1j * x) @ scipy.linalg.expm(1j * s * y)
            return np.linalg.norm(np.angle(np.linalg.eigvals(u)))

        rng = np.random.default_rng(20261020)
        for _ in range(300):
            d = int(rng.integers(2, 7))
            x = random_hermitian(rng, d, radius=np.pi / 4)
            y = random_hermitian(rng, d, radius=np.pi / 4)
            s = rng.uniform(0.0, 0.99)
            ds = rng.uniform(0.0, 1.0 - s)
            lhs, rhs = theorem.check_induction_step(x, y, s, ds)
            assert abs(lhs - path_norm(x, y, s + ds)) <= 1e-12
            assert abs(rhs - (path_norm(x, y, s) + ds * np.linalg.norm(y))) <= 1e-12

    def test_shape_mismatch_is_named(self):
        with pytest.raises(DimensionMismatchError, match="^shape mismatch"):
            theorem.check_induction_step(SZ, np.eye(3), 0.1, 0.1)


class TestEqualityCaseNorm:
    def test_commuting_z_field(self):
        lhs, rhs = theorem.equality_case_norm(SZ, -2.0, 0.1)
        assert_allclose(lhs, 0.3 * np.sqrt(2.0), atol=1e-12)
        assert_allclose(rhs, 0.3 * np.sqrt(2.0), atol=1e-12)

    def test_commuting_x_field(self):
        lhs, rhs = theorem.equality_case_norm(SX, -1.0, 0.2)
        assert_allclose(lhs, 0.4 * np.sqrt(2.0), atol=1e-12)
        assert_allclose(rhs, 0.4 * np.sqrt(2.0), atol=1e-12)

    def test_equality_random(self):
        rng = np.random.default_rng(23)
        for _ in range(10):
            ha = random_hermitian(rng, 4, radius=1.0)
            k = -rng.uniform(0.2, 3.0)
            t = rng.uniform(0.01, 0.9 * np.pi / (1.0 - k))
            lhs, rhs = theorem.equality_case_norm(ha, k, t)
            assert abs(lhs - rhs) <= 1e-10 * max(1.0, rhs)

    @pytest.mark.parametrize("scale, t", [(1e200, 1e-201), (1e-200, 1e199)])
    def test_equality_holds_at_extreme_scales(self, scale, t):
        lhs, rhs = theorem.equality_case_norm(scale * SZ, -1.0, t)
        assert_allclose([lhs, rhs], 0.2 * np.sqrt(2.0), rtol=1e-12)

    def test_positive_k_rejected(self):
        with pytest.raises(ValueError, match="k must be negative"):
            theorem.equality_case_norm(SZ, 1.0, 0.1)
        # and the proportional aligned pair never discriminates at all
        for t in (0.3, 1.0, 2.0):
            psi = np.array([1.0, 1.0], complex) / np.sqrt(2.0)
            assert abs(abs(bracket(psi, SZ, SZ, t)) - 1.0) <= 1e-12

    def test_nan_k_rejected(self):
        with pytest.raises(ValueError, match="k must be negative"):
            theorem.equality_case_norm(SZ, np.nan, 0.1)

    def test_cut_proximity_for_large_t(self):
        with pytest.raises(CutProximityError):
            theorem.equality_case_norm(SZ, -2.0, 1.1)


class TestConjectureScan:
    def test_anti_aligned_reaches_exact_value(self):
        rng = np.random.default_rng(29)
        ha = random_hermitian(rng, 3, radius=1.0)
        report = theorem.conjecture_scan(ha, 2.0, 0.05, n_samples=10, seed=1)
        ha_traceless = ha - (np.trace(ha) / 3) * np.eye(3)
        expected = 3.0 * linalg.frobenius(ha_traceless)
        assert_allclose(report.anti_aligned_norm, expected, rtol=1e-10)

    def test_aligned_equal_norm_gives_zero_generator(self):
        rng = np.random.default_rng(31)
        ha = random_hermitian(rng, 3, radius=1.0)
        ha = ha - (np.trace(ha) / 3) * np.eye(3)
        prod = scipy.linalg.expm(0.1j * ha) @ scipy.linalg.expm(-0.1j * ha)
        assert linalg.frobenius(linalg.principal_log_u(prod)) <= 1e-12

    def test_no_sample_beats_anti_aligned(self):
        rng = np.random.default_rng(37)
        ha = random_hermitian(rng, 3, radius=1.0)
        report = theorem.conjecture_scan(ha, 1.0, 0.1, n_samples=100, seed=11)
        assert report.max_sample_norm <= report.anti_aligned_norm + 1e-8

    @pytest.mark.parametrize("scale", [1e200, 1e-200])
    def test_extreme_scales_give_the_unit_scale_numbers(self, scale):
        # The generator norms carry the scale of ha; the phases do not.
        ha = np.diag([1.0, 0.0, -1.0]).astype(complex)
        unit = theorem.conjecture_scan(ha, 1.0, 0.5, 20, 3)
        report = theorem.conjecture_scan(scale * ha, 1.0, 0.5 / scale, 20, 3)
        assert_allclose([report.anti_aligned_norm / scale, report.max_sample_norm / scale],
                        [unit.anti_aligned_norm, unit.max_sample_norm], rtol=1e-12)

    def test_rejects_a_scalar_ha(self):
        with pytest.raises(ValueError, match="^ha must be nonzero after trace projection$"):
            theorem.conjecture_scan(np.eye(2), 1.0, 0.5, 4, 0)
