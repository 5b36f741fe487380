import numpy as np
import pytest
from numpy.testing import assert_allclose

from orthotime import linalg, theorem
from orthotime.errors import DimensionMismatchError, NonUnitaryError
from helpers import random_hermitian


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
            u = linalg.expm_i(random_hermitian(rng, d, radius=np.pi / 4), 1.0)
            v = linalg.expm_i(random_hermitian(rng, d, radius=np.pi / 4), 1.0)
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
        prod = linalg.expm_i(-ha, 0.1) @ linalg.expm_i(ha, 0.1)
        assert linalg.frobenius(linalg.principal_log_u(prod)) <= 1e-12

    def test_no_sample_beats_anti_aligned(self):
        rng = np.random.default_rng(37)
        ha = random_hermitian(rng, 3, radius=1.0)
        report = theorem.conjecture_scan(ha, 1.0, 0.1, n_samples=100, seed=11)
        assert report.max_sample_norm <= report.anti_aligned_norm + 1e-8
