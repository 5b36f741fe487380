import numpy as np
import pytest
import scipy.linalg
from numpy.testing import assert_allclose

from orthotime import linalg, theorem
from orthotime.errors import (
    ConvergenceError,
    CutProximityError,
    DimensionMismatchError,
    NonHermitianError,
    NonUnitaryError,
)
from helpers import SX, SZ, random_hermitian


class TestHermEig:
    def test_diagonal_input(self):
        values, vectors = linalg.herm_eig(np.diag([1.0, 2.0]).astype(complex))
        assert_allclose(values, [1.0, 2.0])
        assert_allclose(vectors, np.eye(2), atol=1e-14)

    def test_pauli_x_spectrum(self):
        values, _ = linalg.herm_eig(SX)
        assert_allclose(values, [-1.0, 1.0], atol=1e-14)

    def test_reconstruction_random(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            h = random_hermitian(rng, 5, radius=3.0)
            values, vectors = linalg.herm_eig(h)
            recon = (vectors * values) @ vectors.conj().T
            assert np.linalg.norm(recon - h) <= 1e-10 * np.linalg.norm(h)
            assert np.all(np.diff(values) >= 0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_entries(self, bad):
        with pytest.raises(NonHermitianError, match="fails the Hermiticity tolerance"):
            linalg.herm_eig(np.diag([bad, 1.0]).astype(complex))

    def test_rejects_non_hermitian(self):
        with pytest.raises(NonHermitianError):
            linalg.herm_eig(np.array([[0, 1], [0, 0]], complex))

    @pytest.mark.parametrize("bad", [np.inf, 1e200, 1e-200, 5e-324])
    def test_rejects_a_lone_off_diagonal_entry_at_any_scale(self, bad):
        # Squares of the entries overflow or underflow outside [1e-100, 1e100].
        with pytest.raises(NonHermitianError, match="fails the Hermiticity tolerance"):
            linalg.assert_hermitian(np.array([[0, bad], [0, 0]], complex))

    @pytest.mark.parametrize("scale", [1e300, 1e200, 1e-200, 5e-324, 0.0])
    def test_accepts_hermitian_matrices_at_any_scale(self, scale):
        h = scale * np.array([[1, 1j], [-1j, -1]])
        assert linalg.assert_hermitian(h) is not None

    def test_rejects_a_matrix_whose_norm_overflows(self):
        # ||h||_F exceeds the float range, so no tolerance relative to it holds.
        with pytest.raises(NonHermitianError, match="fails the Hermiticity tolerance"):
            linalg.assert_hermitian(np.array([[1.5e308, 1e308], [0, 1.5e308]], complex))

    def test_accepts_a_hermitian_matrix_whose_defect_would_overflow(self):
        assert linalg.assert_hermitian(np.array([[0, 1e308], [1e308, 0]], complex)) is not None


class TestUnitaryEig:
    def test_identity(self):
        phases, _ = linalg.unitary_eig(np.eye(3, dtype=complex))
        assert_allclose(phases, 0.0, atol=1e-14)

    def test_diagonal_phases(self):
        u = np.diag([np.exp(1j * np.pi / 2), np.exp(-1j * np.pi / 2)])
        phases, _ = linalg.unitary_eig(u)
        assert_allclose(phases, [-np.pi / 2, np.pi / 2], atol=1e-14)

    def test_exponential_of_pauli_x(self):
        # independent construction of e^{i 0.3 sigma_x} via the Pade-based expm
        u = scipy.linalg.expm(1j * 0.3 * SX)
        phases, _ = linalg.unitary_eig(u)
        assert_allclose(phases, [-0.3, 0.3], atol=1e-12)

    def test_reconstruction_random_up_to_dim_8(self):
        rng = np.random.default_rng(5)
        for dim in range(2, 9):
            g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
            u, _ = np.linalg.qr(g)
            phases, vectors = linalg.unitary_eig(u)
            assert np.all(phases > -np.pi) and np.all(phases <= np.pi)
            assert np.all(np.diff(phases) >= 0)
            recon = (vectors * np.exp(1j * phases)) @ vectors.conj().T
            assert np.linalg.norm(recon - u) <= 1e-10 * np.linalg.norm(u)

    def test_phase_tie_at_minus_pi_maps_to_plus_pi(self):
        phases, _ = linalg.unitary_eig(np.diag([-1.0 + 0.0j, 1.0]))
        assert_allclose(sorted(phases), [0.0, np.pi])

    def test_each_column_has_a_real_positive_largest_entry(self):
        for dim in range(1, 9):
            _, vectors = linalg.unitary_eig(theorem.random_unitary(dim, 90 + dim))
            pivots = vectors[np.abs(vectors).argmax(axis=0), np.arange(dim)]
            assert np.all(pivots.real > 0)
            assert np.all(np.abs(pivots.imag) <= 1e-15)

    def test_the_frame_ignores_the_phase_eigh_picks(self, monkeypatch):
        u = theorem.random_unitary(4, 7)
        _, vectors = linalg.unitary_eig(u)
        eigh = np.linalg.eigh
        turn = np.exp(1j * np.array([0.3, -2.0, 1.0, 3.1]))
        monkeypatch.setattr(np.linalg, "eigh",
                            lambda k: (lambda w, v: (w, v * turn))(*eigh(k)))
        assert_allclose(linalg.unitary_eig(u).vectors, vectors, rtol=0, atol=1e-14)

    def test_a_frame_that_fails_reconstruction_raises(self, monkeypatch):
        # Reversed columns pair each phase with another phase's eigenvector.
        eigh = np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh",
                            lambda k: (lambda w, v: (w[::-1], v[:, ::-1]))(*eigh(k)))
        with pytest.raises(ConvergenceError, match="^eigendecomposition failed to "
                                                   "reproduce the input unitary$"):
            linalg.unitary_eig(theorem.random_unitary(3, 1))

    def test_rejects_non_unitary(self):
        with pytest.raises(NonUnitaryError):
            linalg.unitary_eig(2.0 * np.eye(2, dtype=complex))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_assert_unitary_rejects_non_finite_entries(self, bad):
        with pytest.raises(NonUnitaryError, match="fails the unitarity tolerance"):
            linalg.assert_unitary(np.diag([bad, 1.0]).astype(complex))


def _spectrum(kind, dim, rng):
    """Eigenphases of one named kind for the Schur-reference cases."""
    if kind == "identity":
        return np.zeros(dim)
    if kind == "minus_identity":
        return np.full(dim, np.pi)
    if kind == "two_fold":
        return np.repeat(rng.uniform(-np.pi, np.pi, (dim + 1) // 2), 2)[:dim]
    if kind == "clustered":
        cluster = 0.7 + 1e-10 * np.arange(dim // 2 + 1)
        return np.concatenate([cluster, rng.uniform(-3.0, 0.0, dim - cluster.size)])
    if kind == "antipodal":
        a = rng.uniform(0.0, np.pi, (dim + 1) // 2)
        return np.stack([a, a - np.pi], axis=1).ravel()[:dim]
    phases = rng.uniform(-3.0, 3.0, dim)
    phases[0] = {"plus_pi": np.pi, "near_cut": np.pi - 1e-12}[kind]
    return phases


def _on_circle(phases, cut):
    """Phases as angles from ``cut``, in [0, 2 pi), ascending."""
    return np.sort(np.mod(phases - cut, 2.0 * np.pi))


SPECTRA = ["identity", "minus_identity", "two_fold", "clustered", "antipodal", "plus_pi",
           "near_cut"]


class TestUnitaryEigAgainstSchur:
    """The frame, phases and reconstruction of ``unitary_eig`` against an
    independent complex Schur form, on rotated spectra with degenerate,
    clustered, antipodal and cut-side phases."""

    @pytest.mark.parametrize("kind", SPECTRA)
    @pytest.mark.parametrize("dim", range(1, 17))
    def test_matches_schur(self, dim, kind):
        rng = np.random.default_rng([dim, SPECTRA.index(kind)])
        w, _ = np.linalg.qr(rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)))
        u = (w * np.exp(1j * _spectrum(kind, dim, rng))) @ w.conj().T
        phases, vectors = linalg.unitary_eig(u)
        assert np.abs(vectors.conj().T @ vectors - np.eye(dim)).max() <= 1e-12
        recon = (vectors * np.exp(1j * phases)) @ vectors.conj().T
        assert np.linalg.norm(recon - u) <= linalg.RECONSTRUCTION_TOL * max(np.linalg.norm(u), 1.0)
        t, _ = scipy.linalg.schur(u, output="complex")
        ref = np.sort(np.angle(np.diagonal(t)))
        arcs = np.diff(ref, append=ref[0] + 2.0 * np.pi)
        cut = ref[np.argmax(arcs)] + 0.5 * arcs.max()  # far from every phase
        assert_allclose(_on_circle(phases, cut), _on_circle(ref, cut), rtol=0, atol=1e-13)
        if kind == "near_cut":
            with pytest.raises(CutProximityError):
                linalg.principal_log_u(u)

    @pytest.mark.parametrize("dim", range(1, 17))
    def test_exact_plus_pi_stays_on_the_included_end(self, dim):
        u = np.diag(np.exp(1j * np.random.default_rng(dim).uniform(-3.0, 3.0, dim)))
        u[dim // 2, dim // 2] = -1.0
        values, _ = linalg.unitary_eig(u)
        assert values[-1] == np.pi
        assert_allclose(np.linalg.eigvalsh(linalg.principal_log_u(u)), values, atol=1e-14)


class TestUnitaryPhases:
    def test_matches_unitary_eig_on_random_unitaries(self):
        for dim in range(1, 7):
            for seed in range(20):
                u = theorem.random_unitary(dim, 1000 * dim + seed)
                phases, _ = linalg.unitary_eig(u)
                assert_allclose(linalg.unitary_phases(u), phases, rtol=0, atol=1e-12)

    def test_identity_is_fully_degenerate(self):
        assert_allclose(linalg.unitary_phases(np.eye(4, dtype=complex)), 0.0, atol=1e-14)

    @pytest.mark.parametrize("minus_one", [complex(-1.0, 0.0), complex(-1.0, -0.0)])
    def test_phase_tie_at_minus_pi_maps_to_plus_pi(self, minus_one):
        phases = linalg.unitary_phases(np.diag([minus_one, 1.0]))
        assert phases.tolist() == [0.0, np.pi]

    def test_rejects_non_unitary(self):
        with pytest.raises(NonUnitaryError):
            linalg.unitary_phases(2.0 * np.eye(2, dtype=complex))

    def test_rejects_a_nan_unitary_as_non_unitary(self):
        with pytest.raises(NonUnitaryError, match="fails the unitarity tolerance"):
            linalg.unitary_phases(np.diag([np.nan, 1.0]).astype(complex))

    @pytest.mark.parametrize("corrupt", [lambda w: 1.001 * w, np.conj,
                                         lambda w: np.full_like(w, np.nan)],
                             ids=["modulus", "trace", "nan"])
    def test_rejects_an_inconsistent_spectrum(self, monkeypatch, corrupt):
        u = theorem.random_unitary(4, 3)
        eigvals = np.linalg.eigvals
        monkeypatch.setattr(np.linalg, "eigvals", lambda m: corrupt(eigvals(m)))
        with pytest.raises(ConvergenceError):
            linalg.unitary_phases(u)

    @pytest.mark.parametrize("dim", range(1, 10))
    def test_a_stack_matches_one_call_per_matrix_bit_for_bit(self, dim):
        stack = np.stack([theorem.random_unitary(dim, 50 * dim + seed) for seed in range(6)]
                         + [np.eye(dim, dtype=complex), -np.eye(dim, dtype=complex)])
        single = np.stack([linalg.unitary_phases(u) for u in stack])
        assert np.array_equal(linalg.unitary_phases(stack), single)
        assert np.array_equal(linalg.unitary_phases(stack.reshape(2, 4, dim, dim)),
                              single.reshape(2, 4, dim))

    def test_a_stack_with_one_non_unitary_matrix_raises(self):
        stack = np.stack([theorem.random_unitary(3, seed) for seed in range(4)])
        stack[2] *= 1.001
        with pytest.raises(NonUnitaryError, match="fails the unitarity tolerance"):
            linalg.unitary_phases(stack)
        with pytest.raises(NonUnitaryError, match="fails the unitarity tolerance"):
            linalg.assert_unitary(stack)

    def test_unitary_eig_rejects_a_stack(self):
        with pytest.raises(DimensionMismatchError, match="must be a square matrix"):
            linalg.unitary_eig(np.stack([np.eye(2, dtype=complex)] * 2))


class TestAsUnitState:
    def test_rejects_a_nan_entry(self):
        with pytest.raises(ValueError, match="state vector must have unit norm"):
            linalg.as_unit_state(np.array([np.nan, 0.0]), 2)


class TestPrincipalLog:
    def test_identity_gives_zero(self):
        assert_allclose(linalg.principal_log_u(np.eye(3, dtype=complex)), 0.0, atol=1e-14)

    def test_diagonal(self):
        u = np.diag([np.exp(1j * np.pi / 4), np.exp(-1j * np.pi / 4)])
        assert_allclose(linalg.principal_log_u(u), np.diag([np.pi / 4, -np.pi / 4]),
                        atol=1e-14)

    def test_round_trip_is_minus_h(self):
        # log(e^{-i h}) = -h whenever the spectrum of h stays inside (-pi, pi)
        rng = np.random.default_rng(31)
        for _ in range(15):
            h = random_hermitian(rng, 5, radius=rng.uniform(0.1, 3.0))
            assert_allclose(linalg.principal_log_u(scipy.linalg.expm(-1j * h)), -h, atol=1e-11)

    def test_output_spectrum_in_half_open_interval(self):
        rng = np.random.default_rng(37)
        for _ in range(10):
            g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
            u, _ = np.linalg.qr(g)
            k = linalg.principal_log_u(u)
            w = np.linalg.eigvalsh(k)
            assert np.all(w > -np.pi) and np.all(w <= np.pi + 1e-12)

    def test_exact_minus_one_eigenvalue_allowed(self):
        k = linalg.principal_log_u(np.diag([-1.0 + 0.0j, 1.0]))
        assert_allclose(sorted(np.linalg.eigvalsh(k)), [0.0, np.pi], atol=1e-14)

    def test_cut_proximity_raises(self):
        u = np.diag([np.exp(1j * (np.pi - 1e-12)), 1.0])
        with pytest.raises(CutProximityError):
            linalg.principal_log_u(u)

    def test_norm_keeps_the_cut_rule(self):
        assert linalg.principal_log_norm(np.diag([-1.0 + 0.0j, 1.0])) == np.pi
        for phase in (np.pi - 1e-12, -np.pi + 1e-12):
            with pytest.raises(CutProximityError):
                linalg.principal_log_norm(np.diag([np.exp(1j * phase), 1.0]))

    def test_norm_is_frobenius_norm_of_log(self):
        rng = np.random.default_rng(41)
        for dim in range(1, 7):
            u = scipy.linalg.expm(-1j * random_hermitian(rng, dim, radius=3.0))
            assert_allclose(linalg.principal_log_norm(u),
                            linalg.frobenius(linalg.principal_log_u(u)), rtol=0, atol=1e-12)


class TestFrobenius:
    def test_zero(self):
        assert linalg.frobenius(np.zeros((3, 3))) == 0.0

    def test_identity(self):
        assert_allclose(linalg.frobenius(np.eye(3)), np.sqrt(3.0))

    def test_pauli_z(self):
        assert_allclose(linalg.frobenius(SZ), np.sqrt(2.0))

    def test_unitary_invariance(self):
        rng = np.random.default_rng(41)
        for _ in range(10):
            m = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
            g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
            w, _ = np.linalg.qr(g)
            assert abs(linalg.frobenius(w @ m @ w.conj().T) - linalg.frobenius(m)) <= 1e-10

    @pytest.mark.parametrize("scale", [1e200, 1e-200, 5e-324])
    def test_keeps_its_scale(self, scale):
        assert_allclose(linalg.frobenius(scale * SZ), scale * np.sqrt(2.0), rtol=1e-15)

    def test_an_infinite_entry_beside_a_nan_gives_inf(self):
        assert linalg.frobenius(np.array([[np.nan, np.inf], [0, 0]])) == np.inf


class TestLogFrechetDiag:
    def test_hand_computed_table(self):
        g = np.diag([1.0 + 0.0j, 2.0])
        h = np.ones((2, 2), dtype=complex)
        expected = np.array([[1.0, np.log(2.0)], [np.log(2.0), 0.5]], dtype=complex)
        assert_allclose(linalg.log_frechet_diag(g, h), expected, atol=1e-14)

    def test_identity_point_returns_h(self):
        rng = np.random.default_rng(43)
        h = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        assert_allclose(linalg.log_frechet_diag(np.eye(3, dtype=complex), h), h, atol=1e-14)

    def test_coincident_entries_use_diagonal_limit(self):
        g = np.diag([2.0 + 0.0j, 2.0])
        h = np.ones((2, 2), dtype=complex)
        assert_allclose(linalg.log_frechet_diag(g, h), np.full((2, 2), 0.5), atol=1e-14)

    def test_matches_central_finite_difference(self):
        # oracle: central difference of the scipy matrix logarithm
        rng = np.random.default_rng(47)
        checked = 0
        while checked < 12:
            dim = int(rng.integers(2, 7))
            vals = rng.uniform(0.5, 2.0, dim) * np.exp(1j * rng.uniform(-2.5, 2.5, dim))
            if np.min(np.abs(vals[:, None] - vals[None, :]) + np.eye(dim)) < 0.05:
                continue
            g = np.diag(vals)
            h = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
            step = 1e-5
            fd = (scipy.linalg.logm(g + step * h) - scipy.linalg.logm(g - step * h)) / (2 * step)
            got = linalg.log_frechet_diag(g, h)
            assert np.linalg.norm(got - fd) <= 1e-6 * np.linalg.norm(fd)
            checked += 1

    def test_cut_proximity(self):
        with pytest.raises(CutProximityError):
            linalg.log_frechet_diag(np.diag([-1.0 + 0.0j, 2.0]), np.eye(2, dtype=complex))

    def test_rejects_non_diagonal(self):
        with pytest.raises(ValueError):
            linalg.log_frechet_diag(np.ones((2, 2), complex), np.eye(2, dtype=complex))

    def test_shape_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            linalg.log_frechet_diag(np.eye(2, dtype=complex), np.eye(3, dtype=complex))
