"""Randomized numerical verification of principal-log norm inequalities.

The core statement: for any unitaries U and V whose principal logarithms are
defined (no eigenvalue on the cut at -1),

    || log(UV) ||_F  <=  || log U ||_F + || log V ||_F.

Equivalently, for Hermitian X, Y with spectra in (-pi, pi], the Hermitian
generator Z(s) of e^{i Z(s)} = e^{i X} e^{i s Y} satisfies
||Z(s)||_F <= ||X||_F + s ||Y||_F, provided the path never crosses the cut.
This module samples seeded random instances of the endpoint inequality and
checks the finite-step induction inequality along the path, one step at a
time; it also scans the related maximality statement: among traceless
Hermitian hb of fixed Frobenius norm, the norm of the product generator
log(e^{i hb t} e^{-i ha t}) / t is largest for hb proportional to ha with a
negative constant.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import discriminate, linalg


@dataclass(frozen=True)
class TheoremTrial:
    """One subadditivity check: lhs = ||log(UV)||_F, rhs = ||log U||_F +
    ||log V||_F, margin = rhs - lhs (NaN when skipped)."""

    dim: int
    seed: int | None
    lhs: float
    rhs: float
    margin: float
    skipped: bool
    skip_reason: str | None


@dataclass(frozen=True)
class ConjectureScan:
    """Randomized maximality check of the anti-aligned proportional choice."""

    dim: int
    k_ratio: float
    t: float
    n_samples: int
    seed: int
    anti_aligned_norm: float
    max_sample_norm: float
    margin: float


def random_unitary(dim: int, seed: int) -> np.ndarray:
    """Haar-style unitary: QR of a seeded complex Gaussian matrix with the
    R-diagonal phases absorbed.  Deterministic per seed."""
    dim = linalg._count(dim, "dim")
    rng = np.random.default_rng(seed)
    z = (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))) / np.sqrt(2.0)
    q, r = np.linalg.qr(z)
    d = np.where(np.diagonal(r) == 0.0, 1.0, np.diagonal(r))
    return q * (d / np.abs(d))


def _phase_cut_distance(phases: np.ndarray) -> float:
    """Smallest distance of an eigenphase in (-pi, pi] to the branch point."""
    return float(np.min(np.pi - np.abs(phases)))


def check_subadditivity(u, v, seed: int | None = None) -> TheoremTrial:
    """Evaluate ||log(uv)||_F against ||log u||_F + ||log v||_F.

    Each norm is the 2-norm of the matrix's eigenphases, ||log U||_F =
    ||theta||_2, from one ``linalg.unitary_phases`` call per matrix, so a
    non-unitary u or v raises ``NonUnitaryError``.  Trials where either
    factor or the product carries an eigenphase within ``linalg.CUT_GUARD``
    of the branch point are skipped (the inequality's proof requires a
    cut-free path), not counted as violations.
    """
    u, v = linalg._square_pair(u, v, ("u", "v"))
    dim = u.shape[0]
    nan = float("nan")
    phases = [linalg.unitary_phases(m) for m in (u, v, u @ v)]
    for name, p in zip(("u", "v", "uv"), phases):
        if _phase_cut_distance(p) < linalg.CUT_GUARD:
            return TheoremTrial(dim, seed, nan, nan, nan, True,
                                f"cut proximity in {name}")
    norm_u, norm_v, lhs = (float(np.linalg.norm(p)) for p in phases)
    rhs = norm_u + norm_v
    return TheoremTrial(dim, seed, lhs, rhs, rhs - lhs, False, None)


def run_trials(n_trials: int, dim_max: int, seed: int) -> list[TheoremTrial]:
    """Seeded sweep of subadditivity trials; dimensions and per-factor seeds
    derive deterministically from one master seed."""
    n_trials = linalg._count(n_trials, "n_trials")
    dim_max = linalg._count(dim_max, "dim_max")
    master = np.random.default_rng(seed)
    dims = master.integers(1, dim_max + 1, size=n_trials)
    seeds = master.integers(0, 2**63 - 1, size=(n_trials, 2))
    trials = []
    for i in range(n_trials):
        u = random_unitary(int(dims[i]), int(seeds[i, 0]))
        v = random_unitary(int(dims[i]), int(seeds[i, 1]))
        trials.append(check_subadditivity(u, v, seed=int(seeds[i, 0])))
    return trials


def _path_point(x, y, s: float) -> np.ndarray:
    """e^{i x} e^{i s y}."""
    return linalg.expm_i(-np.asarray(x, complex), 1.0) @ linalg.expm_i(-np.asarray(y, complex), float(s))


def check_induction_step(x, y, s: float, ds: float) -> tuple[float, float]:
    """(||Z(s + ds)||_F, ||Z(s)||_F + ds ||Y||_F) for the path generator Z.

    The full inequality lhs <= rhs holds for any step 0 <= s <= s + ds <= 1
    on a cut-free path; small ds probes the differential version directly.
    """
    if not 0.0 <= s <= s + ds <= 1.0:
        raise ValueError("need 0 <= s <= s + ds <= 1")
    z1 = linalg.principal_log_norm(_path_point(x, y, s + ds))
    z0 = linalg.principal_log_norm(_path_point(x, y, s))
    return z1, z0 + ds * linalg.frobenius(y)


def conjecture_scan(ha, k_ratio: float, t: float, n_samples: int,
                    seed: int) -> ConjectureScan:
    """Compare ||log(e^{i hb t} e^{-i ha t})||_F / t over random fixed-norm
    Hermitian hb against the anti-aligned choice hb = -k_ratio * ha.

    As in the maximality statement, ``ha`` is trace-projected; samples are
    Gaussian Hermitian, trace-projected alike, and rescaled to k_ratio times
    the norm of the projected ha.  ``k_ratio`` and ``t`` are checked finite
    and positive, ``n_samples`` an integer >= 1.  Raises ``CutProximityError``
    if the product generator reaches the branch cut (reduce t).
    """
    ha = linalg.assert_hermitian(ha, name="ha")
    k_ratio = linalg._finite_positive(k_ratio, "k_ratio")
    t = linalg._finite_positive(t, "t")
    n_samples = linalg._count(n_samples, "n_samples")
    dim = ha.shape[0]
    ha = ha - (np.trace(ha) / dim) * np.eye(dim)
    norm_a = linalg.frobenius(ha)
    if norm_a == 0.0:
        raise ValueError("ha must be nonzero after trace projection")
    target = k_ratio * norm_a

    def generator_norm(hb: np.ndarray) -> float:
        return linalg.principal_log_norm(discriminate.product_unitary(ha, hb, t)) / t

    anti = generator_norm(-k_ratio * ha)
    rng = np.random.default_rng(seed)
    best = 0.0
    for _ in range(n_samples):
        g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        hb = 0.5 * (g + g.conj().T)
        hb = hb - (np.trace(hb) / dim) * np.eye(dim)
        hb = hb * (target / linalg.frobenius(hb))
        best = max(best, generator_norm(hb))
    return ConjectureScan(dim, k_ratio, t, n_samples, int(seed),
                          float(anti), float(best), float(anti - best))
