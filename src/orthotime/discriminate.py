"""Generic d-dimensional discrimination engine.

Two Hamiltonians ``ha`` and ``hb`` (hbar = 1) evolve a common initial state
as exp(-i ha t) psi and exp(-i hb t) psi.  The pair can be perfectly
discriminated at the first time the product unitary

    U(t) = exp(i hb t) exp(-i ha t)

acquires two antipodal eigenphases: the attainable bracket values
<psi|U(t)|psi> form the convex hull of the eigenphase points on the unit
circle, and 0 first enters that hull through an edge, i.e. when the largest
empty arc between eigenphases shrinks to pi.  The optimal initial state is an
equal-weight superposition of the two eigenvectors bounding that arc.

``find_t_perp`` scans the gap margin g(t) = (largest empty arc) - pi, which
starts at pi, and refines the first instant it reaches zero.  For d >= 3 the
first touch is generically a sign change of g; for d = 2 the hull is a chord
and g >= 0 touches zero without crossing, so the engine instead tracks the
signed scalar Re[e^{-i beta t} tr U(t)] (beta removes the scalar-trace phase
drift), which vanishes transversally exactly at the antipodal instants.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from . import linalg
from ._scan import first_root
from .errors import DimensionMismatchError

GAP_FTOL = 1e-11


class ScanContinuityWarning(RuntimeWarning):
    """Adjacent scan samples jumped by more than the Lipschitz bound allows.

    Only the samples the scan evaluated are checked: those up to the first
    root, or the whole horizon when there is none.
    """


@dataclass(frozen=True)
class PhaseSpectrum:
    """Eigenphases of the product unitary at time t, ascending in (-pi, pi],
    and the frame W with U = W diag(e^{i phases}) W*."""

    t: float
    phases: np.ndarray
    frame: np.ndarray


@dataclass(frozen=True)
class DiscriminationResult:
    t_perp: float
    pair: tuple[int, int]
    alpha: float
    state: np.ndarray
    residual: float


@dataclass(frozen=True)
class NoOrthogonality:
    """No antipodal eigenphase pair within the scanned horizon.

    ``g_infimum`` is the smallest sampled gap margin and ``t_at_infimum`` the
    grid time where it is first reached; with no root the scan evaluates the
    whole horizon, so both are taken over every grid point.  A value clearly
    above zero indicates the pair genuinely cannot be discriminated on this
    horizon (it stays positive forever for proportional fields with small
    alignment angle), while a small value suggests the horizon was too short.
    """

    t_max: float
    g_infimum: float
    t_at_infimum: float


def product_unitary(ha, hb, t: float) -> np.ndarray:
    """exp(i hb t) exp(-i ha t), the unitary whose eigenphases govern
    discriminability at time t."""
    ha = linalg.as_square_matrix(ha, "ha")
    hb = linalg.as_square_matrix(hb, "hb")
    if ha.shape != hb.shape:
        raise DimensionMismatchError(f"shape mismatch: {ha.shape} vs {hb.shape}")
    return linalg.expm_i(-hb, t) @ linalg.expm_i(ha, t)


def phase_spectrum(ha, hb, t: float) -> PhaseSpectrum:
    """Sorted eigenphases and eigenframe of the product unitary at time t."""
    phases, frame = linalg.unitary_eig(product_unitary(ha, hb, t))
    return PhaseSpectrum(float(t), phases, frame)


def max_circular_gap(phases) -> tuple[float, tuple[int, int]]:
    """Largest empty arc between circularly adjacent phase points.

    ``phases`` must be ascending in (-pi, pi].  Returns (gap, (i, j)) where
    i, j index the two phases bounding the arc.  A single point, or a fully
    coincident set, has gap 2*pi.  Zero lies in the convex hull of the points
    e^{i phase} exactly when the gap is <= pi.
    """
    ph = np.asarray(phases, dtype=float)
    d = ph.size
    if d == 0:
        raise ValueError("need at least one phase")
    if d == 1:
        return 2.0 * np.pi, (0, 0)
    if np.any(np.diff(ph) < 0):
        raise ValueError("phases must be sorted ascending")
    gaps = np.empty(d)
    gaps[: d - 1] = np.diff(ph)
    gaps[d - 1] = 2.0 * np.pi - (ph[-1] - ph[0])
    k = int(np.argmax(gaps))
    pair = (k, k + 1) if k < d - 1 else (d - 1, 0)
    return float(gaps[k]), pair


def orthogonal_state(frame, pair: tuple[int, int], alpha: float = 0.0) -> np.ndarray:
    """Equal-weight two-component state W v / sqrt(2), with v carrying 1 at
    pair[0] and e^{i alpha} at pair[1] in the eigenframe.

    Its bracket with the diagonalized unitary is (e^{i th_i} + e^{i th_j})/2,
    independent of alpha in magnitude.
    """
    frame = linalg.as_square_matrix(frame, "frame")
    i, j = pair
    d = frame.shape[0]
    if not (0 <= i < d and 0 <= j < d):
        raise IndexError(f"pair {pair} out of range for dimension {d}")
    if i == j:
        raise ValueError("pair indices must differ")
    v = np.zeros(d, dtype=complex)
    v[i] = 1.0
    v[j] = np.exp(1j * alpha)
    return (frame @ v) / np.sqrt(2.0)


def bracket(psi, ha, hb, t: float) -> complex:
    """Exact inner product <psi| exp(i hb t) exp(-i ha t) |psi>."""
    ha = linalg.as_square_matrix(ha, "ha")
    psi = linalg.as_unit_state(psi, ha.shape[0])
    return complex(psi.conj() @ product_unitary(ha, hb, t) @ psi)


class _EvolutionPair:
    """Cached spectral data for fast evaluation of the product unitary on
    grids of times."""

    def __init__(self, ha, hb):
        ha = linalg.as_square_matrix(ha, "ha")
        hb = linalg.as_square_matrix(hb, "hb")
        if ha.shape != hb.shape:
            raise DimensionMismatchError(f"shape mismatch: {ha.shape} vs {hb.shape}")
        self.dim = ha.shape[0]
        self.lam, self.va = linalg.herm_eig(ha)
        self.mu, self.vb = linalg.herm_eig(hb)
        self.half_span_a = float(self.lam[-1] - self.lam[0]) / 2.0
        self.half_span_b = float(self.mu[-1] - self.mu[0]) / 2.0
        # tr U(t) = sum_jk |<b_j|a_k>|^2 e^{i (mu_j - lam_k) t}
        self.mix = np.abs(self.vb.conj().T @ self.va) ** 2
        self.freqs = self.mu[:, None] - self.lam[None, :]
        self.beta = float(self.mu.sum() - self.lam.sum()) / self.dim

    # Phase motion of U(t) is generated by hb - e^{i hb t} ha e^{-i hb t};
    # scalar parts cancel in gaps, so half-spans bound each phase velocity.
    @property
    def lipschitz(self) -> float:
        return 2.0 * (self.half_span_a + self.half_span_b)

    def product_grid(self, ts) -> np.ndarray:
        ts = np.asarray(ts, dtype=float)
        ea = np.exp(-1j * np.multiply.outer(ts, self.lam))
        eb = np.exp(1j * np.multiply.outer(ts, self.mu))
        ua = (self.va[None, :, :] * ea[:, None, :]) @ self.va.conj().T
        ub = (self.vb[None, :, :] * eb[:, None, :]) @ self.vb.conj().T
        return ub @ ua

    def phases_grid(self, ts) -> np.ndarray:
        phases = np.angle(np.linalg.eigvals(self.product_grid(ts)))
        phases = np.where(phases <= -np.pi, phases + 2.0 * np.pi, phases)
        phases.sort(axis=1)
        return phases

    def gap_margin(self, ts) -> np.ndarray:
        """g(t) = largest empty arc - pi, batched over times."""
        phases = self.phases_grid(ts)
        wrap = 2.0 * np.pi - (phases[:, -1] - phases[:, 0])
        if phases.shape[1] > 1:
            inner = np.diff(phases, axis=1).max(axis=1)
            return np.maximum(inner, wrap) - np.pi
        return wrap - np.pi

    def trace_margin(self, ts) -> np.ndarray:
        """Signed antipodality scalar for d = 2: Re[e^{-i beta t} tr U(t)].

        Equals twice the cosine of the half rotation angle of the determinant
        -normalized product, so it crosses zero exactly when the two
        eigenphases are antipodal.
        """
        ts = np.asarray(ts, dtype=float)
        tr = np.exp(1j * np.multiply.outer(ts, self.freqs.ravel())) @ self.mix.ravel()
        return np.real(np.exp(-1j * self.beta * ts) * tr)

    @staticmethod
    def gap_margin_from_trace(c) -> np.ndarray:
        half = np.arccos(np.clip(np.asarray(c, dtype=float) / 2.0, -1.0, 1.0))
        return np.pi - 2.0 * np.minimum(half, np.pi - half)


def _flag_jumps(samples: np.ndarray, bound: float) -> None:
    jumps = np.abs(np.diff(samples))
    if jumps.size and jumps.max() > bound * (1.0 + 1e-6) + 1e-9:
        warnings.warn(
            f"scan jump {jumps.max():.3e} exceeds the Lipschitz bound {bound:.3e}; "
            "samples may be corrupted",
            ScanContinuityWarning,
            stacklevel=3,
        )


def _finite_positive(value, name: str) -> float | None:
    """``value`` as a float, or None when not given; raises ValueError
    naming the argument unless it is finite and positive."""
    if value is None:
        return None
    value = float(value)
    if not np.isfinite(value):
        raise ValueError(f"{name} must be finite")
    if value <= 0.0:
        raise ValueError(f"{name} must be positive")
    return value


def find_t_perp(ha, hb, t_max: float | None = None, scan_step: float | None = None,
                refine_tol: float | None = None, alpha: float = 0.0):
    """First orthogonality time for the pair (ha, hb) and the optimal state.

    Scans the gap margin g(t) on a uniform grid over [0, t_max] and refines
    the first instant it reaches zero (sub-grid tangency by recursive
    subsampling; sign change by ``_scan.bisect_root``, safeguarded inverse
    quadratic and secant steps, a few single-time margin evaluations on a
    smooth crossing).  The grid is evaluated lazily in growing blocks and
    the scan stops at the first root, with the same result as scanning every
    grid point (see ``_scan.first_root``).  Defaults: ``t_max`` is 100x the
    spectral-span lower bound pi/(2 wa + 2 wb), ``scan_step`` is t_max/2000
    capped so the fastest eigenphase beat stays resolved, and ``refine_tol``
    is 1e-10 * t_max.  A given ``t_max``, ``scan_step`` or ``refine_tol``
    must be finite and positive.  A ``ScanContinuityWarning`` is issued
    when adjacent evaluated samples jump by more than the Lipschitz bound.

    Returns a ``DiscriminationResult`` on success.  Returns a
    ``NoOrthogonality`` report when g never reaches zero on the horizon; the
    report carries the sampled infimum of g over the whole grid for diagnosis
    (no finite upper bound on the orthogonality time exists in general, so
    the horizon is explicit).
    """
    pair_data = _EvolutionPair(ha, hb)
    t_max = _finite_positive(t_max, "t_max")
    scan_step = _finite_positive(scan_step, "scan_step")
    refine_tol = _finite_positive(refine_tol, "refine_tol")
    span_sum = 2.0 * (pair_data.half_span_a + pair_data.half_span_b)
    if span_sum == 0.0:
        # Both operators scalar: the product is a global phase forever.
        return NoOrthogonality(t_max if t_max is not None else 0.0, np.pi, 0.0)
    if t_max is None:
        t_max = 100.0 * np.pi / span_sum
    if scan_step is None:
        scan_step = min(t_max / 2000.0, np.pi / (2.0 * span_sum))
    if refine_tol is None:
        refine_tol = 1e-10 * t_max
    n = int(np.ceil(t_max / scan_step))
    ts = np.linspace(0.0, t_max, n + 1)

    f_batch = pair_data.trace_margin if pair_data.dim == 2 else pair_data.gap_margin
    blocks = []
    hit = first_root(f_batch, ts, lipschitz=pair_data.lipschitz, xtol=refine_tol,
                     ftol=GAP_FTOL, on_samples=blocks.append)
    samples = np.concatenate(blocks)
    _flag_jumps(samples, pair_data.lipschitz * (ts[1] - ts[0]))
    if hit is None:
        g_samples = pair_data.gap_margin_from_trace(samples) if pair_data.dim == 2 else samples
        k = int(np.argmin(g_samples))
        return NoOrthogonality(t_max, float(g_samples[k]), float(ts[k]))

    spectrum = phase_spectrum(ha, hb, hit.t)
    _, pair = max_circular_gap(spectrum.phases)
    state = orthogonal_state(spectrum.frame, pair, alpha)
    residual = abs(bracket(state, ha, hb, hit.t))
    return DiscriminationResult(float(hit.t), pair, float(alpha), state, float(residual))
