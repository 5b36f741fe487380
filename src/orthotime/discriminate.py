"""Generic d-dimensional discrimination engine.

Two Hamiltonians ``ha`` and ``hb`` (hbar = 1) evolve a common initial state
as exp(-i ha t) psi and exp(-i hb t) psi.  The pair can be perfectly
discriminated at the first time the product unitary

    U(t) = exp(i hb t) exp(-i ha t)

acquires two antipodal eigenphases: the attainable bracket values
<psi|U(t)|psi> form the convex hull of the eigenphase points on the unit
circle, and 0 first enters that hull through an edge, i.e. when the largest
empty arc between eigenphases shrinks to pi.  The optimal initial state is an
equal-weight superposition of the two eigenvectors bounding that arc.  U(t)
is formed in one place, ``_EvolutionPair``, in hb's eigenframe: the scan,
the optimal state and the public helpers all take it from there.

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
    """Adjacent margin samples jumped by more than the Lipschitz bound allows.

    Each batch of two or more samples the scan evaluates (a grid block or a
    touch-hunt subsample) is checked against L times its own spacing; the
    pair of samples across a block boundary is not.
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
    grid time where it is first reached: with no root the scan samples every
    grid point and keeps the lowest block by block.  A value clearly above
    zero indicates the pair genuinely cannot be discriminated on this horizon
    (it stays positive forever for proportional fields with small alignment
    angle), while a small value suggests the horizon was too short.
    """

    t_max: float
    g_infimum: float
    t_at_infimum: float


def product_unitary(ha, hb, t: float) -> np.ndarray:
    """exp(i hb t) exp(-i ha t), the unitary whose eigenphases govern
    discriminability at time t."""
    return _EvolutionPair(ha, hb).unitary(t)


def phase_spectrum(ha, hb, t: float) -> PhaseSpectrum:
    """Sorted eigenphases and eigenframe of the product unitary at time t."""
    return _EvolutionPair(ha, hb).spectrum(t)


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
    pair = _EvolutionPair(ha, hb)
    psi = linalg.as_unit_state(psi, pair.dim)
    return complex(psi.conj() @ pair.unitary(t) @ psi)


class _EvolutionPair:
    """U(t) for one validated pair, formed in hb's eigenframe: with
    ha = Va diag(lam) Va*, hb = Vb diag(mu) Vb* and M = Vb* Va,
    Vb* U(t) Vb = e^{i mu t} M e^{-i lam t} M*, which is similar to U(t).
    The scan, the optimal state and the public helpers all use it."""

    def __init__(self, ha, hb):
        ha = linalg.as_square_matrix(ha, "ha")
        hb = linalg.as_square_matrix(hb, "hb")
        if ha.shape != hb.shape:
            raise DimensionMismatchError(f"shape mismatch: {ha.shape} vs {hb.shape}")
        self.dim = ha.shape[0]
        self.lam, va = linalg.herm_eig(ha)
        self.mu, self.vb = linalg.herm_eig(hb)
        self.overlap = self.vb.conj().T @ va
        # Phase motion of U(t) is generated by hb - e^{i hb t} ha e^{-i hb t};
        # scalar parts cancel in gaps, so half-spans wa, wb give L = 2 (wa + wb).
        self.lipschitz = float(self.lam[-1] - self.lam[0] + self.mu[-1] - self.mu[0])
        # tr U(t) = sum_jk |<b_j|a_k>|^2 e^{i (mu_j - lam_k) t}
        self.mix = np.abs(self.overlap) ** 2
        self.freqs = self.mu[:, None] - self.lam[None, :]
        self.beta = float(self.mu.sum() - self.lam.sum()) / self.dim

    def product_grid(self, ts) -> np.ndarray:
        """Vb* U(t) Vb, batched over times, with one batched matmul."""
        ts = np.asarray(ts, dtype=float)
        ea = np.exp(-1j * np.multiply.outer(ts, self.lam))
        eb = np.exp(1j * np.multiply.outer(ts, self.mu))
        return (eb[:, :, None] * self.overlap * ea[:, None, :]) @ self.overlap.conj().T

    def unitary(self, t: float) -> np.ndarray:
        """U(t) = exp(i hb t) exp(-i ha t)."""
        return self.vb @ self.product_grid(np.array([float(t)]))[0] @ self.vb.conj().T

    def spectrum(self, t: float) -> PhaseSpectrum:
        """Eigenphases of U(t) and its frame Vb Z, with Vb* U(t) Vb = Z e^{i phases} Z*."""
        phases, z = linalg.unitary_eig(self.product_grid(np.array([float(t)]))[0])
        return PhaseSpectrum(float(t), phases, self.vb @ z)

    def phases_grid(self, ts) -> np.ndarray:
        phases = np.angle(np.linalg.eigvals(self.product_grid(ts)))
        phases = np.where(phases <= -np.pi, phases + 2.0 * np.pi, phases)
        phases.sort(axis=1)
        return phases

    def _checked(self, ts, values) -> np.ndarray:
        """``values``, after a ``ScanContinuityWarning`` if two adjacent
        samples of the batch differ by more than L times their spacing."""
        if values.size > 1:
            excess = np.abs(np.diff(values)) - (1.0 + 1e-6) * self.lipschitz * np.diff(ts)
            if excess.max() > 1e-9:
                warnings.warn(f"scan jump exceeds the Lipschitz bound by {excess.max():.3e}; "
                              "samples may be corrupted", ScanContinuityWarning, stacklevel=3)
        return values

    def gap_margin(self, ts) -> np.ndarray:
        """g(t) = largest empty arc - pi, batched over times."""
        phases = self.phases_grid(ts)
        g = 2.0 * np.pi - (phases[:, -1] - phases[:, 0])
        if phases.shape[1] > 1:
            g = np.maximum(np.diff(phases, axis=1).max(axis=1), g)
        return self._checked(ts, g - np.pi)

    def trace_margin(self, ts) -> np.ndarray:
        """Signed antipodality scalar for d = 2: Re[e^{-i beta t} tr U(t)].

        Equals twice the cosine of the half rotation angle of the determinant
        -normalized product, so it crosses zero exactly when the two
        eigenphases are antipodal.
        """
        ts = np.asarray(ts, dtype=float)
        arg = np.multiply.outer(ts, 1j * self.freqs.ravel())
        tr = np.exp(arg, out=arg) @ self.mix.ravel()
        return self._checked(ts, np.real(np.exp(-1j * self.beta * ts) * tr))

    @staticmethod
    def gap_margin_from_trace(c) -> np.ndarray:
        half = np.arccos(np.clip(np.asarray(c, dtype=float) / 2.0, -1.0, 1.0))
        return np.pi - 2.0 * np.minimum(half, np.pi - half)


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
    grid point (see ``_scan.first_root``); no grid is materialized, so
    memory is bounded by one block whatever ``scan_step`` is.  Defaults:
    ``t_max`` is 100x the spectral-span lower bound pi/(2 wa + 2 wb),
    ``scan_step`` is t_max/2000 capped so the fastest eigenphase beat stays
    resolved, and ``refine_tol`` is 1e-10 * t_max.  A given ``t_max``,
    ``scan_step`` or ``refine_tol`` must be finite and positive, ``alpha``
    finite.  A ``ScanContinuityWarning`` flags evaluated margin samples
    that jump by more than the Lipschitz bound.

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
    if not np.isfinite(alpha):
        raise ValueError("alpha must be finite")
    span_sum = pair_data.lipschitz
    if span_sum == 0.0:
        # Both operators scalar: the product is a global phase forever.
        return NoOrthogonality(t_max if t_max is not None else 0.0, np.pi, 0.0)
    if t_max is None:
        t_max = 100.0 * np.pi / span_sum
    if scan_step is None:
        scan_step = min(t_max / 2000.0, np.pi / (2.0 * span_sum))
    if refine_tol is None:
        refine_tol = 1e-10 * t_max
    if not np.isfinite(t_max / scan_step):
        raise ValueError(f"t_max / scan_step ({t_max!r} / {scan_step!r}) is not finite")
    n = max(int(np.ceil(t_max / scan_step)), 1)

    f_batch = pair_data.trace_margin if pair_data.dim == 2 else pair_data.gap_margin
    hit = first_root(f_batch, t_max, n, pair_data.lipschitz, refine_tol, GAP_FTOL)
    if hit.kind == "none":
        # All samples are positive, where the trace-to-gap map increases.
        g = pair_data.gap_margin_from_trace(hit.value) if pair_data.dim == 2 else hit.value
        return NoOrthogonality(t_max, float(g), hit.t)

    u = pair_data.product_grid(np.array([hit.t]))[0]  # Vb* U(t_perp) Vb, formed once
    phases, z = linalg.unitary_eig(u)
    _, pair = max_circular_gap(phases)
    phi = orthogonal_state(z, pair, alpha)  # the state in hb's eigenbasis
    residual = abs(phi.conj() @ u @ phi)
    state = pair_data.vb @ phi
    return DiscriminationResult(float(hit.t), pair, float(alpha), state, float(residual))
