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
and g >= 0 touches zero without crossing, so the engine instead tracks twice
the paper's spin-1/2 criterion (``_EvolutionPair.trace_margin``), which
vanishes transversally exactly at the antipodal instants.

The scan's batches take their eigenphases from ``linalg._batch_phases``,
the Cayley route with -1 turned to the antipode of tr U; ``linalg`` states
its error bound and its fallback to ``np.linalg.eigvals``.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass

import numpy as np

from . import linalg, qubit
from ._scan import SCAN_POINTS, first_root
from .errors import ConvergenceError

GAP_FTOL = 1e-11
HORIZON_SPANS = 100  # default t_max, in span lower bounds pi/L, capped at the largest float
REFINE_REL_TOL = 1e-10  # crossing-time tolerance, relative to t_max
LIPSCHITZ_SLACK = 1e-6  # relative slack on L in the continuity check of a margin batch
LIPSCHITZ_ATOL = 1e-9  # and its absolute allowance for roundoff


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
    discriminability at time t; t and t (max|lam| + max|mu|) must stay finite."""
    return _EvolutionPair(ha, hb).unitary(t)


def phase_spectrum(ha, hb, t: float) -> PhaseSpectrum:
    """Sorted eigenphases and eigenframe of the product unitary at time t."""
    return _EvolutionPair(ha, hb).spectrum(t)


def max_circular_gap(phases) -> tuple[float, tuple[int, int]]:
    """Largest empty arc between circularly adjacent phase points.

    ``phases`` must be ascending in (-pi, pi], NaN rejected.  Returns (gap,
    (i, j)) where i, j index the two phases bounding the arc.  A single
    point, or a fully coincident set, has gap 2*pi.  Zero lies in the convex
    hull of the points e^{i phase} exactly when the gap is <= pi.
    """
    ph = np.asarray(phases, dtype=float).reshape(1, -1)
    d = ph.size
    if d == 0:
        raise ValueError("need at least one phase")
    if not np.all((ph > -np.pi) & (ph <= np.pi)):  # NaN fails too
        raise ValueError("phases must lie in (-pi, pi]")
    if np.any(np.diff(ph) < 0):
        raise ValueError("phases must be sorted ascending")
    (gap,), (k,) = linalg._largest_arc(ph)
    return float(gap), (int(k), int(k + 1) % d)


def orthogonal_state(frame, pair: tuple[int, int], alpha: float = 0.0) -> np.ndarray:
    """Equal-weight two-component state W v / sqrt(2), with v carrying 1 at
    pair[0] and e^{i alpha} at pair[1] in the eigenframe, for finite alpha.

    Its bracket with the diagonalized unitary is (e^{i th_i} + e^{i th_j})/2,
    independent of alpha in magnitude.
    """
    frame = linalg.as_square_matrix(frame, "frame")
    alpha = linalg._finite(alpha, "alpha")
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
        ha, hb = linalg._square_pair(ha, hb, ("ha", "hb"))
        self.dim = ha.shape[0]
        self.lam, va = linalg.herm_eig(ha)
        self.mu, self.vb = linalg.herm_eig(hb)
        self.overlap = self.vb.conj().T @ va
        # Phase motion of U(t) is generated by hb - e^{i hb t} ha e^{-i hb t};
        # scalar parts cancel in gaps, so half-spans wa, wb give L = 2 (wa + wb).
        self.lipschitz = float(self.lam[-1] - self.lam[0] + self.mu[-1] - self.mu[0])
        if self.dim == 2:  # aligned, crossed weights |<b_j|a_k>|^2; beats wb - wa, wa + wb
            w = np.abs(self.overlap) ** 2
            self.weights = (w[0, 0] + w[1, 1], w[0, 1] + w[1, 0])
            wa, wb = 0.5 * (self.lam[1] - self.lam[0]), 0.5 * (self.mu[1] - self.mu[0])
            self.beats = (wb - wa, wa + wb)

    def product_grid(self, ts) -> np.ndarray:
        """Vb* U(t) Vb, batched over times, with one batched matmul."""
        ts = np.asarray(ts, dtype=float)
        ea = np.exp(-1j * np.multiply.outer(ts, self.lam))
        eb = np.exp(1j * np.multiply.outer(ts, self.mu))
        return (eb[:, :, None] * self.overlap * ea[:, None, :]) @ self.overlap.conj().T

    def checked_time(self, t, name: str) -> float:
        """``t`` as a finite float whose phase bound t (max|lam| + max|mu|) is finite."""
        scale = float(np.abs(self.lam).max() + np.abs(self.mu).max())
        return linalg._finite_phase(linalg._finite(t, name), scale,
                                    f"{name} * (max|lam| + max|mu|)")

    def unitary(self, t: float) -> np.ndarray:
        """U(t) = exp(i hb t) exp(-i ha t)."""
        return self.vb @ self.product_grid([self.checked_time(t, "t")])[0] @ self.vb.conj().T

    def spectrum(self, t: float) -> PhaseSpectrum:
        """Eigenphases of U(t) and its frame Vb Z, with Vb* U(t) Vb = Z e^{i phases} Z*."""
        phases, z = linalg.unitary_eig(self.product_grid([self.checked_time(t, "t")])[0])
        return PhaseSpectrum(float(t), phases, self.vb @ z)

    def phases_grid(self, ts) -> np.ndarray:
        """Ascending eigenphases of U(t) in (-pi, pi], one row per time, from
        the scan's phase route ``linalg._batch_phases``."""
        return linalg._batch_phases(self.product_grid(ts))

    def _checked(self, ts, values) -> np.ndarray:
        """``values``, unless two adjacent samples of the batch (a grid block or
        a touch-hunt subsample) differ by more than L times their spacing:
        then ``ConvergenceError`` names the largest such jump ratio."""
        if values.size > 1:
            excess = np.abs(np.diff(values)) - (1 + LIPSCHITZ_SLACK) * self.lipschitz * np.diff(ts)
            if excess.max() > LIPSCHITZ_ATOL:
                broken = excess > LIPSCHITZ_ATOL
                with np.errstate(divide="ignore"):  # a zero spacing gives an infinite ratio
                    ratio = np.max(np.abs(np.diff(values)[broken])
                                   / (self.lipschitz * np.diff(ts)[broken]))
                raise ConvergenceError(f"scan jump ratio {ratio:.3e} exceeds the Lipschitz "
                                       "bound; the margin samples are corrupted")
        return values

    def gap_margin(self, ts) -> np.ndarray:
        """g(t) = largest empty arc - pi, batched over times."""
        return self._checked(ts, linalg._largest_arc(self.phases_grid(ts))[0] - np.pi)

    def trace_margin(self, ts) -> np.ndarray:
        """Signed antipodality scalar for d = 2: twice the spin-1/2 criterion in
        the pair's weights and beats, Re tr of the determinant-normalized U(t),
        which crosses zero exactly when the two eigenphases are antipodal."""
        ts = np.asarray(ts, dtype=float)
        return self._checked(ts, qubit._two_beats(self.weights, self.beats, ts))

    @staticmethod
    def gap_margin_from_trace(c) -> np.ndarray:
        half = np.arccos(np.clip(np.asarray(c, dtype=float) / 2.0, -1.0, 1.0))
        return np.pi - 2.0 * np.minimum(half, np.pi - half)


def find_t_perp(ha, hb, t_max: float | None = None, *, alpha: float = 0.0):
    """First orthogonality time for the pair (ha, hb) and the optimal state.

    Scans the gap margin g(t) on a uniform grid over [0, t_max] and refines
    the first instant it reaches zero, a sign change or a sub-grid touch (see
    ``_scan.first_root``).  The grid is evaluated lazily in growing blocks and
    the scan stops at the first root, so memory is bounded by one block.  The
    step is t_max / ``SCAN_POINTS``, at most pi/(2L) for the margin's Lipschitz
    constant L = 2 (wa + wb); t_max defaults to ``HORIZON_SPANS`` span lower
    bounds pi/L, capped at the largest float (``sys.float_info.max``) for an
    L below about 1.75e-306, where it overflows, and a crossing is refined
    to ``REFINE_REL_TOL`` * t_max.
    The scan's start bound is the margin's exact value at t = 0: pi, or 2
    for the d = 2 margin.  A given t_max is checked positive and, like
    alpha, t_max (max|lam| + max|mu|) and the grid count, finite.  Margin
    samples that break the Lipschitz bound raise ``ConvergenceError`` with
    their jump ratio.

    Returns a ``DiscriminationResult`` on success.  Returns a
    ``NoOrthogonality`` report when g never reaches zero on the horizon; the
    report carries the sampled infimum of g over the whole grid for diagnosis
    (no finite upper bound on the orthogonality time exists in general, so
    the horizon is explicit).
    """
    pair_data = _EvolutionPair(ha, hb)
    t_max = None if t_max is None else linalg._finite_positive(t_max, "t_max")
    alpha = linalg._finite(alpha, "alpha")
    if pair_data.lipschitz == 0.0:  # both operators scalar: the product is a global phase forever
        return NoOrthogonality(t_max if t_max is not None else 0.0, np.pi, 0.0)
    if t_max is None:
        t_max = min(HORIZON_SPANS * np.pi / pair_data.lipschitz, sys.float_info.max)
    pair_data.checked_time(t_max, "t_max")
    step = min(t_max / SCAN_POINTS, np.pi / (2.0 * pair_data.lipschitz))
    n = np.ceil(t_max / step) if step > 0.0 else np.inf  # t_max / SCAN_POINTS may underflow
    if not np.isfinite(n):
        raise ValueError(f"t_max ({t_max!r}) gives no finite scan grid count")

    # Each margin's value at t = 0, where U = I: the weights sum to 2, the empty arc is 2 pi.
    f_batch, f0 = ((pair_data.trace_margin, 2.0) if pair_data.dim == 2
                   else (pair_data.gap_margin, np.pi))
    hit = first_root(f_batch, t_max, int(n), pair_data.lipschitz, REFINE_REL_TOL * t_max, GAP_FTOL,
                     f0=f0)
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
