"""Lower bounds on the orthogonality time and the constructions that
saturate them.

Three bounds, in consistent hbar = 1 units:

*  path-length bound pi / (2 (dE_a + dE_b)) from the energy uncertainties of
   the initial state (the two evolutions sweep projective-space length
   2 (dE_a + dE_b) t between mutually orthogonal endpoints, which is at
   least pi);
*  spectral-span bound pi / (2 wa + 2 wb), which only needs the eigenvalue
   extremes and is sharp (see ``saturating_pair``);
*  evolution-time bound pi / (2 e_bar) with e_bar the average energy of the
   difference generator above a zero ground level; e_bar is caller-supplied
   because the difference generator is only the zeroth commutator order of
   the true product generator.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import discriminate, linalg
from .errors import CutProximityError, DimensionMismatchError

RADICAND_FLOOR = -1e-14


def energy_uncertainty(h, psi) -> float:
    """Standard deviation sqrt(<H^2> - <H>^2) of h in the unit vector psi.

    Zero exactly when psi is an eigenvector; tiny negative radicands from
    roundoff are clamped to zero.
    """
    h = linalg.assert_hermitian(h, name="h")
    psi = linalg.as_unit_state(psi, h.shape[0])
    hpsi = h @ psi
    mean = float((psi.conj() @ hpsi).real)
    second = float((hpsi.conj() @ hpsi).real)
    rad = second - mean * mean
    if rad < 0.0:
        if rad < RADICAND_FLOOR * max(1.0, second):
            raise ValueError("variance radicand negative beyond roundoff")
        rad = 0.0
    return float(np.sqrt(rad))


def aa_lower_bound(ha, hb, psi) -> float:
    """pi / (2 (dE_a + dE_b)): no state reaches an orthogonal partner sooner
    than the projective path length allows."""
    return _aa_bound(ha, hb, energy_uncertainty(ha, psi), energy_uncertainty(hb, psi))


def _aa_bound(ha, hb, da: float, db: float) -> float:
    total = da + db
    scale = linalg.frobenius(ha) + linalg.frobenius(hb)
    if total <= 1e-12 * max(scale, 1e-300):
        raise ValueError(
            "state is an eigenvector of both operators; it cannot discriminate them"
        )
    return float(np.pi / (2.0 * total))


def spectral_half_span(h) -> float:
    """Half the eigenvalue spread (E_max - E_min) / 2."""
    values, _ = linalg.herm_eig(h)
    return float(values[-1] - values[0]) / 2.0


def span_lower_bound(ha, hb) -> float:
    """pi / (2 wa + 2 wb) from the spectral half-spans; state-independent and
    sharp (attained by the anti-aligned construction)."""
    ha = linalg.as_square_matrix(ha, "ha")
    hb = linalg.as_square_matrix(hb, "hb")
    if ha.shape != hb.shape:
        raise DimensionMismatchError(f"shape mismatch: {ha.shape} vs {hb.shape}")
    return _span_bound(spectral_half_span(ha), spectral_half_span(hb))


def _span_bound(wa: float, wb: float) -> float:
    if wa + wb <= 0.0:
        raise ValueError("both operators are scalar; no finite bound")
    return float(np.pi / (2.0 * (wa + wb)))


def margolus_bound(e_bar: float) -> float:
    """pi / (2 e_bar): minimal orthogonalization time for average energy
    e_bar above a zero ground level."""
    if e_bar <= 0.0:
        raise ValueError("average energy must be positive")
    return float(np.pi / (2.0 * e_bar))


def geodesic_length(ha, hb, psi, t: float) -> float:
    """Projective-space length 2 (dE_a + dE_b) t swept by the two evolutions
    up to time t; at least pi whenever the endpoints are orthogonal."""
    da = energy_uncertainty(ha, psi)
    db = energy_uncertainty(hb, psi)
    return float(2.0 * (da + db) * t)


def saturating_pair(omega_a: float, omega_b: float, dim: int = 2,
                    alpha: float = 0.0) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Anti-aligned pair attaining the span bound exactly.

    ha carries (+wa, -wa) and hb (-wb, +wb) on a shared two-level subspace,
    extra dimensions are filled with zero eigenvalues (preserving both spans
    and the two-level dynamics), and the state is the equal superposition of
    the two levels with relative phase alpha.  The first orthogonality time
    of the returned triple is pi / (2 wa + 2 wb).
    """
    if omega_a <= 0.0 or omega_b <= 0.0:
        raise ValueError("frequencies must be strictly positive")
    if dim < 2:
        raise DimensionMismatchError("dim must be at least 2")
    ha = np.zeros((dim, dim), dtype=complex)
    hb = np.zeros((dim, dim), dtype=complex)
    ha[0, 0], ha[1, 1] = omega_a, -omega_a
    hb[0, 0], hb[1, 1] = -omega_b, omega_b
    psi = np.zeros(dim, dtype=complex)
    psi[0] = 1.0 / np.sqrt(2.0)
    psi[1] = np.exp(1j * alpha) / np.sqrt(2.0)
    return ha, hb, psi


def equality_case_norm(ha, k: float, t: float) -> tuple[float, float]:
    """Both sides of the norm identity for the anti-aligned proportional pair
    hb = k ha with k < 0:

        || log(e^{i hb t} e^{-i ha t}) ||_F   vs   ||ha t||_F + ||hb t||_F.

    The pair commutes, so the product generator is (1 - k) ha t and the two
    sides agree exactly; this is the equality case of the subadditivity of
    principal-log norms.  Requires the spectrum of (1 - k) t ha to stay
    inside (-pi, pi), else the principal log would cross its cut.
    """
    if k >= 0.0:
        raise ValueError("k must be negative")
    ha = linalg.assert_hermitian(ha, name="ha")
    values, _ = linalg.herm_eig(ha)
    reach = (1.0 - k) * abs(t) * float(np.max(np.abs(values)))
    if reach >= np.pi - linalg.CUT_GUARD:
        raise CutProximityError(
            f"(1 - k) t ha reaches phase {reach:.6f}; reduce t to stay off the cut"
        )
    hb = k * ha
    lhs = linalg.principal_log_norm(discriminate.product_unitary(ha, hb, t))
    rhs = abs(t) * linalg.frobenius(ha) + abs(t) * linalg.frobenius(hb)
    return lhs, rhs


@dataclass(frozen=True)
class BoundsReport:
    """All lower bounds for one problem instance.

    State-dependent entries are None when no state was supplied; the
    difference-generator bound is None unless the caller provided its average
    energy.  Invariantly t_lb_span <= t_lb_aa, since twice an energy
    uncertainty never exceeds the spectral spread.
    """

    delta_E_a: float | None
    delta_E_b: float | None
    span_a: float
    span_b: float
    t_lb_aa: float | None
    t_lb_span: float
    t_margolus: float | None

    def geodesic_length_at(self, t: float) -> float:
        if self.delta_E_a is None or self.delta_E_b is None:
            raise ValueError("no state-dependent data in this report")
        return 2.0 * (self.delta_E_a + self.delta_E_b) * t


def bounds_report(ha, hb, psi=None, e_bar: float | None = None) -> BoundsReport:
    """Assemble a BoundsReport; psi enables the uncertainty-based entries and
    e_bar the difference-generator bound."""
    span_a = spectral_half_span(ha)
    span_b = spectral_half_span(hb)
    if np.shape(ha) != np.shape(hb):  # herm_eig checked both are square
        raise DimensionMismatchError(f"shape mismatch: {np.shape(ha)} vs {np.shape(hb)}")
    t_span = _span_bound(span_a, span_b)
    delta_a = delta_b = t_aa = None
    if psi is not None:
        delta_a = energy_uncertainty(ha, psi)
        delta_b = energy_uncertainty(hb, psi)
        t_aa = _aa_bound(ha, hb, delta_a, delta_b)
    t_marg = margolus_bound(e_bar) if e_bar is not None else None
    return BoundsReport(delta_a, delta_b, span_a, span_b, t_aa, t_span, t_marg)
