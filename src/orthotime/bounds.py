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

The first two are computed in one place, ``_report``, the core of
``bounds_report``; ``aa_lower_bound`` and ``span_lower_bound`` return its
fields.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import DimensionMismatchError

# dE_a + dE_b, relative to the half-spans wa + wb.  Any state has dE <= w,
# so the ratio lies in [0, 1], and a scalar shift of either operator moves
# neither side.
COMMON_EIGENVECTOR_TOL = 1e-12


def energy_uncertainty(h, psi) -> float:
    """Standard deviation ||(h - <h>) psi|| of h in the unit vector psi.

    Zero exactly when psi is an eigenvector.  The residual norm has no
    radicand <H^2> - <H>^2 to cancel, and ``linalg.frobenius`` neither
    under- nor overflows, so the result keeps the scale of h.
    """
    h = linalg.assert_hermitian(h, name="h")
    return _uncertainty(h, linalg.as_unit_state(psi, h.shape[0]))


def _uncertainty(h: np.ndarray, psi: np.ndarray) -> float:
    """``energy_uncertainty`` of a Hermitian ``h`` in a unit vector ``psi``
    of its dimension, unchecked."""
    hpsi = h @ psi
    mean = (psi.conj() @ hpsi).real
    return linalg.frobenius(hpsi - mean * psi)


def aa_lower_bound(ha, hb, psi) -> float:
    """pi / (2 (dE_a + dE_b)): no state reaches an orthogonal partner sooner
    than the projective path length allows.  The ``t_lb_aa`` of
    ``bounds_report``, with its checks and errors."""
    return bounds_report(ha, hb, psi).t_lb_aa


def _aa_bound(da: float, db: float, wa: float, wb: float) -> float:
    """pi / (2 (da + db)) for a state with uncertainties da and db; raises
    when da + db <= ``COMMON_EIGENVECTOR_TOL`` (wa + wb), with wa and wb the
    half-spans: the state is then an eigenvector of both operators."""
    total = da + db
    if total <= COMMON_EIGENVECTOR_TOL * (wa + wb):
        raise ValueError(
            "state is an eigenvector of both operators; it cannot discriminate them"
        )
    return float(np.pi / (2.0 * total))


def spectral_half_span(h) -> float:
    """Half the eigenvalue spread (E_max - E_min) / 2."""
    return _half_span(linalg.assert_hermitian(h))


def _half_span(h: np.ndarray) -> float:
    """``spectral_half_span`` of a Hermitian ``h``, unchecked."""
    values, _ = linalg._eigh(h)
    return float(values[-1] - values[0]) / 2.0


def span_lower_bound(ha, hb) -> float:
    """pi / (2 wa + 2 wb) from the spectral half-spans; state-independent and
    sharp (attained by the anti-aligned construction).  The ``t_lb_span`` of
    ``bounds_report``, with its checks and errors."""
    return bounds_report(ha, hb).t_lb_span


def _span_bound(wa: float, wb: float) -> float:
    if wa + wb == 0.0:  # half-spans are nonnegative
        raise ValueError("both operators are scalar; no finite bound")
    return float(np.pi / (2.0 * (wa + wb)))


def margolus_bound(e_bar: float) -> float:
    """pi / (2 e_bar): minimal orthogonalization time for average energy
    e_bar above a zero ground level; e_bar is checked finite and positive."""
    return float(np.pi / (2.0 * linalg._finite_positive(e_bar, "average energy")))


def saturating_pair(omega_a: float, omega_b: float, dim: int = 2,
                    alpha: float = 0.0) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Anti-aligned pair attaining the span bound exactly.

    ha carries (+wa, -wa) and hb (-wb, +wb) on a shared two-level subspace,
    extra dimensions are filled with zero eigenvalues (preserving both spans
    and the two-level dynamics), and the state is the equal superposition of
    the two levels with relative phase alpha.  The first orthogonality time
    of the returned triple is pi / (2 wa + 2 wb).
    """
    omega_a = linalg._finite_positive(omega_a, "omega_a")
    omega_b = linalg._finite_positive(omega_b, "omega_b")
    alpha = linalg._finite(alpha, "alpha")
    dim = linalg._count(dim, "dim")
    if dim == 1:
        raise DimensionMismatchError("dim must be at least 2")
    ha = np.zeros((dim, dim), dtype=complex)
    hb = np.zeros((dim, dim), dtype=complex)
    ha[0, 0], ha[1, 1] = omega_a, -omega_a
    hb[0, 0], hb[1, 1] = -omega_b, omega_b
    psi = np.zeros(dim, dtype=complex)
    psi[0] = 1.0 / np.sqrt(2.0)
    psi[1] = np.exp(1j * alpha) / np.sqrt(2.0)
    return ha, hb, psi


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
        """Projective-space length 2 (dE_a + dE_b) t swept by the two
        evolutions up to a finite time t; at least pi whenever the endpoints
        are orthogonal."""
        if self.delta_E_a is None or self.delta_E_b is None:
            raise ValueError("no state-dependent data in this report")
        return 2.0 * (self.delta_E_a + self.delta_E_b) * linalg._finite(t, "t")


def bounds_report(ha, hb, psi=None, e_bar: float | None = None) -> BoundsReport:
    """Assemble a BoundsReport; psi enables the uncertainty-based entries and
    e_bar the difference-generator bound.

    Each input is checked once, in this order: the pair's shapes, the
    Hermiticity of ha and of hb, then, once the span bound has named a
    scalar pair, the state, and last e_bar.  The entries are the values of
    ``spectral_half_span``, ``energy_uncertainty`` and ``margolus_bound``,
    bit for bit; ``aa_lower_bound`` and ``span_lower_bound`` return its
    ``t_lb_aa`` and ``t_lb_span``.
    """
    ha, hb = linalg._square_pair(ha, hb, ("ha", "hb"))
    ha, hb = linalg.assert_hermitian(ha), linalg.assert_hermitian(hb)
    return _report(ha, hb, psi, e_bar, check_state=True)


def _report(ha: np.ndarray, hb: np.ndarray, psi, e_bar: float | None,
            check_state: bool = False) -> BoundsReport:
    """``bounds_report`` on Hermitian ``ha`` and ``hb`` of one shape, which
    it does not check.  ``psi`` is checked only with ``check_state``;
    otherwise it must be a unit vector of their dimension, such as a state
    the caller built."""
    span_a, span_b = _half_span(ha), _half_span(hb)
    t_span = _span_bound(span_a, span_b)
    delta_a = delta_b = t_aa = None
    if psi is not None:
        if check_state:
            psi = linalg.as_unit_state(psi, ha.shape[0])
        delta_a, delta_b = _uncertainty(ha, psi), _uncertainty(hb, psi)
        t_aa = _aa_bound(delta_a, delta_b, span_a, span_b)
    t_marg = margolus_bound(e_bar) if e_bar is not None else None
    return BoundsReport(delta_a, delta_b, span_a, span_b, t_aa, t_span, t_marg)
