"""Dense complex linear-algebra kernel.

Spectral operations for Hermitian and unitary matrices: eigendecompositions,
eigenphases, the unitary exponential of a Hermitian generator, the principal
logarithm of a unitary and its Frobenius norm, unit-state validation, and the
divided-difference (directional) derivative of the matrix logarithm at a
diagonal point.

Eigenphases follow the half-open convention (-pi, pi]; a tie at -pi is
remapped to +pi.  All functions are pure and never modify their inputs, so
they are safe to call concurrently.

The eigenframe of a unitary comes from a Hermitian eigensolver, through the
Cayley transform K = i (1 - V)(1 + V)^{-1} of the rotated unitary
V = e^{i s} U: K is Hermitian with the eigenvectors of U, and an eigenvalue
e^{i phi} of V becomes tan(phi/2) (Golub and Van Loan, *Matrix
Computations*).  The rotation s puts -1 at the middle of the largest empty
arc between the eigenphases, so every eigenvalue of V is at least half that
arc, and so at least pi/d, away from -1, which bounds the conditioning:
||(1 + V)^{-1}||_2 <= 1 / (2 sin(pi/2d)).  The module needs numpy only.
"""

from __future__ import annotations

import cmath
from typing import NamedTuple

import numpy as np

from .errors import (
    ConvergenceError,
    CutProximityError,
    DimensionMismatchError,
    NonHermitianError,
    NonUnitaryError,
)

HERMITICITY_TOL = 1e-12
UNITARITY_TOL = 1e-10
RECONSTRUCTION_TOL = 1e-10
STATE_NORM_TOL = 1e-10
CUT_GUARD = 1e-9
COINCIDENT_TOL = 1e-12


class EigenSystem(NamedTuple):
    """Eigenvalues (real values, or phases for a unitary) and the unitary
    matrix whose columns are the matching orthonormal eigenvectors."""

    values: np.ndarray
    vectors: np.ndarray


def as_square_matrix(m, name: str = "matrix") -> np.ndarray:
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] < 1:
        raise DimensionMismatchError(
            f"{name} must be a square matrix, got shape {a.shape}"
        )
    return a


def _square_pair(a, b, names: tuple[str, str]) -> tuple[np.ndarray, np.ndarray]:
    """``a`` and ``b`` as square complex arrays of one shape; raises
    ``DimensionMismatchError`` naming the operand otherwise."""
    a = as_square_matrix(a, names[0])
    b = as_square_matrix(b, names[1])
    if a.shape != b.shape:
        raise DimensionMismatchError(f"shape mismatch: {a.shape} vs {b.shape}")
    return a, b


def _finite(value, name: str) -> float:
    """``value`` as a float; raises ValueError naming the argument unless it
    is finite, an integer beyond the float range included."""
    try:
        value = float(value)
    except OverflowError:
        value = np.inf
    if not np.isfinite(value):
        raise ValueError(f"{name} must be finite")
    return value


def _finite_phase(t: float, scale: float, what: str) -> float:
    """``t``, after a ValueError unless its phase bound t * ``scale`` is
    finite; ``what`` spells the product.  A phase that overflows would make
    e^{-i x t} NaN."""
    if not np.isfinite(t * scale):
        raise ValueError(f"{what} ({t!r} * {scale!r}) is not finite")
    return t


def _finite_positive(value, name: str) -> float:
    """``value`` as a float; raises ValueError naming the argument unless it
    is finite and positive."""
    value = _finite(value, name)
    if value <= 0.0:
        raise ValueError(f"{name} must be positive")
    return value


def _finite_nonnegative(value, name: str) -> float:
    """``value`` as a float; raises ValueError naming the argument unless it
    is finite and nonnegative."""
    value = _finite(value, name)
    if value < 0.0:
        raise ValueError(f"{name} must be nonnegative")
    return value


def _count(value, name: str) -> int:
    """``value`` as an int; a ValueError names it unless it is an int >= 1, not a bool."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < 1:
        raise ValueError(f"{name} must be an integer of at least 1")
    return int(value)


def as_unit_state(psi, dim: int) -> np.ndarray:
    """Return ``psi`` as a complex vector, or raise unless it has shape
    (dim,) and unit norm within ``STATE_NORM_TOL``."""
    psi = np.asarray(psi, dtype=complex)
    if psi.shape != (dim,):
        raise DimensionMismatchError(f"state shape {psi.shape} does not match dimension {dim}")
    if not abs(np.linalg.norm(psi) - 1.0) <= STATE_NORM_TOL:
        raise ValueError("state vector must have unit norm")
    return psi


def frobenius(m) -> float:
    """Frobenius norm sqrt(sum |m_jk|^2); zero iff m is zero."""
    return float(np.linalg.norm(np.asarray(m, dtype=complex)))


def assert_hermitian(h, name: str = "matrix") -> np.ndarray:
    """Return ``h`` as a complex array, or raise unless
    ||h - h*||_F <= ``HERMITICITY_TOL`` ||h||_F (so NaN or Inf entries raise)."""
    h = as_square_matrix(h, name)
    with np.errstate(invalid="ignore"):  # inf entries give NaN, which fails here
        if not np.linalg.norm(h - h.conj().T) <= HERMITICITY_TOL * np.linalg.norm(h):
            raise NonHermitianError(f"{name} fails the Hermiticity tolerance {HERMITICITY_TOL}")
    return h


def assert_unitary(u, name: str = "matrix") -> np.ndarray:
    """Return ``u`` as a complex array, or raise unless
    ||u* u - 1||_F <= ``UNITARITY_TOL`` (so NaN or Inf entries raise)."""
    u = as_square_matrix(u, name)
    with np.errstate(invalid="ignore"):  # inf entries give NaN, which fails here
        defect = np.linalg.norm(u.conj().T @ u - np.eye(u.shape[0]))
    if not defect <= UNITARITY_TOL:
        raise NonUnitaryError(
            f"{name} fails the unitarity tolerance {UNITARITY_TOL} (defect {defect:.3e})"
        )
    return u


def herm_eig(h) -> EigenSystem:
    """Eigendecomposition of a Hermitian matrix, eigenvalues ascending."""
    h = assert_hermitian(h)
    try:
        values, vectors = np.linalg.eigh(h)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"Hermitian eigensolver failed: {exc}") from exc
    return EigenSystem(values, vectors)


def unitary_eig(u) -> EigenSystem:
    """Eigenphases in (-pi, pi], ascending, with an orthonormal eigenbasis.

    The phases come from ``np.linalg.eigvals``, as in ``unitary_phases``,
    and locate the largest empty arc, of length a >= 2 pi/d, which starts
    at phase k.  U is rotated to V = e^{i s} U, with s = pi minus the arc's
    middle, so that 1 + V has singular values >= 2 sin(a/4) >= 2 sin(pi/2d).
    The frame is the eigenbasis from ``np.linalg.eigh`` of the Hermitian
    part of the Cayley transform K = i (1 - V)(1 + V)^{-1}, which is
    i (X - X*) for X = (1 + V)^{-1}.  K has the eigenvalue tan(phi/2) for
    each eigenvalue e^{i phi} of V, an increasing map, so ``eigh``'s
    ascending order is the circular order of the phases starting after the
    arc, at phase k + 1; degenerate phases keep an orthonormal frame, which
    a generic eigensolver does not give.  The result must reproduce ``u``
    within ``RECONSTRUCTION_TOL`` times max(||u||_F, 1); otherwise
    ``ConvergenceError`` is raised.
    """
    u = assert_unitary(u)
    d = u.shape[0]
    try:
        phases = np.sort(_principal_phases(np.linalg.eigvals(u)))
        (arc,), (k,) = _largest_arc(phases[None])
        x = np.linalg.inv(cmath.exp(1j * float(np.pi - phases[k] - 0.5 * arc)) * u + np.eye(d))
        _, vectors = np.linalg.eigh(1j * (x - x.conj().T))
    except np.linalg.LinAlgError as exc:  # pragma: no cover - rare
        raise ConvergenceError(f"unitary eigensolver failed: {exc}") from exc
    vectors = vectors[:, np.arange(-k - 1, d - k - 1)]  # column j holds phase j
    recon = (vectors * np.exp(1j * phases)) @ vectors.conj().T
    if np.linalg.norm(recon - u) > RECONSTRUCTION_TOL * max(np.linalg.norm(u), 1.0):
        raise ConvergenceError("eigendecomposition failed to reproduce the input unitary")
    return EigenSystem(phases, vectors)


def unitary_phases(u) -> np.ndarray:
    """Eigenphases of a unitary in (-pi, pi], ascending, from one eigenvalue
    computation without eigenvectors.

    The computed spectrum must be consistent with ``u``: every eigenvalue of
    modulus 1 and their sum equal to tr u, both within ``RECONSTRUCTION_TOL``
    times max(||u||_F, 1); otherwise ``ConvergenceError`` is raised.  This is
    the eigenvalue counterpart of the reconstruction check in
    ``unitary_eig``.
    """
    u = assert_unitary(u)
    try:
        values = np.linalg.eigvals(u)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - rare
        raise ConvergenceError(f"eigenvalue solver failed: {exc}") from exc
    limit = RECONSTRUCTION_TOL * max(np.linalg.norm(u), 1.0)
    if not (np.max(np.abs(np.abs(values) - 1.0)) <= limit
            and abs(values.sum() - np.trace(u)) <= limit):
        raise ConvergenceError("eigenvalues are inconsistent with the input unitary")
    return np.sort(_principal_phases(values))


def _principal_phases(values) -> np.ndarray:
    """Arguments of ``values`` in (-pi, pi]; a tie at -pi maps to +pi."""
    phases = np.angle(values)
    return np.where(phases <= -np.pi, phases + 2.0 * np.pi, phases)


def _largest_arc(phases) -> tuple[np.ndarray, np.ndarray]:
    """Largest empty arc of each row of ascending phases, and the index k of
    the phase it starts from; the arc from the last phase wraps round to the
    first, and ties go to the lowest k."""
    arcs = np.empty_like(phases)
    np.subtract(phases[:, 1:], phases[:, :-1], out=arcs[:, :-1])
    np.subtract(2.0 * np.pi, phases[:, -1] - phases[:, 0], out=arcs[:, -1])
    return arcs.max(axis=1), arcs.argmax(axis=1)


def expm_i(h, t: float) -> np.ndarray:
    """Evolution factor exp(-i h t) for Hermitian h, computed spectrally.

    The spectral route is exact up to eigensolver error and unitary by
    construction, which is why it is preferred over a series or Pade form.
    ``t`` and t max|h| are checked finite.
    """
    t = _finite(t, "t")
    values, vectors = herm_eig(h)
    _finite_phase(t, float(np.abs(values).max()), "t * max|h|")
    return (vectors * np.exp(-1j * values * t)) @ vectors.conj().T


def principal_log_u(u) -> np.ndarray:
    """Hermitian k with exp(i k) = u and the spectrum of k inside (-pi, pi].

    Raises ``CutProximityError`` when an eigenphase falls within ``CUT_GUARD``
    of the branch point -1, where the principal logarithm is discontinuous.
    A phase equal to +pi exactly sits on the included end of the half-open
    interval and is allowed.
    """
    phases, vectors = unitary_eig(u)
    _check_cut(phases)
    k = (vectors * phases) @ vectors.conj().T
    return 0.5 * (k + k.conj().T)


def principal_log_norm(u) -> float:
    """||log u||_F for the principal logarithm, which is the 2-norm of the
    eigenphases of u; raises as ``principal_log_u`` does near the cut."""
    phases = unitary_phases(u)
    _check_cut(phases)
    return float(np.linalg.norm(phases))


def _check_cut(phases: np.ndarray) -> None:
    """Raise ``CutProximityError`` for a phase within ``CUT_GUARD`` of -1,
    other than +pi exactly (see ``principal_log_u``)."""
    distance = np.pi - np.abs(phases)
    near_cut = (distance < CUT_GUARD) & (phases != np.pi)
    if np.any(near_cut):
        worst = float(distance[near_cut].min())
        raise CutProximityError(
            f"eigenphase within {worst:.3e} of the branch point -1 (guard {CUT_GUARD})"
        )


def log_frechet_diag(g, h) -> np.ndarray:
    """Directional derivative of the matrix logarithm at a diagonal point.

    For diagonal ``g`` the derivative of log(g + s h) at s = 0 is the
    entrywise product of ``h`` with the divided-difference table

        (log g_jj - log g_kk) / (g_jj - g_kk)   for j != k,
        1 / g_jj                                on the diagonal,

    where entries closer than ``COINCIDENT_TOL`` use the diagonal limit.
    """
    g, h = _square_pair(g, h, ("g", "h"))
    if np.any(g - np.diag(np.diagonal(g)) != 0):
        raise ValueError("g must be diagonal")
    d = np.diagonal(g)
    if np.any(np.abs(d) < CUT_GUARD) or np.any(np.pi - np.abs(np.angle(d)) < CUT_GUARD):
        raise CutProximityError("a diagonal entry lies on or near the logarithm cut")
    diff = d[:, None] - d[None, :]
    logs = np.log(d)
    with np.errstate(divide="ignore", invalid="ignore"):
        table = (logs[:, None] - logs[None, :]) / diff
    limit = np.broadcast_to((1.0 / d)[:, None], table.shape)
    table = np.where(np.abs(diff) < COINCIDENT_TOL, limit, table)
    return table * h
