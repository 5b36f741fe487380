"""Dense complex linear-algebra kernel.

Spectral operations for Hermitian and unitary matrices: eigendecompositions,
eigenphases, the principal logarithm of a unitary and its Frobenius norm,
unit-state validation, and the divided-difference (directional) derivative
of the matrix logarithm at a diagonal point.

Eigenphases follow the half-open convention (-pi, pi]; a tie at -pi is
remapped to +pi.  All functions are pure and never modify their inputs, so
they are safe to call concurrently.

One Cayley step, ``_cayley``, turns a stack of unitaries into Hermitian
matrices: K = i (1 - V)(1 + V)^{-1} = i (X - X*) with X = (1 + V)^{-1}, for
the rotated unitary V = e^{i turn} U.  K has the eigenvectors of U, and an
eigenvalue e^{i phi} of V becomes kappa = tan(phi/2) (Golub and Van Loan,
*Matrix Computations*), so a Hermitian eigensolver gives both the phases
and an orthonormal frame.  The step is well conditioned when no eigenvalue
of V is near -1: ||X||_2 = sqrt(1 + kappa_max^2) / 2.  ``unitary_eig``
takes its frame from it, with -1 at the middle of the largest empty arc
between the eigenphases, at least pi/d away from every eigenvalue, so
||X||_2 <= 1 / (2 sin(pi/2d)).  ``_batch_phases``, the gap scan's phase
route, turns -1 to the antipode of tr U instead.  A backward-stable
inverse errs by about eps ||X||_2^2, so K errs by about
eps (1 + kappa_max^2) / 2, each kappa by no more (Weyl), and each phase,
as d phi / d kappa <= 2, by about eps (1 + kappa_max^2); a row whose
max|kappa| exceeds ``CAYLEY_KAPPA_MAX`` takes ``np.linalg.eigvals``
instead.

This is the package's one home for eigensolvers and norms: every
eigenphase comes from ``unitary_phases`` (checked, one matrix or a stack),
``unitary_eig`` (with a frame) or the scan's unchecked ``_batch_phases``,
every Hermitian eigensystem from ``herm_eig`` or its unchecked route
``_eigh``, the spread of the scan's start envelope from ``_spread``, and
every matrix norm that must keep its scale from ``frobenius``.  The module
needs numpy only.
"""

from __future__ import annotations

import math
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
# Largest |kappa| of a Cayley phase row in ``_batch_phases``: its phase error
# is about eps (1 + kappa_max^2), 8.9e-12 at 200, below discriminate.GAP_FTOL.
CAYLEY_KAPPA_MAX = 200.0


class EigenSystem(NamedTuple):
    """Eigenvalues (real values, or phases for a unitary) and the unitary
    matrix whose columns are the matching orthonormal eigenvectors."""

    values: np.ndarray
    vectors: np.ndarray


def as_square_matrix(m, name: str = "matrix") -> np.ndarray:
    return _square_stack(m, name, ndim=2)


def _square_stack(m, name: str, ndim: int | None = None) -> np.ndarray:
    """``m`` as a complex array of square matrices, shape (..., d, d) with
    d >= 1 and at least one matrix, and ``ndim`` axes if given."""
    a = np.asarray(m, dtype=complex)
    if a.ndim < 2 or ndim not in (None, a.ndim) or a.shape[-1] != a.shape[-2] or a.size == 0:
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
    """Frobenius norm sqrt(sum |m_jk|^2); zero iff m is zero.  ``math.hypot``
    scales internally, so squares of tiny or huge entries neither underflow
    nor overflow; an infinite entry gives inf, even beside a NaN."""
    return math.hypot(*np.abs(np.asarray(m, dtype=complex)).ravel().tolist())


def _traceless(h) -> np.ndarray:
    """The square matrix ``h`` less its trace part (tr h / d) I."""
    h = np.asarray(h)
    return h - (np.trace(h) / h.shape[0]) * np.eye(h.shape[0])


def assert_hermitian(h, name: str = "matrix") -> np.ndarray:
    """Return ``h`` as a complex array, or raise unless ||h||_F is finite
    (so NaN or Inf entries raise) and ||h - h*||_F <= ``HERMITICITY_TOL``
    ||h||_F.  Both norms are ``frobenius``, so the test is scale-free."""
    h = as_square_matrix(h, name)
    with np.errstate(over="ignore"):  # a norm beyond the float range fails here
        size = frobenius(h)
        if not (size < np.inf and frobenius(h - h.conj().T) / HERMITICITY_TOL <= size):
            raise NonHermitianError(f"{name} fails the Hermiticity tolerance {HERMITICITY_TOL}")
    return h


def assert_unitary(u, name: str = "matrix") -> np.ndarray:
    """Return ``u`` as a complex array, or raise unless
    ||u* u - 1||_F <= ``UNITARITY_TOL`` (so NaN or Inf entries raise); a
    stack (..., d, d) is checked matrix by matrix."""
    u = _square_stack(u, name)
    with np.errstate(invalid="ignore"):  # inf entries give NaN, which fails here
        defect = np.linalg.norm(np.swapaxes(u.conj(), -1, -2) @ u - np.eye(u.shape[-1]),
                                axis=(-2, -1))
    if not np.all(defect <= UNITARITY_TOL):
        raise NonUnitaryError(
            f"{name} fails the unitarity tolerance {UNITARITY_TOL} (defect {defect.max():.3e})"
        )
    return u


def herm_eig(h) -> EigenSystem:
    """Eigendecomposition of a Hermitian matrix, eigenvalues ascending."""
    return _eigh(assert_hermitian(h))


def _eigh(h) -> EigenSystem:
    """``herm_eig`` without the Hermiticity check: for a complex square
    matrix that is Hermitian by construction or was checked already."""
    try:
        values, vectors = np.linalg.eigh(h)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"Hermitian eigensolver failed: {exc}") from exc
    return EigenSystem(values, vectors)


def _spread(h) -> float:
    """Eigenvalue spread E_max - E_min of a complex square matrix that is
    Hermitian by construction, unchecked, from its eigenvalues alone."""
    try:
        values = np.linalg.eigvalsh(h)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"Hermitian eigensolver failed: {exc}") from exc
    return float(values[-1] - values[0])


def unitary_eig(u) -> EigenSystem:
    """Eigenphases in (-pi, pi], ascending, with an orthonormal eigenbasis.

    The phases come from ``np.linalg.eigvals``, as in ``unitary_phases``,
    and locate the largest empty arc, of length a >= 2 pi/d, which starts
    at phase k.  The Cayley step ``_cayley`` turns by pi minus the arc's
    middle, so that 1 + V has singular values >= 2 sin(a/4) >=
    2 sin(pi/2d), and the frame is the eigenbasis from ``np.linalg.eigh`` of
    its K.  K has the eigenvalue tan(phi/2) for each eigenvalue e^{i phi} of
    V, an increasing map, so ``eigh``'s ascending order is the circular
    order of the phases starting after the arc, at phase k + 1; degenerate
    phases keep an orthonormal frame, which a generic eigensolver does not
    give.  Each column is turned so that its entry of largest modulus, the
    first on a tie, is real and positive: the frame then follows ``u``
    continuously instead of taking ``eigh``'s phase convention, which can
    flip between adjacent inputs.  The result must reproduce ``u`` within ``RECONSTRUCTION_TOL``
    times max(||u||_F, 1); otherwise ``ConvergenceError`` is raised.
    """
    u = assert_unitary(as_square_matrix(u))
    d = u.shape[0]
    try:
        phases = _eig_phases(u)
        (arc,), (k,) = _largest_arc(phases[None])
        _, vectors = np.linalg.eigh(_cayley(u, np.pi - phases[k] - 0.5 * arc))
    except np.linalg.LinAlgError as exc:  # pragma: no cover - rare
        raise ConvergenceError(f"unitary eigensolver failed: {exc}") from exc
    vectors = vectors[:, np.arange(-k - 1, d - k - 1)]  # column j holds phase j
    pivots = vectors[np.abs(vectors).argmax(axis=0), np.arange(d)]
    vectors = vectors * (pivots.conj() / np.abs(pivots))  # each pivot real and positive
    recon = (vectors * np.exp(1j * phases)) @ vectors.conj().T
    if np.linalg.norm(recon - u) > RECONSTRUCTION_TOL * max(np.linalg.norm(u), 1.0):
        raise ConvergenceError("eigendecomposition failed to reproduce the input unitary")
    return EigenSystem(phases, vectors)


def _cayley(u, turn) -> np.ndarray:
    """K = i (X - X*) with X = (1 + e^{i turn} U)^{-1}, for a unitary U or a
    stack of them and one turn per matrix; K is exactly Hermitian.

    numpy fails a whole stacked inverse for one singular matrix, so the
    stack is then inverted matrix by matrix, and a singular matrix gives a
    K of NaN.
    """
    a = np.exp(1j * np.asarray(turn))[..., None, None] * u + np.eye(u.shape[-1])
    try:
        x = np.linalg.inv(a)
    except np.linalg.LinAlgError:
        x = np.full_like(a, np.nan)
        for i in np.ndindex(a.shape[:-2]):
            try:
                x[i] = np.linalg.inv(a[i])
            except np.linalg.LinAlgError:
                pass
    return 1j * (x - np.swapaxes(x.conj(), -1, -2))


def unitary_phases(u) -> np.ndarray:
    """Eigenphases in (-pi, pi], ascending, of a unitary or of each matrix
    of a stack (..., d, d), from one eigenvalue computation without
    eigenvectors.

    Each matrix must pass ``assert_unitary``, and its computed spectrum must
    be consistent with it: every eigenvalue of modulus 1 and their sum equal
    to tr u, both within ``RECONSTRUCTION_TOL`` times max(||u||_F, 1);
    otherwise ``ConvergenceError`` is raised.  This is the eigenvalue
    counterpart of the reconstruction check in ``unitary_eig``.
    """
    u = assert_unitary(u)
    try:
        values = np.linalg.eigvals(u)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - rare
        raise ConvergenceError(f"eigenvalue solver failed: {exc}") from exc
    limit = RECONSTRUCTION_TOL * np.maximum(np.linalg.norm(u, axis=(-2, -1)), 1.0)
    if not (np.all(np.abs(np.abs(values) - 1.0).max(axis=-1) <= limit)
            and np.all(np.abs(values.sum(axis=-1) - np.trace(u, axis1=-2, axis2=-1)) <= limit)):
        raise ConvergenceError("eigenvalues are inconsistent with the input unitary")
    return _sorted_phases(values)


def _eig_phases(u) -> np.ndarray:
    """Ascending eigenphases in (-pi, pi] of a unitary or a stack of them,
    from ``np.linalg.eigvals`` with no check: for matrices that are unitary
    by construction."""
    return _sorted_phases(np.linalg.eigvals(u))


def _sorted_phases(values) -> np.ndarray:
    """Arguments of ``values`` in (-pi, pi], ascending along the last axis;
    a tie at -pi maps to +pi."""
    phases = np.angle(values)
    phases = np.where(phases <= -np.pi, phases + 2.0 * np.pi, phases)
    phases.sort(axis=-1)
    return phases


def _batch_phases(u) -> np.ndarray:
    """Ascending eigenphases in (-pi, pi] of a stack of unitaries, one row
    per matrix, unchecked: the gap scan's phase route.

    A stack of two or more takes them from ``np.linalg.eigvalsh`` of the
    Cayley step ``_cayley`` turned by -arg tr U, which puts -1 at the
    antipode of the trace; each eigenvalue kappa gives the phase
    2 arctan kappa - turn, so the whole spectrum is there and a gap margin
    of either sign is exact.  When the margin g is positive, the antipode
    lies in the largest empty arc, at least g from every phase, since
    tr U / d lies in the convex hull of the eigenvalues.  A row goes to ``np.linalg.eigvals`` when tr U = 0, when
    its inverse is singular or not finite, or when max|kappa| exceeds
    ``CAYLEY_KAPPA_MAX`` (see the module docstring); so does a stack of
    one, where the Cayley step costs more than it saves.
    """
    if len(u) == 1:
        return _eig_phases(u)
    trace = np.trace(u, axis1=1, axis2=2)
    turn = -np.angle(trace)
    k = _cayley(u, turn)
    singular = ~np.isfinite(k).all(axis=(1, 2))
    k[singular] = 0.0
    kappa = np.linalg.eigvalsh(k)
    phases = 2.0 * np.arctan(kappa) - turn[:, None]  # in (-2 pi, 2 pi)
    phases = np.where(phases > np.pi, phases - 2.0 * np.pi, phases)
    phases = np.where(phases <= -np.pi, phases + 2.0 * np.pi, phases)
    refer = (singular | (trace == 0.0)
             | ~(np.maximum(-kappa[:, 0], kappa[:, -1]) <= CAYLEY_KAPPA_MAX))
    if refer.any():
        phases[refer] = _eig_phases(u[refer])
    phases.sort(axis=1)
    return phases


def _largest_arc(phases) -> tuple[np.ndarray, np.ndarray]:
    """Largest empty arc of each row of ascending phases, and the index k of
    the phase it starts from; the arc from the last phase wraps round to the
    first, and ties go to the lowest k."""
    arcs = np.empty_like(phases)
    np.subtract(phases[:, 1:], phases[:, :-1], out=arcs[:, :-1])
    np.subtract(2.0 * np.pi, phases[:, -1] - phases[:, 0], out=arcs[:, -1])
    return arcs.max(axis=1), arcs.argmax(axis=1)


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
