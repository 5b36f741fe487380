"""Closed-form two-level solution.

A precessing spin-1/2 field is (omega, axis, r0) with H = r0 + omega axis.sigma;
the offset r0 only contributes a global phase and drops out of discrimination.
Composing the two evolution rotations on the Bloch sphere reduces the bracket
to the scalar criterion

    cos^2(gamma/2) cos((wa - wb) t) + sin^2(gamma/2) cos((wa + wb) t),

whose first root is the orthogonality time; gamma is the angle between the
two field axes.  Equal frequencies with gamma below pi/2 admit no root at any
finite time, which ``qubit_t_perp`` reports as None.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import linalg
from ._scan import SCAN_POINTS, first_root

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)

AXIS_TOL = 1e-12
BRANCH_TOL = 1e-12
# Root finding: the refinement tolerance relative to the horizon, and the
# criterion value at which a refined crossing is accepted.
REFINE_REL_TOL = 1e-12
REFINE_FTOL = 1e-13


def _unit_axis(axis) -> np.ndarray:
    a = np.asarray(axis, dtype=float)
    if a.shape != (3,):
        raise ValueError(f"axis must be a real 3-vector, got shape {a.shape}")
    if not abs(np.linalg.norm(a) - 1.0) <= AXIS_TOL:
        raise ValueError("axis must have unit length")
    return a


def _dot_sigma(axis: np.ndarray) -> np.ndarray:
    return axis[0] * SIGMA_X + axis[1] * SIGMA_Y + axis[2] * SIGMA_Z


@dataclass(frozen=True)
class QubitField:
    """Finite precession frequency omega >= 0, unit axis, finite scalar offset r0."""

    omega: float
    axis: np.ndarray
    r0: float = 0.0

    def __post_init__(self):
        linalg._finite_nonnegative(self.omega, "omega")
        linalg._finite(self.r0, "r0")
        object.__setattr__(self, "axis", _unit_axis(self.axis))


class AxisAngle(NamedTuple):
    """Rotation angle and unit axis; the axis is zero when sin(theta/2) = 0."""

    theta: float
    axis: np.ndarray


def qubit_hamiltonian(field: QubitField) -> np.ndarray:
    """2x2 matrix r0 + omega axis.sigma with eigenvalues r0 -+ omega."""
    return field.r0 * np.eye(2, dtype=complex) + field.omega * _dot_sigma(field.axis)


def rotation(axis, theta: float) -> np.ndarray:
    """Spin rotation by theta about a unit axis:
    cos(theta/2) - i sin(theta/2) axis.sigma."""
    n = _unit_axis(axis)
    half = 0.5 * theta
    return np.cos(half) * np.eye(2, dtype=complex) - 1j * np.sin(half) * _dot_sigma(n)


def compose_rotations(theta_a: float, axis_a, theta_b: float, axis_b) -> AxisAngle:
    """Angle and axis of the composed rotation
    rotation(axis_b, theta_b) @ rotation(axis_a, -theta_a).

    The scalar part is cos(ta/2)cos(tb/2) + sin(ta/2)sin(tb/2) (ra.rb); the
    vector part carries the two weighted axes plus the cross-product term
    fixed by expanding the 2x2 product with the Pauli algebra.
    """
    ra = _unit_axis(axis_a)
    rb = _unit_axis(axis_b)
    ca, sa = np.cos(0.5 * theta_a), np.sin(0.5 * theta_a)
    cb, sb = np.cos(0.5 * theta_b), np.sin(0.5 * theta_b)
    cos_half = ca * cb + sa * sb * float(ra @ rb)
    vec = -sa * cb * ra + ca * sb * rb - sa * sb * np.cross(rb, ra)
    sin_half = float(np.linalg.norm(vec))
    theta = 2.0 * np.arctan2(sin_half, cos_half)
    axis = vec / sin_half if sin_half > 0.0 else np.zeros(3)
    return AxisAngle(float(theta), axis)


def criterion(gamma: float, omega_a: float, omega_b: float, t):
    """Scalar orthogonality criterion; equals 1 at t = 0 and the bracket of
    the optimal equatorial state vanishes exactly at its roots.

    Accepts a scalar or array ``t``.
    """
    weights = (np.cos(0.5 * gamma) ** 2, np.sin(0.5 * gamma) ** 2)
    return _two_beats(weights, (omega_a - omega_b, omega_a + omega_b), np.asarray(t, dtype=float))


def _two_beats(weights, beats, t):
    """a cos(delta t) + b cos(S t) for weights (a, b) and beats (delta, S)."""
    return weights[0] * np.cos(beats[0] * t) + weights[1] * np.cos(beats[1] * t)


def qubit_t_perp(gamma: float, omega_a: float, omega_b: float) -> float | None:
    """First root of the criterion within its guaranteed horizon, or None.

    The horizon comes from the dominant-amplitude term: pi/|wa - wb| when
    cos^2(gamma/2) > sin^2(gamma/2) (no root exists at all if additionally
    wa = wb), else pi/(wa + wb).  The scan grid is densified beyond
    ``SCAN_POINTS`` intervals whenever the fast beat (wa + wb) would otherwise
    be under-resolved.  The first sign change is refined to
    ``REFINE_REL_TOL`` relative to the horizon by ``_scan.bisect_root``
    (safeguarded inverse quadratic and secant steps, a few criterion
    evaluations on an ordinary row); a boundary tangency (e.g. gamma = pi/2
    with equal frequencies) is found by the scan's touch hunt.  The grid is
    evaluated lazily in growing blocks and the scan stops at the first root,
    with the same result as scanning every grid point (see
    ``_scan.first_root``); no grid is materialized, so memory is bounded by
    one block.  The criterion starts at 1 with slope at most
    L = cos^2(gamma/2) |wa - wb| + sin^2(gamma/2) (wa + wb), so it stays
    positive before 1/L: the scan starts next to that time, with a first
    block reaching to twice it.  A non-finite argument or frequency sum
    raises ValueError, and so does an infinite horizon (a subnormal
    frequency scale), whose grid count would not be finite.
    """
    gamma = linalg._finite(gamma, "gamma")
    omega_a = linalg._finite_nonnegative(omega_a, "omega_a")
    omega_b = linalg._finite_nonnegative(omega_b, "omega_b")
    total = linalg._finite(omega_a + omega_b, "omega_a + omega_b")
    if total == 0:
        raise ValueError("frequencies must not both be zero")
    a = np.cos(0.5 * gamma) ** 2
    b = np.sin(0.5 * gamma) ** 2
    # a - b = cos(gamma); treat the gamma = pi/2 boundary (not representable
    # exactly) as the second branch so its horizon-endpoint tangency is kept.
    if a - b > BRANCH_TOL:
        if omega_a == omega_b:
            return None
        horizon = np.pi / abs(omega_a - omega_b)
    else:
        horizon = np.pi / total
    if not np.isfinite(horizon):  # a subnormal frequency scale
        raise ValueError(f"horizon ({horizon!r}) gives no finite scan grid count")
    # Densify beyond SCAN_POINTS so the fast beat stays resolved on long
    # horizons.  The cap bounds the criterion evaluations of a rootless scan
    # (memory is bounded by the scan's block); past it the fast beat is
    # under-resolved.
    n = min(max(SCAN_POINTS, int(np.ceil(4.0 * horizon * total / np.pi))), 5_000_000)

    def f_batch(tt):
        return criterion(gamma, omega_a, omega_b, tt)

    lip = a * abs(omega_a - omega_b) + b * total
    hit = first_root(f_batch, horizon, n, max(lip, 1e-300), REFINE_REL_TOL * horizon, REFINE_FTOL,
                     f0=1.0)
    return float(hit.t) if hit.kind != "none" else None


def mean_energy_bar(omega_a: float, omega_b: float, cos_gamma: float) -> float:
    """Average energy of the frequency-difference field (wa ra - wb rb).sigma
    with its lower level shifted to zero:
    sqrt(wa^2 + wb^2 - 2 wa wb cos_gamma)."""
    rad = omega_a**2 + omega_b**2 - 2.0 * omega_a * omega_b * cos_gamma
    return float(np.sqrt(max(rad, 0.0)))


def equatorial_state(axis, alpha: float = 0.0) -> np.ndarray:
    """(up + e^{i alpha} down)/sqrt(2) in the eigenbasis of axis.sigma.

    The expectation of axis.sigma in this state is zero, which kills the
    imaginary part of the bracket for a rotation about that axis.
    """
    n = _unit_axis(axis)
    alpha = linalg._finite(alpha, "alpha")
    theta = np.arccos(np.clip(n[2], -1.0, 1.0))
    phi = np.arctan2(n[1], n[0])
    up = np.array([np.cos(0.5 * theta), np.sin(0.5 * theta) * np.exp(1j * phi)])
    down = np.array([-np.sin(0.5 * theta) * np.exp(-1j * phi), np.cos(0.5 * theta)])
    return (up + np.exp(1j * alpha) * down) / np.sqrt(2.0)


def discrimination_state(field_a: QubitField, field_b: QubitField, t: float,
                         alpha: float = 0.0) -> np.ndarray:
    """Initial state whose two evolutions are orthogonal at time t, assuming
    the criterion vanishes there.

    The bracket of the time-t evolutions is the expectation of
    R_a(-theta_a) R_b(theta_b) with theta = 2 omega t; an equatorial state
    about that product's rotation axis leaves only its scalar part, which is
    the criterion.  Note the ordering: the reversed product shares the angle
    (and hence the root) but not the axis.  ``t`` and the rotation angles
    2 omega t are checked finite.
    """
    t = linalg._finite_phase(linalg._finite(t, "t"), 2.0 * max(field_a.omega, field_b.omega),
                             "t * 2 max(omega_a, omega_b)")
    comp = compose_rotations(-2.0 * field_b.omega * t, field_b.axis,
                             -2.0 * field_a.omega * t, field_a.axis)
    return equatorial_state(comp.axis, alpha)
