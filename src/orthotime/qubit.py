"""Closed-form two-level solution.

A precessing spin-1/2 field is (omega, axis) with H = omega axis.sigma.  A
scalar offset would only contribute a global phase and drop out of
discrimination, so a field has none.
Composing the two evolution rotations on the Bloch sphere reduces the bracket
to the scalar criterion

    cos^2(gamma/2) cos((wa - wb) t) + sin^2(gamma/2) cos((wa + wb) t),

whose first root is the orthogonality time; gamma is the angle between the
two field axes.  Equal frequencies with gamma below pi/2 admit no root at any
finite time, which ``qubit_t_perp`` reports as None.  The optimal state
(``discrimination_state``) is equatorial about the composed rotation's axis,
the direction of its vector part in closed form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import linalg
from ._scan import SCAN_POINTS, first_root

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


@dataclass(frozen=True)
class QubitField:
    """Finite precession frequency omega >= 0 about a unit axis: the field
    H = omega axis.sigma."""

    omega: float
    axis: np.ndarray

    def __post_init__(self):
        linalg._finite_nonnegative(self.omega, "omega")
        object.__setattr__(self, "axis", _unit_axis(self.axis))


def qubit_hamiltonian(field: QubitField) -> np.ndarray:
    """2x2 matrix omega axis.sigma with eigenvalues -+ omega.  Every zero
    real or imaginary part is +0.0 (the trailing + 0j), as in the sum
    0 I + omega (x sigma_x + y sigma_y + z sigma_z), bit for bit."""
    wx, wy, wz = (field.omega * c for c in field.axis.tolist())
    return np.array([[wz, complex(wx, -wy)], [complex(wx, wy), -wz]]) + 0j


def criterion(gamma: float, omega_a: float, omega_b: float, t):
    """Scalar orthogonality criterion; equals 1 at t = 0 and the bracket of
    the optimal equatorial state vanishes exactly at its roots.

    Accepts a scalar or array ``t``.  A float ``t`` is evaluated in scalar
    arithmetic, a cos(delta t) + b cos(S t) with ``math.cos``, and gives a
    float: the same operations as the array path, which ``_two_beats``
    takes, and so the same bits wherever ``math.cos`` and ``np.cos`` agree.
    An infinite ``gamma``, or an infinite float ``t``, raises ValueError
    from ``math``.
    """
    a, b = _weights(gamma)
    delta, total = omega_a - omega_b, omega_a + omega_b
    if isinstance(t, float):
        return a * math.cos(delta * t) + b * math.cos(total * t)
    return _two_beats((a, b), (delta, total), np.asarray(t, dtype=float))


def _weights(gamma: float) -> tuple[float, float]:
    """(cos^2(gamma/2), sin^2(gamma/2)), the criterion's aligned and crossed
    weights."""
    half = 0.5 * gamma
    return math.cos(half) ** 2, math.sin(half) ** 2


def _two_beats(weights, beats, t):
    """a cos(delta t) + b cos(S t) for weights (a, b) and beats (delta, S)."""
    return weights[0] * np.cos(beats[0] * t) + weights[1] * np.cos(beats[1] * t)


def qubit_t_perp(gamma: float, omega_a: float, omega_b: float) -> float | None:
    """First root of the criterion within its guaranteed horizon, or None.

    The horizon comes from the dominant-amplitude term: pi/|wa - wb| when
    cos^2(gamma/2) > sin^2(gamma/2) (no root exists at all if additionally
    wa = wb), else pi/(wa + wb).  The grid has ``SCAN_POINTS`` intervals,
    more where the fast beat (wa + wb) would be under-resolved, and at most
    5,000,000.  ``_scan.first_root`` scans it lazily and stops at the first
    root: a sign change, refined to ``REFINE_REL_TOL`` relative to the
    horizon, or a touch such as the horizon-end tangency at gamma = pi/2
    with equal frequencies.  Its start bound is the criterion's exact value
    1 at t = 0, and its slope bound L = cos^2(gamma/2) |wa - wb| +
    sin^2(gamma/2) (wa + wb); L times the step is at least pi/5e6 times the
    dominant weight, above 3e-7, so it never underflows.  A non-finite
    argument or frequency sum raises ValueError, and so does an infinite
    horizon (a subnormal frequency scale), which has no finite grid count.
    """
    gamma = linalg._finite(gamma, "gamma")
    omega_a = linalg._finite_nonnegative(omega_a, "omega_a")
    omega_b = linalg._finite_nonnegative(omega_b, "omega_b")
    total = linalg._finite(omega_a + omega_b, "omega_a + omega_b")
    if total == 0:
        raise ValueError("frequencies must not both be zero")
    a, b = _weights(gamma)
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
    # horizons.  Every scan ends on a root: on the first branch
    # f(pi/|delta|) <= b - a < 0, on the second f(pi/S) <= a - b <=
    # BRANCH_TOL < TOUCH_TOL.  So the cap bounds the cost of a slow-beat
    # row, not of a rootless scan; past it the fast beat aliases and the
    # root can come late.  It is taken in floating point, where a horizon
    # past about 4.5e307 makes the densified count inf.
    n = int(min(max(SCAN_POINTS, np.ceil(4.0 * horizon * total / np.pi)), 5_000_000))

    # One evaluator for batches and single floats, as ``criterion`` answers
    # each in kind; it looks the criterion up at call time, so a replaced
    # one sees every point.
    def f(t):
        return criterion(gamma, omega_a, omega_b, t)

    lip = a * abs(omega_a - omega_b) + b * total
    hit = first_root(f, horizon, n, lip, REFINE_REL_TOL * horizon, REFINE_FTOL, f0=1.0,
                     f_scalar=f)
    return float(hit.t) if hit.kind != "none" else None


def mean_energy_bar(omega_a: float, omega_b: float, cos_gamma: float) -> float:
    """Average energy of the frequency-difference field (wa ra - wb rb).sigma
    with its lower level shifted to zero: |wa ra - wb rb| =
    hypot(wa - wb cos_gamma, wb sin_gamma), which neither under- nor
    overflows at extreme frequency scales."""
    sin_gamma = math.sqrt(max(1.0 - cos_gamma * cos_gamma, 0.0))
    return math.hypot(omega_a - omega_b * cos_gamma, omega_b * sin_gamma)


def equatorial_state(axis, alpha: float = 0.0) -> np.ndarray:
    """(up + e^{i alpha} down)/sqrt(2) in the eigenbasis of axis.sigma.

    The expectation of axis.sigma in this state is zero, which kills the
    imaginary part of the bracket for a rotation about that axis.
    """
    n = _unit_axis(axis)
    return _equatorial(*n.tolist(), linalg._finite(alpha, "alpha"))


def _equatorial(x: float, y: float, z: float, alpha: float) -> np.ndarray:
    """``equatorial_state`` about the unit axis (x, y, z), unchecked.  The
    polar angles keep ``np.arccos`` and ``np.arctan2``, whose ``math``
    counterparts round differently."""
    theta = np.arccos(min(max(z, -1.0), 1.0))
    phi = np.arctan2(y, x)
    c, s = math.cos(0.5 * theta), math.sin(0.5 * theta)
    up = np.array([c, s * np.exp(1j * phi)])
    down = np.array([-s * np.exp(-1j * phi), c])
    return (up + np.exp(1j * alpha) * down) / np.sqrt(2.0)


def discrimination_state(field_a: QubitField, field_b: QubitField, t: float,
                         alpha: float = 0.0) -> np.ndarray:
    """Initial state whose two evolutions are orthogonal at time t, assuming
    the criterion vanishes there.

    The bracket of the time-t evolutions is the expectation of the spin
    rotation R_a(-theta_a) R_b(theta_b), with theta = 2 omega t.  With half
    angles h = -omega t, the Pauli product rule gives its scalar part, the
    criterion, and its vector part

        sin(h_a) cos(h_b) r_a - cos(h_a) sin(h_b) r_b - sin(h_a) sin(h_b) r_a x r_b,

    whose direction is the rotation axis.  An equatorial state about that
    axis leaves only the scalar part.  Note the ordering: the reversed
    product shares the angle (and hence the root) but not the axis.  ``t``
    and the rotation angles 2 omega t are checked finite.  A zero vector
    part, as at t = 0, means the evolutions differ only by a global phase,
    and raises ValueError.
    """
    t = linalg._finite_phase(linalg._finite(t, "t"), 2.0 * max(field_a.omega, field_b.omega),
                             "t * 2 max(omega_a, omega_b)")
    half_a, half_b = 0.5 * (-2.0 * field_a.omega * t), 0.5 * (-2.0 * field_b.omega * t)
    sa, ca = math.sin(half_a), math.cos(half_a)
    sb, cb = math.sin(half_b), math.cos(half_b)
    a0, a1, a2 = field_a.axis.tolist()
    b0, b1, b2 = field_b.axis.tolist()
    # Each component in scalars, grouped as the vector expression
    # ((-sb ca) r_b + (cb sa) r_a) - (sb sa) (r_a x r_b) with the cross
    # product in np.cross's order, so that it rounds as numpy's does.
    wb, wa, wx = -sb * ca, cb * sa, sb * sa
    vec = (wb * b0 + wa * a0 - wx * (a1 * b2 - a2 * b1),
           wb * b1 + wa * a1 - wx * (a2 * b0 - a0 * b2),
           wb * b2 + wa * a2 - wx * (a0 * b1 - a1 * b0))
    v = np.array(vec)
    size = math.sqrt(v.dot(v))  # np.linalg.norm's own sum, with its rounding
    if size == 0.0:
        raise ValueError(f"the two evolutions differ only by a global phase at t = {t!r}; "
                         "no state can discriminate them")
    return _equatorial(vec[0] / size, vec[1] / size, vec[2] / size,
                       linalg._finite(alpha, "alpha"))
