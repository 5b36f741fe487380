"""Independent reference checks for the benchmark's outputs.

Everything here is computed apart from the package: only numpy and scipy are
used, and nothing imports orthotime.  Each ``check_*`` function takes plain
numbers taken from one program output and returns a list of problems; an
empty list means the output passed.
"""

from __future__ import annotations

import math

import numpy as np
import scipy.linalg
import scipy.optimize

RESIDUAL_TOL = 1e-8      # |<psi|U(t_perp)|psi>| at the reported time
NORM_TOL = 1e-10         # | ||psi|| - 1 |
BOUND_RTOL = 1e-9        # slack on the bound orderings
QUBIT_RTOL = 1e-6        # closed-form t_perp against the windowed reference
TOUCH_TOL = 1e-9         # a positive local minimum this small counts as a root
LOG_NORM_TOL = 1e-9      # lhs/rhs of a subadditivity trial
MARGIN_SLACK = 1e-9      # an unskipped trial may not fall below -MARGIN_SLACK
CUT_GUARD = 1e-9         # eigenphase distance to -1 below which a trial is skipped
CUT_AMBIGUITY = 1e-12    # distances this close to CUT_GUARD may go either way
UNITARITY_TOL = 1e-10
SAMPLES_PER_PERIOD = 64  # reference samples per fast period 2 pi / (wa + wb)
CHUNK = 1 << 20          # reference samples held in memory at once
MARCH_MAX_STEPS = 100_000
MARCH_FLOOR = 1e-12      # a gap margin this small before t_perp is an earlier root


# ---------------------------------------------------------------------------
# gap_scan: generic d-level discrimination
# ---------------------------------------------------------------------------

def half_span(h) -> float:
    w = np.linalg.eigvalsh(h)
    return float(w[-1] - w[0]) / 2.0


def product(ha, hb, t: float) -> np.ndarray:
    """e^{i hb t} e^{-i ha t} from scipy's Pade exponential."""
    return scipy.linalg.expm(1j * t * np.asarray(hb)) @ scipy.linalg.expm(-1j * t * np.asarray(ha))


def gap_margin(ha, hb, t: float) -> float:
    """Largest empty eigenphase arc of the product at time t, minus pi."""
    phases = np.sort(np.angle(np.linalg.eigvals(product(ha, hb, t))))
    arcs = np.append(np.diff(phases), 2.0 * np.pi - (phases[-1] - phases[0]))
    return float(arcs.max() - np.pi)


def march_to(ha, hb, t_end: float, lipschitz: float) -> str | None:
    """Lipschitz march t += g(t)/L from 0 towards ``t_end``.

    Each step is certified: g cannot fall from g(t) to zero in less than
    g(t)/L.  Returns None when the march reaches ``t_end`` (no root before
    it), else a description of where it stalled.
    """
    t = 0.0
    for _ in range(MARCH_MAX_STEPS):
        if t >= t_end:
            return None
        g = gap_margin(ha, hb, t)
        if g <= MARCH_FLOOR:
            return f"gap margin {g:.3e} at t={t:.12g}, before the reported root"
        t += g / lipschitz
    return f"march did not reach {t_end:.12g} within {MARCH_MAX_STEPS} steps (at t={t:.12g})"


def check_gap_scan(ha, hb, t_perp, state, t_lb_span, t_lb_aa) -> list[str]:
    problems = []
    if t_perp is None:
        return ["no orthogonality time reported"]
    psi = np.asarray(state, dtype=complex)
    norm = float(np.linalg.norm(psi))
    if abs(norm - 1.0) > NORM_TOL:
        problems.append(f"state norm {norm!r} is not 1")
    residual = abs(complex(psi.conj() @ product(ha, hb, t_perp) @ psi))
    if residual > RESIDUAL_TOL:
        problems.append(f"residual {residual:.3e} at t_perp exceeds {RESIDUAL_TOL}")
    wa, wb = half_span(ha), half_span(hb)
    span = math.pi / (2.0 * wa + 2.0 * wb)
    if t_perp < span * (1.0 - BOUND_RTOL):
        problems.append(f"t_perp {t_perp!r} below the span bound {span!r}")
    if abs(t_lb_span - span) > BOUND_RTOL * span:
        problems.append(f"span bound {t_lb_span!r} differs from {span!r}")
    problems += _ordering(t_lb_span, t_lb_aa, t_perp)
    stall = march_to(ha, hb, t_perp * (1.0 - 1e-6), 2.0 * (wa + wb))
    if stall is not None:
        problems.append(stall)
    return problems


def _ordering(t_span, t_aa, t_perp) -> list[str]:
    if t_aa is None:
        return ["missing uncertainty bound"]
    if not t_span <= t_aa * (1.0 + BOUND_RTOL) <= t_perp * (1.0 + BOUND_RTOL) ** 2:
        return [f"bounds out of order: span {t_span!r}, aa {t_aa!r}, t_perp {t_perp!r}"]
    return []


# ---------------------------------------------------------------------------
# qubit_sweep: closed-form two-level rows
# ---------------------------------------------------------------------------

def qubit_exists(gamma: float, omega_a: float, omega_b: float) -> bool:
    """Analytic existence rule: no root exactly when the frequencies are equal
    and the field axes are less than pi/2 apart."""
    return not (omega_a == omega_b and gamma < math.pi / 2.0)


def qubit_first_root(gamma: float, omega_a: float, omega_b: float) -> float | None:
    """First root of a cos(delta t) + b cos(S t) by a windowed scan.

    The window holds every root: with a > b no root precedes
    arccos(b/a)/delta and one exists by arccos(-b/a)/delta; with b >= a none
    precedes arccos(a/b)/S and one exists by pi/S.  The window is sampled at
    SAMPLES_PER_PERIOD points per fast period.  A sign change is refined with
    brentq.  A dip that could reach zero between two positive samples (the
    smaller sample is within the second-derivative bound M2 h^2 / 8) is
    resolved by locating its minimum as a root of f' with brentq.
    """
    a = math.cos(0.5 * gamma) ** 2
    b = math.sin(0.5 * gamma) ** 2
    delta = abs(omega_a - omega_b)
    total = omega_a + omega_b
    if a > b:
        if delta == 0.0:
            return None
        lo, hi = math.acos(b / a) / delta, math.acos(-b / a) / delta
    else:
        lo, hi = math.acos(min(a / b, 1.0)) / total, math.pi / total

    def f(t):
        return a * np.cos(delta * t) + b * np.cos(total * t)

    def fp(t):
        return -a * delta * np.sin(delta * t) - b * total * np.sin(total * t)

    def root(func, x0, x1):
        return scipy.optimize.brentq(func, x0, x1, xtol=1e-300, rtol=4 * np.finfo(float).eps)

    h = 2.0 * math.pi / (SAMPLES_PER_PERIOD * total)
    dip_floor = (a * delta**2 + b * total**2) * h * h / 8.0
    n = max(1, int(math.ceil((hi - lo) / h)))
    for start in range(0, n, CHUNK):
        ts = np.minimum(lo + h * np.arange(start, min(start + CHUNK, n) + 1), hi)
        fs = f(ts)
        if fs[0] <= TOUCH_TOL:
            return float(ts[0])
        cross = np.flatnonzero(fs[1:] <= 0.0)
        last = int(cross[0]) if cross.size else ts.size - 1
        fps = fp(ts[: last + 1])
        dips = np.flatnonzero((np.minimum(fs[:last], fs[1:last + 1]) <= dip_floor)
                              & (fps[:-1] < 0.0) & (fps[1:] > 0.0))
        for i in dips:
            tm = root(fp, ts[i], ts[i + 1])
            fm = float(f(tm))
            if fm <= 0.0:
                return root(f, ts[i], tm)
            if fm <= TOUCH_TOL:
                return tm
        if cross.size:
            return root(f, ts[last], ts[last + 1])
    raise RuntimeError(f"no root found in the window [{lo!r}, {hi!r}]")


def check_qubit_row(gamma, omega_a, omega_b, exists, t_perp, t_lb_aa, t_lb_span) -> list[str]:
    problems = []
    expected = qubit_exists(gamma, omega_a, omega_b)
    if exists != expected:
        return [f"exists={exists} but the analytic rule says {expected}"]
    span = math.pi / (2.0 * (omega_a + omega_b))
    if abs(t_lb_span - span) > BOUND_RTOL * span:
        problems.append(f"span bound {t_lb_span!r} differs from {span!r}")
    if not exists:
        if t_perp is not None or t_lb_aa is not None:
            problems.append("a row without a root reports a time")
        return problems
    ref = qubit_first_root(gamma, omega_a, omega_b)
    if t_perp is None or abs(t_perp - ref) > QUBIT_RTOL * ref:
        problems.append(f"t_perp {t_perp!r} against reference {ref!r}")
        return problems
    return problems + _ordering(t_lb_span, t_lb_aa, t_perp)


# ---------------------------------------------------------------------------
# theorem_trials: principal-log norm subadditivity
# ---------------------------------------------------------------------------

def eigenphases(u) -> np.ndarray:
    return np.angle(np.linalg.eigvals(u))


def check_trial(u, v, skipped, lhs, rhs, margin) -> list[str]:
    """||log U||_F is the 2-norm of U's eigenphases in (-pi, pi]."""
    u = np.asarray(u, dtype=complex)
    v = np.asarray(v, dtype=complex)
    eye = np.eye(u.shape[0])
    for name, m in (("u", u), ("v", v)):
        if np.linalg.norm(m.conj().T @ m - eye) > UNITARITY_TOL:
            return [f"{name} is not unitary"]
    phases = [eigenphases(m) for m in (u, v, u @ v)]
    distances = [float(np.min(np.pi - np.abs(p))) for p in phases]
    expect_skip = min(distances) < CUT_GUARD
    ambiguous = any(abs(d - CUT_GUARD) <= CUT_AMBIGUITY for d in distances)
    if skipped != expect_skip and not ambiguous:
        return [f"skipped={skipped} but the cut distance {min(distances):.3e} says {expect_skip}"]
    if skipped:
        if not (math.isnan(lhs) and math.isnan(rhs) and math.isnan(margin)):
            return ["a skipped trial carries numbers"]
        return []
    ref_lhs = float(np.linalg.norm(phases[2]))
    ref_rhs = float(np.linalg.norm(phases[0]) + np.linalg.norm(phases[1]))
    problems = []
    if not abs(lhs - ref_lhs) <= LOG_NORM_TOL:
        problems.append(f"lhs {lhs!r} against reference {ref_lhs!r}")
    if not abs(rhs - ref_rhs) <= LOG_NORM_TOL:
        problems.append(f"rhs {rhs!r} against reference {ref_rhs!r}")
    if not margin >= -MARGIN_SLACK:
        problems.append(f"margin {margin!r} violates the inequality")
    if not abs(margin - (rhs - lhs)) <= 1e-12 * max(1.0, abs(rhs)):
        problems.append(f"margin {margin!r} is not rhs - lhs")
    return problems
