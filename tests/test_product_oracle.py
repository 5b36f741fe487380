"""An exact reference for ``find_t_perp`` at d = 4, 8 and 16: independent
spin pairs hidden by a shared random unitary.

With ha = sum_i wa_i na_i.sigma^(i) and hb = sum_i wb_i nb_i.sigma^(i),
terms on different spins commute, so e^{i hb t} e^{-i ha t} is the tensor
product of one SU(2) factor per spin, with eigenphases +-phi_i(t) where

    cos phi_i = cos(wa_i t) cos(wb_i t) + (na_i.nb_i) sin(wa_i t) sin(wb_i t),

and the product's eigenphases are the sums sum_i s_i phi_i.  Every gap
between them stays below pi until sum_i phi_i first reaches pi/2, so t_perp
is the first root of F(t) = pi/2 - sum_i arccos c_i(t): a scalar curve,
found here by a dense scan and ``brentq``, with no matrix diagonalized.
A shared random unitary W hides the product structure from the engine.
"""

import numpy as np
import pytest
from scipy.optimize import brentq

from orthotime import bounds
from orthotime._scan import TOUCH_TOL
from orthotime.discriminate import (HORIZON_SPANS, REFINE_REL_TOL, DiscriminationResult,
                                    NoOrthogonality, find_t_perp)
from helpers import SX, SY, SZ, haar_unitary, random_axis

REF_POINTS = 200_000  # reference scan intervals over the horizon
REF_CHUNK = 8192
CASES_PER_SIZE = 8


def _spin(omega, axis, site, n):
    """omega axis.sigma on spin ``site`` of ``n``."""
    op = omega * (axis[0] * SX + axis[1] * SY + axis[2] * SZ)
    out = np.eye(1, dtype=complex)
    for k in range(n):
        out = np.kron(out, op if k == site else np.eye(2))
    return out


def _pair(factors, w):
    """(W ha W*, W hb W*) for factors (wa, na, wb, nb), one per spin."""
    n = len(factors)
    ha = sum(_spin(wa, na, i, n) for i, (wa, na, _, _) in enumerate(factors))
    hb = sum(_spin(wb, nb, i, n) for i, (_, _, wb, nb) in enumerate(factors))
    return w @ ha @ w.conj().T, w @ hb @ w.conj().T


def _criterion(factors, t):
    """F(t) = pi/2 - sum_i arccos c_i(t)."""
    t = np.asarray(t, dtype=float)
    total = np.zeros_like(t)
    for wa, na, wb, nb in factors:
        c = (np.cos(wa * t) * np.cos(wb * t)
             + float(na @ nb) * np.sin(wa * t) * np.sin(wb * t))
        total += np.arccos(np.clip(c, -1.0, 1.0))
    return 0.5 * np.pi - total


def _default_horizon(factors):
    """``find_t_perp``'s default t_max: HORIZON_SPANS pi/L with
    L = 2 (half-span of ha + half-span of hb) = 2 sum_i (wa_i + wb_i)."""
    return HORIZON_SPANS * np.pi / (2.0 * sum(wa + wb for wa, _, wb, _ in factors))


def _reference_root(factors, t_max):
    """First sign change of F on a REF_POINTS grid over [0, t_max], refined
    by ``brentq``, or None.  The samples from the first one within TOUCH_TOL
    of zero down to the sign change must fall strictly: a dip that rises
    again there would be a touch, the root by the touch rule."""
    step = t_max / REF_POINTS
    for start in range(0, REF_POINTS + 1, REF_CHUNK):
        # Each chunk repeats the previous chunk's last sample.
        ts = np.arange(max(start - 1, 0), min(start + REF_CHUNK, REF_POINTS + 1)) * step
        fs = _criterion(factors, ts)
        neg = np.flatnonzero(fs <= 0.0)
        stop = int(neg[0]) if neg.size else fs.size
        low = np.flatnonzero(fs[:stop] <= TOUCH_TOL)
        assert not low.size or np.all(np.diff(fs[low[0]:stop + 1]) < 0.0), "a touch"
        if neg.size:
            return brentq(lambda t: float(_criterion(factors, t)), ts[stop - 1], ts[stop],
                          xtol=1e-14, rtol=4 * np.finfo(float).eps)
    return None


def _factor(rng, gamma=None):
    wa, wb = rng.uniform(0.1, 1.5, size=2)
    na = random_axis(rng)
    if gamma is None:
        return wa, na, wb, random_axis(rng)
    perp = np.cross(na, random_axis(rng))
    return wa, na, wb, np.cos(gamma) * na + np.sin(gamma) * perp / np.linalg.norm(perp)


def _cases():
    rng = np.random.default_rng(2026)
    return [[_factor(rng) for _ in range(n)] for n in (2, 3, 4) for _ in range(CASES_PER_SIZE)]


@pytest.mark.parametrize("factors", _cases(),
                         ids=[f"d{2 ** (k // CASES_PER_SIZE + 2)}-{k % CASES_PER_SIZE}"
                              for k in range(3 * CASES_PER_SIZE)])
def test_find_t_perp_matches_the_product_reference(factors):
    rng = np.random.default_rng(len(factors))
    ha, hb = _pair(factors, haar_unitary(rng, 2 ** len(factors)))
    t_max = _default_horizon(factors)
    ref = _reference_root(factors, t_max)
    assert ref is not None
    out = find_t_perp(ha, hb)
    assert isinstance(out, DiscriminationResult)
    assert abs(out.t_perp - ref) <= REFINE_REL_TOL * t_max
    assert out.residual <= 1e-10
    report = bounds.bounds_report(ha, hb, out.state)
    assert report.t_lb_span <= out.t_perp
    assert report.t_lb_aa <= out.t_perp


def test_touch_beside_a_spectator_spin():
    # A gamma = pi/2, equal-frequency factor has c = cos^2 t >= 0: F = pi/2 -
    # arccos(cos^2 t) touches zero at pi/2 without a sign change, and the
    # spectator (one field in both operators) adds arccos 1 = 0.
    rng = np.random.default_rng(9)
    z, x, spectator = np.array([0.0, 0.0, 1.0]), np.array([1.0, 0.0, 0.0]), random_axis(rng)
    factors = [(1.0, z, 1.0, x), (0.7, spectator, 0.7, spectator)]
    ts = np.linspace(0.0, 2.0, REF_POINTS + 1)
    assert _criterion(factors, ts).min() >= 0.0  # no crossing on [0, 2]
    assert _criterion(factors, 0.5 * np.pi) <= TOUCH_TOL  # the reference minimum: a root
    ha, hb = _pair(factors, haar_unitary(rng, 4))
    out = find_t_perp(ha, hb, t_max=2.0)
    assert isinstance(out, DiscriminationResult)
    assert _criterion(factors, out.t_perp) <= TOUCH_TOL  # the touch rule
    assert abs(out.t_perp - 0.5 * np.pi) <= np.sqrt(TOUCH_TOL)
    report = bounds.bounds_report(ha, hb, out.state)
    assert report.t_lb_span <= out.t_perp and report.t_lb_aa <= out.t_perp


def test_late_root_past_the_default_horizon():
    # The gamma = 0.3, S = 2, delta/S = 1e-2 qubit factor roots at 79.08; a
    # spectator with omega = 5 shrinks the default horizon to 100 pi/24.
    rng = np.random.default_rng(11)
    slow, spectator = _factor(rng, gamma=0.3), random_axis(rng)
    factors = [(1.01, slow[1], 0.99, slow[3]), (5.0, spectator, 5.0, spectator)]
    ha, hb = _pair(factors, haar_unitary(rng, 4))
    horizon = _default_horizon(factors)
    assert horizon == pytest.approx(100.0 * np.pi / 24.0)
    assert _reference_root(factors, horizon) is None
    assert isinstance(find_t_perp(ha, hb), NoOrthogonality)

    ref = _reference_root(factors, 100.0)
    assert ref == pytest.approx(79.07925599627, abs=1e-10)
    out = find_t_perp(ha, hb, t_max=100.0)
    assert isinstance(out, DiscriminationResult)
    assert abs(out.t_perp - ref) <= REFINE_REL_TOL * 100.0
    assert out.t_perp == pytest.approx(79.07925599627, abs=1e-10)
    report = bounds.bounds_report(ha, hb, out.state)
    assert report.t_lb_span <= out.t_perp and report.t_lb_aa <= out.t_perp
