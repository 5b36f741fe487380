"""First-root detection on a sampled scalar curve.

Shared between the closed-form qubit criterion and the generic eigenphase-gap
engine.  A root can show up in two ways along a grid scan that starts
positive: as a sign change or as a dip that touches zero between samples
without a nonpositive sample (hunted down by recursive subsampling around
the running minimum).  Touch hunting is only attempted where the sampled
value is within one Lipschitz step of zero, which is the widest a sub-grid
excursion to zero can hide.  A sign change is refined by ``bisect_root``:
inverse quadratic and secant steps as in Brent-Dekker, which converge
superlinearly on a smooth crossing (about four evaluations where bisection
needs thirty), held to bisection's schedule by an ITP-style projection so
that no curve costs more than ``_SLACK`` evaluations beyond bisection.

The grid is evaluated lazily, in consecutive blocks of ``_FIRST_BLOCK``
points doubling up to ``_MAX_BLOCK``, and the scan stops at the first root,
so a root early in the horizon costs a few blocks rather than the whole grid.
The result is the same, bit for bit, as sampling every grid point first
(see ``first_root``), and sample memory is bounded by the largest block.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Block schedule of the lazy scan: the first block is short because roots
# often sit early in the horizon; the cap bounds the memory of one block.
_FIRST_BLOCK = 64
_MAX_BLOCK = 65536
# Evaluations one crossing refinement may spend; the bisection safeguard
# reaches adjacent floats long before this on any bracket the scans hand over.
_MAX_EVALS = 200
# Evaluations the crossing refiner may fall behind bisection's schedule.
_SLACK = 3
# Touch hunt: samples per round, and rounds of recentring on the minimum.
_TOUCH_POINTS = 33
_TOUCH_ROUNDS = 40
# A dip whose refined minimum is at most this counts as a touch root.
TOUCH_TOL = 1e-9


@dataclass(frozen=True)
class RootHit:
    t: float
    value: float
    kind: str  # "crossing" or "touch"


def _scalar(f_batch):
    def f(x: float) -> float:
        return float(np.asarray(f_batch(np.array([x])))[0])

    return f


def _interpolate(lo: float, hi: float, f_lo: float, f_hi: float, x3, f3) -> float:
    """Root estimate from the bracket ends and a third point: inverse
    quadratic interpolation through all three when their values differ,
    else the secant through the ends.  Offsets from ``lo`` keep the
    estimate accurate on brackets far from the origin."""
    d_hi = hi - lo
    if x3 is not None and f3 != f_lo and f3 != f_hi:
        d_3 = x3 - lo
        return lo + (d_hi * f_lo / (f_lo - f_hi) * f3 / (f3 - f_hi)
                     + d_3 * f_lo / (f_lo - f3) * f_hi / (f_hi - f3))
    return lo + d_hi * (f_lo / (f_lo - f_hi))


def bisect_root(f, lo: float, hi: float, f_lo: float, f_hi: float, xtol: float,
                ftol: float) -> tuple[float, float]:
    """Refine the sign change on [lo, hi], with f(lo) = f_lo > 0 >= f_hi = f(hi).

    Each step evaluates one point strictly inside the bracket and keeps the
    part whose ends still differ in sign, so f(lo) > 0 >= f(hi) throughout
    and no point outside [lo, hi] is ever evaluated.  The point is the
    inverse quadratic (or secant) estimate of the root, as in Brent-Dekker,
    through the bracket ends and the end discarded last.  While the bracket
    is wider than ``xtol``, an estimate within ``xtol / 2`` of an end is
    moved to that distance, so an estimate converging from one side
    collapses the bracket.  Safeguard, as in ITP: the point is projected
    onto the interval around the midpoint that keeps the bracket, after k
    evaluations, at most 2**(_SLACK - k) of its initial width.  So on any
    curve the refinement needs at most ``_SLACK`` evaluations more than
    plain bisection to shrink the bracket to a given width.

    Stops once the bracket is at most ``xtol`` wide and the best evaluated
    |f| is at most ``ftol``, or when no representable point is left strictly
    inside.  Returns the evaluated point with the smallest |f|, ``hi``
    included; ties go to the later point.  Raises ValueError unless
    f_lo > 0 >= f_hi.
    """
    if not f_lo > 0.0 >= f_hi:
        raise ValueError(f"no sign change to refine: f(lo) = {f_lo!r}, f(hi) = {f_hi!r}")
    width0 = hi - lo
    best_t, best_f = hi, f_hi
    x3 = f3 = None  # the bracket end discarded last
    for k in range(_MAX_EVALS):
        mid = 0.5 * (lo + hi)
        if not (lo < mid < hi):
            break
        x = _interpolate(lo, hi, f_lo, f_hi, x3, f3)
        if hi - lo > xtol:
            x = min(max(x, lo + 0.5 * xtol), hi - 0.5 * xtol)
        reach = max(width0 * 0.5 ** (k + 1 - _SLACK) - 0.5 * (hi - lo), 0.0)
        x = min(max(x, mid - reach), mid + reach)
        if not (lo < x < hi):  # also catches NaN
            x = mid
        fx = f(x)
        if abs(fx) <= abs(best_f):
            best_t, best_f = x, fx
        if fx <= 0.0:
            x3, f3, hi, f_hi = hi, f_hi, x, fx
        else:
            x3, f3, lo, f_lo = lo, f_lo, x, fx
        if hi - lo <= xtol and abs(best_f) <= ftol:
            break
    return best_t, best_f


def _touch_hunt(f_batch, lo: float, hi: float, xtol: float, ftol: float,
                lipschitz: float | None = None):
    """Refine a bracket suspected of dipping to (or through) zero.

    Subsamples the bracket with ``_TOUCH_POINTS`` points and recentres on the
    minimum, for at most ``_TOUCH_ROUNDS`` rounds.  The first nonpositive
    sample hands its bracket over to ``bisect_root``; a nonpositive first
    sample, at ``lo`` itself, is the crossing.  Otherwise the dip counts as a
    root only when the refined minimum is <= ``TOUCH_TOL``.  With
    ``lipschitz``, the hunt gives up as soon as one round's samples prove
    the curve stays above ``2 * TOUCH_TOL`` on the whole bracket (the second
    ``TOUCH_TOL`` absorbs rounding in the samples): every later round samples
    inside that bracket, so the full refinement would return None as well.
    """
    best_t = best_f = None
    for _ in range(_TOUCH_ROUNDS):
        ts = np.linspace(lo, hi, _TOUCH_POINTS)
        fs = np.asarray(f_batch(ts), dtype=float)
        neg = np.nonzero(fs <= 0.0)[0]
        if neg.size:
            j = int(neg[0])
            if j == 0:
                return RootHit(float(ts[0]), float(fs[0]), "crossing")
            t, v = bisect_root(_scalar(f_batch), float(ts[j - 1]), float(ts[j]),
                               float(fs[j - 1]), float(fs[j]), xtol, ftol)
            return RootHit(t, v, "crossing")
        if lipschitz is not None:
            # Lowest value a curve of slope <= lipschitz through the samples
            # can reach between two neighbours.
            floor = 0.5 * np.min(fs[:-1] + fs[1:] - lipschitz * np.diff(ts))
            if floor > 2.0 * TOUCH_TOL:
                return None
        m = int(np.argmin(fs))
        best_t, best_f = float(ts[m]), float(fs[m])
        width_floor = max(xtol, 4.0 * np.finfo(float).eps * max(abs(hi), 1.0))
        if hi - lo <= width_floor:
            break
        lo, hi = float(ts[max(m - 1, 0)]), float(ts[min(m + 1, _TOUCH_POINTS - 1)])
    if best_f is not None and best_f <= TOUCH_TOL:
        return RootHit(best_t, best_f, "touch")
    return None


def _touch_candidates(fs, window: float) -> np.ndarray:
    """Indices j, 1 <= j <= fs.size - 2, of local minima fs[j] <= ``window``.

    ``fs`` holds only samples before the first nonpositive one, so every
    candidate and both its neighbours are positive (NaN is never one)."""
    left, mid, right = fs[:-2], fs[1:-1], fs[2:]
    return np.flatnonzero((mid <= window) & (left >= mid) & (mid <= right)) + 1


def first_root(f_batch, ts, lipschitz: float | None = None,
               xtol: float = 1e-12, ftol: float = 1e-11, on_samples=None):
    """Earliest root of a curve, sampled on the uniform grid ``ts``, that
    starts strictly positive.

    ``f_batch`` maps an array of abscissae to an array of values.  It is
    called on consecutive blocks of ``ts`` (``_FIRST_BLOCK`` points, doubling
    up to ``_MAX_BLOCK``), and evaluation stops at the first root; samples
    after it are never computed.  When ``lipschitz`` is given, positive local
    minima within ``lipschitz * step`` of zero are inspected as potential
    sub-grid touches, in grid order and before a later sign change.  A
    horizon-endpoint sample within that window that is still falling is
    inspected as a one-sided touch.  ``on_samples``, if given, is called with
    each block's new samples in grid order, so their concatenation is the
    curve on the scanned prefix of ``ts`` (all of it when there is no root).
    Returns a RootHit or None.

    Guarantee: the result is the same, bit for bit, as that of a scan that
    samples the whole grid first and walks it point by point.  That walk
    decides at grid index k using only the samples up to index k + 1, and
    each block is joined to the last two samples of the previous one, so
    every sign change and touch candidate is found at the same grid point,
    in the same order, with the same crossing refinement and touch hunts.
    A hunt given ``lipschitz`` may stop early, but only where the full
    refinement would return None (see ``_touch_hunt``).
    """
    ts = np.asarray(ts, dtype=float)
    n = ts.size
    if n < 2:
        return None
    step = (ts[-1] - ts[0]) / (n - 1)
    window = lipschitz * step if lipschitz is not None else None
    tail = np.empty(0)  # last two samples of the previous block
    start, size = 0, _FIRST_BLOCK
    while start < n:
        stop = min(start + size, n)
        new = np.asarray(f_batch(ts[start:stop]), dtype=float)
        if on_samples is not None:
            on_samples(new)
        if start == 0 and new[0] <= 0.0:
            raise ValueError("scan must start at a strictly positive sample")
        fs = np.concatenate((tail, new))
        base = start - tail.size  # grid index of fs[0]
        neg = np.flatnonzero(new <= 0.0)
        cross = tail.size + int(neg[0]) if neg.size else fs.size
        if window is not None:
            for j in _touch_candidates(fs[:cross], window):
                hit = _touch_hunt(f_batch, float(ts[base + j - 1]), float(ts[base + j + 1]),
                                  xtol, ftol, lipschitz=lipschitz)
                if hit is not None:
                    return hit
        if neg.size:
            k = base + cross
            t, v = bisect_root(_scalar(f_batch), float(ts[k - 1]), float(ts[k]),
                               float(fs[cross - 1]), float(fs[cross]), xtol, ftol)
            return RootHit(t, v, "crossing")
        tail = fs[-2:]
        start, size = stop, min(2 * size, _MAX_BLOCK)
    # One-sided candidate at the horizon endpoint (tangency at the boundary);
    # every sample is positive here.
    if window is not None and tail[-1] <= window and tail[-1] <= tail[-2]:
        return _touch_hunt(f_batch, float(ts[-2]), float(ts[-1]), xtol, ftol,
                           lipschitz=lipschitz)
    return None
