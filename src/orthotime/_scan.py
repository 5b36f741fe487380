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

The scan computes its own abscissae, a block at a time, on the uniform grid
of n intervals over [0, t_end] and stops at the first root.  No grid is
materialized: a root early in the horizon costs a few blocks, and memory is
bounded by one block whatever the step.  Given the curve's exact start value
f0 and its slope bound L, the scan also skips the prefix of the grid that
f >= f0 - L t proves clear of every root and touch candidate (the first
Lipschitz step of Piyavskii-Shubert): it starts next to the first grid
point the bound leaves open, with a first block reaching to twice f0 / L,
the earliest time the bound leaves for a root.  The result is the same, bit
for bit, as sampling every grid point first (see ``first_root``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

SCAN_POINTS = 2000  # least grid intervals over a horizon, in both engines
# Block schedule of the lazy scan: the first block holds ``_FIRST_BLOCK``
# points when nothing is certified, and otherwise at least as many, reaching
# to twice the certified bound, because roots often sit early in the horizon;
# the cap bounds the memory of one block.
_FIRST_BLOCK = 16
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
    kind: str  # "crossing", "touch", or "none" for the lowest sample of a rootless scan


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


def _touch_hunt(f_batch, lo: float, hi: float, xtol: float, ftol: float, lipschitz: float):
    """Refine a bracket suspected of dipping to (or through) zero.

    Subsamples the bracket with ``_TOUCH_POINTS`` points and recentres on the
    minimum, for at most ``_TOUCH_ROUNDS`` rounds.  The first nonpositive
    sample hands its bracket over to ``bisect_root``; a nonpositive first
    sample, at ``lo`` itself, is the crossing.  Otherwise the dip counts as a
    root only when the refined minimum is <= ``TOUCH_TOL``.  The hunt gives
    up as soon as one round's samples and the slope bound ``lipschitz``
    prove that the curve stays above ``2 * TOUCH_TOL`` on the whole bracket
    (the second ``TOUCH_TOL`` absorbs rounding in the samples): every later
    round samples inside that bracket, so the full refinement, which an
    infinite ``lipschitz`` requests, would return None as well.
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
        # Lowest value a curve of slope <= lipschitz through the samples can
        # reach between two neighbours; no bound for an infinite lipschitz,
        # whose product with a spacing rounded to 0 would be NaN.
        if np.isfinite(lipschitz):
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

    ``fs`` holds only samples before the first nonpositive one (and perhaps a
    +inf sentinel), so every candidate and both neighbours are positive."""
    left, mid, right = fs[:-2], fs[1:-1], fs[2:]
    return np.flatnonzero((mid <= window) & (left >= mid) & (mid <= right)) + 1


def _blocks(start: int, stop: int, size: int):
    """Consecutive index ranges [a, b) covering [start, stop): the first
    ``size`` long, each next one twice the last, none above ``_MAX_BLOCK``."""
    while start < stop:
        end = min(start + size, stop)
        yield start, end
        start, size = end, min(2 * size, _MAX_BLOCK)


def _lower(low, ts, fs):
    """The lower of ``low`` (a (time, value) pair, or None) and the lowest of
    the samples ``fs`` at ``ts``; ties keep the earlier, ``low``."""
    m = int(fs.argmin())
    return (ts[m], fs[m]) if low is None or fs[m] < low[1] else low


def first_root(f_batch, t_end: float, n: int, lipschitz: float, xtol: float,
               ftol: float, f0: float | None = None) -> RootHit:
    """Earliest root on [0, ``t_end``] of a curve that starts strictly
    positive, scanned on the uniform grid of ``n`` >= 1 intervals.

    ``f_batch`` maps an array of abscissae to an array of values.  It is
    called on consecutive blocks of the grid, each computed as
    ``np.arange(start, stop) * (t_end / n)`` with the last point set to
    exactly ``t_end``: bit for bit the points of
    ``np.linspace(0, t_end, n + 1)``, which is never built.  Evaluation
    stops at the first root.  Positive local minima within the window
    ``lipschitz * t_end / n`` of zero (none when ``lipschitz`` is 0) are
    inspected as potential sub-grid touches, in grid order and before a
    later sign change; the horizon endpoint, given a sentinel right neighbour
    (``t_end``, +inf), is one more, with the one-sided bracket [t_{n-1},
    ``t_end``].  Returns a RootHit of kind
    "crossing" or "touch"; with no root, of kind "none", holding the
    smallest sample and the first grid time where it occurs.

    Certified start: ``f0``, when given, is the curve's exact value at 0,
    checked strictly positive, and ``lipschitz`` bounds its slope.  Then
    f(t) >= f0 - lipschitz t, so with clear = (f0 - window) / lipschitz the
    curve exceeds twice the window at every grid index below
    k = ceil(clear / step) - 1: none of them is a touch candidate or a sign
    change, even with sampling errors up to the window.  Evaluation starts
    at s = max(k - 1, 0), the left neighbour of the first possible
    candidate.  The first block reaches from s to twice b = k + 2, the
    first grid index at or past f0 / lipschitz, the earliest time the bound
    leaves for a root, so one batch covers every root up to twice that time;
    it holds at least ``_FIRST_BLOCK`` and at most ``_MAX_BLOCK`` points,
    and each later block doubles up to ``_MAX_BLOCK``.  Without ``f0`` the
    scan starts at index 0, whose sample is checked positive, with a first
    block of ``_FIRST_BLOCK`` points.  A scan that finds no root then
    samples the skipped prefix too, in the same bounded blocks, for the
    smallest sample.

    Guarantee: the result is the same, bit for bit, as that of a scan that
    samples the whole grid first and walks it point by point.  That walk
    decides at grid index k using only the samples up to index k + 1, and
    each block is joined to the last two samples of the previous one, so
    every sign change and touch candidate is found at the same grid point,
    in the same order, with the same crossing refinement and touch hunts.
    A hunt may stop early, but only where the full refinement would return
    None (see ``_touch_hunt``).
    """
    step = t_end / n
    window = lipschitz * step
    s, first = 0, _FIRST_BLOCK
    if f0 is not None:
        if not f0 > 0.0:
            raise ValueError(f"scan must start strictly positive, got f0 = {f0!r}")
        # b = ceil(f0 / window) is the first grid index at or past f0 / L;
        # k = ceil(clear / step) - 1 = b - 2, and s = k - 1.
        b = min(np.ceil(f0 / window) if window > 0.0 else np.inf, n + 4.0)
        s = int(max(b - 3.0, 0.0))
        first = min(max(int(2.0 * b) - s, _FIRST_BLOCK), _MAX_BLOCK)

    def abscissae(lo: int, hi: int) -> np.ndarray:
        ts = np.arange(lo, hi, dtype=float) * step
        if hi > n:
            ts[-1] = t_end
        return ts

    tail = np.empty(0)  # last two samples of the previous block
    low = None
    for start, stop in _blocks(s, n + 1, first):
        ts = abscissae(start - tail.size, stop)  # abscissae of tail and block
        new = np.asarray(f_batch(ts[tail.size:]), dtype=float)
        if start == 0 and new[0] <= 0.0:
            raise ValueError("scan must start at a strictly positive sample")
        fs = np.concatenate((tail, new))
        if stop > n:  # a sentinel right neighbour makes the endpoint a local-minimum candidate
            ts, fs = np.append(ts, t_end), np.append(fs, np.inf)
        neg = np.flatnonzero(new <= 0.0)
        cross = tail.size + int(neg[0]) if neg.size else fs.size
        for j in _touch_candidates(fs[:cross], window):
            hit = _touch_hunt(f_batch, float(ts[j - 1]), float(ts[j + 1]), xtol, ftol, lipschitz)
            if hit is not None:
                return hit
        if neg.size:
            t, v = bisect_root(_scalar(f_batch), float(ts[cross - 1]), float(ts[cross]),
                               float(fs[cross - 1]), float(fs[cross]), xtol, ftol)
            return RootHit(t, v, "crossing")
        low = _lower(low, ts[tail.size:], new)
        tail = fs[-2:]
    # No root: the skipped prefix, earlier than every scanned sample, may
    # still hold the smallest one.
    prefix = None
    for lo, hi in _blocks(0, s, first):
        ts = abscissae(lo, hi)
        prefix = _lower(prefix, ts, np.asarray(f_batch(ts), dtype=float))
    if prefix is not None and (low is None or not low[1] < prefix[1]):
        low = prefix
    return RootHit(float(low[0]), float(low[1]), "none")
