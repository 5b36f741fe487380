"""First-root detection on a sampled scalar curve.

Shared between the closed-form qubit criterion and the generic eigenphase-gap
engine.  A root shows up along a grid scan that starts positive as a sign
change, or as a dip that touches zero between positive samples, hunted down
by recursive subsampling around the running minimum.  One rule, the
Lipschitz floor of Piyavskii (1972) and Shubert (1972), decides every touch
hunt: a curve of slope at most L stays above (f_lo + f_hi - L h) / 2 between
samples f_lo and f_hi taken h apart.  The scan hunts a sampled local minimum
only where one of its two interval floors is at most ``2 * TOUCH_TOL``, and
a hunt gives up once all its subsamples' floors exceed that level.  A sign
change is refined by ``bisect_root``, safeguarded Brent-Dekker steps held
to bisection's schedule.

The scan computes its own abscissae, a block at a time, on the uniform grid
of n intervals over [0, t_end] and stops at the first root, so memory is
bounded by one block whatever the step.  The caller gives a strictly
positive lower bound f0 on the start value, and the scan skips the grid
prefix that f >= f0 - L t proves clear of every root and touch candidate
(the first Lipschitz step of Piyavskii-Shubert).  The result is the same,
bit for bit, as sampling every grid point first (see ``first_root``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

SCAN_POINTS = 2000  # least grid intervals over a horizon, in both engines
# Block schedule of the lazy scan: the first block holds at least
# ``_FIRST_BLOCK`` points and reaches to twice the certified bound, because
# roots often sit early in the horizon; the cap bounds one block's memory.
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
        mid = 0.5 * lo + 0.5 * hi  # halves first: lo + hi may overflow
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


def _touch_hunt(f_batch, lo: float, hi: float, xtol: float, ftol: float, lipschitz: float,
                f_scalar):
    """Refine a bracket suspected of dipping to (or through) zero.

    Subsamples the bracket with ``_TOUCH_POINTS`` points and recentres on the
    minimum, for at most ``_TOUCH_ROUNDS`` rounds.  The first nonpositive
    sample hands its bracket over to ``bisect_root`` on ``f_scalar``, the
    curve as a map of one float to a float; a nonpositive first sample, at
    ``lo`` itself, is the crossing.  Otherwise the dip counts as a
    root only when the refined minimum is <= ``TOUCH_TOL``.  The hunt gives
    up once every interval floor (``_floor``) of one round's samples exceeds
    ``2 * TOUCH_TOL`` (the second ``TOUCH_TOL`` absorbs rounding in the
    samples): the curve then stays above that level on the whole bracket,
    inside which every later round samples, so the full refinement, which
    an infinite ``lipschitz`` requests, would return None as well.
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
            t, v = bisect_root(f_scalar, float(ts[j - 1]), float(ts[j]),
                               float(fs[j - 1]), float(fs[j]), xtol, ftol)
            return RootHit(t, v, "crossing")
        if np.min(_floor(fs[:-1], fs[1:], lipschitz, np.diff(ts))) > 2.0 * TOUCH_TOL:
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


def _floor(f_lo, f_hi, lipschitz: float, width):
    """Lowest value 0.5 (f_lo + f_hi - lipschitz width) a curve of slope at
    most ``lipschitz`` can take between samples ``f_lo`` and ``f_hi`` taken
    ``width`` apart; NaN, which callers count as flagged, where an infinite
    ``lipschitz`` meets a zero width or an infinite sample."""
    with np.errstate(invalid="ignore"):
        return 0.5 * (f_lo + f_hi - lipschitz * width)


def _touch_candidates(ts, fs, lipschitz: float) -> np.ndarray:
    """Indices j, 1 <= j <= fs.size - 2, of the local minima of ``fs`` (at
    ``ts``) with an interval floor (``_floor``) at most ``2 * TOUCH_TOL``, or
    NaN, on either side; past two higher floors ``_touch_hunt`` would return
    None.  ``fs`` holds only samples before the first nonpositive one (and
    perhaps a +inf sentinel), so every candidate and its neighbours are positive."""
    left, mid, right = fs[:-2], fs[1:-1], fs[2:]
    j = np.flatnonzero((left >= mid) & (mid <= right)) + 1
    if not j.size:
        return j
    i = np.concatenate((j - 1, j))  # the intervals left and right of each minimum
    low = ~(_floor(fs[i], fs[i + 1], lipschitz, ts[i + 1] - ts[i]) > 2.0 * TOUCH_TOL)
    return j[low[:j.size] | low[j.size:]]


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
               ftol: float, f0: float, f_scalar=None) -> RootHit:
    """Earliest root on [0, ``t_end``] of a curve that starts strictly
    positive, scanned on the uniform grid of ``n`` >= 1 intervals.

    ``f_batch`` maps an array of abscissae to an array of values, and the
    optional ``f_scalar`` maps one float to a float: every crossing
    refinement (``bisect_root``), the touch hunt's included, evaluates
    ``f_scalar``, by default ``f_batch`` on a one-point array.  A caller
    whose scalar route gives the batch route's bits keeps the result bit
    for bit.  ``f_batch`` is called on consecutive blocks of the grid, each
    computed as ``np.arange(start, stop) * (t_end / n)`` over the indices
    below n, with exactly ``t_end`` appended for index n (n times the step
    may overflow near the float maximum): bit for bit the points of
    ``np.linspace(0, t_end, n + 1)``, which is never built.  ``lipschitz``
    bounds the curve's slope and ``f0``, checked positive, is a lower bound
    on its value at 0.  Touch candidates are the positive sampled local
    minima with an interval floor at most ``2 * TOUCH_TOL`` on either side
    (see ``_touch_candidates``), hunted in grid order and before a later
    sign change; the horizon endpoint, given a sentinel right neighbour
    (``t_end``, +inf), is one more, with the one-sided bracket [t_{n-1},
    ``t_end``].  Returns a RootHit of kind "crossing" or "touch"; with no
    root, of kind "none", holding the smallest sample and the first grid
    time where it occurs.

    Certified start: f(t) >= f0 - lipschitz t.  With the window
    w = lipschitz * t_end / n and clear = (f0 - w) / lipschitz, every grid
    index i below k = ceil(clear / step) - 1 has f_{i+1} > w and f_i > 2 w,
    so both its interval floors exceed w.  When w >= 2 ``TOUCH_TOL`` none
    of them is a touch candidate or a sign change, and evaluation starts at
    s = max(k - 1, 0); a smaller window certifies nothing, and s = 0.  The
    first block reaches from s to twice b = k + 2, the first grid index at
    or past f0 / lipschitz, where the bound first leaves room for a root; it
    holds at least ``_FIRST_BLOCK`` and at most ``_MAX_BLOCK`` points, and
    each later block doubles up to ``_MAX_BLOCK``.  A scan from index 0
    checks that sample positive, which guards the claim ``f0``.  A scan that
    finds no root then samples the skipped prefix too, for the smallest
    sample.

    Guarantee: the result is the same, bit for bit, as that of a scan that
    samples the whole grid first and walks it point by point.  That walk
    decides at grid index k using only the samples up to index k + 1, and
    each block is joined to the last two samples of the previous one, so
    every sign change and touch candidate is found at the same grid point,
    in the same order, with the same crossing refinement and touch hunts.
    A hunt may stop early, but only where the full refinement would return
    None (see ``_touch_hunt``).
    """
    if not f0 > 0.0:
        raise ValueError(f"scan must start strictly positive, got f0 = {f0!r}")
    f = f_scalar or _scalar(f_batch)
    step = t_end / n
    window = lipschitz * step
    # b = ceil(f0 / window), the first grid index at or past f0 / L, or 0 for
    # a window too small to certify; k = ceil(clear / step) - 1 = b - 2, s = k - 1.
    b = min(np.ceil(f0 / window) if window >= 2.0 * TOUCH_TOL else 0.0, n + 4.0)
    s = int(max(b - 3.0, 0.0))
    first = min(max(int(2.0 * b) - s, _FIRST_BLOCK), _MAX_BLOCK)

    def abscissae(lo: int, hi: int) -> np.ndarray:
        ts = np.arange(lo, min(hi, n), dtype=float) * step
        return np.append(ts, t_end) if hi > n else ts

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
        for j in _touch_candidates(ts[:cross], fs[:cross], lipschitz):
            hit = _touch_hunt(f_batch, float(ts[j - 1]), float(ts[j + 1]), xtol, ftol, lipschitz,
                              f)
            if hit is not None:
                return hit
        if neg.size:
            t, v = bisect_root(f, float(ts[cross - 1]), float(ts[cross]),
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
