"""First-root detection on a sampled scalar curve.

Shared between the closed-form qubit criterion and the generic eigenphase-gap
engine.  A root can show up in two ways along a grid scan that starts
positive: as a sign change (refined by bisection) or as a dip that touches
zero between samples without a nonpositive sample (hunted down by recursive
subsampling around the running minimum).  Touch hunting is only attempted
where the sampled value is within one Lipschitz step of zero, which is the
widest a sub-grid excursion to zero can hide.

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


@dataclass(frozen=True)
class RootHit:
    t: float
    value: float
    kind: str  # "crossing" or "touch"


def _scalar(f_batch):
    def f(x: float) -> float:
        return float(np.asarray(f_batch(np.array([x])))[0])

    return f


def bisect_root(f, lo: float, hi: float, f_hi: float, xtol: float, ftol: float,
                max_iter: int = 200) -> tuple[float, float]:
    """Bisection on [lo, hi] with f(lo) > 0 >= f(hi).

    Keeps halving until the interval is below ``xtol`` and the best sampled
    |f| is below ``ftol`` (or floating point runs out); returns the evaluated
    point with the smallest |f|.
    """
    best_t, best_f = hi, f_hi
    for _ in range(max_iter):
        mid = 0.5 * (lo + hi)
        if not (lo < mid < hi):
            break
        fm = f(mid)
        if abs(fm) < abs(best_f):
            best_t, best_f = mid, fm
        if fm <= 0.0:
            hi = mid
        else:
            lo = mid
        if hi - lo <= xtol and abs(best_f) <= ftol:
            break
    return best_t, best_f


def _touch_hunt(f_batch, lo: float, hi: float, xtol: float, ftol: float,
                touch_tol: float, points: int = 33, max_rounds: int = 40,
                lipschitz: float | None = None):
    """Refine a bracket suspected of dipping to (or through) zero.

    Subsamples the bracket and recentres on the minimum.  Any nonpositive
    sample hands over to crossing bisection; otherwise the dip counts as a
    root only when the refined minimum is <= ``touch_tol``.  With
    ``lipschitz``, the hunt gives up as soon as one round's samples prove
    the curve stays above ``2 * touch_tol`` on the whole bracket (the second
    ``touch_tol`` absorbs rounding in the samples): every later round samples
    inside that bracket, so the full refinement would return None as well.
    """
    best_t = best_f = None
    for _ in range(max_rounds):
        ts = np.linspace(lo, hi, points)
        fs = np.asarray(f_batch(ts), dtype=float)
        neg = np.nonzero(fs <= 0.0)[0]
        if neg.size:
            j = max(int(neg[0]), 1)
            t, v = bisect_root(_scalar(f_batch), float(ts[j - 1]), float(ts[j]),
                               float(fs[j]), xtol, ftol)
            return RootHit(t, v, "crossing")
        if lipschitz is not None:
            # Lowest value a curve of slope <= lipschitz through the samples
            # can reach between two neighbours.
            floor = 0.5 * np.min(fs[:-1] + fs[1:] - lipschitz * np.diff(ts))
            if floor > 2.0 * touch_tol:
                return None
        m = int(np.argmin(fs))
        best_t, best_f = float(ts[m]), float(fs[m])
        width_floor = max(xtol, 4.0 * np.finfo(float).eps * max(abs(hi), 1.0))
        if hi - lo <= width_floor:
            break
        lo, hi = float(ts[max(m - 1, 0)]), float(ts[min(m + 1, points - 1)])
    if best_f is not None and best_f <= touch_tol:
        return RootHit(best_t, best_f, "touch")
    return None


def _touch_candidates(fs, window: float) -> np.ndarray:
    """Indices j, 1 <= j <= fs.size - 2, of local minima fs[j] <= ``window``.

    ``fs`` holds only samples before the first nonpositive one, so every
    candidate and both its neighbours are positive (NaN is never one)."""
    left, mid, right = fs[:-2], fs[1:-1], fs[2:]
    return np.flatnonzero((mid <= window) & (left >= mid) & (mid <= right)) + 1


def first_root(f_batch, ts, lipschitz: float | None = None,
               xtol: float = 1e-12, ftol: float = 1e-11,
               touch_tol: float = 1e-9, on_samples=None):
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
    in the same order, with the same bisection and touch hunts.  A hunt given
    ``lipschitz`` may stop early, but only where the full refinement would
    return None (see ``_touch_hunt``).
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
                                  xtol, ftol, touch_tol, lipschitz=lipschitz)
                if hit is not None:
                    return hit
        if neg.size:
            k = base + cross
            t, v = bisect_root(_scalar(f_batch), float(ts[k - 1]), float(ts[k]),
                               float(fs[cross]), xtol, ftol)
            return RootHit(t, v, "crossing")
        tail = fs[-2:]
        start, size = stop, min(2 * size, _MAX_BLOCK)
    # One-sided candidate at the horizon endpoint (tangency at the boundary);
    # every sample is positive here.
    if window is not None and tail[-1] <= window and tail[-1] <= tail[-2]:
        return _touch_hunt(f_batch, float(ts[-2]), float(ts[-1]), xtol, ftol, touch_tol,
                           lipschitz=lipschitz)
    return None
