"""The lazy block scan of ``_scan.first_root`` against a full-grid reference,
its early stop inside both engines, and the crossing refiner
``_scan.bisect_root`` against brentq and plain bisection."""

import sys

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

from orthotime import _scan, discriminate, qubit
from orthotime._scan import TOUCH_TOL, RootHit, _scalar, _touch_hunt, bisect_root, first_root
from helpers import random_hermitian

B = _scan._FIRST_BLOCK
N = 400  # blocks of a lazy scan from index 0: [0, B), [B, 3B), [3B, 7B), ...
STEP = 1.0 / (N - 1)
LIP = 10.0
WINDOW = LIP * STEP
# Grid indices inside blocks (the edges of a 64-point first block), then on
# both sides of the first two block edges of a scan from index 0.
EDGES = (63, 64, 65, 191, 192) + (B - 1, B, B + 1, 3 * B - 1, 3 * B)
XTOL, FTOL = 1e-12, 1e-11


def full_grid_first_root(f_batch, ts, lipschitz, xtol=XTOL, ftol=FTOL):
    """Reference: sample the whole grid, then walk it point by point.  A
    positive sampled local minimum is hunted when the Lipschitz floor
    (f_i + f_{i+1} - L h) / 2 of one of its two intervals is at most
    2 TOUCH_TOL; the last sample, if not above its left neighbour, is a
    minimum with its left interval only.  Touch hunts get an infinite
    Lipschitz bound, so they run every round."""
    ts = np.asarray(ts, dtype=float)
    n = ts.size
    fs = np.asarray(f_batch(ts), dtype=float)
    if fs[0] <= 0.0:
        raise ValueError("scan must start at a strictly positive sample")

    def low(i):  # the floor of the interval [ts[i], ts[i + 1]] is near zero
        return 0.5 * (fs[i] + fs[i + 1] - lipschitz * (ts[i + 1] - ts[i])) <= 2.0 * TOUCH_TOL

    for k in range(1, n):
        if k >= 2:
            j = k - 1
            minimum = fs[j - 1] >= fs[j] <= fs[k] and fs[j] > 0.0 and fs[k] > 0.0
            if minimum and (low(j - 1) or low(j)):
                hit = _touch_hunt(f_batch, float(ts[j - 1]), float(ts[k]), xtol, ftol, np.inf,
                                  _scalar(f_batch))
                if hit is not None:
                    return hit
        if fs[k] <= 0.0:
            t, v = bisect_root(_scalar(f_batch), float(ts[k - 1]), float(ts[k]),
                               float(fs[k - 1]), float(fs[k]), xtol, ftol)
            return RootHit(t, v, "crossing")
    if fs[-1] <= fs[-2] and low(n - 2):
        hit = _touch_hunt(f_batch, float(ts[-2]), float(ts[-1]), xtol, ftol, np.inf,
                          _scalar(f_batch))
        if hit is not None:
            return hit
    k = int(np.argmin(fs))
    return RootHit(float(ts[k]), float(fs[k]), "none")


def start_bound(f, lipschitz, n=N - 1):
    """A positive lower bound on f(0) no larger than the window of a scan of
    [0, 1] on n intervals: the scan then starts at index 0 with a first
    block of ``_FIRST_BLOCK`` points, the schedule the block-edge cases are
    built on."""
    return min(float(np.asarray(f(np.zeros(1)))[0]), lipschitz / n)


def grid(n=N):
    return np.linspace(0.0, 1.0, n)


def crossing_at(i, n=N):
    """Decreasing line whose first nonpositive sample is grid index i."""
    tc = grid(n)[i] - 0.3 / (n - 1)
    return lambda t: tc - np.asarray(t, dtype=float)


def dip_at(i, floor, shift=0.0, then_cross=None):
    """Parabola with its sampled minimum at index i and true minimum
    ``floor`` (negative floors dip below zero between positive samples),
    optionally multiplied by a line that crosses at ``then_cross``."""
    t0 = grid()[i] + shift * STEP
    tc = then_cross

    def f(t):
        t = np.asarray(t, dtype=float)
        out = 40.0 * (t - t0) ** 2 + floor
        return out * (tc - t) if tc is not None else out
    return f


def crossing_then_touch(i, gap):
    """Narrow dip whose first nonpositive sample is index i, and a touch dip
    at index i + gap: the crossing must win."""
    t0, t1 = grid()[i] + 0.25 * STEP, grid()[i + gap]
    return lambda t: ((40.0 * (np.asarray(t) - t0) ** 2 - 1e-4)
                      * (40.0 * (np.asarray(t) - t1) ** 2 + 1e-10))


def plateau_at(i, rising):
    """Piecewise-linear curve with equal samples 1e-10 at indices i and
    i + 1, a minimum from one side only.  Rising: up from 0.5e-10 before and
    up to 1 after, then down through zero at index 300.  Falling: down from 1
    before, and on down through zero at index i + 3."""
    vals = np.ones(N)
    if rising:
        vals[:i + 1] = np.linspace(0.5e-10, 1e-10, i + 1)
        vals[300:] = -1.0
    else:
        vals[:i + 1] = np.linspace(1.0, 1e-10, i + 1)
        vals[i + 2] = 0.5e-10
        vals[i + 3:] = -1.0
    vals[i + 1] = vals[i]
    return lambda t: np.interp(t, grid(), vals)


def with_subgrid_dip(vals, k):
    """Piecewise-linear curve through ``vals`` on the grid with one more node,
    of value 1e-10, halfway between grid indices k and k + 1."""
    ts = grid()
    xp = np.insert(ts, k + 1, 0.5 * (ts[k] + ts[k + 1]))
    fp = np.insert(vals, k + 1, 1e-10)
    return lambda t: np.interp(t, xp, fp)


CURVES = (
    [pytest.param(crossing_at(i), id=f"crossing-{i}") for i in EDGES]
    + [pytest.param(dip_at(i, 1e-10), id=f"touch-{i}") for i in EDGES]
    + [pytest.param(dip_at(i, 1e-10, shift=0.3), id=f"offgrid-touch-{i}") for i in EDGES]
    + [pytest.param(dip_at(i, -1e-5, shift=0.5), id=f"subgrid-crossing-{i}") for i in EDGES]
    + [pytest.param(dip_at(i, 0.5 * WINDOW, then_cross=0.9), id=f"near-miss-then-crossing-{i}")
       for i in EDGES]
    + [pytest.param(crossing_then_touch(i, gap), id=f"crossing-{i}-then-touch-{i + gap}")
       for i, gap in ((50, 10), (100, 10), (181, 10), (189, 3), (3 * B - 11, 10), (3 * B - 3, 3))]
    + [pytest.param(plateau_at(i, rising), id=f"plateau-{'rising' if rising else 'falling'}-{i}")
       for i in EDGES for rising in (True, False)]
    + [
        pytest.param(lambda t: 40.0 * (1.0 - np.asarray(t)) ** 2 + 1e-10, id="endpoint-touch"),
        pytest.param(lambda t: 40.0 * (1.0 - np.asarray(t)) ** 2 + 0.5 * WINDOW,
                     id="endpoint-near-miss"),
        # Not hunted: the endpoint sample is rising, or both interval floors
        # of the sampled minimum clear 2 TOUCH_TOL (the dip breaks the
        # Lipschitz bound).
        pytest.param(with_subgrid_dip(np.linspace(0.5e-3, 2e-3, N), N - 2), id="endpoint-rising"),
        pytest.param(with_subgrid_dip(2 * WINDOW + np.abs(grid() - grid()[64]), 64),
                     id="hidden-dip-64"),
        pytest.param(with_subgrid_dip(2 * WINDOW + np.abs(grid() - grid()[B]), B),
                     id=f"hidden-dip-{B}"),
        pytest.param(lambda t: 2.0 + np.sin(25.0 * np.asarray(t)), id="no-root"),
        pytest.param(dip_at(300, 0.5 * WINDOW), id="near-miss-no-root"),
    ]
)


@pytest.mark.parametrize("lipschitz", [LIP, None])
@pytest.mark.parametrize("f", CURVES)
def test_matches_full_grid_scan(f, lipschitz):
    lipschitz = 4 * LIP if lipschitz is None else lipschitz  # None: a four times looser bound
    ref = full_grid_first_root(f, grid(), lipschitz)
    assert first_root(f, 1.0, N - 1, lipschitz, XTOL, FTOL, start_bound(f, lipschitz)) == ref


@pytest.mark.parametrize("f", [dip_at(300, 0.5 * WINDOW),
                               lambda t: 40.0 * (1.0 - np.asarray(t)) ** 2 + 0.5 * WINDOW],
                         ids=["interior", "endpoint"])
def test_near_miss_dip_is_not_hunted(f, monkeypatch):
    # The sampled minimum lies half a window above zero, and both interval
    # floors, 20 STEP**2 = 1.3e-4, clear 2 TOUCH_TOL: no hunt.
    hunted = []
    hunt = _scan._touch_hunt
    monkeypatch.setattr(_scan, "_touch_hunt", lambda f_batch, lo, hi, *args: (
        hunted.append((lo, hi)) or hunt(f_batch, lo, hi, *args)))
    hit = first_root(f, 1.0, N - 1, LIP, XTOL, FTOL, start_bound(f, LIP))
    assert hit.kind == "none"
    assert hunted == []


@pytest.mark.parametrize("f, kind", [(crossing_at(i), "crossing") for i in EDGES]
                         + [(dip_at(i, 1e-10), "touch") for i in EDGES]
                         + [(dip_at(i, -1e-5, shift=0.5), "crossing") for i in EDGES])
def test_block_edge_roots_are_found(f, kind):
    hit = first_root(f, 1.0, N - 1, LIP, XTOL, FTOL, start_bound(f, LIP))
    assert hit.kind == kind


# Grids of n points; B - 1 points always fit the first block.
@pytest.mark.parametrize("n", [2, 3, 20, 63, B - 1])
@pytest.mark.parametrize("has_root", [True, False])
def test_grid_shorter_than_first_block(n, has_root):
    f = crossing_at(n - 1, n) if has_root else (lambda t: 1.0 + np.asarray(t))
    ref = full_grid_first_root(f, grid(n), LIP)
    assert first_root(f, 1.0, n - 1, LIP, XTOL, FTOL, start_bound(f, LIP, n=n - 1)) == ref
    assert (ref.kind != "none") == has_root


def test_block_cap_is_respected():
    n = 200_000
    ts = grid(n)
    edge, size = 0, B  # the schedule reaches its cap at grid index edge
    while size < _scan._MAX_BLOCK:
        edge, size = edge + size, 2 * size
    cap1, cap2 = edge + _scan._MAX_BLOCK, edge + 2 * _scan._MAX_BLOCK
    assert cap2 < n
    for i in (cap1 - 1, cap1, cap1 + 1, cap2):
        f = crossing_at(i, n)
        sizes = []

        def counted(t, f=f):
            sizes.append(np.size(t))
            return f(t)

        hit = first_root(counted, 1.0, n - 1, LIP, XTOL, FTOL, start_bound(f, LIP, n=n - 1))
        assert hit == full_grid_first_root(f, ts, LIP)
        assert max(sizes) == _scan._MAX_BLOCK


# (t_end / n) * n is not t_end for (0.1, 200000), (7.965, 63) and (7.299, 65),
# and overflows for (float max, 63) and (float max, 15), which the suite's
# error::RuntimeWarning filter turns into a failure.
@pytest.mark.parametrize("n", [1, 63, 64, 65, 200_000, B - 1, B, B + 1])
@pytest.mark.parametrize("t_end", [1.0, 0.1, 7.965, 7.299, np.pi * 1e7, sys.float_info.max])
def test_abscissae_are_the_linspace_grid(n, t_end):
    blocks = []

    def rising(t):
        blocks.append(t.copy())
        return 1.0 + t

    hit = first_root(rising, t_end, n, LIP, XTOL, FTOL, min(1.0, LIP * t_end / n))
    assert hit == RootHit(0.0, 1.0, "none")
    with np.errstate(over="ignore"):  # np.linspace itself may overflow near the float maximum
        grid = np.linspace(0.0, t_end, n + 1)
    # Bit for bit, so also at every block edge and at the last point.
    assert np.concatenate(blocks).tobytes() == grid.tobytes()


@pytest.mark.parametrize("floor", [-1e-5, 1e-10, 5e-10, 1e-9, 1.5e-9, 3e-9, 1e-6, 1e-3])
@pytest.mark.parametrize("shift", [0.0, 0.3])
def test_touch_hunt_early_exit_matches_full_refinement(floor, shift):
    f = dip_at(200, floor, shift=shift)
    lo, hi = grid()[199], grid()[201]
    full = _touch_hunt(f, lo, hi, 1e-12, 1e-11, np.inf, _scalar(f))
    assert _touch_hunt(f, lo, hi, 1e-12, 1e-11, LIP, _scalar(f)) == full


def test_touch_hunt_gives_up_once_the_dip_clears_the_tolerance():
    f = dip_at(200, 1e-3, shift=0.3)
    rounds = {}
    for lipschitz in (LIP, np.inf):
        sizes = []

        def counted(t):
            sizes.append(np.size(t))
            return f(t)

        assert _touch_hunt(counted, grid()[199], grid()[201], 1e-12, 1e-11, lipschitz,
                           _scalar(counted)) is None
        rounds[lipschitz] = len(sizes)
    assert rounds[LIP] == 1 < rounds[np.inf]


@pytest.mark.parametrize("f", [lambda t: np.asarray(t) - 0.5, lambda t: 0.0 * np.asarray(t)])
def test_nonpositive_first_sample_raises(f):
    # A start bound of one window claims a positive start that the curve
    # breaks; the scan starts at index 0 and rejects that sample.
    with pytest.raises(ValueError):
        full_grid_first_root(f, grid(), LIP)
    with pytest.raises(ValueError, match="scan must start at a strictly positive sample"):
        first_root(f, 1.0, N - 1, LIP, XTOL, FTOL, WINDOW)


class _Counter:
    """Counts the scan-grid points an evaluator sees.  A grid block holds
    only grid points; refinement (bisection, touch hunts) evaluates points
    between them."""

    def __init__(self):
        self.grid = None
        self.grid_points = 0

    def capture_grid(self, scan):
        def wrapped(f_batch, t_end, n, *args, **kwargs):
            self.grid = np.linspace(0.0, t_end, n + 1)
            return scan(f_batch, t_end, n, *args, **kwargs)
        return wrapped

    def count(self, t):
        if self.grid is not None and np.isin(t, self.grid).all():
            self.grid_points += np.size(t)

    def assert_stopped_early(self, t_root):
        idx = int(np.searchsorted(self.grid, t_root))
        assert idx < 0.05 * self.grid.size
        # The block holding grid index idx starts at or before idx and is at
        # most idx + _FIRST_BLOCK long.
        assert self.grid_points <= idx + (idx + _scan._FIRST_BLOCK)


def test_find_t_perp_stops_at_first_root(monkeypatch):
    counter = _Counter()
    margin = discriminate._EvolutionPair.gap_margin

    def gap_margin(self, ts):
        counter.count(ts)
        return margin(self, ts)

    monkeypatch.setattr(discriminate._EvolutionPair, "gap_margin", gap_margin)
    monkeypatch.setattr(discriminate, "first_root", counter.capture_grid(discriminate.first_root))
    rng = np.random.default_rng(5)
    out = discriminate.find_t_perp(random_hermitian(rng, 6), random_hermitian(rng, 6))
    assert isinstance(out, discriminate.DiscriminationResult)
    counter.assert_stopped_early(out.t_perp)


def test_qubit_t_perp_stops_at_first_root(monkeypatch):
    counter = _Counter()
    criterion = qubit.criterion

    def counted(gamma, omega_a, omega_b, t):
        counter.count(t)
        return criterion(gamma, omega_a, omega_b, t)

    monkeypatch.setattr(qubit, "criterion", counted)
    monkeypatch.setattr(qubit, "first_root", counter.capture_grid(qubit.first_root))
    # gamma just below pi/2 and a slow beat: the fast term gives a root near
    # pi/(wa + wb), about 2.4 % into the horizon pi/|wa - wb|.
    t = qubit.qubit_t_perp(np.pi / 2 - 0.001, 1.0, 1.05)
    assert t is not None
    counter.assert_stopped_early(t)


def test_band_row_hunts_only_brackets_with_a_low_floor(monkeypatch):
    # The near-degenerate row gamma = 1.4, delta/S = 1e-5 samples many shallow
    # local minima; each one handed to the touch hunt has an interval floor
    # (f_i + f_{i+1} - L h) / 2 of at most 2 TOUCH_TOL on the scan grid.
    gamma, wa, wb = 1.4, 1.0 + 1e-5, 1.0 - 1e-5
    scans, brackets = [], []
    scan, hunt = qubit.first_root, _scan._touch_hunt

    def recorded_scan(f_batch, t_end, n, lipschitz, *args, **kwargs):
        scans.append((t_end, n, lipschitz))
        return scan(f_batch, t_end, n, lipschitz, *args, **kwargs)

    def recorded_hunt(f_batch, lo, hi, *args):
        brackets.append((lo, hi))
        return hunt(f_batch, lo, hi, *args)

    monkeypatch.setattr(qubit, "first_root", recorded_scan)
    monkeypatch.setattr(_scan, "_touch_hunt", recorded_hunt)
    assert qubit.qubit_t_perp(gamma, wa, wb) is not None
    ((t_end, n, lipschitz),) = scans
    ts = np.linspace(0.0, t_end, n + 1)
    lo = np.array([b[0] for b in brackets])
    j = np.searchsorted(ts, lo) + 1  # the sampled minimum
    assert j.size > 100 and (ts[j - 1] == lo).all()
    fs = qubit.criterion(gamma, wa, wb, ts)
    left = 0.5 * (fs[j - 1] + fs[j] - lipschitz * (ts[j] - ts[j - 1]))
    inner = np.minimum(j + 1, n)
    right = np.where(j < n, 0.5 * (fs[j] + fs[inner] - lipschitz * (ts[inner] - ts[j])), np.inf)
    assert (np.minimum(left, right) <= 2.0 * TOUCH_TOL).all()


# ---------------------------------------------------------------------------
# Certified start: f >= f0 - L t clears a prefix of the grid
# ---------------------------------------------------------------------------

def f0_for_start(s, n=N - 1, lipschitz=LIP, t_end=1.0):
    """A start value f0 for which the scan, on n intervals over [0, t_end]
    with slope bound ``lipschitz``, starts at grid index s: f0 / window lies
    half-way between s + 2 and s + 3, so ceil(clear / step) - 1 = s + 1."""
    return (s + 2.5) * lipschitz * (t_end / n)


class _Recorder:
    """Wraps a curve and keeps every abscissa and batch size it is given."""

    def __init__(self, f):
        self.f = f
        self.ts = []
        self.sizes = []

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        self.ts.append(t.ravel().copy())
        self.sizes.append(t.size)
        return self.f(t)

    def points(self):
        return np.concatenate(self.ts)


def scan_both(f, lipschitz, f0, n=N - 1, t_end=1.0):
    """(first_root given f0, the full-grid walk, the points the scan evaluated)."""
    rec = _Recorder(f)
    hit = first_root(rec, t_end, n, lipschitz, XTOL, FTOL, f0=f0)
    ref = full_grid_first_root(f, np.linspace(0.0, t_end, n + 1), lipschitz)
    return hit, ref, rec


@settings(max_examples=300, deadline=None)
@given(amps=st.lists(st.floats(0.05, 1.0), min_size=1, max_size=3),
       freqs=st.lists(st.floats(0.5, 20.0), min_size=3, max_size=3),
       phases=st.lists(st.floats(0.0, 2.0 * np.pi), min_size=3, max_size=3),
       offset=st.one_of(st.floats(-0.5, 2.0), st.none()), slack=st.floats(1.0, 2.0),
       n=st.integers(20, 800), t_end=st.floats(0.1, 10.0))
def test_certified_start_matches_full_grid_scan(amps, freqs, phases, offset, slack, n, t_end):
    """A sum of sinusoids with its slope bound (times a slack >= 1), scanned
    from its exact start value: the same RootHit as the full-grid walk.  A
    None offset lifts the curve's sampled minimum (21 samples per grid step)
    to 1e-10, so it dips to about zero: a touch or a shallow crossing."""
    terms = list(zip(amps, freqs, phases))

    def wave(t):
        t = np.asarray(t, dtype=float)
        return sum(a * np.cos(w * t + ph) for a, w, ph in terms)

    if offset is None:
        offset = 1e-10 - wave(np.linspace(0.0, t_end, 20 * n + 1)).min()
    f = lambda t: offset + wave(t)  # noqa: E731
    f0 = float(f(np.zeros(1))[0])
    assume(f0 > 0.0)
    lipschitz = slack * sum(a * w for a, w, _ in terms)
    hit, ref, _ = scan_both(f, lipschitz, f0, n, t_end)
    assert hit == ref


S = 40  # certified start of the fixed cases below: the scan skips the indices below S


def test_root_at_the_first_uncertified_index():
    # Samples f0 up to index S, then -1 from S + 1 = k, the first index the
    # bound does not clear: the scan's first block starts at S, the crossing's
    # left neighbour.
    f0 = f0_for_start(S)
    vals = np.where(np.arange(N) <= S, f0, -1.0)
    hit, ref, rec = scan_both(lambda t: np.interp(t, grid(), vals), LIP, f0)
    assert hit == ref and hit.kind == "crossing"
    assert grid()[S] <= hit.t <= grid()[S + 1]
    assert rec.points().min() == grid()[S]


@pytest.mark.parametrize("shape", ["line", "vee"])
def test_earliest_root_the_slope_bound_allows(shape):
    # Falling at exactly the bound from f0 reaches zero at f0 / L, 2.5 steps
    # past the start: a crossing (line), or a touch 1e-10 above zero (vee,
    # which turns back up there).
    f0 = f0_for_start(S)

    def f(t):
        drop = f0 - LIP * np.asarray(t, dtype=float)
        return drop if shape == "line" else np.abs(drop) + 1e-10

    hit, ref, rec = scan_both(f, LIP, f0)
    assert hit == ref and hit.kind == ("crossing" if shape == "line" else "touch")
    assert hit.t == pytest.approx(f0 / LIP, abs=1e-9)
    assert rec.points().min() == grid()[S]  # nothing below the start is evaluated


@pytest.mark.parametrize("c, w, kind", [(2.0, 3.0, "none"), (0.5, 3.0, "crossing"),
                                         (1.0 + 1e-10, np.pi, "touch")])
def test_certified_prefix_is_evaluated_only_without_a_root(c, w, kind):
    # c + cos(w t) on [0, 1], with slope bound w: no root, a crossing at
    # 2 pi / 9, a touch at the horizon end.
    f = lambda t: c + np.cos(w * np.asarray(t))  # noqa: E731
    f0 = c + 1.0
    hit, ref, rec = scan_both(f, w, f0)
    assert hit == ref and hit.kind == kind
    start = grid()[int(np.ceil(f0 / (w * STEP))) - 3]
    assert start > 0.0
    if kind == "none":
        # Every grid point is sampled once, the prefix after the rest.
        assert np.sort(rec.points()).tobytes() == grid().tobytes()
    else:
        assert rec.points().min() == start


def test_rootless_minimum_in_the_skipped_prefix():
    # 3 + cos(5 t) on [0, 1]: the bound clears t < 4/5 - 2 steps, and the
    # minimum 2 at t = pi/5 lies there.
    f = lambda t: 3.0 + np.cos(5.0 * np.asarray(t))  # noqa: E731
    hit, ref, _ = scan_both(f, 5.0, 4.0)
    assert hit == ref and hit.kind == "none"
    assert hit.t == grid()[int(np.argmin(f(grid())))] < 0.7


def test_rootless_tie_goes_to_the_earlier_prefix_sample():
    # Equal lowest samples at index 10 (skipped) and index 300 (scanned).
    vals = np.full(N, 2.0)
    vals[[10, 300]] = 1.5
    hit, ref, _ = scan_both(lambda t: np.interp(t, grid(), vals), LIP, f0_for_start(S))
    assert hit == ref == RootHit(float(grid()[10]), 1.5, "none")


@pytest.mark.parametrize("offset", [-2, -1, 0, 1, 5])
def test_prefix_covering_the_whole_grid(offset):
    # f0 - L t, rootless on [0, 1]; the start s = n + offset reaches the end
    # of the grid: at n - 2 the falling endpoint, half a window above zero,
    # is a local minimum whose floor, also half a window, clears
    # 2 TOUCH_TOL; at n - 1 two points are scanned, at n one, beyond none.
    # Every grid point is sampled, the skipped ones last.
    n = 11
    f0 = f0_for_start(n + offset, n=n)
    f = lambda t: f0 - LIP * np.asarray(t, dtype=float)  # noqa: E731
    hit, ref, rec = scan_both(f, LIP, f0, n=n)
    assert hit == ref == RootHit(1.0, float(f(1.0)), "none")
    assert np.isin(np.linspace(0.0, 1.0, n + 1), rec.points()).all()


def test_window_below_twice_the_touch_tolerance_certifies_nothing():
    # Slope bound 1e-9 on 10 intervals: with a window of 1e-10 every floor
    # stays near zero, and the dip to 5e-10 at t = 0.5, a touch, lies where
    # f0 - L t alone would clear the grid.
    f = lambda t: 5e-10 + 1e-9 * np.abs(np.asarray(t, dtype=float) - 0.5)  # noqa: E731
    hit, ref, rec = scan_both(f, 1e-9, 1e-9, n=10)
    assert hit == ref and hit.kind == "touch" and hit.t == pytest.approx(0.5)
    assert rec.points().min() == 0.0


def test_rootless_prefix_longer_than_the_block_cap():
    # A slow two-beat curve 0.9 cos(1e-3 t) + 0.1 cos(2 t) >= 0.8 on [0, 8],
    # with slope bound 0.9e-3 + 0.2: the certified prefix of the 200000-interval
    # grid is 124438 points, and the scan finds no root.
    n, t_end, weights, beats = 200_000, 8.0, (0.9, 0.1), (1e-3, 2.0)
    lipschitz = weights[0] * beats[0] + weights[1] * beats[1]

    def f(t):
        return qubit._two_beats(weights, beats, np.asarray(t, dtype=float))

    hit, ref, rec = scan_both(f, lipschitz, 1.0, n=n, t_end=t_end)
    assert hit == ref and hit.kind == "none"
    assert max(rec.sizes) <= _scan._MAX_BLOCK
    prefix = int(np.ceil(1.0 / (lipschitz * t_end / n))) - 3
    assert _scan._MAX_BLOCK < prefix < n
    assert rec.points().size == n + 1


def test_nonpositive_start_value_raises():
    calls = []
    for f0 in (0.0, -1.0, float("nan")):
        with pytest.raises(ValueError, match="scan must start strictly positive"):
            first_root(lambda t: calls.append(t) or np.ones(np.size(t)), 1.0, 10, LIP, XTOL,
                       FTOL, f0=f0)
    assert not calls


# ---------------------------------------------------------------------------
# Crossing refinement
# ---------------------------------------------------------------------------

ROOT = 0.3 + 1.0 / 7.0  # not a dyadic fraction, so bisection never lands on it


def plain_bisection_evals(f, lo, hi, f_hi, xtol, ftol):
    """Evaluations plain bisection makes under the refiner's stop rule: the
    reference for the refiner's worst case."""
    best_f, evals = f_hi, 0
    for _ in range(_scan._MAX_EVALS):
        mid = 0.5 * (lo + hi)
        if not (lo < mid < hi):
            break
        fm = f(mid)
        evals += 1
        best_f = fm if abs(fm) < abs(best_f) else best_f
        lo, hi = (lo, mid) if fm <= 0.0 else (mid, hi)
        if hi - lo <= xtol and abs(best_f) <= ftol:
            break
    return evals


def gap_margin_bracket():
    """A grid bracket of the first sign change of a seeded d = 8 gap margin,
    with find_t_perp's default horizon and tolerances."""
    rng = np.random.default_rng(3)
    pair = discriminate._EvolutionPair(random_hermitian(rng, 8), random_hermitian(rng, 8))
    t_max = 100.0 * np.pi / pair.lipschitz
    ts = np.linspace(0.0, t_max, 2001)
    k = int(np.flatnonzero(pair.gap_margin(ts) <= 0.0)[0])
    return (_scalar(pair.gap_margin), float(ts[k - 1]), float(ts[k]), 1e-10 * t_max,
            discriminate.GAP_FTOL)


def qubit_noise_bracket():
    """A grid bracket of qubit_t_perp(0.3, 1, 1 + 1e-7) near t = 1.57e7: the
    criterion's rounding noise (about 1e-10, from the 3.7e-9 float spacing of
    (wa + wb) t) exceeds its ftol of 1e-13."""
    gamma, wa, wb = 0.3, 1.0, 1.0 + 1e-7
    horizon, n = np.pi / (wb - wa), 5_000_000
    ts = horizon * np.arange(2_450_000, 2_550_000) / n
    k = int(np.flatnonzero(qubit.criterion(gamma, wa, wb, ts) <= 0.0)[0])
    return (lambda t: float(qubit.criterion(gamma, wa, wb, t)), float(ts[k - 1]), float(ts[k]),
            qubit.REFINE_REL_TOL * horizon, qubit.REFINE_FTOL)


def unit_bracket(f):
    return f, 0.0, 1.0, 1e-12, 1e-11


SMOOTH = {
    "line": lambda: unit_bracket(lambda t: ROOT - t),
    "cos": lambda: unit_bracket(lambda t: np.cos(3.0 * t)),
    "gap-margin-d8": gap_margin_bracket,
}
ADVERSARIAL = {
    "triple-root": lambda: unit_bracket(lambda t: -(t - ROOT) ** 3),
    "step": lambda: unit_bracket(lambda t: 1.0 if t < ROOT else -1.0),
    "steep-tanh": lambda: unit_bracket(lambda t: -np.tanh(1e6 * (t - ROOT))),
    "sqrt-kink": lambda: unit_bracket(lambda t: np.sign(ROOT - t) * np.sqrt(abs(ROOT - t))),
    "qubit-noise": qubit_noise_bracket,
}


def refine_logged(f, lo, hi, xtol, ftol):
    evals = []

    def logged(x):
        fx = f(x)
        evals.append((x, fx))
        return fx

    t, v = bisect_root(logged, lo, hi, f(lo), f(hi), xtol, ftol)
    return t, v, evals


@pytest.mark.parametrize("name", list(SMOOTH) + list(ADVERSARIAL))
def test_refiner_brackets_and_converges(name):
    f, lo, hi, xtol, ftol = {**SMOOTH, **ADVERSARIAL}[name]()
    t, v, evals = refine_logged(f, lo, hi, xtol, ftol)
    # Every evaluation lies strictly inside the bracket of the moment, and
    # the bracket stays on bisection's schedule, _SLACK evaluations behind.
    a, b = lo, hi
    for k, (x, fx) in enumerate(evals, start=1):
        assert a < x < b
        a, b = (a, x) if fx <= 0.0 else (x, b)
        assert b - a <= (hi - lo) * 2.0 ** (_scan._SLACK - k) + 4 * np.spacing(hi)
    assert f(a) > 0.0 >= f(b)
    # The result is the evaluated point with the smallest |f|.
    assert (t, v) in evals + [(hi, f(hi))]
    assert abs(v) == min(abs(fx) for _, fx in evals + [(hi, f(hi))])
    assert lo <= t <= hi
    root = brentq(f, lo, hi, xtol=1e-300, rtol=4 * np.finfo(float).eps, maxiter=500)
    # Within xtol of the root, or at an end of a bracket one ulp wide (where
    # |f| cannot reach ftol).
    assert abs(t - root) <= xtol or (t in (a, b) and np.nextafter(a, b) == b)


@pytest.mark.parametrize("name", SMOOTH)
def test_refiner_is_fast_on_smooth_crossings(name):
    f, lo, hi, xtol, ftol = SMOOTH[name]()
    assert len(refine_logged(f, lo, hi, xtol, ftol)[2]) <= 8


@pytest.mark.parametrize("name", ADVERSARIAL)
def test_refiner_stays_within_twice_bisection(name):
    f, lo, hi, xtol, ftol = ADVERSARIAL[name]()
    evals = len(refine_logged(f, lo, hi, xtol, ftol)[2])
    assert evals <= 2 * plain_bisection_evals(f, lo, hi, f(hi), xtol, ftol)
    assert evals < _scan._MAX_EVALS


def test_refiner_converges_on_a_bracket_near_the_float_maximum():
    # The midpoint of 1e308 and 1.7e308 is finite, but their sum is not.
    t, _ = bisect_root(lambda x: (1.5e308 - x) / 1e308, 1e308, 1.7e308, 0.5, -0.2, 1e296, 1e-11)
    assert abs(t - 1.5e308) <= 1e296


@pytest.mark.parametrize("f_lo, f_hi", [(2.0, 3.0), (0.0, -1.0), (-1.0, -2.0), (1.0, 1e-300),
                                        (float("nan"), -1.0), (1.0, float("nan"))])
def test_refiner_rejects_a_bracket_without_a_sign_change(f_lo, f_hi):
    calls = []
    with pytest.raises(ValueError):
        bisect_root(lambda x: calls.append(x) or 1.0 + x, 1.0, 2.0, f_lo, f_hi, 1e-12, 1e-11)
    assert not calls


def test_touch_hunt_returns_a_nonpositive_first_subsample_as_the_crossing():
    # Nonpositive at exactly lo and positive everywhere else: the crossing is
    # lo itself, not a refinement of a bracket with no sign change.
    def f(t):
        t = np.asarray(t, dtype=float)
        return np.where(t == 1.0, -1e-16, 1e-3 + (t - 1.0))

    hit = _touch_hunt(f, 1.0, 1.05, 1e-12, 1e-11, LIP, _scalar(f))
    assert hit == RootHit(1.0, -1e-16, "crossing")


class _PointCounter:
    """Counts the one-point evaluations (the crossing refinement's) an
    evaluator sees."""

    def __init__(self, fn):
        self.fn = fn
        self.points = 0

    def __call__(self, *args):
        if np.size(args[-1]) == 1:
            self.points += 1
        return self.fn(*args)


def test_find_t_perp_refines_with_few_margin_evaluations(monkeypatch):
    counter = _PointCounter(discriminate._EvolutionPair.gap_margin)
    monkeypatch.setattr(discriminate._EvolutionPair, "gap_margin",
                        lambda self, ts: counter(self, ts))
    rng = np.random.default_rng(1)
    out = discriminate.find_t_perp(random_hermitian(rng, 8), random_hermitian(rng, 8))
    assert isinstance(out, discriminate.DiscriminationResult)
    assert 0 < counter.points <= 10


@pytest.mark.parametrize("row", [(1.0, 3.0, 1.0), (0.5, 2.0, 1.0), (2.0, 1.0, 1.5)])
def test_qubit_t_perp_refines_with_few_criterion_evaluations(monkeypatch, row):
    counter = _PointCounter(qubit.criterion)
    monkeypatch.setattr(qubit, "criterion", counter)
    assert qubit.qubit_t_perp(*row) is not None
    assert 0 < counter.points <= 12
