"""The lazy block scan of ``_scan.first_root`` against a full-grid reference,
and its early stop inside both engines."""

import numpy as np
import pytest

from orthotime import _scan, discriminate, qubit
from orthotime._scan import RootHit, _scalar, _touch_hunt, bisect_root, first_root
from helpers import random_hermitian

N = 400  # blocks of the lazy scan: [0, 64), [64, 192), [192, 448)
STEP = 1.0 / (N - 1)
LIP = 10.0
WINDOW = LIP * STEP
EDGES = (63, 64, 65, 191, 192)


def full_grid_first_root(f_batch, ts, lipschitz=None, xtol=1e-12, ftol=1e-11,
                         touch_tol=1e-9):
    """Reference: sample the whole grid, then walk it point by point."""
    ts = np.asarray(ts, dtype=float)
    n = ts.size
    if n < 2:
        return None
    fs = np.asarray(f_batch(ts), dtype=float)
    if fs[0] <= 0.0:
        raise ValueError("scan must start at a strictly positive sample")
    step = (ts[-1] - ts[0]) / (n - 1)
    window = lipschitz * step if lipschitz is not None else None
    for k in range(1, n):
        if window is not None and k >= 2:
            j = k - 1
            if (0.0 < fs[j] <= window and fs[j - 1] >= fs[j] <= fs[k]
                    and fs[j - 1] > 0.0 and fs[k] > 0.0):
                hit = _touch_hunt(f_batch, float(ts[j - 1]), float(ts[k]),
                                  xtol, ftol, touch_tol)
                if hit is not None:
                    return hit
        if fs[k] <= 0.0:
            t, v = bisect_root(_scalar(f_batch), float(ts[k - 1]), float(ts[k]),
                               float(fs[k]), xtol, ftol)
            return RootHit(t, v, "crossing")
    if window is not None and 0.0 < fs[-1] <= window and fs[-1] <= fs[-2]:
        return _touch_hunt(f_batch, float(ts[-2]), float(ts[-1]), xtol, ftol, touch_tol)
    return None


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
       for i, gap in ((50, 10), (100, 10), (181, 10), (189, 3))]
    + [pytest.param(plateau_at(i, rising), id=f"plateau-{'rising' if rising else 'falling'}-{i}")
       for i in EDGES for rising in (True, False)]
    + [
        pytest.param(lambda t: 40.0 * (1.0 - np.asarray(t)) ** 2 + 1e-10, id="endpoint-touch"),
        pytest.param(lambda t: 40.0 * (1.0 - np.asarray(t)) ** 2 + 0.5 * WINDOW,
                     id="endpoint-near-miss"),
        # Not hunted: the endpoint sample is rising, or the sampled minimum
        # is above the window (the dip breaks the Lipschitz bound).
        pytest.param(with_subgrid_dip(np.linspace(0.5e-3, 2e-3, N), N - 2), id="endpoint-rising"),
        pytest.param(with_subgrid_dip(2 * WINDOW + np.abs(grid() - grid()[64]), 64),
                     id="hidden-dip-64"),
        pytest.param(lambda t: 2.0 + np.sin(25.0 * np.asarray(t)), id="no-root"),
        pytest.param(dip_at(300, 0.5 * WINDOW), id="near-miss-no-root"),
    ]
)


@pytest.mark.parametrize("lipschitz", [LIP, None])
@pytest.mark.parametrize("f", CURVES)
def test_matches_full_grid_scan(f, lipschitz):
    ts = grid()
    ref = full_grid_first_root(f, ts, lipschitz=lipschitz)
    assert first_root(f, ts, lipschitz=lipschitz) == ref


@pytest.mark.parametrize("f, kind", [(crossing_at(i), "crossing") for i in EDGES]
                         + [(dip_at(i, 1e-10), "touch") for i in EDGES]
                         + [(dip_at(i, -1e-5, shift=0.5), "crossing") for i in EDGES])
def test_block_edge_roots_are_found(f, kind):
    hit = first_root(f, grid(), lipschitz=LIP)
    assert hit is not None and hit.kind == kind


@pytest.mark.parametrize("n", [1, 2, 3, 20, 63])
@pytest.mark.parametrize("has_root", [True, False])
def test_grid_shorter_than_first_block(n, has_root):
    ts = grid(n)
    f = crossing_at(n - 1, n) if has_root and n > 1 else (lambda t: 1.0 + np.asarray(t))
    ref = full_grid_first_root(f, ts, lipschitz=LIP)
    assert first_root(f, ts, lipschitz=LIP) == ref
    assert (ref is not None) == (has_root and n > 1)


def test_block_cap_is_respected():
    n = 200_000  # the schedule reaches its cap of 65536 at index 65472
    ts = grid(n)
    for i in (131007, 131008, 131009, 196544):
        f = crossing_at(i, n)
        sizes = []

        def counted(t, f=f):
            sizes.append(np.size(t))
            return f(t)

        assert first_root(counted, ts, lipschitz=LIP) == full_grid_first_root(f, ts, lipschitz=LIP)
        assert max(sizes) == _scan._MAX_BLOCK


@pytest.mark.parametrize("floor", [-1e-5, 1e-10, 5e-10, 1e-9, 1.5e-9, 3e-9, 1e-6, 1e-3])
@pytest.mark.parametrize("shift", [0.0, 0.3])
def test_touch_hunt_early_exit_matches_full_refinement(floor, shift):
    f = dip_at(200, floor, shift=shift)
    lo, hi = grid()[199], grid()[201]
    full = _touch_hunt(f, lo, hi, 1e-12, 1e-11, 1e-9)
    assert _touch_hunt(f, lo, hi, 1e-12, 1e-11, 1e-9, lipschitz=LIP) == full


def test_touch_hunt_gives_up_once_the_dip_clears_the_tolerance():
    f = dip_at(200, 1e-3, shift=0.3)
    rounds = {}
    for lipschitz in (LIP, None):
        sizes = []

        def counted(t):
            sizes.append(np.size(t))
            return f(t)

        assert _touch_hunt(counted, grid()[199], grid()[201], 1e-12, 1e-11, 1e-9,
                           lipschitz=lipschitz) is None
        rounds[lipschitz] = len(sizes)
    assert rounds[LIP] == 1 < rounds[None]


@pytest.mark.parametrize("f", [lambda t: np.asarray(t) - 0.5, lambda t: 0.0 * np.asarray(t)])
def test_nonpositive_first_sample_raises(f):
    with pytest.raises(ValueError):
        full_grid_first_root(f, grid())
    with pytest.raises(ValueError):
        first_root(f, grid())


class _Counter:
    """Counts the scan-grid points an evaluator sees.  Grid blocks are slices
    of the grid; refinement (bisection, touch hunts) passes fresh arrays."""

    def __init__(self):
        self.grid = None
        self.grid_points = 0

    def capture_grid(self, scan):
        def wrapped(f_batch, ts, *args, **kwargs):
            self.grid = ts
            return scan(f_batch, ts, *args, **kwargs)
        return wrapped

    def count(self, t):
        if self.grid is not None and np.shares_memory(t, self.grid):
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
