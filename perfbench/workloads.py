"""The three workloads: seeded inputs, the operation the program runs on each,
and the reference check of its output.

A workload is a list of cases, one round.  A run repeats whole rounds, so
every run holds the same inputs in the same proportions.  Each case's
operation looks the package functions up through their modules at call
time, so the tracer's replacements are the ones called.

Cost classes are kept apart from the median and the 90th percentile: in
gap_scan every operation does the same work; in qubit_sweep the cheap
no-root rows sit below 3 % and the band and late-root rows above 93 % of
the sorted operation times; in theorem_trials every batch holds the same
dimensions.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass

import numpy as np

import reference
from orthotime import bounds, cli, discriminate, theorem

GAP_DIM = 8
GAP_CASES = 16

ORDINARY_ROWS = 72
BAND_ROWS = 4
EQUAL_NO_ROOT_ROWS = 2
EQUAL_ROOT_ROWS = 1
# The near-degenerate band: delta/S log-uniform over [1e-5, 1e-3], one row
# per equal stratum with its position jittered by +-BAND_JITTER of a stratum,
# and gamma = BAND_GAMMA +- BAND_JITTER.  Band cost grows about as
# (delta/S)^-0.9 and steeply with gamma (touch hunts), so fuller jitter would
# let one seed's band cost several times another's.
BAND_LOG10 = (-5.0, -3.0)
BAND_GAMMA = 0.4
BAND_JITTER = 0.1
LATE_ROOT_ROW = (0.3, 0.3, 1.0, 1.0 + 1e-7)
LATE_ROOT_FAULT = ("qubit_t_perp caps its scan at 5,000,000 samples, which aliases "
                   "the fast beat and returns a later root")

THEOREM_BATCHES = 40
PAIRS_PER_DIM = 2
THEOREM_DIMS = range(1, 7)
NEAR_CUT_PHASE = math.pi - 1e-12


@dataclass(frozen=True)
class Case:
    args: tuple
    known_fault: str | None = None


@dataclass(frozen=True)
class Workload:
    cases: list
    run: object        # Case -> program output
    summary: object    # output -> repr-able tuple; equal outputs give equal summaries
    check: object      # (Case, output) -> list of problems


def _hermitian(rng, dim):
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return 0.5 * (g + g.conj().T)


def _haar(rng, dim):
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(z)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def _digest(*arrays) -> str:
    h = hashlib.blake2b(digest_size=16)
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


# ---------------------------------------------------------------------------
# gap_scan
# ---------------------------------------------------------------------------

def gap_scan(seed: int) -> Workload:
    rng = np.random.default_rng([seed, 1])
    cases = [Case((_hermitian(rng, GAP_DIM), _hermitian(rng, GAP_DIM))) for _ in range(GAP_CASES)]

    def run(case):
        ha, hb = case.args
        result = discriminate.find_t_perp(ha, hb)
        if not isinstance(result, discriminate.DiscriminationResult):
            return result, None
        return result, bounds.bounds_report(ha, hb, result.state)

    def summary(out):
        result, report = out
        if report is None:
            return ("none", repr(result))
        return (result.t_perp, result.pair, result.residual, _digest(result.state),
                report.t_lb_span, report.t_lb_aa)

    def check(case, out):
        result, report = out
        if report is None:
            return [f"no orthogonality reported: {result!r}"]
        ha, hb = case.args
        return reference.check_gap_scan(ha, hb, result.t_perp, result.state,
                                        report.t_lb_span, report.t_lb_aa)

    return Workload(cases, run, summary, check)


# ---------------------------------------------------------------------------
# qubit_sweep
# ---------------------------------------------------------------------------

def _frequencies(rng, total, ratio):
    """Split total = wa + wb at wa/wb = ratio, larger side chosen at random."""
    big, small = total * ratio / (1.0 + ratio), total / (1.0 + ratio)
    return (big, small) if rng.random() < 0.5 else (small, big)


def qubit_cases(seed: int) -> list[Case]:
    rng = np.random.default_rng([seed, 2])
    rows = []
    # Latin hypercube over gamma in [0, pi] and log(wa/wb) in [log 1.25, log 5]:
    # the cost of an ordinary row depends on both, and stratifying both keeps
    # the median cost from drifting between seeds.
    ratio_strata = rng.permutation(ORDINARY_ROWS)
    for k in range(ORDINARY_ROWS):
        gamma = math.pi * (k + rng.random()) / ORDINARY_ROWS
        ratio = 1.25 * 4.0 ** ((ratio_strata[k] + rng.random()) / ORDINARY_ROWS)
        rows.append((gamma, *_frequencies(rng, rng.uniform(1.0, 4.0), ratio)))
    lo, hi = BAND_LOG10
    for k in range(BAND_ROWS):
        rel = 10.0 ** (lo + (hi - lo) * (k + 0.5 + BAND_JITTER * rng.uniform(-1, 1)) / BAND_ROWS)
        gamma = BAND_GAMMA + BAND_JITTER * rng.uniform(-1, 1)
        rows.append((gamma, *_frequencies(rng, rng.uniform(1.0, 4.0), (1.0 + rel) / (1.0 - rel))))
    for _ in range(EQUAL_NO_ROOT_ROWS):
        total = rng.uniform(1.0, 4.0)
        rows.append((rng.uniform(0.0, math.pi / 2 - 0.1), total / 2, total / 2))
    for _ in range(EQUAL_ROOT_ROWS):
        total = rng.uniform(1.0, 4.0)
        rows.append((rng.uniform(math.pi / 2 + 0.1, math.pi), total / 2, total / 2))
    cases = [Case((gamma, gamma, wa, wb)) for gamma, wa, wb in rows]
    cases.append(Case(LATE_ROOT_ROW, LATE_ROOT_FAULT))
    return cases


def qubit_sweep(seed: int) -> Workload:
    def run(case):
        return cli.qubit_sweep_row(*case.args)

    def summary(row):
        return (row.exists, row.t_perp_raw, row.t_perp_norm, row.t_lb_aa, row.t_lb_span,
                row.t_margolus)

    def check(case, row):
        _, gamma, wa, wb = case.args
        return reference.check_qubit_row(gamma, wa, wb, row.exists, row.t_perp_raw,
                                         row.t_lb_aa, row.t_lb_span)

    return Workload(qubit_cases(seed), run, summary, check)


# ---------------------------------------------------------------------------
# theorem_trials
# ---------------------------------------------------------------------------

def _near_cut(rng, dim):
    """Unitary with one eigenphase 1e-12 short of the branch point -1."""
    phases = rng.uniform(-3.0, 3.0, size=dim)
    phases[0] = NEAR_CUT_PHASE
    w = _haar(rng, dim)
    return (w * np.exp(1j * phases)) @ w.conj().T


def theorem_trials(seed: int) -> Workload:
    rng = np.random.default_rng([seed, 3])
    cases = []
    for k in range(THEOREM_BATCHES):
        trials = [("random", dim, int(rng.integers(2**63 - 1)), int(rng.integers(2**63 - 1)))
                  for dim in THEOREM_DIMS for _ in range(PAIRS_PER_DIM)]
        dim = 2 + k % 5
        near, other = _near_cut(rng, dim), _haar(rng, dim)
        u, v = [(near, other), (other, near), (other, other.conj().T @ near)][k % 3]
        trials.append(("given", u, v))
        cases.append(Case(tuple(trials)))

    def run(case):
        out = []
        for trial in case.args:
            if trial[0] == "random":
                _, dim, seed_u, seed_v = trial
                u = theorem.random_unitary(dim, seed_u)
                v = theorem.random_unitary(dim, seed_v)
            else:
                _, u, v = trial
                seed_u = None
            out.append((u, v, theorem.check_subadditivity(u, v, seed=seed_u)))
        return out

    def summary(out):
        return tuple((_digest(u, v), t.skipped, t.skip_reason, t.lhs, t.rhs, t.margin)
                     for u, v, t in out)

    def check(case, out):
        problems = []
        for i, (u, v, t) in enumerate(out):
            problems += [f"trial {i}: {p}" for p in
                         reference.check_trial(u, v, t.skipped, t.lhs, t.rhs, t.margin)]
        return problems

    return Workload(cases, run, summary, check)


WORKLOADS = {"gap_scan": gap_scan, "qubit_sweep": qubit_sweep, "theorem_trials": theorem_trials}
