"""Each reference checker must reject a planted wrong answer.

Run from the repository root:  python3 -m pytest perfbench -q
"""

import math
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import reference  # noqa: E402
import workloads  # noqa: E402
from orthotime import bounds, cli, discriminate, theorem  # noqa: E402


def _random_hermitian(rng, dim):
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return 0.5 * (g + g.conj().T)


@pytest.fixture(scope="module")
def gap_case():
    rng = np.random.default_rng(5)
    ha, hb = _random_hermitian(rng, 8), _random_hermitian(rng, 8)
    result = discriminate.find_t_perp(ha, hb)
    report = bounds.bounds_report(ha, hb, result.state)
    return ha, hb, result, report


class TestGapScan:
    def test_accepts_program_answer(self, gap_case):
        ha, hb, r, rep = gap_case
        assert reference.check_gap_scan(ha, hb, r.t_perp, r.state, rep.t_lb_span, rep.t_lb_aa) == []

    @pytest.mark.parametrize("factor", [1.0 + 1e-4, 1.0 - 1e-4])
    def test_rejects_shifted_time(self, gap_case, factor):
        ha, hb, r, rep = gap_case
        problems = reference.check_gap_scan(ha, hb, r.t_perp * factor, r.state,
                                            rep.t_lb_span, rep.t_lb_aa)
        assert any("residual" in p for p in problems)

    def test_rejects_non_orthogonal_state(self, gap_case):
        ha, hb, r, rep = gap_case
        psi = np.random.default_rng(1).standard_normal(8) + 0j
        psi /= np.linalg.norm(psi)
        problems = reference.check_gap_scan(ha, hb, r.t_perp, psi, rep.t_lb_span, rep.t_lb_aa)
        assert any("residual" in p for p in problems)

    def test_rejects_later_root(self):
        # Anti-aligned pair: orthogonal at (2k + 1) pi / (2 (wa + wb)) with the
        # same state, so only the march can tell the second root from the first.
        wa, wb = 1.5, 0.5
        ha, hb = np.diag([wa, -wa, 0.0]) + 0j, np.diag([-wb, wb, 0.0]) + 0j
        psi = np.array([1.0, 1.0, 0.0]) / math.sqrt(2.0)
        first = math.pi / (2.0 * (wa + wb))
        assert reference.check_gap_scan(ha, hb, first, psi, first, first) == []
        problems = reference.check_gap_scan(ha, hb, 3.0 * first, psi, first, first)
        assert problems and all("root" in p for p in problems)


class TestQubitSweep:
    ROW = (1.0, 3.0, 1.0)

    def test_reference_matches_closed_forms(self):
        # gamma = 0 leaves cos(delta t); gamma = pi leaves cos(S t).
        assert reference.qubit_first_root(0.0, 3.0, 1.0) == pytest.approx(math.pi / 4, rel=1e-12)
        assert reference.qubit_first_root(math.pi, 3.0, 1.0) == pytest.approx(math.pi / 8, rel=1e-12)

    def test_accepts_program_answer(self):
        row = cli.qubit_sweep_row(self.ROW[0], *self.ROW)
        assert reference.check_qubit_row(*self.ROW, row.exists, row.t_perp_raw, row.t_lb_aa,
                                         row.t_lb_span) == []

    @pytest.mark.parametrize("factor", [1.0 + 1e-4, 1.0 - 1e-4])
    def test_rejects_shifted_time(self, factor):
        row = cli.qubit_sweep_row(self.ROW[0], *self.ROW)
        assert reference.check_qubit_row(*self.ROW, True, row.t_perp_raw * factor, row.t_lb_aa,
                                         row.t_lb_span)

    def test_rejects_later_root(self):
        # gamma = 0: roots of cos(2 t) at pi/4, 3 pi/4, ...
        span = math.pi / 8.0
        assert reference.check_qubit_row(0.0, 3.0, 1.0, True, math.pi / 4, span, span) == []
        assert reference.check_qubit_row(0.0, 3.0, 1.0, True, 3 * math.pi / 4, span, span)

    def test_rejects_flipped_existence(self):
        assert reference.check_qubit_row(0.5, 1.0, 1.0, True, 1.0, 0.5, math.pi / 4)
        assert reference.check_qubit_row(*self.ROW, False, None, None, math.pi / 8)

    def test_rejects_bounds_out_of_order(self):
        row = cli.qubit_sweep_row(self.ROW[0], *self.ROW)
        assert reference.check_qubit_row(*self.ROW, True, row.t_perp_raw, 2 * row.t_perp_raw,
                                         row.t_lb_span)

    def test_late_root_row_fails(self):
        _, gamma, wa, wb = workloads.LATE_ROOT_ROW
        # First root confirmed with 40-digit arithmetic: the local minimum at
        # 15479526.2966 is -1.41e-7.  A plain 64-samples-per-period scan misses
        # that shallow dip and lands 87 fast periods later, near 1.54798e7.
        ref = reference.qubit_first_root(gamma, wa, wb)
        assert ref == pytest.approx(15479526.2948, rel=1e-10)
        row = cli.qubit_sweep_row(*workloads.LATE_ROOT_ROW)
        assert reference.check_qubit_row(gamma, wa, wb, row.exists, row.t_perp_raw,
                                         row.t_lb_aa, row.t_lb_span)


class TestTheoremTrials:
    @pytest.fixture(scope="class")
    def pair(self):
        u, v = theorem.random_unitary(4, 11), theorem.random_unitary(4, 12)
        return u, v, theorem.check_subadditivity(u, v)

    def test_accepts_program_answer(self, pair):
        u, v, t = pair
        assert reference.check_trial(u, v, t.skipped, t.lhs, t.rhs, t.margin) == []

    def test_rejects_flipped_skip_flag(self, pair):
        u, v, _ = pair
        nan = float("nan")
        assert reference.check_trial(u, v, True, nan, nan, nan)
        near = workloads._near_cut(np.random.default_rng(2), 4)
        assert theorem.check_subadditivity(near, v).skipped
        assert reference.check_trial(near, v, False, 1.0, 2.0, 1.0)

    def test_rejects_wrong_norms(self, pair):
        u, v, t = pair
        assert reference.check_trial(u, v, False, t.lhs + 1e-6, t.rhs, t.margin - 1e-6)
        assert reference.check_trial(u, v, False, t.lhs, t.rhs + 1e-6, t.margin + 1e-6)

    def test_rejects_negative_margin(self, pair):
        u, v, t = pair
        problems = reference.check_trial(u, v, False, t.lhs, t.rhs, -1e-6)
        assert any("violates" in p for p in problems)
