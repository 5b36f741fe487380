"""The benchmark tracer must find every function it instruments, and count
what it claims to count.

``perfbench/tracer.py`` replaces package functions by name; a rename in
``src/`` would otherwise surface only when a traced benchmark run fails.
"""

import inspect
import sys
from pathlib import Path

import numpy as np
import pytest

from orthotime import _scan, discriminate, qubit
from helpers import random_hermitian

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import tracer  # noqa: E402


def test_every_target_resolves_and_is_restored():
    originals = [(owner, attr, inspect.getattr_static(owner, attr))
                 for owner, attr, *_ in tracer.TARGETS]
    restore = tracer.instrument(tracer.Tracer())
    try:
        replaced = [inspect.getattr_static(owner, attr) is not raw
                    for owner, attr, raw in originals]
    finally:
        restore()
    assert all(replaced)
    for owner, attr, raw in originals:
        assert inspect.getattr_static(owner, attr) is raw, f"{owner.__name__}.{attr}"


def _find_t_perp():
    rng = np.random.default_rng(1)
    discriminate.find_t_perp(random_hermitian(rng, 8), random_hermitian(rng, 8))


def _qubit_t_perp():
    qubit.qubit_t_perp(1.0, 3.0, 1.0)


@pytest.mark.parametrize("run", [_find_t_perp, _qubit_t_perp])
def test_bisect_evals_count_every_refinement_evaluation(monkeypatch, run):
    """``scan.bisect.evals`` counts calls of the function handed to
    ``bisect_root``; it must equal the one-point margin or criterion calls
    made while the refinement runs, so no refinement evaluation bypasses it."""
    depth, points = [0], [0]
    refine = _scan.bisect_root

    def tracked_refine(*args, **kwargs):
        depth[0] += 1
        try:
            return refine(*args, **kwargs)
        finally:
            depth[0] -= 1

    def counting(fn, index):
        def counted(*args):
            if depth[0] and np.size(args[index]) == 1:
                points[0] += 1
            return fn(*args)
        return counted

    monkeypatch.setattr(_scan, "bisect_root", tracked_refine)
    monkeypatch.setattr(discriminate._EvolutionPair, "gap_margin",
                        counting(discriminate._EvolutionPair.gap_margin, 1))
    monkeypatch.setattr(qubit, "criterion", counting(qubit.criterion, 3))
    traced = tracer.Tracer()
    restore = tracer.instrument(traced)
    try:
        run()
    finally:
        restore()
    assert traced.counts["scan.bisect.evals"] > 0
    assert traced.counts["scan.bisect.evals"] == points[0]
