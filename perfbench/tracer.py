"""Span tracer that instruments orthotime from outside the package.

``instrument(tracer)`` replaces each traced function under the name its
caller looks it up by (a module attribute or a class attribute) and returns
a function that puts the originals back.  Nothing in the package changes.

A span's self time is its duration minus the time covered by its child
spans, so the self times of one operation add up to the operation's traced
duration.  Counts are recorded at the same boundaries.
"""

from __future__ import annotations

import inspect
import time
from collections import defaultdict

import numpy as np

from orthotime import _scan, bounds, cli, discriminate, linalg, qubit, theorem

ROOT = "bench.op"


class Tracer:
    """Keeps per-span self time and counts, plus the first ``keep`` spans as
    (id, parent id, name, start, end) records."""

    def __init__(self, keep: int = 0):
        self.self_s = defaultdict(float)
        self.counts = defaultdict(int)
        self.spans: list[tuple] = []
        self.keep = keep
        self._stack: list[list] = []
        self._next_id = 0

    def enter(self, name: str) -> None:
        parent = self._stack[-1][3] if self._stack else None
        self._stack.append([name, time.perf_counter(), 0.0, self._next_id, parent])
        self._next_id += 1

    def exit(self) -> None:
        end = time.perf_counter()
        name, start, child_s, span_id, parent = self._stack.pop()
        duration = end - start
        self.self_s[name] += duration - child_s
        if self._stack:
            self._stack[-1][2] += duration
        if len(self.spans) < self.keep:
            self.spans.append((span_id, parent, name, start, end))

    def wrap(self, name: str, fn, before=None, after=None):
        def traced(*args, **kwargs):
            if before is not None:
                args = before(self, args, kwargs)
            self.enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.exit()
            if after is not None:
                after(self, result)
            return result

        return traced


def _arg(args, kwargs, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


def _count(key: str):
    def before(tracer, args, kwargs):
        tracer.counts[key] += 1
        return args
    return before


def _first_root(tracer, args, kwargs):
    tracer.counts["scan.samples"] += np.size(_arg(args, kwargs, 1, "ts"))
    return args


def _bisect(tracer, args, kwargs):
    f = _arg(args, kwargs, 0, "f")

    def counted(x):
        tracer.counts["scan.bisect.evals"] += 1
        return f(x)

    if args:
        return (counted,) + tuple(args[1:])
    kwargs["f"] = counted
    return args


def _touch_hit(tracer, result):
    if result is not None:
        tracer.counts["scan.touch.hits"] += 1


def _criterion(tracer, args, kwargs):
    tracer.counts["qubit.criterion.points"] += np.size(_arg(args, kwargs, 3, "t"))
    return args


def _margin(tracer, args, kwargs):
    tracer.counts["discriminate.margin.points"] += np.size(_arg(args, kwargs, 1, "ts"))
    tracer.counts["discriminate.margin.calls"] += 1
    return args


def _public_functions(module) -> list[str]:
    return [name for name, obj in vars(module).items()
            if inspect.isfunction(obj) and obj.__module__ == module.__name__
            and not name.startswith("_")]


def _targets() -> list[tuple]:
    """(owner, attribute, span name, metric group, before hook, after hook)."""
    pair = discriminate._EvolutionPair
    out = [
        (discriminate, "find_t_perp", "discriminate.find_t_perp", "discriminate.find_t_perp", None, None),
        (discriminate, "first_root", "discriminate.first_root", "scan.first_root", _first_root, None),
        (qubit, "first_root", "qubit.first_root", "scan.first_root", _first_root, None),
        (_scan, "bisect_root", "_scan.bisect_root", "scan.bisect", _bisect, None),
        (_scan, "_touch_hunt", "_scan._touch_hunt", "scan.touch", _count("scan.touch.calls"), _touch_hit),
        (pair, "__init__", "_EvolutionPair.__init__", "discriminate.setup", None, None),
        (pair, "product_grid", "_EvolutionPair.product_grid", "discriminate.product_grid", None, None),
        (pair, "phases_grid", "_EvolutionPair.phases_grid", "discriminate.eigphases", None, None),
        (pair, "gap_margin", "_EvolutionPair.gap_margin", "discriminate.margin", _margin, None),
        (pair, "trace_margin", "_EvolutionPair.trace_margin", "discriminate.margin", _margin, None),
        (pair, "gap_margin_from_trace", "_EvolutionPair.gap_margin_from_trace", "discriminate.margin", None, None),
        (qubit, "criterion", "qubit.criterion", "qubit.criterion", _criterion, None),
        (qubit, "qubit_t_perp", "qubit.qubit_t_perp", "qubit.t_perp", None, None),
        (qubit, "discrimination_state", "qubit.discrimination_state", "qubit.state", None, None),
        (qubit, "qubit_hamiltonian", "qubit.qubit_hamiltonian", "qubit.other", None, None),
        (qubit, "mean_energy_bar", "qubit.mean_energy_bar", "qubit.other", None, None),
        (theorem, "_phase_cut_distance", "theorem._phase_cut_distance", "theorem.cut_check",
         _count("theorem.cut_check.calls"), None),
        (cli, "qubit_sweep_row", "cli.qubit_sweep_row", "cli", None, None),
        (cli, "axes_for_gamma", "cli.axes_for_gamma", "cli", None, None),
    ]
    for name in ("phase_spectrum", "max_circular_gap", "orthogonal_state", "bracket",
                 "product_unitary"):
        out.append((discriminate, name, f"discriminate.{name}", "discriminate.state", None, None))
    linalg_groups = {"herm_eig": "linalg.herm_eig", "unitary_eig": "linalg.unitary_eig",
                     "principal_log_u": "linalg.principal_log_u"}
    linalg_counts = {"herm_eig": _count("linalg.herm_eig.calls"),
                     "unitary_eig": _count("linalg.unitary_eig.calls")}
    for name in _public_functions(linalg):
        out.append((linalg, name, f"linalg.{name}", linalg_groups.get(name, "linalg.other"),
                    linalg_counts.get(name), None))
    for name in _public_functions(bounds):
        out.append((bounds, name, f"bounds.{name}", "bounds", None, None))
    for name in _public_functions(theorem):
        group = "theorem.random_unitary" if name == "random_unitary" else "theorem.other"
        out.append((theorem, name, f"theorem.{name}", group, None, None))
    return out


TARGETS = _targets()
GROUP_OF_SPAN = {span: group for _, _, span, group, _, _ in TARGETS}
GROUP_OF_SPAN[ROOT] = "bench"


def instrument(tracer: Tracer):
    """Install the traced functions; returns the function that removes them."""
    saved = []
    for owner, attr, span, _group, before, after in TARGETS:
        raw = inspect.getattr_static(owner, attr)
        if isinstance(raw, staticmethod):
            replacement = staticmethod(tracer.wrap(span, raw.__func__, before, after))
        else:
            replacement = tracer.wrap(span, raw, before, after)
        saved.append((owner, attr, raw))
        setattr(owner, attr, replacement)

    def restore():
        for owner, attr, raw in reversed(saved):
            setattr(owner, attr, raw)

    return restore


def group_self_s(tracer: Tracer) -> dict[str, float]:
    """Self seconds summed by metric group."""
    out = defaultdict(float)
    for span, seconds in tracer.self_s.items():
        out[GROUP_OF_SPAN[span]] += seconds
    return dict(out)
