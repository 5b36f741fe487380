"""Output fingerprint of the package: one ``name sha256`` line per artifact.

    python3 tools/fingerprint.py
    python3 tools/fingerprint.py --against REV

Runs the checkout's own ``src/`` and prints a digest of each of:

* the case summaries of the three perfbench workloads at seeds 1, 7 and 201
  (``perfbench/workloads.py`` is imported, never changed);
* the stdout and exit code of ``fig1``, ``fig2``, ``verify-theorem --trials
  1000``, and of ``discriminate`` and ``bounds`` on the README's matrix and
  qubit problems;
* ``find_t_perp`` on 240 seeded pairs at d = 2-5: the ``repr`` of a
  ``NoOrthogonality``, and of a result's fields with its state as
  ``tolist()``, every bit;
* the ``repr`` of ``qubit_t_perp`` on 600 seeded rows, with delta/S down to
  1e-5 and gamma near pi/2;
* the exact ``repr`` (of ``tolist()``, every bit) of
  ``discrimination_state`` on 600 seeded fields and times, a third of them
  at the fields' ``qubit_t_perp``;
* the values of ``theorem.equality_case_norm``, ``theorem.check_induction_step``
  and ``theorem.conjecture_scan`` on seeded unit-scale inputs at d = 2-5,
  the callers of ``linalg.frobenius`` that nothing above digests.

A change that keeps every output bit for bit prints the same lines as its
parent.  ``--against REV`` checks that: it exports the committed tree of
REV with ``git archive`` into a temporary directory, puts this script in
place of the export's copy, runs both sides in fresh processes of this
interpreter with one BLAS thread, prints ``<artifact> same`` or
``<artifact> DIFFERS`` per line and exits 1 on any difference.  It writes
nothing under ``.git`` and removes the export.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# One BLAS thread, as in perfbench/run.py, so that no digest depends on the
# thread count of the machine.
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_VARS:
    os.environ.setdefault(_var, "1")
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import numpy as np  # noqa: E402

import workloads  # noqa: E402
from orthotime import cli, discriminate, qubit, theorem  # noqa: E402

SEEDS = (1, 7, 201)
MATRIX_PROBLEM = {"dim": 2,
                  "H_a": [[[1, 0], [0, 0]], [[0, 0], [-1, 0]]],
                  "H_b": [[[-1, 0], [0, 0]], [[0, 0], [1, 0]]]}
QUBIT_PROBLEM = {"qubit": {"omega_a": 3.0, "omega_b": 1.0, "gamma": math.pi}}
PAIRS_PER_DIM = 60
QUBIT_ROWS = 600
QUBIT_STATES = 600
NORM_CASES_PER_DIM = 10


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def workload_summaries(name: str, seed: int) -> str:
    """The repr of every case's summary, or of the exception it raised."""
    workload = workloads.WORKLOADS[name](seed)
    lines = []
    for case in workload.cases:
        try:
            lines.append(repr(workload.summary(workload.run(case))))
        except Exception as exc:  # a failing case is part of the output
            lines.append(repr(exc))
    return "\n".join(lines)


def cli_stdout(argv) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return f"{out.getvalue()}exit {code}\n"


def find_t_perp_reprs() -> str:
    rng = np.random.default_rng(20260101)
    lines = []
    for dim in range(2, 6):
        for _ in range(PAIRS_PER_DIM):
            ha, hb = (workloads._hermitian(rng, dim) for _ in range(2))
            out = discriminate.find_t_perp(ha, hb)
            if isinstance(out, discriminate.DiscriminationResult):
                out = (out.t_perp, out.pair, out.alpha, out.state.tolist(), out.residual)
            lines.append(repr(out))
    return "\n".join(lines)


def qubit_t_perp_reprs() -> str:
    """Rows with delta/S log-uniform over [1e-5, 1], every third with gamma
    within 1e-3 of pi/2 and the rest uniform over [0, pi]."""
    rng = np.random.default_rng(20260102)
    lines = []
    for k in range(QUBIT_ROWS):
        rel = 10.0 ** rng.uniform(-5.0, 0.0)
        gamma = (math.pi / 2 + rng.uniform(-1e-3, 1e-3) if k % 3 == 0
                 else rng.uniform(0.0, math.pi))
        total = rng.uniform(0.5, 4.0)
        wa, wb = 0.5 * total * (1.0 + rel), 0.5 * total * (1.0 - rel)
        lines.append(repr(qubit.qubit_t_perp(gamma, wa, wb)))
    return "\n".join(lines)


def qubit_state_reprs() -> str:
    """States for random unit axes, frequencies in [0, 5] and times
    log-uniform over [1e-3, 1e3], or at the root when a third row has one;
    every other state takes a random alpha.  numpy's array repr rounds to
    8 digits, so each state is printed as a list of Python complexes."""
    rng = np.random.default_rng(20260104)
    lines = []
    for k in range(QUBIT_STATES):
        na, nb = (v / np.linalg.norm(v) for v in rng.standard_normal((2, 3)))
        wa, wb = rng.uniform(0.0, 5.0, size=2)
        t = 10.0 ** rng.uniform(-3.0, 3.0)
        if k % 3 == 0:
            gamma = math.acos(min(max(float(na @ nb), -1.0), 1.0))
            t = qubit.qubit_t_perp(gamma, wa, wb) or t
        alpha = rng.uniform(-math.pi, math.pi) if k % 2 else 0.0
        state = qubit.discrimination_state(qubit.QubitField(wa, na), qubit.QubitField(wb, nb),
                                           t, alpha)
        lines.append(repr(state.tolist()))
    return "\n".join(lines)


def norm_helper_reprs() -> str:
    """Each helper's values on seeded Hermitian inputs of spectral radius
    about 1, at steps and times that keep the products off the log cut."""
    rng = np.random.default_rng(20260103)
    lines = []
    for dim in range(2, 6):
        for _ in range(NORM_CASES_PER_DIM):
            x, y = (workloads._hermitian(rng, dim) for _ in range(2))
            x, y = (h / (2.0 * np.abs(np.linalg.eigvalsh(h)).max()) for h in (x, y))
            k, t = -rng.uniform(0.2, 2.0), rng.uniform(0.1, 1.0)
            s, ds = rng.uniform(0.0, 0.5), rng.uniform(0.0, 0.5)
            scan = theorem.conjecture_scan(x, rng.uniform(0.2, 1.0), 0.5, 8, int(rng.integers(1000)))
            lines.append(repr((theorem.equality_case_norm(x, k, t),
                               theorem.check_induction_step(x, y, s, ds), scan)))
    return "\n".join(lines)


def artifacts():
    for name in workloads.WORKLOADS:
        for seed in SEEDS:
            yield f"{name}.seed{seed}", lambda name=name, seed=seed: workload_summaries(name, seed)
    yield "cli.fig1", lambda: cli_stdout(["fig1"])
    yield "cli.fig2", lambda: cli_stdout(["fig2"])
    yield "cli.verify-theorem", lambda: cli_stdout(["verify-theorem", "--trials", "1000"])
    with tempfile.TemporaryDirectory() as tmp:
        for label, problem in (("matrix", MATRIX_PROBLEM), ("qubit", QUBIT_PROBLEM)):
            path = os.path.join(tmp, f"{label}.json")
            with open(path, "w") as fh:
                json.dump(problem, fh)
            for command in ("discriminate", "bounds"):
                yield (f"cli.{command}.{label}",
                       lambda command=command, path=path: cli_stdout([command, "--input", path]))
        yield "find_t_perp.d2-5", find_t_perp_reprs
        yield "qubit_t_perp.rows", qubit_t_perp_reprs
        yield "qubit.states", qubit_state_reprs
        yield "norm_helpers.d2-5", norm_helper_reprs


def fingerprint_lines(root: Path) -> list[str]:
    """The fingerprint of the checkout at ``root``, from a fresh process."""
    env = dict(os.environ, **{var: "1" for var in BLAS_VARS})
    done = subprocess.run([sys.executable, str(root / "tools" / "fingerprint.py")], cwd=root,
                          env=env, stdout=subprocess.PIPE, text=True, check=True)
    return done.stdout.splitlines()


def against(rev: str) -> int:
    """Compare this checkout's fingerprint with that of the committed ``rev``."""
    with tempfile.TemporaryDirectory() as tmp:
        export = Path(tmp)
        archive = subprocess.run(["git", "-C", str(ROOT), "archive", rev],
                                 stdout=subprocess.PIPE, check=True).stdout
        subprocess.run(["tar", "-x", "-C", str(export)], input=archive, check=True)
        (export / "tools").mkdir(exist_ok=True)
        shutil.copyfile(Path(__file__).resolve(), export / "tools" / "fingerprint.py")
        theirs = dict(line.split() for line in fingerprint_lines(export))
    ours = dict(line.split() for line in fingerprint_lines(ROOT))
    differs = 0
    for name in dict.fromkeys([*theirs, *ours]):
        same = theirs.get(name) == ours.get(name)
        differs += not same
        print(name, "same" if same else "DIFFERS", flush=True)
    return 1 if differs else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--against", metavar="REV",
                        help="compare with the committed tree of git revision REV")
    args = parser.parse_args()
    if args.against is not None:
        return against(args.against)
    for name, make in artifacts():
        print(name, _digest(make()), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
