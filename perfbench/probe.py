"""Set-up time of one fresh process: package import plus one first call.

Usage: python3 perfbench/probe.py <workload>

Prints the seconds from before ``import orthotime`` to the end of the
first call.  The warm-up inputs are literals, so no input generation is
timed.  run.py starts this several times and reports the median.
"""

import sys
import time

T0 = time.perf_counter()

import os  # noqa: E402

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

import orthotime  # noqa: E402,F401
from orthotime import bounds, cli, discriminate, theorem  # noqa: E402

DIM = 8
HA = [[(i * 7 + j * 3) % 5 - 2.0 if i <= j else (j * 7 + i * 3) % 5 - 2.0 for j in range(DIM)]
      for i in range(DIM)]
HB = [[float((i + j) % 3) - 1.0 + (i == j) * i for j in range(DIM)] for i in range(DIM)]


def warm_up(workload: str) -> None:
    if workload == "gap_scan":
        result = discriminate.find_t_perp(HA, HB)
        bounds.bounds_report(HA, HB, result.state)
    elif workload == "qubit_sweep":
        cli.qubit_sweep_row(1.0, 1.0, 3.0, 1.0)
    elif workload == "theorem_trials":
        theorem.check_subadditivity(theorem.random_unitary(3, 1), theorem.random_unitary(3, 2))
    else:
        raise SystemExit(f"unknown workload {workload!r}")


if __name__ == "__main__":
    warm_up(sys.argv[1])
    print(repr(time.perf_counter() - T0))
