"""Benchmark of the orthotime package: one workload per run.

Usage (from the repository root):

    python3 perfbench/run.py --workload gap_scan --seed 1 --seconds 30 --trace 0

With ``--trace 0`` the run times whole rounds of the workload for at least
``--seconds`` seconds with no instrumentation and reports the end-to-end
metrics.  With ``--trace 1`` it runs each operation untraced and then traced,
for whole rounds, and reports the per-layer metrics per operation.  Either way every
output is checked against perfbench/reference.py, and the last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  Metric names and units come from BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BLAS_THREADS = "1"  # at most nproc; the matrices are far too small to gain from more
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_PROBES = 5
MIN_OPS = 110        # at least ten operations beyond the 90th percentile
PROBE_TIMEOUT_S = 60
KEEP_SPANS = 20_000


def _import_package():
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import orthotime
    except ImportError as exc:
        raise SystemExit(f"error: cannot import orthotime from {ROOT / 'src'}: {exc}")
    origin = Path(orthotime.__file__).resolve()
    if ROOT / "src" not in origin.parents:
        raise SystemExit(f"error: orthotime was imported from {origin}, not from this checkout")


def setup_seconds(workload: str) -> float:
    """Median set-up time over fresh processes, each waited for in turn."""
    samples = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run([sys.executable, str(HERE / "probe.py"), workload], cwd=ROOT,
                              capture_output=True, text=True, timeout=PROBE_TIMEOUT_S,
                              check=True)
        samples.append(float(done.stdout.strip().splitlines()[-1]))
    return statistics.median(samples)


def run_op(workload, case):
    t0 = time.perf_counter()
    try:
        out = workload.run(case)
    except Exception as exc:  # an operation that raises is a failed operation
        out = exc
    return out, time.perf_counter() - t0


def _summary(workload, out) -> str:
    return repr(out) if isinstance(out, Exception) else repr(workload.summary(out))


def timed(workload, seconds):
    """Whole untraced rounds for at least ``seconds`` and MIN_OPS operations."""
    summaries = [[] for _ in workload.cases]
    by_case = [[] for _ in workload.cases]
    outputs = []
    start = time.perf_counter()
    ops = 0
    while not ops or time.perf_counter() - start < seconds or ops < MIN_OPS:
        for i, case in enumerate(workload.cases):
            out, dt = run_op(workload, case)
            by_case[i].append(dt * 1e3)
            summaries[i].append(_summary(workload, out))
            if len(outputs) < len(workload.cases):
                outputs.append(out)
        ops += len(workload.cases)
    elapsed = time.perf_counter() - start
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    # On a shared virtual machine the speed left to one process can switch
    # between two levels every few seconds, which splits the times of each
    # case into two clusters.  The median of all operation times then jumps
    # between the clusters as their shares vary from run to run, while each
    # case's mean over the run moves smoothly; so the median is taken over
    # the cases' means.  The 90th percentile lies inside the slower cluster
    # and is taken over all operations.
    metrics = {
        "op_ms_p50": statistics.median(statistics.fmean(t) for t in by_case),
        "op_ms_p90": statistics.quantiles([t for ts in by_case for t in ts], n=10)[8],
        "ops_per_s": ops / elapsed,
        "peak_rss_mb": peak_mb,
    }
    return metrics, outputs, summaries, {"ops": ops, "elapsed_s": elapsed}


def traced(workload, seconds):
    """Whole rounds in which each operation runs untraced, then traced.

    The per-layer figures come from the traced runs only; the paired
    untraced run of the same input gives the tracing overhead.
    """
    import tracer as tracing

    n = len(workload.cases)
    summaries = [[] for _ in range(n)]
    outputs, overhead_ms, round_counts = [], [], []
    tracer = tracing.Tracer(keep=KEEP_SPANS)
    traced_s = 0.0
    start = time.perf_counter()
    while not round_counts or time.perf_counter() - start < seconds:
        before = dict(tracer.counts)
        for i, case in enumerate(workload.cases):
            out, plain_s = run_op(workload, case)
            summaries[i].append(_summary(workload, out))
            if len(outputs) < n:
                outputs.append(out)
            restore = tracing.instrument(tracer)
            try:
                tracer.enter(tracing.ROOT)
                out, dt = run_op(workload, case)
                tracer.exit()
            finally:
                restore()
            summaries[i].append(_summary(workload, out))
            traced_s += dt
            overhead_ms.append((dt - plain_s) * 1e3)
        round_counts.append({k: v - before.get(k, 0) for k, v in tracer.counts.items()})
    if any(c != round_counts[0] for c in round_counts):
        raise RuntimeError("traced rounds of identical inputs gave different counts")
    ops = n * len(round_counts)
    groups = tracing.group_self_s(tracer)
    metrics = {f"{g}.ms": s * 1e3 / ops for g, s in groups.items()}
    metrics.update({k: v / n for k, v in round_counts[0].items()})
    metrics["trace.overhead.ms"] = statistics.median(overhead_ms)
    info = {"ops": 2 * ops, "traced_ops": ops, "rounds": len(round_counts),
            "self_time_minus_op_time_s": sum(groups.values()) - traced_s,
            "spans": [list(s) for s in tracer.spans]}
    return metrics, outputs, summaries, info


def check_outputs(workload, outputs, summaries):
    """Reference-check the first output of each case, then hold every repeat
    of the case to it.

    Returns (attempted, failed, unexpected): ``unexpected`` lists failures of
    cases that carry no known fault.
    """
    attempted = failed = 0
    unexpected = []
    for i, case in enumerate(workload.cases):
        first = outputs[i]
        try:
            problems = ([f"raised {first!r}"] if isinstance(first, Exception)
                        else workload.check(case, first))
        except Exception as exc:  # a checker that cannot finish is a failed check
            problems = [f"check raised {exc!r}"]
        if problems:
            bad = len(summaries[i])
        else:
            bad = sum(r != summaries[i][0] for r in summaries[i])
            problems = ["output differs from the first run"] if bad else []
        attempted += len(summaries[i])
        failed += bad
        if bad and case.known_fault is None:
            unexpected.append(f"case {i}: {'; '.join(problems)}")
    return attempted, failed, unexpected


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        parser.error(f"--workload must be one of {names}")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    os.environ.update(dict.fromkeys(BLAS_VARS, BLAS_THREADS))  # before numpy loads; probes inherit it
    _import_package()
    sys.path.insert(0, str(HERE))
    import workloads

    workload = workloads.WORKLOADS[args.workload](args.seed)
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    run_op(workload, workload.cases[0])  # first call in this process, unmeasured
    if args.trace:
        metrics, outputs, summaries, info = traced(workload, args.seconds)
    else:
        metrics, outputs, summaries, info = timed(workload, args.seconds)
        metrics["setup_s"] = setup_seconds(args.workload)
    attempted, failed, unexpected = check_outputs(workload, outputs, summaries)
    undeclared = set(metrics) - {m["name"] for m in declared}
    if undeclared:
        raise SystemExit(f"error: measured metrics missing from BENCHMARK.json: {sorted(undeclared)}")
    # A layer the workload never enters measures zero.
    metrics = {m["name"]: metrics.get(m["name"], 0.0) for m in declared}
    result = {
        "correct": not unexpected,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in declared},
    }
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    record = dict(result, workload=args.workload, seed=args.seed, trace=args.trace,
                  run=info, unexpected_failures=unexpected)
    path = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    for problem in unexpected:
        print(f"FAILED {problem}", file=sys.stderr)
    for m in declared:
        print(f"{args.workload} {m['name']} = {metrics[m['name']]:.6g} {m['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
