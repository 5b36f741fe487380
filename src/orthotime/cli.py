"""Command-line front end.

Subcommands:

*  ``discriminate``   JSON problem in, structured JSON report out.  Exit 0
   when an orthogonality time was found, 2 when none exists within the
   horizon (a legitimate outcome, and the only one for a pair of scalar
   operators, whose ``bounds`` are null: no bound is finite), 1 on bad
   input or a ConvergenceError.
*  ``bounds``         JSON problem in, bounds report out (exit 0 or 1).
*  ``fig1``/``fig2``  CSV sweeps over the relative frequency difference r
   at perfect alignment, and over the alignment angle gamma at fixed
   frequency ratio.
*  ``verify-theorem`` seeded randomized check of principal-log norm
   subadditivity; exit 0 iff no unskipped trial violates it.

All outputs are deterministic for identical inputs and seeds.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict, astuple, dataclass, fields

import numpy as np

from . import bounds, discriminate, linalg, qubit, theorem
from .errors import ConvergenceError, NonHermitianError

VIOLATION_SLACK = 1e-9


def _fmt(x) -> str:
    if isinstance(x, bool):
        return "true" if x else "false"
    return "NA" if x is None else format(float(x), ".12g")


def _write(output: str, text: str) -> None:
    if output == "-":
        sys.stdout.write(text)
    else:
        with open(output, "w", encoding="utf-8") as fh:
            fh.write(text)


@dataclass(frozen=True)
class SweepRow:
    abscissa: float
    t_perp_raw: float | None
    t_perp_norm: float | None
    t_lb_aa: float | None
    t_lb_span: float
    t_margolus: float | None
    exists: bool

    def csv(self) -> str:
        return ",".join(_fmt(x) for x in astuple(self))


CSV_HEADER = ",".join(field.name for field in fields(SweepRow))


def rows_to_csv(rows: list[SweepRow]) -> str:
    return "\n".join([CSV_HEADER] + [row.csv() for row in rows]) + "\n"


def axes_for_gamma(gamma: float) -> tuple[np.ndarray, np.ndarray]:
    return np.array([0.0, 0.0, 1.0]), np.array([np.sin(gamma), 0.0, np.cos(gamma)])


def _qubit_problem(omega_a: float, omega_b: float, axis_a, axis_b):
    """The two fields, their Hamiltonians and the average energy of the
    difference field, None when zero: then no Margolus bound exists."""
    field_a = qubit.QubitField(omega_a, axis_a)
    field_b = qubit.QubitField(omega_b, axis_b)
    # Float min/max: np.clip costs ten times as much on a scalar.
    cos_gamma = min(max(float(axis_a @ axis_b), -1.0), 1.0)
    e_bar = qubit.mean_energy_bar(omega_a, omega_b, cos_gamma)
    return (field_a, field_b, qubit.qubit_hamiltonian(field_a),
            qubit.qubit_hamiltonian(field_b), e_bar if e_bar > 0.0 else None)


def qubit_sweep_row(abscissa: float, gamma: float, omega_a: float,
                    omega_b: float) -> SweepRow:
    """One sweep row: closed-form orthogonality time plus all three bounds,
    from one ``bounds._report``, the unchecked core of
    ``bounds.bounds_report``.

    Normalized time is t * (wa + wb) / (4 pi); the uncertainty bound uses the
    optimal equatorial state at the found time.
    """
    field_a, field_b, ha, hb, e_bar = _qubit_problem(omega_a, omega_b,
                                                     *axes_for_gamma(gamma))
    t_perp = qubit.qubit_t_perp(gamma, omega_a, omega_b)
    psi = None if t_perp is None else qubit.discrimination_state(field_a, field_b, t_perp)
    # qubit_hamiltonian makes ha and hb exactly Hermitian and
    # discrimination_state makes psi unit, from inputs already checked.
    report = bounds._report(ha, hb, psi, e_bar)
    if t_perp is None:
        return SweepRow(abscissa, None, None, None, report.t_lb_span, report.t_margolus, False)
    t_norm = t_perp * (omega_a + omega_b) / (4.0 * np.pi)
    return SweepRow(abscissa, t_perp, t_norm, report.t_lb_aa, report.t_lb_span,
                    report.t_margolus, True)


def fig1_rows(r_min: float, r_max: float, n_points: int,
              omega_sum: float = 2.0) -> list[SweepRow]:
    """Sweep of the relative frequency difference r at perfect alignment."""
    if not 0.0 < r_min <= r_max < 1.0:
        raise ValueError("need 0 < r_min <= r_max < 1")
    n_points = linalg._count(n_points, "n_points")
    omega_sum = linalg._finite_positive(omega_sum, "omega_sum")
    rows = []
    for r in np.linspace(r_min, r_max, n_points):
        omega_a = omega_sum * (1.0 + r) / 2.0
        omega_b = omega_sum * (1.0 - r) / 2.0
        rows.append(qubit_sweep_row(float(r), 0.0, omega_a, omega_b))
    return rows


def fig2_rows(gamma_min: float, gamma_max: float, n_points: int,
              omega_ratio: float = 3.0, omega_sum: float = 2.0) -> list[SweepRow]:
    """Sweep of the alignment angle gamma at fixed frequency ratio."""
    if not 0.0 <= gamma_min <= gamma_max <= np.pi:
        raise ValueError("need 0 <= gamma_min <= gamma_max <= pi")
    n_points = linalg._count(n_points, "n_points")
    omega_ratio = linalg._finite_positive(omega_ratio, "omega_ratio")
    omega_sum = linalg._finite_positive(omega_sum, "omega_sum")
    omega_a = omega_sum * omega_ratio / (1.0 + omega_ratio)
    omega_b = omega_sum / (1.0 + omega_ratio)
    rows = []
    for gamma in np.linspace(gamma_min, gamma_max, n_points):
        rows.append(qubit_sweep_row(float(gamma), float(gamma), omega_a, omega_b))
    return rows


# ---------------------------------------------------------------------------
# problem input
# ---------------------------------------------------------------------------

def _as_number(x, field: str, rule=linalg._finite) -> float:
    if isinstance(x, bool) or not isinstance(x, (int, float)):
        raise ValueError(f"{field} must be a number")
    return rule(x, field)


def _parse_matrix(obj, dim: int, field: str) -> np.ndarray:
    if not isinstance(obj, list) or len(obj) != dim:
        raise ValueError(f"{field} must be a {dim}x{dim} array of [re, im] pairs")
    rows = []
    for i, row in enumerate(obj):
        if not isinstance(row, list) or len(row) != dim:
            raise ValueError(f"{field}[{i}] must have {dim} entries")
        cells = []
        for j, cell in enumerate(row):
            if not isinstance(cell, list) or len(cell) != 2:
                raise ValueError(f"{field}[{i}][{j}] must be a [re, im] pair")
            cells.append(complex(_as_number(cell[0], f"{field}[{i}][{j}][0]"),
                                 _as_number(cell[1], f"{field}[{i}][{j}][1]")))
        rows.append(cells)
    m = np.array(rows, dtype=complex)
    try:
        return linalg.assert_hermitian(m, name=field)
    except NonHermitianError:
        raise ValueError(f"{field} fails the Hermiticity tolerance") from None


def _parse_axis(obj, field: str) -> np.ndarray:
    if not isinstance(obj, list) or len(obj) != 3:
        raise ValueError(f"{field} must be a 3-vector")
    a = np.array([_as_number(x, f"{field}[{k}]") for k, x in enumerate(obj)], dtype=float)
    norm = linalg.frobenius(a)
    if norm == 0.0:
        raise ValueError(f"{field} must be a nonzero 3-vector")
    return a / norm


def _known_fields(obj: dict, allowed: set[str], prefix: str = "") -> None:
    for key in obj:
        if key not in allowed:
            raise ValueError(f"{prefix}{key} is not a recognized field")


def _required_fields(obj: dict, keys: tuple[str, ...], message: str) -> None:
    """Raise ``message`` with the first missing key put in its braces."""
    for key in keys:
        if key not in obj:
            raise ValueError(message.format(key))


@dataclass(frozen=True)
class Problem:
    ha: np.ndarray
    hb: np.ndarray
    e_bar: float | None
    t_max: float | None
    alpha: float


def load_problem(path: str) -> Problem:
    """Parse and validate a problem file; error messages name the offending
    field, an unrecognized one included.  Every number is checked finite;
    ``find_t_perp`` checks that ``t_max`` is positive."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"input is not valid JSON: {exc}") from None
    if not isinstance(data, dict):
        raise ValueError("problem must be a JSON object")
    _known_fields(data, {"dim", "H_a", "H_b", "qubit", "t_max", "alpha"})

    matrix_keys = [k for k in ("dim", "H_a", "H_b") if k in data]
    has_qubit = "qubit" in data
    if bool(matrix_keys) == has_qubit:
        raise ValueError(
            "problem must contain exactly one of the matrix form "
            "('dim', 'H_a', 'H_b') or the 'qubit' shorthand"
        )

    e_bar = None
    if has_qubit:
        ha, hb, e_bar = _parse_qubit(data["qubit"])
    else:
        _required_fields(data, ("dim", "H_a", "H_b"), "{} is required in the matrix form")
        dim = linalg._count(data["dim"], "dim")
        ha = _parse_matrix(data["H_a"], dim, "H_a")
        hb = _parse_matrix(data["H_b"], dim, "H_b")

    t_max = _as_number(data["t_max"], "t_max") if "t_max" in data else None
    alpha = _as_number(data["alpha"], "alpha") if "alpha" in data else 0.0
    return Problem(ha, hb, e_bar, t_max, alpha)


def _parse_qubit(q) -> tuple[np.ndarray, np.ndarray, float | None]:
    if not isinstance(q, dict):
        raise ValueError("qubit must be an object")
    _known_fields(q, {"omega_a", "omega_b", "gamma", "axis_a", "axis_b"}, "qubit.")
    _required_fields(q, ("omega_a", "omega_b"), "qubit.{} is required")
    omega_a = _as_number(q["omega_a"], "qubit.omega_a", linalg._finite_nonnegative)
    omega_b = _as_number(q["omega_b"], "qubit.omega_b", linalg._finite_nonnegative)
    has_gamma = "gamma" in q
    has_axes = "axis_a" in q or "axis_b" in q
    if has_gamma == has_axes:
        raise ValueError("qubit must contain exactly one of gamma or (axis_a, axis_b)")
    if has_gamma:
        gamma = _as_number(q["gamma"], "qubit.gamma")
        axis_a, axis_b = axes_for_gamma(gamma)
    else:
        _required_fields(q, ("axis_a", "axis_b"), "qubit.{} is required when axes are given")
        axis_a = _parse_axis(q["axis_a"], "qubit.axis_a")
        axis_b = _parse_axis(q["axis_b"], "qubit.axis_b")
    _, _, ha, hb, e_bar = _qubit_problem(omega_a, omega_b, axis_a, axis_b)
    return ha, hb, e_bar


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _state_pairs(state: np.ndarray) -> list[list[float]]:
    return [[float(z.real), float(z.imag)] for z in state]


def _bounds_dict(problem: Problem, result) -> dict | None:
    """The bounds block, with the state entries when ``result`` was found;
    None for a pair of scalar operators, which no bound is finite for (a
    found pair never is one, so only the not-found path checks).

    ``load_problem`` checked the operators and ``find_t_perp`` built the
    unit state, so they go to the unchecked ``bounds._report``, as in
    ``qubit_sweep_row``."""
    if result is None and bounds._half_span(problem.ha) + bounds._half_span(problem.hb) == 0.0:
        return None
    state = None if result is None else result.state
    report = bounds._report(problem.ha, problem.hb, state, problem.e_bar)
    out = asdict(report)
    out["geodesic_length_at_t_perp"] = (
        None if result is None else report.geodesic_length_at(result.t_perp)
    )
    return out


def _problem_report(args) -> dict:
    """Run ``find_t_perp`` on the problem and report its outcome and bounds."""
    problem = load_problem(args.input)
    outcome = discriminate.find_t_perp(
        problem.ha, problem.hb,
        t_max=args.t_max if args.t_max is not None else problem.t_max,
        alpha=args.alpha if args.alpha is not None else problem.alpha,
    )
    found = isinstance(outcome, discriminate.DiscriminationResult)
    if found:
        payload = {
            "t_perp": outcome.t_perp,
            "pair": list(outcome.pair),
            "alpha": outcome.alpha,
            "state": _state_pairs(outcome.state),
            "residual": outcome.residual,
        }
    else:
        payload = {
            "message": "no orthogonality within horizon",
            "t_max": outcome.t_max,
            "g_infimum": outcome.g_infimum,
            "t_at_infimum": outcome.t_at_infimum,
        }
    payload["found"] = found
    payload["bounds"] = _bounds_dict(problem, outcome if found else None)
    return payload


def cmd_discriminate(args) -> int:
    payload = _problem_report(args)
    _write(args.output, json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return 0 if payload["found"] else 2


def cmd_bounds(args) -> int:
    payload = _problem_report(args)
    trimmed = {
        "found": payload["found"],
        "t_perp": payload.get("t_perp"),
        "bounds": payload["bounds"],
    }
    _write(args.output, json.dumps(trimmed, indent=2, sort_keys=True) + "\n")
    return 0


def cmd_fig1(args) -> int:
    rows = fig1_rows(args.r_min, args.r_max, linalg._count(args.points, "--points"),
                     args.omega_sum)
    _write(args.output, rows_to_csv(rows))
    return 0


def cmd_fig2(args) -> int:
    rows = fig2_rows(args.gamma_min, args.gamma_max, linalg._count(args.points, "--points"),
                     args.omega_ratio, args.omega_sum)
    _write(args.output, rows_to_csv(rows))
    return 0


def cmd_verify_theorem(args) -> int:
    trials = theorem.run_trials(linalg._count(args.trials, "--trials"),
                                linalg._count(args.dim_max, "--dim-max"), args.seed)
    unskipped = [t for t in trials if not t.skipped]
    violations = sum(1 for t in unskipped if t.margin < -VIOLATION_SLACK)
    worst = min((t.margin for t in unskipped), default=float("nan"))
    skip_rate = (len(trials) - len(unskipped)) / len(trials)
    lines = [
        f"trials: {len(trials)}",
        f"dim_max: {args.dim_max}",
        f"seed: {args.seed}",
        f"unskipped: {len(unskipped)}",
        f"skipped: {len(trials) - len(unskipped)}",
        f"skip_rate: {format(skip_rate, '.12g')}",
        f"violations: {violations}",
        f"worst_margin: {format(worst, '.12g')}",
    ]
    _write(args.output, "\n".join(lines) + "\n")
    return 0 if violations == 0 else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="orthotime",
        description="Orthogonality times for pairs of Hamiltonian evolutions, "
                    "with lower bounds and norm-inequality verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for name, func, help_text in (
        ("discriminate", cmd_discriminate,
         "find the first orthogonality time for a JSON problem"),
        ("bounds", cmd_bounds, "report the lower bounds for a JSON problem"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--input", required=True, help="problem JSON path")
        p.add_argument("--output", default="-", help="report path (default stdout)")
        p.add_argument("--t-max", type=float, default=None, help="scan horizon")
        p.add_argument("--alpha", type=float, default=None,
                       help="relative phase of the two-component state")
        p.set_defaults(func=func)

    f1 = sub.add_parser("fig1", help="CSV sweep over relative frequency difference r "
                                     "at perfect alignment")
    f1.add_argument("--r-min", type=float, default=0.05)
    f1.add_argument("--r-max", type=float, default=0.95)
    f1.add_argument("--points", type=int, default=50)
    f1.add_argument("--omega-sum", type=float, default=2.0)
    f1.add_argument("--output", default="-")
    f1.set_defaults(func=cmd_fig1)

    f2 = sub.add_parser("fig2", help="CSV sweep over alignment angle gamma at fixed "
                                     "frequency ratio")
    f2.add_argument("--gamma-min", type=float, default=0.0)
    f2.add_argument("--gamma-max", type=float, default=float(np.pi))
    f2.add_argument("--points", type=int, default=100)
    f2.add_argument("--omega-ratio", type=float, default=3.0)
    f2.add_argument("--omega-sum", type=float, default=2.0)
    f2.add_argument("--output", default="-")
    f2.set_defaults(func=cmd_fig2)

    v = sub.add_parser("verify-theorem", help="randomized check of principal-log "
                                              "norm subadditivity")
    v.add_argument("--trials", type=int, default=1000)
    v.add_argument("--dim-max", type=int, default=6)
    v.add_argument("--seed", type=int, default=20250810)
    v.add_argument("--output", default="-")
    v.set_defaults(func=cmd_verify_theorem)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, ConvergenceError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
