"""The package's public surface is pinned so it cannot grow back unnoticed:
the top-level exports, the exception classes, the rule that tolerances are
module constants rather than parameters, the settable values of
``find_t_perp`` and of the ``discriminate`` and ``bounds`` commands, the
rule that the operator-pair, positive-scalar, nonnegative-scalar,
finite-scalar and count input checks are stated only in ``linalg``, a package
that reports trouble by raising rather than by warning, and a runtime that
imports numpy but not scipy."""

import argparse
import ast
import inspect
import os
import subprocess
import sys
from pathlib import Path

import orthotime
from orthotime import _scan, bounds, cli, discriminate, errors, linalg, qubit, theorem

SRC = Path(orthotime.__file__).resolve().parent

EXPORTS = [
    "find_t_perp",
    "DiscriminationResult",
    "NoOrthogonality",
    "qubit_t_perp",
    "bounds_report",
    "BoundsReport",
    "aa_lower_bound",
    "span_lower_bound",
    "margolus_bound",
    "saturating_pair",
    "check_subadditivity",
    "run_trials",
]

ERRORS = {
    "NonHermitianError",
    "NonUnitaryError",
    "ConvergenceError",
    "CutProximityError",
    "DimensionMismatchError",
}

TOLERANCE_PARAMETERS = {"tol", "cut_guard", "coincident_tol", "touch_tol"}


def test_exports_are_pinned_and_resolve():
    assert orthotime.__all__ == EXPORTS
    for name in EXPORTS:
        assert getattr(orthotime, name) is not None


def test_errors_defines_the_kept_classes_and_each_is_raised():
    defined = {name for name, obj in vars(errors).items()
               if inspect.isclass(obj) and obj.__module__ == errors.__name__}
    assert defined == ERRORS
    raised = set()
    for path in SRC.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if isinstance(exc, ast.Name):
                    raised.add(exc.id)
    assert ERRORS <= raised


def _public_functions(module):
    return [obj for name, obj in vars(module).items()
            if inspect.isfunction(obj) and obj.__module__ == module.__name__
            and not name.startswith("_")]


def test_no_tolerance_parameters():
    functions = [fn for module in (linalg, theorem, bounds, qubit, discriminate)
                 for fn in _public_functions(module)]
    functions += [_scan.first_root, _scan._touch_hunt]
    for fn in functions:
        params = set(inspect.signature(fn).parameters)
        assert not params & TOLERANCE_PARAMETERS, fn.__qualname__


def test_find_t_perp_sets_only_the_horizon_and_the_phase():
    # The grid step and the refinement tolerance are worked out from the pair.
    # alpha is keyword-only, so an old positional call with a step fails.
    params = inspect.signature(discriminate.find_t_perp).parameters
    assert list(params) == ["ha", "hb", "t_max", "alpha"]
    assert params["alpha"].kind is inspect.Parameter.KEYWORD_ONLY


def test_problem_commands_offer_only_the_horizon_and_the_phase():
    parser = cli.build_parser()
    (commands,) = [action.choices for action in parser._actions
                   if isinstance(action, argparse._SubParsersAction)]
    for name in ("discriminate", "bounds"):
        flags = {flag for action in commands[name]._actions for flag in action.option_strings}
        assert flags - {"-h", "--help"} == {"--input", "--output", "--t-max", "--alpha"}, name


# Phrases of the input rules ``linalg._square_pair``, ``linalg._finite_positive``,
# ``linalg._finite_nonnegative``, ``linalg._finite`` and ``linalg._count``
# state; no other module may spell them out.
INPUT_RULE_PHRASES = ("shape mismatch", "must be positive", "must be nonnegative",
                      "must be finite", "must be an integer")


def test_input_rules_are_stated_only_in_linalg():
    found = {phrase: set() for phrase in INPUT_RULE_PHRASES}
    for path in SRC.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                for phrase in INPUT_RULE_PHRASES:
                    if phrase in node.value:
                        found[phrase].add(path.name)
    assert found == {phrase: {"linalg.py"} for phrase in INPUT_RULE_PHRASES}


def test_no_module_imports_warnings():
    # Trouble is raised as a named error; no code path warns and carries on.
    for path in SRC.rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
            else:
                continue
            assert all(m.split(".")[0] != "warnings" for m in modules), path.name


def test_cli_import_loads_no_scipy():
    # A fresh interpreter, so modules the test suite imported do not count.
    code = ("import orthotime.cli, sys; print(orthotime.cli.__file__); "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    path = os.pathsep.join(filter(None, [str(SRC.parent), os.environ.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": path},
                          capture_output=True, text=True, check=True, timeout=60)
    origin, loaded = done.stdout.splitlines()
    assert Path(origin).resolve().parent == SRC
    assert loaded == "[]"
