"""The benchmark tracer must find every function it instruments.

``perfbench/tracer.py`` replaces package functions by name; a rename in
``src/`` would otherwise surface only when a traced benchmark run fails.
"""

import inspect
import sys
from pathlib import Path

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

