import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

SAMPLE = '''"""Module docstring
over two lines."""

import os  # a trailing comment keeps its line

# a comment-only line


def f(x):
    """Function docstring."""
    return os.path.join(
        x,
        "a",
    )


class C:
    """Class docstring
    over two lines."""

    y = """a string that is
    not a docstring"""
'''


def run_tool(path):
    done = subprocess.run([sys.executable, str(ROOT / "tools" / "code_lines.py"), str(path)],
                          capture_output=True, text=True, check=True)
    return [line.rsplit(" ", 1) for line in done.stdout.splitlines()]


def test_synthetic_module(tmp_path):
    # import, def, the four lines of the call, class and the two lines of y.
    path = tmp_path / "sample.py"
    path.write_text(SAMPLE)
    assert run_tool(path) == [[str(path), "9"], ["total", "9"]]


def test_package_total_is_the_sum_of_its_modules():
    *modules, (label, total) = run_tool(ROOT / "src" / "orthotime")
    assert label == "total"
    assert sorted(Path(name).name for name, _ in modules) == sorted(
        p.name for p in (ROOT / "src" / "orthotime").glob("*.py"))
    assert int(total) == sum(int(count) for _, count in modules) > 0
