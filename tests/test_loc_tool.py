"""Tests of ``tools/loc.py``, which counts the code lines of ``src/provex``."""

import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "loc.py"

SOURCE = '''"""A module docstring
over two lines."""

import os  # a comment after code


def f(x):
    """A function docstring."""
    # A comment line.

    return os.path.join(
        x,
        "y",
    )


TEXT = """a string that is
not a docstring"""
'''


def run_tool(*args):
    proc = subprocess.run([sys.executable, str(TOOL), *args], capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0 and proc.stderr == "", proc.stderr
    return [line.split(maxsplit=1) for line in proc.stdout.splitlines()]


def test_docstrings_comments_and_blank_lines_count_for_nothing(tmp_path):
    path = tmp_path / "sample.py"
    path.write_text(SOURCE)
    # import, def, the four lines of the call, and the two of the string.
    assert run_tool(str(path)) == [["8", str(path)], ["8", "total"]]


def test_the_default_counts_every_module_and_adds_them_up():
    rows = run_tool()
    modules = sorted(str(path) for path in (TOOL.parent.parent / "src" / "provex").glob("*.py"))
    assert [name for _, name in rows[:-1]] == modules
    assert rows[-1] == [str(sum(int(count) for count, _ in rows[:-1])), "total"]
