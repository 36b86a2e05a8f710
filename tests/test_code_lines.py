"""The code-line counter that the size figures in CHANGES.md and ROADMAP.md use."""

import importlib.util
from pathlib import Path

_PATH = Path(__file__).resolve().parents[1] / "tools" / "code_lines.py"
_spec = importlib.util.spec_from_file_location("code_lines", _PATH)
code_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(code_lines)

SNIPPET = '''"""Module docstring,
two lines."""

import os  # a comment


def f(x):
    """Docstring."""
    # a comment line

    y = {"a": 1,
         "b": """not a
docstring"""}
    "a string statement"
    return os.path.join(x,
                        y["a"])
'''


def test_counts_code_lines_only():
    # the import, the def, the three lines of y and the two of the return
    assert code_lines.code_lines(SNIPPET) == 7
