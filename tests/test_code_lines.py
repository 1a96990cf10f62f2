"""The code-line counter of tools/code_lines.py on a fixed snippet."""

import importlib.util
from pathlib import Path

_PATH = Path(__file__).resolve().parent.parent / "tools" / "code_lines.py"
_SPEC = importlib.util.spec_from_file_location("code_lines", _PATH)
code_lines = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(code_lines)

SNIPPET = '''"""Module docstring,
over two lines."""

# a comment-only line
import os  # a trailing comment does not hide code


def f(x):
    """One-line docstring."""
    total = (x +  # a comment inside an expression

             1)
    return """# not a comment,
    over two lines"""
'''


def test_counts_code_lines_only():
    # import, def, the first and last lines of the assignment, both lines of
    # the returned string
    assert code_lines.code_lines(SNIPPET) == 6


def test_counts_the_tree(tmp_path):
    (tmp_path / "a.py").write_text(SNIPPET)
    (tmp_path / "b.py").write_text("x = 1\n\n'''a string statement'''\n")
    assert code_lines.count_tree(tmp_path) == {"a.py": 6, "b.py": 1}
