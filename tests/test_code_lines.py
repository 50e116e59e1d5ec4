"""Tests for the code-line counter in ``tools/``."""

import importlib.util
from pathlib import Path

_PATH = Path(__file__).resolve().parents[1] / "tools" / "code_lines.py"
_spec = importlib.util.spec_from_file_location("code_lines", _PATH)
code_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(code_lines)

SNIPPET = '''"""A module docstring
over two lines."""

import os  # a trailing comment keeps its line

# a comment line


def f(a,
      b):
    """A function docstring."""
    text = """not a docstring
    but a string"""
    return (a +
            b + len(text))
'''


def test_counts_statement_lines_only():
    # import; def over 2 lines; the string assignment over 2; return over 2.
    assert code_lines.code_lines(SNIPPET) == 7


def test_main_prints_each_file_and_total(tmp_path, capsys):
    path = tmp_path / "snippet.py"
    path.write_text(SNIPPET)
    assert code_lines.main([str(path), str(path)]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out == [f"     7 {path}", f"     7 {path}", "    14 total"]
