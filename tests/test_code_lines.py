"""tools/code_lines.py counts code lines without docstrings, comments or blanks."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "code_lines.py"
_spec = importlib.util.spec_from_file_location("code_lines", TOOL)
code_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(code_lines)

FIXTURE = '''"""A module docstring
over two lines."""

import os  # a trailing comment keeps its line

# a comment line


def f(x):
    """A one-line docstring."""
    text = """a string that is
    no docstring"""
    return (x +
            1)


class C:
    """A class docstring."""

    value = 1
'''


def test_code_lines_skip_docstrings_comments_and_blanks(tmp_path, capsys):
    # import, def, two lines of text, return over two lines, class, value
    assert code_lines.code_lines(FIXTURE) == 8
    (tmp_path / "a.py").write_text(FIXTURE, encoding="utf-8")
    (tmp_path / "b.py").write_text("x = 1\n\n# note\n", encoding="utf-8")
    assert code_lines.main([str(tmp_path)]) == 0
    assert capsys.readouterr().out.split() == ["a.py", "8", "b.py", "1", "total", "9"]
