import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "code_lines.py"
spec = importlib.util.spec_from_file_location("code_lines", TOOL)
code_lines = importlib.util.module_from_spec(spec)
spec.loader.exec_module(code_lines)

# 7 code lines: the import, the def, both lines of the bracketed sum and
# of the assigned string, and the return; docstrings, the bare string
# statement, comments and blank lines do not count
SOURCE = '''"""Module docstring,
on two lines."""

import os  # a comment

# a comment line


def f(x):
    """One-line docstring."""
    y = (x +
         1)
    s = """not a
docstring"""
    "a bare string statement"
    return y, s
'''


def test_counts_code_lines_only():
    assert code_lines.code_lines(SOURCE) == 7
    assert code_lines.code_lines("") == 0


def test_prints_each_file_and_the_total(tmp_path, capsys):
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "a.py").write_text(SOURCE)
    (tmp_path / "b.py").write_text("x = 1\n\n# end\n")
    assert code_lines.main([str(tmp_path)]) == 0
    assert capsys.readouterr().out.split("\n") == [
        "     1  b.py", "     7  pkg/a.py", "     8  total", ""]
    assert code_lines.main([str(tmp_path / "b.py")]) == 2
