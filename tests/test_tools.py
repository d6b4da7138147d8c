"""tools/code_lines.py counts the code lines of a module."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "code_lines.py"
spec = importlib.util.spec_from_file_location("code_lines", TOOL)
code_lines = importlib.util.module_from_spec(spec)
spec.loader.exec_module(code_lines)

SAMPLE = '''"""Module docstring,
over two lines."""

import math  # a trailing comment counts as its code line


# a comment line
def f(x):
    """One-line docstring."""
    text = """a string that is
    not a docstring"""
    return math.hypot(
        x,
        1.0,
    )


class C:
    """Class docstring."""

    y = 1
'''


def test_counts_code_lines_without_docstrings_comments_or_blanks():
    # import 1, def 1, the string assignment 2, the call 4, class 1, y 1
    assert code_lines.code_lines(SAMPLE) == 10


def test_prints_every_module_and_the_total(tmp_path, capsys):
    (tmp_path / "a.py").write_text(SAMPLE)
    (tmp_path / "b.py").write_text("x = 1\n\n# done\n")
    assert code_lines.main([str(tmp_path)]) == 0
    assert capsys.readouterr().out.split("\n") == ["   10 a.py", "    1 b.py", "   11 total", ""]
