"""tools/code_lines.py: the code-line count that CHANGES.md cites for src/."""

import importlib.util
from pathlib import Path

_TOOL = Path(__file__).resolve().parents[1] / "tools" / "code_lines.py"
_spec = importlib.util.spec_from_file_location("code_lines", _TOOL)
code_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(code_lines)

SOURCE = '''"""A module docstring
over two lines."""

import os  # a trailing comment counts with its code

# a comment line


def f(a):
    """A function docstring."""
    text = """a string that is
not a docstring"""
    return os.path.join(
        a,
        text,
    )
'''


def test_counts_lines_with_a_token_outside_comments_and_docstrings():
    # import, def, the two lines of the non-docstring string, and the four
    # lines of the multi-line call
    assert code_lines.code_lines(SOURCE) == 8


def test_prints_each_file_and_the_total(tmp_path, capsys):
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "a.py").write_text(SOURCE)
    (tmp_path / "b.py").write_text("x = 1\n")
    assert code_lines.main([str(tmp_path / "pkg"), str(tmp_path / "b.py")]) == 0
    assert capsys.readouterr().out.splitlines() == [
        f"      8  {tmp_path / 'pkg' / 'a.py'}",
        f"      1  {tmp_path / 'b.py'}",
        "      9  total"]
