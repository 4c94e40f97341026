"""tools/codelines.py counts the lines that hold code: not blanks, comments
or docstrings, but every line of a multi-line string that is not one."""

import importlib.util

from conftest import REPO

_SPEC = importlib.util.spec_from_file_location("codelines", REPO / "tools" / "codelines.py")
codelines = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(codelines)

SOURCE = '''"""A module
docstring."""

# a comment
import os  # code with a comment


class A:
    """A class docstring."""

    def f(self):
        """A function
        docstring."""
        text = """not a
        docstring"""
        return (os,
                text)
'''


def test_code_lines_skip_blanks_comments_and_docstrings():
    # import, class, def, the two lines of the string, and the two of the return
    assert codelines.code_lines(SOURCE) == 7


def test_the_command_prints_the_total_of_its_files(tmp_path, capsys):
    paths = []
    for name in ("a.py", "b.py"):
        (tmp_path / name).write_text(SOURCE, encoding="utf-8")
        paths.append(str(tmp_path / name))
    assert codelines.main(paths) == 0
    assert capsys.readouterr().out == "14\n"
