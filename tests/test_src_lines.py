"""tools/src_lines.py: each line of a module is counted once, as code,
docstring, comment or blank."""

import importlib.util
from pathlib import Path

_PATH = Path(__file__).resolve().parent.parent / "tools" / "src_lines.py"
_spec = importlib.util.spec_from_file_location("src_lines", _PATH)
src_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(src_lines)

SOURCE = '''"""Module docstring,
two lines."""

import os  # a trailing comment keeps its line code

# a comment line


def f(x):
    """One-line docstring."""
    message = """a string that is
    part of a statement"""
    return x, message
'''


def test_counts_by_kind():
    # code: import, def, message (2 lines), return; doc: 3; comment: 1; blank: 4
    assert src_lines.count(SOURCE) == (5, 3, 1, 4)


def test_every_line_of_src_is_counted_once():
    for path in (_PATH.parent.parent / "src").rglob("*.py"):
        text = path.read_text()
        assert sum(src_lines.count(text)) == len(text.splitlines()), path
