"""tools/src_lines.py: each line of a module is counted once, as code,
docstring, comment or blank, and --against REF gives the change of each
count per module and in total since a git revision."""

import importlib.util
import shutil
import subprocess
from pathlib import Path

import pytest

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


BEFORE = {"a.py": "x = 1\n", "b.py": '"""Doc."""\n'}
AFTER = {"a.py": "x = 1\n\n# note\ny = 2\n", "c.py": "z = 3\n"}


def test_change_between_two_trees():
    # a.py gains a code, a comment and a blank line; b.py goes; c.py is new
    assert src_lines.change(BEFORE, AFTER) == [
        ("a.py", (1, 0, 1, 1)), ("b.py", (0, -1, 0, 0)), ("c.py", (1, 0, 0, 0)),
        ("total", (2, -1, 1, 1))]


@pytest.mark.skipif(shutil.which("git") is None, reason="needs git")
def test_against_a_git_revision(tmp_path, capsys):
    def git(*args):
        subprocess.run(["git", "-C", str(tmp_path), "-c", "user.name=t", "-c", "user.email=t@t",
                        *args], check=True, capture_output=True)

    root = tmp_path / "src"
    root.mkdir()
    (tmp_path / "README").write_text("not counted\n")
    for name, text in BEFORE.items():
        (root / name).write_text(text)
    git("init", "-q")
    git("add", "-A")
    git("commit", "-q", "-m", "before")
    (root / "b.py").unlink()
    for name, text in AFTER.items():
        (root / name).write_text(text)
    assert src_lines.at_revision(root, "HEAD") == BEFORE
    assert src_lines.main(["src_lines.py", str(root), "--against", "HEAD"]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "module    code    doc comment  blank",
        "a.py       +1     +0      +1     +1",
        "b.py       +0     -1      +0     +0",
        "c.py       +1     +0      +0     +0",
        "total      +2     -1      +1     +1",
    ]
    with pytest.raises(SystemExit, match="^src_lines: git ls-tree failed: "):
        src_lines.main(["src_lines.py", str(root), "--against", "no-such-revision"])
