"""Count the lines of each module under src/ by kind: code, docstring,
comment and blank.

    python3 tools/src_lines.py [ROOT] [--against REF]

ROOT defaults to the repository's src/. A line is code when it
holds any token of a statement; a docstring line when it holds only a
string that stands alone as a statement; a comment line when it holds only
a comment; blank otherwise. The table lists every module and a total row.
With --against, it lists instead the change of each count from the same
directory at git revision REF to the files on disk, signed; a module on
one side only counts as zero on the other.
"""

from __future__ import annotations

import argparse
import io
import subprocess
import sys
import tokenize
from pathlib import Path

_LAYOUT = (tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER,
           tokenize.ENCODING)
_STATEMENT_START = (tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENCODING)
_ZERO = (0, 0, 0, 0)


def count(text):
    """(code, docstring, comment, blank) line counts of Python source."""
    code, doc, comment = set(), set(), set()
    tokens = [t for t in tokenize.generate_tokens(io.StringIO(text).readline)
              if t.type != tokenize.NL]
    prev = tokenize.NEWLINE  # the type of the last token that is not a comment
    for i, tok in enumerate(tokens):
        rows = range(tok.start[0], tok.end[0] + 1)
        if tok.type == tokenize.COMMENT:
            comment.add(tok.start[0])
            continue
        if tok.type == tokenize.STRING and prev in _STATEMENT_START and _next(tokens, i) in (
                tokenize.NEWLINE, tokenize.ENDMARKER):
            doc.update(rows)  # a string that is a whole statement
        elif tok.type not in _LAYOUT:
            code.update(rows)
        prev = tok.type
    doc -= code
    comment -= code | doc
    total = len(text.splitlines())
    return len(code), len(doc), len(comment), total - len(code) - len(doc) - len(comment)


def _next(tokens, i):
    """The type of the first token after i that is not a comment (the last
    token is always ENDMARKER)."""
    i += 1
    while tokens[i].type == tokenize.COMMENT:
        i += 1
    return tokens[i].type


def on_disk(root):
    """{module path relative to root: source} of every .py file under root."""
    return {path.relative_to(root).as_posix(): path.read_text()
            for path in sorted(root.rglob("*.py"))}


def at_revision(root, ref):
    """on_disk(root) as it stands at git revision ref of root's repository."""
    def git(*args):
        return subprocess.run(["git", "-C", str(root), *args], check=True,
                              capture_output=True, text=True).stdout

    prefix = git("rev-parse", "--show-prefix").strip()
    names = git("ls-tree", "-r", "--name-only", "--full-name", ref, "--", ".").splitlines()
    return {name[len(prefix):]: git("show", f"{ref}:{name}")
            for name in names if name.endswith(".py")}


def rows(sources):
    """(module, counts) per module of sources, then ("total", sums)."""
    table = [(name, count(text)) for name, text in sorted(sources.items())]
    return table + [("total", tuple(map(sum, zip(_ZERO, *(c for _, c in table)))))]


def change(before, after):
    """rows of the change from sources before to sources after, per module
    in either and in total."""
    old, new = dict(rows(before)), dict(rows(after))
    return [(name, tuple(b - a for a, b in zip(old.get(name, _ZERO), new.get(name, _ZERO))))
            for name in sorted((set(old) | set(new)) - {"total"}) + ["total"]]


def render(table, signed=False):
    """The table as lines of text, one per row under a header."""
    width = max(len(name) for name, _ in table)
    sign = "+" if signed else ""
    lines = [f"{'module':<{width}}  {'code':>6} {'doc':>6} {'comment':>7} {'blank':>6}"]
    for name, (code, doc, comment, blank) in table:
        lines.append(f"{name:<{width}}  {code:>{sign}6} {doc:>{sign}6} {comment:>{sign}7} "
                     f"{blank:>{sign}6}")
    return lines


def main(argv):
    parser = argparse.ArgumentParser(description="Count src/ lines by kind.")
    parser.add_argument("root", nargs="?", type=Path,
                        default=Path(__file__).resolve().parent.parent / "src")
    parser.add_argument("--against", metavar="REF",
                        help="print the change of each count since git revision REF")
    args = parser.parse_args(argv[1:])
    if args.against is None:
        table = render(rows(on_disk(args.root)))
    else:
        try:
            before = at_revision(args.root, args.against)
        except subprocess.CalledProcessError as e:
            sys.exit(f"src_lines: git {e.cmd[3]} failed: {e.stderr.strip()}")
        table = render(change(before, on_disk(args.root)), signed=True)
    print("\n".join(table))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
