"""Count the lines of each module under src/ by kind: code, docstring,
comment and blank.

    python3 tools/src_lines.py [ROOT]

ROOT defaults to the repository's src/. A line is code when it
holds any token of a statement; a docstring line when it holds only a
string that stands alone as a statement; a comment line when it holds only
a comment; blank otherwise. The table lists every module and a total row.
"""

from __future__ import annotations

import io
import sys
import tokenize
from pathlib import Path

_LAYOUT = (tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER,
           tokenize.ENCODING)
_STATEMENT_START = (tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENCODING)


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


def main(argv):
    root = Path(argv[1]) if len(argv) > 1 else Path(__file__).resolve().parent.parent / "src"
    rows = [(str(path.relative_to(root)), count(path.read_text()))
            for path in sorted(root.rglob("*.py"))]
    rows.append(("total", tuple(map(sum, zip(*(counts for _, counts in rows))))))
    width = max(len(name) for name, _ in rows)
    print(f"{'module':<{width}}  {'code':>6} {'doc':>6} {'comment':>7} {'blank':>6}")
    for name, (code, doc, comment, blank) in rows:
        print(f"{name:<{width}}  {code:>6} {doc:>6} {comment:>7} {blank:>6}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
