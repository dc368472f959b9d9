"""Count the code lines of Python files.

A line counts when it holds a token that is not a comment, a line
break, an indent or dedent, or a string literal that stands alone as a
statement (a docstring).  Blank lines, comments and docstrings
therefore drop out, and a statement spread over several lines counts
each line it spans with code on it.

Usage: python tools/code_lines.py <file or directory>...
Prints one count per file, then the total.
"""

import sys
import tokenize
from pathlib import Path

# comments and non-logical line breaks are dropped before these apply
STATEMENT_START = {tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENCODING}
SKIP = STATEMENT_START | {tokenize.ENDMARKER}


def code_lines(path: Path) -> int:
    with path.open("rb") as f:
        tokens = [t for t in tokenize.tokenize(f.readline)
                  if t.type not in (tokenize.COMMENT, tokenize.NL)]
    lines = set()
    i = 0
    while i < len(tokens):
        tok = tokens[i]
        if tok.type == tokenize.STRING and tokens[i - 1].type in STATEMENT_START:
            # a run of adjacent literals closed by the end of the statement
            j = i
            while tokens[j].type == tokenize.STRING:
                j += 1
            if tokens[j].type in (tokenize.NEWLINE, tokenize.ENDMARKER):
                i = j
                continue
        if tok.type not in SKIP:
            lines.update(range(tok.start[0], tok.end[0] + 1))
        i += 1
    return len(lines)


def python_files(args):
    for arg in args:
        path = Path(arg)
        yield from sorted(path.rglob("*.py")) if path.is_dir() else [path]


def main(argv):
    if not argv:
        sys.exit(__doc__)
    total = 0
    for path in python_files(argv):
        count = code_lines(path)
        total += count
        print(f"{count:6d}  {path}")
    print(f"{total:6d}  total")


if __name__ == "__main__":
    main(sys.argv[1:])
