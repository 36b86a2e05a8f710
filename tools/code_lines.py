"""Count the code lines of Python files: lines left once docstrings, comments and blank lines go.

A docstring here is any statement that is only a string literal, as a
module's, class's or function's first statement is.  A line counts when
some token other than such a string, a comment or a line break sits on
it; a string or bracket spanning several lines counts each of them.

Run ``python tools/code_lines.py src/hgsparse`` for one count per file
and the total; directories are searched for ``*.py`` files.
"""

from __future__ import annotations

import io
import sys
import tokenize
from pathlib import Path

_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def code_lines(source: str) -> int:
    """The number of code lines in ``source``, Python text."""
    lines: set[int] = set()
    statement: list[tokenize.TokenInfo] = []  # the logical line so far
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in _LAYOUT:
            statement.append(token)
        elif token.type == tokenize.NEWLINE:
            if not all(t.type == tokenize.STRING for t in statement):
                for t in statement:
                    lines.update(range(t.start[0], t.end[0] + 1))
            statement = []
    return len(lines)


def main(argv: list[str]) -> int:
    paths = [p for arg in argv
             for p in (sorted(Path(arg).rglob("*.py")) if Path(arg).is_dir() else [Path(arg)])]
    total = 0
    for path in paths:
        count = code_lines(path.read_text(encoding="utf-8"))
        total += count
        print(f"{count:6d}  {path}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
