"""Count the code lines of the ``dehn`` package, per module and in total.

A code line is a line that holds a token other than a comment and is not
part of a docstring.  Blank lines, comment-only lines and docstrings (a
string that is a whole statement) do not count, also inside a statement
spread over several lines; a string within a statement counts every line
it spans.  Lines are found by tokenizing, so a ``#`` inside a string is
not a comment.

Run from the repository root::

    python tools/code_lines.py [directory]

The directory defaults to ``src/dehn``.  Standard library only.
"""

from __future__ import annotations

import io
import sys
import tokenize
from pathlib import Path

# tokens that hold no code of their own
_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def code_lines(source: str) -> int:
    """The number of code lines in Python source text."""
    lines: set[int] = set()
    statement: list[tokenize.TokenInfo] = []  # the tokens of the logical line so far
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type == tokenize.NEWLINE:
            if not (len(statement) == 1 and statement[0].type == tokenize.STRING):
                for t in statement:
                    lines.update(range(t.start[0], t.end[0] + 1))
            statement = []
        elif tok.type not in _LAYOUT:
            statement.append(tok)
    return len(lines)


def count_tree(root: Path) -> dict[str, int]:
    """Code lines of each ``.py`` file under ``root``, keyed by relative path."""
    return {str(path.relative_to(root)): code_lines(path.read_text(encoding="utf-8"))
            for path in sorted(root.rglob("*.py"))}


def main(argv: list[str]) -> int:
    root = Path(argv[0] if argv else "src/dehn")
    counts = count_tree(root)
    width = max(map(len, counts), default=5)
    for name, n in counts.items():
        print(f"{name:<{width}}  {n:>5}")
    print(f"{'total':<{width}}  {sum(counts.values()):>5}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
