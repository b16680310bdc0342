"""Print each ``src/arabmorph`` module's lines and code lines, and the
totals.  A code line holds a token that is not a comment and not part of
a docstring (module, class or function); blank lines count as lines only.
Given two source directories, print each module's code lines in both and
the difference, and the totals.

    python3 tools/src_lines.py [SRC_DIR]
    python3 tools/src_lines.py BASE_DIR NEW_DIR
"""

from __future__ import annotations

import ast
import sys
import tokenize
from pathlib import Path

_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def docstring_lines(tree: ast.AST) -> set[int]:
    """The line numbers that the docstrings in ``tree`` span."""
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr)
                    and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count(path: Path) -> tuple[int, int]:
    """(lines, code lines) of the Python file at ``path``."""
    text = path.read_text(encoding="utf-8")
    docs = docstring_lines(ast.parse(text))
    code: set[int] = set()
    with path.open("rb") as f:
        for tok in tokenize.tokenize(f.readline):
            if tok.type not in _NOT_CODE:
                code.update(range(tok.start[0], tok.end[0] + 1))
    return len(text.splitlines()), len(code - docs)


def compare(base: Path, new: Path) -> None:
    """Print each module's code lines in ``base`` and in ``new`` and the
    difference, then the totals; a module one tree lacks counts 0 there."""
    names = sorted({path.name for src in (base, new)
                    for path in src.glob("*.py")})
    total = [0, 0]
    print(f"{'module':<16}{'base':>7}{'new':>7}{'diff':>7}")
    for name in names:
        old, now = (count(src / name)[1] if (src / name).exists() else 0
                    for src in (base, new))
        total[0] += old
        total[1] += now
        print(f"{name:<16}{old:>7}{now:>7}{now - old:>+7}")
    print(f"{'total':<16}{total[0]:>7}{total[1]:>7}"
          f"{total[1] - total[0]:>+7}")


def main(argv: list[str]) -> None:
    if len(argv) == 2:
        compare(*map(Path, argv))
        return
    src = Path(argv[0]) if argv else (
        Path(__file__).resolve().parent.parent / "src" / "arabmorph")
    total = [0, 0]
    print(f"{'module':<16}{'lines':>7}{'code':>7}")
    for path in sorted(src.glob("*.py")):
        lines, code = count(path)
        total[0] += lines
        total[1] += code
        print(f"{path.name:<16}{lines:>7}{code:>7}")
    print(f"{'total':<16}{total[0]:>7}{total[1]:>7}")


if __name__ == "__main__":
    main(sys.argv[1:])
