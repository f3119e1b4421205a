"""Count the code lines and total lines of each module under ``src/``.

Code lines are the total less blank lines, comment-only lines and
docstring lines, where docstring lines are every line of each module,
class and function docstring node found by ``ast`` (blank lines inside a
docstring count once, as docstring lines). Run from the root of a
checkout:

    python tools/code_lines.py
"""

from __future__ import annotations

import ast
import pathlib


def _docstring_lines(tree: ast.AST) -> set[int]:
    lines = set()
    for node in ast.walk(tree):
        body = getattr(node, "body", None)
        if isinstance(body, list) and body and isinstance(body[0], ast.Expr):
            value = body[0].value
            if isinstance(value, ast.Constant) and isinstance(value.value, str):
                lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def count(path: pathlib.Path) -> tuple[int, int]:
    """(code lines, total lines) of one Python file."""
    text = path.read_text()
    doc = _docstring_lines(ast.parse(text, filename=str(path)))
    lines = text.splitlines()
    code = sum(i not in doc and line.strip() != "" and not line.strip().startswith("#")
               for i, line in enumerate(lines, 1))
    return code, len(lines)


def main() -> None:
    root = pathlib.Path("src")
    total_code = total_lines = 0
    for path in sorted(root.rglob("*.py")):
        code, lines = count(path)
        total_code += code
        total_lines += lines
        print(f"{code:6d} {lines:6d}  {path.relative_to(root)}")
    print(f"{total_code:6d} {total_lines:6d}  total: {total_code:,} code lines of {total_lines:,}")


if __name__ == "__main__":
    main()
