#!/usr/bin/env python3
"""Line counts of Python files: each file's `wc -l` and its code lines.

A code line holds at least one token that is not a comment, and lies
outside every docstring (the first statement of a module, class or
function when it is a string, found by `ast`). Blank lines, comment-only
lines and docstring lines are not code. Prints one row per file and a total:

    python scripts/code_lines.py src/qladder/*.py
"""

import ast
import io
import sys
import tokenize

_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
           tokenize.ENDMARKER}


def code_lines(source: str) -> int:
    """The number of code lines of one module's source."""
    lines = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in _LAYOUT:
            lines.update(range(token.start[0], token.end[0] + 1))
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.difference_update(range(first.lineno, first.end_lineno + 1))
    return len(lines)


def main(paths: list[str]) -> int:
    if not paths:
        print("usage: code_lines.py FILE...", file=sys.stderr)
        return 2
    total_wc = total_code = 0
    print(f"{'wc -l':>7} {'code':>7}  file")
    for path in paths:
        with open(path, encoding="utf-8") as handle:
            source = handle.read()
        wc, code = source.count("\n"), code_lines(source)
        total_wc, total_code = total_wc + wc, total_code + code
        print(f"{wc:>7} {code:>7}  {path}")
    print(f"{total_wc:>7} {total_code:>7}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
