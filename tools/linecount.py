#!/usr/bin/env python3
"""Physical and code lines of the Python files under src/ at two git revisions.

    python3 tools/linecount.py REV_A REV_B

Prints one row per file that exists at either revision, with its physical
lines and its code lines at each, then the totals and their differences.
Code lines leave out blank lines, comment-only lines and docstrings (a
string statement opening a module, class or function body); a line that
holds any other token counts once.  Files are read with ``git show``, so
the working tree is never read.
"""

from __future__ import annotations

import argparse
import ast
import io
import subprocess
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
NON_CODE = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENDMARKER,
}


def git(*args: str) -> str:
    return subprocess.run(
        ["git", *args], cwd=ROOT, check=True, capture_output=True, text=True
    ).stdout


def docstring_lines(tree: ast.AST) -> set[int]:
    """Line numbers covered by the docstrings in ``tree``."""
    lines: set[int] = set()
    for node in ast.walk(tree):
        if not isinstance(
            node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
        ):
            continue
        first = node.body[0] if node.body else None
        if (
            isinstance(first, ast.Expr)
            and isinstance(first.value, ast.Constant)
            and isinstance(first.value.value, str)
        ):
            lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count(source: str) -> tuple[int, int]:
    """(physical lines, code lines) of one Python source text."""
    code: set[int] = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in NON_CODE:
            code.update(range(tok.start[0], tok.end[0] + 1))
    return len(source.splitlines()), len(code - docstring_lines(ast.parse(source)))


def counts_at(rev: str) -> dict[str, tuple[int, int]]:
    paths = git("ls-tree", "-r", "--name-only", rev, "--", "src/").split()
    return {
        path: count(git("show", f"{rev}:{path}"))
        for path in paths
        if path.endswith(".py")
    }


def report(rev_a: str, rev_b: str) -> str:
    a, b = counts_at(rev_a), counts_at(rev_b)
    width = max(len(p) for p in [*a, *b, "total"])
    rows = [
        f"{'file':<{width}}  {'physical':>17}  {'code':>17}",
        f"{'':<{width}}  {rev_a[:8]:>8} {rev_b[:8]:>8}  {rev_a[:8]:>8} {rev_b[:8]:>8}",
    ]

    def row(name: str, ca: tuple[int, int], cb: tuple[int, int]) -> str:
        return (
            f"{name:<{width}}  {ca[0]:>8} {cb[0]:>8}  {ca[1]:>8} {cb[1]:>8}"
            f"  ({cb[0] - ca[0]:+d} physical, {cb[1] - ca[1]:+d} code)"
        )

    for path in sorted({*a, *b}):
        rows.append(row(path, a.get(path, (0, 0)), b.get(path, (0, 0))))
    totals = [tuple(map(sum, zip(*side.values()))) or (0, 0) for side in (a, b)]
    rows.append(row("total", *totals))
    return "\n".join(rows)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("rev_a")
    parser.add_argument("rev_b")
    args = parser.parse_args()
    print(report(args.rev_a, args.rev_b))


if __name__ == "__main__":
    main()
