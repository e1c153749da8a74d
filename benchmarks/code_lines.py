"""Count the code lines of each module under ``src/``.

A line counts when it holds a token other than a comment, a NL,
NEWLINE, INDENT or DEDENT token, or part of a module, class or function
docstring; blank lines do not count.  A token that spans lines (a
triple-quoted string that is not a docstring) counts on every line it
covers.  Stdlib only.  Run from the repository root:

    python3 benchmarks/code_lines.py             # every module, then the total
    python3 benchmarks/code_lines.py --base REV  # "REV -> tree" per module that
                                                 # differs, then both totals

``--base`` reads each module at ``REV`` with ``git show REV:path``.
Exit codes: 0 OK, 2 usage error (a bad revision included).
"""

from __future__ import annotations

import argparse
import ast
import io
import os
import subprocess
import sys
import tokenize

#: token types that never make a line count
_SKIP = {
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
    tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER,
}

_SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def _docstring_starts(tree):
    """(row, col) of every module, class and function docstring."""
    starts = set()
    for node in ast.walk(tree):
        if isinstance(node, _SCOPES) and node.body:
            first = node.body[0]
            if (
                isinstance(first, ast.Expr)
                and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)
            ):
                starts.add((first.value.lineno, first.value.col_offset))
    return starts


def count_code_lines(source: str) -> int:
    """The number of code lines in one module's source."""
    docstrings = _docstring_starts(ast.parse(source))
    rows = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type in _SKIP:
            continue
        if token.type == tokenize.STRING and token.start in docstrings:
            continue
        rows.update(range(token.start[0], token.end[0] + 1))
    return len(rows)


def _modules(root: str):
    """Every ``.py`` file under ``root/src``, as repo-relative paths."""
    found = []
    for folder, dirs, files in os.walk(os.path.join(root, "src")):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        found.extend(
            os.path.relpath(os.path.join(folder, name), root)
            for name in files if name.endswith(".py")
        )
    return sorted(found)


def _base_modules(root: str, rev: str):
    """``{path: source}`` for every module under ``src/`` at ``rev``."""
    names = subprocess.run(
        ["git", "ls-tree", "-r", "--name-only", rev, "--", "src"],
        cwd=root, check=True, capture_output=True, text=True,
    ).stdout.split()
    return {
        path: subprocess.run(
            ["git", "show", "%s:%s" % (rev, path)],
            cwd=root, check=True, capture_output=True, text=True,
        ).stdout
        for path in names if path.endswith(".py")
    }


def _read(root: str, path: str) -> str:
    with open(os.path.join(root, path)) as handle:
        return handle.read()


def main(argv=None, root: str = ".") -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", metavar="REV",
                        help="compare against the modules at this git revision")
    args = parser.parse_args(argv)
    tree = {path: count_code_lines(_read(root, path)) for path in _modules(root)}
    if args.base is None:
        for path, count in tree.items():
            print("%6d  %s" % (count, path))
        print("%6d  total" % sum(tree.values()))
        return 0
    try:
        base = {
            path: count_code_lines(source)
            for path, source in _base_modules(root, args.base).items()
        }
    except subprocess.CalledProcessError as exc:
        print("cannot read %s: %s" % (args.base, exc.stderr.strip()), file=sys.stderr)
        return 2
    for path in sorted(set(base) | set(tree)):
        before, after = base.get(path, 0), tree.get(path, 0)
        if before != after:
            print("%6d -> %6d  %s" % (before, after, path))
    print("%6d -> %6d  total" % (sum(base.values()), sum(tree.values())))
    return 0


if __name__ == "__main__":
    sys.exit(main())
