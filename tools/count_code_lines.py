"""Count code, docstring and comment lines of Python sources (stdlib only).

Every physical line of a file lands in exactly one class:

* **docstring** — inside a module, class or function docstring (found
  with :mod:`ast`: a string constant that is a body's first statement);
* **code** — carries at least one token other than a comment, so a line
  with code and a trailing comment is code, and every line of a
  multi-line non-docstring string is code;
* **comment** — carries only a comment (found with :mod:`tokenize`);
* **blank** — anything else (empty lines, lines inside docstrings are
  never blank).

Usage::

    python tools/count_code_lines.py src/repro/live
    python tools/count_code_lines.py src/repro/live/stream.py src/repro/live/records.py

Directories are walked for ``*.py`` files.  Prints one row per file and
a total row; compare two trees by running it in each.
"""

from __future__ import annotations

import ast
import io
import os
import sys
import tokenize

#: Token types that occupy a line without making it code.
_LAYOUT = {
    tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
    tokenize.ENCODING, tokenize.ENDMARKER,
}


def docstring_lines(tree: ast.AST) -> set[int]:
    """Line numbers covered by docstrings anywhere in *tree*."""
    lines: set[int] = set()
    for node in ast.walk(tree):
        if not isinstance(
            node,
            (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef),
        ):
            continue
        body = node.body
        if (
            body
            and isinstance(body[0], ast.Expr)
            and isinstance(body[0].value, ast.Constant)
            and isinstance(body[0].value.value, str)
        ):
            lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def count_lines(source: str) -> dict[str, int]:
    """Classify every line of *source*; returns counts per class."""
    docs = docstring_lines(ast.parse(source))
    code: set[int] = set()
    comments: set[int] = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type == tokenize.COMMENT:
            comments.add(tok.start[0])
        elif tok.type not in _LAYOUT:
            code.update(range(tok.start[0], tok.end[0] + 1))
    code -= docs
    comments -= code | docs
    n_lines = len(source.splitlines())
    return {
        "code": len(code),
        "docstring": len(docs),
        "comment": len(comments),
        "blank": n_lines - len(code) - len(docs) - len(comments),
    }


def python_files(paths: list[str]) -> list[str]:
    out: list[str] = []
    for path in paths:
        if os.path.isdir(path):
            for root, dirs, files in os.walk(path):
                dirs[:] = sorted(d for d in dirs if d != "__pycache__")
                out.extend(
                    os.path.join(root, f) for f in sorted(files)
                    if f.endswith(".py")
                )
        else:
            out.append(path)
    return out


def main(argv: list[str]) -> int:
    if not argv:
        print(__doc__.strip().splitlines()[0], file=sys.stderr)
        print("usage: count_code_lines.py PATH [PATH ...]", file=sys.stderr)
        return 2
    keys = ("code", "docstring", "comment", "blank")
    total = dict.fromkeys(keys, 0)
    print(f"{'code':>6} {'doc':>6} {'comment':>7} {'blank':>6}  file")
    for path in python_files(argv):
        with open(path, encoding="utf-8") as fh:
            counts = count_lines(fh.read())
        for key in keys:
            total[key] += counts[key]
        print(f"{counts['code']:>6} {counts['docstring']:>6} "
              f"{counts['comment']:>7} {counts['blank']:>6}  {path}")
    print(f"{total['code']:>6} {total['docstring']:>6} "
          f"{total['comment']:>7} {total['blank']:>6}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
