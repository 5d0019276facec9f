"""Count the code lines of Python files: lines that hold a token other than a
comment and are not part of a docstring.  A directory stands for the *.py
files directly in it.

    python tools/code_lines.py src/qbalance/*.py
    python tools/code_lines.py src/qbalance
"""

import ast
import io
import sys
import tokenize
from pathlib import Path

SKIP = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER}


def code_lines(src):
    docs = set()
    for node in ast.walk(ast.parse(src)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) and isinstance(first.value.value, str):
                docs.update(range(first.lineno, first.end_lineno + 1))
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(src).readline):
        if tok.type not in SKIP:
            code.update(range(tok.start[0], tok.end[0] + 1))
    return len(code - docs)


def main(args):
    paths = [p for arg in args for p in (sorted(Path(arg).glob("*.py")) if Path(arg).is_dir() else [arg])]
    total = 0
    for path in paths:
        with open(path) as fh:
            count = code_lines(fh.read())
        total += count
        print(f"{count:6d} code lines  {path}")
    print(f"{total:6d} code lines  total")


if __name__ == "__main__":
    main(sys.argv[1:])
