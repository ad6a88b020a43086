"""Prints the lines and code lines of each `src/pvpool/*.py` module and
their totals.

    python3 .github/code_lines.py [CHECKOUT]

CHECKOUT is the repository's root, by default the one holding this file.
A code line holds a token other than a comment: blank lines, comment
lines and docstrings (a string that is the first statement of a module,
class or function) do not count.  A token over several lines, such as a
multi-line string that is not a docstring, counts on each of them.
"""

import ast
import io
import pathlib
import sys
import tokenize

_SKIP = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
         tokenize.DEDENT, tokenize.ENDMARKER}


def _docstring_starts(tree):
    """(line, column) of every docstring in the parsed module."""
    starts = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) \
                    and isinstance(first.value, ast.Constant) \
                    and isinstance(first.value.value, str):
                starts.add((first.lineno, first.col_offset))
    return starts


def count(text):
    """(lines, code lines) of one module's source text."""
    docstrings = _docstring_starts(ast.parse(text))
    code = set()
    for token in tokenize.generate_tokens(io.StringIO(text).readline):
        if token.type in _SKIP or (token.type == tokenize.STRING
                                   and token.start in docstrings):
            continue
        code.update(range(token.start[0], token.end[0] + 1))
    return len(text.splitlines()), len(code)


def main():
    checkout = pathlib.Path(sys.argv[1]) if len(sys.argv) > 1 \
        else pathlib.Path(__file__).resolve().parent.parent
    root = checkout / "src" / "pvpool"
    total_lines = total_code = 0
    print(f"{'module':<16}{'lines':>8}{'code':>8}")
    for path in sorted(root.glob("*.py")):
        lines, code = count(path.read_text(encoding="utf-8"))
        total_lines += lines
        total_code += code
        print(f"{path.name:<16}{lines:>8,}{code:>8,}")
    print(f"{'total':<16}{total_lines:>8,}{total_code:>8,}")


if __name__ == "__main__":
    main()
