"""Count the code lines of Python files: the non-blank lines outside comments
and docstrings, as parsed by `ast`.

Usage: python3 scripts/code_lines.py FILE...  (prints the total)
"""
import ast
import sys


def code_lines(source: str) -> int:
    """The non-blank lines of `source` that are not a comment, nor part of a
    module, class or function docstring."""
    docstrings = set()
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
                and ast.get_docstring(node, clean=False) is not None):
            docstring = node.body[0]
            docstrings.update(range(docstring.lineno, docstring.end_lineno + 1))
    return sum(1 for number, line in enumerate(source.splitlines(), 1)
               if line.strip() and not line.lstrip().startswith("#")
               and number not in docstrings)


if __name__ == "__main__":
    total = 0
    for path in sys.argv[1:]:
        with open(path, encoding="utf-8") as handle:
            total += code_lines(handle.read())
    print(total)
