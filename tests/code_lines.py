"""Print the code lines of each module of src/dynalg, and their total.

A code line is a non-blank line that is neither comment-only nor in a
module, class or function docstring.  Run from the root of the
repository: ``python tests/code_lines.py``.  It takes no options.
"""

import ast, pathlib
total = 0
for path in sorted(pathlib.Path("src/dynalg").glob("*.py")):
    text = path.read_text(encoding="utf-8")
    docs = set()
    for node in ast.walk(ast.parse(text)):
        kinds = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
        if isinstance(node, kinds) and ast.get_docstring(node, clean=False) is not None:
            docs.update(range(node.body[0].lineno, node.body[0].end_lineno + 1))
    lines = [line.strip() for k, line in enumerate(text.splitlines(), 1) if k not in docs]
    count = sum(1 for line in lines if line and not line.startswith("#"))
    print(f"{path.name:16} {count:5}")
    total += count
print("total".ljust(16), f"{total:5}")
