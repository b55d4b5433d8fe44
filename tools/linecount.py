"""Line count of src/snaketsys: total lines, and code lines without blank
lines, comments or docstrings, one row per module and then the total.

Run from the repository root:  python tools/linecount.py
"""
import ast
import glob
import io
import tokenize

SKIP = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER}
DOCUMENTED = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def count(src: str) -> tuple[int, int]:
    """(lines, code lines) of one module's source."""
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(src).readline):
        if tok.type not in SKIP:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    for node in ast.walk(ast.parse(src)):
        if isinstance(node, DOCUMENTED) and ast.get_docstring(node) is not None:
            lines.difference_update(range(node.body[0].lineno, node.body[0].end_lineno + 1))
    return src.count("\n"), len(lines)


def main() -> None:
    total = code = 0
    for path in sorted(glob.glob("src/snaketsys/*.py")):
        with open(path, encoding="utf-8") as f:
            lines, code_lines = count(f.read())
        print(f"{path}: {lines} lines, {code_lines} code lines")
        total += lines
        code += code_lines
    print(f"src/ lines: {total}, code lines: {code}")


if __name__ == "__main__":
    main()
