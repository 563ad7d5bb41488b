"""Count the physical and code lines of each module of a package, and in total.

A code line holds a token other than a comment or a line break, and is not part
of a docstring (a string-constant expression statement). Run from the repository
root; the package directory defaults to ``src/prefaudit``:

    python tools/count_lines.py [PACKAGE_DIR]
"""

import ast
import sys
import tokenize
from pathlib import Path

_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER}


def count(source: str) -> tuple[int, int]:
    """The physical and the code lines of ``source``."""
    docstrings = {
        line
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant) and isinstance(node.value.value, str)
        for line in range(node.lineno, node.end_lineno + 1)
    }
    tokens = tokenize.generate_tokens(iter(source.splitlines(True)).__next__)
    code = {line for tok in tokens if tok.type not in _NOT_CODE for line in range(tok.start[0], tok.end[0] + 1)}
    return len(source.splitlines()), len(code - docstrings)


def main(argv: list[str]) -> None:
    package = Path(argv[0] if argv else "src/prefaudit")
    total_physical = total_code = 0
    print(f"{'module':<20} {'physical':>8} {'code':>6}")
    for path in sorted(package.glob("*.py")):
        physical, code = count(path.read_text(encoding="utf-8"))
        total_physical += physical
        total_code += code
        print(f"{path.name:<20} {physical:>8} {code:>6}")
    print(f"{'total':<20} {total_physical:>8} {total_code:>6}")


if __name__ == "__main__":
    main(sys.argv[1:])
