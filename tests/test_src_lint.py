"""Source checks that need no import of the package."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "dgcat"


def test_src_has_no_assert_statements():
    """Verification must survive `python -O`, which strips `assert`: every
    check in src/dgcat raises or reports instead."""
    files = sorted(SRC.glob("*.py"))
    assert files
    found = [
        f"{path.name}:{node.lineno}"
        for path in files
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert not found, found
