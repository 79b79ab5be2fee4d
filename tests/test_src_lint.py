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


def test_src_has_no_mutable_default_arguments():
    """A default argument is made once per function, so a `{}`, `[]` or
    set default would carry state from one call to the next (a shared dict
    default on `DGCategory._associativity` would leak between `validate`
    calls).  No default in src/dgcat is a dict, list or set display, a
    comprehension of one, or a call of dict, list or set."""
    mutable = (ast.Dict, ast.List, ast.Set, ast.DictComp, ast.ListComp, ast.SetComp)
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                for d in node.args.defaults + [d for d in node.args.kw_defaults if d is not None]:
                    call = isinstance(d, ast.Call) and isinstance(d.func, ast.Name) and d.func.id in ("dict", "list", "set")
                    if isinstance(d, mutable) or call:
                        found.append(f"{path.name}:{d.lineno}")
    assert not found, found
