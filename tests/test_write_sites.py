"""Every file the package writes reaches disk through repcount.write_output.

The scan reads the source of every module under waring_gaps and lists each
call that opens a file for writing: open() or Path.open() with a mode that
holds w, a, x or + (or a mode it cannot read), write_text and write_bytes.
"""

import ast
from pathlib import Path

import waring_gaps

PACKAGE = Path(waring_gaps.__file__).parent
WRITER = ("repcount.py", "write_output")


def _mode(call: ast.Call) -> ast.expr | None:
    for keyword in call.keywords:
        if keyword.arg == "mode":
            return keyword.value
    position = 1 if isinstance(call.func, ast.Name) else 0  # open(file, mode), path.open(mode)
    return call.args[position] if len(call.args) > position else None


def _opens_for_writing(call: ast.Call) -> bool:
    func = call.func
    name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
    if name in ("write_text", "write_bytes"):
        return True
    if name != "open" or (mode := _mode(call)) is None:
        return False
    readable = isinstance(mode, ast.Constant) and isinstance(mode.value, str)
    return not readable or bool(set(mode.value) & set("wax+"))


def _sites(node: ast.AST, owner: str | None):
    """(enclosing function, line) of each write call below node."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.Call) and _opens_for_writing(child):
            yield owner, child.lineno
        inner = child.name if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) else owner
        yield from _sites(child, inner)


def test_one_write_site():
    sites = [
        (path.relative_to(PACKAGE).as_posix(), owner, line)
        for path in sorted(PACKAGE.rglob("*.py"))
        for owner, line in _sites(ast.parse(path.read_text()), None)
    ]
    # The writer's own open is listed too, so a scan that finds nothing fails.
    assert [site[:2] for site in sites] == [WRITER], sites
