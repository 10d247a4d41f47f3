"""Every file the package writes reaches disk through repcount.write_output,
every array it writes as text is rendered by repcount.render_rows, and
every rational a report prints is spelled by exact.render_exact.

The scans read the source of every module under waring_gaps.  The first
lists each call that opens a file for writing: open() or Path.open() with a
mode that holds w, a, x or + (or a mode it cannot read), write_text and
write_bytes.  The second lists each .tolist() whose result feeds
json.dumps, json.dump or a str.join, the per-cell rendering render_rows
replaces.  The third lists each call of exact.fraction_str.  The fourth
lists each assert statement: python -O drops them, so every check the
package relies on is an explicit raise.
"""

import ast
from pathlib import Path

import waring_gaps

PACKAGE = Path(waring_gaps.__file__).parent
WRITER = ("repcount.py", "write_output")
SPELLER = ("exact.py", "render_exact")


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


def _renders_tolist(call: ast.Call) -> bool:
    func = call.func
    if not isinstance(func, ast.Attribute):
        return False
    json_dump = func.attr in ("dumps", "dump") and getattr(func.value, "id", None) == "json"
    if not (json_dump or func.attr == "join"):
        return False
    return any(
        isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "tolist"
        for arg in [*call.args, *(keyword.value for keyword in call.keywords)]
        for node in ast.walk(arg)
    )


def _sites(node: ast.AST, owner: str | None, found, kind: type = ast.Call):
    """(enclosing function, line) of each node of kind below node (a call
    unless kind says otherwise) for which found holds."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, kind) and found(child):
            yield owner, child.lineno
        inner = child.name if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) else owner
        yield from _sites(child, inner, found, kind)


def _scan(found, kind: type = ast.Call) -> list[tuple[str, str | None, int]]:
    return [
        (path.relative_to(PACKAGE).as_posix(), owner, line)
        for path in sorted(PACKAGE.rglob("*.py"))
        for owner, line in _sites(ast.parse(path.read_text()), None, found, kind)
    ]


def test_one_write_site():
    sites = _scan(_opens_for_writing)
    # The writer's own open is listed too, so a scan that finds nothing fails.
    assert [site[:2] for site in sites] == [WRITER], sites


def test_one_renderer():
    sites = _scan(_renders_tolist)
    assert sites == [], sites


def _spells_fraction(call: ast.Call) -> bool:
    func = call.func
    return (func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)) == "fraction_str"


def test_one_spelling():
    sites = _scan(_spells_fraction)
    # render_exact's own call is listed too, so a scan that finds nothing fails.
    assert [site[:2] for site in sites] == [SPELLER], sites


def test_no_assert_statement():
    # The scan itself finds an assert, so a scan that finds nothing is not blind.
    sample = ast.parse("def f(x):\n    assert x\n")
    assert list(_sites(sample, None, lambda node: True, ast.Assert)) == [("f", 2)]
    sites = _scan(lambda node: True, ast.Assert)
    assert sites == [], sites
