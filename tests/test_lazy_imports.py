"""The package and the command line load only the modules they use.

``import waring_gaps`` loads no module of the package, and each export is
imported on first read.  ``import waring_gaps.cli`` loads exact and
repcount alone; a subcommand's handler loads certify, series or modular
where it uses them.  Which modules a process has loaded shows only in a
fresh interpreter, as the other tests of a session import every module,
so those checks run in subprocesses.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import waring_gaps

SRC = str(Path(waring_gaps.__file__).resolve().parents[1])
DEFERRED = ("waring_gaps.certify", "waring_gaps.modular", "waring_gaps.series")

# Runs each command line of argv (a JSON list) through cli.main, stdout
# discarded, and prints the sorted package modules loaded after the import
# and after each command, with its exit status.
LOADED_AFTER = """
import contextlib, io, json, sys
def loaded():
    return sorted(m for m in sys.modules if m.startswith("waring_gaps."))
from waring_gaps import cli
print(json.dumps(["import", loaded()]))
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        status = cli.main(argv)
    print(json.dumps([status, loaded()]))
"""


def python(code: str, *args: str, cwd: Path | None = None) -> str:
    env = {**os.environ, "PYTHONPATH": SRC, "OPENBLAS_NUM_THREADS": "1"}
    proc = subprocess.run([sys.executable, "-c", code, *args], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=60, check=True)
    return proc.stdout


def loaded_after(argvs: list[list[str]], cwd: Path) -> list[tuple[int | str, list[str]]]:
    lines = python(LOADED_AFTER, json.dumps(argvs), cwd=cwd).splitlines()
    return [tuple(json.loads(line)) for line in lines]


def test_bare_package_import_loads_no_module():
    code = "import sys, waring_gaps; print(sorted(m for m in sys.modules if 'waring_gaps' in m))"
    assert python(code) == "['waring_gaps']\n"


def test_table_subcommands_load_neither_certify_series_nor_modular(tmp_path):
    steps = loaded_after([
        ["sieve", "--ell", "4", "--s", "4", "--limit", "2000", "--out", "t.bin"],
        ["gaps", "--table", "t.bin", "--min-len", "3"],
        ["exceptional", "--limit", "2000", "--table", "t.bin"],
        ["greedy", "--ell", "3", "--b", "50"],
    ], tmp_path)
    assert [status for status, _ in steps] == ["import", 0, 0, 0, 0]
    for _, modules in steps:
        assert modules == ["waring_gaps.cli", "waring_gaps.exact", "waring_gaps.repcount"]


def test_modcount_adds_modular_only(tmp_path):
    (_, before), (status, after) = loaded_after([["modcount", "--ell", "3", "--modulus", "9"]],
                                                tmp_path)
    assert status == 0
    assert sorted(set(after) - set(before)) == ["waring_gaps.modular"]


def test_submodule_resolves_after_a_bare_package_import():
    code = (
        "import sys, waring_gaps\n"
        "assert 'waring_gaps.certify' not in sys.modules\n"
        "print(waring_gaps.certify is sys.modules['waring_gaps.certify'])"
    )
    assert python(code) == "True\n"


def test_every_export_is_its_submodule_attribute():
    modules = {name: getattr(waring_gaps, name) for name in waring_gaps._SUBMODULES}
    assert len(waring_gaps.__all__) == 50
    for name in waring_gaps.__all__:
        owner = modules[waring_gaps._EXPORTS[name]]
        assert getattr(waring_gaps, name) is getattr(owner, name), name


def test_star_import_binds_every_export():
    namespace: dict = {}
    exec("from waring_gaps import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == waring_gaps.__all__
    assert namespace["sieve_rep"] is waring_gaps.repcount.sieve_rep


def test_dir_lists_the_exports_and_modules():
    listed = dir(waring_gaps)
    assert set(waring_gaps.__all__) <= set(listed)
    assert {"certify", "cli", "exact", "modular", "repcount", "series"} <= set(listed)


def test_unknown_name_raises_attribute_error_naming_it():
    with pytest.raises(AttributeError, match="'no_such_export'"):
        waring_gaps.no_such_export
    assert not hasattr(waring_gaps, "no_such_export")
