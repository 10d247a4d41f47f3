"""Byte-for-byte outputs of the command line.

Each case runs one invocation in an empty directory that holds only the
shared input files, with relative paths, and compares its exit status,
stdout, stderr and every file it leaves behind with the recording under
tests/data/cli_golden/<case>/.  After a deliberate change of output,
re-record with

    PYTHONPATH=src python tests/test_cli_golden.py
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import sys
import tempfile
from pathlib import Path

import pytest

from waring_gaps import cli
from waring_gaps.repcount import WaringParams, sieve_rep, write_table_binary

GOLDEN = Path(__file__).parent / "data" / "cli_golden"

CASES = {
    "sieve": "sieve --ell 3 --s 2 --limit 100 --out t.bin --json r.json",
    "sieve-csv-stdout": "sieve --ell 3 --s 3 --limit 60 --out t.csv",
    "gaps": "gaps --table r33.bin --min-len 4 --out runs.csv --json r.json",
    "gaps-stdout": "gaps --table r33.bin --min-len 4",
    "gaps-empty": "gaps --table r33.bin --min-len 1000 --out runs.csv --json r.json",
    "greedy": "greedy --ell 3 --b 100 --json r.json",
    "greedy-config-threads": "greedy --config run.cfg --threads 2",
    "modcount": "modcount --ell 3 --modulus 9 --out p.csv --json r.json",
    "crt": "crt --ell 3 --moduli 2,9 --out c.csv --json r.json",
    "crt-not-coprime": "crt --ell 3 --moduli 6,9 --json r.json",
    "modsearch": "modsearch --ell 3 --k1 2 --pool 9,63 --json r.json",
    "modcount-2000": "modcount --ell 3 --modulus 2000 --out p.csv",
    "modsearch-pool": "modsearch --ell 3 --k1 2 --pool 7,9,13,19,31,37,43,61,63,67"
    " --product-bound 20000",
    "crt-4": "crt --ell 4 --moduli 16,81,5 --out c.csv",
    "modsearch-4-wide": "modsearch --ell 4 --k1 2 --pool 16,81,5,7,11 --product-bound 100000",
    "mild-scan": "mild-scan --table r33.bin --lo 0 --hi 30 --k 4 --e 8 --json r.json",
    "theta": "theta --ell 3 --q 2 --terms 40 --json r.json",
    "maier": "maier --cert maier.json --table r33.bin --json r.json",
    "maier-relation-fails": "maier --cert maier-n728.json --table r33.bin --json r.json",
    "maier-eps-zero": "maier --cert maier-eps0.json --table r33.bin --json r.json",
    "nested": "nested --cert nested.json --json r.json",
    "measure": "measure --cert nested.json --json r.json",
    "linforms": "linforms --ell 3 --q 2 --height 1 --terms 48 --json r.json",
    "pipeline": "pipeline --ell 3 --q 2 --json r.json",
    "pipeline-4": "pipeline --ell 4 --q 3 --pool 32 --json r.json",
    "exceptional": "exceptional --limit 120 --epsilon 1/100 --out m.csv --json r.json",
    "exceptional-empty": "exceptional --limit 1 --json r.json",
    "exceptional-stdout": "exceptional --limit 120 --epsilon 1/100",
    "missing-cert": "nested --cert missing.json",
}

NESTED_CERT = {
    "q": 2, "H": "100", "K1": 9, "K2": 9, "K_prime": 39,
    "n1": 1, "n2": 11, "n_prime": 1, "E": "2", "E_prime": "1",
    "f": {"kind": "coefficients", "entries": [[0, 1], [10, 1], [20, 1]]},
    "g": {"kind": "coefficients", "entries": [[40, 1]]},
}
MAIER_CERT = {
    "ell": 3, "K": 1, "M": 9, "m": 4,
    "eps": ["1/100", "1/100"], "caps": [0, 0], "N": 729,
}


def write_inputs(directory: Path) -> dict[str, bytes]:
    """Write the shared input files; returns their bytes by name."""
    write_table_binary(sieve_rep(WaringParams(3, 3), 760), directory / "r33.bin")
    (directory / "nested.json").write_text(json.dumps(NESTED_CERT))
    (directory / "maier.json").write_text(json.dumps(MAIER_CERT))
    # N < M^ell fails a condition, and the count is still reported
    (directory / "maier-n728.json").write_text(json.dumps(dict(MAIER_CERT, N=728)))
    # refused by name before any report exists
    (directory / "maier-eps0.json").write_text(json.dumps(dict(MAIER_CERT, eps=["0", "1/100"])))
    (directory / "run.cfg").write_text("# greedy defaults\nell = 3\nb = 50\nthreads = 4\n")
    return {p.name: p.read_bytes() for p in directory.iterdir()}


def run_case(name: str, directory: Path) -> dict[str, bytes]:
    """Run case name inside directory; returns everything it produced by name:
    exit_status, stdout, stderr and files/<each file it wrote>."""
    inputs = write_inputs(directory)
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(directory)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            status = cli.main(CASES[name].split())
    finally:
        os.chdir(cwd)
    produced = {
        "exit_status": f"{status}\n".encode(),
        "stdout": out.getvalue().encode(),
        "stderr": err.getvalue().encode(),
    }
    for path in sorted(directory.iterdir()):
        if path.name in inputs:
            assert path.read_bytes() == inputs[path.name], f"{name} changed its input {path.name}"
        else:
            produced[f"files/{path.name}"] = path.read_bytes()
    return produced


def recorded(name: str) -> dict[str, bytes]:
    case_dir = GOLDEN / name
    return {
        p.relative_to(case_dir).as_posix(): p.read_bytes()
        for p in sorted(case_dir.rglob("*"))
        if p.is_file()
    }


@pytest.mark.parametrize("name", sorted(CASES))
def test_output_matches_recording(tmp_path, name):
    produced = run_case(name, tmp_path)
    expected = recorded(name)
    assert sorted(produced) == sorted(expected)
    for key, data in expected.items():
        assert produced[key] == data, f"{name}: {key} differs from the recording"


def record() -> None:
    shutil.rmtree(GOLDEN, ignore_errors=True)
    for name in CASES:
        with tempfile.TemporaryDirectory() as scratch:
            for key, data in run_case(name, Path(scratch)).items():
                target = GOLDEN / name / key
                target.parent.mkdir(parents=True, exist_ok=True)
                target.write_bytes(data)
        print(f"recorded {name}", file=sys.stderr)


if __name__ == "__main__":
    record()
