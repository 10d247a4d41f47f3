"""Extreme values at every integer and rational certificate field and flag.

Each value of VALUES goes into one integer field of the nested, measure and
maier certificates, of a DegreeCertificate (built and verified in the
child, as no subcommand reads one), one integer pipeline flag or one
integer flag of modcount, crt and modsearch, and each value of RATIONALS
into one rational field or flag, the others keeping a small valid base.
Each case runs in a child process under a 2 GiB address-space cap and a
timeout.  It must end with status 0 to 3.  A status of 3 is a refusal:
exactly one ``waring-gaps: error:`` line on stderr, naming its field or
flag, and no report file left behind.

The whole grid is 361 child processes, each of which imports numpy
(about 50 s two at a time), so a derandomized hypothesis run samples it.
The cases that once hung (a maier ell of 10^30, a modular ell of
2^63 - 1) are explicit examples.  Run the whole grid with

    PYTHONPATH=src python tests/test_extreme_values.py
"""

import json
import os
import re
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from test_cli_golden import MAIER_CERT, NESTED_CERT, write_inputs

VALUES = (-2, -1, 0, 1, 2**63 - 1, 2**63, 10**30)
RATIONALS = (
    Fraction(10**30), Fraction(1, 10**30), Fraction(10**30 + 1, 10**30), Fraction(-(10**30)),
    Fraction(2**63),
)

# The address-space cap and the timeout of each child.
CAP = 2 << 30
TIMEOUT = 30

DEGREE_CERT = {"ell": 3, "q": 2, "J": "1/3000", "E": 8, "N": 3000, "K1": 2, "K2": 2,
               "n1": 18, "n2": 25}

# A child: cap the address space, then run the CLI on argv[2:], or with
# argv[2] == "degree" build the DegreeCertificate of the JSON argv[3] and
# verify it against sieve_pair(ell, 200), exiting as the CLI would.
CHILD = """
import json, resource, sys
hard = resource.getrlimit(resource.RLIMIT_AS)[1]
soft = int(sys.argv[1]) if hard == resource.RLIM_INFINITY else min(int(sys.argv[1]), hard)
resource.setrlimit(resource.RLIMIT_AS, (soft, hard))
if sys.argv[2] != "degree":
    from waring_gaps.cli import main
    sys.exit(main(sys.argv[2:]))
from waring_gaps.certify import DegreeCertificate, verify_degree_criterion
from waring_gaps.repcount import sieve_pair
try:
    cert = DegreeCertificate(**json.loads(sys.argv[3]))
    full, lower = sieve_pair(cert.ell, 200)
    status = verify_degree_criterion(cert, lower, full).exit_code
except (ValueError, LookupError, ArithmeticError) as exc:
    print(f"waring-gaps: error: {exc}", file=sys.stderr)
    status = 3
sys.exit(status)
"""

# (command, field or flag, the names a refusal of it may give).  A field of
# a certificate is refused as itself; a pipeline flag may be refused by the
# PipelineConfig field or pipeline_dry_run or search_gap_modulus argument it
# sets, and a pool or moduli entry as the modulus it is.
TARGETS = (
    [("nested", name, (name,)) for name in ("q", "K1", "K2", "K_prime", "n1", "n2", "n_prime")]
    + [("measure", name, (name,)) for name in ("q", "K1", "K2", "K_prime", "n1", "n2", "n_prime")]
    + [("maier", name, (name,)) for name in ("ell", "K", "M", "m", "N", "caps")]
    + [("degree", name, (name,)) for name in ("ell", "q", "N", "K1", "K2", "n1", "n2")]
    + [
        ("pipeline", "ell", ("ell",)),
        ("pipeline", "q", ("q",)),
        ("pipeline", "k1", ("k1", "window")),
        ("pipeline", "product-bound", ("product-bound", "product_bound")),
        ("pipeline", "max-modulus", ("max-modulus", "max_modulus")),
        ("pipeline", "max-limit", ("max-limit", "max_limit")),
        ("pipeline", "mild-cap", ("mild-cap", "mild_check_cap")),
        ("pipeline", "threads", ("threads",)),
        ("modcount", "ell", ("ell",)),
        ("modcount", "modulus", ("modulus",)),
        ("crt", "ell", ("ell",)),
        ("crt", "moduli", ("moduli", "modulus")),
        ("modsearch", "ell", ("ell",)),
        ("modsearch", "k1", ("k1", "window")),
        ("modsearch", "pool", ("pool", "modulus")),
        ("modsearch", "product-bound", ("product-bound", "product_bound")),
    ]
)
RATIONAL_TARGETS = (
    [(command, name, (name,))
     for command in ("nested", "measure") for name in ("H", "E", "E_prime")]
    + [("maier", "eps", ("eps",)), ("degree", "J", ("J",)), ("degree", "E", ("E",))]
    + [("pipeline", "j", ("j", "J")), ("pipeline", "xi", ("xi",)),
       ("pipeline", "sigma", ("sigma",))]
)
TARGET = {(command, name): names for command, name, names in TARGETS + RATIONAL_TARGETS}

# Every case of the grid: each target at each value of its kind.
CASES = [(command, name, value) for command, name, _ in TARGETS for value in VALUES] + [
    (command, name, value) for command, name, _ in RATIONAL_TARGETS for value in RATIONALS
]

# The flags of each flag target's command, before the one fuzzed replaces its own.
BASE_FLAGS = {
    "pipeline": {"ell": "3", "q": "2"},
    "modcount": {"ell": "3", "modulus": "9"},
    "crt": {"ell": "3", "moduli": "4,9"},
    "modsearch": {"ell": "3", "k1": "2", "pool": "9,7"},
}
# A list field or flag gets the value as its first (field) or last (flag) entry.
LIST_PREFIX = {"moduli": "4,", "pool": "9,7,"}


def spelled(value: int | Fraction) -> int | str:
    """value as a certificate or flag spells it: an int, or a rational as p/q."""
    if isinstance(value, Fraction):
        return str(value)
    return value


def child_args(command: str, name: str, value: int | Fraction, directory: Path) -> list[str]:
    """The child's arguments after the cap for one case, its inputs written
    to directory.  A CLI case writes its report, if any, to <case>.out."""
    text = spelled(value)
    if command == "degree":
        return ["degree", json.dumps({**DEGREE_CERT, name: text})]
    case = directory / re.sub(r"\W", "_", f"{command}-{name}-{text}")
    json_flag = f"--json={case.with_suffix('.out')}"
    if command in BASE_FLAGS:
        flags = {**BASE_FLAGS[command], name: f"{LIST_PREFIX.get(name, '')}{text}"}
        # --flag=value, as argparse would read a bare -2 as an option
        return [command, *(f"--{flag}={item}" for flag, item in flags.items()), json_flag]
    cert = dict(MAIER_CERT if command == "maier" else NESTED_CERT)
    cert[name] = [text, *cert[name][1:]] if name in ("caps", "eps") else text
    path = case.with_suffix(".json")
    path.write_text(json.dumps(cert))
    table = ["--table", str(directory / "r33.bin")] if command == "maier" else []
    return [command, "--cert", str(path), *table, json_flag]


def run_case(args: list[str], directory: Path) -> subprocess.CompletedProcess:
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": src, "PYTHONDONTWRITEBYTECODE": "1",
           "OPENBLAS_NUM_THREADS": "1"}
    return subprocess.run(
        [sys.executable, "-c", CHILD, str(CAP), *args],
        cwd=directory, env=env, capture_output=True, text=True, timeout=TIMEOUT,
    )


def check_case(command: str, name: str, value: int | Fraction, directory: Path) -> None:
    args = child_args(command, name, value, directory)
    report = next((Path(a[len("--json="):]) for a in args if a.startswith("--json=")), None)
    if report is not None:
        report.unlink(missing_ok=True)
    proc = run_case(args, directory)
    case = f"{command} {name}={spelled(value)}: status {proc.returncode}, stderr {proc.stderr!r}"
    assert proc.returncode in (0, 1, 2, 3), case
    assert "Traceback" not in proc.stderr, case
    if proc.returncode == 3:
        assert proc.stderr.startswith("waring-gaps: error: "), case
        assert proc.stderr.count("\n") == 1 and proc.stderr.endswith("\n"), case
        names = "|".join(map(re.escape, TARGET[command, name]))
        assert re.search(rf"(?<![\w-])({names})(?![\w-])", proc.stderr), case
        assert report is None or not report.exists(), f"{case}: left {report.name}"


@pytest.fixture(scope="module")
def inputs(tmp_path_factory) -> Path:
    directory = tmp_path_factory.mktemp("extreme")
    write_inputs(directory)
    return directory


@settings(max_examples=40, derandomize=True, deadline=None, database=None)
@given(case=st.sampled_from(CASES))
@example(case=("maier", "ell", 10**30))
@example(case=("modcount", "ell", 2**63 - 1))
@example(case=("crt", "ell", 2**63 - 1))
@example(case=("modsearch", "ell", 2**63 - 1))
@example(case=("maier", "eps", Fraction(-(10**30))))
@example(case=("measure", "E", Fraction(10**30)))
def test_extreme_value_ends_in_a_status_and_names_its_field(inputs, case):
    check_case(*case, inputs)


def main() -> int:
    """Run every case of the grid, two children at a time; print each
    failure and return 1 if there was one."""
    with tempfile.TemporaryDirectory() as scratch:
        directory = Path(scratch)
        write_inputs(directory)

        def failure(case: tuple) -> str | None:
            try:
                check_case(*case, directory)
            except AssertionError as exc:
                return str(exc)
            except subprocess.TimeoutExpired:
                return f"{case[0]} {case[1]}={spelled(case[2])}: no exit within {TIMEOUT} s"
            return None

        with ThreadPoolExecutor(max_workers=2) as pool:
            failures = [f for f in pool.map(failure, CASES) if f is not None]
    for line in failures:
        print(line, file=sys.stderr)
    print(f"{len(CASES) - len(failures)} of {len(CASES)} extreme-value cases passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
