"""Extreme integers at every integer certificate field and flag.

Each value of VALUES goes into one field of the nested, measure and maier
certificates, of a DegreeCertificate (built and verified in the child, as
no subcommand reads one), one integer pipeline flag or one integer flag of
modcount, crt and modsearch, the others keeping a small valid base.  Each
case runs in a child process under a 2 GiB address-space cap and a
timeout.  It must end with status 0 to 3, and a refusal (status 3 with a
message on stderr) must name its field or flag.

The whole grid takes over a minute of child processes, each of which
imports numpy, so a derandomized hypothesis run samples it.  The cases
that once hung (a maier ell of 10^30, a modular ell of 2^63 - 1) are
explicit examples.
"""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from test_cli_golden import MAIER_CERT, NESTED_CERT, write_inputs

VALUES = (-2, -1, 0, 1, 2**63 - 1, 2**63, 10**30)

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
# PipelineConfig field or search_gap_modulus argument it sets, and a pool or
# moduli entry as the modulus it is.
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
TARGET = {(command, name): names for command, name, names in TARGETS}

# The flags of each flag target's command, before the one fuzzed replaces its own.
BASE_FLAGS = {
    "pipeline": {"ell": "3", "q": "2"},
    "modcount": {"ell": "3", "modulus": "9"},
    "crt": {"ell": "3", "moduli": "4,9"},
    "modsearch": {"ell": "3", "k1": "2", "pool": "9,7"},
}
# A list flag gets the value as its last entry.
LIST_PREFIX = {"moduli": "4,", "pool": "9,7,"}


def child_args(command: str, name: str, value: int, directory: Path) -> list[str]:
    """The child's arguments after the cap for one case, its inputs written
    to directory."""
    if command == "degree":
        return ["degree", json.dumps({**DEGREE_CERT, name: value})]
    if command in BASE_FLAGS:
        flags = {**BASE_FLAGS[command], name: f"{LIST_PREFIX.get(name, '')}{value}"}
        # --flag=value, as argparse would read a bare -2 as an option
        return [command, *(f"--{flag}={text}" for flag, text in flags.items())]
    cert = dict(MAIER_CERT if command == "maier" else NESTED_CERT)
    cert[name] = [value, *cert["caps"][1:]] if name == "caps" else value
    path = directory / f"{command}-{name}-{value}.json"
    path.write_text(json.dumps(cert))
    table = ["--table", str(directory / "r33.bin")] if command == "maier" else []
    return [command, "--cert", str(path), *table, "--json", str(path.with_suffix(".out"))]


def run_case(command: str, name: str, value: int, directory: Path) -> subprocess.CompletedProcess:
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": src, "PYTHONDONTWRITEBYTECODE": "1",
           "OPENBLAS_NUM_THREADS": "1"}
    return subprocess.run(
        [sys.executable, "-c", CHILD, str(CAP), *child_args(command, name, value, directory)],
        cwd=directory, env=env, capture_output=True, text=True, timeout=TIMEOUT,
    )


def check_case(command: str, name: str, value: int, directory: Path) -> None:
    proc = run_case(command, name, value, directory)
    case = f"{command} {name}={value}: status {proc.returncode}, stderr {proc.stderr!r}"
    assert proc.returncode in (0, 1, 2, 3), case
    assert "Traceback" not in proc.stderr, case
    if proc.returncode == 3 and proc.stderr:
        names = "|".join(map(re.escape, TARGET[command, name]))
        assert re.search(rf"(?<![\w-])({names})(?![\w-])", proc.stderr), case


@pytest.fixture(scope="module")
def inputs(tmp_path_factory) -> Path:
    directory = tmp_path_factory.mktemp("extreme")
    write_inputs(directory)
    return directory


@settings(max_examples=40, derandomize=True, deadline=None, database=None)
@given(target=st.sampled_from(sorted(TARGET)), value=st.sampled_from(VALUES))
@example(target=("maier", "ell"), value=10**30)
@example(target=("modcount", "ell"), value=2**63 - 1)
@example(target=("crt", "ell"), value=2**63 - 1)
@example(target=("modsearch", "ell"), value=2**63 - 1)
def test_extreme_value_ends_in_a_status_and_names_its_field(inputs, target, value):
    check_case(*target, value, inputs)
