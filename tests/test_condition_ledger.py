"""Every condition that certify can record is seen, somewhere in the suite,
with a verdict other than pass: a check that no test ever fails cannot be
told from a missing one.

conftest.py records the (kind, condition, verdict) of every condition of
every report built in the test process; this test runs last and reads
that ledger.  Conditions decided only in a subprocess do not count.
"""

import ast
from pathlib import Path

import pytest

from waring_gaps import certify
from waring_gaps.series import Verdict

# Conditions no test sees fail, each with the reason where one is known.
NEVER_SEEN_FAILING = {
    "window-exponent-positive": "implied by the strict upper end 16384/4059 of exponent-in-range",
    "interval-power-crosscheck": "compares two sound enclosures of the same real",
    "pairs-above-threshold": "no known reason",
    "schedule-alpha-below-three-quarters": "no known reason",
    "qualifying-set-large": "no known reason",
    "qualifying-points-are-mild-gaps": "no known reason",
}


def condition_names() -> set[str]:
    """The condition names certify.py records: the string first argument of
    every .add and .check call, and the name given to _add_mild_gaps."""
    names = set()
    for node in ast.walk(ast.parse(Path(certify.__file__).read_text())):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Attribute) and func.attr in ("add", "check"):
            args = node.args[:1]
        elif isinstance(func, ast.Name) and func.id == "_add_mild_gaps":
            args = node.args[1:2]
        else:
            continue
        names.update(
            a.value for a in args if isinstance(a, ast.Constant) and isinstance(a.value, str)
        )
    return names


def test_condition_names_are_read():
    names = condition_names()
    assert {"ordering", "mild-gaps", "degree-criterion", "windows-ordered"} <= names
    assert set(NEVER_SEEN_FAILING) <= names


def test_every_condition_is_seen_not_passing(condition_ledger, whole_suite):
    if not whole_suite:
        pytest.skip("the ledger is complete only when the whole suite runs")
    not_passing = {name for _, name, verdict in condition_ledger if verdict is not Verdict.PASS}
    assert not_passing & set(NEVER_SEEN_FAILING) == set(), "seen failing: take it off the list"
    assert condition_names() - set(NEVER_SEEN_FAILING) - not_passing == set()
