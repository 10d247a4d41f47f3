"""Every condition that certify can record is seen, somewhere in the suite,
with a verdict other than pass: a check that no test ever fails cannot be
told from a missing one.

conftest.py records the (kind, condition, verdict) of every condition of
every report built in the test process; this test runs last and reads
that ledger.  Conditions decided only in a subprocess do not count.
"""

import ast
from pathlib import Path

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from waring_gaps import certify
from waring_gaps.series import Verdict

# Conditions no test sees fail, each with the reason where one is known.
NEVER_SEEN_FAILING = {
    "window-exponent-positive": "implied by the strict upper end 16384/4059 of exponent-in-range",
    "interval-power-crosscheck": "compares two sound enclosures of the same real",
    "pairs-above-threshold": "no known reason",
    "schedule-alpha-below-three-quarters": (
        "the first K1 terms sum to 1/2 and term k after them, xi/(floor(12 xi (3/2)^k) + 1),"
        " is below 1/(12 (3/2)^k), a series summing to 1/4: alpha < 3/4 for every xi > 0"
    ),
    "qualifying-set-large": (
        "fails only where counting-certificate fails: with alpha < 3/4, a count at or above"
        " (1 - alpha) N/(2^ell M) exceeds N/(2^(ell + 2) M)"
    ),
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


@settings(max_examples=300, deadline=None)
@given(
    xi=st.fractions(min_value=0, max_value=10**9, max_denominator=10**6).filter(lambda x: x > 0),
    K1=st.integers(1, 40),
    windows=st.integers(0, 120),
)
def test_schedule_alpha_is_below_three_quarters(xi, K1, windows):
    # why schedule-alpha-below-three-quarters cannot fail, on the pipeline's own schedule
    eps, caps = certify._maier_schedule(K1, K1 + windows, xi)
    cert = certify.MaierCertificate(ell=4, K=K1 + windows, M=1, m=0, eps=eps, caps=caps, N=1)
    assert Fraction(1, 2) < cert.alpha < Fraction(3, 4)
