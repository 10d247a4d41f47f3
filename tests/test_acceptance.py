"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion
lines; every tolerance is pinned here exactly.
"""

import json
import random
import time
from fractions import Fraction

import numpy as np
import pytest

from oracles import (
    rep_counts_bruteforce,
    residue_counts_bruteforce,
    weighted_tail_bruteforce,
)
from waring_gaps import cli
from waring_gaps.certify import (
    MaierCertificate,
    NestedGapsCertificate,
    Verdict,
    check_measure,
    check_theta_linear_forms,
    pipeline_dry_run,
    verify_maier,
    verify_maier_inner,
    verify_nested_gaps,
)
from waring_gaps.exact import parse_fraction
from waring_gaps.modular import crt_combine, residue_counts
from waring_gaps.repcount import WaringParams, greedy_decompose, sieve_rep
from waring_gaps.series import HalfFunction, eval_enclosure


def conclude(number: int, ok: bool, text: str, started: float) -> None:
    elapsed = time.monotonic() - started
    print(f"\n[criterion {number:02d}] {'PASS' if ok else 'FAIL'} {text} ({elapsed:.1f}s)")
    assert ok, f"criterion {number}: {text}"


@pytest.fixture(scope="module")
def big_cube_table():
    return sieve_rep(WaringParams(3, 3), 1_000_000)


def test_criterion_01_sieve_matches_oracle():
    started = time.monotonic()
    limit = 10_000
    ok = True
    for ell in (3, 4):
        for s in range(1, ell + 1):
            table = sieve_rep(WaringParams(ell, s), limit)
            if table.counts.tolist() != rep_counts_bruteforce(ell, s, limit):
                ok = False
    ok = ok and (time.monotonic() - started) < 60
    conclude(1, ok, "sieve equals the nested-loop oracle for every (ell, s) at 10^4", started)


def test_criterion_02_mod_nine_obstruction():
    started = time.monotonic()
    counts = sieve_rep(WaringParams(3, 3), 1_000_000).counts
    residues = np.arange(1_000_001, dtype=np.int64) % 9
    blocked = (residues == 4) | (residues == 5)
    ok = not counts[blocked].any()
    profile = residue_counts(3, 9)
    ok = ok and profile.r(4) == 0 and profile.r(5) == 0
    ok = ok and list(profile.counts) == residue_counts_bruteforce(3, 9)
    ok = ok and (time.monotonic() - started) < 60
    conclude(2, ok, "classes 4, 5 mod 9 hold no sums of three cubes up to 10^6", started)


def test_criterion_03_greedy_remainder_bound(big_cube_table):
    started = time.monotonic()
    counts = big_cube_table.counts
    bound_factor = 25**27
    failures = 0
    for b in range(1, 100_001):
        parts, n = greedy_decompose(3, b)
        if (b - n) ** 27 >= bound_factor * b**8 or counts[n] == 0:
            failures += 1
    ok = failures == 0 and (time.monotonic() - started) < 60
    conclude(3, ok, "greedy remainder stays below 25 b^(8/27), exactly, for b <= 10^5", started)


def test_criterion_04_loose_bound():
    started = time.monotonic()
    limit = 100_000
    bound = (np.arange(limit + 1, dtype=np.int64) + 1)
    ok = True
    for ell in (3, 4):
        for s in range(1, ell + 1):
            table = sieve_rep(WaringParams(ell, s), limit)
            if (table.counts > (1 << ell) * bound).any():
                ok = False
    conclude(4, ok, "every sieved count at 10^5 stays below 2^ell (n+1)", started)


def test_criterion_05_tail_bounds():
    started = time.monotonic()
    rng = random.Random(20260809)
    violations = 0
    for _ in range(200):
        c = rng.randint(1, 10)
        n0 = rng.randint(1, 50)
        length = n0 + rng.randint(50, 150)
        values = [rng.choice([-1, 1]) * rng.randint(0, c * (n + 1)) for n in range(length)]
        exact = weighted_tail_bruteforce(values, n0)
        discarded = Fraction(2 * c * (length + 2) + 2 * c, 2 ** (length - n0))
        if exact + discarded > 8 * c * n0:
            violations += 1
    for _ in range(200):
        c = rng.randint(1, 10)
        e_bound = 8 * c * rng.randint(1, 3)
        n0 = rng.randint(1, 50)
        kappa = rng.randint(20, 60)
        length = n0 + kappa + rng.randint(40, 80)
        values = []
        for n in range(length):
            cap = c * (n + 1)
            if n0 <= n < n0 + kappa:
                cap = min(cap, int(Fraction(3, 2) ** (n - n0) * e_bound))
            values.append(rng.choice([-1, 1]) * rng.randint(0, cap))
        exact = weighted_tail_bruteforce(values, n0)
        discarded = Fraction(2 * c * (length + 2) + 2 * c, 2 ** (length - n0))
        if exact + discarded > 5 * e_bound:
            violations += 1
    conclude(5, violations == 0,
             "weighted tails stay below 8 c n0 and 5 E on 200 + 200 random instances", started)


def test_criterion_06_modular_multiplicativity():
    started = time.monotonic()
    ok = True
    for ell in (3, 4):
        cache = {m: residue_counts(ell, m) for m in range(1, 201)}
        from math import gcd

        for m1 in range(2, 201):
            for m2 in range(m1, 201):
                if m1 * m2 > 200 or gcd(m1, m2) != 1:
                    continue
                combined = crt_combine(cache[m1], cache[m2])
                if combined.counts != cache[m1 * m2].counts:
                    ok = False
        for m in range(1, 100, 2):
            doubled = cache[2 * m]
            base = cache[m]
            factor = 1 << (ell - 1)
            if any(doubled.r(x) != factor * base.r(x) for x in range(2 * m)):
                ok = False
    conclude(6, ok,
             "residue profiles are multiplicative and gain 2^(ell-1) at even moduli", started)


def test_criterion_07_maier_counting():
    started = time.monotonic()
    table = sieve_rep(WaringParams(3, 3), 740)
    cert = MaierCertificate(
        ell=3, K=1, M=9, m=4,
        eps=(Fraction(1, 100), Fraction(1, 100)), caps=(0, 0), N=729,
    )
    report = verify_maier(cert, table, residue_counts(3, 9))
    ok = (
        report.verdict is Verdict.PASS
        and not report.invalid
        and report.summary["count"] == 81
        and Fraction(81) >= parse_fraction(report.summary["bound"]) == Fraction(3969, 400)
    )
    inner_tables = {3: table, 4: sieve_rep(WaringParams(4, 4), 6600)}
    for ell in (3, 4):
        for modulus in range(1, 10):
            for m in range(modulus):
                inner = verify_maier_inner(m, 0, modulus, 1, inner_tables[ell])
                if inner.verdict is not Verdict.PASS:
                    ok = False
    conclude(7, ok, "progression count 81 beats 3969/400 and all column sums bound", started)


def synthetic_certificate(**overrides) -> NestedGapsCertificate:
    base = dict(
        q=2,
        H=Fraction(100),
        K1=9,
        K2=9,
        K_prime=39,
        n1=1,
        n2=11,
        n_prime=1,
        E=Fraction(2),
        E_prime=Fraction(1),
        f=HalfFunction.from_coefficients({0: 1, 10: 1, 20: 1}, label="f_synthetic"),
        g=HalfFunction.from_coefficients({40: 1}, label="g_synthetic"),
    )
    base.update(overrides)
    return NestedGapsCertificate(**base)


def test_criterion_08_nested_gaps_certificate():
    started = time.monotonic()
    report = verify_nested_gaps(synthetic_certificate())
    ok = report.verdict is Verdict.PASS
    mutations = [
        (synthetic_certificate(K1=10), "ordering"),
        (synthetic_certificate(H=Fraction(300)), "gap-dominates-height"),
        (
            synthetic_certificate(
                f=HalfFunction.from_coefficients({0: 1, 20: 1}, label="f_zeroed")
            ),
            "window-sum-nonzero",
        ),
    ]
    tracked = {"ordering", "gap-dominates-height", "window-sum-nonzero"}
    for mutated, flipped in mutations:
        mutated_report = verify_nested_gaps(mutated)
        ok = ok and mutated_report.verdict is Verdict.FAIL
        for name in tracked:
            expected = Verdict.FAIL if name == flipped else Verdict.PASS
            ok = ok and mutated_report.condition(name).verdict is expected
    conclude(8, ok, "synthetic certificate passes and each mutation flips its condition", started)


def test_criterion_09_measure_grid():
    started = time.monotonic()
    report = check_measure(synthetic_certificate())
    ok = (
        report.verdict is Verdict.PASS
        and report.summary["pairs"] == 20000
        and parse_fraction(report.summary["threshold"]) == Fraction(1, 2**11)
        and parse_fraction(report.summary["min_lower_bound"]) >= Fraction(1, 2**11)
    )
    conclude(9, ok, "all 20000 pairs certified at least 2^-11 in absolute value", started)


def test_criterion_10_theta_linear_forms():
    started = time.monotonic()
    tables = [sieve_rep(WaringParams(3, s), 192) for s in (1, 2, 3)]
    report = check_theta_linear_forms(2, 2, 64, tables)
    ok = (
        report.verdict is Verdict.PASS
        and report.summary["forms_checked"] == 500
        and parse_fraction(report.summary["L_min"]) > 0
    )
    enclosure = eval_enclosure(HalfFunction.from_table(tables[0]), 2, 64)
    anchor = Fraction(385, 256) + Fraction(1, 2**27)
    ok = ok and enclosure.width < Fraction(1, 2**50)
    ok = ok and enclosure.lo <= anchor <= enclosure.lo + enclosure.width / 2
    ok = ok and (time.monotonic() - started) < 60
    conclude(10, ok, "all 500 forms certified nonzero; base enclosure tight at 64 terms", started)


def test_criterion_11_pipeline_dry_run():
    started = time.monotonic()
    report = pipeline_dry_run(3, 2, 1)
    names = {c.name for c in report.conditions}
    required = {
        "exponent-in-range",
        "modulus-search",
        "limit-within-budget",
        "limit-covers-modulus-power",
        "windows-ordered",
        "second-window-doubles-first",
        "residue-window-inside-modulus",
        "modulus-even",
        "schedule-alpha-below-three-quarters",
        "schedule-dominates-loose-bound",
        "kappa-at-least-first-window",
        "kappa-at-least-log-limit",
        "counting-certificate",
        "qualifying-set-large",
        "bad-points-minority",
        "good-set-large",
        "qualifying-points-are-mild-gaps",
        "greedy-window-within-modulus",
        "representable-point-in-some-pair",
        "degree-criterion",
    }
    ok = required <= names
    for cond in report.conditions:
        ok = ok and cond.verdict in (Verdict.PASS, Verdict.FAIL, Verdict.INCONCLUSIVE)
    alpha = parse_fraction(report.summary["alpha"])
    ok = ok and alpha < Fraction(3, 4)
    ok = ok and report.condition("schedule-alpha-below-three-quarters").verdict is Verdict.PASS
    conclude(11, ok, "parameter recipe runs to completion with finite alpha below 3/4", started)


def test_criterion_12_reproducible_replay(tmp_path):
    started = time.monotonic()
    ok = True

    def scrub(obj):
        if isinstance(obj, dict):
            return {k: scrub(v) for k, v in obj.items() if k not in {"json", "out", "threads"}}
        if isinstance(obj, list):
            return [scrub(v) for v in obj]
        return obj

    runs = [
        ("modsearch", "--ell", "3", "--k1", "2", "--pool", "9,63"),
        ("pipeline", "--ell", "3", "--q", "2"),
        ("linforms", "--ell", "3", "--q", "2", "--height", "1", "--terms", "48"),
        ("exceptional", "--limit", "150", "--epsilon", "0"),
    ]
    for index, args in enumerate(runs):
        first = tmp_path / f"first_{index}.json"
        cli.main([*args, "--json", str(first)])
        for threads in ("1", "3"):
            second = tmp_path / f"second_{index}_{threads}.json"
            cli.replay_report(first, overrides={"json": str(second), "threads": threads})
            if scrub(json.loads(first.read_text())) != scrub(json.loads(second.read_text())):
                ok = False
    conclude(12, ok, "all emitted reports replay bit-identically at any worker cap", started)
