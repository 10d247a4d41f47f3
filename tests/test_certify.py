import dataclasses
import json
import math
import random
import sys
from fractions import Fraction
from functools import cache, cached_property
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import (
    degree_criterion_bruteforce,
    exceptional_scan_whole_array,
    least_pair_value,
    linear_forms_bruteforce,
    linear_forms_sweep_loop,
    measure_pairs_bruteforce,
    pair_filters_bruteforce,
    qualifying_set_bruteforce,
    window_escapes_bruteforce,
    window_escapes_depth,
)
from waring_gaps import certify
from waring_gaps.certify import (
    DegreeCertificate,
    MaierCertificate,
    NestedGapsCertificate,
    PipelineConfig,
    Report,
    Verdict,
    check_measure,
    _sweep_forms,
    _sweep_pairs,
    check_theta_linear_forms,
    half_function_from_spec,
    maier_qualifying_set,
    nested_certificate_from_json,
    pipeline_dry_run,
    verify_degree_criterion,
    verify_maier,
    verify_maier_inner,
    verify_nested_gaps,
)
from waring_gaps.exact import parse_fraction
from waring_gaps.modular import residue_counts
from waring_gaps.repcount import RepTable, WaringParams, sieve_pair, sieve_rep
from waring_gaps.series import Enclosure, HalfFunction, eval_enclosure, linear_combination


@pytest.fixture(scope="module")
def table_729():
    return sieve_rep(WaringParams(3, 3), 740)


class TestReport:
    def test_report_without_conditions_is_invalid(self):
        report = Report(kind="empty")
        assert report.exit_code == 3
        assert report.to_json_dict()["verdict"] == "invalid"
        with pytest.raises(ValueError):
            Verdict.worst([])


def worked_maier(**overrides):
    base = dict(
        ell=3,
        K=1,
        M=9,
        m=4,
        eps=(Fraction(1, 100), Fraction(1, 100)),
        caps=(0, 0),
        N=729,
    )
    base.update(overrides)
    return MaierCertificate(**base)


class TestVerifyMaier:
    def test_worked_certificate_passes(self, table_729):
        report = verify_maier(worked_maier(), table_729, residue_counts(3, 9))
        assert report.exit_code == 0
        assert report.summary["count"] == 81
        assert report.summary["bound"] == "3969/400"
        assert report.summary["alpha"] == "1/50"

    def test_limit_below_modulus_power_is_invalid_but_counted(self, table_729):
        report = verify_maier(worked_maier(N=728), table_729, residue_counts(3, 9))
        assert report.exit_code == 3
        assert report.condition("limit-covers-modulus-power").verdict is Verdict.FAIL
        assert report.summary["count"] == 81  # near-miss stays visible

    def test_alpha_at_least_one_rejected_before_counting(self, table_729):
        cert = worked_maier(eps=(Fraction(3, 2), Fraction(3, 2)))
        report = verify_maier(cert, table_729, residue_counts(3, 9))
        assert report.exit_code == 3
        assert "count" not in report.summary

    def test_residue_bound_violation_reported_per_offset(self, table_729):
        cert = worked_maier(m=0, eps=(Fraction(1, 100), Fraction(1, 100)))
        report = verify_maier(cert, table_729, residue_counts(3, 9))
        assert report.exit_code == 3
        witness = report.condition("residue-count-bounds").witness
        assert witness["violations"][0]["k"] == 0  # r(0, 9) = 189 is far above eps

    def test_window_past_modulus_is_invalid(self, table_729):
        # m + K = 9 is not below M = 9
        report = verify_maier(worked_maier(m=8), table_729, residue_counts(3, 9))
        assert report.condition("window-in-modulus").verdict is Verdict.FAIL
        assert report.exit_code == 3

    def test_zero_eps_is_invalid(self, table_729):
        cert = worked_maier(eps=(Fraction(0), Fraction(1, 100)))
        report = verify_maier(cert, table_729, residue_counts(3, 9))
        assert report.condition("eps-positive").verdict is Verdict.FAIL
        assert report.exit_code == 3

    def test_profile_for_another_modulus_is_invalid(self, table_729):
        report = verify_maier(worked_maier(), table_729, residue_counts(3, 7))
        assert report.condition("inputs-match").verdict is Verdict.FAIL
        assert report.exit_code == 3

    def test_enlarging_caps_preserves_pass(self, table_729):
        rng = random.Random(11)
        profile = residue_counts(3, 9)
        eps = (Fraction(1, 4), Fraction(1, 4))
        base = worked_maier(eps=eps, caps=(0, 0))
        assert verify_maier(base, table_729, profile).verdict is Verdict.PASS
        for _ in range(20):
            grown = worked_maier(eps=eps, caps=(rng.randint(0, 50), rng.randint(0, 50)))
            assert verify_maier(grown, table_729, profile).verdict is Verdict.PASS

    def test_alpha_summed_once(self):
        cert = worked_maier()
        assert cert.alpha is cert.alpha
        assert cert.alpha == Fraction(1, 50)
        assert cert == worked_maier()  # the cached sum is no field

    def test_pass_bound_implies_nonempty_set(self, table_729):
        cert = worked_maier()
        report = verify_maier(cert, table_729, residue_counts(3, 9))
        bound = parse_fraction(report.summary["bound"])
        if report.verdict is Verdict.PASS and bound >= 1:
            members = maier_qualifying_set(table_729, 9, 4, cert.caps, 729, 1)
            assert members.size > 0

    def test_unprintable_alpha_names_its_field(self, table_729):
        # caps + 1 runs over the primes below 3000, so alpha's denominator
        # is their product, of about 1,250 digits
        primes = [p for p in range(2, 3000) if all(p % d for d in range(2, math.isqrt(p) + 1))]
        eps = (Fraction(1, 100),) * len(primes)
        cert = worked_maier(K=len(primes) - 1, eps=eps, caps=tuple(p - 1 for p in primes))
        unprintable = r"^alpha has more than 640 digits to print$"
        default = sys.get_int_max_str_digits()
        try:
            sys.set_int_max_str_digits(640)  # the least limit Python accepts
            with pytest.raises(ValueError, match=unprintable):
                cert.to_json_dict()
            with pytest.raises(ValueError, match=unprintable):
                verify_maier(cert, table_729, residue_counts(3, 9))
            sys.set_int_max_str_digits(0)  # no limit
            assert parse_fraction(cert.to_json_dict()["alpha"]) == cert.alpha
        finally:
            sys.set_int_max_str_digits(default)

    def test_certificate_round_trip(self):
        cert = worked_maier()
        again = MaierCertificate.from_json_dict(cert.to_json_dict())
        assert again == cert

    def test_pass_replays_from_raw_counts(self, table_729):
        # re-derive the counted set with a plain loop over the raw table
        cert = worked_maier()
        report = verify_maier(cert, table_729, residue_counts(3, 9))
        assert report.verdict is Verdict.PASS
        counts = table_729.counts.tolist()
        replayed = sum(
            1
            for n in range(cert.m, cert.N - cert.K, cert.M)
            if all(counts[n + k] <= cert.caps[k] for k in range(cert.K + 1))
        )
        assert replayed == report.summary["count"]
        assert Fraction(replayed) >= parse_fraction(report.summary["bound"])


class TestMaierInner:
    def test_empty_class_column(self, table_729):
        report = verify_maier_inner(4, 0, 9, 1, table_729)
        assert report.verdict is Verdict.PASS
        assert report.summary == {"column_sum": 0, "bound": 0}

    def test_zero_class_column(self, table_729):
        report = verify_maier_inner(0, 0, 9, 1, table_729)
        assert report.verdict is Verdict.PASS
        assert report.summary["column_sum"] == 159
        assert report.summary["bound"] == 189

    def test_tight_column_mod_two(self):
        table = sieve_rep(WaringParams(3, 3), 10)
        report = verify_maier_inner(1, 0, 2, 1, table)
        assert report.verdict is Verdict.PASS
        assert report.summary == {"column_sum": 4, "bound": 4}

    @pytest.mark.parametrize("ell,limit", [(3, 730), (4, 6600)])
    def test_small_sweep_both_exponents(self, ell, limit):
        table = sieve_rep(WaringParams(ell, ell), limit)
        for modulus in range(1, 10):
            for m in range(modulus):
                report = verify_maier_inner(m, 0, modulus, 1, table)
                assert report.verdict is Verdict.PASS, (ell, modulus, m)

    def test_column_over_its_bound_fails(self):
        # r = 0 at residue 4 mod 9, so a planted count of 5 at 4 breaks the bound 0
        counts = np.zeros(725, dtype=np.int64)
        counts[0], counts[4] = 1, 5
        table = RepTable(WaringParams(3, 3), 724, counts)
        report = verify_maier_inner(4, 0, 9, 1, table)
        assert report.condition("column-sum-bounded").verdict is Verdict.FAIL
        assert report.summary == {"column_sum": 5, "bound": 0}
        assert report.exit_code == 1

    def test_insufficient_coverage(self):
        table = sieve_rep(WaringParams(3, 3), 100)
        with pytest.raises(ValueError):
            verify_maier_inner(4, 0, 9, 1, table)


def synthetic_nested(**overrides):
    f = HalfFunction.from_coefficients({0: 1, 10: 1, 20: 1}, label="f_synthetic")
    g = HalfFunction.from_coefficients({40: 1}, label="g_synthetic")
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
        f=f,
        g=g,
    )
    base.update(overrides)
    return NestedGapsCertificate(**base)


class TestNestedGaps:
    def test_synthetic_certificate_passes(self):
        report = verify_nested_gaps(synthetic_nested())
        assert report.exit_code == 0
        assert all(c.verdict is Verdict.PASS for c in report.conditions)
        assert "conclusion" in report.summary

    def test_window_sum_attached(self):
        report = verify_nested_gaps(synthetic_nested())
        assert report.condition("window-sum-nonzero").witness["sum"] == "1/1024"

    def test_mutations_flip_their_condition(self):
        cases = [
            ({"K1": 10}, "ordering"),
            ({"H": Fraction(300)}, "gap-dominates-height"),
        ]
        for overrides, flipped in cases:
            report = verify_nested_gaps(synthetic_nested(**overrides))
            assert report.verdict is Verdict.FAIL
            assert report.condition(flipped).verdict is Verdict.FAIL

    def test_zeroing_window_coefficient_flips_sum_condition(self):
        f = HalfFunction.from_coefficients({0: 1, 20: 1}, label="f_zeroed")
        report = verify_nested_gaps(synthetic_nested(f=f))
        assert report.condition("window-sum-nonzero").verdict is Verdict.FAIL
        for name in ("ordering", "mild-gaps", "gap-dominates-height"):
            assert report.condition(name).verdict is Verdict.PASS

    def test_unprintable_gap_power_names_its_field(self):
        # decided from bit lengths: 2^(10^30) is never formed
        cert = synthetic_nested(K2=10**30, K_prime=10**30 + 1)
        with pytest.raises(ValueError, match=r"^q\^K2 has more than [0-9]+ digits"):
            verify_nested_gaps(cert)

    @pytest.mark.parametrize(
        "q", [2, 3, 10, 255, 256, 10**700], ids=["2", "3", "10", "255", "256", "10^700"]
    )
    def test_printable_power_refuses_what_str_refuses(self, q):
        digits, n = [], 0
        while q**n <= 10**1400:
            digits.append(len(str(q**n)))
            n += 1
        default = sys.get_int_max_str_digits()
        try:
            sys.set_int_max_str_digits(640)  # the least limit Python accepts
            for n, size in enumerate(digits):
                if size > 640:
                    with pytest.raises(ValueError, match=r"^q\^n has more than 640 digits"):
                        certify._printable_power(q, n, "q^n")
                else:
                    assert certify._printable_power(q, n, "q^n") == q**n
            sys.set_int_max_str_digits(0)  # no limit
            assert certify._printable_power(q, len(digits), "q^n") == q ** len(digits)
        finally:
            sys.set_int_max_str_digits(default)

    def test_structural_defect_invalid(self):
        report = verify_nested_gaps(synthetic_nested(E=Fraction(0)))
        assert report.exit_code == 3

    def test_inconclusive_tail_propagates(self):
        # the tail bound for g lands inside its enclosure at this coverage
        g = HalfFunction.from_table(sieve_rep(WaringParams(3, 1), 40))
        f = HalfFunction.from_coefficients({0: 1, 4: 1, 20: 1}, label="f_gap")
        cert = synthetic_nested(
            f=f,
            g=g,
            K1=1,
            K2=2,
            K_prime=6,
            n1=3,
            n2=5,
            n_prime=2,
            H=Fraction(1, 2),
            E=Fraction(2),
            E_prime=Fraction(1) + Fraction(1, 2**19) + Fraction(1, 2**25),
        )
        report = verify_nested_gaps(cert)
        assert report.verdict is Verdict.INCONCLUSIVE
        assert report.exit_code == 2
        assert check_measure(cert).exit_code == 2

    def test_proof_chain_tail_inequality_exhaustive(self):
        # under a passing certificate, every bounded pair keeps both
        # truncation errors below 2 q^-n_i
        cert = synthetic_nested()
        report = verify_nested_gaps(cert)
        assert report.verdict is Verdict.PASS
        f_value = 1 + Fraction(1, 2**10) + Fraction(1, 2**20)
        g_value = Fraction(1, 2**40)
        partials = {
            1: (Fraction(1), Fraction(0)),
            11: (1 + Fraction(1, 2**10), Fraction(0)),
        }
        height = int(cert.H)
        for alpha in range(-height, height + 1):
            for beta in range(-height, height + 1):
                total = alpha * f_value + beta * g_value
                for n_i, (pf, pg) in partials.items():
                    truncated = alpha * pf + beta * pg
                    assert abs(total - truncated) < 2 * Fraction(1, 2**n_i)


class TestCheckMeasure:
    def test_exhaustive_grid_passes(self):
        report = check_measure(synthetic_nested())
        assert report.exit_code == 0
        assert report.summary["pairs"] == 20000
        assert report.summary["threshold"] == "1/2048"
        expected_min = (1 + Fraction(1, 2**10) + Fraction(1, 2**20)) - 99 * Fraction(1, 2**40)
        assert parse_fraction(report.summary["min_lower_bound"]) == expected_min

    def test_smallest_grid(self):
        report = check_measure(synthetic_nested(H=Fraction(1)))
        assert report.summary["pairs"] == 2  # only (1, 0) and (-1, 0)
        assert report.exit_code == 0

    def test_failed_precondition_is_invalid(self):
        report = check_measure(synthetic_nested(H=Fraction(300)))
        assert report.exit_code == 3

    def test_unprintable_threshold_names_its_field(self):
        # passes nested-gaps; the threshold 1/2^2200 has a 663-digit denominator
        cert = synthetic_nested(
            H=Fraction(1),
            f=HalfFunction.from_coefficients({0: 1, 19: 1, 91: 1, 2219: 1}, label="f_far"),
            g=HalfFunction.from_coefficients({0: 1, 2219: 1}, label="g_far"),
            K1=18,
            K2=18,
            K_prime=2218,
            n2=2200,
            E=Fraction(5, 2),
            E_prime=Fraction(5, 2),
        )
        assert verify_nested_gaps(cert).verdict is Verdict.PASS
        default = sys.get_int_max_str_digits()
        try:
            sys.set_int_max_str_digits(640)
            with pytest.raises(ValueError, match=r"^threshold has more than 640 digits"):
                check_measure(cert)
        finally:
            sys.set_int_max_str_digits(default)
        assert check_measure(cert).summary["threshold"] == f"1/{2**2200}"

    def test_unreasonable_height_rejected(self):
        huge = synthetic_nested(
            H=Fraction(10**9),
            f=HalfFunction.from_coefficients({0: 1, 40: 1, 80: 1}, label="f_wide"),
            g=HalfFunction.from_coefficients({160: 1}, label="g_wide"),
            K1=35,
            K2=35,
            K_prime=159,
            n1=1,
            n2=41,
            n_prime=1,
        )
        assert verify_nested_gaps(huge).verdict is Verdict.PASS
        with pytest.raises(ValueError):
            check_measure(huge)


# Small numerators and denominators make exact cancellations, failing
# and undecided pairs common.
fractions = st.builds(Fraction, st.integers(-40, 40), st.integers(1, 16))
widths = st.builds(Fraction, st.integers(1, 30), st.integers(1, 64))


@st.composite
def enclosures(draw, kinds=("point", "wide", "straddle", "touch", "zero")):
    """A rational enclosure: a point, a wide one of either sign, one
    straddling 0, one with 0 as an end, or exactly [0, 0]."""
    kind = draw(st.sampled_from(kinds))
    if kind == "zero":
        return Enclosure(Fraction(0), Fraction(0))
    if kind == "straddle":
        return Enclosure(-draw(widths), draw(widths))
    if kind == "touch":
        width = draw(widths)
        above = draw(st.booleans())
        return Enclosure(Fraction(0), width) if above else Enclosure(-width, Fraction(0))
    lo = draw(fractions)
    return Enclosure(lo, lo if kind == "point" else lo + draw(widths))


class TestSweepsAgainstOracles:
    @settings(max_examples=300, deadline=None)
    @given(
        f=enclosures(kinds=("point", "wide")),
        g=enclosures(),
        threshold=st.builds(Fraction, st.integers(1, 30), st.integers(1, 30)),
        height=st.integers(0, 12),
    )
    @example(  # exact cancellation at (3, 5): a failing point pair
        f=Enclosure(Fraction(1, 3), Fraction(1, 3)),
        g=Enclosure(Fraction(-1, 5), Fraction(-1, 5)),
        threshold=Fraction(1, 7),
        height=12,
    )
    @example(  # g = [0, 0]: every beta gives alpha's own enclosure
        f=Enclosure(Fraction(1, 2), Fraction(3, 2)),
        g=Enclosure(Fraction(0), Fraction(0)),
        threshold=Fraction(1),
        height=6,
    )
    @example(  # f much wider than g: long runs of undecided pairs
        f=Enclosure(Fraction(-2), Fraction(3)),
        g=Enclosure(Fraction(1, 16), Fraction(1, 8)),
        threshold=Fraction(1, 4),
        height=12,
    )
    @example(  # g touches 0 from above: one end of each enclosure stays put as beta moves
        f=Enclosure(Fraction(1, 3), Fraction(1, 2)),
        g=Enclosure(Fraction(0), Fraction(1, 8)),
        threshold=Fraction(1, 4),
        height=12,
    )
    @example(  # g touches 0 from below, f a point: failing and undecided runs
        f=Enclosure(Fraction(-1, 3), Fraction(-1, 3)),
        g=Enclosure(Fraction(-1, 6), Fraction(0)),
        threshold=Fraction(1, 2),
        height=12,
    )
    @example(  # g straddles 0, f a point: failing and undecided pairs on both sides
        f=Enclosure(Fraction(1, 3), Fraction(1, 3)),
        g=Enclosure(Fraction(-1, 16), Fraction(1, 16)),
        threshold=Fraction(1, 2),
        height=12,
    )
    @example(  # F = G = 1/3: the least bound 1/3 at pairs and their mirrors, at every alpha
        f=Enclosure(Fraction(1, 3), Fraction(1, 3)),
        g=Enclosure(Fraction(1, 3), Fraction(1, 3)),
        threshold=Fraction(1, 3),
        height=6,
    )
    @example(  # beta = 0: failing at |alpha| = 1, undecided from |alpha| = 2 on
        f=Enclosure(Fraction(-1, 4), Fraction(1, 4)),
        g=Enclosure(Fraction(1), Fraction(1)),
        threshold=Fraction(1, 2),
        height=6,
    )
    def test_pairs_match_exhaustive_sweep(self, f, g, threshold, height):
        expected = measure_pairs_bruteforce(f, g, threshold, height)
        assert tuple(_sweep_pairs(f, g, threshold, height)) == expected

    @settings(max_examples=100, deadline=None)
    @given(
        powers=st.integers(1, 4).flatmap(lambda ell: st.lists(enclosures(), min_size=ell, max_size=ell)),
        height=st.integers(1, 3),
    )
    @example(  # point powers with an exact zero form, 1 - 2*t at t = 1/2
        powers=[Enclosure(Fraction(1, 2), Fraction(1, 2))],
        height=2,
    )
    @example(  # every power enclosure straddles 0
        powers=[Enclosure(Fraction(-1, 3), Fraction(1, 2))] * 2,
        height=3,
    )
    @example(  # t = 1/2: forms and their mirrors tie at the least bound 1/2, (-2, 3) first
        powers=[Enclosure(Fraction(1, 2), Fraction(1, 2))],
        height=3,
    )
    @example(  # t = -1/2: the least tied form, (-2, -3), has c_ell < 0
        powers=[Enclosure(Fraction(-1, 2), Fraction(-1, 2))],
        height=3,
    )
    @example(  # t_1 = 1/2, t_2 = -1/4: ties at 1/4 with c_0 of both signs
        powers=[Enclosure(Fraction(1, 2), Fraction(1, 2)), Enclosure(Fraction(-1, 4), Fraction(-1, 4))],
        height=2,
    )
    def test_forms_match_exhaustive_sweep(self, powers, height):
        expected = linear_forms_bruteforce(powers, height)
        assert tuple(_sweep_forms(powers, height)) == expected == linear_forms_sweep_loop(powers, height)

    @pytest.mark.parametrize("height", [6, 12])
    def test_forms_match_loop_on_linforms_enclosures(self, height):
        # the enclosures of t^j, j = 1 .. 4, that linforms --ell 4 --q 2 --terms 64 sweeps
        tables = [sieve_rep(WaringParams(4, s), 64 + 128) for s in range(1, 5)]
        powers = [certify._clamped_enclosure(HalfFunction.from_table(t), 2, 64) for t in tables]
        assert tuple(_sweep_forms(powers, height)) == linear_forms_sweep_loop(powers, height)

    @pytest.mark.parametrize("block", [certify._FORM_BLOCK, 1024, 64])
    def test_forms_match_loop_on_planted_zero_forms(self, monkeypatch, block):
        # t = 1/2 exactly: each form with 16*c_0 + 8*c_1 + 4*c_2 + 2*c_3 + c_4 = 0
        # is undecided.  With c_4 in 1 .. 6 swept, by default one block holds
        # every choice; at 1024 choices a block holds one c_1 value, and at 64
        # it holds ten choices of (c_1, c_2, c_3).
        monkeypatch.setattr(certify, "_FORM_BLOCK", block)
        powers = [Enclosure(Fraction(1, 2**j), Fraction(1, 2**j)) for j in range(1, 5)]
        sweep = _sweep_forms(powers, 6)
        assert tuple(sweep) == linear_forms_sweep_loop(powers, 6)
        # undecided forms in the first block and in the last
        assert {-6, 6} <= {form[1] for form in sweep.undecided}


def polynomial_certificate(f_entries, g_entries, height):
    """A nested-gaps certificate at q = 2 for polynomial f and g, with f's
    gaps of length 9 at n1 = 1 and n2 = 11 and g's of length 39 at n' = 1:
    f's entries sit at 0, 10, 20 and 30, g's at 40 and 50."""
    return nested_certificate_from_json(
        {
            "q": 2, "H": str(height), "K1": 9, "K2": 9, "K_prime": 39,
            "n1": 1, "n2": 11, "n_prime": 1, "E": "5/2", "E_prime": "5/2",
            "f": {"kind": "coefficients", "entries": f_entries},
            "g": {"kind": "coefficients", "entries": g_entries},
        }
    )


def h200_certificate():
    return polynomial_certificate([[0, 2], [10, -1], [20, 2], [30, 1]], [[40, -2], [50, 1]], 200)


# f's entries at 0, 10, 20 and 30 and g's at 40 and 50, as polynomial_certificate places them
f_polynomials = st.tuples(st.integers(-8, 8), *[st.integers(-2, 2)] * 3).map(
    lambda c: [[k, a] for k, a in zip((0, 10, 20, 30), c)]
)
g_polynomials = st.tuples(st.integers(-2, 2), st.integers(-2, 2)).map(
    lambda c: [[40, c[0]], [50, c[1]]]
)


class TestMeasureExactValues:
    # f and g are polynomials, so every |alpha*f(1/2) + beta*g(1/2)| is an
    # exact Fraction that least_pair_value finds one pair at a time.

    @settings(max_examples=200, deadline=None)
    @given(f_entries=f_polynomials, g_entries=g_polynomials, height=st.integers(1, 12))
    @example(  # h200_certificate's f and g at height 12: passes
        f_entries=[[0, 2], [10, -1], [20, 2], [30, 1]], g_entries=[[40, -2], [50, 1]], height=12
    )
    @example(  # f(1/2) = 1/1024 - 1/2^30: the least value is about twice the threshold 1/2048
        f_entries=[[0, 0], [10, 1], [20, 0], [30, -1]], g_entries=[[40, 2], [50, -2]], height=12
    )
    def test_a_pass_bounds_the_exact_minimum(self, f_entries, g_entries, height):
        report = check_measure(polynomial_certificate(f_entries, g_entries, height))
        if report.verdict is not Verdict.PASS:
            return
        least = least_pair_value(f_entries, g_entries, 2, height)
        assert least >= Fraction(1, 2**11)
        assert parse_fraction(report.summary["min_lower_bound"]) <= least

    @settings(max_examples=100, deadline=None)
    @given(f_entries=f_polynomials, c=st.integers(-3, 3).filter(bool), extra=st.integers(0, 8))
    @example(f_entries=[[0, 2], [10, -1], [20, 2], [30, 1]], c=1, extra=0)
    def test_planted_multiple_never_passes(self, f_entries, c, extra):
        # g = c*f: c*f(1/2) - g(1/2) = 0 at height |c| + 1
        g_entries = [[k, c * a] for k, a in f_entries]
        height = abs(c) + 1 + extra
        assert least_pair_value(f_entries, g_entries, 2, height) == 0
        report = check_measure(polynomial_certificate(f_entries, g_entries, height))
        assert report.verdict is not Verdict.PASS

    @settings(max_examples=100, deadline=None)
    @given(a=st.integers(-3, 3).filter(bool), g_entries=g_polynomials, height=st.integers(1, 12))
    def test_planted_zero_f_never_passes(self, a, g_entries, height):
        # f = a*(1 - 2^10*t^10) vanishes at 1/2: the pair (1, 0) at height 1
        f_entries = [[0, a], [10, -a * 2**10]]
        assert least_pair_value(f_entries, g_entries, 2, height) == 0
        report = check_measure(polynomial_certificate(f_entries, g_entries, height))
        assert report.verdict is not Verdict.PASS


class TestCheckMeasureHeight200:
    # Summaries recorded from the exhaustive Fraction sweep.  At terms=12
    # g's enclosure straddles 0 (full sweep); at 41 it is a narrow negative
    # interval and by default a point (near-root walk).
    @pytest.mark.parametrize(
        "terms,min_lower_bound",
        [
            (None, "2250702450182343/1125899906842624"),
            (12, "11264018345901/5634997092352"),
            (41, "5767425028589157/2885118511284224"),
        ],
    )
    def test_pinned_summary(self, terms, min_lower_bound):
        cert = h200_certificate()
        g = eval_enclosure(cert.g, 2, terms or 64)
        assert (g.lo <= 0 <= g.hi) == (terms == 12)
        report = check_measure(cert, terms=terms)
        assert report.exit_code == 0
        assert report.summary["pairs"] == 80_000
        assert report.summary["threshold"] == "1/2048"
        assert report.summary["min_lower_bound"] == min_lower_bound
        assert report.summary["min_pair"] == [-1, -199]
        witness = report.condition("pairs-above-threshold").witness
        assert witness["failing"] == [] and witness["undecided"] == []


@pytest.fixture(scope="module")
def degree_tables():
    lower = sieve_rep(WaringParams(3, 2), 3200)
    full = sieve_rep(WaringParams(3, 3), 3200)
    return lower, full


class TestDegreeCriterion:
    def test_passing_instance(self, degree_tables):
        lower, full = degree_tables
        report = verify_degree_criterion(
            DegreeCertificate(3, 2, Fraction(1, 3000), Fraction(8), 3000, 2, 2, 18, 25),
            lower,
            full,
        )
        assert report.verdict is Verdict.PASS
        assert report.summary["largest_certifiable_J_below"] == "1/750"
        assert report.summary["derived_outer_gap"] == 25 - 18 + 2
        assert "conclusion" in report.summary

    def test_shorter_sum_inside_window_fails(self, degree_tables):
        lower, full = degree_tables
        report = verify_degree_criterion(
            DegreeCertificate(3, 2, Fraction(1, 3000), Fraction(8), 3000, 2, 4, 4, 6),
            lower,
            full,
        )
        cond = report.condition("window-free-of-shorter-sums")
        assert cond.verdict is Verdict.FAIL
        assert cond.witness["witness"] == 8

    def test_no_representable_point_fails(self, degree_tables):
        lower, full = degree_tables
        report = verify_degree_criterion(
            DegreeCertificate(3, 2, Fraction(1, 3000), Fraction(8), 3000, 2, 2, 11, 13),
            lower,
            full,
        )
        assert report.condition("representable-point-inside").verdict is Verdict.FAIL

    def test_window_conditions_match_direct_scan(self, degree_tables):
        lower, full = degree_tables
        lower_counts, full_counts = lower.counts.tolist(), full.counts.tolist()

        def first_nonzero(counts, lo, hi):
            return next((n for n in range(lo, hi) if counts[n]), None)

        for n1 in range(4, 3000, 97):
            for gap in (3, 9, 40):
                for K2 in (1, 4):
                    n2 = n1 + gap
                    cert = DegreeCertificate(
                        3, 2, Fraction(1, 3000), Fraction(8), 3200, 2, K2, n1, n2
                    )
                    report = verify_degree_criterion(cert, lower, full)
                    shorter = first_nonzero(lower_counts, n1, n2 + K2)
                    cond = report.condition("window-free-of-shorter-sums")
                    assert cond.verdict is (Verdict.PASS if shorter is None else Verdict.FAIL)
                    assert cond.witness == (None if shorter is None else {"witness": shorter})
                    inside = first_nonzero(full_counts, n1, n2)
                    cond = report.condition("representable-point-inside")
                    assert cond.verdict is (Verdict.FAIL if inside is None else Verdict.PASS)
                    assert cond.witness == (None if inside is None else {"witness": inside})

    def test_large_strength_fails_height_gap(self, degree_tables):
        lower, full = degree_tables
        report = verify_degree_criterion(
            DegreeCertificate(3, 2, Fraction(1), Fraction(8), 3000, 2, 2, 18, 25),
            lower,
            full,
        )
        assert report.condition("height-gap").verdict is Verdict.FAIL
        assert report.summary["largest_certifiable_J_below"] == "1/750"


DATA = Path(__file__).parent / "data"


@cache
def covering_instance(ell):
    """The record of degree_ell<ell>.json (a certificate echo, the limit L
    and the q values it passes at), that certificate, and the (ell, ell - 1)
    and (ell, ell) tables of sieve_pair(ell, L)."""
    record = json.loads((DATA / f"degree_ell{ell}.json").read_text())
    full, lower = sieve_pair(ell, record["limit"])
    return record, DegreeCertificate(**record["certificate"]), lower, full


class TestCoveringInstances:
    @pytest.mark.parametrize("ell", [3, 4])
    def test_passes_at_every_recorded_q(self, ell):
        record, cert, lower, full = covering_instance(ell)
        assert verify_degree_criterion(cert, lower, full).certificate == record["certificate"]
        for q in record["q"]:
            report = verify_degree_criterion(dataclasses.replace(cert, q=q), lower, full)
            assert report.verdict is Verdict.PASS, q
        # below the recorded q, the certificate fails height-gap and nothing else
        for q in range(2, cert.q):
            report = verify_degree_criterion(dataclasses.replace(cert, q=q), lower, full)
            failing = [c.name for c in report.conditions if c.verdict is not Verdict.PASS]
            assert failing == ["height-gap"], q


@cache
def degree_instances():
    """The covering instances, then TestDegreeCriterion's certificates on its
    (3,2) and (3,3) tables at 3,200."""
    covering = [covering_instance(ell)[1:] for ell in (4, 3)]
    lower, full = sieve_rep(WaringParams(3, 2), 3200), sieve_rep(WaringParams(3, 3), 3200)
    return covering + [
        (DegreeCertificate(3, 2, J, Fraction(8), 3000, 2, K2, n1, n2), lower, full)
        for J, K2, n1, n2 in [
            (Fraction(1, 3000), 2, 18, 25),
            (Fraction(1, 3000), 4, 4, 6),
            (Fraction(1, 3000), 2, 11, 13),
            (Fraction(1), 2, 18, 25),
        ]
    ]


@settings(max_examples=200, deadline=None)
@given(index=st.integers(0, 5), q=st.integers(2, 10**6), step=st.integers(1, 10**30))
def test_q_enters_only_height_gap(index, q, step):
    cert, lower, full = degree_instances()[index]
    low, high = (
        verify_degree_criterion(dataclasses.replace(cert, q=x), lower, full) for x in (q, q + step)
    )

    def q_free(report):
        return [c.to_json_dict() for c in report.conditions if c.name != "height-gap"]

    assert q_free(low) == q_free(high)
    if low.condition("height-gap").verdict is Verdict.PASS:
        assert high.condition("height-gap").verdict is Verdict.PASS


@cache
def dense_counts(index):
    """The lower and full tables' counts of degree_instances()[index], as lists."""
    _, lower, full = degree_instances()[index]
    return lower.counts.tolist(), full.counts.tolist()


@settings(max_examples=200, deadline=None)
@given(
    index=st.integers(0, 5),
    change=st.tuples(st.sampled_from(["n1", "n2", "K2"]), st.sampled_from([-1, 1]))
    | st.tuples(st.just("J"), st.integers(2, 10**12)),
)
def test_perturbed_certificates_match_bruteforce(index, change):
    # one field moved: n1, n2 or K2 by one, or J multiplied
    cert, lower, full = degree_instances()[index]
    name, by = change
    value = getattr(cert, name) * by if name == "J" else getattr(cert, name) + by
    perturbed = dataclasses.replace(cert, **{name: value})
    report = verify_degree_criterion(perturbed, lower, full)
    expected = degree_criterion_bruteforce(perturbed, *dense_counts(index))
    verdicts = {n: report.condition(n).verdict for n in expected}
    assert verdicts == {n: Verdict.PASS if ok else Verdict.FAIL for n, ok in expected.items()}


@pytest.mark.parametrize("ell", [3, 4])
def test_replay_at_every_smaller_limit_keeps_every_verdict(ell):
    # a smaller table may widen a tail enclosure, but it changes no verdict
    record, cert, lower, full = covering_instance(ell)

    def verdicts(lower, full):
        return [(c.name, c.verdict) for c in verify_degree_criterion(cert, lower, full).conditions]

    expected = verdicts(lower, full)
    for limit in range(cert.n2 + cert.K2 - 1, record["limit"] + 1):
        smaller_full, smaller_lower = sieve_pair(ell, limit)
        assert verdicts(smaller_lower, smaller_full) == expected, limit


class TestCertificateFields:
    """A certificate refuses a field out of range, by name, when it is built."""

    @pytest.mark.parametrize(
        "field, value, least",
        [("q", -2, 2), ("q", -3, 2), ("q", 0, 2), ("q", 1, 2), ("N", 0, 1), ("N", -1, 1),
         ("K1", 0, 1), ("K2", 0, 1), ("n1", -10, 0), ("n1", -1, 0)],
    )
    def test_degree_field_out_of_range(self, field, value, least):
        cert = covering_instance(4)[1]
        with pytest.raises(ValueError, match=rf"^field {field}: {value} is below {least}$"):
            dataclasses.replace(cert, **{field: value})

    @pytest.mark.parametrize("field", ["J", "E"])
    @pytest.mark.parametrize("value", [Fraction(0), Fraction(-1, 2)])
    def test_degree_strength_and_tail_bound_positive(self, field, value):
        cert = covering_instance(4)[1]
        with pytest.raises(ValueError, match="^J and E must be positive$"):
            dataclasses.replace(cert, **{field: value})

    @pytest.mark.parametrize(
        "caps, message",
        [((-1, 0), r"field caps\[0\]: -1 is below 0"), ((0, -2), r"field caps\[1\]: -2 is below 0")],
    )
    def test_maier_negative_cap(self, caps, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            MaierCertificate(ell=3, K=1, M=9, m=0, eps=(Fraction(1),) * 2, caps=caps, N=729)

    @pytest.mark.parametrize("eps, caps", [((Fraction(1),), (0, 0)), ((Fraction(1),) * 2, (0,))])
    def test_maier_entries_per_offset(self, eps, caps):
        with pytest.raises(ValueError, match="^eps and caps must both have K \\+ 1 entries$"):
            MaierCertificate(ell=3, K=1, M=9, m=0, eps=eps, caps=caps, N=729)


@pytest.fixture(scope="module")
def tables():
    return [sieve_rep(WaringParams(3, s), 192) for s in (1, 2, 3)]


class TestLinearForms:
    def test_cube_enclosure(self, tables):
        report = check_theta_linear_forms(2, 1, 64, tables)
        assert report.exit_code == 0
        cube = eval_enclosure(HalfFunction.from_table(tables[2]), 2, 64)
        assert Fraction(17, 5) < cube.lo <= cube.hi < Fraction(341, 100)

    def test_height_two_form_count(self, tables):
        report = check_theta_linear_forms(2, 2, 64, tables)
        assert report.summary["forms_checked"] == 500  # 5^3 * 4 leading choices
        assert report.condition("forms-nonvanishing").verdict is Verdict.PASS
        assert parse_fraction(report.summary["L_min"]) > 0

    def test_interval_power_crosscheck(self, tables):
        report = check_theta_linear_forms(2, 1, 48, tables)
        assert report.condition("interval-power-crosscheck").verdict is Verdict.PASS

    def test_measure_consistency_on_shared_instance(self, tables):
        # the same coefficient vector must get compatible enclosures from
        # the pairwise route and the direct linear-form route
        f = HalfFunction.from_table(tables[2])
        coeff_sets = [(1, -1, 0, 1), (0, 2, -2, 1), (-2, 0, 1, 2)]
        for a0, a1, a2, a3 in coeff_sets:
            g = linear_combination(
                [a0, a1, a2],
                [
                    HalfFunction.constant(1),
                    HalfFunction.from_table(tables[0]),
                    HalfFunction.from_table(tables[1]),
                ],
            )
            pair_route = eval_enclosure(f, 2, 64).scale(a3) + eval_enclosure(g, 2, 64)
            direct = Enclosure(Fraction(1), Fraction(1)).scale(a0)
            for coeff, table in zip((a1, a2, a3), tables):
                direct = direct + eval_enclosure(
                    HalfFunction.from_table(table), 2, 64
                ).scale(coeff)
            assert pair_route.intersects(direct)

    def test_rejects_mismatched_tables(self, tables):
        with pytest.raises(ValueError):
            check_theta_linear_forms(2, 1, 64, tables[:2])
        with pytest.raises(ValueError, match="need at least one table"):
            check_theta_linear_forms(2, 1, 64, [])

    def test_rejects_unreasonable_height(self, tables):
        with pytest.raises(ValueError):
            check_theta_linear_forms(2, 10**4, 64, tables)

    def test_fourth_power_forms(self):
        quartic = [sieve_rep(WaringParams(4, s), 160) for s in (1, 2, 3, 4)]
        report = check_theta_linear_forms(2, 1, 32, quartic)
        assert report.verdict is Verdict.PASS
        assert report.summary["forms_checked"] == 162  # 3^4 * 2 leading signs


# the six pipeline runs whose tables and filters are checked against the oracles
ORACLE_RUNS = [(3, (9, 63)), (3, (63,)), (3, (252,)), (4, (16, 32)), (4, (32,)), (4, (64,))]


class TestPipeline:
    def test_cubic_dry_run(self):
        report = pipeline_dry_run(3, 2, 1)
        names = {c.name for c in report.conditions}
        assert {
            "exponent-in-range",
            "modulus-search",
            "limit-covers-modulus-power",
            "schedule-alpha-below-three-quarters",
            "counting-certificate",
            "qualifying-set-large",
            "bad-points-minority",
            "good-set-large",
            "qualifying-points-are-mild-gaps",
            "greedy-window-within-modulus",
            "representable-point-in-some-pair",
            "degree-criterion",
        } <= names
        assert report.summary["M"] == 9
        assert report.summary["m"] == 4
        assert report.summary["N"] == 1262
        alpha = parse_fraction(report.summary["alpha"])
        assert alpha < Fraction(3, 4)
        assert report.condition("schedule-alpha-below-three-quarters").verdict is Verdict.PASS
        assert report.condition("counting-certificate").verdict is Verdict.PASS

    def test_cubic_dry_run_larger_modulus(self):
        report = pipeline_dry_run(3, 2, 1, PipelineConfig(moduli_pool=(63,)))
        assert report.summary["M"] == 63
        assert report.summary["K2"] == 31
        assert report.condition("kappa-at-least-log-limit").verdict is Verdict.PASS
        assert report.condition("qualifying-points-are-mild-gaps").verdict is Verdict.PASS
        assert report.condition("counting-certificate").verdict is Verdict.PASS
        # pair windows, recorded before the nonzero index replaced prefix counts
        assert (report.summary["pairs"], report.summary["good_pairs"]) == (11181, 7216)
        assert report.condition("representable-point-in-some-pair").witness["qualified"] == 7210
        degree = report.condition("degree-criterion").witness
        assert (degree["n1"], degree["n2"]) == (1579, 1642)

    def test_biquadratic_dry_run(self):
        report = pipeline_dry_run(4, 2, 1)
        assert report.summary["M"] == 16
        assert report.summary["m"] == 5
        names = {c.name for c in report.conditions}
        assert "window-set-escapes-exceptional" in names
        assert "exceptional_density" in report.summary
        assert parse_fraction(report.summary["alpha"]) < Fraction(3, 4)
        assert (report.summary["pairs"], report.summary["good_pairs"]) == (4468, 3853)
        assert report.condition("representable-point-in-some-pair").witness["qualified"] == 1413
        degree = report.condition("degree-criterion").witness
        assert (degree["n1"], degree["n2"]) == (53, 69)

    def test_small_xi_rejects_mild_gap_candidates(self):
        # E = 60 xi = 3/5 is below the tail of 21 of the 78 candidates checked
        config = PipelineConfig(moduli_pool=(9, 63), xi=Fraction(1, 100))
        cond = pipeline_dry_run(3, 2, 1, config).condition("qualifying-points-are-mild-gaps")
        assert cond.verdict is Verdict.FAIL
        assert (cond.witness["checked"], cond.witness["rejected"]) == (78, 21)

    @pytest.mark.parametrize("ell, pool", [(3, (9, 63)), (4, (16, 32))])
    def test_reports_differ_across_q_only_in_height_gap(self, ell, pool):
        def q_free(q):
            """The report at q less its q, the degree criterion's height-gap
            entry, and the verdict, conclusion and largest J that follow."""
            report = pipeline_dry_run(ell, q, 1, PipelineConfig(moduli_pool=pool)).to_json_dict()
            del report["certificate"]["q"], report["summary"]["largest_certifiable_J_below"]
            degree = next(c for c in report["per_condition"] if c["name"] == "degree-criterion")
            witness = degree.pop("witness")
            del degree["verdict"], witness["summary"]["largest_certifiable_J_below"]
            witness["summary"].pop("conclusion", None)
            witness["per_condition"] = [
                c for c in witness["per_condition"] if c["name"] != "height-gap"
            ]
            return report, witness

        reports = [q_free(q) for q in (2, 3, 7, 10**6)]
        assert all(report == reports[0] for report in reports)

    def test_limit_budget_exceeded_is_reported(self):
        config = PipelineConfig(max_limit=500)
        report = pipeline_dry_run(3, 2, 1, config)
        assert report.condition("limit-within-budget").verdict is Verdict.FAIL
        assert report.condition("limit-covers-modulus-power").verdict is Verdict.FAIL
        assert report.summary["N"] == 500  # capped, never silently truncated

    def test_empty_pool_halts_early(self):
        config = PipelineConfig(max_modulus=5)
        report = pipeline_dry_run(3, 2, 1, config)
        assert report.summary.get("halted_at") == "modulus-search"

    def test_deterministic(self):
        a = pipeline_dry_run(3, 2, 1)
        b = pipeline_dry_run(3, 2, 1)
        assert a.to_json_dict() == b.to_json_dict()

    @settings(max_examples=500, deadline=None)
    @given(
        N=st.integers(1, 120),
        M=st.integers(1, 40),
        b=st.lists(st.integers(0, 160), unique=True, max_size=30),
        runs=st.lists(st.tuples(st.integers(0, 12), st.integers(1, 15)), max_size=12),
    )
    @example(N=50, M=10, b=[], runs=[(2, 1), (36, 1)])  # no good pairs
    @example(N=50, M=1, b=[0, 7, 49], runs=[(7, 1)])  # every window empty
    @example(N=50, M=9, b=[44, 48, 50], runs=[(48, 2)])  # windows clipped at N
    @example(N=50, M=4, b=[0, 2, 4], runs=[(2, 1), (1, 1)])  # each window next to the last
    @example(N=50, M=4, b=[0, 3, 5], runs=[(1, 2)])  # gaps between windows
    @example(N=50, M=12, b=[1, 2, 3, 30], runs=[(6, 9)])  # overlaps
    @example(N=50, M=10, b=[0, 20, 45], runs=[])  # no runs
    @example(N=50, M=9, b=[40, 44], runs=[(43, 8)])  # a run that touches N
    @example(N=50, M=8, b=[0, 10, 11], runs=[(2, 5), (5, 8)])  # windows that begin inside a run
    @example(N=50, M=6, b=[0, 6], runs=[(2, 3), (0, 4)])  # runs that touch each other
    def test_window_escapes_on_runs_match_depth_count(self, N, M, b, runs):
        # the pipeline's count, with the exceptional points as runs [start, stop)
        # of [1, N], each begun a drawn gap past the stop of the one before
        b = np.array(sorted(b), dtype=np.int64)
        starts, stops, stop = [], [], 1
        for gap, length in runs:
            if stop + gap > N:
                break
            starts.append(stop + gap)
            stop = min(stop + gap + length, N + 1)
            stops.append(stop)
        starts, stops = np.array(starts, dtype=np.int64), np.array(stops, dtype=np.int64)
        exceptional = np.array(
            [x for a, z in zip(starts.tolist(), stops.tolist()) for x in range(a, z)],
            dtype=np.int64,
        )
        window_points, escaped = window_escapes_depth(b, M, N, exceptional)
        assert certify._window_escapes(b, M, N, (starts, stops)) == (window_points, escaped)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            pipeline_dry_run(5, 2, 1)
        with pytest.raises(ValueError):
            pipeline_dry_run(3, 1, 1)
        with pytest.raises(ValueError):
            pipeline_dry_run(3, 2, 0)

    @staticmethod
    def spied_run(ell, pool, monkeypatch):
        """A pipeline run, with the tables it sieved (by s) and the arguments
        and result of its qualifying set, read back through spies."""
        used = {}

        def sieve_spy(ell, limit):
            tables = sieve_pair(ell, limit)
            used.update((table.params.s, table) for table in tables)
            return tables

        def members_spy(*args):
            used["args"] = args
            used["members"] = maier_qualifying_set(*args)
            return used["members"]

        monkeypatch.setattr(certify, "sieve_pair", sieve_spy)
        monkeypatch.setattr(certify, "maier_qualifying_set", members_spy)
        report = pipeline_dry_run(ell, 2, 1, PipelineConfig(moduli_pool=pool, max_limit=200_000))
        return report, used

    @pytest.mark.parametrize("ell, pool", ORACLE_RUNS)
    def test_pair_filters_match_bruteforce(self, ell, pool, monkeypatch):
        report, used = self.spied_run(ell, pool, monkeypatch)
        members = used["members"].tolist()
        pairs, good, qualified = pair_filters_bruteforce(
            members, used[ell - 1].counts.tolist(), used[ell].counts.tolist(), report.summary["K2"]
        )
        assert report.summary["qualifying_points"] == len(members)
        assert (report.summary["pairs"], report.summary["good_pairs"]) == (pairs, good)
        witness = report.condition("representable-point-in-some-pair").witness
        assert witness == {"qualified": len(qualified), "good_pairs": good}
        degree = report.condition("degree-criterion").witness
        assert qualified and (degree["n1"], degree["n2"]) == qualified[0]

    @pytest.mark.parametrize("ell, pool", ORACLE_RUNS)
    def test_qualifying_set_and_escapes_match_bruteforce(self, ell, pool, monkeypatch):
        report, used = self.spied_run(ell, pool, monkeypatch)
        table, modulus, residue, caps, limit, window = used["args"]
        counts = table.counts.tolist()
        members = qualifying_set_bruteforce(counts, modulus, residue, caps, limit, window)
        assert used["members"].tolist() == members
        assert report.condition("counting-certificate").witness["count"] == len(members)
        if ell == 3:
            return
        M, N, K2 = report.summary["M"], report.summary["N"], report.summary["K2"]
        lower = used[ell - 1].counts.tolist()
        good_b1 = [b1 for b1, b2 in zip(members, members[1:]) if not any(lower[b1 : b2 + K2 + 1])]
        witness = report.condition("window-set-escapes-exceptional").witness
        exponent = Fraction(4059, 16384) + parse_fraction(witness["epsilon"])
        exceptional = exceptional_scan_whole_array(N, exponent, table.counts).tolist()
        window_points, escaped = window_escapes_bruteforce(good_b1, M, N, exceptional)
        assert (witness["window_points"], witness["exceptional"], witness["escaped"]) == (
            window_points, len(exceptional), escaped
        )
        density = parse_fraction(report.summary["exceptional_density"])
        assert density == Fraction(len(exceptional), N)

    @pytest.mark.parametrize("ell, pool", [(3, (63,)), (4, (32,))])
    def test_lower_table_dense_counts_never_built(self, ell, pool, monkeypatch):
        # every build of a table's dense counts from its nonzero index goes through the spy
        built = []
        build = RepTable.__dict__["counts"].func

        def counts_spy(table):
            built.append(table.params)
            return build(table)

        spy = cached_property(counts_spy)
        spy.__set_name__(RepTable, "counts")
        monkeypatch.setattr(RepTable, "counts", spy)
        report, used = self.spied_run(ell, pool, monkeypatch)
        assert "n1" in report.condition("degree-criterion").witness  # the lower table was read
        assert built == []
        assert "counts" not in vars(used[ell - 1])
        assert used[ell - 1].nonzero.size > 1

    @settings(max_examples=300, deadline=None)
    @given(
        params=st.sampled_from([WaringParams(3, 3), WaringParams(3, 2), WaringParams(4, 4)]),
        table_limit=st.integers(0, 60),
        modulus=st.integers(1, 12),
        residue=st.integers(0, 12),
        caps=st.lists(st.integers(-1, 12) | st.integers(200, 2**70), min_size=1, max_size=6),
        data=st.data(),
    )
    def test_qualifying_set_matches_bruteforce(
        self, params, table_limit, modulus, residue, caps, data
    ):
        # small tables hold uint8 or uint16 counts, so caps run past the dtype and past int64
        table = sieve_rep(params, table_limit)
        limit = data.draw(st.integers(0, table_limit + 1))
        window = len(caps) - 1
        expected = qualifying_set_bruteforce(
            table.counts.tolist(), modulus, residue, caps, limit, window
        )
        got = maier_qualifying_set(table, modulus, residue, caps, limit, window)
        assert got.dtype == np.int64 and got.tolist() == expected

    @settings(max_examples=300, deadline=None)
    @given(
        params=st.sampled_from([WaringParams(3, 3), WaringParams(3, 2), WaringParams(4, 4)]),
        modulus=st.integers(1, 12) | st.integers(13, 4000),
        residue=st.integers(0, 40) | st.integers(0, 3100),
        caps=st.lists(st.integers(-3, 12) | st.integers(2**14, 2**70), min_size=1, max_size=20),
        limit=st.integers(0, 3020) | st.integers(3002, 3020),
    )
    def test_qualifying_set_matches_bruteforce_at_3000(self, params, modulus, residue, caps, limit):
        # caps below 0 and past the loose ceiling, windows longer than the
        # modulus, residues past the last row, and a last window past the table
        table, counts = table_at_3000(params)
        window = len(caps) - 1
        rows = range(residue, limit - window, modulus)
        if rows and rows[-1] + window > table.limit:
            with pytest.raises(ValueError, match="does not cover the last progression window"):
                maier_qualifying_set(table, modulus, residue, caps, limit, window)
            return
        expected = qualifying_set_bruteforce(counts, modulus, residue, caps, limit, window)
        got = maier_qualifying_set(table, modulus, residue, caps, limit, window)
        assert got.dtype == np.int64 and got.tolist() == expected


@cache
def table_at_3000(params: WaringParams) -> tuple[RepTable, list[int]]:
    """The table of params at 3,000 and its counts as Python ints."""
    table = sieve_rep(params, 3000)
    return table, table.counts.tolist()


NESTED_JSON = {
    "q": 2, "H": "100", "K1": 9, "K2": 9, "K_prime": 39,
    "n1": 1, "n2": 11, "n_prime": 1, "E": "2", "E_prime": "1",
    "f": {"kind": "coefficients", "entries": [[0, 1], [10, 1], [20, 1]]},
    "g": {"kind": "coefficients", "entries": [[40, 1]]},
}


class TestWireFormats:
    def test_half_function_specs(self, tmp_path):
        const = half_function_from_spec({"kind": "constant", "value": 3})
        assert const.coefficient(0) == 3
        poly = half_function_from_spec(
            {"kind": "coefficients", "entries": [[2, 5]], "label": "bump"}
        )
        assert poly.coefficient(2) == 5 and poly.label == "bump"
        sieved = half_function_from_spec({"kind": "rep-table", "ell": 3, "s": 1, "limit": 40})
        assert sieved.coefficient(27) == 1
        combo = half_function_from_spec(
            {
                "kind": "combination",
                "alphas": [2, -1],
                "parts": [
                    {"kind": "constant", "value": 1},
                    {"kind": "coefficients", "values": [1]},
                ],
            }
        )
        assert combo.coefficient(0) == 1

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            half_function_from_spec({"kind": "mystery"})

    @settings(max_examples=200, deadline=None)
    @given(
        key=st.sampled_from(sorted(NESTED_JSON)),
        wrong=st.one_of(
            st.floats(),
            st.booleans(),
            st.lists(st.integers(), max_size=2),
            st.dictionaries(st.text(max_size=2), st.integers(), max_size=2),
            st.none(),
        ),
    )
    def test_field_of_wrong_json_type_rejected(self, key, wrong):
        if key in ("f", "g") and isinstance(wrong, dict):
            wrong = [wrong]  # an object is the right type for a series spec
        with pytest.raises(ValueError, match=f"^field {key}: expected "):
            nested_certificate_from_json(dict(NESTED_JSON, **{key: wrong}))

    def test_nested_certificate_json_round_trip(self):
        cert = synthetic_nested()
        obj = cert.to_json_dict()
        assert obj["H"] == "100"
        obj["f"] = {"kind": "coefficients", "entries": [[0, 1], [10, 1], [20, 1]]}
        obj["g"] = {"kind": "coefficients", "entries": [[40, 1]]}
        again = nested_certificate_from_json(obj)
        report = verify_nested_gaps(again)
        assert report.verdict is Verdict.PASS


class TestPlantedNonPass:
    """A minimal input on which each of these conditions does not pass."""

    def test_windows_out_of_order_halt(self):
        # M = 16 gives K2 = 8 < K1 = 9
        report = pipeline_dry_run(4, 2, 1, PipelineConfig(moduli_pool=(16,), window=9))
        assert report.condition("windows-ordered").verdict is Verdict.FAIL
        assert report.condition("windows-ordered").witness == {"K1": 9, "K2": 8}
        assert report.summary["halted_at"] == "windows-ordered"
        assert report.conditions[-1].name == "windows-ordered"

    def test_window_too_wide_for_the_modulus(self):
        report = pipeline_dry_run(4, 2, 1, PipelineConfig(moduli_pool=(16, 32, 64), window=6))
        assert report.summary["M"] == 16
        assert report.condition("size-shape").verdict is Verdict.FAIL
        assert report.condition("size-shape").witness == {"2m": 10, "4K1": 24, "M": 16}
        assert report.condition("kappa-at-least-first-window").verdict is Verdict.FAIL
        assert report.condition("kappa-at-least-first-window").witness == {"kappa": 2, "K1": 6}

    def test_residue_window_reaching_the_modulus(self):
        # M = 52, m = 26: m + K2 = 52
        report = pipeline_dry_run(3, 2, 1, PipelineConfig(moduli_pool=(52,), window=1))
        condition = report.condition("residue-window-inside-modulus")
        assert condition.verdict is Verdict.FAIL
        assert condition.witness == {"m+K2": 52, "M": 52}

    def test_schedule_below_the_loose_bound(self):
        report = pipeline_dry_run(3, 2, 1, PipelineConfig(moduli_pool=(63,), xi=Fraction(1, 1000)))
        condition = report.condition("schedule-dominates-loose-bound")
        assert condition.verdict is Verdict.FAIL
        assert condition.witness == {"12*xi": "3/250", "8*2^ell": 64}

    def test_no_qualifying_pair(self):
        # N = 300 leaves no point of any window outside the exceptional set
        report = pipeline_dry_run(4, 2, 1, PipelineConfig(moduli_pool=(32,), max_limit=300))
        for name in ("good-set-large", "window-set-escapes-exceptional",
                     "representable-point-in-some-pair"):
            assert report.condition(name).verdict is Verdict.FAIL, name
        assert report.condition("good-set-large").witness["count"] == 0
        assert report.condition("window-set-escapes-exceptional").witness["escaped"] == 0
        degree = report.condition("degree-criterion")
        assert degree.verdict is Verdict.FAIL
        assert degree.witness == "no qualifying pair available"

    def test_forms_undecided_at_few_terms(self):
        tables = [sieve_rep(WaringParams(3, s), 4 + 128) for s in (1, 2, 3)]
        report = check_theta_linear_forms(2, 1, 4, tables)
        condition = report.condition("forms-nonvanishing")
        assert condition.verdict is Verdict.INCONCLUSIVE
        assert condition.witness["certified"] == 48 and len(condition.witness["undecided"]) == 6
        assert report.verdict is Verdict.INCONCLUSIVE

