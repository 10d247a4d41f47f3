import functools
import json
import random
import re
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    first_growth_fault_bruteforce,
    first_nonzero_bruteforce,
    horner_tail_sum,
    horner_truncated,
    rep_counts_bruteforce,
    weighted_tail_bruteforce,
    zero_run_scan,
)
from waring_gaps import series
from waring_gaps.repcount import WaringParams, sieve_rep
from waring_gaps.series import (
    CoverageError,
    Enclosure,
    GrowthCertificateError,
    HalfFunction,
    MildGapCheck,
    MildGapWitness,
    Verdict,
    eval_enclosure,
    eval_truncated,
    is_mild_gap,
    linear_combination,
    mild_gap_checks,
    scan_mild_gaps,
    tail_norm,
)


class TestEnclosure:
    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            Enclosure(Fraction(1), Fraction(0))

    def test_arithmetic(self):
        a = Enclosure(Fraction(1), Fraction(2))
        b = Enclosure(Fraction(-1), Fraction(3))
        assert (a + b).lo == 0 and (a + b).hi == 5
        assert a.scale(-2).lo == -4 and a.scale(-2).hi == -2
        prod = a * b
        assert prod.lo == -2 and prod.hi == 6
        assert a.power(3).lo == 1 and a.power(3).hi == 8

    def test_containment_and_json(self):
        outer = Enclosure(Fraction(0), Fraction(1))
        inner = Enclosure(Fraction(1, 4), Fraction(1, 2))
        assert outer.contains_enclosure(inner)
        assert outer.intersects(inner)
        assert inner.to_json_dict() == {"lo": "1/4", "hi": "1/2"}


class TestHalfFunction:
    def test_table_backed_coefficients(self, table_3_3):
        f = HalfFunction.from_table(table_3_3)
        assert f.coefficient(0) == 1
        assert f.coefficient(8) == 3
        assert f.c == 8
        assert f.label == "f_3_3"
        assert f.nonnegative

    def test_coverage_enforced(self, table_3_1):
        f = HalfFunction.from_table(table_3_1)
        with pytest.raises(CoverageError):
            f.coefficient(table_3_1.limit + 1)

    def test_growth_certificate_enforced(self):
        message = "poly: |a_5| = 100 exceeds c*(n+1) = 6"
        with pytest.raises(GrowthCertificateError, match=re.escape(message)):
            HalfFunction.from_coefficients({0: 1, 5: 100}, c=Fraction(1))

    @settings(max_examples=300, deadline=None)
    @given(
        entries=st.dictionaries(
            st.integers(0, 60), st.integers(-400, 400) | st.integers(-(2**80), 2**80), max_size=8
        ),
        c=st.fractions(min_value=0, max_value=12, max_denominator=6),
    )
    def test_growth_certificate_matches_bruteforce(self, entries, c):
        fault = first_growth_fault_bruteforce(entries, c)
        if fault is None:
            f = HalfFunction.from_coefficients(entries, c=c)
            assert [f.coefficient(n) for n in range(62)] == [entries.get(n, 0) for n in range(62)]
        else:
            a, bound = abs(entries[fault]), c * (fault + 1)
            message = f"poly: |a_{fault}| = {a} exceeds c*(n+1) = {bound}"
            with pytest.raises(GrowthCertificateError, match=re.escape(message)):
                HalfFunction.from_coefficients(entries, c=c)

    def test_table_counts_gathered_once(self, table_3_3):
        # the dense table gathers its nonzero counts on first use, and every
        # series of that table holds the same array
        f, g = HalfFunction.from_table(table_3_3), HalfFunction.from_table(table_3_3)
        assert f.values is g.values is table_3_3.nonzero_counts
        assert f.positions is table_3_3.nonzero
        assert f.values.tolist() == [n for n in table_3_3.counts.tolist() if n]

    def test_constant(self):
        one = HalfFunction.constant(1)
        assert one.coefficient(0) == 1
        assert one.coefficient(7) == 0
        zero = HalfFunction.constant(0)
        assert zero.c == 0

    def test_default_growth_certificate_is_tight(self):
        f = HalfFunction.from_coefficients({3: 8})
        assert f.c == Fraction(8, 4)


class TestLinearCombination:
    def test_cancellation_gives_zero_function(self, table_3_1):
        f = HalfFunction.from_table(table_3_1)
        combo = linear_combination([1, -1], [f, f])
        assert all(combo.coefficient(n) == 0 for n in range(50))
        assert combo.c == 16

    def test_scaling(self, table_3_1):
        combo = linear_combination([2], [HalfFunction.from_table(table_3_1)])
        assert combo.coefficient(8) == 2

    def test_three_part_sum(self, table_3_1, table_3_2):
        combo = linear_combination(
            [1, 1, 1],
            [
                HalfFunction.constant(1),
                HalfFunction.from_table(table_3_1),
                HalfFunction.from_table(table_3_2),
            ],
        )
        assert combo.coefficient(9) == 0 + 0 + 2
        assert combo.coefficient(0) == 3

    def test_certificate_is_weighted_sum(self, table_3_1, table_3_2):
        f1 = HalfFunction.from_table(table_3_1)
        f2 = HalfFunction.from_table(table_3_2)
        combo = linear_combination([-3, 2], [f1, f2])
        assert combo.c == 3 * f1.c + 2 * f2.c
        assert not combo.nonnegative

    def test_length_mismatch(self, table_3_1):
        with pytest.raises(ValueError):
            linear_combination([1, 2], [HalfFunction.from_table(table_3_1)])


class TestTailMajorantStart:
    """The nonzero index against a brute-force next-nonzero sweep, for n in [0, limit + 2]."""

    @staticmethod
    def check(f, values, coverage):
        stop = len(values) + 2
        expected = first_nonzero_bruteforce(values, coverage, stop)
        assert [f.tail_majorant_start(n) for n in range(stop)] == expected

    @pytest.mark.parametrize("name", ["table_3_1", "table_3_3", "table_4_4"])
    def test_tables(self, request, name):
        table = request.getfixturevalue(name)
        values = rep_counts_bruteforce(table.params.ell, table.params.s, table.limit)
        self.check(HalfFunction.from_table(table), values, table.limit)

    def test_polynomial_and_constants(self):
        poly = HalfFunction.from_coefficients({0: 2, 3: -1, 7: 5, 40: 1})
        values = [0] * 41
        values[0], values[3], values[7], values[40] = 2, -1, 5, 1
        self.check(poly, values, None)
        self.check(HalfFunction.constant(3), [3], None)
        self.check(HalfFunction.constant(0), [], None)

    def test_combination_cancelling_to_zero(self, table_3_1):
        f = HalfFunction.from_table(table_3_1)
        self.check(linear_combination([1, -1], [f, f]), [0] * (table_3_1.limit + 1), table_3_1.limit)

    def test_combination_cancelling_on_cubes(self, table_3_1, table_3_2):
        # 2*r_{3,1} - r_{3,2} vanishes at every positive cube and lives on sums of two
        combo = linear_combination(
            [2, -1], [HalfFunction.from_table(table_3_1), HalfFunction.from_table(table_3_2)]
        )
        limit = table_3_1.limit
        values = [
            2 * a - b
            for a, b in zip(rep_counts_bruteforce(3, 1, limit), rep_counts_bruteforce(3, 2, limit))
        ]
        self.check(combo, values, limit)

    def test_combination_zero_run_past_4096(self):
        limit = 60_000
        assert 38**3 - 37**3 > 4096 and 38**3 <= limit
        cubes = HalfFunction.from_table(sieve_rep(WaringParams(3, 1), limit))
        combo = linear_combination([3, -1], [cubes, HalfFunction.constant(3)])
        values = [3 * r for r in rep_counts_bruteforce(3, 1, limit)]
        values[0] -= 3
        self.check(combo, values, limit)


class TestTailNorm:
    def test_zero_function_majorant(self):
        # nothing past coverage 9 is certified zero, so the majorant starts at the cutoff
        f = HalfFunction([], [], c=Fraction(3), label="zero_fn", coverage=9)
        tail = tail_norm(f, 5, 10)
        assert tail.lo == 0
        assert tail.hi <= 8 * 3 * 10 * Fraction(1, 32)

    def test_certified_zero_tail_is_exact(self):
        f = HalfFunction.from_coefficients({0: 1, 5: 1})
        tail = tail_norm(f, 6, 10)
        assert tail.lo == tail.hi == 0

    def test_linear_coefficients_stay_below_majorant(self):
        f = HalfFunction(
            range(90), [n + 1 for n in range(90)], c=Fraction(1), label="linear", coverage=89
        )
        tail = tail_norm(f, 1, 90)
        # exact value of the weighted tail at 1 is 6; the majorant gives 8
        assert tail.lo < 6 < tail.hi
        assert tail.hi <= 8

    def test_single_cube_series_partial_sum(self, table_3_1):
        f = HalfFunction.from_table(table_3_1)
        tail = tail_norm(f, 9, 70)
        assert tail.lo == Fraction(1, 2**18) + Fraction(1, 2**55)
        assert tail.hi - tail.lo <= 8 * f.c * 70 * Fraction(1, 2**61)

    def test_majorant_formula_at_cutoff(self, table_3_1):
        f = HalfFunction.from_table(table_3_1)
        tail = tail_norm(f, 9, 60)
        assert tail.lo == Fraction(1, 2**18)
        assert tail.hi - tail.lo <= 8 * f.c * 60 * Fraction(1, 2**51)

    def test_rejects_bad_window(self, table_3_1):
        f = HalfFunction.from_table(table_3_1)
        with pytest.raises(ValueError):
            tail_norm(f, 0, 5)
        with pytest.raises(ValueError):
            tail_norm(f, 5, 4)


class TestMildGap:
    def test_two_term_series_witness(self):
        f = HalfFunction.from_coefficients({0: 1, 5: 1})
        check = is_mild_gap(f, 1, 4, Fraction(1))
        assert check.is_witness
        assert check.witness.tail_enclosure.lo == 1
        assert check.witness.tail_enclosure.hi == 1

    def test_three_cube_witness(self, table_3_3):
        f = HalfFunction.from_table(table_3_3)
        check = is_mild_gap(f, 4, 4, Fraction(8))
        assert check.is_witness
        w = check.witness
        assert w.zero_checked_up_to == 7
        assert w.tail_enclosure.hi <= 8

    def test_zero_run_rejection(self, table_3_3):
        f = HalfFunction.from_table(table_3_3)
        check = is_mild_gap(f, 4, 5, Fraction(8))
        assert check.verdict is Verdict.FAIL
        assert check.failed_clause == "zero-run"
        assert "8" in check.detail

    def test_definite_tail_rejection(self, table_3_1):
        f = HalfFunction.from_table(table_3_1)
        check = is_mild_gap(f, 2, 6, Fraction(1, 2))
        assert check.verdict is Verdict.FAIL
        assert check.failed_clause == "tail-norm"

    def test_inconclusive_band_distinct_from_rejection(self):
        table = sieve_rep(WaringParams(3, 1), 40)
        f = HalfFunction.from_table(table)
        base = tail_norm(f, 8, 41)
        assert base.lo < base.hi
        bound = (base.lo + base.hi) / 2
        check = is_mild_gap(f, 2, 6, bound)
        assert check.verdict is Verdict.INCONCLUSIVE
        assert "inside the tail enclosure" in check.detail

    def test_gap_at_index_zero_permitted(self):
        f = HalfFunction.from_coefficients({5: 1})
        check = is_mild_gap(f, 0, 5, Fraction(2))
        assert check.is_witness

    def test_witness_json_fields(self, table_3_3):
        f = HalfFunction.from_table(table_3_3)
        obj = is_mild_gap(f, 4, 4, Fraction(8)).witness.to_json_dict()
        assert set(obj) == {"function", "n", "K", "E", "zero_checked_up_to", "tail_enclosure"}
        assert obj["function"] == "f_3_3"
        assert obj["E"] == "8"

    def test_witness_exactly_when_passing(self, table_3_3):
        witness = is_mild_gap(HalfFunction.from_table(table_3_3), 4, 4, Fraction(8)).witness
        with pytest.raises(ValueError, match="witness exactly when it passes"):
            MildGapCheck(verdict=Verdict.PASS, n=4)
        for verdict in (Verdict.FAIL, Verdict.INCONCLUSIVE):
            with pytest.raises(ValueError, match="witness exactly when it passes"):
                MildGapCheck(verdict=verdict, n=4, witness=witness)


class TestScanMildGaps:
    def test_three_cubes_window(self, table_3_3):
        f = HalfFunction.from_table(table_3_3)
        scan = scan_mild_gaps(f, 0, 100, 4, Fraction(8))
        assert [w.n for w in scan.witnesses] == [
            4, 11, 12, 18, 19, 20, 30, 37, 38, 39, 44, 45, 46, 47, 48, 49, 50,
            56, 57, 58, 67, 74, 75, 76, 82, 83, 84, 85, 86, 93, 94, 95,
        ]
        assert scan.inconclusive == ()
        # runs whose weighted tail exceeds the bound are excluded for good
        assert {31, 68, 87}.isdisjoint({w.n for w in scan.witnesses})

    def test_single_cube_window(self, table_3_1):
        f = HalfFunction.from_table(table_3_1)
        scan = scan_mild_gaps(f, 2, 3, 6, Fraction(2))
        assert [w.n for w in scan.witnesses] == [2]
        tail = scan.witnesses[0].tail_enclosure
        assert tail.lo == 1 + Fraction(1, 2**19) + Fraction(1, 2**56)

    def test_empty_range(self, table_3_1):
        f = HalfFunction.from_table(table_3_1)
        scan = scan_mild_gaps(f, 10, 10, 2, Fraction(1))
        assert scan.witnesses == () and scan.inconclusive == ()

    def test_witness_replay(self, table_3_3):
        f = HalfFunction.from_table(table_3_3)
        scan = scan_mild_gaps(f, 0, 60, 4, Fraction(8))
        counts = table_3_3.counts.tolist()
        for w in scan.witnesses:
            assert all(counts[w.n + k] == 0 for k in range(w.gap_length))
            exact_partial = weighted_tail_bruteforce(
                counts[: w.n + w.gap_length + 120], w.n + w.gap_length
            )
            assert w.tail_enclosure.lo <= exact_partial
            assert exact_partial <= w.tail_enclosure.hi + Fraction(1, 2**100)
            # a longer cutoff can only confirm the witness
            again = is_mild_gap(f, w.n, w.gap_length, w.tail_bound,
                                cutoff=w.n + w.gap_length + 150)
            assert again.is_witness


class TestRecordedMildScan:
    """A scan whose output was recorded before the nonzero index replaced the
    per-call table scans.  The range ends at the table's limit, so the tail
    cutoff is clamped for its last points: witnesses, definite rejections
    and inconclusive points all occur."""

    RECORD = Path(__file__).parent / "data" / "mild_scan_r33.json"

    def test_reproduces_recorded_scan(self, table_3_3):
        record = json.loads(self.RECORD.read_text())
        assert record["table"] == {"ell": 3, "s": 3, "limit": table_3_3.limit}
        lo, hi, k = record["lo"], record["hi"], record["K"]
        f = HalfFunction.from_table(table_3_3)
        scan = scan_mild_gaps(f, lo, hi, k, Fraction(record["E"]))
        assert [w.to_json_dict() for w in scan.witnesses] == record["witnesses"]
        assert list(scan.inconclusive) == record["inconclusive"]
        counts = table_3_3.counts.tolist()
        candidates = [n for n in range(lo, hi) if not any(counts[n : n + k])]
        rejected = len(candidates) - len(scan.witnesses) - len(scan.inconclusive)
        assert rejected >= 10 and len(scan.inconclusive) >= 5


class TestEvalTruncated:
    def test_single_cube_nine_terms(self, table_3_1):
        f = HalfFunction.from_table(table_3_1)
        assert eval_truncated(f, 2, 9) == Fraction(385, 256)

    def test_zero_terms(self, table_3_1):
        f = HalfFunction.from_table(table_3_1)
        assert eval_truncated(f, 5, 0) == 0

    def test_constant(self):
        assert eval_truncated(HalfFunction.constant(1), 7, 5) == 1

    def test_sparse_series_far_past_its_support(self):
        # q^(terms - 1) is never formed: the sum's denominator is q^38
        f = HalfFunction.from_coefficients({0: 1, 19: 1, 38: 1}, label="f_sparse")
        assert eval_truncated(f, 2, 10**30) == 1 + Fraction(1, 2**19) + Fraction(1, 2**38)

    @pytest.mark.parametrize("q", [2, 3, 7, 10])
    @pytest.mark.parametrize("terms", [1, 5, 17, 40])
    def test_denominator_divides_power(self, table_3_3, q, terms):
        f = HalfFunction.from_table(table_3_3)
        value = eval_truncated(f, q, terms)
        assert q ** (terms - 1) % value.denominator == 0

    def test_rejects_small_q(self, table_3_1):
        with pytest.raises(ValueError):
            eval_truncated(HalfFunction.from_table(table_3_1), 1, 5)

    def test_rejects_non_integer_q(self, table_3_1):
        with pytest.raises(TypeError):
            eval_truncated(HalfFunction.from_table(table_3_1), 2.5, 5)


class TestEvalEnclosure:
    def test_theta_two_lower_end(self, table_3_1):
        f = HalfFunction.from_table(table_3_1)
        enc = eval_enclosure(f, 2, 28)
        assert enc.lo == Fraction(385, 256) + Fraction(1, 2**27)
        assert enc.width < Fraction(1, 2**50)

    def test_zero_function(self):
        enc = eval_enclosure(HalfFunction.constant(0), 3, 10)
        assert enc.lo == enc.hi == 0

    def test_three_cube_series_vs_interval_cube(self, table_3_1, table_3_3):
        direct = eval_enclosure(HalfFunction.from_table(table_3_3), 2, 30)
        cubed = eval_enclosure(HalfFunction.from_table(table_3_1), 2, 30).power(3)
        assert direct.intersects(cubed)

    def test_signed_series_two_sided(self, table_3_1):
        f = HalfFunction.from_table(table_3_1)
        combo = linear_combination([-1], [f])
        enc = eval_enclosure(combo, 2, 28)
        value = eval_truncated(combo, 2, 28)
        assert enc.lo < value < enc.hi

    @pytest.mark.parametrize("q", [2, 3])
    def test_nesting_as_terms_grow(self, table_3_3, q):
        f = HalfFunction.from_table(table_3_3)
        enclosures = [eval_enclosure(f, q, terms) for terms in (5, 10, 20, 40, 64)]
        for wider, narrower in zip(enclosures, enclosures[1:]):
            assert wider.contains_enclosure(narrower)


class TestTailBounds:
    def test_linear_growth_bound_randomized(self):
        # |a_n| <= c (n+1) forces the weighted tail at n0 below 8 c n0
        rng = random.Random(20260809)
        for _ in range(200):
            c = rng.randint(1, 10)
            n0 = rng.randint(1, 50)
            length = n0 + rng.randint(50, 150)
            values = [rng.choice([-1, 1]) * rng.randint(0, c * (n + 1)) for n in range(length)]
            exact = weighted_tail_bruteforce(values, n0)
            discarded = Fraction(2 * c * (length + 2) + 2 * c, 2 ** (length - n0))
            assert exact + discarded <= 8 * c * n0

    def test_capped_window_bound_randomized(self):
        # caps (3/2)^i E on a window of length kappa >= log2(N) keep the tail below 5E
        rng = random.Random(42)
        for _ in range(200):
            c = rng.randint(1, 10)
            e_bound = 8 * c * rng.randint(1, 3)
            n0 = rng.randint(1, 50)
            kappa = rng.randint(20, 60)
            total = n0 + kappa
            assert kappa >= total.bit_length()  # 2^kappa >= N = n0 + kappa
            length = total + rng.randint(40, 80)
            values = []
            for n in range(length):
                cap = c * (n + 1)
                if n0 <= n < n0 + kappa:
                    cap = min(cap, int(Fraction(3, 2) ** (n - n0) * e_bound))
                values.append(rng.choice([-1, 1]) * rng.randint(0, cap))
            exact = weighted_tail_bruteforce(values, n0)
            discarded = Fraction(2 * c * (length + 2) + 2 * c, 2 ** (length - n0))
            assert exact + discarded <= 5 * e_bound


@functools.cache
def small_table(ell: int, s: int, limit: int):
    return sieve_rep(WaringParams(ell, s), limit)


@st.composite
def walked_series(draw) -> HalfFunction:
    """Series whose coefficients respect their growth certificate: tables,
    polynomials, constants, combinations that cancel, and series built by the
    constructor from their nonzero terms, with or without a coverage."""
    kind = draw(st.sampled_from(["table", "poly", "constant", "cancel", "mixed", "bare"]))
    limit = draw(st.integers(0, 120))
    if kind == "table":
        ell, s = draw(st.sampled_from([(3, 1), (3, 2), (3, 3), (4, 4)]))
        return HalfFunction.from_table(small_table(ell, s, limit))
    poly = HalfFunction.from_coefficients(
        draw(st.dictionaries(st.integers(0, 90), st.integers(-5, 5), max_size=8))
    )
    if kind == "poly":
        return poly
    if kind == "constant":
        return HalfFunction.constant(draw(st.integers(-3, 3)))
    cubes = HalfFunction.from_table(small_table(3, 1, limit))
    if kind == "cancel":
        # f - f vanishes everywhere, 2*r_{3,1} - r_{3,2} at every positive cube
        two_cubes = HalfFunction.from_table(small_table(3, 2, limit))
        alphas, parts = draw(st.sampled_from([([1, -1], [cubes, cubes]), ([2, -1], [cubes, two_cubes])]))
        return linear_combination(alphas, parts)
    if kind == "mixed":
        alphas = draw(st.lists(st.integers(-2, 2), min_size=2, max_size=2))
        return linear_combination(alphas, [cubes, poly])
    values = draw(st.lists(st.integers(-3, 3), max_size=90))
    coverage = draw(st.sampled_from([None, len(values) - 1])) if values else None
    positions = [n for n, a in enumerate(values) if a]
    return HalfFunction(
        positions, [values[n] for n in positions], c=Fraction(3), label="bare", coverage=coverage
    )


def outcome(call):
    """What call returns, or the type and message of what it raises."""
    try:
        return call()
    except (ArithmeticError, LookupError, ValueError) as exc:
        return type(exc), str(exc)


def reference_mild_gap(f, n, gap_length, tail_bound, cutoff):
    """is_mild_gap one index at a time, as (verdict, clause, detail), with the
    tail's lower end from the Horner oracle."""
    for k in range(n, n + gap_length):
        if f.coefficient(k):
            return Verdict.FAIL, "zero-run", f"coefficient at {k} is nonzero"
    start = n + gap_length
    if cutoff is None:
        cutoff = start + max(64, 4 * gap_length)
        if f.coverage is not None:
            cutoff = max(min(cutoff, f.coverage + 1), start)
    elif cutoff < start:
        raise ValueError(
            f"cutoff must not precede start: cutoff {cutoff} is below the tail start "
            f"n + k = {start} of candidate n = {n}; the cutoff is an absolute index"
        )
    tail = reference_tail(f, start, cutoff)
    if tail.hi <= tail_bound:
        return Verdict.PASS, None, tail
    if tail.lo > tail_bound:
        return Verdict.FAIL, "tail-norm", f"tail is at least {tail.lo}, above the bound {tail_bound}"
    detail = (
        f"bound {tail_bound} falls inside the tail enclosure "
        f"[{tail.lo}, {tail.hi}] at cutoff {cutoff}"
    )
    return Verdict.INCONCLUSIVE, "tail-norm", detail


def reference_tail(f, start, cutoff):
    """tail_norm with its partial sum from the Horner oracle."""
    if cutoff < start:
        raise ValueError("cutoff must not precede start")
    lo = horner_tail_sum(f.coefficient, start, cutoff)
    majorant_at = f.tail_majorant_start(cutoff)
    if majorant_at is None:
        return Enclosure(lo, lo)
    return Enclosure(lo, lo + 8 * f.c * majorant_at * Fraction(1, 2 ** (majorant_at - start)))


def mild_gap_outcome(check):
    if check.is_witness:
        return Verdict.PASS, None, check.witness.tail_enclosure
    return check.verdict, check.failed_clause, check.detail


def reference_witness(f, n, gap_length, tail_bound, tail):
    """The witness a passing reference_mild_gap stands for."""
    return MildGapWitness(f.label, n, gap_length, tail_bound, n + gap_length - 1, tail)


def scan_outcome(witnesses, inconclusive):
    return [w.to_json_dict() for w in witnesses], list(inconclusive)


def window(f: HalfFunction, data) -> tuple[int, int, int, Fraction, int | None]:
    """(lo, hi, gap_length, tail_bound, cutoff): a window that may cross
    coverage, and a cutoff that may precede some candidate's tail."""
    known = 100 if f.coverage is None else f.coverage
    lo = data.draw(st.integers(0, known + 3))
    hi = lo + data.draw(st.integers(0, 24))
    gap_length = data.draw(st.integers(1, 8))
    tail_bound = Fraction(data.draw(st.integers(1, 60)), data.draw(st.integers(1, 4)))
    cutoff = data.draw(st.none() | st.integers(lo, hi + 80))
    return lo, hi, gap_length, tail_bound, cutoff


class TestNonzeroWalk:
    """Every reader of the nonzero walk against the per-index oracles, with
    the same exception type and message wherever a window crosses coverage."""

    @settings(max_examples=300, deadline=None)
    @given(f=walked_series(), data=st.data())
    def test_scan_matches_zero_run_scan(self, f, data):
        lo, hi, gap_length, tail_bound, cutoff = window(f, data)

        def reference():
            checks = zero_run_scan(
                f.coefficient, lo, hi, gap_length,
                lambda n: (n, reference_mild_gap(f, n, gap_length, tail_bound, cutoff)),
            )
            return scan_outcome(
                [reference_witness(f, n, gap_length, tail_bound, tail)
                 for n, (verdict, _, tail) in checks if verdict is Verdict.PASS],
                [n for n, (verdict, _, _) in checks if verdict is Verdict.INCONCLUSIVE],
            )

        def scan():
            result = scan_mild_gaps(f, lo, hi, gap_length, tail_bound, cutoff=cutoff)
            return scan_outcome(result.witnesses, result.inconclusive)

        assert outcome(scan) == outcome(reference)

    @settings(max_examples=300, deadline=None)
    @given(f=walked_series(), data=st.data())
    def test_mild_gap_matches_reference(self, f, data):
        n, _, gap_length, tail_bound, cutoff = window(f, data)
        if cutoff is not None:
            cutoff += gap_length
        expected = outcome(lambda: reference_mild_gap(f, n, gap_length, tail_bound, cutoff))
        got = outcome(lambda: mild_gap_outcome(is_mild_gap(f, n, gap_length, tail_bound, cutoff)))
        assert got == expected

    @settings(max_examples=400, deadline=None)
    @given(f=walked_series(), data=st.data())
    def test_batch_matches_reference(self, f, data):
        # unsorted candidates with repeats, now and then a negative one or one
        # whose window crosses coverage, and a cutoff that may precede a tail
        known = 100 if f.coverage is None else f.coverage
        ns = data.draw(st.lists(st.integers(-1, known + 10), max_size=10))
        ns += data.draw(st.lists(st.sampled_from(ns), max_size=3)) if ns else []
        gap_length = data.draw(st.integers(1, 8))
        tail_bound = Fraction(data.draw(st.integers(1, 60)), data.draw(st.integers(1, 4)))
        cutoff = data.draw(st.none() | st.integers(0, known + 90))
        expected = outcome(
            lambda: [reference_mild_gap(f, n, gap_length, tail_bound, cutoff) for n in ns]
        )
        got = outcome(lambda: [
            mild_gap_outcome(check)
            for check in mild_gap_checks(f, ns, gap_length, tail_bound, cutoff)
        ])
        assert got == expected

    def test_batch_reads_each_coefficient_once(self, table_3_3, reads):
        f = HalfFunction.from_table(table_3_3)
        ns = [93, 4, 11, 4, 400, 0, 31, 18]
        checks = mild_gap_checks(f, ns, 4, Fraction(8))
        # 0 fails its zero run unread; the other tails are read together,
        # from the smallest tail start to the largest cutoff, however far
        # apart their candidates lie
        assert reads == [(4 + 4, 400 + 4 + 64)]
        assert [mild_gap_outcome(c) for c in checks] == [
            reference_mild_gap(f, n, 4, Fraction(8), None) for n in ns
        ]
        assert {c.failed_clause for c in checks} == {None, "zero-run", "tail-norm"}

    def test_candidate_past_coverage_is_not_walked_to(self, table_3_3, reads):
        f = HalfFunction.from_table(table_3_3)
        far = table_3_3.limit + 10**6
        with pytest.raises(CoverageError, match=f"coefficient {far} beyond coverage"):
            mild_gap_checks(f, [4, far], 4, Fraction(8))
        # far fails before any tail is enclosed, so no term is read at all
        assert reads == []

    def test_empty_tail_past_coverage(self, table_3_1):
        # nothing past coverage is read, and nothing there is certified zero
        f = HalfFunction.from_table(table_3_1)
        start = table_3_1.limit + 3
        assert tail_norm(f, start, start) == reference_tail(f, start, start)
        with pytest.raises(CoverageError, match=f"coefficient {start} beyond coverage"):
            tail_norm(f, start, start + 1)

    def test_empty_batch_still_checks_its_arguments(self, table_3_3):
        f = HalfFunction.from_table(table_3_3)
        assert mild_gap_checks(f, [], 4, Fraction(8)) == []
        with pytest.raises(ValueError, match="gap length must be positive"):
            mild_gap_checks(f, [], 0, Fraction(8))

    @settings(max_examples=300, deadline=None)
    @given(f=walked_series(), data=st.data())
    def test_tail_norm_matches_horner(self, f, data):
        start, cutoff, _, _, _ = window(f, data)
        start += 1
        cutoff = data.draw(st.integers(start - 1, cutoff + 80))
        assert outcome(lambda: tail_norm(f, start, cutoff)) == outcome(
            lambda: reference_tail(f, start, cutoff)
        )

    @settings(max_examples=300, deadline=None)
    @given(f=walked_series(), data=st.data())
    def test_tail_norm_batch_matches_horner(self, f, data):
        # unsorted tails, now and then one whose cutoff precedes its start or
        # whose terms pass coverage: the first such pair in input order raises
        known = 100 if f.coverage is None else f.coverage
        starts = data.draw(st.lists(st.integers(1, known + 10), max_size=8))
        cutoffs = [data.draw(st.integers(start - 1, start + 90)) for start in starts]
        assert outcome(lambda: tail_norm(f, starts, cutoffs)) == outcome(
            lambda: [reference_tail(f, start, cut) for start, cut in zip(starts, cutoffs)]
        )

    @settings(max_examples=300, deadline=None)
    @given(f=walked_series(), q=st.integers(2, 10), terms=st.integers(0, 140))
    def test_eval_truncated_matches_horner(self, f, q, terms):
        assert outcome(lambda: eval_truncated(f, q, terms)) == outcome(
            lambda: horner_truncated(f.coefficient, q, terms)
        )

    def test_table_window_reads_only_index_positions(self, table_3_3, reads):
        f = HalfFunction.from_table(table_3_3)
        cover = table_3_3.limit
        lo = cover - 200
        assert table_3_3.counts[-2:].tolist() == [0, 0]
        with pytest.raises(CoverageError, match=f"coefficient {cover + 1} beyond coverage"):
            is_mild_gap(f, cover - 1, 8, Fraction(8))
        assert reads == []
        # the scan decides its candidates before coverage, reading their tails
        # once and no further than coverage + 1, then fails at coverage + 1
        with pytest.raises(CoverageError, match=f"coefficient {cover + 1} beyond coverage"):
            scan_mild_gaps(f, lo, cover - 2, 8, Fraction(8))
        assert len(reads) == 1
        assert lo < reads[0][0] and reads[0][1] == cover + 1


@pytest.fixture
def reads(monkeypatch):
    """The (lo, hi) of every HalfFunction._span call made while the test
    runs, in order: the read of terms that _terms and tail_norm share."""
    made = []
    span = HalfFunction._span

    def recorded(self, lo, hi=None):
        made.append((lo, hi))
        return span(self, lo, hi)

    monkeypatch.setattr(HalfFunction, "_span", recorded)
    return made


class TestFarMajorantStart:
    """A next nonzero term astronomically far past a cutoff: the majorant
    starts _MAJORANT_REACH past it instead, a wider but sound bound."""

    far = HalfFunction.from_coefficients({0: 1, 10: 1, 2**40: 1})
    reach = series._MAJORANT_REACH

    def test_tail_norm(self):
        tail = tail_norm(self.far, 10, 74)
        n0 = 74 + self.reach
        assert tail.lo == 1
        assert tail.hi == 1 + 8 * self.far.c * n0 / Fraction(2) ** (n0 - 10)
        exact = 1 + Fraction(1, 2 ** (2**20))  # a bound on the true tail, 1 + 2^(10 - 2^40)
        assert tail.lo < exact < tail.hi

    def test_eval_enclosure(self):
        enclosure = eval_enclosure(self.far, 3, 64)
        value = 1 + Fraction(1, 3**10)
        assert enclosure.lo == value
        # c * sum((k+1) * x^k) over k >= s is c * x^s * ((s+1)/(1-x) + x/(1-x)^2)
        s, x = 64 + self.reach, Fraction(1, 3)
        assert enclosure.hi == value + self.far.c * x**s * ((s + 1) / (1 - x) + x / (1 - x) ** 2)
