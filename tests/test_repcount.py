import contextlib
import csv
import functools
import io
import itertools
import math
import os
import random
import re
import string
import struct
import threading
import tracemalloc
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import (
    exceptional_members_bruteforce,
    exceptional_scan_whole_array,
    floor_root_bruteforce,
    greedy_decompose_bruteforce,
    next_nonzero_count_bruteforce,
    read_table_binary_whole,
    render_rows_joined,
    rep_counts_bruteforce,
    rep_counts_convolution,
    zero_runs_bruteforce,
)
from waring_gaps import repcount
from waring_gaps.repcount import (
    _MAX_DIGITS,
    _WINDOW,
    _csv_columns,
    _csv_rows,
    CounterWidthError,
    RepTable,
    TableFormatError,
    WaringParams,
    count_dtype,
    csv_pieces,
    find_gap_runs,
    floor_pow,
    floor_root,
    greedy_decompose,
    read_table_binary,
    read_table_csv,
    scan_exceptional_set,
    sieve_pair,
    sieve_rep,
    write_table_binary,
    write_table_csv,
    write_output,
)
from waring_gaps.series import HalfFunction


class TestParams:
    def test_valid(self):
        assert WaringParams(3, 1).s == 1
        assert WaringParams(4, 4).ell == 4

    @pytest.mark.parametrize("ell,s", [(2, 1), (5, 1), (3, 0), (3, 4), (4, 5)])
    def test_invalid(self, ell, s):
        with pytest.raises(ValueError):
            WaringParams(ell, s)


# Limits on each side of the two places where count_dtype widens (from 1
# to 2 bytes, and from 2 to 4), for each ell.
WIDTH_EDGES = {3: [30, 31, 8190, 8191], 4: [14, 15, 4094, 4095]}


@functools.lru_cache(maxsize=None)
def bruteforce_counts(ell: int, s: int, limit: int) -> list[int]:
    return rep_counts_bruteforce(ell, s, limit)


class TestSieve:
    def test_single_cube_indicator(self):
        table = sieve_rep(WaringParams(3, 1), 10)
        assert table.counts.tolist() == [1, 1, 0, 0, 0, 0, 0, 0, 1, 0, 0]

    def test_three_cubes_small(self):
        table = sieve_rep(WaringParams(3, 3), 3)
        assert table.counts.tolist() == [1, 3, 3, 1]

    def test_two_cubes_at_nine(self):
        table = sieve_rep(WaringParams(3, 2), 9)
        assert table.count(9) == 2

    @pytest.mark.parametrize(
        "ell,s,limit",
        [(3, 1, 50), (3, 2, 400), (3, 3, 400), (4, 1, 50), (4, 2, 400), (4, 3, 400), (4, 4, 400)]
        + [
            (ell, s, limit)
            for ell in (3, 4)
            for s in range(1, ell + 1)
            for limit in (0, 1, 2, 100)
        ],
    )
    def test_matches_bruteforce(self, ell, s, limit):
        table = sieve_rep(WaringParams(ell, s), limit)
        assert table.counts.tolist() == rep_counts_bruteforce(ell, s, limit)

    @pytest.mark.parametrize("ell,s", [(3, 3), (3, 2), (4, 4), (4, 1)])
    @pytest.mark.parametrize("k", [1, 2])
    def test_matches_convolution_at_window_edges(self, ell, s, k):
        for limit in (k * _WINDOW - 1, k * _WINDOW, k * _WINDOW + 1):
            table = sieve_rep(WaringParams(ell, s), limit)
            assert np.array_equal(table.counts, rep_counts_convolution(ell, s, limit)), limit

    @pytest.mark.parametrize("ell", [3, 4])
    @pytest.mark.parametrize("k", [1, 2])
    def test_pair_matches_sieve_and_convolution_at_window_edges(self, ell, k):
        for limit in (k * _WINDOW - 1, k * _WINDOW, k * _WINDOW + 1):
            full, lower = sieve_pair(ell, limit)
            for table, s in ((full, ell), (lower, ell - 1)):
                single = sieve_rep(WaringParams(ell, s), limit)
                assert (table.params, table.limit) == (single.params, limit)
                assert table.counts.dtype == single.counts.dtype
                assert np.array_equal(table.counts, single.counts), (s, limit)
                assert np.array_equal(table.counts, rep_counts_convolution(ell, s, limit)), (s, limit)

    @pytest.mark.parametrize("ell", [3, 4])
    @pytest.mark.parametrize("limit", [0, 1, 2, 100])
    def test_pair_matches_bruteforce(self, ell, limit):
        full, lower = sieve_pair(ell, limit)
        assert (full.params, lower.params) == (WaringParams(ell, ell), WaringParams(ell, ell - 1))
        assert full.counts.dtype == lower.counts.dtype == count_dtype(ell, limit)
        assert full.counts.tolist() == rep_counts_bruteforce(ell, ell, limit)
        assert lower.counts.tolist() == rep_counts_bruteforce(ell, ell - 1, limit)

    @settings(max_examples=40, deadline=None)
    @given(
        ell_s=st.sampled_from([(ell, s) for ell in (3, 4) for s in range(1, ell + 1)]),
        limit=st.integers(0, 300) | st.sampled_from(sorted(WIDTH_EDGES[3] + WIDTH_EDGES[4])),
        window=st.sampled_from([1, 2, 7, 64]),
    )
    @example(ell_s=(3, 3), limit=30, window=1)
    @example(ell_s=(3, 1), limit=31, window=2)
    @example(ell_s=(3, 3), limit=8190, window=64)
    @example(ell_s=(3, 2), limit=8191, window=7)
    @example(ell_s=(4, 2), limit=14, window=1)
    @example(ell_s=(4, 4), limit=15, window=7)
    @example(ell_s=(4, 4), limit=4094, window=2)
    @example(ell_s=(4, 1), limit=4095, window=1)
    def test_rep_and_pair_match_bruteforce_in_small_windows(self, ell_s, limit, window):
        ell, s = ell_s
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(repcount, "_WINDOW", window)  # shifts below lo, empty slices
            table = sieve_rep(WaringParams(ell, s), limit)
            full, lower = sieve_pair(ell, limit)
            single_lower = sieve_rep(WaringParams(ell, ell - 1), limit)
        dtype = count_dtype(ell, limit)
        assert table.counts.dtype == full.counts.dtype == lower.counts.dtype == dtype
        assert table.counts.tolist() == bruteforce_counts(ell, s, limit)
        assert full.counts.tolist() == bruteforce_counts(ell, ell, limit)
        assert lower.counts.tolist() == bruteforce_counts(ell, ell - 1, limit)
        assert np.array_equal(lower.nonzero, single_lower.nonzero)
        assert np.array_equal(lower.counts, single_lower.counts)

    @pytest.mark.parametrize("ell", [3, 4])
    def test_convolution_consistency(self, ell):
        limit = 500
        tables = {s: sieve_rep(WaringParams(ell, s), limit) for s in range(1, ell + 1)}
        base = tables[1].counts.tolist()
        for s in range(2, ell + 1):
            prev = tables[s - 1].counts.tolist()
            conv = [0] * (limit + 1)
            for n, c in enumerate(base):
                if not c:
                    continue
                for k in range(limit + 1 - n):
                    if prev[k]:
                        conv[n + k] += c * prev[k]
            assert conv == tables[s].counts.tolist()

    def test_deterministic(self):
        a = sieve_rep(WaringParams(4, 3), 777)
        b = sieve_rep(WaringParams(4, 3), 777)
        assert np.array_equal(a.counts, b.counts)

    @pytest.mark.parametrize("ell,s", [(3, 3), (4, 4)])
    def test_loose_bound(self, ell, s):
        table = sieve_rep(WaringParams(ell, s), 2000)
        bound = (1 << ell) * (np.arange(2001) + 1)
        assert (table.counts <= bound).all()
        assert table.count(0) == 1

    def test_width_ceiling_checked_up_front(self):
        with pytest.raises(CounterWidthError):
            sieve_rep(WaringParams(3, 3), 2**61)

    def test_rep_table_rejects_narrow_dtype(self):
        counts = np.zeros(1000 + 1, dtype=np.uint8)
        counts[0] = 1
        with pytest.raises(CounterWidthError):
            RepTable(params=WaringParams(3, 3), limit=1000, counts=counts)

    def test_rep_table_rejects_wrong_mass_at_zero(self):
        counts = np.zeros(11, dtype=np.int64)
        with pytest.raises(TableFormatError):
            RepTable(params=WaringParams(3, 3), limit=10, counts=counts)

    def test_rep_table_reports_first_count_over_bound_in_later_block(self):
        limit = _WINDOW + 100
        counts = np.zeros(limit + 1, dtype=np.int64)
        counts[0] = 1
        counts[_WINDOW - 1] = 16 * _WINDOW  # at the bound, so allowed
        for bad in (_WINDOW + 7, _WINDOW + 50):
            counts[bad] = 16 * (bad + 1) + 1
        with pytest.raises(TableFormatError, match=rf"count at {_WINDOW + 7} exceeds"):
            RepTable(params=WaringParams(4, 4), limit=limit, counts=counts)

    def test_counts_immutable(self):
        table = sieve_rep(WaringParams(3, 1), 10)
        with pytest.raises(ValueError):
            table.counts[0] = 7


class TestFloorRoot:
    @pytest.mark.parametrize("ell,b,expected", [(3, 26, 2), (3, 27, 3), (4, 10000, 10)])
    def test_examples(self, ell, b, expected):
        assert floor_root(ell, b) == expected

    def test_small_values_exhaustive(self):
        for ell in (1, 2, 3, 4, 5):
            for b in range(200):
                assert floor_root(ell, b) == floor_root_bruteforce(ell, b)

    @pytest.mark.parametrize("ell", [3, 4])
    def test_random_wide(self, ell):
        rng = random.Random(987 + ell)
        for _ in range(20_000):
            b = rng.getrandbits(rng.randrange(1, 200))
            x = floor_root(ell, b)
            assert x**ell <= b < (x + 1) ** ell

    @pytest.mark.parametrize("ell", [3, 4])
    def test_million_random_values(self, ell):
        rng = random.Random(1000 + ell)
        for _ in range(1_000_000):
            b = rng.getrandbits(62)
            x = floor_root(ell, b)
            assert x**ell <= b < (x + 1) ** ell

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            floor_root(0, 5)
        with pytest.raises(ValueError):
            floor_root(3, -1)


class TestGreedy:
    @pytest.mark.parametrize(
        "ell,b,parts,n",
        [(3, 0, (0, 0, 0), 0), (3, 8, (2, 0, 0), 8), (3, 100, (4, 3, 2), 99)],
    )
    def test_examples(self, ell, b, parts, n):
        assert greedy_decompose(ell, b) == (parts, n)

    @pytest.mark.parametrize("ell", [3, 4])
    def test_matches_bruteforce(self, ell):
        for b in range(0, 2000):
            assert greedy_decompose(ell, b) == greedy_decompose_bruteforce(ell, b)

    def test_parts_reconstruct_sum(self):
        rng = random.Random(5)
        for _ in range(500):
            b = rng.randrange(10**9)
            parts, n = greedy_decompose(3, b)
            assert sum(p**3 for p in parts) == n <= b

    def test_cube_remainder_bound_exact(self):
        for b in range(1, 3000):
            _, n = greedy_decompose(3, b)
            assert (b - n) ** 27 < 25**27 * b**8


class TestGapRuns:
    def test_three_cubes_runs(self, table_3_3):
        runs = find_gap_runs(sieve_rep(WaringParams(3, 3), 30), 4)
        assert runs.tolist() == [(4, 4, False), (11, 5, False), (18, 6, False)]

    def test_single_cube_run(self):
        runs = find_gap_runs(sieve_rep(WaringParams(3, 1), 10), 6)
        assert (2, 6, False) in runs.tolist()

    def test_all_nonzero_table(self):
        counts = np.ones(6, dtype=np.int64)
        table = RepTable(params=WaringParams(3, 3), limit=5, counts=counts)
        assert find_gap_runs(table, 1).tolist() == []

    def test_boundary_truncation_flagged(self):
        runs = find_gap_runs(sieve_rep(WaringParams(3, 1), 10), 1)
        assert runs.tolist()[-1] == (9, 2, True)

    def test_matches_bruteforce(self, table_3_3):
        expected = zero_runs_bruteforce(table_3_3.counts.tolist(), 3)
        assert find_gap_runs(table_3_3, 3).tolist() == expected

    @settings(max_examples=300, deadline=None)
    @given(
        tail=st.lists(st.sampled_from([0, 0, 0, 1, 2, 8]), max_size=80),
        min_len=st.integers(1, 90),
        window=st.sampled_from([1, 2, 3, _WINDOW]),
    )
    @example(tail=[1, 0, 0], min_len=1, window=_WINDOW)  # a run touching the end
    @example(tail=[0, 0, 1, 0], min_len=5, window=_WINDOW)  # min_len longer than every run
    @example(tail=[0, 0, 0, 0, 1], min_len=1, window=2)  # a run across index blocks
    def test_matches_bruteforce_on_random_tables(self, tail, min_len, window):
        counts = [1, *tail]
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(repcount, "_WINDOW", window)  # the nonzero index's block size
            table = RepTable(
                params=WaringParams(3, 3),
                limit=len(counts) - 1,
                counts=np.asarray(counts, dtype=np.int64),
            )
            runs = find_gap_runs(table, min_len)
        assert runs.dtype == np.dtype(
            [("start", np.int64), ("length", np.int64), ("truncated", np.bool_)]
        )
        assert not runs.flags.writeable
        expected = zero_runs_bruteforce(counts, min_len)
        assert len(runs) == len(expected)
        assert runs.tolist() == expected

    def test_min_len_positive(self, table_3_1):
        with pytest.raises(ValueError):
            find_gap_runs(table_3_1, 0)


@st.composite
def pow_cases(draw) -> tuple[int, int, int]:
    """(base, p, q) with base <= 2^64, q <= 2^15, base^p of at most 2^17 bits
    and base^(p/q) below about 2^96: any base, or one at or next to an exact
    q-th power."""
    if draw(st.booleans()):
        base = draw(st.integers(1, 2**64))
        q = draw(st.integers(1, 2**15))
    else:
        q = draw(st.integers(1, 64))
        base = draw(st.integers(2, floor_root(q, 2**64))) ** q
        base += draw(st.sampled_from([-1, 0, 0, 1])) if base < 2**64 else 0
    bits = base.bit_length()
    p = draw(st.integers(1, max(1, min(2**15, 2**17 // bits, 96 * q // bits))))
    return base, p, q


class TestFloorPow:
    @settings(max_examples=300, deadline=None)
    @given(base=st.integers(1, 5000), p=st.integers(1, 12), q=st.integers(1, 12))
    def test_matches_floor_root(self, base, p, q):
        assert floor_pow(base, Fraction(p, q)) == floor_root(q, base**p)

    @pytest.mark.parametrize("exponent", [Fraction(13, 4), Fraction(512, 127)])
    def test_matches_floor_root_at_pipeline_exponents(self, exponent):
        p, q = exponent.numerator, exponent.denominator
        for base in [*range(1, 4097, 31), 4096]:
            assert floor_pow(base, exponent) == floor_root(q, base**p)

    def test_large_denominator(self):
        # 9^(3000001/1000000) = 729 * 9^(1/1000000), just above 729
        assert floor_pow(9, Fraction(3000001, 1000000)) == 729
        assert floor_pow(8, Fraction(10, 3)) == 1024  # an exact root

    @settings(max_examples=200, deadline=None)
    @given(case=pow_cases())
    @example(case=(31, 32768, 8123))  # the last breakpoint of the mild-gaps pipeline
    @example(case=(2**64, 1, 2))
    @example(case=(3**40 - 1, 1, 40))  # just below an exact power
    @example(case=(5**27, 5, 27))  # an exact power
    @example(case=(2**64 - 1, 8123, 32768))
    def test_matches_floor_root_with_large_denominators(self, case):
        base, p, q = case
        assert floor_pow(base, Fraction(p, q)) == floor_root(q, base**p)

    def test_large_result_under_large_denominator(self):
        # A 162-bit result: bisection steps within 2^-120 of the root must be
        # settled by bounded powering, not by the full 1.3M-bit powers.
        base = 2**40 + 3
        assert floor_pow(base, Fraction(32768, 8123)) == floor_root(8123, base**32768)

    def test_overflowing_estimate_falls_back_to_the_full_bracket(self, monkeypatch):
        brackets = []
        search = repcount._floor_pow_between

        def spy(base, p, q, lo, hi):
            brackets.append((lo, hi))
            return search(base, p, q, lo, hi)

        monkeypatch.setattr(repcount, "_floor_pow_between", spy)
        base = 2**1100 + 12_345  # base^(3/2) is past the largest float
        assert floor_pow(base, Fraction(3, 2)) == floor_root(2, base**3)
        assert brackets == [(0, 1 << -(-base.bit_length() * 3 // 2))]

    @pytest.mark.parametrize("error", [-3.0, -0.01, 0.01, 3.0])
    def test_wrong_estimate_never_decides(self, error, monkeypatch):
        cases = [(base, Fraction(p, q)) for base, p, q in
                 [(31, 32768, 8123), (2**40 + 3, 7, 2), (10**6, 1, 3), (5**27, 5, 27), (2, 1, 1)]]
        expected = [floor_root(e.denominator, base**e.numerator) for base, e in cases]
        monkeypatch.setattr(repcount, "math", SimpleNamespace(log2=lambda x: math.log2(x) + error))
        assert [floor_pow(base, e) for base, e in cases] == expected


class TestPowerComparison:
    def test_matches_full_powers_randomized(self):
        from waring_gaps.repcount import _pow_greater

        rng = random.Random(7)
        for _ in range(100_000):
            a, d = rng.randrange(0, 40), rng.randrange(0, 40)
            p, q = rng.randrange(1, 50), rng.randrange(1, 50)
            assert _pow_greater(a, p, d, q) == (a**p > d**q)

    def test_near_crossover_and_equal_values(self):
        from waring_gaps.repcount import _pow_greater

        rng = random.Random(8)
        for _ in range(2_000):
            a, d = rng.randrange(2, 10**6), rng.randrange(2, 10**6)
            p, q = rng.randrange(1, 3000), rng.randrange(1, 3000)
            assert _pow_greater(a, p, d, q) == (a**p > d**q)
        for a, p, d, q in [(4, 3, 8, 2), (2, 30, 8, 10), (9, 10, 3, 20)]:
            assert a**p == d**q
            assert _pow_greater(a, p, d, q) is False
            assert _pow_greater(a, p + 1, d, q) is (a ** (p + 1) > d**q)

    def test_wide_exponent_gap(self):
        from waring_gaps.repcount import _bounded_pow, _pow_greater

        # bit lengths leave 3^50000 against 2^70000 open either way round,
        # and the two bounded powers lie some 9,000 bits apart
        a, p, d, q = 3, 50_000, 2, 70_000
        assert abs(_bounded_pow(a, p)[2] - _bounded_pow(d, q)[2]) > 9_000
        assert _pow_greater(a, p, d, q) is (a**p > d**q) is True
        assert _pow_greater(d, q, a, p) is (d**q > a**p) is False

    def test_shift_matches_full_powers(self):
        from waring_gaps.repcount import _pow_greater

        rng = random.Random(9)
        for _ in range(20_000):
            a, d = rng.randrange(0, 40), rng.randrange(0, 40)
            p, q, shift = rng.randrange(1, 50), rng.randrange(1, 50), rng.randrange(0, 80)
            assert _pow_greater(a, p, d, q, shift) == (a**p > d**q << shift)
        for a, p, d, q, shift in [(2, 10, 2, 4, 6), (6, 4, 3, 4, 4), (3, 6, 9, 3, 0)]:
            assert a**p == d**q << shift
            assert _pow_greater(a, p, d, q, shift) is False
            assert _pow_greater(a, p + 1, d, q, shift) is True

    def test_bounded_pow_brackets_true_power(self):
        from waring_gaps.repcount import _bounded_pow

        rng = random.Random(9)
        for _ in range(2_000):
            x, n = rng.randrange(2, 1000), rng.randrange(1, 3000)
            lo, hi, e = _bounded_pow(x, n)
            value = x**n
            assert lo * 2**e <= value <= hi * 2**e

    def test_huge_exponent_denominator_stays_fast(self, table_4_4):
        # widening the window exponent can only shrink the membership;
        # the second scan's exponent has a multi-million denominator
        base = scan_exceptional_set(400, Fraction(0), table_4_4)
        wide = scan_exceptional_set(400, Fraction(3341, 6586368), table_4_4)
        assert set(wide.members) <= set(base.members)


class TestExceptionalScan:
    def test_members_are_a_read_only_int64_array(self, table_4_4):
        members = scan_exceptional_set(2_000, Fraction(0), table_4_4).members
        assert members.dtype == np.int64 and members.size > 0
        with pytest.raises(ValueError):
            members[0] = 0

    def test_one_is_never_exceptional(self, table_4_4):
        assert scan_exceptional_set(1, Fraction(0), table_4_4).members.size == 0

    def test_two_is_not_exceptional(self, table_4_4):
        # threshold above 1 pulls n = 1 into the window and r(1) = 4 > 0
        assert scan_exceptional_set(2, Fraction(0), table_4_4).members.size == 0

    def test_full_scan_cardinality_sane(self, table_4_4):
        scan = scan_exceptional_set(10_000, Fraction(0), table_4_4)
        assert 0 < len(scan.members) < 10_000
        assert scan.density == Fraction(len(scan.members), 10_000)

    @pytest.mark.parametrize("epsilon", [Fraction(0), Fraction(1, 100)])
    def test_matches_bruteforce(self, table_4_4, epsilon):
        scan = scan_exceptional_set(300, epsilon, table_4_4)
        expected = exceptional_members_bruteforce(
            300, Fraction(4059, 16384) + epsilon, table_4_4.counts.tolist()
        )
        assert list(scan.members) == expected

    def test_rejects_exponent_at_least_one(self, table_4_4):
        with pytest.raises(ValueError):
            scan_exceptional_set(10, 1 - Fraction(4059, 16384), table_4_4)

    def test_rejects_wrong_exponent_or_table(self, table_4_4, table_3_3):
        with pytest.raises(ValueError):
            scan_exceptional_set(10, Fraction(0), table_3_3)


def text_of(pieces) -> str:
    """The pieces of a CSV or a report joined as text: a str as it is, a
    block of ASCII bytes from render_rows decoded."""
    return "".join(p if isinstance(p, str) else bytes(p).decode("ascii") for p in pieces)


@contextlib.contextmanager
def blocks_of(rows: int):
    """A context in which render_rows renders rows rows at once, whatever
    their bytes, so that row counts around rows meet a block edge."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(repcount, "_block_rows", lambda columns, fixed: rows)
        yield


# The rows of a block in the tests of rows around a block edge.
BLOCK_ROWS = 1 << 12


class TestSerialization:
    def test_binary_round_trip(self, tmp_path):
        table = sieve_rep(WaringParams(3, 2), 500)
        path = tmp_path / "t.bin"
        write_table_binary(table, path)
        back = read_table_binary(path)
        assert back.params == table.params
        assert back.limit == table.limit
        assert np.array_equal(back.counts, table.counts)

    def test_binary_header_layout(self, tmp_path):
        table = sieve_rep(WaringParams(4, 4), 100)
        path = tmp_path / "t.bin"
        write_table_binary(table, path)
        raw = path.read_bytes()
        assert raw[:4] == b"WRT1"
        ell, s, limit, width = struct.unpack("<QQQQ", raw[4:36])
        assert (ell, s, limit) == (4, 4, 100)
        assert width in (1, 2, 4, 8)
        assert len(raw) == 36 + 101 * width

    def test_binary_width_is_minimal(self, tmp_path):
        # worst-case count 8 * 21 = 168 fits one byte; 8 * 41 needs two
        for limit, width in [(20, 1), (40, 2)]:
            path = tmp_path / f"w{width}.bin"
            write_table_binary(sieve_rep(WaringParams(3, 1), limit), path)
            assert struct.unpack("<Q", path.read_bytes()[28:36])[0] == width

    def test_binary_rejects_bad_magic(self, tmp_path):
        path = tmp_path / "bad.bin"
        path.write_bytes(b"NOPE" + b"\x00" * 40)
        with pytest.raises(TableFormatError):
            read_table_binary(path)

    def test_binary_rejects_truncated_payload(self, tmp_path):
        table = sieve_rep(WaringParams(3, 2), 50)
        path = tmp_path / "t.bin"
        write_table_binary(table, path)
        path.write_bytes(path.read_bytes()[:-3])
        with pytest.raises(TableFormatError):
            read_table_binary(path)

    def test_csv_round_trip(self, tmp_path):
        table = sieve_rep(WaringParams(3, 3), 60)
        path = tmp_path / "t.csv"
        write_table_csv(table, path)
        lines = path.read_bytes().split(b"\r\n")
        assert lines[0] == b"n,count"
        assert lines[1:] == [f"{n},{c}".encode() for n, c in enumerate(table.counts)] + [b""]
        back = read_table_csv(path, WaringParams(3, 3))
        assert np.array_equal(back.counts, table.counts)

    @pytest.mark.parametrize("rows", [0, 1, BLOCK_ROWS - 1, BLOCK_ROWS, 2 * BLOCK_ROWS + 3])
    @pytest.mark.parametrize("newline", ["\n", "\r\n"], ids=["lf", "crlf"])
    def test_csv_pieces_match_csv_module(self, rows, newline):
        rng = np.random.default_rng(rows)
        columns = [
            np.arange(rows),
            rng.integers(-(2**63), 2**63 - 1, rows, dtype=np.int64, endpoint=True),
            np.array([10**30 * k for k in range(rows)], dtype=object),
        ]
        expected = io.StringIO()
        writer = csv.writer(expected, lineterminator=newline)
        writer.writerow(["n", "count", "big"])
        writer.writerows(zip(*(column.tolist() for column in columns)))
        with blocks_of(BLOCK_ROWS):
            assert text_of(csv_pieces("n,count,big", columns, newline)) == expected.getvalue()

    @pytest.mark.parametrize("piece", ["0,1\n" * 4096, b"\x00\x01" * 8192], ids=["str", "bytes"])
    def test_failed_pieces_leave_earlier_file(self, tmp_path, piece):
        path = tmp_path / "t.out"
        path.write_bytes(b"earlier")

        def pieces():
            yield piece  # larger than the write buffer, so it reaches the sibling file
            raise RuntimeError("halfway")

        with pytest.raises(RuntimeError, match="halfway"):
            write_output(path, pieces())
        assert list(tmp_path.iterdir()) == [path]
        assert path.read_bytes() == b"earlier"


SHORT_COUNTS = st.integers(0, 40) | st.integers(0, 10**18 - 1)
COUNTS = SHORT_COUNTS | st.integers(2**63 - 2, 2**63 + 2) | st.integers(0, 10**20)
# Substitutes for one byte of a table CSV, one class after another.
BYTES = (
    st.sampled_from(b"0123456789")
    | st.sampled_from(b",\r\n")
    | st.sampled_from(b'-+_ ."\t\x00')
    | st.integers(0x80, 0xFF)
    | st.integers(0, 0x7F)
)


# The longest canonical table-CSV line: two 18-digit fields, a comma and CRLF.
LONGEST_LINE = 2 * _MAX_DIGITS + 3


def csv_outcome(counts_of, data: bytes):
    """The counts a reader takes from data, or the message of its TableFormatError."""
    try:
        counts = counts_of(data)
        table = RepTable(params=WaringParams(4, 4), limit=counts.size - 1, counts=counts)
        return table.counts.tolist()
    except TableFormatError as exc:
        return str(exc)


@st.composite
def canonical_rows(draw, counts=COUNTS) -> list[list[str]]:
    """The n and count fields of a table CSV; the counts may break the table's rules."""
    first = draw(st.sampled_from([1, 1, 1, 0, 2]))
    counts = [first, *draw(st.lists(counts, max_size=30))]
    return [[str(n), str(c)] for n, c in enumerate(counts)]


@st.composite
def table_csvs(draw) -> bytes:
    """Table CSVs near the canonical form: at most one of leading zeros (up
    to 19 and 20 digits), LF-only or mixed line ends, rows out of order or a
    blank line, then at most one of a substituted or deleted byte,
    truncation or a missing final line end."""
    rows = draw(canonical_rows())
    lines = ["n,count"] + [",".join(row) for row in rows]
    ends = ["\r\n"] * len(lines)
    variants = ["canonical", "canonical", "zeros", "line ends", "order", "blank"]
    variant = draw(st.sampled_from(variants))
    if variant == "zeros":
        row = rows[draw(st.integers(0, len(rows) - 1))]
        field = draw(st.integers(0, 1))
        row[field] = row[field].zfill(draw(st.sampled_from([2, 17, 18, 19, 20])))
        lines[1:] = [",".join(row) for row in rows]
    elif variant == "line ends":
        ends = [draw(st.sampled_from(["\r\n", "\n"])) for _ in lines]
    elif variant == "order" and len(rows) > 1:
        i, j = draw(st.lists(st.integers(1, len(rows)), min_size=2, max_size=2, unique=True))
        lines[i], lines[j] = lines[j], lines[i]
    elif variant == "blank":
        lines.insert(draw(st.integers(1, len(lines))), "")
        ends.append(draw(st.sampled_from(["\r\n", "\n"])))
    data = "".join(map(str.__add__, lines, ends)).encode()
    edit = draw(st.sampled_from(["none", "substitute", "delete", "truncate", "unterminated"]))
    at = draw(st.integers(0, len(data) - 1))
    if edit == "substitute":
        data = data[:at] + bytes([draw(BYTES)]) + data[at + 1 :]
    elif edit == "delete":
        data = data[:at] + data[at + 1 :]
    elif edit == "truncate":
        data = data[:at]
    elif edit == "unterminated":
        data = data[: -draw(st.sampled_from([1, 2]))]
    return data


# Edge cases for every reader-agreement test: fields of 18 to 19 digits,
# values past int64, empty or misplaced fields and stray line ends.
CSV_EXAMPLES = [
    b"n,count\r\n0,1\r\n1,0000000000000000003\r\n",
    b"n,count\r\n0,1\r\n1,9223372036854775808\r\n",
    b"n,count\r\n0,1\r\n1,9999999999999999999\r\n",
    b"n,count\r\n,1\r\n1,3\r\n",
    b"n,count\r\n0,1\r\n1,\r\n",
    b"n,count\r\n0,1\r\n1,a\r\n",
    b"n,count\r\n0\r1\r\n",
    b"n,count\r\n0,1\n\r",
    b"n,count\r\n0,1\r\n01,000000000000000003\r\n",
    b"n,count\r\n0,1\r\n1,999999999999999999\r\n",
    b"n,count\r\n0,1\r\n1,3\r2\n",
    b"n,count\r\n0,1\r\n1,3\r\n5",
    b"n,count\r\n0,1\r\n\r\n1,3\r\n",
    b"n,count\r\n1,1\r\n0,3\r\n",
    b"n,count\r\n0,1\r\n,3\r\n",
    b"n,count\r\n",
]


def csv_examples(test):
    """Run test on every CSV_EXAMPLES case as well."""
    for data in CSV_EXAMPLES:
        test = example(data=data)(test)
    return test


def assert_readers_agree(data: bytes, tmp_path_factory) -> None:
    """The columnar reader, where it reads data, and read_table_csv give the
    row reader's counts or message."""
    rows = csv_outcome(_csv_rows, data)
    fast = _csv_columns(data)
    if fast is not None:
        assert csv_outcome(lambda _: fast, data) == rows
    path = tmp_path_factory.mktemp("csv") / "t.csv"
    path.write_bytes(data)
    assert csv_outcome(lambda _: read_table_csv(path, WaringParams(4, 4)).counts, data) == rows


# Columns as the decimal codec meets them: every int dtype, bool, and object
# columns of Python ints beyond int64, at the row counts around a block of
# BLOCK_ROWS rows.
INT_DTYPES = ["i1", "i2", "i4", "i8", "u1", "u2", "u4", "u8"]
CODEC_ROWS = [0, 1, BLOCK_ROWS - 1, BLOCK_ROWS, 2 * BLOCK_ROWS + 3]
SEPARATORS = st.text(st.sampled_from(string.printable), max_size=4)


@st.composite
def block_columns(draw, rows: int) -> np.ndarray:
    """A column that takes each path of the codec within a block: any codec
    column; ints of one even digit count, so that every slot is full; a run
    of consecutive ints across a power of ten, up or down; or a bool column
    all true or all false."""
    shape = draw(st.sampled_from(["any", "full", "decade", "constant-bool"]))
    if shape == "any":
        return draw(codec_columns(rows))
    if shape == "constant-bool":
        return np.full(rows, draw(st.booleans()))
    dtype = draw(st.sampled_from(INT_DTYPES))
    info = np.iinfo(dtype)
    top = len(str(info.max))
    if shape == "full":
        digits = draw(st.sampled_from(range(2, top, 2)))
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        return rng.integers(10 ** (digits - 1), 10**digits - 1, rows, dtype=dtype, endpoint=True)
    power = 10 ** draw(st.integers(1, top - 1))
    start = min(max(power - draw(st.integers(0, rows)), 0), int(info.max) - rows + 1)
    column = np.arange(start, start + rows, dtype=object)
    if info.min < 0 and draw(st.booleans()):
        column = -column
    return column.astype(dtype)


@st.composite
def codec_columns(draw, rows: int, kinds=(*INT_DTYPES, "?", "O")) -> np.ndarray:
    """A column of rows entries: random values below a random number of bits,
    each cut by a further random shift, and in some columns the dtype's
    extremes planted at random rows."""
    kind = draw(st.sampled_from(kinds))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "?":
        return rng.integers(0, 1, rows, endpoint=True).astype(bool)
    if kind == "O":
        bits = draw(st.integers(65, 256))
        extremes = [2**bits, -(2**bits), 2**64, -(2**64) - 1, 0]
        values = [(int(v) << (bits - 62)) >> int(shift) for v, shift in
                  zip(rng.integers(-(2**62), 2**62, rows), rng.integers(0, bits, rows))]
    else:
        info = np.iinfo(kind)
        extremes = [info.min, info.max, 0, 9, 10, 99, 100]
        values = rng.integers(info.min, info.max, rows, dtype=kind, endpoint=True)
        bits = draw(st.integers(1, info.bits))
        values = values >> rng.integers(info.bits - bits, info.bits, rows).astype(kind)
    column = np.array(values, dtype=object if kind == "O" else kind)
    if draw(st.booleans()):
        at = rng.permutation(rows)[: len(extremes)]
        column[at] = extremes[: at.size]
    return column


class TestCsvCodec:
    """The decimal codec: the columnar table-CSV reader against the row
    reader, and the renderer on every int dtype against the csv module and
    a str() join."""

    @settings(max_examples=600, deadline=None)
    @given(data=table_csvs())
    @csv_examples
    def test_columnar_reader_agrees_with_row_reader(self, data, tmp_path_factory):
        assert_readers_agree(data, tmp_path_factory)

    @settings(max_examples=600, deadline=None)
    @given(data=table_csvs())
    @csv_examples
    def test_columnar_reader_agrees_across_block_edges(self, data, tmp_path_factory):
        # blocks of one longest canonical line put most lines of a case
        # next to a block edge
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(repcount, "_CSV_BLOCK", LONGEST_LINE)
            assert_readers_agree(data, tmp_path_factory)

    @settings(max_examples=300, deadline=None)
    @given(data=table_csvs(), block=st.integers(LONGEST_LINE, 2 * LONGEST_LINE))
    def test_block_size_changes_no_decision(self, data, block):
        whole = _csv_columns(data)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(repcount, "_CSV_BLOCK", block)
            blocked = _csv_columns(data)
        assert (blocked is None) == (whole is None)
        assert whole is None or np.array_equal(blocked, whole)

    def test_columnar_reader_memory_is_bounded(self, tmp_path):
        table = sieve_rep(WaringParams(4, 4), 200_000)
        path = tmp_path / "t.csv"
        write_table_csv(table, path)
        data = path.read_bytes()
        tracemalloc.start()
        try:
            counts = _csv_columns(data)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert np.array_equal(counts, table.counts)
        assert peak < 2 * counts.nbytes

    @settings(max_examples=100, deadline=None)
    @given(rows=canonical_rows(SHORT_COUNTS), zeros=st.integers(0, 17))
    def test_canonical_tables_are_read_by_columns(self, rows, zeros):
        rows[-1] = [field.zfill(min(len(field) + zeros, 18)) for field in rows[-1]]
        data = ("n,count\r\n" + "".join(f"{n},{c}\r\n" for n, c in rows)).encode()
        fast = _csv_columns(data)
        assert fast is not None
        assert fast.tolist() == [int(c) for _, c in rows]
        assert csv_outcome(lambda _: fast, data) == csv_outcome(_csv_rows, data)

    @pytest.mark.parametrize("dtype", ["i1", "i2", "i4", "u1", "u2", "u4", "u8"])
    def test_csv_pieces_of_every_int_dtype_match_csv_module(self, dtype):
        info = np.iinfo(dtype)
        column = np.array([info.min, info.max, 0, 1, 9, 10, 99, 100] * 3, dtype=dtype)
        expected = io.StringIO()
        csv.writer(expected, lineterminator="\n").writerows([["x"], *zip(column.tolist())])
        assert text_of(csv_pieces("x", [column])) == expected.getvalue()

    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), rows=st.sampled_from(CODEC_ROWS))
    def test_rendering_matches_str_join(self, data, rows):
        columns = data.draw(st.lists(codec_columns(rows), min_size=1, max_size=3))
        seps = data.draw(st.lists(SEPARATORS, min_size=len(columns) + 1,
                                  max_size=len(columns) + 1))
        newline = data.draw(st.sampled_from(["\n", "\r\n"]))
        expected = "x" + newline + render_rows_joined(
            columns, ["", *[","] * (len(columns) - 1), newline])
        with blocks_of(BLOCK_ROWS):
            assert text_of(repcount.render_rows(columns, seps)) == render_rows_joined(columns, seps)
            assert text_of(csv_pieces("x", columns, newline)) == expected

    @settings(max_examples=300, deadline=None)
    @given(data=st.data(), rows=st.integers(1, 24))
    def test_blocks_under_any_byte_limit_match_str_join(self, data, rows):
        # limits from below one row to four of the longest row: blocks of
        # one row and of a few, split at every row of the columns
        columns = data.draw(st.lists(block_columns(rows), min_size=1, max_size=3))
        seps = data.draw(st.lists(SEPARATORS, min_size=len(columns) + 1,
                                  max_size=len(columns) + 1))
        lines = [render_rows_joined([c[i : i + 1] for c in columns], seps) for i in range(rows)]
        longest = max(map(len, lines))
        limit = data.draw(st.integers(1, 4 * longest))
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(repcount, "_BLOCK_BYTES", limit)
            blocks = [bytes(block).decode("ascii") for block in repcount.render_rows(columns, seps)]
        assert "".join(blocks) == "".join(lines)
        # Each block is whole rows, at most four of them, and one at a limit
        # of a row or less.
        assert set(itertools.accumulate(map(len, blocks))) <= set(itertools.accumulate(map(len, lines)))
        assert len(blocks) >= -(-rows // 4)
        assert limit > longest or len(blocks) == rows

    @pytest.mark.parametrize("rows_per_block", [1, 2, 3, 5])
    def test_blocks_across_a_million(self, rows_per_block):
        # blocks on either side of 999,999 -> 1,000,000 differ in width, and
        # blocks of six digits only are full
        up = np.arange(999_990, 1_000_010)
        columns = [up, -up[::-1], up.astype(np.uint32), up % 2 == 0]
        seps = ["", ",", ";", " ", "\n"]
        with blocks_of(rows_per_block):
            for start in range(rows_per_block):
                part = [column[start:] for column in columns]
                assert text_of(repcount.render_rows(part, seps)) == render_rows_joined(part, seps)

    @pytest.mark.parametrize(
        "columns,full",
        [
            ([np.array([10, 99, 42]), np.array([123456, 999999, 100000], dtype=np.uint32)], True),
            ([np.array([10, 99, 42]), np.full(3, True), np.full(3, False)], True),
            ([np.array([10, 99, 42], dtype=np.uint8), np.array([True, False, True])], False),
            ([np.array([10, 99, 42]), np.array([-10, 99, 42])], False),
            ([np.array([10, 99, 42]), np.array([123, 999, 100])], False),
            ([np.array([10, 99, 42]), np.array([1000, 999, 1234])], False),
            ([np.array([10, 99, 42]), np.array([10**20] * 3, dtype=object)], False),
        ],
        ids=["even-digits", "constant-bools", "mixed-bools", "negative", "odd-digits",
             "mixed-digits", "object"],
    )
    def test_full_blocks_skip_the_compress(self, columns, full):
        # a block whose every slot is full is its matrix, a view; any other
        # is the compress's copy
        seps = ["[", *[","] * (len(columns) - 1), "]"]
        (block,) = repcount.render_rows(columns, seps)
        assert bytes(block).decode("ascii") == render_rows_joined(columns, seps)
        assert block.flags.owndata != full

    @pytest.mark.parametrize(
        "columns",
        [
            [np.full(3 * (1 << 17) + 1, 5, dtype=np.uint8)],
            [np.full(20_000, -(2**63)), np.full(20_000, False), np.full(20_000, 10**30, dtype=object)],
        ],
        ids=["narrow", "wide"],
    )
    def test_blocks_fill_the_byte_limit(self, columns):
        # Every row is as long as the longest, so each block but the last
        # holds as many rows as fit in _BLOCK_BYTES.
        seps = ["", *[","] * (len(columns) - 1), "\n"]
        row = len(render_rows_joined([column[:1] for column in columns], seps))
        blocks = [block.size for block in repcount.render_rows(columns, seps)]
        assert blocks[:-1] == [repcount._BLOCK_BYTES // row * row] * (len(blocks) - 1)
        assert sum(blocks) == row * columns[0].size and len(blocks) >= 3

    @pytest.mark.parametrize("seps,bad", [(["\0", ""], "\0"), (["", ",\0"], ",\0"),
                                          (["[", "\0]"], "\0]")])
    def test_separator_with_nul_rejected(self, seps, bad):
        # the compress would drop it as padding
        with pytest.raises(ValueError, match=re.escape(f"separator {bad!r} holds a NUL byte")):
            next(repcount.render_rows([np.arange(3)], seps))

    def test_written_tables_are_read_by_columns(self, tmp_path, table_4_4):
        path = tmp_path / "t.csv"
        write_table_csv(table_4_4, path)
        assert np.array_equal(_csv_columns(path.read_bytes()), table_4_4.counts)


class TestCountDtype:
    """Every table holds its counts at the width of the binary format."""

    @pytest.mark.parametrize(
        "ell,limit,dtype",
        [
            (3, 30, np.uint8), (3, 31, np.uint16),
            (4, 14, np.uint8), (4, 15, np.uint16), (4, 4094, np.uint16), (4, 4095, np.uint32),
            (4, 2**28 - 2, np.uint32), (4, 2**28 - 1, np.int64),
            (3, 2**60 - 2, np.int64), (4, 2**59 - 2, np.int64),
        ],
    )
    def test_rule_at_width_boundaries(self, ell, limit, dtype):
        assert count_dtype(ell, limit) == np.dtype(dtype)

    @pytest.mark.parametrize("ell,limit", [(3, 2**60 - 1), (4, 2**59 - 1)])
    def test_no_width_past_int64(self, ell, limit):
        # the ceiling 2^ell * (limit + 1) is 2^63 here, one past int64
        with pytest.raises(CounterWidthError, match=f"at limit {limit}"):
            count_dtype(ell, limit)

    @pytest.mark.parametrize("limit", [14, 15, 16, 4094, 4095, 4096])
    @pytest.mark.parametrize("s", [1, 4])
    def test_every_reader_follows_the_rule(self, tmp_path, s, limit):
        params = WaringParams(4, s)
        table = sieve_rep(params, limit)
        write_table_binary(table, tmp_path / "t.bin")
        write_table_csv(table, tmp_path / "t.csv")
        tables = [
            table, read_table_binary(tmp_path / "t.bin"), read_table_csv(tmp_path / "t.csv", params)
        ]
        for read in tables:
            assert read.counts.dtype == count_dtype(4, limit)
            assert not read.counts.flags.writeable
            assert np.array_equal(read.counts, rep_counts_convolution(4, s, limit))

    @settings(max_examples=300, deadline=None)
    @given(
        ell=st.sampled_from([3, 4]),
        counts=st.lists(st.integers(0, 2**12), min_size=1, max_size=40),
        window=st.sampled_from([1, 2, 3, _WINDOW]),
    )
    @example(ell=4, counts=[1, 33], window=_WINDOW)  # the largest count, one over its bound
    @example(ell=3, counts=[1, 0, 25, 24], window=_WINDOW)
    def test_first_count_over_its_bound_is_named(self, ell, counts, window):
        counts[0] = 1
        over = [n for n, c in enumerate(counts) if c > (1 << ell) * (n + 1)]
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(repcount, "_WINDOW", window)
            if over:
                with pytest.raises(TableFormatError, match=f"^count at {over[0]} exceeds"):
                    RepTable(WaringParams(ell, 1), len(counts) - 1, np.array(counts))
            else:
                table = RepTable(WaringParams(ell, 1), len(counts) - 1, np.array(counts))
                assert table.counts.tolist() == counts

    def test_wider_counts_are_narrowed_after_the_checks(self):
        counts = np.zeros(15, dtype=np.int64)
        counts[0], counts[1] = 1, 256  # 0 once narrowed to uint8
        with pytest.raises(TableFormatError, match="count at 1 exceeds the loose bound"):
            RepTable(params=WaringParams(4, 4), limit=14, counts=counts)
        counts[1] = 32
        table = RepTable(params=WaringParams(4, 4), limit=14, counts=counts)
        assert table.counts.dtype == np.uint8 and table.counts.tolist() == counts.tolist()


def binary_file(ell: int, s: int, limit: int, width: int, counts, extra: int = 0) -> bytes:
    """A binary table file declaring ell, s, limit and width, whose payload
    holds counts (each taken mod 2^(8 * width)) at that width, cut short by
    -extra bytes or padded by extra zero bytes."""
    payload = np.asarray(counts, dtype=np.uint64).astype(f"<u{width}").tobytes()
    payload = payload[: len(payload) + extra] if extra < 0 else payload + bytes(extra)
    return b"WRT1" + struct.pack("<QQQQ", ell, s, limit, width) + payload


@st.composite
def binary_files(draw) -> bytes:
    """Binary table files: limits at the width boundaries of ell = 4 or
    small, every declared width, sieved or random counts with a few edits
    to values that wrap when narrowed, and at times a short or long payload
    or an unsupported ell or s."""
    ell = draw(st.sampled_from([3, 4, 4, 5]))
    s = draw(st.integers(1, 4))
    limit = draw(st.sampled_from([14, 15, 16, 4094, 4095, 4096]) | st.integers(0, 40))
    width = draw(st.sampled_from([1, 2, 4, 8]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["sieved", "small", "any"]))
    if kind == "sieved" and ell in (3, 4) and s <= ell:
        counts = sieve_rep(WaringParams(ell, s), limit).counts.astype(np.uint64)
    elif kind == "any":
        counts = rng.integers(0, 2**64 - 1, limit + 1, dtype=np.uint64, endpoint=True)
    else:
        counts = rng.integers(0, 4, limit + 1).astype(np.uint64)
        counts[0] = 1
    wrapping = st.sampled_from([2**8, 2**8 + 1, 2**16, 2**32 + 1, 2**63, 2**64 - 1])
    for _ in range(draw(st.integers(0, 2))):
        counts[draw(st.integers(0, limit))] = draw(wrapping | st.integers(0, 300))
    extra = draw(st.sampled_from([0, 0, 0, -1, -width, 1, width]))
    return binary_file(ell, s, limit, width, counts, extra)


def binary_outcome(read, path):
    """The params, limit and counts a reader takes from path, or the type
    and message of what it raises."""
    try:
        table = read(path)
        return table.params, table.limit, table.counts.tolist()
    except ValueError as exc:
        return type(exc), str(exc)


class TestBinaryReader:
    """read_table_binary against the reader that widens the whole payload."""

    @settings(max_examples=400, deadline=None)
    @given(data=binary_files())
    @example(data=binary_file(4, 4, 14, 2, [1, 256] + [0] * 13))  # 0 once narrowed
    @example(data=binary_file(4, 4, 14, 4, [1, 2**32 - 1] + [0] * 13))
    @example(data=binary_file(4, 4, 15, 8, [1, 2**63] + [0] * 14))  # negative as int64
    @example(data=binary_file(4, 4, 15, 8, [2**64 - 1] + [0] * 15))
    @example(data=binary_file(4, 4, 4096, 1, [1] + [2] * 4096))  # narrower than the table's
    @example(data=binary_file(4, 4, 4094, 2, [1] * 4095, extra=-1))
    @example(data=binary_file(4, 4, 4095, 4, [1] * 4096, extra=4))
    @example(data=binary_file(3, 4, 20, 1, [1] * 21))
    @example(data=b"WRT1" + bytes(31))
    def test_agrees_with_whole_payload_reader(self, data, tmp_path_factory):
        path = tmp_path_factory.mktemp("bin") / "t.bin"
        path.write_bytes(data)
        expected = binary_outcome(read_table_binary_whole, path)
        assert binary_outcome(read_table_binary, path) == expected
        if isinstance(expected[0], WaringParams):
            params, limit, _ = expected
            assert read_table_binary(path).counts.dtype == count_dtype(params.ell, limit)

    def test_pipe_is_read_whole(self, tmp_path):
        path = tmp_path / "t.bin"
        table = sieve_rep(WaringParams(4, 4), 4095)
        write_table_binary(table, path)
        read_end, write_end = os.pipe()

        def feed():
            with os.fdopen(write_end, "wb") as fh:
                fh.write(path.read_bytes())

        feeder = threading.Thread(target=feed, daemon=True)
        feeder.start()
        try:
            back = read_table_binary(f"/dev/fd/{read_end}")
        finally:
            feeder.join()
            os.close(read_end)
        assert np.array_equal(back.counts, table.counts)

    def test_round_trip_memory_is_bounded(self, tmp_path):
        # 2^22 counts of four fourth powers, held and stored in 4 bytes each
        table = sieve_rep(WaringParams(4, 4), (1 << 22) - 1)
        path = tmp_path / "t.bin"
        payload = table.counts.nbytes
        tracemalloc.start()
        try:
            write_table_binary(table, path)
            _, write_peak = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            back = read_table_binary(path)
            _, read_peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert path.stat().st_size == 36 + payload == 36 + 4 * (1 << 22)
        assert np.array_equal(back.counts, table.counts)
        assert write_peak < 1.25 * payload
        assert read_peak < 1.25 * payload


@st.composite
def sparse_tables(draw, limits) -> RepTable:
    """(4,4) tables whose counts are nonzero at a drawn density, from none
    past 0 to all, so scans find many members, few or none."""
    limit = draw(limits)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    density = draw(st.sampled_from([0.0, 0.001, 0.01, 0.05, 0.3, 1.0]))
    counts = np.where(rng.random(limit + 1) < density, rng.integers(1, 16, limit + 1), 0)
    counts[0] = 1
    return RepTable(params=WaringParams(4, 4), limit=limit, counts=counts)


# Exponents 4059/16384 + epsilon with a few window-width breakpoints below 2^17.
EPSILONS = st.integers(0, 600).map(lambda k: Fraction(k, 16384))
# Every exponent 4059/16384 + epsilon below 1 on the same grid, up to 16383/16384.
WIDE_EPSILONS = st.integers(0, 12324).map(lambda k: Fraction(k, 16384))


def table_4_4_of(counts) -> RepTable:
    return RepTable(params=WaringParams(4, 4), limit=len(counts) - 1,
                    counts=np.asarray(counts, dtype=np.int64))


class TestExceptionalRuns:
    """scan_exceptional_set's runs and members against the whole-array scan
    and the one-point-at-a-time scan."""

    @staticmethod
    def check_runs(limit, epsilon, table):
        """The runs and the members, checked against the whole-array scan;
        returns the members."""
        scan = scan_exceptional_set(limit, epsilon, table)
        expected = exceptional_scan_whole_array(limit, scan.exponent, table.counts)
        assert scan.members.dtype == np.int64 and not scan.members.flags.writeable
        assert np.array_equal(scan.members, expected)
        assert scan.density == Fraction(scan.cardinality, limit) == Fraction(expected.size, limit)
        starts, stops = scan.starts, scan.stops
        assert starts.dtype == stops.dtype == np.int64
        assert not (starts.flags.writeable or stops.flags.writeable)
        assert (starts < stops).all() and (stops[:-1] < starts[1:]).all()
        assert starts.size == 0 or (1 <= starts[0] and stops[-1] <= limit + 1)
        # each run ends where a nonzero count or the limit cuts it
        assert all(table.counts[z] != 0 for z in stops.tolist() if z <= limit)
        joined = [a for lo, hi in zip(starts.tolist(), stops.tolist()) for a in range(lo, hi)]
        assert joined == expected.tolist()
        return scan.members

    @pytest.mark.parametrize(
        "epsilon", [Fraction(3081, 4096), Fraction(3, 4), Fraction(1, 2)], ids=str
    )
    def test_walk_stops_at_the_largest_run_start(self, epsilon, monkeypatch):
        # the one nonzero count is r(0) = 1, so the one zero run starts at t = 1,
        # and b_1 - 1 = 1 already reaches it: no later breakpoint can count
        table = table_4_4_of([1, *[0] * 100_000])
        calls = []

        def counted(*args):
            calls.append(args)
            return floor_pow(*args)

        monkeypatch.setattr(repcount, "floor_pow", counted)
        scan = scan_exceptional_set(100_000, epsilon, table)
        assert len(calls) <= 1
        assert (scan.starts.tolist(), scan.stops.tolist()) == ([1], [100_001])
        self.check_runs(100_000, epsilon, table)

    @settings(max_examples=300, deadline=None)
    @given(
        table=sparse_tables(st.integers(1, 80)),
        epsilon=EPSILONS | WIDE_EPSILONS | st.sampled_from([Fraction(1, 2), Fraction(1, 3)]),
        short=st.integers(0, 80),
    )
    @example(table=table_4_4_of([1, *[0] * 80]), epsilon=Fraction(12324, 16384), short=0)
    # the longest zero run comes last, and every window reaching into it covers a nonzero
    @example(table=table_4_4_of([1] * 40 + [0] * 10 + [1]), epsilon=Fraction(1, 2), short=0)
    @example(table=table_4_4_of([1] * 40 + [0] * 10 + [1]), epsilon=Fraction(12324, 16384), short=0)
    @example(table=table_4_4_of([1, *[0] * 40, 3]), epsilon=Fraction(0), short=0)  # count at limit
    @example(table=table_4_4_of([1, *[0] * 40]), epsilon=Fraction(0), short=0)  # ends at limit + 1
    @example(table=table_4_4_of([1, *[0] * 20, 7, 0, 0, 0]), epsilon=Fraction(1, 3), short=3)
    @example(table=table_4_4_of([1, 0]), epsilon=Fraction(0), short=0)  # limit 1, a member
    @example(table=table_4_4_of([1, 4]), epsilon=Fraction(0), short=0)  # limit 1, none
    @example(table=table_4_4_of([1, 0, 0]), epsilon=Fraction(1, 2), short=0)  # limit 2
    @example(table=table_4_4_of([1, 0, 2]), epsilon=Fraction(0), short=0)
    @example(table=table_4_4_of([1, *[0] * 80]), epsilon=Fraction(0), short=0)  # density 0
    @example(table=table_4_4_of([1] * 81), epsilon=Fraction(1, 2), short=0)  # density 1
    def test_match_both_oracles(self, table, epsilon, short):
        limit = max(1, table.limit - short)
        members = self.check_runs(limit, epsilon, table)
        expected = exceptional_members_bruteforce(
            limit, Fraction(4059, 16384) + epsilon, table.counts.tolist()
        )
        assert members.tolist() == expected

    @settings(max_examples=25, deadline=None)
    @given(
        table=sparse_tables(st.integers(1_000, 100_000)),
        epsilon=EPSILONS | WIDE_EPSILONS,
        short=st.sampled_from([0, 0, 1, 2, 500]),
    )
    def test_match_the_whole_array_scan_on_long_tables(self, table, epsilon, short):
        self.check_runs(table.limit - short, epsilon, table)

    def test_sieved_table(self, table_4_4):
        members = self.check_runs(10_000, Fraction(0), table_4_4)
        assert members.size > 0

    def test_arguments_checked(self, table_4_4, table_3_3):
        for args in [(10, Fraction(0), table_3_3), (0, Fraction(0), table_4_4),
                     (10, Fraction(-1), table_4_4), (10_001, Fraction(0), table_4_4)]:
            with pytest.raises(ValueError):
                scan_exceptional_set(*args)

    @pytest.mark.parametrize("epsilon", [Fraction(0), Fraction(1, 4), Fraction(3, 4)])
    def test_breakpoint_walk_stops_at_the_longest_zero_run(self, table_4_4, epsilon, monkeypatch):
        # about limit^e breakpoints lie below limit, but only the first L, L the
        # longest zero run, can start a run; a table with no zero run forms none.
        # test_match_both_oracles checks the members at every epsilon.
        calls = []

        def counted(base, exponent):
            calls.append(base)
            return floor_pow(base, exponent)

        monkeypatch.setattr(repcount, "floor_pow", counted)
        for table in [table_4_4, table_4_4_of([1] * 2_001)]:
            calls.clear()
            scan_exceptional_set(2_000, epsilon, table)
            zeros = itertools.groupby(table.counts[:2_001] == 0)
            assert len(calls) <= max((len(list(run)) for zero, run in zeros if zero), default=0)


class TestNonzeroIndex:
    @pytest.mark.parametrize("dtype", [np.uint8, np.uint16, np.uint32, np.int64])
    @pytest.mark.parametrize("size", [_WINDOW - 1, _WINDOW, _WINDOW + 1])
    def test_matches_flatnonzero(self, dtype, size, monkeypatch):
        # the table holds its counts as dtype, whatever its limit asks for
        monkeypatch.setattr(repcount, "count_dtype", lambda ell, limit: np.dtype(dtype))
        # counts as large as the dtype and the loose bound 16 (n + 1) allow
        largest = np.minimum(np.iinfo(dtype).max, 16 * np.arange(1, size + 1, dtype=np.int64))
        counts = np.where(np.random.default_rng(size).random(size) < 0.01, largest, 0)
        counts[[0, _WINDOW - 2, -1]] = [1, largest[_WINDOW - 2], largest[-1]]
        table = RepTable(params=WaringParams(4, 4), limit=size - 1, counts=counts)
        assert table.counts.dtype == dtype
        index = table.nonzero
        assert index.dtype == np.int64 and not index.flags.writeable
        assert np.array_equal(index, np.flatnonzero(counts))


ALL_PARAMS = [(ell, s) for ell in (3, 4) for s in range(1, ell + 1)]


class TestNextNonzero:
    """RepTable.next_nonzero against a scan one index at a time and against
    the series' majorant start, for every point in [-3, limit + 5]."""

    @settings(max_examples=200, deadline=None)
    @given(params=st.sampled_from(ALL_PARAMS), limit=st.integers(0, 300))
    def test_matches_bruteforce_and_majorant_start(self, params, limit):
        table = sieve_rep(WaringParams(*params), limit)
        counts = table.counts.tolist()
        f = HalfFunction.from_table(table)
        points = list(range(-3, limit + 6))
        expected = [next_nonzero_count_bruteforce(counts, p) for p in points]
        assert [f.tail_majorant_start(p) for p in points] == expected
        answers = [table.next_nonzero(p) for p in points]
        assert all(type(a) is int for a in answers) and answers == expected
        batch = table.next_nonzero(np.array(points))
        assert batch.dtype == np.int64 and batch.tolist() == expected

    @settings(max_examples=100, deadline=None)
    @given(table=sparse_tables(st.integers(0, 80)))
    def test_sparse_tables(self, table):
        points = np.arange(-3, table.limit + 6)
        expected = [next_nonzero_count_bruteforce(table.counts.tolist(), p) for p in points]
        assert table.next_nonzero(points).tolist() == expected

    def test_index_is_not_copied(self):
        table = sieve_rep(WaringParams(3, 3), 200_000)
        index = table.nonzero  # 181 KB
        tracemalloc.start()
        try:
            table.next_nonzero(np.arange(0, 1000, 7))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < index.nbytes // 4


# Every limit from 0 to 100, and each side of the first two _WINDOW edges.
SUMS_LIMITS = [*range(101), *(k * _WINDOW + d for k in (1, 2) for d in (-1, 0, 1))]


@functools.lru_cache(maxsize=None)
def lower_and_oracle(ell: int, limit: int) -> tuple[RepTable, np.ndarray]:
    """sieve_pair's (ell, ell - 1) table, and the convolution oracle's
    counts for it as uint8, which holds every one of them."""
    oracle = rep_counts_convolution(ell, ell - 1, limit)
    assert oracle.max() < 256
    return sieve_pair(ell, limit)[1], oracle.astype(np.uint8)


class TestSumsTable:
    """The (ell, ell - 1) table that sieve_pair builds from the sieve's
    sorted head, and RepTable._from_index's checks."""

    @pytest.mark.parametrize("ell", [3, 4])
    def test_index_and_counts_match_sieve_and_oracles(self, ell):
        for limit in SUMS_LIMITS:
            lower, oracle = lower_and_oracle(ell, limit)
            single = sieve_rep(WaringParams(ell, ell - 1), limit)
            assert (lower.params, lower.limit) == (single.params, limit)
            index = lower.nonzero
            assert index.dtype == np.int64 and not index.flags.writeable
            assert np.array_equal(index, single.nonzero), limit
            assert np.array_equal(index, np.flatnonzero(oracle)), limit
            if limit <= 100:
                expected = rep_counts_bruteforce(ell, ell - 1, limit)
                assert [lower.count(n) for n in range(limit + 1)] == expected
            # reading the index and counts never builds the dense counts
            assert "counts" not in vars(lower)

    @settings(max_examples=300, deadline=None)
    @given(
        ell=st.sampled_from([3, 4]),
        limit=st.sampled_from(SUMS_LIMITS),
        data=st.data(),
    )
    def test_count_and_next_nonzero_at_points(self, ell, limit, data):
        lower, oracle = lower_and_oracle(ell, limit)
        edges = [k * _WINDOW + d for k in (1, 2) for d in (-1, 0, 1)]
        point = st.one_of(
            st.integers(-3, limit + 8),
            st.sampled_from([limit, limit + 1, *edges]),
        )
        points = data.draw(st.lists(point, min_size=1, max_size=40))
        expected = [next_nonzero_count_bruteforce(oracle, p) for p in points]
        answers = [lower.next_nonzero(p) for p in points]
        assert all(type(a) is int for a in answers) and answers == expected
        assert lower.next_nonzero(np.array(points)).tolist() == expected
        for p in points:
            if 0 <= p <= limit:
                assert lower.count(p) == int(oracle[p])
            else:
                with pytest.raises(IndexError):
                    lower.count(p)

    @pytest.mark.parametrize("ell", [3, 4])
    @pytest.mark.parametrize("limit", [0, 100, _WINDOW + 1])
    def test_dense_counts_built_once_on_first_read(self, ell, limit):
        lower = sieve_pair(ell, limit)[1]
        single = sieve_rep(WaringParams(ell, ell - 1), limit)
        assert "counts" not in vars(lower)
        counts = lower.counts
        assert counts.dtype == single.counts.dtype == count_dtype(ell, limit)
        assert np.array_equal(counts, single.counts)
        assert not counts.flags.writeable
        assert lower.counts is counts

    @staticmethod
    def index_table(ell: int, limit: int, nonzero: list, multiplicities: list) -> RepTable:
        return RepTable._from_index(
            WaringParams(ell, 2),
            limit,
            np.array(nonzero, dtype=np.int64),
            np.array(multiplicities, dtype=count_dtype(ell, limit)),
        )

    @pytest.mark.parametrize(
        "sums, limit",
        [
            # the distinct sums and their multiplicities
            (([], []), 10),
            (([1, 2], [1, 1]), 10),
            (([0], [2]), 10),
            (([0, 3], [3, 1]), 10),
        ],
    )
    def test_rejects_count_at_zero_other_than_one(self, sums, limit):
        with pytest.raises(TableFormatError, match="count at 0 must be 1"):
            self.index_table(3, limit, *sums)

    @pytest.mark.parametrize("ell", [3, 4])
    def test_rejects_count_over_loose_bound(self, ell):
        # a count of 2^ell * (n + 1) at n is allowed; one more is not
        table = self.index_table(ell, 10, [0, 1, 5], [1, 2 << ell, 6 << ell])
        assert (table.count(1), table.count(5)) == (2 << ell, 6 << ell)
        with pytest.raises(TableFormatError, match="count at 5 exceeds the loose bound"):
            self.index_table(ell, 10, [0, 1, 5, 7], [1, 2 << ell, (6 << ell) + 1, 1])

    def test_width_ceiling_checked(self):
        # the sieve would list 1.3 million cubes before its first sum; it lists none
        tracemalloc.start()
        try:
            with pytest.raises(CounterWidthError):
                sieve_pair(3, 2**61)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_immutable(self):
        lower = sieve_pair(3, 100)[1]
        with pytest.raises(AttributeError):
            lower.limit = 7
        with pytest.raises(ValueError):
            lower.nonzero[0] = 7
