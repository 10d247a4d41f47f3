from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import gap_modulus_search_loop, residue_counts_bruteforce, residue_counts_convolution
from waring_gaps import modular
from waring_gaps.modular import (
    GapModulusResult,
    PowerHistogram,
    ResidueProfile,
    crt_combine,
    crt_fold,
    power_histogram,
    residue_counts,
    search_gap_modulus,
    write_profile_csv,
)
from waring_gaps.repcount import WaringParams, sieve_rep


class TestHistogram:
    @pytest.mark.parametrize(
        "ell,modulus,expected",
        [
            (3, 2, {0: 1, 1: 1}),
            (3, 9, {0: 3, 1: 3, 8: 3}),
            (4, 16, {0: 8, 1: 8}),
        ],
    )
    def test_examples(self, ell, modulus, expected):
        assert power_histogram(ell, modulus).as_dict() == expected

    @pytest.mark.parametrize("modulus", [1, 2, 7, 30, 64])
    def test_mass(self, modulus):
        hist = power_histogram(3, modulus)
        assert sum(hist.counts) == modulus
        assert hist.counts[0] >= 1

    def test_invariants_enforced(self):
        with pytest.raises(ValueError):
            PowerHistogram(ell=3, modulus=3, counts=(1, 1, 0))


class TestResidueCounts:
    def test_mod_nine_obstruction(self):
        profile = residue_counts(3, 9)
        assert profile.counts == (189, 162, 81, 27, 0, 0, 27, 81, 162)
        assert profile.r(4) == 0 and profile.r(5) == 0

    def test_mod_two(self):
        assert residue_counts(3, 2).counts == (4, 4)

    @pytest.mark.parametrize("ell", [3, 4])
    def test_bruteforce_equivalence_up_to_thirty(self, ell):
        for modulus in range(1, 31):
            profile = residue_counts(ell, modulus)
            assert list(profile.counts) == residue_counts_bruteforce(ell, modulus)

    @pytest.mark.parametrize("ell,modulus", [(3, 11), (4, 13), (3, 16), (4, 18)])
    def test_mass(self, ell, modulus):
        assert sum(residue_counts(ell, modulus).counts) == modulus**ell

    def test_mass_invariant_enforced(self):
        with pytest.raises(ValueError):
            ResidueProfile(ell=3, modulus=2, counts=(4, 5))

    def test_wrapping_lookup(self):
        profile = residue_counts(3, 9)
        assert profile.r(13) == profile.r(4) == 0
        assert profile.r(-5) == profile.r(4)


class TestCrtCombine:
    def test_mod_two_times_nine(self):
        combined = crt_combine(residue_counts(3, 2), residue_counts(3, 9))
        assert combined.modulus == 18
        assert combined.r(4) == 0
        assert sum(combined.counts) == 18**3

    def test_identity_with_trivial_modulus(self):
        profile = residue_counts(3, 9)
        combined = crt_combine(profile, residue_counts(3, 1))
        assert combined.counts == profile.counts

    def test_multiplicativity_sample(self):
        for ell, m1, m2 in [(3, 4, 9), (3, 5, 7), (4, 3, 16), (4, 5, 8)]:
            direct = residue_counts(ell, m1 * m2)
            combined = crt_combine(residue_counts(ell, m1), residue_counts(ell, m2))
            assert combined.counts == direct.counts

    @pytest.mark.parametrize("ell,modulus", [(3, 15), (4, 99)])
    def test_even_factor_identity(self, ell, modulus):
        base = residue_counts(ell, modulus)
        doubled = residue_counts(ell, 2 * modulus)
        for m in range(2 * modulus):
            assert doubled.r(m) == (1 << (ell - 1)) * base.r(m)

    def test_rejects_non_coprime(self):
        with pytest.raises(ValueError):
            crt_combine(residue_counts(3, 6), residue_counts(3, 9))

    def test_rejects_mismatched_exponent(self):
        with pytest.raises(ValueError):
            crt_combine(residue_counts(3, 2), residue_counts(4, 9))

    def test_fold_over_three_moduli(self):
        folded = crt_fold(residue_counts(3, m) for m in (2, 5, 9))
        assert folded.counts == residue_counts(3, 90).counts
        assert crt_fold([residue_counts(3, 9)]) == residue_counts(3, 9)
        with pytest.raises(ValueError, match="at least one modulus"):
            crt_fold([])


class TestSievesAgreeWithProfiles:
    @pytest.mark.parametrize("ell", [3, 4])
    def test_zero_classes_have_no_representable_members(self, ell):
        # a residue class with zero congruence count contains no sums at all
        limit = 30**ell
        table = sieve_rep(WaringParams(ell, ell), limit)
        for modulus in range(2, 31):
            profile = residue_counts(ell, modulus)
            for m, count in enumerate(profile.counts):
                if count == 0:
                    assert not table.counts[m::modulus].any()


class TestSearch:
    def test_window_two_mod_nine(self):
        result = search_gap_modulus(3, 2, [9])
        assert (result.modulus, result.residue) == (9, 4)
        assert result.per_window_quality == (Fraction(0), Fraction(0))
        assert result.global_quality == Fraction(7, 3)
        assert result.meets_small_count

    def test_no_candidate_meets_threshold(self):
        assert search_gap_modulus(3, 1, [2]) is None

    def test_four_fourth_powers_mod_sixteen(self):
        result = search_gap_modulus(4, 1, [16])
        assert (result.modulus, result.residue) == (16, 5)
        assert result.per_window_quality == (Fraction(0),)

    def test_tie_break_prefers_smaller_modulus(self):
        result = search_gap_modulus(3, 2, [9, 63])
        assert result.modulus == 9

    def test_products_explored_up_to_bound(self):
        result = search_gap_modulus(3, 1, [2, 9], product_bound=18)
        assert result.modulus == 9  # quality 0 ties resolved toward smaller M
        # non-coprime subsets are skipped, coprime ones appear
        wide = search_gap_modulus(3, 1, [2, 9], product_bound=200)
        assert wide.modulus == 9

    def test_deterministic(self):
        a = search_gap_modulus(4, 2, [16, 32])
        b = search_gap_modulus(4, 2, [16, 32])
        assert a == b

    def test_json_record_schema(self):
        obj = search_gap_modulus(3, 2, [9]).to_json_dict()
        assert set(obj) == {
            "ell",
            "M",
            "m",
            "K1",
            "factors",
            "per_k_quality",
            "global_quality",
            "meets_iii",
        }
        assert obj["per_k_quality"] == ["0", "0"]
        assert obj["global_quality"] == "7/3"
        assert obj["meets_iii"] is True

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            search_gap_modulus(3, 0, [9])
        with pytest.raises(ValueError):
            search_gap_modulus(3, 1, [])

    def test_bound_below_every_candidate_finds_nothing(self):
        assert search_gap_modulus(3, 2, [9], product_bound=5) is None

    def test_zero_window_stops_the_walk(self, monkeypatch):
        # M = 9 has a zero window, so no larger pool element can win: the
        # O(q^2) convolution at q = 1,000,003 is never started
        seen = []

        def spy(ell, modulus):
            seen.append(modulus)
            return power_histogram(ell, modulus)

        monkeypatch.setattr(modular, "power_histogram", spy)
        result = search_gap_modulus(3, 2, [9, 1000003], product_bound=10**7)
        assert (result.modulus, result.factors) == (9, (9,))
        assert seen == [9]


class TestAgainstOracles:
    """The factored profiles and the array search against the quadratic
    convolution and the per-residue window loop."""

    @settings(max_examples=150, deadline=None)
    @given(ell=st.integers(1, 6), modulus=st.integers(1, 150))
    @example(ell=3, modulus=1)
    @example(ell=4, modulus=1)
    @example(ell=3, modulus=127)  # prime
    @example(ell=4, modulus=97)  # prime
    @example(ell=3, modulus=2000)
    @example(ell=7, modulus=1260)  # 1260^7 >= 2^63: the glued counts are Python ints
    @example(ell=7, modulus=512)  # 512^7 = 2^63: the convolutions themselves run on Python ints
    @example(ell=64, modulus=2)  # both counts are 2^63, one past the int64 range
    def test_profile_matches_convolution(self, ell, modulus):
        expected = ResidueProfile(ell, modulus, tuple(residue_counts_convolution(ell, modulus)))
        profile = residue_counts(ell, modulus)
        assert profile == expected
        assert all(type(c) is int for c in profile.counts)

    @settings(max_examples=150, deadline=None)
    @given(
        ell=st.integers(1, 5),
        window=st.one_of(st.integers(1, 3), st.integers(1, 12)),
        pool=st.lists(
            st.one_of(st.sampled_from([1, 2, 4, 5, 7, 8, 9, 13, 16, 27, 32]), st.integers(1, 40)),
            min_size=1,
            max_size=5,
        ),
        product_bound=st.one_of(st.none(), st.integers(1, 400)),
    )
    @example(ell=3, window=12, pool=[9], product_bound=None)  # window > M: every residue
    @example(ell=3, window=9, pool=[9], product_bound=None)  # window == M: the widest wrap, M - 1 entries
    @example(ell=3, window=10, pool=[9], product_bound=None)  # window == M + 1
    @example(ell=4, window=3, pool=[2, 16], product_bound=32)  # window > M = 2, then M = 16 wins
    @example(ell=3, window=2, pool=[1, 9, 9, 2], product_bound=200)  # 1 and a duplicate
    @example(ell=4, window=3, pool=[16, 5, 3], product_bound=240)
    @example(ell=3, window=1, pool=[7, 13], product_bound=91)  # prime moduli
    @example(ell=7, window=1, pool=[49, 4, 9, 5], product_bound=20000)  # won at M = 1764 > 2^9
    @example(ell=3, window=2, pool=[7, 9], product_bound=63)  # a zero at 63 is found before the zero at 9
    @example(ell=3, window=1, pool=[4, 7, 28], product_bound=28)  # 28 as (4, 7) before (28,): 81/196
    @example(ell=3, window=2, pool=[27, 9, 5], product_bound=405)  # zeros at 45 and 9; 27 is past the bound
    @example(ell=4, window=12, pool=[16], product_bound=None)  # r is 0 on 5..15: each window wraps to r(0)
    def test_search_matches_loop(self, ell, window, pool, product_bound):
        bound = max(pool) if product_bound is None else product_bound
        expected = gap_modulus_search_loop(ell, window, pool, bound)
        result = search_gap_modulus(ell, window, pool, product_bound)
        if expected is None:
            assert result is None
        else:
            modulus, residue, factors, per_window, global_quality = expected
            assert result == GapModulusResult(
                ell, modulus, residue, window, factors, per_window, global_quality, True
            )


class TestCsvExport:
    def test_header_and_rows(self, tmp_path):
        path = tmp_path / "p.csv"
        write_profile_csv(residue_counts(3, 9), path)
        lines = path.read_text().splitlines()
        assert lines[0] == "m,count"
        assert lines[1] == "0,189"
        assert lines[5] == "4,0"
        assert len(lines) == 10

    @pytest.mark.parametrize("ell,modulus", [(7, 511), (7, 512), (64, 2)])
    def test_rows_match_counts_on_both_sides_of_int64(self, tmp_path, ell, modulus):
        # 511^7 < 2^63 <= 512^7: int64 counts below, Python ints from 512 on
        path = tmp_path / "p.csv"
        profile = residue_counts(ell, modulus)
        write_profile_csv(profile, path)
        rows = path.read_text().splitlines()[1:]
        assert rows == [f"{m},{c}" for m, c in enumerate(profile.counts)]
