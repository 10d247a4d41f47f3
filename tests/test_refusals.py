"""Argument checks of the library that no other test runs in the test
process: each refusal is met with its exception type and its whole
message.

Some of these are also reached through the CLI, but a subprocess run
does not show that a check ran.  Every certificate and the pipeline
config refuse a field out of range when they are built, by name and in
one format (``field <name>: <value> is <relation> <bound>``); the
nested-gaps certificate's are here, the other certificates' in
test_certify.py and the pipeline config's, through its flags, in
test_cli.py.
"""

import re
import struct
import sys
from fractions import Fraction

import numpy as np
import pytest

from waring_gaps.certify import (
    DegreeCertificate,
    NestedGapsCertificate,
    check_theta_linear_forms,
    maier_qualifying_set,
    verify_degree_criterion,
    verify_maier_inner,
)
from waring_gaps.modular import (
    PowerHistogram,
    ResidueProfile,
    power_histogram,
    residue_counts,
    search_gap_modulus,
)
from waring_gaps.repcount import (
    RepTable,
    TableFormatError,
    WaringParams,
    greedy_decompose,
    read_table_binary,
    sieve_pair,
    sieve_rep,
)
from waring_gaps.series import (
    Enclosure,
    HalfFunction,
    eval_truncated,
    scan_mild_gaps,
)


def refused(kind, message):
    """pytest.raises for kind with exactly message."""
    return pytest.raises(kind, match=f"^{re.escape(message)}$")


@pytest.fixture(scope="module")
def table_3_3():
    return sieve_rep(WaringParams(3, 3), 740)


@pytest.fixture(scope="module")
def pair_3():
    full, lower = sieve_pair(3, 200)
    return lower, full


# ---------------------------------------------------------------------------
# certify
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("residue, modulus", [(-1, 9), (0, 0), (0, -9)])
def test_qualifying_set_needs_a_progression(table_3_3, residue, modulus):
    with refused(ValueError, "the progression needs a residue >= 0 and a modulus >= 1"):
        maier_qualifying_set(table_3_3, modulus, residue, [0, 0], 729, 1)


@pytest.mark.parametrize("m, k, M, L", [(1, 0, 0, 1), (1, 0, 9, 0), (-1, 0, 9, 1), (1, -1, 9, 1)])
def test_maier_inner_argument_ranges(table_3_3, m, k, M, L):
    with refused(ValueError, "need M >= 1, L >= 1, m >= 0, k >= 0"):
        verify_maier_inner(m, k, M, L, table_3_3)


def test_maier_inner_needs_ell_summands():
    table = sieve_rep(WaringParams(3, 2), 740)
    with refused(ValueError, "table must hold counts for ell summands of ell-th powers"):
        verify_maier_inner(1, 0, 2, 1, table)


def test_maier_inner_column_sum_fits_int64():
    # a column of L^3 = 2^30 counts, each at most 8 * (2^30 + 1), on a table
    # held as its nonzero index alone: refused before any count is read
    limit = 1 << 30
    index, counts = np.zeros(1, dtype=np.int64), np.ones(1, dtype=np.int64)
    table = RepTable._from_index(WaringParams(3, 3), limit, index, counts)
    with refused(OverflowError, f"a column of {limit} counts may overflow 64-bit summation"):
        verify_maier_inner(0, 0, 1, 1 << 10, table)


def nested(**overrides):
    f = HalfFunction.from_coefficients({0: 1, 10: 1, 20: 1}, label="f")
    g = HalfFunction.from_coefficients({40: 1}, label="g")
    fields = dict(q=2, H=Fraction(100), K1=9, K2=9, K_prime=39, n1=1, n2=11, n_prime=1,
                  E=Fraction(2), E_prime=Fraction(1), f=f, g=g)
    return NestedGapsCertificate(**{**fields, **overrides})


# The refusal of each shape problem below, by the override that makes it: a
# break of n_prime <= n1 < n2 names both fields of the pair it breaks.
NESTED_REFUSALS = {
    ("q", 1): "field q: 1 is below 2",
    ("H", Fraction(0)): "field H: 0 is not above 0",
    ("H", Fraction(-1, 3)): "field H: -1/3 is not above 0",
    ("K1", 0): "field K1: 0 is below 1",
    ("K2", 0): "field K2: 0 is below 1",
    ("K_prime", 0): "field K_prime: 0 is below 1",
    ("n_prime", -1): "field n_prime: -1 is below 0",
    ("n_prime", 2): "field n1: 1 is below n_prime = 2",
    ("n2", 1): "field n2: 1 is not above n1 = 1",
}


@pytest.mark.parametrize(
    "overrides, problem",
    [
        ({"q": 1}, "q must be at least 2"),
        ({"H": Fraction(0)}, "H must be positive"),
        ({"H": Fraction(-1, 3)}, "H must be positive"),
        ({"K1": 0}, "gap lengths must be positive"),
        ({"K2": 0}, "gap lengths must be positive"),
        ({"K_prime": 0}, "gap lengths must be positive"),
        ({"n_prime": -1}, "need 0 <= n_prime <= n1 < n2"),
        ({"n_prime": 2}, "need 0 <= n_prime <= n1 < n2"),
        ({"n2": 1}, "need 0 <= n_prime <= n1 < n2"),
    ],
)
def test_nested_certificate_shape(overrides, problem):
    # problem is the precondition each case breaks; the certificate is
    # refused when it is built, so no verifier sees it
    [override] = overrides.items()
    with refused(ValueError, NESTED_REFUSALS[override]):
        nested(**overrides)


@pytest.mark.parametrize("field", ["E", "E_prime"])
@pytest.mark.parametrize("value", [Fraction(0), Fraction(-5, 2)])
def test_nested_tail_bounds_positive(field, value):
    with refused(ValueError, f"field {field}: {value} is not above 0"):
        nested(**{field: value})


def test_nested_value_too_long_to_print_is_named():
    # q = -10^5000 is refused by its name, not by str()'s digit limit
    default = sys.get_int_max_str_digits()
    try:
        sys.set_int_max_str_digits(4300)
        with refused(ValueError, "field q has more than 4300 digits to print"):
            nested(q=-(10**5000))
    finally:
        sys.set_int_max_str_digits(default)


def degree(**overrides):
    fields = dict(ell=3, q=2, J=Fraction(1, 3000), E=Fraction(8), N=3000, K1=2, K2=2,
                  n1=18, n2=25)
    return DegreeCertificate(**{**fields, **overrides})


def test_degree_tables_lower_parameters(pair_3):
    lower, full = pair_3
    with refused(ValueError, "table_lower must count sums of ell - 1 powers"):
        verify_degree_criterion(degree(), full, full)


def test_degree_tables_full_parameters(pair_3):
    lower, full = pair_3
    with refused(ValueError, "table_full must count sums of ell powers"):
        verify_degree_criterion(degree(), lower, lower)


UNCOVERED = (
    "tables do not cover the window [n1, n2 + K2) of shorter sums and the mild-gap windows "
    "[n, n + K1) at n = n1, n2"
)


@pytest.mark.parametrize("n2, K2", [(200, 2), (25, 177), (202, 1)])
def test_degree_tables_cover_the_window(pair_3, n2, K2):
    lower, full = pair_3
    with refused(ValueError, UNCOVERED):
        verify_degree_criterion(degree(n2=n2, K2=K2), lower, full)


@pytest.mark.parametrize("n1, n2, K1", [(199, 25, 3), (2**63, 25, 2), (18, 199, 3)])
def test_degree_tables_cover_the_mild_gap_windows(pair_3, n1, n2, K1):
    # each endpoint's window [n, n + K1) is tested for a mild gap on the full table
    lower, full = pair_3
    with refused(ValueError, UNCOVERED):
        verify_degree_criterion(degree(n1=n1, n2=n2, K1=K1), lower, full)


def test_linear_forms_height_positive():
    tables = [sieve_rep(WaringParams(3, s), 64) for s in (1, 2, 3)]
    with refused(ValueError, "height must be positive"):
        check_theta_linear_forms(2, 0, 16, tables)


def test_linear_forms_table_parameters():
    tables = [sieve_rep(WaringParams(3, s), 64) for s in (1, 3, 3)]
    with refused(ValueError, "table 2 has parameters WaringParams(ell=3, s=3)"):
        check_theta_linear_forms(2, 1, 16, tables)


# ---------------------------------------------------------------------------
# modular
# ---------------------------------------------------------------------------


def test_histogram_zero_residue():
    with refused(ValueError, "the zero residue is always hit by x = 0"):
        PowerHistogram(ell=2, modulus=2, counts=(0, 2))


def test_profile_length():
    with refused(ValueError, "profile length must equal the modulus"):
        ResidueProfile(ell=1, modulus=2, counts=(2,))


@pytest.mark.parametrize("build", [power_histogram, residue_counts])
@pytest.mark.parametrize(
    "ell, modulus, message",
    [(0, 5, "ell must be positive"), (-1, 5, "ell must be positive"),
     (3, 0, "modulus must be positive"), (3, -4, "modulus must be positive")],
)
def test_sizes(build, ell, modulus, message):
    with refused(ValueError, message):
        build(ell, modulus)


@pytest.mark.parametrize(
    "build", [power_histogram, residue_counts, lambda ell, m: search_gap_modulus(ell, 2, [m])]
)
def test_mass_too_long_to_print(build):
    # 9^(10^6) has about 954,000 digits: refused from bit lengths, before a
    # power or a convolution is formed
    default = sys.get_int_max_str_digits()
    try:
        sys.set_int_max_str_digits(4300)
        message = "ell 1000000: the mass modulus^ell has more than 4300 digits to print"
        with refused(ValueError, message):
            build(10**6, 9)
    finally:
        sys.set_int_max_str_digits(default)


@pytest.mark.parametrize("build", [power_histogram, residue_counts])
def test_profile_that_cannot_fit(build):
    # 8 * (2^63 - 1) bytes of counts: refused before factoring starts
    with pytest.raises(
        ValueError,
        match=r"^modulus 9223372036854775807: the profile needs at least 73786976294838206456 "
        "bytes, past ",
    ):
        build(3, 2**63 - 1)


@pytest.mark.parametrize("pool", [[0], [9, 0], [7, -2]])
def test_pool_moduli_positive(pool):
    with refused(ValueError, "pool moduli must be positive"):
        search_gap_modulus(3, 2, pool)


# ---------------------------------------------------------------------------
# repcount
# ---------------------------------------------------------------------------


def test_table_limit_nonnegative():
    with refused(ValueError, "limit must be nonnegative"):
        RepTable(WaringParams(3, 3), -1, np.ones(0, dtype=np.int64))


def test_table_length_matches_limit():
    with refused(TableFormatError, "counts length (3,) does not match limit 5"):
        RepTable(WaringParams(3, 3), 5, np.ones(3, dtype=np.int64))


def test_table_counts_nonnegative():
    with refused(TableFormatError, "counts must be nonnegative"):
        RepTable(WaringParams(3, 3), 3, np.array([1, 0, -1, 0], dtype=np.int64))


@pytest.mark.parametrize("ell", [1, 2, 5])
def test_greedy_supported_exponent(ell):
    with refused(ValueError, f"ell must be one of (3, 4), got {ell}"):
        greedy_decompose(ell, 10)


def test_greedy_nonnegative():
    with refused(ValueError, "b must be nonnegative"):
        greedy_decompose(3, -1)


@pytest.mark.parametrize("sieve", [lambda: sieve_rep(WaringParams(3, 3), -1),
                                   lambda: sieve_pair(4, -5)])
def test_sieve_limit_nonnegative(sieve):
    with refused(ValueError, "limit must be nonnegative"):
        sieve()


def test_sieve_that_cannot_fit():
    # its int64 counts alone would be 80 TB: refused before anything is allocated
    with pytest.raises(
        ValueError, match=r"^limit 10000000000000: the sieve needs at least 80000000000008 bytes, past "
    ):
        sieve_rep(WaringParams(3, 3), 10**13)


@pytest.mark.parametrize("width", [0, 3, 16])
def test_binary_count_width(tmp_path, width):
    path = tmp_path / "t.bin"
    path.write_bytes(b"WRT1" + struct.pack("<QQQQ", 3, 3, 0, width) + b"\x01" * 8)
    with refused(TableFormatError, f"unsupported count width {width}"):
        read_table_binary(path)


# ---------------------------------------------------------------------------
# series
# ---------------------------------------------------------------------------


def test_enclosure_power_nonnegative():
    with refused(ValueError, "exponent must be nonnegative"):
        Enclosure(Fraction(1, 3), Fraction(1, 2)).power(-1)


def test_growth_certificate_nonnegative():
    with refused(ValueError, "growth certificate must be nonnegative"):
        HalfFunction([0], [1], Fraction(-1), "f")


def test_coefficient_index_nonnegative():
    with refused(ValueError, "coefficient indices must be nonnegative"):
        HalfFunction.from_coefficients({-1: 1, 2: 3})
    with refused(IndexError, "coefficient index must be nonnegative"):
        HalfFunction.from_coefficients([1, 2]).coefficient(-1)


@pytest.mark.parametrize("lo, hi", [(-1, 4), (5, 4)])
def test_scan_range(lo, hi):
    f = HalfFunction.from_coefficients([1, 0, 0, 0, 0, 1])
    with refused(ValueError, "range must satisfy 0 <= lo <= hi"):
        scan_mild_gaps(f, lo, hi, 2, Fraction(4))


def test_truncated_terms_nonnegative():
    with refused(ValueError, "terms must be nonnegative"):
        eval_truncated(HalfFunction.from_coefficients([1, 2]), 2, -1)
