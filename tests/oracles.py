"""Independent brute-force oracles.

Everything here counts or sums by direct enumeration, or by the
whole-array pass that a faster library path replaced, deliberately
sharing no code with the library paths it is used to check beyond the
checks that RepTable makes of every table.
"""

from __future__ import annotations

import itertools
import math
import os
import struct
import sys
from fractions import Fraction
from pathlib import Path
from typing import Any

import numpy as np

from waring_gaps.repcount import RepTable, TableFormatError, WaringParams


def rep_counts_bruteforce(ell: int, s: int, limit: int) -> list[int]:
    """Counts of ordered s-tuples of ell-th powers by nested enumeration."""
    counts = [0] * (limit + 1)

    def descend(depth: int, total: int) -> None:
        if depth == s:
            counts[total] += 1
            return
        x = 0
        while total + x**ell <= limit:
            descend(depth + 1, total + x**ell)
            x += 1

    descend(0, 0)
    return counts


def rep_counts_convolution(ell: int, s: int, limit: int) -> np.ndarray:
    """Counts by s - 1 folds of the single-power indicator, one shifted
    vector add per power per fold: O(limit^(1 + 1/ell)) work, exact int64."""
    powers = []
    x = 0
    while x**ell <= limit:
        powers.append(x**ell)
        x += 1
    base = np.zeros(limit + 1, dtype=np.int64)
    base[powers] = 1
    cur = base
    for _ in range(s - 1):
        nxt = np.zeros(limit + 1, dtype=np.int64)
        for p in powers:
            nxt[p:] += cur[: limit + 1 - p]
        cur = nxt
    return cur


def residue_counts_bruteforce(ell: int, modulus: int) -> list[int]:
    """Solution counts of the diagonal congruence by full tuple enumeration."""
    powers = [pow(x, ell, modulus) for x in range(modulus)]
    counts = [0] * modulus
    if ell == 3:
        for a in powers:
            for b in powers:
                ab = (a + b) % modulus
                for c in powers:
                    counts[(ab + c) % modulus] += 1
    elif ell == 4:
        for a in powers:
            for b in powers:
                ab = (a + b) % modulus
                for c in powers:
                    abc = (ab + c) % modulus
                    for d in powers:
                        counts[(abc + d) % modulus] += 1
    else:
        raise ValueError("oracle handles ell in {3, 4}")
    return counts


def residue_counts_convolution(ell: int, modulus: int) -> list[int]:
    """Solution counts by ell - 1 quadratic cyclic convolutions of the power
    histogram mod the whole modulus, on exact Python integers."""
    hist = [0] * modulus
    for x in range(modulus):
        hist[pow(x, ell, modulus)] += 1
    support = [(v, c) for v, c in enumerate(hist) if c]
    cur = list(hist)
    for _ in range(ell - 1):
        nxt = [0] * modulus
        for v, c in support:
            for m, value in enumerate(cur):
                if value:
                    nxt[(m + v) % modulus] += value * c
        cur = nxt
    return cur


def gap_modulus_search_loop(
    ell: int, window: int, pool: list[int], product_bound: int
) -> tuple[int, int, tuple[int, ...], tuple[Fraction, ...], Fraction] | None:
    """The modulus search, one window maximum per residue.

    Every pairwise-coprime subset of the distinct pool values with product
    at most product_bound is a candidate; a product reached by several
    subsets keeps the first in lexicographic order of sorted positions.
    Each candidate's counts are the products of the convolved counts of
    its factors.  Candidates go in ascending product order and a later
    one wins only with a strictly smaller quality; within a candidate the
    smallest residue wins.  Returns (modulus, residue, factors, per-window
    qualities, global quality), or None when nothing beats 1/(2*window).
    """
    items = sorted(set(pool))
    subsets: dict[int, tuple[int, ...]] = {}
    for size in range(1, len(items) + 1):
        for chosen in itertools.combinations(range(len(items)), size):
            factors = tuple(items[i] for i in chosen)
            product = 1
            for f in factors:
                product *= f
            coprime = all(
                math.gcd(a, b) == 1 for a, b in itertools.combinations(factors, 2)
            )
            if coprime and product <= product_bound:
                if product not in subsets or chosen < subsets[product][0]:
                    subsets[product] = (chosen, factors)
    best = None
    for modulus in sorted(subsets):
        factors = subsets[modulus][1]
        parts = [(f, residue_counts_convolution(ell, f)) for f in factors]
        counts = []
        for m in range(modulus):
            count = 1
            for f, part in parts:
                count *= part[m % f]
            counts.append(count)
        best_m, best_worst = 0, None
        for m in range(modulus):
            worst = max(counts[(m + k) % modulus] for k in range(window))
            if best_worst is None or worst < best_worst:
                best_m, best_worst = m, worst
        quality = Fraction(best_worst, modulus ** (ell - 1))
        if best is None or quality < best[0]:
            best = (quality, modulus, best_m, counts, factors)
    if best is None or best[0] > Fraction(1, 2 * window):
        return None
    _, modulus, residue, counts, factors = best
    denom = modulus ** (ell - 1)
    per_window = tuple(
        Fraction(counts[(residue + k) % modulus], denom) for k in range(window)
    )
    return modulus, residue, factors, per_window, Fraction(max(counts), denom)


def floor_root_bruteforce(ell: int, b: int) -> int:
    """Largest x with x^ell <= b, by upward scan."""
    x = 0
    while (x + 1) ** ell <= b:
        x += 1
    return x


def greedy_decompose_bruteforce(ell: int, b: int) -> tuple[tuple[int, ...], int]:
    """Reference greedy decomposition using the scan-based root."""
    rem = b
    parts = []
    for _ in range(ell):
        x = floor_root_bruteforce(ell, rem)
        parts.append(x)
        rem -= x**ell
    return tuple(parts), b - rem


def zero_runs_bruteforce(counts: list[int], min_len: int) -> list[tuple[int, int, bool]]:
    """Maximal zero runs as (start, length, touches_end) triples."""
    runs = []
    start = None
    for n, c in enumerate(counts):
        if c == 0 and start is None:
            start = n
        elif c != 0 and start is not None:
            runs.append((start, n - start, False))
            start = None
    if start is not None:
        runs.append((start, len(counts) - start, True))
    return [r for r in runs if r[1] >= min_len]


def weighted_tail_bruteforce(values: list[int], start: int) -> Fraction:
    """Exact sum of |values[start + i]| / 2^i over the given finite list."""
    total = Fraction(0)
    for i, v in enumerate(values[start:]):
        total += Fraction(abs(v), 2**i)
    return total


def exceptional_members_bruteforce(
    limit: int, exponent: Fraction, counts: list[int]
) -> list[int]:
    """Window-zero scan deciding membership per a by direct power comparison.

    Offset d lies in the window of a exactly when d^q < a^p.  For fixed d
    that holds from some first a on, so the first such a in [1, limit] is
    found by bisection over a (limit + 1 when there is none), and the
    window of a holds the offsets d whose first a is at most a.  Every
    decision is the exact comparison d^q < a^p.
    """
    p, q = exponent.numerator, exponent.denominator
    a_powers: dict[int, int] = {}

    def first_a(d: int) -> int:
        d_power = d**q
        lo, hi = 1, limit + 1
        while lo < hi:
            mid = (lo + hi) // 2
            if mid not in a_powers:
                a_powers[mid] = mid**p
            if d_power < a_powers[mid]:
                hi = mid
            else:
                lo = mid + 1
        return lo

    starts: list[int] = []
    members = []
    for a in range(1, limit + 1):
        ok = True
        d = 0
        while True:
            if d == len(starts):
                starts.append(first_a(d))
            if starts[d] > a:
                break
            n = a - d
            if n >= 0 and counts[n] != 0:
                ok = False
                break
            d += 1
        if ok:
            members.append(a)
    return members


def first_growth_fault_bruteforce(entries: dict[int, int], c: Fraction) -> int | None:
    """The least index n with |a_n| > c*(n + 1), compared as Fractions, or
    None when every entry keeps its bound."""
    for n in range(max(entries, default=-1) + 1):
        if Fraction(abs(entries.get(n, 0))) > c * (n + 1):
            return n
    return None


def first_nonzero_bruteforce(
    values: list[int], coverage: int | None, stop: int
) -> list[int | None]:
    """For each n < stop, the first index >= n not known to hold a zero.

    values lists the coefficients from index 0 on.  With coverage None
    every later coefficient is zero, and None means no nonzero follows n.
    Otherwise coverage is len(values) - 1 and nothing past it is known, so
    the answer never exceeds max(n, coverage + 1).  Filled by one
    backward sweep: the answer at n is n itself when values[n] != 0, else
    the answer at n + 1.
    """
    answers: list[int | None] = [None] * stop
    following = None if coverage is None else len(values)
    for n in range(max(stop, len(values)) - 1, -1, -1):
        if n >= len(values):
            following = None if coverage is None else n
        elif values[n] != 0:
            following = n
        if n < stop:
            answers[n] = following
    return answers


def next_nonzero_count_bruteforce(counts, p: int) -> int:
    """The least n >= p with a nonzero count, read one index at a time, or
    max(p, len(counts)) when no count from p on is nonzero."""
    for n in range(max(p, 0), len(counts)):
        if counts[n]:
            return n
    return max(p, len(counts))


def pair_filters_bruteforce(members, lower_counts, full_counts, K2: int) -> tuple:
    """(pairs, good, qualified) over the consecutive pairs (b1, b2) of the
    members, each window read one index at a time: a pair is good when no
    lower count in [b1, b2 + K2] is nonzero, and a good pair is qualified
    when some full count in (b1, b2) is.  qualified lists its pairs in order."""
    pairs = list(zip(members, members[1:]))
    good = [(b1, b2) for b1, b2 in pairs if not any(lower_counts[b1 : b2 + K2 + 1])]
    qualified = [(b1, b2) for b1, b2 in good if any(full_counts[b1 + 1 : b2])]
    return len(pairs), len(good), qualified


def degree_criterion_bruteforce(cert, lower_counts, full_counts) -> dict[str, bool]:
    """Whether each table and height condition of the degree criterion
    holds for cert, decided from the dense counts of sums of ell - 1 and of
    ell powers, one index at a time: ordering (n1 + K1 < n2 and n2 + K2 <=
    N), window-free-of-shorter-sums (no lower count in [n1, n2 + K2) is
    nonzero), representable-point-inside (some full count in [n1, n2) is)
    and height-gap (q^K1 > J*E and q^K2 > J*N, each cross-multiplied over
    the integers)."""
    q, J, E, N = cert.q, cert.J, cert.E, cert.N
    K1, K2, n1, n2 = cert.K1, cert.K2, cert.n1, cert.n2
    return {
        "ordering": n1 + K1 < n2 and n2 + K2 <= N,
        "window-free-of-shorter-sums": all(c == 0 for c in lower_counts[n1 : n2 + K2]),
        "representable-point-inside": any(c != 0 for c in full_counts[n1:n2]),
        "height-gap": q**K1 * J.denominator * E.denominator > J.numerator * E.numerator
        and q**K2 * J.denominator > J.numerator * N,
    }


def qualifying_set_bruteforce(
    counts, modulus: int, residue: int, caps, limit: int, window: int
) -> list[int]:
    """The n = residue + j * modulus below limit - window whose counts at
    n + k are each at most caps[k], compared one at a time as Python ints."""
    return [
        n for n in range(residue, limit - window, modulus)
        if all(counts[n + k] <= cap for k, cap in enumerate(caps))
    ]


def window_escapes_bruteforce(b, M: int, N: int, exceptional) -> tuple[int, int]:
    """(window_points, escaped) for the windows [max(1, b + ceil(M/2)),
    min(N, b + M - 1)]: the union of the windows as a set of integers, and
    how many of them are not in exceptional."""
    points = set()
    for x in b:
        points.update(range(max(1, x + (M + 1) // 2), min(N, x + M - 1) + 1))
    return len(points), len(points - set(exceptional))


def zero_run_scan(coefficient, lo: int, hi: int, gap_length: int, check) -> list:
    """The mild-gap scan one index at a time, as check(n) results in order.

    coefficient(k) is read once for each k in [lo, hi + gap_length - 1), and
    a counter holds the length of the zero run that ends at k.  Once the run
    from n = k - gap_length + 1 in [lo, hi) holds gap_length zeros, check(n)
    is called, before the next index is read.  An empty range reads nothing.
    """
    if hi == lo:
        return []
    results = []
    zeros_run = 0
    for k in range(lo, hi + gap_length - 1):
        zeros_run = zeros_run + 1 if coefficient(k) == 0 else 0
        n = k - gap_length + 1
        if lo <= n < hi and zeros_run >= gap_length:
            results.append(check(n))
    return results


def horner_tail_sum(coefficient, start: int, cutoff: int) -> Fraction:
    """Exact sum of |coefficient(start + i)| / 2^i over i < cutoff - start,
    by Horner's rule one index at a time."""
    terms = cutoff - start
    numerator = 0
    for i in range(terms):
        numerator = (numerator << 1) + abs(coefficient(start + i))
    return Fraction(numerator, 1 << (terms - 1)) if terms else Fraction(0)


def horner_truncated(coefficient, q: int, terms: int) -> Fraction:
    """Exact sum of coefficient(k) / q^k over k < terms, by Horner's rule one
    index at a time."""
    numerator = 0
    for k in range(terms):
        numerator = numerator * q + coefficient(k)
    return Fraction(numerator, q ** (terms - 1)) if terms else Fraction(0)


def _scaled(lo: Fraction, hi: Fraction, k: int) -> tuple[Fraction, Fraction]:
    """The interval k*[lo, hi]."""
    return (lo * k, hi * k) if k >= 0 else (hi * k, lo * k)


def _abs_lower(lo: Fraction, hi: Fraction) -> Fraction:
    """Certified lower bound on |x| for x in [lo, hi]."""
    if lo > 0:
        return lo
    if hi < 0:
        return -hi
    return Fraction(0)


def measure_pairs_bruteforce(F, G, threshold: Fraction, H: int) -> tuple:
    """Every pair alpha != 0, |alpha| + |beta| <= H, one Fraction enclosure each.

    F and G are enclosures (anything with lo and hi).  Returns (pairs,
    minimum, minimum pair, failing, undecided, certified): the minimum is
    the first strict minimum of the certified lower bound among pairs at or
    above the threshold, in (alpha, beta) order; failing pairs have the
    whole enclosure strictly inside (-threshold, threshold); the rest are
    undecided.
    """
    pairs = 0
    minimum = minimum_pair = None
    failing, undecided = [], []
    for alpha in range(-H, H + 1):
        if alpha == 0:
            continue
        budget = H - abs(alpha)
        for beta in range(-budget, budget + 1):
            pairs += 1
            f_lo, f_hi = _scaled(F.lo, F.hi, alpha)
            g_lo, g_hi = _scaled(G.lo, G.hi, beta)
            lo, hi = f_lo + g_lo, f_hi + g_hi
            lower = _abs_lower(lo, hi)
            if lower >= threshold:
                if minimum is None or lower < minimum:
                    minimum, minimum_pair = lower, (alpha, beta)
            elif max(abs(lo), abs(hi)) < threshold:
                failing.append((alpha, beta))
            else:
                undecided.append((alpha, beta))
    certified = pairs - len(failing) - len(undecided)
    return pairs, minimum, minimum_pair, failing, undecided, certified


def least_pair_value(f_entries, g_entries, q: int, H: int) -> Fraction:
    """The least |alpha*f(1/q) + beta*g(1/q)| over every integer pair with
    alpha != 0 and |alpha| + |beta| <= H, one pair at a time.

    f and g are polynomials given as (index, coefficient) entries, so their
    values at 1/q are exact Fractions.
    """
    f, g = (
        sum((Fraction(a, q**k) for k, a in entries), Fraction(0))
        for entries in (f_entries, g_entries)
    )
    return min(
        abs(alpha * f + beta * g)
        for alpha in range(-H, H + 1)
        if alpha
        for beta in range(abs(alpha) - H, H - abs(alpha) + 1)
    )


def linear_forms_bruteforce(enclosures, h: int) -> tuple:
    """Every form c_0 + sum c_j*t_j with |c_j| <= h and c_ell != 0.

    enclosures[j - 1] encloses t_j; the constant term is exactly 1.
    Returns (forms, minimum, minimum form, failing, undecided, certified)
    in itertools.product order over (c_0, ..., c_ell); a form is certified
    when its enclosure excludes 0, and failing is always empty.  Each
    c_j*t_j interval is formed once per (j, c_j) and shared across forms.
    """
    ell = len(enclosures)
    scaled = [{c: _scaled(enc.lo, enc.hi, c) for c in range(-h, h + 1)} for enc in enclosures]
    forms = 0
    minimum = minimum_form = None
    undecided = []
    for coeffs in itertools.product(range(-h, h + 1), repeat=ell + 1):
        if coeffs[ell] == 0:
            continue
        forms += 1
        lo = hi = Fraction(coeffs[0])
        for c, table in zip(coeffs[1:], scaled):
            c_lo, c_hi = table[c]
            lo, hi = lo + c_lo, hi + c_hi
        lower = _abs_lower(lo, hi)
        if lower > 0:
            if minimum is None or lower < minimum:
                minimum, minimum_form = lower, coeffs
        else:
            undecided.append(coeffs)
    return forms, minimum, minimum_form, [], undecided, forms - len(undecided)


def linear_forms_sweep_loop(enclosures, h: int) -> tuple:
    """The same sweep as linear_forms_bruteforce, one choice of c_1 .. c_ell
    at a time: the per-choice loop that the block-wise sweep replaced.

    On numerators over the common denominator D, the choice's sum of
    c_j*t_j is enclosed in [s_lo, s_hi]; its undecided c_0 are the integers
    in [ceil(-s_hi/D), floor(-s_lo/D)] within the height, and its least
    certified bound sits at a neighbour of that interval.  Returns the same
    tuple, with the undecided forms sorted.
    """
    ends = [x for enc in enclosures for x in (enc.lo, enc.hi)]
    d = math.lcm(*(x.denominator for x in ends))
    nums = [x.numerator * (d // x.denominator) for x in ends]
    choices = [
        [(c, c * lo, c * hi) if c >= 0 else (c, c * hi, c * lo) for c in range(-h, h + 1)]
        for lo, hi in zip(nums[0::2], nums[1::2])
    ]
    choices[-1] = [choice for choice in choices[-1] if choice[0] != 0]

    best = None
    undecided = []
    for parts in itertools.product(*choices):
        rest = tuple(c for c, _lo, _hi in parts)
        s_lo = sum(lo for _c, lo, _hi in parts)
        s_hi = sum(hi for _c, _lo, hi in parts)
        first, last = -(s_hi // d), -s_lo // d
        undecided.extend((c0, *rest) for c0 in range(max(first, -h), min(last, h) + 1))
        below, above = min(first - 1, h), max(last + 1, -h)
        for c0, bound in ((below, -(below * d + s_hi)), (above, above * d + s_lo)):
            if -h <= c0 <= h:
                candidate = (bound, (c0, *rest))
                if best is None or candidate < best:
                    best = candidate

    undecided.sort()
    forms = (2 * h + 1) ** len(enclosures) * 2 * h
    minimum = None if best is None else Fraction(best[0], d)
    minimum_form = None if best is None else best[1]
    return forms, minimum, minimum_form, [], undecided, forms - len(undecided)


def read_table_binary_whole(path) -> RepTable:
    """The binary table reader with no size check before the read: the
    whole payload as bytes, viewed at the file's width, widened to int64
    (a count of 2^63 or more at width 8 wraps to a negative one) and
    checked by RepTable."""
    with open(path, "rb") as fh:
        magic = fh.read(4)
        if magic != b"WRT1":
            raise TableFormatError(f"bad magic {magic!r}")
        header = fh.read(32)
        if len(header) != 32:
            raise TableFormatError("truncated header")
        ell, s, limit, width = struct.unpack("<QQQQ", header)
        if width not in (1, 2, 4, 8):
            raise TableFormatError(f"unsupported count width {width}")
        payload = fh.read()
    expected = (limit + 1) * width
    if len(payload) != expected:
        raise TableFormatError(f"payload is {len(payload)} bytes, expected {expected}")
    counts = np.frombuffer(payload, dtype=f"<u{width}").astype(np.int64)
    return RepTable(params=WaringParams(int(ell), int(s)), limit=int(limit), counts=counts)


def exceptional_scan_whole_array(limit: int, exponent: Fraction, counts) -> np.ndarray:
    """Members of the exceptional set in [1, limit], each a decided at once
    over the whole range: a's window width is the number of offsets d >= 1
    with d < a^e (e = p/q), that is ceil(a^e) - 1, and a is a member when the
    last nonzero index at or below it, one running maximum over all of
    [0, limit], lies below a - width.

    The width is read from the float64 power a^e where that lies more than
    1e-6 from every integer: for a <= 2^24, the power and the rounding of e
    to a double err by less than 1e-7 together.  Within 1e-6 of an integer
    n, d < a^e is decided for d = n by the exact comparison n^q < a^p, so
    only such a form a full power."""
    if limit > 1 << 24:
        raise ValueError("the float64 widths are bounded for limit <= 2^24 only")
    p, q = exponent.numerator, exponent.denominator
    a_arr = np.arange(1, limit + 1, dtype=np.int64)
    powers = np.power(a_arr.astype(np.float64), p / q)
    nearest = np.rint(powers)
    widths = np.ceil(powers).astype(np.int64) - 1
    for i in np.flatnonzero(np.abs(powers - nearest) < 1e-6).tolist():
        n = int(nearest[i])
        widths[i] = n - 1 + (n**q < (i + 1) ** p)
    nz = np.asarray(counts[: limit + 1]) != 0
    last_nonzero = np.maximum.accumulate(
        np.where(nz, np.arange(limit + 1, dtype=np.int64), np.int64(-1))
    )
    return a_arr[last_nonzero[1:] < a_arr - widths]


def window_escapes_depth(b, M: int, N: int, exceptional) -> tuple[int, int]:
    """(window_points, escaped) for the windows [max(1, b + ceil(M/2)),
    min(N, b + M - 1)] by a depth count over all of [0, N + 1]: each window
    adds one at its start and takes one away past its end, a point lies in
    some window where the running sum is positive, and escapes where it is
    not exceptional as well."""
    b = np.asarray(b, dtype=np.int64)
    is_exceptional = np.zeros(N + 1, dtype=bool)
    is_exceptional[np.asarray(exceptional, dtype=np.int64)] = True
    starts = np.maximum(1, b + (M + 1) // 2)
    stops = np.minimum(N, b + M - 1) + 1
    nonempty = starts < stops
    depth = np.cumsum(
        np.bincount(starts[nonempty], minlength=N + 2)
        - np.bincount(stops[nonempty], minlength=N + 2)
    )
    in_window = depth[: N + 1] > 0
    return int(np.count_nonzero(in_window)), int(np.count_nonzero(in_window & ~is_exceptional))


def render_rows_joined(columns, seps) -> str:
    """What repcount.render_rows yields, joined: each row as seps[0], then
    each cell followed by the next separator, one str() per cell, with a
    bool spelled as JSON spells it."""
    def cell(value) -> str:
        if isinstance(value, bool):
            return "true" if value else "false"
        return str(value)

    return "".join(
        seps[0] + "".join(cell(value) + sep for value, sep in zip(row, seps[1:]))
        for row in zip(*(column.tolist() for column in columns))
    )


# The two value parsers that exact.parse_exact replaced, kept as written
# (with the int and rational parse they shared) as its reference.


def parse_number_reference(raw: Any, kind: str, name: str) -> int | Fraction:
    """An int (kind "int") or a rational ("fraction") from outside, as
    exact.parse_exact read it before it took every kind."""
    accepted = (str, int) if kind == "int" else (str, int, Fraction)
    if isinstance(raw, bool) or not isinstance(raw, accepted):
        raise ValueError(f"{name}: expected {kind}, got {type(raw).__name__}")
    # One change since: text with more digits on one side of its "/" than
    # str() prints is refused by name, its digits not echoed.
    limit = sys.get_int_max_str_digits()
    if isinstance(raw, str) and limit:
        for part in raw.split("/"):
            if len([c for c in part if c.isdigit()]) > limit:
                raise ValueError(f"{name} has more than {limit} digits to print")
    try:
        if kind == "int":
            return int(raw)
        if isinstance(raw, (int, Fraction)):
            return Fraction(raw)
        text = raw.strip()
        if "/" in text:
            num, den = text.split("/", 1)
            return Fraction(int(num.strip()), int(den.strip()))
        return Fraction(int(text))
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"{name}: expected {kind}, got {raw!r}") from None


def parse_value_reference(subcommand: str, spec, raw: Any) -> Any:
    """A parameter's value from a flag, a config file or a replay override,
    as cli._parse_value read it; spec has the name and kind of a cli.Param."""
    name = f"{subcommand}: parameter {spec.name}"
    if spec.kind == "path":
        if not isinstance(raw, (str, os.PathLike)):
            raise ValueError(f"{name}: expected path, got {type(raw).__name__}")
        return Path(raw)
    if spec.kind == "intlist":
        if isinstance(raw, str):
            raw = [part for part in raw.split(",") if part.strip()]
        elif not isinstance(raw, (list, tuple)):
            raw = [raw]
        return tuple(parse_number_reference(v, "int", name) for v in raw)
    return parse_number_reference(raw, spec.kind, name)


_JSON_TYPES = {"object": dict, "list": (list, tuple), "string": str}


def checked_reference(raw: Any, kind: str, name: str) -> Any:
    """A certificate value of the given kind, as certify._checked read it:
    "int" and "fraction" parsed strictly, "object", "list" and "string"
    only checked."""
    if kind in ("int", "fraction"):
        return parse_number_reference(raw, kind, name)
    if not isinstance(raw, _JSON_TYPES[kind]):
        raise ValueError(f"{name}: expected {kind}, got {type(raw).__name__}")
    return raw


# The bounded rational printer that exact.render_exact replaced
# (certify._printable_fraction, with the fraction_str it called written
# out), and the rule by which it and json's str() for ints printed a report.


def printable_fraction_reference(x: Fraction | int, field: str) -> str:
    """x as p or p/q in lowest terms for the report field that prints it,
    as certify._printable_fraction spelled it through exact.fraction_str.
    When str() refuses its numerator or denominator (more digits than
    sys.get_int_max_str_digits()), the ValueError names the field."""
    x = Fraction(x)
    try:
        return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"
    except ValueError:
        limit = sys.get_int_max_str_digits()
        raise ValueError(f"{field} has more than {limit} digits to print") from None


def render_reference(value: Any, name: str) -> Any:
    """value as a report printed it: a Fraction through
    printable_fraction_reference, an int as is once str() prints it (or
    the same error naming its field), a tuple or list as a list and a dict
    entry by entry, each under its innermost key."""
    if isinstance(value, dict):
        return {key: render_reference(item, key) for key, item in value.items()}
    if isinstance(value, (tuple, list)):
        return [render_reference(item, name) for item in value]
    if isinstance(value, Fraction):
        return printable_fraction_reference(value, name)
    if isinstance(value, int):
        try:
            str(value)
        except ValueError:
            limit = sys.get_int_max_str_digits()
            raise ValueError(f"{name} has more than {limit} digits to print") from None
    return value
