"""Independent brute-force oracles.

Everything here counts or sums by direct enumeration, deliberately
sharing no code with the library paths it is used to check.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

import numpy as np


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

    a^p is formed once per a and d^q once per d, shared across all a; the
    comparisons made are exactly d^q < a^p.
    """
    p, q = exponent.numerator, exponent.denominator
    d_powers: list[int] = []
    members = []
    for a in range(1, limit + 1):
        a_power = a**p
        ok = True
        d = 0
        while True:
            if d == len(d_powers):
                d_powers.append(d**q)
            if not d_powers[d] < a_power:
                break
            n = a - d
            if n >= 0 and counts[n] != 0:
                ok = False
                break
            d += 1
        if ok:
            members.append(a)
    return members


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
