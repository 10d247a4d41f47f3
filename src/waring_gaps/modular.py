"""Counting solutions of diagonal power congruences.

For a modulus M, the profile r(m) counts the tuples (x_1, ..., x_ell) in
(Z/M)^ell with x_1^ell + ... + x_ell^ell = m.  Profiles are produced by
cyclic convolution of the histogram of ell-th power residues, glued
across coprime moduli by the Chinese remainder theorem, and searched for
residues whose windowed counts are small relative to M^(ell-1).
Everything is exact: counts are plain integers, qualities are reduced
fractions, and no floating point appears anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from pathlib import Path
from typing import Iterable

from .exact import fraction_str


@dataclass(frozen=True)
class PowerHistogram:
    """How often each residue arises as an ell-th power mod M."""

    ell: int
    modulus: int
    counts: tuple[int, ...]

    def __post_init__(self) -> None:
        if sum(self.counts) != self.modulus:
            raise ValueError("histogram mass must equal the modulus")
        if self.counts[0] < 1:
            raise ValueError("the zero residue is always hit by x = 0")

    def as_dict(self) -> dict[int, int]:
        return {v: c for v, c in enumerate(self.counts) if c}


@dataclass(frozen=True)
class ResidueProfile:
    """Exact solution counts r(m) for every residue m mod M."""

    ell: int
    modulus: int
    counts: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.counts) != self.modulus:
            raise ValueError("profile length must equal the modulus")
        if sum(self.counts) != self.modulus**self.ell:
            raise ValueError("profile mass must equal M^ell")

    def r(self, m: int) -> int:
        """Count at m, reduced mod M so windowed lookups may wrap."""
        return self.counts[m % self.modulus]


def power_histogram(ell: int, modulus: int) -> PowerHistogram:
    """Histogram of x^ell mod M over a single pass x = 0 .. M-1."""
    if ell < 1:
        raise ValueError("ell must be positive")
    if modulus < 1:
        raise ValueError("modulus must be positive")
    counts = [0] * modulus
    for x in range(modulus):
        counts[pow(x, ell, modulus)] += 1
    return PowerHistogram(ell=ell, modulus=modulus, counts=tuple(counts))


def residue_counts(ell: int, modulus: int) -> ResidueProfile:
    """Full profile via ell-1 cyclic convolutions of the power histogram.

    Convolution is the naive quadratic one over exact integers; moduli
    stay small enough here that exactness is worth far more than speed.
    """
    hist = power_histogram(ell, modulus).counts
    support = [(v, c) for v, c in enumerate(hist) if c]
    cur = list(hist)
    for _ in range(ell - 1):
        nxt = [0] * modulus
        for v, c in support:
            for m, value in enumerate(cur):
                if value:
                    nxt[(m + v) % modulus] += value * c
        cur = nxt
    return ResidueProfile(ell=ell, modulus=modulus, counts=tuple(cur))


def crt_combine(p1: ResidueProfile, p2: ResidueProfile) -> ResidueProfile:
    """Profile mod M1*M2 from coprime factors: r(m) = r1(m mod M1) * r2(m mod M2)."""
    if p1.ell != p2.ell:
        raise ValueError("profiles must share the exponent")
    if gcd(p1.modulus, p2.modulus) != 1:
        raise ValueError(
            f"moduli {p1.modulus} and {p2.modulus} are not coprime"
        )
    modulus = p1.modulus * p2.modulus
    counts = tuple(
        p1.counts[m % p1.modulus] * p2.counts[m % p2.modulus] for m in range(modulus)
    )
    return ResidueProfile(ell=p1.ell, modulus=modulus, counts=counts)


def crt_fold(profiles: Iterable[ResidueProfile]) -> ResidueProfile:
    """Profile modulo the product of pairwise coprime moduli, folded left to
    right with crt_combine."""
    combined: ResidueProfile | None = None
    for profile in profiles:
        combined = profile if combined is None else crt_combine(combined, profile)
    if combined is None:
        raise ValueError("need at least one modulus")
    return combined


@dataclass(frozen=True)
class GapModulusResult:
    """Best residue window found by the modulus search.

    Qualities are exact ratios r / M^(ell-1); the window quality is the
    worst ratio over the K1 consecutive residues starting at m.
    """

    ell: int
    modulus: int
    residue: int
    window: int
    factors: tuple[int, ...]
    per_window_quality: tuple[Fraction, ...]
    global_quality: Fraction
    meets_small_count: bool

    def to_json_dict(self) -> dict:
        return {
            "ell": self.ell,
            "M": self.modulus,
            "m": self.residue,
            "K1": self.window,
            "factors": list(self.factors),
            "per_k_quality": [fraction_str(q) for q in self.per_window_quality],
            "global_quality": fraction_str(self.global_quality),
            "meets_iii": self.meets_small_count,
        }


def _coprime_products(pool: list[int], bound: int) -> list[tuple[int, tuple[int, ...]]]:
    """All products of pairwise-coprime pool subsets up to bound, ascending."""
    items = sorted(set(pool))
    found: dict[int, tuple[int, ...]] = {}

    def extend(index: int, product: int, factors: tuple[int, ...]) -> None:
        if factors:
            found.setdefault(product, factors)
        for j in range(index, len(items)):
            nxt = items[j]
            if product * nxt > bound:
                break
            if gcd(product, nxt) == 1:
                extend(j + 1, product * nxt, factors + (nxt,))

    extend(0, 1, ())
    return sorted(found.items())


def search_gap_modulus(
    ell: int,
    window: int,
    moduli_pool: list[int] | tuple[int, ...],
    product_bound: int | None = None,
) -> GapModulusResult | None:
    """Search pool elements and their coprime products for a small window.

    Candidates are scanned in nondecreasing product order; for each the
    residue m minimizing max(r(m+k)) over 0 <= k < window is found, ties
    broken by smaller modulus then smaller residue.  Returns the overall
    best candidate if its window quality is at most 1/(2*window), else
    None.
    """
    if window < 1:
        raise ValueError("window must be positive")
    pool = [int(m) for m in moduli_pool]
    if not pool:
        raise ValueError("moduli pool must be nonempty")
    if any(m < 1 for m in pool):
        raise ValueError("pool moduli must be positive")
    if product_bound is None:
        product_bound = max(pool)

    profiles: dict[int, ResidueProfile] = {}
    best: tuple[Fraction, int, int, ResidueProfile, tuple[int, ...]] | None = None
    for modulus, factors in _coprime_products(pool, product_bound):
        for f in factors:
            if f not in profiles:
                profiles[f] = residue_counts(ell, f)
        profile = crt_fold(profiles[f] for f in factors)
        counts = profile.counts
        best_m, best_worst = 0, None
        for m in range(modulus):
            worst = max(counts[(m + k) % modulus] for k in range(window))
            if best_worst is None or worst < best_worst:
                best_m, best_worst = m, worst
        assert best_worst is not None
        quality = Fraction(best_worst, modulus ** (ell - 1))
        if best is None or quality < best[0]:
            best = (quality, modulus, best_m, profile, factors)

    if best is None:
        return None
    quality, modulus, residue, profile, factors = best
    if quality > Fraction(1, 2 * window):
        return None
    denom = modulus ** (ell - 1)
    return GapModulusResult(
        ell=ell,
        modulus=modulus,
        residue=residue,
        window=window,
        factors=factors,
        per_window_quality=tuple(
            Fraction(profile.counts[(residue + k) % modulus], denom) for k in range(window)
        ),
        global_quality=Fraction(max(profile.counts), denom),
        meets_small_count=True,
    )


def write_profile_csv(profile: ResidueProfile, path: str | Path) -> None:
    """Write the profile as CSV with header m,count."""
    with open(path, "w", newline="") as fh:
        fh.write("m,count\n")
        for m, c in enumerate(profile.counts):
            fh.write(f"{m},{c}\n")
