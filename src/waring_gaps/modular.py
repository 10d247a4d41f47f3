"""Counting solutions of diagonal power congruences.

For a modulus M, the profile r(m) counts the tuples (x_1, ..., x_ell) in
(Z/M)^ell with x_1^ell + ... + x_ell^ell = m.  The count is multiplicative
over coprime moduli, so a profile is glued by the Chinese remainder theorem
from one profile per prime-power factor of M.  Searches look for residues
whose windowed counts are small against M^(ell-1).  Counts are exact
integers (int64 only while M^ell < 2^63 bounds them) and qualities fractions.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from pathlib import Path
from typing import Iterable

import numpy as np

from .exact import fraction_str
from .repcount import csv_pieces, write_output


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


def _dtype(ell: int, modulus: int) -> type:
    """int64 while every count, at most modulus^ell, fits; exact Python ints beyond."""
    return np.int64 if modulus**ell < 2**63 else object


def _check_sizes(ell: int, modulus: int) -> None:
    if ell < 1:
        raise ValueError("ell must be positive")
    if modulus < 1:
        raise ValueError("modulus must be positive")


def power_histogram(ell: int, modulus: int) -> PowerHistogram:
    """Histogram of x^ell mod M over a single pass x = 0 .. M-1."""
    _check_sizes(ell, modulus)
    counts = np.bincount([pow(x, ell, modulus) for x in range(modulus)], minlength=modulus)
    return PowerHistogram(ell=ell, modulus=modulus, counts=tuple(counts.tolist()))


def _crt_product(ell: int, parts: list[np.ndarray]) -> np.ndarray:
    """Counts modulo the product of the pairwise coprime lengths of parts,
    glued left to right as r(m) = r1(m mod M1) * r2(m mod M2)."""
    counts = np.ones(1, dtype=np.int64)
    for part in parts:
        dtype = _dtype(ell, len(counts) * len(part))
        # entry m of each tile is the count at m mod that factor's modulus
        counts = np.tile(counts.astype(dtype), len(part)) * np.tile(part.astype(dtype), len(counts))
    return counts


def _counts(ell: int, modulus: int, cache: dict[int, np.ndarray]) -> np.ndarray:
    """Counts mod M, glued from those of each prime-power factor q of M, which
    are ell-1 linear convolutions of the power histogram mod q, each folded
    mod q so that no partial sum exceeds q^ell.  cache keeps them by q."""
    _check_sizes(ell, modulus)
    parts, p = [], 1
    while modulus > 1:
        p, q = (p + 1 if (p + 1) ** 2 <= modulus else modulus), 1
        if modulus % p:
            continue
        while modulus % p == 0:
            modulus, q = modulus // p, q * p
        if q not in cache:
            cache[q] = hist = np.array(power_histogram(ell, q).counts, dtype=_dtype(ell, q))
            for _ in range(ell - 1):
                full = np.convolve(cache[q], hist)
                full[: q - 1] += full[q:]
                cache[q] = full[:q]
        parts.append(cache[q])
    return _crt_product(ell, parts)


def residue_counts(ell: int, modulus: int) -> ResidueProfile:
    """Full profile, glued from the profiles of the prime-power factors of M:
    O(q^2) work in C per prime power q, and O(M) per factor to glue."""
    return ResidueProfile(ell=ell, modulus=modulus, counts=tuple(_counts(ell, modulus, {}).tolist()))


def crt_combine(p1: ResidueProfile, p2: ResidueProfile) -> ResidueProfile:
    """Profile mod M1*M2 from coprime factors: r(m) = r1(m mod M1) * r2(m mod M2)."""
    return crt_fold((p1, p2))


def crt_fold(profiles: Iterable[ResidueProfile]) -> ResidueProfile:
    """Profile modulo the product of pairwise coprime moduli, taken left to right."""
    profiles = list(profiles)
    if not profiles:
        raise ValueError("need at least one modulus")
    ell, modulus = profiles[0].ell, profiles[0].modulus
    for profile in profiles[1:]:
        if profile.ell != ell:
            raise ValueError("profiles must share the exponent")
        if gcd(modulus, profile.modulus) != 1:
            raise ValueError(f"moduli {modulus} and {profile.modulus} are not coprime")
        modulus *= profile.modulus
    counts = _crt_product(ell, [np.array(p.counts, dtype=object) for p in profiles])
    return ResidueProfile(ell=ell, modulus=modulus, counts=tuple(counts.tolist()))


@dataclass(frozen=True)
class GapModulusResult:
    """Best residue window found by the modulus search; qualities are exact
    ratios r / M^(ell-1) over the K1 residues from m, and over all residues."""

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
    ell: int, window: int, moduli_pool: list[int] | tuple[int, ...], product_bound: int | None = None
) -> GapModulusResult | None:
    """Search pool elements and their coprime products for a small window.

    Candidates go in ascending product order; for each, the residue m
    minimizing max(r(m+k)) over 0 <= k < window is found, ties broken by
    smaller modulus then smaller residue.  Returns the best candidate if its
    window quality is at most 1/(2*window), else None.
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
    cache: dict[int, np.ndarray] = {}
    best: tuple[Fraction, int, int, np.ndarray, tuple[int, ...]] | None = None
    for modulus, factors in _coprime_products(pool, product_bound):
        counts = _counts(ell, modulus, cache)
        # worst[m] = max r(m + k) over k < window; shifts past M repeat, so
        # each shift is one slice of the counts extended by their first span - 1
        span = min(window, modulus)
        wrapped = np.concatenate((counts, counts[: span - 1]))
        worst = counts.copy()
        for k in range(1, span):
            np.maximum(worst, wrapped[k : k + modulus], out=worst)
        residue = int(np.argmin(worst))
        quality = Fraction(int(worst[residue]), modulus ** (ell - 1))
        if best is None or quality < best[0]:
            best = (quality, modulus, residue, counts, factors)

    if best is None or best[0] > Fraction(1, 2 * window):
        return None
    _, modulus, residue, counts, factors = best
    profile = ResidueProfile(ell=ell, modulus=modulus, counts=tuple(counts.tolist()))
    denom = modulus ** (ell - 1)
    return GapModulusResult(
        ell=ell, modulus=modulus, residue=residue, window=window, factors=factors,
        per_window_quality=tuple(Fraction(profile.r(residue + k), denom) for k in range(window)),
        global_quality=Fraction(max(profile.counts), denom), meets_small_count=True,
    )


def write_profile_csv(profile: ResidueProfile, path: str | Path) -> None:
    """Write the profile as CSV with header m,count."""
    counts = np.array(profile.counts, dtype=_dtype(profile.ell, profile.modulus))
    columns = [np.arange(profile.modulus), counts]
    write_output(path, csv_pieces("m,count", columns))
