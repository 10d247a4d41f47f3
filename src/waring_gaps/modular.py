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

from .exact import render_exact
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


def _glue(ell: int, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Counts modulo len(a) * len(b), coprime lengths: entry m is
    a[m mod len(a)] * b[m mod len(b)], as _dtype of the product modulus."""
    out = np.empty((len(b), len(a)), dtype=_dtype(ell, len(a) * len(b)))
    out[...] = a  # row i holds m = i*len(a) .. (i+1)*len(a) - 1
    out = out.reshape(len(a), len(b))  # row j holds m = j*len(b) .. (j+1)*len(b) - 1
    out *= b.astype(out.dtype, copy=False)
    return out.reshape(-1)


def _counts(ell: int, modulus: int, cache: dict[int, np.ndarray]) -> np.ndarray:
    """Counts mod M, glued from those of each prime-power factor q of M, which
    are ell-1 linear convolutions of the power histogram mod q, each folded
    mod q so that no partial sum exceeds q^ell.  cache keeps them by q."""
    _check_sizes(ell, modulus)
    counts, p = None, 1
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
        counts = cache[q] if counts is None else _glue(ell, counts, cache[q])
    return np.ones(1, dtype=np.int64) if counts is None else counts


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
    ell, counts = profiles[0].ell, np.array(profiles[0].counts, dtype=object)
    for profile in profiles[1:]:
        if profile.ell != ell:
            raise ValueError("profiles must share the exponent")
        if gcd(len(counts), profile.modulus) != 1:
            raise ValueError(f"moduli {len(counts)} and {profile.modulus} are not coprime")
        counts = _glue(ell, counts, np.array(profile.counts, dtype=object))
    return ResidueProfile(ell=ell, modulus=len(counts), counts=tuple(counts.tolist()))


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
        return render_exact({
            "ell": self.ell,
            "M": self.modulus,
            "m": self.residue,
            "K1": self.window,
            "factors": self.factors,
            "per_k_quality": self.per_window_quality,
            "global_quality": self.global_quality,
            "meets_iii": self.meets_small_count,
        })


def search_gap_modulus(
    ell: int, window: int, moduli_pool: list[int] | tuple[int, ...], product_bound: int | None = None
) -> GapModulusResult | None:
    """Search products of pairwise-coprime pool subsets for a small window.

    One depth-first walk over the subsets of the sorted distinct pool, each
    child glued once from its parent's counts; a product reached twice keeps
    its first factors.  Each candidate's residue m minimizes max(r(m+k)) over
    0 <= k < window (the smaller residue on ties), and the least (quality,
    modulus) wins.  Returns it if its quality is at most 1/(2*window), else None.
    """
    if window < 1:
        raise ValueError("window must be positive")
    pool = [int(m) for m in moduli_pool]
    if not pool:
        raise ValueError("moduli pool must be nonempty")
    if any(m < 1 for m in pool):
        raise ValueError("pool moduli must be positive")
    items = sorted(set(pool))
    bound = max(pool) if product_bound is None else product_bound
    cache, element, scratch = {}, {}, {}  # counts by prime power, by pool element; buffers by dtype
    best: tuple[int, int, int, int, np.ndarray, tuple[int, ...]] | None = None

    def visit(index: int, modulus: int, counts: np.ndarray | None, factors: tuple[int, ...]) -> None:
        nonlocal best, bound
        if counts is not None:
            # worst[m] = max r(m + k) over k < window; shifts past M repeat, so each
            # shift is one slice of the counts extended by their first span - 1.  Both
            # sit in one buffer kept across candidates, as fresh arrays page-fault
            span = min(window, modulus)
            buf = scratch.get(counts.dtype)
            if buf is None or len(buf) < 2 * modulus + span:
                buf = scratch[counts.dtype] = np.empty(2 * (2 * modulus + span), dtype=counts.dtype)
            worst, wrapped = buf[:modulus], buf[modulus : 2 * modulus + span - 1]
            worst[:] = wrapped[:modulus] = counts
            wrapped[modulus:] = counts[: span - 1]
            for k in range(1, span):
                np.maximum(worst, wrapped[k : k + modulus], out=worst)
            residue = int(np.argmin(worst))
            top = int(worst[residue])
            # the least (quality, M) wins, the qualities top / M^(ell-1) compared as integers
            denom = modulus ** (ell - 1)
            if best is None or (top * best[1], modulus) < (best[0] * denom, best[2]):
                best = (top, denom, modulus, residue, counts, factors)
                if top == 0:  # nothing from M on wins; smaller products pass only smaller ones
                    bound = modulus - 1
        for j in range(index, len(items)):
            nxt = items[j]
            if modulus * nxt > bound:
                break
            if gcd(modulus, nxt) == 1:
                if nxt not in element:
                    element[nxt] = _counts(ell, nxt, cache)
                glued = element[nxt] if counts is None else _glue(ell, counts, element[nxt])
                visit(j + 1, modulus * nxt, glued, factors + (nxt,))

    visit(0, 1, None, ())
    if best is None or best[0] * 2 * window > best[1]:
        return None
    _, denom, modulus, residue, counts, factors = best
    profile = ResidueProfile(ell=ell, modulus=modulus, counts=tuple(counts.tolist()))
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
