"""Integer power series convergent on |z| <= 1/2, with certified tails.

A series here carries its coefficients (exact integers), a linear growth
certificate c with |a_n| <= c*(n+1) checked on every access, and enough
provenance to serialize witnesses.  Real numbers only ever appear as
enclosures: pairs of exact rationals [lo, hi] produced together with the
majorant that justifies them.  Gap detection is three-valued: a tail
clause compared against an enclosure can be definitely true, definitely
false, or undecided at the chosen cutoff, and the three outcomes are
never conflated.
"""

from __future__ import annotations

import functools
import operator
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Callable, Iterator, Sequence

import numpy as np

from .exact import fraction_str
from .repcount import RepTable


class GrowthCertificateError(ArithmeticError):
    """A coefficient violated its declared linear growth bound."""


class CoverageError(LookupError):
    """A coefficient beyond the accessor's known range was requested."""


@dataclass(frozen=True)
class Enclosure:
    """Two exact rationals lo <= hi certifying that a real lies between them."""

    lo: Fraction
    hi: Fraction

    def __post_init__(self) -> None:
        if self.lo > self.hi:
            raise ValueError(f"empty enclosure [{self.lo}, {self.hi}]")

    @property
    def width(self) -> Fraction:
        return self.hi - self.lo

    def contains_enclosure(self, other: "Enclosure") -> bool:
        return self.lo <= other.lo and other.hi <= self.hi

    def intersects(self, other: "Enclosure") -> bool:
        return self.lo <= other.hi and other.lo <= self.hi

    def __add__(self, other: "Enclosure") -> "Enclosure":
        return Enclosure(self.lo + other.lo, self.hi + other.hi)

    def __mul__(self, other: "Enclosure") -> "Enclosure":
        products = (
            self.lo * other.lo,
            self.lo * other.hi,
            self.hi * other.lo,
            self.hi * other.hi,
        )
        return Enclosure(min(products), max(products))

    def scale(self, k: int | Fraction) -> "Enclosure":
        k = Fraction(k)
        if k >= 0:
            return Enclosure(self.lo * k, self.hi * k)
        return Enclosure(self.hi * k, self.lo * k)

    def power(self, exponent: int) -> "Enclosure":
        if exponent < 0:
            raise ValueError("exponent must be nonnegative")
        result = Enclosure(Fraction(1), Fraction(1))
        for _ in range(exponent):
            result = result * self
        return result

    def to_json_dict(self) -> dict:
        return {"lo": fraction_str(self.lo), "hi": fraction_str(self.hi)}


class HalfFunction:
    """Coefficient accessor with a growth certificate and provenance label.

    coverage is the largest index whose coefficient is known (None when
    every index is); nonnegative marks series certified to have no
    negative coefficient, which sharpens evaluation enclosures.  nonzero
    is the required sorted index of every position, up to coverage, that
    may hold a nonzero coefficient: a table's nonzero counts, a
    polynomial's support, or the union of a combination's parts.  It may
    list positions whose coefficient is zero, never omit one that is not.
    """

    def __init__(
        self,
        coefficient_fn: Callable[[int], int],
        c: Fraction,
        label: str,
        coverage: int | None = None,
        nonnegative: bool = False,
        *,
        nonzero: Sequence[int] | np.ndarray,
    ) -> None:
        c = Fraction(c)
        if c < 0:
            raise ValueError("growth certificate must be nonnegative")
        self._fn = coefficient_fn
        self.c = c
        self._c_num, self._c_den = c.numerator, c.denominator
        self.label = label
        self.coverage = coverage
        self.nonnegative = nonnegative
        self._nonzero = np.asarray(nonzero, dtype=np.int64)

    def __repr__(self) -> str:
        return f"HalfFunction({self.label!r}, c={self.c})"

    @classmethod
    def from_table(cls, table: RepTable) -> "HalfFunction":
        ell, s = table.params.ell, table.params.s
        return cls(
            coefficient_fn=table.count,
            c=Fraction(1 << ell),
            label=f"f_{ell}_{s}",
            coverage=table.limit,
            nonnegative=True,
            nonzero=table.nonzero,
        )

    @classmethod
    def constant(cls, value: int) -> "HalfFunction":
        value = int(value)
        return cls(
            coefficient_fn=lambda n: value if n == 0 else 0,
            c=Fraction(abs(value)),
            label=f"const_{value}",
            nonnegative=value >= 0,
            nonzero=(0,) if value else (),
        )

    @classmethod
    def from_coefficients(
        cls,
        values: Sequence[int] | dict[int, int],
        c: Fraction | None = None,
        label: str = "poly",
    ) -> "HalfFunction":
        """Polynomial given densely or as an index -> coefficient map."""
        if isinstance(values, dict):
            entries = {int(n): int(a) for n, a in values.items() if a}
        else:
            entries = {n: int(a) for n, a in enumerate(values) if a}
        if any(n < 0 for n in entries):
            raise ValueError("coefficient indices must be nonnegative")
        if c is None:
            c = max((Fraction(abs(a), n + 1) for n, a in entries.items()), default=Fraction(0))
        return cls(
            coefficient_fn=lambda n: entries.get(n, 0),
            c=Fraction(c),
            label=label,
            nonnegative=all(a >= 0 for a in entries.values()),
            nonzero=sorted(entries),
        )

    def coefficient(self, n: int) -> int:
        """Exact coefficient at n; checks coverage and the growth bound."""
        if n < 0:
            raise IndexError("coefficient index must be nonnegative")
        if self.coverage is not None and n > self.coverage:
            raise CoverageError(
                f"{self.label}: coefficient {n} beyond coverage {self.coverage}"
            )
        a = int(self._fn(n))
        if abs(a) * self._c_den > self._c_num * (n + 1):
            raise GrowthCertificateError(
                f"{self.label}: |a_{n}| = {abs(a)} exceeds c*(n+1) = {self.c * (n + 1)}"
            )
        return a

    def _nonzero_terms(self, lo: int, hi: int | None) -> Iterator[tuple[int, int]]:
        """(k, a_k) for each k in [lo, hi) with a nonzero exact coefficient,
        ascending; hi None means no upper end.  Only the index's positions
        are read, each through coefficient.  A window that passes coverage
        reads max(lo, coverage + 1) last, which raises CoverageError after
        every earlier nonzero."""
        stop = hi
        if self.coverage is not None and (hi is None or hi > self.coverage + 1):
            stop = self.coverage + 1
        i = np.searchsorted(self._nonzero, lo)
        j = None if stop is None else np.searchsorted(self._nonzero, stop)
        for k in map(int, self._nonzero[i:j]):
            a = self.coefficient(k)
            if a:
                yield k, a
        if stop != hi and (hi is None or lo < hi):
            self.coefficient(max(lo, stop))

    def tail_majorant_start(self, n: int) -> int | None:
        """Smallest index >= n not certified to hold a zero coefficient: the
        first term of the walk from n.  Past coverage nothing is certified,
        so the answer is at most max(n, coverage + 1); None means the series
        is certified zero from n on.  Every coefficient between n and the
        result is exactly zero, so the result is a sound start for a tail
        majorant.
        """
        end = None if self.coverage is None else max(n, self.coverage + 1)
        return next((k for k, _ in self._nonzero_terms(n, end)), end)


def linear_combination(
    alphas: Sequence[int], parts: Sequence[HalfFunction]
) -> HalfFunction:
    """Integer combination sum(alpha_j * f_j) with certificate sum(|alpha_j| * c_j)."""
    if len(alphas) != len(parts):
        raise ValueError("alphas and parts must have equal length")
    alphas = [int(a) for a in alphas]
    c = sum((abs(a) * f.c for a, f in zip(alphas, parts)), Fraction(0))
    coverages = [f.coverage for f in parts if f.coverage is not None]
    coverage = min(coverages) if coverages else None
    nonzero = functools.reduce(np.union1d, [f._nonzero for f in parts], np.empty(0, dtype=np.int64))
    nonnegative = all(
        a >= 0 and f.nonnegative or a == 0 for a, f in zip(alphas, parts)
    )
    label = "+".join(f"{a}*{f.label}" for a, f in zip(alphas, parts)) or "zero"

    def fn(n: int) -> int:
        return sum(a * f.coefficient(n) for a, f in zip(alphas, parts) if a)

    return HalfFunction(
        coefficient_fn=fn,
        c=c,
        label=label,
        coverage=coverage,
        nonnegative=nonnegative,
        nonzero=nonzero,
    )


def tail_norm(f: HalfFunction, start: int, cutoff: int) -> Enclosure:
    """Enclose sum(|a_{start+i}| * 2^-i) for i >= 0.

    The lower end is the exact partial sum over i < cutoff - start.  The
    upper end adds the linear-growth majorant 8*c*n0, applied at the
    first index n0 >= cutoff not certified to be zero and scaled back by
    the elapsed power of two; when the series is certified zero from the
    cutoff on, the partial sum is the whole tail.
    """
    if start < 1:
        raise ValueError("start must be at least 1")
    if cutoff < start:
        raise ValueError("cutoff must not precede start")
    terms = cutoff - start
    numerator, last = 0, start
    for k, a in f._nonzero_terms(start, cutoff):
        numerator, last = (numerator << (k - last)) + abs(a), k
    lo = Fraction(numerator << (cutoff - 1 - last), 1 << (terms - 1)) if terms else Fraction(0)
    majorant_at = f.tail_majorant_start(cutoff)
    if majorant_at is None:
        return Enclosure(lo, lo)
    hi = lo + 8 * f.c * majorant_at * Fraction(1, 1 << (majorant_at - start))
    return Enclosure(lo, hi)


class Verdict(str, Enum):
    """A three-valued outcome: a mild-gap test, a certificate condition or a
    whole report.  For a mild gap, pass means n is a witness and fail a
    definite rejection."""

    PASS = "pass"
    FAIL = "fail"
    INCONCLUSIVE = "inconclusive"

    @staticmethod
    def worst(verdicts: Sequence[Verdict]) -> Verdict:
        if not verdicts:
            raise ValueError("no verdicts to combine")
        if any(v is Verdict.FAIL for v in verdicts):
            return Verdict.FAIL
        if any(v is Verdict.INCONCLUSIVE for v in verdicts):
            return Verdict.INCONCLUSIVE
        return Verdict.PASS


@dataclass(frozen=True)
class MildGapWitness:
    """Machine-checkable record that n is a mild gap point.

    gap_length coefficients from n vanish exactly, and the weighted tail
    beyond them is enclosed with upper end at most tail_bound.
    """

    function: str
    n: int
    gap_length: int
    tail_bound: Fraction
    zero_checked_up_to: int
    tail_enclosure: Enclosure

    def to_json_dict(self) -> dict:
        return {
            "function": self.function,
            "n": self.n,
            "K": self.gap_length,
            "E": fraction_str(self.tail_bound),
            "zero_checked_up_to": self.zero_checked_up_to,
            "tail_enclosure": self.tail_enclosure.to_json_dict(),
        }


@dataclass(frozen=True)
class MildGapCheck:
    """Three-valued outcome of a mild-gap test at one index."""

    verdict: Verdict
    n: int
    witness: MildGapWitness | None = None
    failed_clause: str | None = None
    detail: str = ""

    def __post_init__(self) -> None:
        if (self.verdict is Verdict.PASS) != (self.witness is not None):
            raise ValueError("a mild-gap check carries a witness exactly when it passes")

    @property
    def is_witness(self) -> bool:
        return self.verdict is Verdict.PASS


def _valid_tail_bound(gap_length: int, tail_bound: Fraction) -> Fraction:
    """The tail bound as a Fraction, once the gap length and bound are valid."""
    if gap_length < 1:
        raise ValueError("gap length must be positive")
    tail_bound = Fraction(tail_bound)
    if tail_bound <= 0:
        raise ValueError("tail bound must be positive")
    return tail_bound


def is_mild_gap(
    f: HalfFunction,
    n: int,
    gap_length: int,
    tail_bound: Fraction,
    cutoff: int | None = None,
) -> MildGapCheck:
    """Test whether n is a mild gap point of f.

    The zero clause is decided exactly.  The tail clause compares the
    bound against a tail enclosure, so it can come back inconclusive when
    the bound falls inside the enclosure; that verdict is distinct from a
    definite rejection (enclosure entirely above the bound).
    """
    tail_bound = _valid_tail_bound(gap_length, tail_bound)
    if n < 0:
        raise IndexError("index must be nonnegative")
    for k, _ in f._nonzero_terms(n, n + gap_length):
        detail = f"coefficient at {k} is nonzero"
        return MildGapCheck(Verdict.FAIL, n, failed_clause="zero-run", detail=detail)
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
    tail = tail_norm(f, start, cutoff)
    if tail.hi <= tail_bound:
        witness = MildGapWitness(
            function=f.label, n=n, gap_length=gap_length, tail_bound=tail_bound,
            zero_checked_up_to=start - 1, tail_enclosure=tail,
        )
        return MildGapCheck(Verdict.PASS, n, witness=witness)
    if tail.lo > tail_bound:
        detail = f"tail is at least {tail.lo}, above the bound {tail_bound}"
        return MildGapCheck(Verdict.FAIL, n, failed_clause="tail-norm", detail=detail)
    detail = (
        f"bound {tail_bound} falls inside the tail enclosure "
        f"[{tail.lo}, {tail.hi}] at cutoff {cutoff}"
    )
    return MildGapCheck(Verdict.INCONCLUSIVE, n, failed_clause="tail-norm", detail=detail)


@dataclass(frozen=True)
class MildGapScan:
    """Witnesses found on a half-open index range, plus undecided indices."""

    witnesses: tuple[MildGapWitness, ...]
    inconclusive: tuple[int, ...]


def scan_mild_gaps(
    f: HalfFunction,
    lo: int,
    hi: int,
    gap_length: int,
    tail_bound: Fraction,
    cutoff: int | None = None,
) -> MildGapScan:
    """All mild gap points in [lo, hi), ascending; undecided ones listed apart.

    A candidate n has its next nonzero coefficient gap_length or more past
    it, found by one searchsorted into the walk over [lo, hi + gap_length - 1).
    A window past coverage raises CoverageError once every candidate before
    coverage is checked.
    """
    if lo < 0 or hi < lo:
        raise ValueError("range must satisfy 0 <= lo <= hi")
    tail_bound = _valid_tail_bound(gap_length, tail_bound)
    if hi == lo:
        return MildGapScan(witnesses=(), inconclusive=())
    end = known = hi + gap_length - 1
    if f.coverage is not None:
        known = max(lo, min(end, f.coverage + 1))
    nonzero = np.fromiter((k for k, _ in f._nonzero_terms(lo, known)), dtype=np.int64)
    starts = np.arange(lo, min(hi, known - gap_length + 1))
    following = np.append(nonzero, known)[np.searchsorted(nonzero, starts)]
    witnesses, inconclusive = [], []
    for n in starts[following - starts >= gap_length].tolist():
        check = is_mild_gap(f, n, gap_length, tail_bound, cutoff=cutoff)
        if check.is_witness:
            witnesses.append(check.witness)
        elif check.verdict is Verdict.INCONCLUSIVE:
            inconclusive.append(n)
    if known < end:
        list(f._nonzero_terms(known, end))  # past coverage: raises CoverageError
    return MildGapScan(witnesses=tuple(witnesses), inconclusive=tuple(inconclusive))


def eval_truncated(f: HalfFunction, q: int, terms: int) -> Fraction:
    """Exact partial sum of a_k q^-k over k < terms.

    The result is reduced, and its denominator always divides q^(terms-1).
    """
    q = operator.index(q)
    if q < 2:
        raise ValueError("q must be an integer at least 2")
    if terms < 0:
        raise ValueError("terms must be nonnegative")
    if terms == 0:
        return Fraction(0)
    numerator, last = 0, 0
    for k, a in f._nonzero_terms(0, terms):
        numerator, last = numerator * q ** (k - last) + a, k
    return Fraction(numerator * q ** (terms - 1 - last), q ** (terms - 1))


def _tail_majorant(c: Fraction, q: int, start: int) -> Fraction:
    """Closed form of c * sum((k+1) * q^-k) for k >= start."""
    if c == 0:
        return Fraction(0)
    x = Fraction(1, q)
    return c * x**start * (1 + start * (1 - x)) / (1 - x) ** 2


def eval_enclosure(f: HalfFunction, q: int, terms: int) -> Enclosure:
    """Enclose f(1/q) from the first `terms` coefficients.

    The tail majorant starts not at `terms` but at the first index beyond
    it that the accessor cannot certify to be zero, so a certified gap
    tightens the enclosure.  Series certified nonnegative get a one-sided
    enclosure [T, T + tail]; general series get [T - tail, T + tail].
    """
    value = eval_truncated(f, q, terms)
    start = f.tail_majorant_start(terms)
    if start is None:
        return Enclosure(value, value)
    tail = _tail_majorant(f.c, q, start)
    if f.nonnegative:
        return Enclosure(value, value + tail)
    return Enclosure(value - tail, value + tail)
