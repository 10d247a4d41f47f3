"""Integer power series convergent on |z| <= 1/2, with certified tails.

A series here carries its nonzero coefficients (exact integers), a linear
growth certificate c with |a_n| <= c*(n+1) checked once, when the series
is built, and enough provenance to serialize witnesses.  Real numbers only
ever appear as enclosures: pairs of exact rationals [lo, hi] produced
together with the majorant that justifies them.  Gap detection is
three-valued: a tail clause compared against an enclosure can be
definitely true, definitely false, or undecided at the chosen cutoff, and
the three outcomes are never conflated.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Iterable, NoReturn, Sequence

import numpy as np

from .exact import render_exact
from .repcount import RepTable


# A tail majorant starts at most this far past the index it is asked for.
# The coefficients in between are zero, so a majorant started anywhere among
# them is sound; it only grows wider the earlier it starts.  The cap keeps its
# numbers to about this many bits when the next nonzero term is astronomically
# far away.
_MAJORANT_REACH = 1 << 12


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
        return render_exact({"lo": self.lo, "hi": self.hi})


class HalfFunction:
    """A power series held as its nonzero terms, with a growth certificate
    and a provenance label.

    positions is the sorted int64 index of every position, up to coverage,
    whose coefficient is nonzero, and values holds those coefficients in the
    same order: a table's counts, or Python ints in an object array.  Every
    other coefficient up to coverage is zero.  coverage is the largest index
    whose coefficient is known (None when every index is); nonnegative marks
    series certified to have no negative coefficient, which sharpens
    evaluation enclosures.  c certifies |a_n| <= c*(n+1) for every n, which
    every tail majorant relies on.  The constructor takes c as given; each
    named constructor makes it hold: RepTable checks a table's counts,
    from_coefficients checks every entry, and a combination inherits the
    bound from its parts.
    """

    def __init__(
        self,
        positions: Sequence[int] | np.ndarray,
        values: Sequence[int] | np.ndarray,
        c: Fraction,
        label: str,
        coverage: int | None = None,
        nonnegative: bool = False,
    ) -> None:
        c = Fraction(c)
        if c < 0:
            raise ValueError("growth certificate must be nonnegative")
        self.positions = np.asarray(positions, dtype=np.int64)
        self.values = values if isinstance(values, np.ndarray) else np.array(values, dtype=object)
        self.c = c
        self._c_num, self._c_den = c.numerator, c.denominator
        self.label = label
        self.coverage = coverage
        self.nonnegative = nonnegative

    def __repr__(self) -> str:
        return f"HalfFunction({self.label!r}, c={self.c})"

    @classmethod
    def from_table(cls, table: RepTable) -> "HalfFunction":
        ell, s = table.params.ell, table.params.s
        return cls(table.nonzero, table.nonzero_counts, Fraction(1 << ell), f"f_{ell}_{s}",
                   coverage=table.limit, nonnegative=True)

    @classmethod
    def constant(cls, value: int) -> "HalfFunction":
        value = int(value)
        return cls.from_coefficients({0: value}, c=Fraction(abs(value)), label=f"const_{value}")

    @classmethod
    def from_coefficients(
        cls,
        values: Sequence[int] | dict[int, int],
        c: Fraction | None = None,
        label: str = "poly",
    ) -> "HalfFunction":
        """Polynomial given densely or as an index -> coefficient map.  A
        given c is checked against every entry, in ascending index order."""
        if isinstance(values, dict):
            entries = {int(n): int(a) for n, a in values.items() if a}
        else:
            entries = {n: int(a) for n, a in enumerate(values) if a}
        if any(n < 0 for n in entries):
            raise ValueError("coefficient indices must be nonnegative")
        positions = sorted(entries)
        coefficients = [entries[n] for n in positions]
        if c is None:
            c = max((Fraction(abs(a), n + 1) for n, a in entries.items()), default=Fraction(0))
        f = cls(positions, coefficients, c, label, nonnegative=all(a >= 0 for a in coefficients))
        for n, a in zip(positions, coefficients):
            if abs(a) * f._c_den > f._c_num * (n + 1):
                raise GrowthCertificateError(
                    f"{label}: |a_{n}| = {abs(a)} exceeds c*(n+1) = {f.c * (n + 1)}"
                )
        return f

    def coefficient(self, n: int) -> int:
        """Exact coefficient at n; checks coverage."""
        if n < 0 or self.coverage is not None and n > self.coverage:
            self._refuse(n)
        values = self._terms(n, n + 1)[1]
        return values[0] if values else 0

    def _refuse(self, n: int) -> NoReturn:
        """Raise what reading the coefficient at n raises, for an n that is
        negative (IndexError) or past coverage (CoverageError)."""
        if n < 0:
            raise IndexError("coefficient index must be nonnegative")
        raise CoverageError(f"{self.label}: coefficient {n} beyond coverage {self.coverage}")

    def _span(self, lo: int, hi: int | None = None) -> slice:
        """The slice of positions and values that holds the nonzero terms in
        [lo, hi); hi None means no upper end."""
        i = np.searchsorted(self.positions, lo)
        j = None if hi is None else np.searchsorted(self.positions, hi)
        return slice(i, j)

    def _terms(self, lo: int, hi: int | None = None) -> tuple[list[int], list[int]]:
        """The positions and coefficients, as Python ints, of the nonzero
        terms in [lo, hi), ascending; hi None means no upper end."""
        span = self._span(lo, hi)
        return self.positions[span].tolist(), self.values[span].tolist()

    def tail_majorant_start(self, n: int) -> int | None:
        """Smallest index >= n not certified to hold a zero coefficient: the
        first nonzero term from n on, else, as nothing past coverage is
        certified, max(n, coverage + 1); None means the series is certified
        zero from n on.  Every coefficient between n and the result is
        exactly zero, so the result is a sound start for a tail majorant.
        """
        i = int(np.searchsorted(self.positions, n))
        if i < self.positions.size:
            return int(self.positions[i])
        return None if self.coverage is None else max(n, self.coverage + 1)


def linear_combination(
    alphas: Sequence[int], parts: Sequence[HalfFunction]
) -> HalfFunction:
    """Integer combination sum(alpha_j * f_j) with certificate sum(|alpha_j| * c_j).

    The parts' terms up to the least coverage are merged in exact integers,
    and terms that cancel are dropped.  The certificate holds by the
    triangle inequality, since each part's does."""
    if len(alphas) != len(parts):
        raise ValueError("alphas and parts must have equal length")
    alphas = [int(a) for a in alphas]
    c = sum((abs(a) * f.c for a, f in zip(alphas, parts)), Fraction(0))
    coverages = [f.coverage for f in parts if f.coverage is not None]
    coverage = min(coverages) if coverages else None
    nonnegative = all(a >= 0 and f.nonnegative or a == 0 for a, f in zip(alphas, parts))
    label = "+".join(f"{a}*{f.label}" for a, f in zip(alphas, parts)) or "zero"
    terms: dict[int, int] = {}
    for a, f in zip(alphas, parts):
        for k, value in zip(*f._terms(0, None if coverage is None else coverage + 1)):
            terms[k] = terms.get(k, 0) + a * value
    positions = sorted(k for k, value in terms.items() if value)
    return HalfFunction(positions, [terms[k] for k in positions], c, label, coverage, nonnegative)


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
        return render_exact({
            "function": self.function,
            "n": self.n,
            "K": self.gap_length,
            "E": self.tail_bound,
            "zero_checked_up_to": self.zero_checked_up_to,
            "tail_enclosure": self.tail_enclosure.to_json_dict(),
        })


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


def tail_norm(
    f: HalfFunction, start: int | Sequence[int], cutoff: int | Sequence[int]
) -> Enclosure | list[Enclosure]:
    """Enclose sum(|a_{start+i}| * 2^-i) for i >= 0: one Enclosure for an
    int start and cutoff, else a list with one for each (start, cutoff) of
    two equal-length sequences.

    The lower end is the exact partial sum over i < cutoff - start.  The
    upper end adds the linear-growth majorant 8*c*n0, applied at the
    first index n0 >= cutoff not certified to be zero, or at cutoff +
    _MAJORANT_REACH if that comes first, and scaled back by the elapsed
    power of two; when the series is certified zero from the cutoff on,
    the partial sum is the whole tail.  The pairs are checked in order, and
    the first that cannot be enclosed raises: a start below 1, a cutoff
    before its start, or a nonempty tail that passes coverage + 1 (unequal
    lengths raise ValueError).  Then f's terms are read once, from the
    smallest start up to the largest cutoff; each partial sum, and each
    majorant start that a term read can give, is a searchsorted into them;
    tail_majorant_start gives the others.
    """
    one = isinstance(start, (int, np.integer))
    starts = [operator.index(s) for s in ([start] if one else start)]
    cutoffs = [operator.index(c) for c in ([cutoff] if one else cutoff)]
    bound = None if f.coverage is None else f.coverage + 1
    for s, cut in zip(starts, cutoffs, strict=True):
        if s < 1:
            raise ValueError("start must be at least 1")
        if cut < s:
            raise ValueError("cutoff must not precede start")
        if bound is not None and bound < cut and s < cut:
            f._refuse(max(s, bound))
    if not starts:
        return []
    span = f._span(min(starts), max(cutoffs))
    index = f.positions[span]
    positions, values = index.tolist(), f.values[span].tolist()
    firsts = index.searchsorted(starts).tolist()
    lasts = index.searchsorted(cutoffs).tolist()
    out = []
    for s, cut, i, j in zip(starts, cutoffs, firsts, lasts):
        # sum(|a_k| * 2^(cut-1-k)) over the tail's terms, over 2^(terms-1)
        terms, top = cut - s, cut - 1
        partial = sum(abs(a) << (top - k) for k, a in zip(positions[i:j], values[i:j]))
        lo = Fraction(partial, 1 << (terms - 1)) if terms else Fraction(0)
        majorant_at = positions[j] if j < len(positions) else f.tail_majorant_start(cut)
        if majorant_at is None:
            out.append(Enclosure(lo, lo))
            continue
        majorant_at = min(majorant_at, cut + _MAJORANT_REACH)
        # hi = lo + 8*c*n0 / 2^(n0-start) over the one denominator den * 2^(n0-start)
        shift = majorant_at - s
        numerator = (partial << (shift - terms + 1)) * f._c_den + 8 * f._c_num * majorant_at
        out.append(Enclosure(lo, Fraction(numerator, f._c_den << shift)))
    return out[0] if one else out


def _verdict(
    f: HalfFunction, n: int, gap_length: int, tail_bound: Fraction, cutoff: int, tail: Enclosure
) -> MildGapCheck:
    """The tail clause: a witness when the enclosure's upper end is at most
    the bound, a rejection when its lower end is above it, else undecided.
    Each comparison is one integer cross-multiplication."""
    num, den = tail_bound.numerator, tail_bound.denominator
    if tail.hi.numerator * den <= num * tail.hi.denominator:
        witness = MildGapWitness(
            function=f.label, n=n, gap_length=gap_length, tail_bound=tail_bound,
            zero_checked_up_to=n + gap_length - 1, tail_enclosure=tail,
        )
        return MildGapCheck(Verdict.PASS, n, witness=witness)
    if tail.lo.numerator * den > num * tail.lo.denominator:
        detail = f"tail is at least {tail.lo}, above the bound {tail_bound}"
        return MildGapCheck(Verdict.FAIL, n, failed_clause="tail-norm", detail=detail)
    detail = (
        f"bound {tail_bound} falls inside the tail enclosure "
        f"[{tail.lo}, {tail.hi}] at cutoff {cutoff}"
    )
    return MildGapCheck(Verdict.INCONCLUSIVE, n, failed_clause="tail-norm", detail=detail)


def default_cutoff(start: int, gap_length: int) -> int:
    """The mild-gap test's default cutoff for a tail from start: its reach
    is four gap lengths past start, and never less than 64."""
    return start + max(64, 4 * gap_length)


def _windows(
    f: HalfFunction, ns: Sequence[int], gap_length: int, cutoff: int | None
) -> list[MildGapCheck | tuple[int, int]]:
    """For each n of ns, in order: the check that rejects its zero run, or
    the (start, cutoff) of its tail, whose enclosure cannot fail.  One
    searchsorted gives each n its first nonzero, which decides the zero
    clause without reading a coefficient.  An n that cannot be tested
    raises as it is met: a negative n, a window past coverage, a cutoff
    that precedes the tail, or one past coverage + 1.
    """
    bound = None if f.coverage is None else f.coverage + 1
    size = f.positions.size
    firsts = f.positions.searchsorted(ns)
    following = f.positions[np.minimum(firsts, size - 1)].tolist() if size else [0] * len(ns)
    out: list[MildGapCheck | tuple[int, int]] = []
    for n, i, k in zip(ns, firsts.tolist(), following):
        start = n + gap_length
        if n < 0:
            f._refuse(n)
        if i < size and k < start:
            detail = f"coefficient at {k} is nonzero"
            out.append(MildGapCheck(Verdict.FAIL, n, failed_clause="zero-run", detail=detail))
            continue
        if bound is not None and start > bound:
            f._refuse(max(n, bound))
        if cutoff is None:
            cut = default_cutoff(start, gap_length)
            if bound is not None:
                cut = max(min(cut, bound), start)
        elif cutoff < start:
            raise ValueError(
                f"cutoff must not precede start: cutoff {cutoff} is below the tail start "
                f"n + k = {start} of candidate n = {n}; the cutoff is an absolute index"
            )
        elif bound is not None and cutoff > bound:
            f._refuse(bound)
        else:
            cut = cutoff
        out.append((start, cut))
    return out


def mild_gap_checks(
    f: HalfFunction,
    ns: Iterable[int],
    gap_length: int,
    tail_bound: Fraction,
    cutoff: int | None = None,
) -> list[MildGapCheck]:
    """Test each n of ns for a mild gap point of f; one check per n, in order.

    The zero clause of every n is decided first, exactly and in order, and
    an n that cannot be tested (it is negative, its window passes coverage,
    or the cutoff precedes its tail or passes coverage + 1) raises there:
    the exception is the one that testing each n in turn would raise first.
    The tails left, which cannot fail, go to tail_norm in one call, so f's
    terms are read once, from the smallest tail start up to the largest
    cutoff.  A tail clause compares the bound against its enclosure, so it
    can come back inconclusive when the bound falls inside the enclosure;
    that verdict is distinct from a definite rejection (enclosure entirely
    above the bound).  The cutoff is an absolute index; by default each n
    gets default_cutoff(n + gap_length, gap_length), clamped to coverage.
    """
    tail_bound = _valid_tail_bound(gap_length, tail_bound)
    ns = [operator.index(n) for n in ns]
    results = _windows(f, ns, gap_length, cutoff)
    tails = [i for i, w in enumerate(results) if isinstance(w, tuple)]
    cutoffs = [results[i][1] for i in tails]
    enclosures = tail_norm(f, [results[i][0] for i in tails], cutoffs)
    for i, cut, tail in zip(tails, cutoffs, enclosures):
        results[i] = _verdict(f, ns[i], gap_length, tail_bound, cut, tail)
    return results


def is_mild_gap(
    f: HalfFunction,
    n: int,
    gap_length: int,
    tail_bound: Fraction,
    cutoff: int | None = None,
) -> MildGapCheck:
    """Test whether n is a mild gap point of f: mild_gap_checks on one index."""
    return mild_gap_checks(f, [n], gap_length, tail_bound, cutoff)[0]


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
    it, found by one searchsorted into the positions in [lo, hi +
    gap_length - 1).  The candidates go to mild_gap_checks.  A window past
    coverage raises CoverageError once every candidate before coverage is
    checked.
    """
    if lo < 0 or hi < lo:
        raise ValueError("range must satisfy 0 <= lo <= hi")
    tail_bound = _valid_tail_bound(gap_length, tail_bound)
    if hi == lo:
        return MildGapScan(witnesses=(), inconclusive=())
    end = known = hi + gap_length - 1
    if f.coverage is not None:
        known = max(lo, min(end, f.coverage + 1))
    nonzero = f.positions[slice(*f.positions.searchsorted([lo, known]))]
    starts = np.arange(lo, min(hi, known - gap_length + 1))
    following = np.append(nonzero, known)[np.searchsorted(nonzero, starts)]
    candidates = starts[following - starts >= gap_length].tolist()
    checks = mild_gap_checks(f, candidates, gap_length, tail_bound, cutoff)
    if known < end:
        f._refuse(known)
    return MildGapScan(
        witnesses=tuple(c.witness for c in checks if c.is_witness),
        inconclusive=tuple(c.n for c in checks if c.verdict is Verdict.INCONCLUSIVE),
    )


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
    if f.coverage is not None and terms > f.coverage + 1:
        f._refuse(f.coverage + 1)
    numerator, last = 0, 0
    for k, a in zip(*f._terms(0, terms)):
        numerator, last = numerator * q ** (k - last) + a, k
    return Fraction(numerator, q**last)


def _tail_majorant(c: Fraction, q: int, start: int) -> Fraction:
    """Closed form of c * sum((k+1) * q^-k) for k >= start."""
    if c == 0:
        return Fraction(0)
    x = Fraction(1, q)
    return c * x**start * (1 + start * (1 - x)) / (1 - x) ** 2


def eval_enclosure(f: HalfFunction, q: int, terms: int) -> Enclosure:
    """Enclose f(1/q) from the first `terms` coefficients.

    The tail majorant starts not at `terms` but at the first index beyond
    it that the series cannot certify to be zero, capped at terms +
    _MAJORANT_REACH, so a certified gap tightens the enclosure.  Series
    certified nonnegative get a one-sided enclosure [T, T + tail]; general
    series get [T - tail, T + tail].
    """
    value = eval_truncated(f, q, terms)
    start = f.tail_majorant_start(terms)
    if start is None:
        return Enclosure(value, value)
    tail = _tail_majorant(f.c, q, min(start, terms + _MAJORANT_REACH))
    if f.nonnegative:
        return Enclosure(value, value + tail)
    return Enclosure(value - tail, value + tail)
