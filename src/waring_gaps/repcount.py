"""Exact sieves for counts of representations as sums of like powers.

The central object is the table of r(n) = number of ordered s-tuples of
nonnegative integers whose ell-th powers sum to n, for all n up to a limit.
Tables are built by counting every ordered tuple once: the distinct sums of
its first s - 1 powers, with their multiplicities, are added for each last
power p into the counts at those sums plus p, in place, one output window
at a time.  That is O(limit) work and one array of length limit + 1, with
no temporary of a window's size.  Counts are exact unsigned counters of the
width the binary format stores (int64 where that is 8 bytes), whose
ceiling is checked up front, and tables are scanned for zero runs.  All
fractional-power comparisons (greedy remainder bound, exceptional-window
threshold) are carried out on arbitrary-precision integers; no float ever
decides anything.
"""

from __future__ import annotations

import csv
import io
import math
import os
import re
import resource
import shutil
import stat
import struct
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from pathlib import Path
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from .exact import render_exact

SUPPORTED_EXPONENTS = (3, 4)

# The exponent 4059/16384 of the biquadrate window (a - a^e, a] at epsilon
# = 0: scan_exceptional_set adds epsilon to it, and the pipeline's sigma
# range for ell = 4 ends at its inverse.
WINDOW_EXPONENT = Fraction(4059, 16384)

_MAGIC = b"WRT1"
# Indices handled at once by the sieve, whose adds it keeps within one
# block of the counts, and by the table bound check and the nonzero index,
# whose temporaries it bounds; it never changes a result.
_WINDOW = 1 << 20
# Bytes of the matrix render_rows fills at once, for every CSV and JSON
# array; it bounds the memory of writing one and never changes a byte.  Of
# limits from 64 KiB to 1 MiB, 256 KiB rendered the sieve-tables arrays
# fastest.
_BLOCK_BYTES = 1 << 18


class CounterWidthError(ValueError):
    """Requested counter width cannot hold the worst-case count."""


class TableFormatError(ValueError):
    """Serialized table is malformed or inconsistent."""


def loose_count_bound(ell: int, n: int) -> int:
    """Upper bound 2^ell * (n + 1) valid for every representation count."""
    return (1 << ell) * (n + 1)


@dataclass(frozen=True)
class WaringParams:
    """Exponent ell in {3, 4} and number of summands 1 <= s <= ell."""

    ell: int
    s: int

    def __post_init__(self) -> None:
        if self.ell not in SUPPORTED_EXPONENTS:
            raise ValueError(f"ell must be one of {SUPPORTED_EXPONENTS}, got {self.ell}")
        if not 1 <= self.s <= self.ell:
            raise ValueError(f"s must satisfy 1 <= s <= {self.ell}, got {self.s}")


def count_dtype(ell: int, limit: int) -> np.dtype:
    """The dtype of a table's counts, whose byte width the binary format
    stores: the narrowest of uint8, uint16, uint32 and int64 that holds the
    loose ceiling 2^ell*(limit+1).  A ceiling past int64 raises
    CounterWidthError: the sieve, the constructor and the binary reader all
    take their width from here."""
    ceiling = loose_count_bound(ell, limit)
    for dtype in (np.uint8, np.uint16, np.uint32, np.int64):
        if ceiling <= np.iinfo(dtype).max:
            return np.dtype(dtype)
    raise CounterWidthError(
        f"64-bit counters cannot hold worst-case count {ceiling} at limit {limit}"
    )


def _check_loose_bound(ell: int, index: np.ndarray, counts: np.ndarray) -> None:
    """Raise TableFormatError naming the first n of the ascending int64
    index whose count, at the same position of counts, exceeds 2^ell*(n+1)."""
    over = np.flatnonzero(counts > (index + 1) << ell)
    if over.size:
        raise TableFormatError(
            f"count at {int(index[over[0]])} exceeds the loose bound 2^ell*(n+1)"
        )


class RepTable:
    """Exact counts r(n) for 0 <= n <= limit, immutable after construction.

    RepTable(params, limit, counts) takes the counts dense.  Their dtype
    must hold the loose ceiling 2^ell*(limit+1).  Once every check has
    passed, they are held as count_dtype(ell, limit), the one width rule,
    converted from any other dtype; a narrowed copy cannot wrap, as every
    count is then at most the ceiling.

    sieve_pair builds its lower table with RepTable._from_index, from the
    sorted distinct tuple sums and their multiplicities: nonzero and
    nonzero_counts, so count and next_nonzero read the index alone.
    The dense counts, as count_dtype, are built on first read and cached.
    """

    def __init__(self, params: WaringParams, limit: int, counts: np.ndarray) -> None:
        if limit < 0:
            raise ValueError("limit must be nonnegative")
        if counts.shape != (limit + 1,):
            raise TableFormatError(f"counts length {counts.shape} does not match limit {limit}")
        ceiling = loose_count_bound(params.ell, limit)
        width_max = int(np.iinfo(counts.dtype).max)
        if ceiling > width_max:
            raise CounterWidthError(
                f"counter dtype {counts.dtype} cannot hold worst-case count {ceiling}"
            )
        if int(counts[0]) != 1:
            raise TableFormatError("count at 0 must be 1 (the all-zero tuple)")
        # Only a signed dtype can hold a negative count.
        if counts.dtype.kind == "i" and int(counts.min()) < 0:
            raise TableFormatError("counts must be nonnegative")
        # A count c at n breaks its bound only if c > 2^ell*(n+1), and c is
        # at most the largest count, so only an index below stop can.
        stop = min(limit + 1, int(counts.max()) >> params.ell)
        for lo in range(0, stop, _WINDOW):
            hi = min(lo + _WINDOW, stop)
            _check_loose_bound(params.ell, np.arange(lo, hi, dtype=np.int64), counts[lo:hi])
        dtype = count_dtype(params.ell, limit)
        if counts.dtype != dtype:
            counts = counts.astype(dtype)
        counts.setflags(write=False)
        vars(self).update(params=params, limit=limit, counts=counts)

    @classmethod
    def _from_index(
        cls, params: WaringParams, limit: int, nonzero: np.ndarray, multiplicities: np.ndarray
    ) -> RepTable:
        """The table whose nonzero counts are multiplicities, at the sorted
        distinct int64 indices nonzero in [0, limit], with multiplicities
        as count_dtype(ell, limit).  The count at 0 and the loose bounds are
        checked as the dense constructor checks them, on those two arrays,
        which the table then holds read-only."""
        if not nonzero.size or nonzero[0] != 0 or multiplicities[0] != 1:
            raise TableFormatError("count at 0 must be 1 (the all-zero tuple)")
        _check_loose_bound(params.ell, nonzero, multiplicities)
        nonzero.setflags(write=False)
        multiplicities.setflags(write=False)
        table = cls.__new__(cls)
        vars(table).update(
            params=params, limit=limit, nonzero=nonzero, nonzero_counts=multiplicities
        )
        return table

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"RepTable is immutable: cannot set {name}")

    def __repr__(self) -> str:
        return f"RepTable(params={self.params!r}, limit={self.limit})"

    @cached_property
    def counts(self) -> np.ndarray:
        """The read-only dense counts, as count_dtype: given to the
        constructor, or for an index table, filled from its nonzero index on
        first read."""
        counts = np.zeros(self.limit + 1, dtype=count_dtype(self.params.ell, self.limit))
        counts[self.nonzero] = self.nonzero_counts
        counts.setflags(write=False)
        return counts

    def count(self, n: int) -> int:
        """Exact count at n, as a Python integer."""
        if not 0 <= n <= self.limit:
            raise IndexError(f"index {n} outside table range [0, {self.limit}]")
        at = int(np.searchsorted(self.nonzero, n))
        found = at < self.nonzero.size and self.nonzero[at] == n
        return int(self.nonzero_counts[at]) if found else 0

    @cached_property
    def nonzero(self) -> np.ndarray:
        """Sorted, read-only int64 indices of the nonzero counts.  An index
        table holds them from the start; a dense table builds them on first
        use into an array sized by one count, one _WINDOW block at a time: a
        block's bool mask is far cheaper to search than the counts
        themselves, and the index is never held twice."""
        index = np.empty(np.count_nonzero(self.counts), dtype=np.int64)
        at = 0
        for lo in range(0, self.limit + 1, _WINDOW):
            block = np.flatnonzero(self.counts[lo : lo + _WINDOW] != 0)
            np.add(block, lo, out=index[at : at + block.size])
            at += block.size
        index.setflags(write=False)
        return index

    @cached_property
    def nonzero_counts(self) -> np.ndarray:
        """The read-only counts at the nonzero index, as count_dtype: an
        index table holds them from the start; a dense table gathers them
        on first use."""
        counts = self.counts[self.nonzero]
        counts.setflags(write=False)
        return counts

    def next_nonzero(self, points: int | np.ndarray) -> int | np.ndarray:
        """For each point p, the least n >= p with a nonzero count, or
        max(p, limit + 1) when there is none: an int for an int, else an
        int64 array.  One searchsorted into the index, never copied."""
        index = self.nonzero  # never empty: the count at 0 is 1
        p = np.atleast_1d(np.asarray(points, dtype=np.int64))
        result = index.take(np.searchsorted(index, p), mode="clip")
        past = p > index[-1]
        result[past] = np.maximum(p[past], self.limit + 1)
        return int(result[0]) if np.ndim(points) == 0 else result


def floor_root(ell: int, b: int) -> int:
    """Largest x with x^ell <= b, by Newton iteration on exact integers.

    Newton's step descends to the floor root from any start above it, but
    from the bit-length start, up to twice the root, it shrinks x by a factor
    of only about 1 - 1/ell.  So it starts from a float estimate of the root
    with a margin, once an exact power shows that start lies above the root.
    """
    if ell < 1:
        raise ValueError("ell must be positive")
    if b < 0:
        raise ValueError("b must be nonnegative")
    if ell == 1 or b in (0, 1):
        return b
    x = 1 << ((b.bit_length() + ell - 1) // ell)
    try:
        estimate = int(2.0 ** (math.log2(b) / ell))
    except OverflowError:
        estimate = x
    estimate += (estimate >> 40) + 2
    if estimate < x and estimate**ell > b:
        x = estimate
    while True:
        y = ((ell - 1) * x + b // x ** (ell - 1)) // ell
        if y >= x:
            break
        x = y
    while x**ell > b:
        x -= 1
    while (x + 1) ** ell <= b:
        x += 1
    if not x**ell <= b < (x + 1) ** ell:
        raise ArithmeticError(f"floor_root({ell}, {b}) ended at {x}, not the floor root")
    return x


def greedy_decompose(ell: int, b: int) -> tuple[tuple[int, ...], int]:
    """Peel off the largest ell-th power ell times; return (parts, sum).

    The returned n = sum(part^ell) satisfies n <= b, and for ell = 3 the
    remainder obeys (b - n)^27 < 25^27 * b^8 for every b >= 1, checked
    here in exact integers.
    """
    if ell not in SUPPORTED_EXPONENTS:
        raise ValueError(f"ell must be one of {SUPPORTED_EXPONENTS}, got {ell}")
    if b < 0:
        raise ValueError("b must be nonnegative")
    rem = b
    parts = []
    for _ in range(ell):
        x = floor_root(ell, rem)
        parts.append(x)
        rem -= x**ell
    n = b - rem
    if ell == 3 and b >= 1 and not (b - n) ** 27 < 25**27 * b**8:
        raise ArithmeticError(f"greedy remainder bound failed at b={b}")
    return tuple(parts), n


def sieve_rep(params: WaringParams, limit: int) -> RepTable:
    """Sieve all counts up to limit by counting every ordered tuple once.

    ``head`` holds the sorted sums <= limit of all ordered (s-1)-tuples of
    ell-th powers, reduced to its distinct sums and their multiplicities.
    For every power p, the multiplicity of each distinct sum h is then
    added into the count at h + p, in place, one output window [lo, hi) at
    a time; the distinct sums with lo <= h + p < hi are found by binary
    search, and as they are distinct, so are the counts one power adds to.
    The ordered s-tuples with sum <= limit number about c * limit^(s/ell)
    with c <= 1 (c = 0.71 and 0.67 for s = ell = 3, 4), so the work is
    O(limit).  The memory is the counts, held as count_dtype, and head,
    which has about limit^((s-1)/ell) entries; a window bounds where the
    adds land, not a buffer.  Counts are exact: integers only, the ceiling
    that the dtype holds is checked up front, so no add wraps, and no
    windowing changes a result.  A limit whose counts and head cannot fit
    in physical memory, or under a finite soft RLIMIT_AS, raises
    ValueError before any of them is allocated.
    """
    counts, _, _ = _sieve(params, limit)
    return RepTable(params=params, limit=limit, counts=counts)


def sieve_pair(ell: int, limit: int) -> tuple[RepTable, RepTable]:
    """The (ell, ell) and (ell, ell - 1) tables up to limit, from one sieve.

    The full table is sieve_rep's.  The head of that sieve holds the
    (ell - 1)-tuple sums <= limit as their distinct values and
    multiplicities, which are the lower table's nonzero index and its
    counts there, so it is built from them with no second pass over the
    limit.  Both tables equal sieve_rep's, dense counts and dtype included.
    """
    params = WaringParams(ell, ell)
    counts, nonzero, multiplicities = _sieve(params, limit)
    return (
        RepTable(params=params, limit=limit, counts=counts),
        RepTable._from_index(WaringParams(ell, ell - 1), limit, nonzero, multiplicities),
    )


def _sieve(params: WaringParams, limit: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """sieve_rep's counts, as count_dtype, and its head's distinct sums
    (sorted int64) with their multiplicities (as count_dtype)."""
    if limit < 0:
        raise ValueError("limit must be nonnegative")
    dtype = count_dtype(params.ell, limit)  # raises before anything is allocated
    counts_bytes = (limit + 1) * dtype.itemsize
    _check_fits(f"limit {limit}: the sieve", counts_bytes)
    powers = np.asarray(_powers_up_to(params.ell, limit), dtype=np.int64)
    head = np.zeros(1, dtype=np.int64)
    for _ in range(params.s - 1):
        stops = np.searchsorted(head, limit - powers, side="right")
        # Each head is at most the last, which is still held when the counts
        # are: counts and this head are a lower bound on the sieve's peak.
        _check_fits(f"limit {limit}: the sieve", counts_bytes + 8 * int(stops.sum()))
        head = np.sort(_shifted_slices(head, powers, stops))
    nonzero, multiplicities = _distinct_sums(head)
    multiplicities = multiplicities.astype(dtype, copy=False)
    counts = np.zeros(limit + 1, dtype=dtype)
    for lo in range(0, limit + 1, _WINDOW):
        hi = min(lo + _WINDOW, limit + 1)
        window = counts[lo:hi]
        shifts = powers[powers < hi]
        starts = np.searchsorted(nonzero, lo - shifts).tolist()
        stops = np.searchsorted(nonzero, hi - shifts).tolist()
        for p, a, b in zip((shifts - lo).tolist(), starts, stops):
            # the targets of one power are distinct, so += adds each once
            window[nonzero[a:b] + p] += multiplicities[a:b]
    return counts, nonzero, multiplicities


def _check_fits(subject: str, held: int) -> None:
    """Raise ValueError naming subject (such as "limit 10: the sieve") when
    held, a lower bound on the bytes it holds at once, exceeds physical
    memory or the soft address-space limit, if that is finite: it cannot
    fit, and is refused before it allocates."""
    physical = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    soft = resource.getrlimit(resource.RLIMIT_AS)[0]
    for room, what in ((physical, "physical memory"), (soft, "the address-space limit")):
        if room != resource.RLIM_INFINITY and held > room:
            raise ValueError(f"{subject} needs at least {held} bytes, past {what} of {room} bytes")


def _shifted_slices(head: np.ndarray, shifts: np.ndarray, stops: np.ndarray) -> np.ndarray:
    """head[:stops[i]] + shifts[i] for every i, one after another, written in
    place into one int64 array sized by the prefixes."""
    ends = np.cumsum(stops).tolist()
    out = np.empty(ends[-1], dtype=np.int64)
    at = 0
    for p, b, end in zip(shifts.tolist(), stops.tolist(), ends):
        np.add(head[:b], p, out=out[at:end])
        at = end
    return out


def _distinct_sums(sums: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct values of sorted int64 sums and how often each occurs,
    both int64, found where neighbours differ.  sums is never empty: a
    sieve head always holds the sum 0."""
    # where each run of equal sums begins, and where the last one ends
    bounds = np.flatnonzero(np.concatenate(([True], sums[1:] != sums[:-1], [True])))
    return sums[bounds[:-1]], np.diff(bounds)


def _powers_up_to(ell: int, limit: int) -> list[int]:
    out = []
    x = 0
    while x**ell <= limit:
        out.append(x**ell)
        x += 1
    return out


_GAP_RUN = np.dtype([("start", np.int64), ("length", np.int64), ("truncated", np.bool_)])


def find_gap_runs(table: RepTable, min_len: int) -> np.ndarray:
    """All maximal zero runs of length >= min_len, in increasing start order.

    One read-only structured array with fields start and length (int64)
    and truncated (bool, set when the run touches the table end).
    """
    if min_len < 1:
        raise ValueError("min_len must be positive")
    starts, stops = _zero_runs(table, table.limit)
    keep = stops - starts >= min_len
    starts, stops = starts[keep], stops[keep]
    runs = np.empty(starts.size, dtype=_GAP_RUN)
    runs["start"] = starts
    runs["length"] = stops - starts
    runs["truncated"] = stops == table.limit + 1
    runs.flags.writeable = False
    return runs


def _zero_runs(table: RepTable, limit: int) -> tuple[np.ndarray, np.ndarray]:
    """The zero runs [u + 1, u') of the counts up to limit, from the nonzero
    index: one after each nonzero index u <= limit, ending at the next one
    u', or at limit + 1 after the last.  Runs may be empty; none starts
    before 1, since the count at 0 is 1."""
    nonzero = table.nonzero
    u = nonzero[: np.searchsorted(nonzero, limit, side="right")]
    return u + 1, np.append(u[1:], limit + 1)


@dataclass(frozen=True, eq=False)
class ExceptionalScan:
    """Integers a <= limit whose whole lookback window has zero counts, held
    as runs: run i is [starts[i], stops[i]), two read-only ascending int64
    arrays.  The runs are nonempty and disjoint, and each lies between two
    consecutive nonzero counts."""

    limit: int
    exponent: Fraction
    starts: np.ndarray
    stops: np.ndarray

    @property
    def cardinality(self) -> int:
        return int((self.stops - self.starts).sum())

    @property
    def density(self) -> Fraction:
        return Fraction(self.cardinality, self.limit)

    @cached_property
    def members(self) -> np.ndarray:
        """The runs expanded into one read-only int64 array, ascending, built
        on first read by one cumsum over ones that jump at each run start."""
        starts, stops = self.starts, self.stops
        ends = np.cumsum(stops - starts)
        members = np.ones(int(ends[-1]) if ends.size else 0, dtype=np.int64)
        if members.size:
            members[0] = starts[0]
            members[ends[:-1]] = starts[1:] - stops[:-1] + 1
        np.cumsum(members, out=members)
        members.flags.writeable = False
        return members

    def to_json_dict(self) -> dict:
        """The report fields; members stays the array, for the CLI's report writer."""
        return render_exact({
            "limit": self.limit,
            "exponent": self.exponent,
            "cardinality": self.cardinality,
            "density": self.density,
            "members": self.members,
        })


def _bounded_pow(x: int, n: int, prec: int = 96) -> tuple[int, int, int]:
    """Certified two-sided bound on x^n: returns (lo, hi, e) with
    lo * 2^e <= x^n <= hi * 2^e and mantissas kept near prec bits.

    Square-and-multiply with floor/ceiling renormalization, so both
    bounds stay exact integers whatever the exponent size.
    """
    lo = hi = x
    e = 0
    for bit in bin(n)[3:]:
        lo *= lo
        hi *= hi
        e *= 2
        if bit == "1":
            lo *= x
            hi *= x
        shift = hi.bit_length() - prec
        if shift > 0:
            lo >>= shift
            hi = (hi + (1 << shift) - 1) >> shift
            e += shift
    return lo, hi, e


def _pow_greater(a: int, p: int, d: int, q: int, shift: int = 0) -> bool:
    """Decide a^p > d^q * 2^shift exactly, for positive exponents and
    shift >= 0.

    Bit-length bounds (2^(L-1) <= x < 2^L for L = x.bit_length()) settle
    everything away from the crossover; certified bounded powering
    settles all but near-equal values, first from the top bit positions
    of the two bounds, so that aligning them shifts by a few bits only
    however far apart the exponents are.  Its precision, 96 bits for small
    operands, grows with their bit lengths, so that a bisection near a
    large root is settled there too; only near-equal values fall back to
    forming the full powers.
    """
    if a == 0 or d == 0:
        return a > d
    la, ld = a.bit_length(), d.bit_length()
    if p * (la - 1) >= q * ld + shift:
        return True
    if p * la <= q * (ld - 1) + shift:
        return False
    # The precision decides speed, never the result: near a root of L bits,
    # neighbouring candidates' powers differ by a relative 2^-L or so, which
    # 2L + 64 bits resolve despite the rounding of every squaring.
    prec = max(96, 2 * max(la, ld) + 64)
    a_lo, a_hi, a_e = _bounded_pow(a, p, prec)
    d_lo, d_hi, d_e = _bounded_pow(d, q, prec)
    d_e += shift
    if a_lo.bit_length() + a_e > d_hi.bit_length() + d_e:
        return True
    if a_hi.bit_length() + a_e < d_lo.bit_length() + d_e:
        return False
    if a_e >= d_e:
        a_lo, a_hi = a_lo << (a_e - d_e), a_hi << (a_e - d_e)
    else:
        d_lo, d_hi = d_lo << (d_e - a_e), d_hi << (d_e - a_e)
    if a_lo > d_hi:
        return True
    if a_hi < d_lo:
        return False
    return a**p > d**q << shift


def floor_pow(base: int, exponent: Fraction) -> int:
    """floor(base^(p/q)) for base >= 1 and exponent p/q > 0: the largest x
    with x^q <= base^p, by binary search decided by _pow_greater.

    The search starts in a narrow bracket around the float estimate
    2^(log2(base) * p/q), and each end of that bracket is checked exactly
    before the result rests on it.  When a check fails, or the estimate
    overflows, the search runs again over the full bracket
    [0, 2^ceil(bits * p/q)).  So the float never decides a result.
    """
    p, q = exponent.numerator, exponent.denominator
    try:
        estimate = int(2.0 ** (math.log2(base) * float(exponent)))
    except OverflowError:
        estimate = None
    if estimate is not None:
        slack = (estimate >> 40) + 2
        lo, hi = max(estimate - slack, 0), estimate + slack
        x = _floor_pow_between(base, p, q, lo, hi)
        # x > lo and x + 1 < hi were each settled by a comparison in the search
        if (x > lo or not _pow_greater(lo, q, base, p)) and (
            x + 1 < hi or _pow_greater(hi, q, base, p)
        ):
            return x
    return _floor_pow_between(base, p, q, 0, 1 << -(-base.bit_length() * p // q))


def _floor_pow_between(base: int, p: int, q: int, lo: int, hi: int) -> int:
    """The largest x in [lo, hi) with x^q <= base^p, when lo^q <= base^p < hi^q."""
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if _pow_greater(mid, q, base, p):
            hi = mid
        else:
            lo = mid
    return lo


def scan_exceptional_set(limit: int, epsilon: Fraction, table: RepTable) -> ExceptionalScan:
    """Find all a in [1, limit] with zero counts on the window (a - a^e, a],
    as runs, from the table of sums of four fourth powers.

    The exponent is e = p/q = WINDOW_EXPONENT + epsilon.  An integer n lies in
    the window of a exactly when (a - n)^q < a^p.  The offset k >= 1 is in
    it from the breakpoint b_k = floor(k^(1/e)) + 1 on, so the window of a
    is [a - w(a), a], w(a) being the number of breakpoints <= a, and a is a
    member exactly when h(a) = a - w(a) exceeds the last nonzero index at or
    below a.

    The breakpoints lie at least 1 apart (the slope of k^(1/e) is at least
    1), so h never decreases and never skips a value, and b_k - k never
    decreases.  For consecutive nonzero indices u < u' the members in
    [u, u') are then [a*, u'), where a* = t + c(t) with t = u + 1 and
    c(t) = #{k : b_k - k < t} is the least a with h(a) >= t: at a* exactly
    the first c(t) breakpoints are passed.  One searchsorted over the
    nonzero index gives every run.

    Only the breakpoints k <= L are formed, L being the length of the
    longest zero run [t, u').  Since b_k - k never decreases,
    {k : b_k - k < t} is a prefix of 1, 2, ..., so the count over k <= L is
    min(c(t), L): exact when c(t) < L.  When c(t) >= L, both t + c(t) and
    t + L are at or past u', since u' - t <= L, so the run is empty either
    way.  A breakpoint past limit moves only starts that are past limit
    already.  So the walk costs at most L exact powers, not one for each of
    the about limit^e breakpoints.  The walk also stops once b_k - k
    reaches the largest run start: since b_k - k never decreases, no later
    breakpoint has b_k - k < t for any t.
    """
    if limit < 1:
        raise ValueError("limit must be positive")
    epsilon = Fraction(epsilon)
    if epsilon < 0:
        raise ValueError("epsilon must be nonnegative")
    exponent = WINDOW_EXPONENT + epsilon
    if exponent >= 1:
        raise ValueError(f"window exponent {exponent} must be below 1")
    if table.params != WaringParams(4, 4):
        raise ValueError("table must hold counts for four fourth powers")
    if table.limit < limit:
        raise ValueError(f"table covers [0, {table.limit}] but limit is {limit}")
    t, stops = _zero_runs(table, limit)
    longest, last_start = int((stops - t).max(initial=0)), int(t.max(initial=0))
    shifted = []  # b_k - k < last_start for every breakpoint b_k <= limit with k <= longest
    k = 1
    while k <= longest and (a_min := floor_pow(k, 1 / exponent) + 1) <= limit:
        if a_min - k >= last_start:
            break
        shifted.append(a_min - k)
        k += 1
    starts = np.searchsorted(np.asarray(shifted, dtype=np.int64), t, side="left")
    starts += t  # t + #{k : b_k - k < t}
    keep = starts < stops
    starts, stops = starts[keep], stops[keep]
    starts.flags.writeable = stops.flags.writeable = False
    return ExceptionalScan(limit=limit, exponent=exponent, starts=starts, stops=stops)


# /proc/self/fd/N and /dev/fd/N name descriptor N of this process.
_DESCRIPTOR_PATH = re.compile(r"/(?:proc/self|dev)/fd/([0-9]+)")


def _descriptor(path: str | Path) -> int | None:
    """N when path is, or links through, /proc/self/fd/N or /dev/fd/N."""
    link, seen = os.path.abspath(path), set()
    while link not in seen:
        if match := _DESCRIPTOR_PATH.fullmatch(link):
            return int(match[1])
        if not os.path.islink(link):
            return None
        seen.add(link)
        link = os.path.normpath(os.path.join(os.path.dirname(link), os.readlink(link)))
    return None


def write_output(path: str | Path, pieces: Iterable[str | bytes | np.ndarray]) -> None:
    """Write the pieces, str (ASCII), bytes or the buffer of a contiguous
    array, to path; every file the tool writes goes here.

    A regular file, or a path that does not exist yet, is written to a
    sibling file that is then moved onto it, so a failed write leaves
    neither a truncated file nor the sibling behind, and an earlier file
    stays whole and keeps its permission bits.  A symlink is followed and
    its target replaced.  A path that is, or links through, a descriptor
    of this process (/dev/stdout, /dev/fd/N, /proc/self/fd/N) is written
    through that descriptor, at its offset, so output the process writes
    to it later follows.  Any other path that exists and is not a regular
    file, such as a FIFO, is written in place.  An OSError names path,
    never the sibling.
    """
    fd = _descriptor(path)
    in_place = fd is not None or (os.path.exists(path) and not os.path.isfile(path))
    target = Path(path if in_place else os.path.realpath(path))
    dest = target if in_place else target.with_name(f".{target.name}.{os.getpid()}.partial")
    try:
        with open(dest, "wb") if fd is None else os.fdopen(os.dup(fd), "wb") as fh:
            if not in_place and target.exists():
                shutil.copymode(target, dest)  # before any byte is written
            for piece in pieces:
                fh.write(piece.encode() if isinstance(piece, str) else piece)
        if not in_place:
            os.replace(dest, target)
    except OSError as exc:
        exc.filename = os.fspath(path)
        del exc.filename2  # a failed os.replace names the sibling and the target
        raise
    finally:
        if not in_place:
            dest.unlink(missing_ok=True)


# The decimal codec: every int and bool column the tool writes as text, in
# CSVs and JSON arrays alike, is rendered by render_rows, and a canonical
# table CSV is parsed by columns.
#
# Digit pairs as native-endian byte pairs, looked up at min(m, 100 + m % 100)
# for the part m of a magnitude still to write: entries 100 .. 199 are the
# inner pairs "00" .. "99", and entry m < 100 is the leading pair of m,
# NUL-padded.  Entry 0 is "0" for the last pair, and two NULs before it.
_LAST_PAIRS = np.frombuffer(
    ("".join(f"{i:>2}" for i in range(100)).replace(" ", "\0")
     + "".join(f"{i:02d}" for i in range(100))).encode(),
    dtype=np.uint16,
)
_PAIRS = _LAST_PAIRS.copy()
_PAIRS[0] = 0
# false and true, right-aligned in five bytes.
_BOOL_TEXT = np.frombuffer(b"false\0true", dtype=np.uint8).reshape(2, 5)


def _cells(column: np.ndarray) -> tuple[int, Callable[[np.ndarray], None], bool]:
    """The width of a slot that holds the text of every entry of a 1-D
    column, a function that writes entry i into row i of a (rows, width)
    uint8 slot, NUL-padded, and whether every entry fills its slot: an int
    in decimal, a bool as JSON's true or false, and an object (a Python int
    beyond int64) as str() spells it."""
    if column.dtype == np.bool_:
        true = bool(column.all())
        # All true fills a slot of four bytes, all false one of five.
        text = _BOOL_TEXT[column.view(np.uint8), int(true) :]
        full = true or not column.any()
    elif column.dtype == object:
        text = np.array([str(value) for value in column], dtype=bytes)
        text = text.view(np.uint8).reshape(column.size, -1)
        full = False
    else:
        return _digits(column)
    return text.shape[1], lambda slot: np.copyto(slot, text), full


def _digits(column: np.ndarray) -> tuple[int, Callable[[np.ndarray], None], bool]:
    """_cells of a nonempty int column: each entry right-aligned in its slot,
    its digits written two at a time from the last pair to the leading one."""
    magnitude, negative = column, None
    least = int(column.min())
    if least < 0:
        negative = column < 0
        magnitude = column.astype(np.uint64)  # a negative entry e wraps to 2^64 + e
        magnitude = np.where(negative, np.uint64(0) - magnitude, magnitude)  # |e|, mod 2^64
    top = int(magnitude.max())
    # A quotient by a scalar is far cheaper than np.divmod, and cheaper again
    # on uint32.
    magnitude = magnitude.astype(np.uint64 if top >> 32 else np.uint32, copy=False)
    digits = len(str(top))
    pairs = (digits + 1) // 2
    width = 2 * pairs + (negative is not None)
    # Every slot is full when each entry has the same even number of digits
    # and none is negative.
    full = digits % 2 == 0 and least >= 10 ** (digits - 1)

    def write(slot: np.ndarray) -> None:
        rest, table, end = magnitude, _LAST_PAIRS, width
        for k in range(1, pairs):
            quotient = rest // 100
            index = rest - quotient * 100
            index += 100
            if least < 100**k:  # rest < 100, padding or a leading pair, in some row
                np.minimum(index, rest, out=index)
            slot[:, end - 2 : end].view(np.uint16)[:, 0] = table.take(index)
            rest, table, end = quotient, _PAIRS, end - 2
        # The leading pair of the longest entries: rest < 100 in every row.
        slot[:, end - 2 : end].view(np.uint16)[:, 0] = table.take(rest)
        if negative is not None:
            # The minus sign goes just before the first digit.
            rows = np.flatnonzero(negative)
            slot[rows, np.argmax(slot[rows] != 0, axis=1) - 1] = ord("-")

    return width, write, full


def _block_rows(columns: Sequence[np.ndarray], fixed: Sequence[bytes]) -> int:
    """Rows of the nonempty columns that render_rows renders at once: as
    many of their longest row, the separators fixed and each column's
    longest text (at its least or its greatest entry), as fit in
    _BLOCK_BYTES, and at least one."""
    longest = sum(map(len, fixed)) + sum(
        5 if column.dtype == np.bool_ else max(len(str(column.min())), len(str(column.max())))
        for column in columns
    )
    return max(1, _BLOCK_BYTES // longest)


def _tiled(row: bytes, rows: int) -> np.ndarray:
    """A (rows, len(row)) uint8 matrix of copies of row, each copy step
    doubling the copies made: for rows of a few bytes several times faster
    than np.tile or a broadcast, which copy one row at a time."""
    out = np.empty(rows * len(row), dtype=np.uint8)
    out[: len(row)] = np.frombuffer(row, dtype=np.uint8)
    done = len(row)
    while done < out.size:
        more = min(done, out.size - done)
        out[done : done + more] = out[:more]
        done += more
    return out.reshape(rows, len(row))


def render_rows(columns: Sequence[np.ndarray], seps: Sequence[str]) -> Iterator[np.ndarray]:
    """Row i rendered as seps[0] + columns[0][i] + seps[1] + ... + columns[-1][i]
    + seps[-1], for every row of the equal-length 1-D columns, in blocks of
    whole rows, each a 1-D uint8 array of their ASCII bytes; entries are
    spelled as _cells spells them.

    Each block is one (rows, row width) uint8 matrix of about _BLOCK_BYTES,
    tiled from a template row that holds the separators and a zero-filled
    slot for each column.  The cells are written into their slots, and one
    compress drops the NUL padding; a block whose every slot is full has
    none, and is its matrix as it stands.  So no separator may hold a NUL.
    """
    for sep in seps:
        if "\0" in sep:
            raise ValueError(f"separator {sep!r} holds a NUL byte")
    fixed = [sep.encode() for sep in seps]
    size = len(columns[0])
    if not size:
        return
    step = _block_rows(columns, fixed)
    for lo in range(0, size, step):
        rows = min(step, size - lo)
        cells = [_cells(column[lo : lo + rows]) for column in columns]
        template, starts = bytearray(fixed[0]), []
        for (width, _, _), sep in zip(cells, fixed[1:]):
            starts.append(len(template))
            template += bytes(width) + sep
        out = _tiled(template, rows)
        for start, (width, write, _) in zip(starts, cells):
            write(out[:, start : start + width])
        yield out.reshape(-1) if all(full for _, _, full in cells) else out[out != 0]


def csv_pieces(
    header: str, columns: Sequence[np.ndarray], newline: str = "\n"
) -> Iterator[str | np.ndarray]:
    """A CSV of int columns of equal length under a header line, each line
    ended by newline: the header line as a str, then the rows in the blocks
    render_rows yields.  An object column holds Python ints, which may lie
    beyond int64."""
    yield header + newline
    yield from render_rows(columns, ["", *[","] * (len(columns) - 1), newline])


def write_table_csv(table: RepTable, path: str | Path) -> None:
    """Write the table as CSV with header n,count and CRLF line ends."""
    columns = [np.arange(table.limit + 1), table.counts]
    write_output(path, csv_pieces("n,count", columns, newline="\r\n"))


_CSV_HEADER = b"n,count\r\n"
# The separators of each canonical line, in order.
_ROW_SEPS = np.frombuffer(b",\r\n", dtype=np.uint8)
# Runs of at most 18 digits read below 10^18 < 2^63, so int64 holds them.
_MAX_DIGITS = 18
# Bytes of a table CSV that the columnar reader parses at once, at least the
# longest canonical line; it bounds the reader's temporaries and never
# changes a result.
_CSV_BLOCK = 1 << 16


def _field_values(buf: np.ndarray, ends: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """The int64 value of each digit run buf[end - length : end], by Horner's rule."""
    values = np.zeros(ends.size, dtype=np.int64)
    for k in range(int(lengths.max()), 0, -1):
        digit = buf.take(ends - k, mode="clip") - np.uint8(ord("0"))
        digit[lengths < k] = 0
        values *= 10
        values += digit
    return values


def _csv_columns(data: bytes) -> np.ndarray | None:
    """The counts of a canonical table CSV, parsed by columns; None for any other.

    Canonical is what write_table_csv writes: the header line n,count, then
    lines that each hold two nonempty runs of at most 18 ASCII digits joined
    by a comma and ended by CRLF, whose first runs read 0, 1, 2, ....  The
    row reader reads every canonical file to the same counts.  The lines are
    parsed in blocks of at most _CSV_BLOCK bytes, each cut after an LF, into
    counts sized from the number of LFs.
    """
    if not data.startswith(_CSV_HEADER) or len(data) == len(_CSV_HEADER) or data[-1:] != b"\n":
        return None
    buf = np.frombuffer(data, dtype=np.uint8)
    if buf[len(_CSV_HEADER) :].max() > ord("9"):
        return None
    counts = np.empty(data.count(b"\n") - 1, dtype=np.int64)
    at, row = len(_CSV_HEADER), 0
    while at < len(data):
        end = data.rfind(b"\n", at, at + _CSV_BLOCK) + 1
        block = _csv_block(buf[at:end], row) if end > at else None
        if block is None:
            return None
        counts[row : row + block.size] = block
        at, row = end, row + block.size
    return counts


def _csv_block(buf: np.ndarray, first: int) -> np.ndarray | None:
    """The counts of whole canonical lines first, first + 1, ... in buf,
    which ends with an LF; None unless every line is canonical."""
    # Every byte below "0" is a separator, in the order , CR LF on each line,
    # and the last one ends the block; every other byte is then a digit.
    seps = np.flatnonzero(buf < ord("0"))
    if seps.size % 3:
        return None
    seps = seps.reshape(-1, 3)
    if not (buf[seps] == _ROW_SEPS).all():
        return None
    commas, crs, lfs = seps.T
    n_len = commas - np.concatenate(([0], lfs[:-1] + 1))
    count_len = crs - commas - 1
    if (
        (crs + 1 != lfs).any()
        or min(n_len.min(), count_len.min()) < 1
        or max(n_len.max(), count_len.max()) > _MAX_DIGITS
        or not np.array_equal(
            _field_values(buf, commas, n_len), np.arange(first, first + commas.size)
        )
    ):
        return None
    return _field_values(buf, crs, count_len)


# The only spelling of an integer field: optional minus, then ASCII digits.
_DECIMAL = re.compile(r"-?[0-9]+")


def _csv_int(raw: str, name: str, line: int) -> int:
    try:
        if not _DECIMAL.fullmatch(raw):
            raise ValueError
        return int(raw)
    except ValueError:
        raise TableFormatError(f"line {line}: {name} {raw!r} is not an integer") from None


def _csv_rows(data: bytes) -> np.ndarray:
    """The counts of any table CSV, read row by row; each fault is a
    TableFormatError that names it.  Bytes that are not UTF-8 are read as
    backslash escapes, which no integer field can hold."""
    text = io.StringIO(data.decode(errors="backslashreplace"), newline="")
    reader = csv.reader(text)
    try:
        header = next(reader, None)
        if header != ["n", "count"]:
            raise TableFormatError(f"expected header n,count, got {header}")
        values = []
        for line, row in enumerate(reader, start=2):
            if len(row) != 2:
                raise TableFormatError(f"malformed row {row}")
            n, c = _csv_int(row[0], "n", line), _csv_int(row[1], "count", line)
            if n != len(values):
                raise TableFormatError(f"rows out of order at n={n}")
            if not -(2**63) <= c < 2**63:
                raise TableFormatError(f"line {line}: count {c} at n={n} is outside int64")
            values.append(c)
    except csv.Error as exc:
        raise TableFormatError(f"line {reader.line_num}: {exc}") from None
    if not values:
        raise TableFormatError("empty table")
    return np.asarray(values, dtype=np.int64)


def read_table_csv(path: str | Path, params: WaringParams) -> RepTable:
    """Read a CSV table; the parameters are not stored in the CSV form.

    A canonical file, as write_table_csv writes it, is parsed by columns;
    any other is read row by row, with the same result on every canonical
    file and a message for every fault.
    """
    data = Path(path).read_bytes()
    counts = _csv_columns(data)
    if counts is None:
        counts = _csv_rows(data)
    return RepTable(params=params, limit=counts.size - 1, counts=counts)


def _file_dtype(width: int) -> np.dtype:
    """The little-endian dtype that holds counts of the given byte width as
    stored: unsigned, but signed at width 8, whose nonnegative counts have
    the same bytes either way."""
    return np.dtype(f"<u{width}" if width < 8 else "<i8")


def write_table_binary(table: RepTable, path: str | Path) -> None:
    """Write the compact binary form.

    Layout: magic WRT1, then ell, s, limit and the count byte width as
    unsigned 64-bit little-endian, then limit+1 counts as fixed-width
    little-endian unsigned integers.  That width is the counts' own, set by
    count_dtype, so on a little-endian host their buffer is written as it is.
    """
    width = table.counts.itemsize
    header = struct.pack("<QQQQ", table.params.ell, table.params.s, table.limit, width)
    write_output(path, [_MAGIC, header, table.counts.astype(_file_dtype(width), copy=False)])


def read_table_binary(path: str | Path) -> RepTable:
    """Read the compact binary form back into an exact table.

    The payload of a regular file is sized by fstat and read straight into
    an array of the file's width; a pipe's is read whole first.  Counts of
    a width below the table's are widened before the table checks them, and
    counts of a wider one are narrowed only after (see RepTable).
    """
    with open(path, "rb") as fh:
        magic = fh.read(4)
        if magic != _MAGIC:
            raise TableFormatError(f"bad magic {magic!r}")
        header = fh.read(32)
        if len(header) != 32:
            raise TableFormatError("truncated header")
        ell, s, limit, width = struct.unpack("<QQQQ", header)
        if width not in (1, 2, 4, 8):
            raise TableFormatError(f"unsupported count width {width}")
        expected = (limit + 1) * width
        info = os.fstat(fh.fileno())
        payload = None if stat.S_ISREG(info.st_mode) else fh.read()
        size = info.st_size - fh.tell() if payload is None else len(payload)
        if size != expected:
            raise TableFormatError(f"payload is {size} bytes, expected {expected}")
        if payload is not None:
            counts = np.frombuffer(payload, dtype=_file_dtype(width))
        else:
            counts = np.empty(limit + 1, dtype=_file_dtype(width))
            if fh.readinto(counts) != expected:  # the file shrank after fstat
                raise TableFormatError(f"payload ended before {expected} bytes")
    params = WaringParams(int(ell), int(s))
    dtype = count_dtype(params.ell, int(limit))
    if counts.itemsize < dtype.itemsize:
        counts = counts.astype(dtype)
    return RepTable(params=params, limit=int(limit), counts=counts)
