"""Machine checkers for certificate-shaped counting and independence claims.

Four families live here: the progression-counting certificate (many
residues with small representation counts), the nested-gaps certificate
(two mild gaps of one series inside a larger gap of another), the degree
criterion it implies for power series of representation counts, and
exhaustive linear-form sweeps with certified enclosures.  A desk-scale
dry run wires them together: modulus search, limit and window selection,
tail schedule, counting, bad-pair filtering, separation tests and the
final criterion, each step reported with an exact verdict.

Every report is a JSON-ready record with one entry per condition, and
its verdict is three-valued (pass, fail, inconclusive).  A malformed
input is refused by name before any report exists: a certificate or
config with a field out of range when it is built (_refuse), tables that
do not match a certificate when it is verified.  So a verifier checks
only the paper's conditions.  No float is ever consulted for a verdict.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from collections import Counter
from dataclasses import dataclass, field, fields
from fractions import Fraction
from pathlib import Path
from typing import Any, Iterable, NamedTuple, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .exact import decimal_str, parse_exact, printable_power, render_exact
from .modular import ResidueProfile, residue_counts, search_gap_modulus
from .repcount import (
    SUPPORTED_EXPONENTS,
    WINDOW_EXPONENT,
    RepTable,
    WaringParams,
    _pow_greater,
    floor_pow,
    loose_count_bound,
    read_table_binary,
    scan_exceptional_set,
    sieve_pair,
    sieve_rep,
)
from .series import (
    Enclosure,
    HalfFunction,
    MildGapCheck,
    Verdict,
    default_cutoff,
    eval_enclosure,
    eval_truncated,
    is_mild_gap,  # noqa: F401  kept importable here: perfbench's patching test lists it
    linear_combination,
    mild_gap_checks,
)


@dataclass(frozen=True)
class ConditionResult:
    name: str
    verdict: Verdict
    witness: Any = None

    def to_json_dict(self) -> dict:
        return {"name": self.name, "verdict": self.verdict.value, "witness": self.witness}


@dataclass
class Report:
    """Per-condition verdicts plus a summary, JSON-ready and replayable.

    Its verdict is the worst of its conditions', pass, fail or
    inconclusive; a report with no condition has none, and asking for it
    is a ValueError.  Every value it records, the certificate included, is
    spelled and bounded by render_exact: a check hands over the exact
    value, and one too long to print is a ValueError naming its key.
    """

    kind: str
    certificate: dict | None = None
    conditions: list[ConditionResult] = field(default_factory=list)
    summary: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.certificate = render_exact(self.certificate)

    def add(self, name: str, verdict: Verdict, witness: Any = None) -> ConditionResult:
        """Record a condition; its witness is rendered under its name."""
        cond = ConditionResult(name=name, verdict=verdict, witness=render_exact(witness, name))
        self.conditions.append(cond)
        return cond

    def check(self, name: str, ok: bool, witness: Any = None) -> bool:
        """Record a condition that passes exactly when ok holds; returns ok."""
        self.add(name, Verdict.FAIL if not ok else Verdict.PASS, witness)
        return ok

    def note(self, **entries: Any) -> None:
        """Add entries to the summary, each rendered under its key."""
        self.summary.update(render_exact(entries))

    def condition(self, name: str) -> ConditionResult:
        for cond in self.conditions:
            if cond.name == name:
                return cond
        raise KeyError(name)

    @property
    def verdict(self) -> Verdict:
        return Verdict.worst([c.verdict for c in self.conditions])

    @property
    def exit_code(self) -> int:
        """0 pass, 1 fail, 2 inconclusive."""
        return {Verdict.PASS: 0, Verdict.FAIL: 1, Verdict.INCONCLUSIVE: 2}[self.verdict]

    def to_json_dict(self) -> dict:
        return {
            "kind": self.kind,
            "certificate": self.certificate,
            "per_condition": [c.to_json_dict() for c in self.conditions],
            "summary": self.summary,
            "verdict": self.verdict.value,
        }


def _mild_check_json(check: MildGapCheck, function: str) -> dict:
    out: dict[str, Any] = {
        "function": function,
        "n": check.n,
        "verdict": check.verdict.value,
    }
    if check.witness is not None:
        out["witness"] = check.witness.to_json_dict()
    else:
        out["failed_clause"] = check.failed_clause
        out["detail"] = check.detail
    return out


def _add_mild_gaps(
    report: Report,
    name: str,
    cases: Iterable[tuple[HalfFunction, int, int, Fraction]],
    tally: bool = False,
) -> None:
    """Test each (f, n, K, E) for a mild gap and record the worst verdict as
    one condition.  Its witness lists every check, or with tally counts the
    checks by outcome and shows the first one that is not a witness.  Each
    run of consecutive cases that share f, K and E is one mild_gap_checks."""
    checks = []
    for (f, K, E), group in itertools.groupby(cases, key=lambda case: (case[0], case[2], case[3])):
        ns = [n for _, n, _, _ in group]
        checks += [(check, f.label) for check in mild_gap_checks(f, ns, K, E)]
    # PASS stands for the empty check list, which Verdict.worst rejects.
    verdict = Verdict.worst([Verdict.PASS, *(check.verdict for check, _ in checks)])
    if not tally:
        report.add(name, verdict, [_mild_check_json(check, label) for check, label in checks])
        return
    counts = Counter(check.verdict for check, _ in checks)
    problem = next(((check, label) for check, label in checks if not check.is_witness), None)
    report.add(
        name,
        verdict,
        {
            "checked": len(checks),
            "witness": counts[Verdict.PASS],
            "rejected": counts[Verdict.FAIL],
            "inconclusive": counts[Verdict.INCONCLUSIVE],
            "first_problem": None if problem is None else _mild_check_json(*problem),
        },
    )


def _clamped_enclosure(f: HalfFunction, q: int, terms: int) -> Enclosure:
    """Enclosure of f(1/q) from at most terms terms, and no more than f covers."""
    return eval_enclosure(f, q, terms if f.coverage is None else min(terms, f.coverage + 1))


# ---------------------------------------------------------------------------
# Progression counting
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MaierCertificate:
    """Data for the progression-counting bound.

    eps[k] bounds the normalized residue count at m + k; caps[k] is the
    admissible representation count at offset k.  The derived alpha must
    stay below 1 for the counting bound to be nontrivial.  A field out of
    range (ell not 3 or 4, K, m or a cap below 0, M or N below 1, an eps
    not above 0) is refused by name when the certificate is built; how the
    fields relate (m + K < M, N >= M^ell, ...) is for verify_maier to
    report.
    """

    ell: int
    K: int
    M: int
    m: int
    eps: tuple[Fraction, ...]
    caps: tuple[int, ...]
    N: int

    def __post_init__(self) -> None:
        # the counting bound asks for positive eps; a cap below 0 admits no
        # count, and at cap + 1 <= 0 alpha is no bound
        eps = {f"eps[{k}]": e for k, e in enumerate(self.eps)}
        caps = {f"caps[{k}]": cap for k, cap in enumerate(self.caps)}
        _refuse(
            {**vars(self), **eps, **caps}, ("ell", "not one of", SUPPORTED_EXPONENTS),
            ("K", "below", 0), ("M", "below", 1), ("m", "below", 0), ("N", "below", 1),
            *((k, "not above", 0) for k in eps), *((k, "below", 0) for k in caps),
        )
        if len(self.eps) != self.K + 1 or len(self.caps) != self.K + 1:
            raise ValueError("eps and caps must both have K + 1 entries")

    @functools.cached_property
    def alpha(self) -> Fraction:
        """sum(eps[k] / (caps[k] + 1)), summed once per certificate."""
        return sum(
            (e / (cap + 1) for e, cap in zip(self.eps, self.caps)), Fraction(0)
        )

    def to_json_dict(self) -> dict:
        return _echo(self, alpha=self.alpha)

    @classmethod
    def from_json_dict(cls, obj: dict) -> "MaierCertificate":
        obj = parse_exact(obj, "object", "certificate")
        return cls(
            ell=_field(obj, "ell", "int"),
            K=_field(obj, "K", "int"),
            M=_field(obj, "M", "int"),
            m=_field(obj, "m", "int"),
            eps=tuple(parse_exact(e, "fraction", "field eps") for e in _field(obj, "eps", "list")),
            caps=tuple(parse_exact(c, "int", "field caps") for c in _field(obj, "caps", "list")),
            N=_field(obj, "N", "int"),
        )


# Rows of the qualifying-set view compared at once: bounds the boolean temporary.
_QUALIFYING_ROWS = 1 << 16


def maier_qualifying_set(
    table: RepTable, modulus: int, residue: int, caps: Sequence[int], limit: int, window: int
) -> np.ndarray:
    """Indices n in [0, limit - window) of the progression with capped counts.

    Row j of one read-only strided view of the counts is the window of
    len(caps) counts from residue + j * modulus; a row qualifies when each
    count is at most its cap.  Caps are clipped to the loose ceiling first,
    so each fits an int64 and compares exactly with every count dtype.
    """
    if residue < 0 or modulus < 1:
        raise ValueError("the progression needs a residue >= 0 and a modulus >= 1")
    hi = limit - window
    if hi <= residue:
        return np.empty(0, dtype=np.int64)
    if not caps:
        return np.arange(residue, hi, modulus, dtype=np.int64)
    rows = -(-(hi - residue) // modulus)
    if residue + (rows - 1) * modulus + len(caps) > table.limit + 1:
        raise ValueError("the table does not cover the last progression window")
    ceiling = loose_count_bound(table.params.ell, table.limit)
    clipped = np.array([min(int(cap), ceiling) for cap in caps], dtype=np.int64)
    view = sliding_window_view(table.counts[residue:], len(caps))[::modulus][:rows]
    ok = np.concatenate([
        (view[r : r + _QUALIFYING_ROWS] <= clipped).all(axis=1)
        for r in range(0, rows, _QUALIFYING_ROWS)
    ])
    members = np.flatnonzero(ok)
    members *= modulus
    members += residue
    return members


def verify_maier(
    cert: MaierCertificate,
    table: RepTable,
    profile: ResidueProfile,
    *,
    _qualifying: np.ndarray | None = None,
) -> Report:
    """Check how the certificate's fields relate and the counting conclusion.

    The profile must hold the residue counts of ell-th powers modulo M and
    the table the counts of sums of ell ell-th powers up to at least N - 1;
    otherwise the inputs do not match the certificate, a ValueError, and no
    report exists.  Every other condition (m + K < M, N >= M^ell, the
    residue bounds, alpha < 1) is recorded as it holds or not, and counting
    still runs, so a near miss stays visible.  The one exception is
    alpha >= 1, which makes the claimed bound meaningless and rejects the
    certificate before counting.  A caller that has already computed the
    qualifying set for the certificate's progression, caps and limit passes
    it as _qualifying, and it is counted as it is.
    """
    if (profile.ell, profile.modulus) != (cert.ell, cert.M):
        raise ValueError("profile must count ell-th powers modulo M")
    if table.params != WaringParams(cert.ell, cert.ell):
        raise ValueError("table must count sums of ell ell-th powers")
    if table.limit < cert.N - 1:
        raise ValueError(f"field N: past the table's limit + 1 = {table.limit + 1}")

    report = Report(kind="maier", certificate=cert.to_json_dict())
    alpha = cert.alpha
    report.check(
        "window-in-modulus", cert.m + cert.K < cert.M, {"m": cert.m, "K": cert.K, "M": cert.M}
    )
    report.check(
        "limit-covers-modulus-power",
        cert.N >= cert.M**cert.ell,
        {"N": cert.N, "M^ell": cert.M**cert.ell},
    )
    alpha_ok = report.check("alpha-below-one", alpha < 1, {"alpha": alpha})

    denom = cert.M ** (cert.ell - 1)
    violations = []
    for k, e in enumerate(cert.eps):
        r = profile.r(cert.m + k)
        if r * e.denominator > e.numerator * denom:
            violations.append({"k": k, "count": r, "eps": e})
    report.check(
        "residue-count-bounds", not violations, {"violations": violations} if violations else None
    )

    bound = (1 - alpha) * Fraction(cert.N, cert.M) / (1 << cert.ell)
    report.note(alpha=alpha, bound=bound)

    if not alpha_ok:
        report.add(
            "count-at-least-bound",
            Verdict.FAIL,
            "counting skipped: certificate rejected before counting",
        )
        return report

    if _qualifying is None:
        _qualifying = maier_qualifying_set(table, cert.M, cert.m, cert.caps, cert.N, cert.K)
    count = int(_qualifying.shape[0])
    report.note(count=count)
    report.check("count-at-least-bound", count >= bound, {"count": count, "bound": bound})
    return report


def verify_maier_inner(m: int, k: int, M: int, L: int, table: RepTable) -> Report:
    """Check the column-sum inequality behind the counting argument.

    Sums the representation counts along the progression m + k + i*M for
    i < L^ell * M^(ell-1) and compares with L^ell times the residue count,
    ell being the table's exponent.
    """
    if M < 1 or L < 1 or m < 0 or k < 0:
        raise ValueError("need M >= 1, L >= 1, m >= 0, k >= 0")
    ell = table.params.ell
    if table.params.s != ell:
        raise ValueError("table must hold counts for ell summands of ell-th powers")
    column = L**ell * M ** (ell - 1)
    top = m + k + (column - 1) * M
    if table.limit < top:
        raise ValueError(
            f"table covers [0, {table.limit}] but the column reaches {top}"
        )
    if column * loose_count_bound(ell, top) >= 2**63:
        raise OverflowError(f"a column of {column} counts may overflow 64-bit summation")
    lhs = int(table.counts[m + k : top + 1 : M].sum())
    profile = residue_counts(ell, M)
    rhs = L**ell * profile.r(m + k)
    report = Report(
        kind="maier-inner",
        certificate={"ell": ell, "m": m, "k": k, "M": M, "L": L},
    )
    report.check(
        "column-sum-bounded", lhs <= rhs, {"column_sum": lhs, "bound": rhs, "column_length": column}
    )
    report.note(column_sum=lhs, bound=rhs)
    return report


# ---------------------------------------------------------------------------
# Nested gaps
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class NestedGapsCertificate:
    """All data needed to replay the nested-gaps independence argument.  A
    field out of range (q < 2, H, E or E_prime not positive, K1, K2 or
    K_prime below 1, and any break of 0 <= n_prime <= n1 < n2) is refused by
    name when the certificate is built; the other orders are the ordering
    condition."""

    q: int
    H: Fraction
    K1: int
    K2: int
    K_prime: int
    n1: int
    n2: int
    n_prime: int
    E: Fraction
    E_prime: Fraction
    f: HalfFunction
    g: HalfFunction
    f_spec: dict | None = field(default=None, repr=False)
    g_spec: dict | None = field(default=None, repr=False)

    def __post_init__(self) -> None:
        _refuse(
            vars(self), ("q", "below", 2), ("H", "not above", 0), ("K1", "below", 1),
            ("K2", "below", 1), ("K_prime", "below", 1), ("n_prime", "below", 0),
            ("n1", "below", "n_prime"), ("n2", "not above", "n1"), ("E", "not above", 0),
            ("E_prime", "not above", 0),
        )

    def to_json_dict(self) -> dict:
        return _echo(
            self,
            f=self.f_spec if self.f_spec is not None else {"label": self.f.label},
            g=self.g_spec if self.g_spec is not None else {"label": self.g.label},
        )


def _height_rule(
    q: int, K1: int, K2: int, H: Fraction, E1: Fraction, E2: Fraction | int, names: tuple[str, str]
) -> tuple[bool, dict, Fraction]:
    """The height rule of the nested-gaps principle at 1/q: both gaps beat
    the height H times their tail bounds, q^K1 > H*E1 and q^K2 > H*E2.
    Returns whether both hold, the witness (q^K1, H*E1, q^K2 and H*E2, the
    products under names) and min(q^K1/E1, q^K2/E2), the least H at which
    one of them fails.  Each power is formed by printable_power, q^K1
    first, so a power too long to print is refused by its name."""
    q_K1 = Fraction(printable_power(q, K1, "q^K1"))
    q_K2 = Fraction(printable_power(q, K2, "q^K2"))
    first, second = H * E1, H * E2
    witness = {"q^K1": q_K1, names[0]: first, "q^K2": q_K2, names[1]: second}
    return q_K1 > first and q_K2 > second, witness, min(q_K1 / E1, q_K2 / E2)


def verify_nested_gaps(cert: NestedGapsCertificate) -> Report:
    """Check hypotheses of the nested-gaps principle, each one exactly.

    A passing report records the conclusion (either g(1/q) = 0 or the two
    values are linearly independent over the rationals); it does not
    re-prove it.  Inconclusive tail verdicts propagate and never pass.
    """
    report = Report(kind="nested-gaps", certificate=cert.to_json_dict())
    report.check(
        "ordering",
        cert.K1 <= cert.K2 < cert.K_prime
        and cert.n1 + cert.K1 < cert.n2
        and cert.n2 + cert.K2 <= cert.n_prime + cert.K_prime,
        {
            "K1": cert.K1,
            "K2": cert.K2,
            "K_prime": cert.K_prime,
            "n1+K1": cert.n1 + cert.K1,
            "n2": cert.n2,
            "n2+K2": cert.n2 + cert.K2,
            "n_prime+K_prime": cert.n_prime + cert.K_prime,
        },
    )

    _add_mild_gaps(
        report,
        "mild-gaps",
        [
            (cert.f, cert.n1, cert.K1, cert.E),
            (cert.f, cert.n2, cert.K1, cert.E),
            (cert.g, cert.n_prime, cert.K_prime, cert.E_prime),
        ],
    )

    # The sum's denominator divides q^p for f's last nonzero position p below
    # n2: refuse it by bit lengths before eval_truncated forms that power.
    below_n2 = int(np.searchsorted(cert.f.positions, cert.n2))
    if below_n2:
        printable_power(cert.q, int(cert.f.positions[below_n2 - 1]), "window sum")
    window_sum = eval_truncated(cert.f, cert.q, cert.n2) - eval_truncated(
        cert.f, cert.q, cert.n1
    )
    report.check("window-sum-nonzero", window_sum != 0, {"sum": window_sum})

    holds, witness, _ = _height_rule(
        cert.q, cert.K1, cert.K2, cert.H, cert.E, cert.E_prime, ("H*E", "H*E_prime")
    )
    report.check("gap-dominates-height", holds, witness)

    if report.verdict is Verdict.PASS:
        report.note(
            conclusion="either g(1/q) = 0 or f(1/q) and g(1/q) are linearly independent "
            "over the rationals"
        )
    return report


class SweepResult(NamedTuple):
    """Outcome of an exhaustive sweep over integer pairs or forms.

    count is the number of pairs or forms covered; minimum is the least
    certified lower bound among the passing ones and minimum_at the first
    pair or form (in enumeration order) attaining it; failing and
    undecided list the others in enumeration order; certified counts the
    passing ones.
    """

    count: int
    minimum: Fraction | None
    minimum_at: tuple[int, ...] | None
    failing: list[tuple[int, ...]]
    undecided: list[tuple[int, ...]]
    certified: int


def _common_numerators(values: Sequence[Fraction]) -> tuple[int, list[int]]:
    """The least common denominator D of the values, and each value times D."""
    denominator = math.lcm(*(v.denominator for v in values))
    return denominator, [v.numerator * (denominator // v.denominator) for v in values]


def _ray(first: int, last: int, a: int, c: int, v: int) -> tuple[int, int]:
    """The integers beta in [first, last] with a + beta*c >= v, as (start,
    end); the range is empty when start > end."""
    if c > 0:
        return max(first, -((a - v) // c)), last
    if c < 0:
        return first, min(last, (a - v) // -c)
    return (first, last) if a >= v else (last + 1, last)


def _sweep_pairs(f: Enclosure, g: Enclosure, threshold: Fraction, height: int) -> SweepResult:
    """Classify every pair alpha != 0, |alpha| + |beta| <= height by the
    enclosure [lo, hi] of alpha*F + beta*G against a positive threshold t:
    the pair passes when lo >= t or hi <= -t (the certified lower bound on
    |alpha*F + beta*G| is then lo or -hi), fails when -t < lo and hi < t,
    and is undecided otherwise.  All arithmetic is on integer numerators
    over one common denominator.

    For fixed alpha and one side of 0 (beta <= 0, or beta >= 1), lo and hi
    are linear in beta whatever the sign of G.  So the passing betas of a
    side form two disjoint rays, lo >= t and hi <= -t, each holding one end
    of the side; the betas between them do not pass, and the failing ones
    form an interval among those.  Each end is one integer division (_ray).
    The bound is linear on each ray, so its least value there is at one end.

    Only alpha >= 1 is swept.  Negating a pair negates its enclosure
    exactly: (-alpha, -beta) has lo and hi equal to -hi and -lo of
    (alpha, beta), so the two pass, fail or stay undecided together, with
    the same bound.  The betas of -alpha that do not pass are those of alpha
    negated, so each of alpha's runs, reversed and negated, gives the runs
    of -alpha in ascending order, and the lists are emitted for alpha from
    -height up.  The first pair in that order attaining the minimum is the
    mirror of the last one (greatest alpha, then greatest beta) among the
    pairs with alpha >= 1; a ray whose bound is constant offers its
    greatest beta.
    """
    denominator, (f_lo, f_hi, g_lo, g_hi, t) = _common_numerators(
        (f.lo, f.hi, g.lo, g.hi, threshold)
    )
    best: tuple[int, int, int] | None = None  # (bound, -alpha, -beta)
    failing, undecided = [], []
    runs = []  # (alpha, [(list, first beta, last beta), ...]) for alpha >= 1
    for alpha in range(1, height + 1):
        budget = height - alpha
        a_lo, a_hi = alpha * f_lo, alpha * f_hi
        segments = []
        # lo = a_lo + beta*c_lo and hi = a_hi + beta*c_hi on each side
        for first, last, c_lo, c_hi in ((-budget, 0, g_hi, g_lo), (1, budget, g_lo, g_hi)):
            gap_first, gap_last = first, last
            for a, c in ((a_lo, c_lo), (-a_hi, -c_hi)):  # lo >= t, then -hi >= t
                start, end = _ray(first, last, a, c, t)
                if start <= end:
                    beta = start if c > 0 else end
                    candidate = (a + beta * c, -alpha, -beta)
                    if best is None or candidate < best:
                        best = candidate
                    if start == first:
                        gap_first = end + 1
                    else:
                        gap_last = start - 1
            if gap_first > gap_last:
                continue
            fail_first, fail_last = _ray(gap_first, gap_last, a_lo, c_lo, 1 - t)  # lo > -t
            fail_first, fail_last = _ray(fail_first, fail_last, -a_hi, -c_hi, 1 - t)  # hi < t
            if fail_first > fail_last:
                fail_first, fail_last = gap_last + 1, gap_last
            segments += (
                (undecided, gap_first, fail_first - 1),
                (failing, fail_first, fail_last),
                (undecided, fail_last + 1, gap_last),
            )
        if segments:
            runs.append((alpha, segments))

    for alpha, segments in reversed(runs):
        for out, first, last in reversed(segments):
            out.extend((-alpha, beta) for beta in range(-last, 1 - first))
    for alpha, segments in runs:
        for out, first, last in segments:
            out.extend((alpha, beta) for beta in range(first, last + 1))

    pairs = 2 * height * height
    return SweepResult(
        count=pairs,
        minimum=None if best is None else Fraction(best[0], denominator),
        minimum_at=None if best is None else best[1:],
        failing=failing,
        undecided=undecided,
        certified=pairs - len(failing) - len(undecided),
    )


def check_measure(cert: NestedGapsCertificate, terms: int | None = None) -> Report:
    """Certify |alpha*f(1/q) + beta*g(1/q)| >= q^(-n2) for every integer
    pair with alpha != 0 and |alpha| + |beta| bounded by the certificate
    height, from certified enclosures of f(1/q) and g(1/q).  A certificate
    that does not pass verify_nested_gaps stops at the
    nested-gaps-precondition condition, with that report's verdict.

    Every pair is accounted for, whatever the sign of g's enclosure: for
    each alpha and each side of beta = 0, the passing, failing and
    undecided betas are intervals solved in closed form, and only the pairs
    that do not pass are listed (see _sweep_pairs).  Pairs whose enclosure
    straddles the threshold are reported for retry at a larger term count.

    The pairs are closed under negation, and the enclosure of
    -alpha*F - beta*G is exactly that of alpha*F + beta*G reflected through
    0, so a pair and its mirror share their verdict and bound.  Only
    alpha >= 1 is swept; the pairs with alpha < 0 are read off by negation,
    in the same order and with the same minimum pair as a sweep of both.
    """
    report = Report(kind="measure", certificate=cert.to_json_dict())
    base = verify_nested_gaps(cert)
    if base.verdict is not Verdict.PASS:
        report.add("nested-gaps-precondition", base.verdict, base.to_json_dict())
        return report
    report.add("nested-gaps-precondition", Verdict.PASS)

    threshold = Fraction(1, printable_power(cert.q, cert.n2, "threshold"))
    if terms is None:
        terms = max(64, cert.n2 + cert.K2 + 1, cert.n_prime + cert.K_prime + 1)
    f_enc = _clamped_enclosure(cert.f, cert.q, terms)
    g_enc = _clamped_enclosure(cert.g, cert.q, terms)
    height = int(cert.H)
    if height > 100_000:
        raise ValueError(f"height {height} too large for exhaustive pair enumeration")

    sweep = _sweep_pairs(f_enc, g_enc, threshold, height)
    verdict = Verdict.PASS
    if sweep.failing:
        verdict = Verdict.FAIL
    elif sweep.undecided:
        verdict = Verdict.INCONCLUSIVE
    report.add(
        "pairs-above-threshold",
        verdict,
        {
            "pairs": sweep.count,
            "threshold": threshold,
            "failing": sweep.failing[:10],
            "undecided": sweep.undecided[:10],
        },
    )
    report.note(
        pairs=sweep.count,
        threshold=threshold,
        min_lower_bound=sweep.minimum,
        min_pair=sweep.minimum_at,
        terms=terms,
    )
    return report


# ---------------------------------------------------------------------------
# Degree criterion
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DegreeCertificate:
    """The data of one degree-criterion instance: the power ell, the point
    1/q, the strength J, the tail bound E, the limit N, the window lengths
    K1 and K2 and the window ends n1 and n2.  J and E are held as positive
    Fractions.  A field out of range (ell not 3 or 4, q < 2, J or E not
    positive, N, K1 or K2 < 1, n1 or n2 < 0) is refused by name when the
    certificate is built; the order of the windows is the ordering
    condition."""

    ell: int
    q: int
    J: Fraction
    E: Fraction
    N: int
    K1: int
    K2: int
    n1: int
    n2: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "J", Fraction(self.J))
        object.__setattr__(self, "E", Fraction(self.E))
        _refuse(
            vars(self), ("ell", "not one of", SUPPORTED_EXPONENTS), ("J", "not above", 0),
            ("E", "not above", 0), ("q", "below", 2), ("N", "below", 1), ("K1", "below", 1),
            ("K2", "below", 1), ("n1", "below", 0), ("n2", "below", 0),
        )


def verify_degree_criterion(
    cert: DegreeCertificate, table_lower: RepTable, table_full: RepTable
) -> Report:
    """Check the four conditions that force the power-sum series value to
    avoid low-degree algebraic relations at 1/q, for the given strength J.

    table_lower holds counts for ell - 1 summands, table_full for ell.
    """
    ell, q, J, E, N = cert.ell, cert.q, cert.J, cert.E, cert.N
    K1, K2, n1, n2 = cert.K1, cert.K2, cert.n1, cert.n2
    if table_lower.params != WaringParams(ell, ell - 1):
        raise ValueError("table_lower must count sums of ell - 1 powers")
    if table_full.params != WaringParams(ell, ell):
        raise ValueError("table_full must count sums of ell powers")
    if table_lower.limit < n2 + K2 - 1 or table_full.limit < max(n1, n2) + K1 - 1:
        raise ValueError("tables do not cover the window [n1, n2 + K2) of shorter sums and the "
                         "mild-gap windows [n, n + K1) at n = n1, n2")

    report = Report(kind="degree-criterion", certificate=_echo(cert))

    report.check(
        "ordering",
        n1 + K1 < n2 and n2 + K2 <= N,
        {"n1+K1": n1 + K1, "n2": n2, "n2+K2": n2 + K2, "N": N},
    )

    f_full = HalfFunction.from_table(table_full)
    _add_mild_gaps(report, "mild-gap-endpoints", [(f_full, n, K1, E) for n in (n1, n2)])

    # Both tables cover the window, so a next nonzero past its end means none inside.
    shorter = table_lower.next_nonzero(n1)
    free = shorter >= n2 + K2
    report.check("window-free-of-shorter-sums", free, None if free else {"witness": shorter})

    inside = table_full.next_nonzero(n1)
    found = inside < n2
    report.check("representable-point-inside", found, {"witness": inside} if found else None)

    holds, witness, j_max = _height_rule(q, K1, K2, J, E, N, ("J*E", "J*N"))
    report.check("height-gap", holds, witness)

    unit_c_paper = ell * (1 << ell)
    unit_c_sum = 1 + (ell - 1) * (1 << ell)
    report.note(
        largest_certifiable_J_below=j_max,
        derived_outer_gap=n2 - n1 + K2,
        outer_tail_bound_unit_height=Fraction(8 * unit_c_paper * N),
        outer_tail_bound_unit_height_sharper=Fraction(8 * unit_c_sum * N),
    )
    if report.verdict is Verdict.PASS:
        report.note(
            conclusion=f"instance recorded as evidence that the series value at 1/{q} "
            f"admits no algebraic relation of degree at most {ell} at strength "
            f"J = {render_exact(J, 'J')}"
        )
    return report


# ---------------------------------------------------------------------------
# Linear forms in powers of the series value
# ---------------------------------------------------------------------------


# Choices of c_1 .. c_ell swept at once by _sweep_forms: bounds its object
# arrays of numerators.
_FORM_BLOCK = 1 << 14


def _flat_sums(parts: Sequence[np.ndarray]) -> np.ndarray:
    """Every sum of one entry of each part, in itertools.product order."""
    sums = np.zeros(1, dtype=object)
    for part in parts:
        sums = np.add.outer(sums, part).ravel()
    return sums


def _sweep_forms(powers: Sequence[Enclosure], height: int) -> SweepResult:
    """Classify every integer form c_0 + c_1*t_1 + ... + c_ell*t_ell with
    coefficients in [-height, height] and c_ell != 0, where t_j lies in
    powers[j - 1] and the constant term is exactly 1.

    A form is certified when its enclosure excludes 0, and undecided
    otherwise; the minimum is over the certified lower bounds on |form|.
    All arithmetic is on integer numerators over one common denominator D,
    held as Python ints in object arrays.

    For fixed c_1 .. c_ell the enclosure of S = sum_j c_j*t_j is [s_lo, s_hi]
    (as numerators), and c_0 only shifts it by c_0*D.  So the undecided c_0
    are exactly the integers in [ceil(-s_hi/D), floor(-s_lo/D)], the lower
    bound rises strictly away from that interval on either side, and the
    least one sits at a neighbour of the interval, clamped into
    [-height, height].  The sums of every choice of c_1 .. c_ell come from
    np.add.outer over the terms' numerators, and are swept in blocks of at
    most about _FORM_BLOCK choices: the leading coefficients index the
    blocks and the trailing ones the choices within a block.

    Only c_ell >= 1 is swept.  Negating a form negates its enclosure
    exactly: -c has the sum enclosure [-s_hi, -s_lo] and the undecided c_0
    interval of c mirrored, so c and -c are undecided together and have the
    same bound.  The undecided forms are those found and their negations,
    sorted, and the least form attaining the minimum is the least among the
    tied forms found and their negations.
    """
    denominator, nums = _common_numerators([x for e in powers for x in (e.lo, e.hi)])
    coeffs = [np.arange(-height, height + 1) for _ in powers]
    coeffs[-1] = np.arange(1, height + 1)
    lows, highs = [], []
    for c, lo, hi in zip(coeffs, nums[0::2], nums[1::2]):
        ends = c.astype(object) * lo, c.astype(object) * hi
        lows.append(np.minimum(*ends))
        highs.append(np.maximum(*ends))

    sizes = [len(c) for c in coeffs]
    split, inner = len(sizes), 1
    while split > 1 and inner * sizes[split - 1] <= _FORM_BLOCK:
        split -= 1
        inner *= sizes[split]
    step = max(1, _FORM_BLOCK // inner)
    outer_lo, outer_hi = _flat_sums(lows[:split]), _flat_sums(highs[:split])
    inner_lo, inner_hi = _flat_sums(lows[split:]), _flat_sums(highs[split:])

    def forms(c0: np.ndarray, choices: np.ndarray) -> np.ndarray:
        """Rows (c_0, c_1, ..., c_ell) for c_0 at each flat choice index."""
        digits = np.unravel_index(choices, sizes)
        return np.column_stack([c0, *(c[d] for c, d in zip(coeffs, digits))])

    best: tuple[int, tuple[int, ...]] | None = None
    open_forms = [np.empty((0, len(powers) + 1), dtype=np.int64)]
    for start in range(0, len(outer_lo), step):
        s_lo = np.add.outer(outer_lo[start : start + step], inner_lo).ravel()
        s_hi = np.add.outer(outer_hi[start : start + step], inner_hi).ravel()
        offset = start * inner
        first, last = -(s_hi // denominator), -s_lo // denominator

        c0_lo, c0_hi = np.maximum(first, -height), np.minimum(last, height)
        open_ = np.flatnonzero(c0_lo <= c0_hi)
        if open_.size:
            c0_lo = c0_lo[open_].astype(np.int64)
            runs = c0_hi[open_].astype(np.int64) - c0_lo + 1
            stops = np.cumsum(runs)
            c0 = np.arange(stops[-1]) + np.repeat(c0_lo - stops + runs, runs)
            open_forms.append(forms(c0, np.repeat(open_ + offset, runs)))

        below, above = np.minimum(first - 1, height), np.maximum(last + 1, -height)
        at_below = np.flatnonzero(below >= -height)
        at_above = np.flatnonzero(above <= height)
        bounds = np.concatenate((
            -(below[at_below] * denominator + s_hi[at_below]),
            above[at_above] * denominator + s_lo[at_above],
        ))
        if not bounds.size:
            continue
        least = bounds.min()
        if best is not None and least > best[0]:
            continue
        ties = np.flatnonzero(bounds == least)
        c0 = np.concatenate((below[at_below], above[at_above]))[ties].astype(np.int64)
        choices = np.concatenate((at_below, at_above))[ties] + offset
        tied = forms(c0, choices)
        candidate = (least, min(map(tuple, np.concatenate((tied, -tied)).tolist())))
        if best is None or candidate < best:
            best = candidate

    forms_count = (2 * height + 1) ** len(powers) * 2 * height
    found = np.concatenate(open_forms)
    undecided = sorted(map(tuple, np.concatenate((found, -found)).tolist()))
    return SweepResult(
        count=forms_count,
        minimum=None if best is None else Fraction(best[0], denominator),
        minimum_at=None if best is None else best[1],
        failing=[],
        undecided=undecided,
        certified=forms_count - len(undecided),
    )


def check_theta_linear_forms(
    q: int, height: int, terms: int, tables: Sequence[RepTable]
) -> Report:
    """Certify non-vanishing of every admissible linear form in the powers.

    Covers all integer forms c_0 + c_1*t + ... + c_ell*t^ell with
    coefficients bounded by the height and c_ell != 0, where ell is the
    number of tables and t^j is enclosed via the direct power-series table
    tables[j - 1] of ell-th powers and j summands (not interval powers),
    and records the minimal certified lower bound.
    Every form is accounted for: for each choice of c_1 .. c_ell the
    constant c_0 only shifts the enclosure, so the undecided c_0 are read
    off as one integer interval and the others are certified by the bound
    rising monotonically away from it (see _sweep_forms).  Interval powers
    are still computed and cross-checked against the direct enclosures.

    The forms are closed under negation, and the enclosure of -c is exactly
    that of c reflected through 0, so a form and its mirror are undecided
    together and share their bound.  Only c_ell >= 1 is swept; the forms
    with c_ell < 0 are read off by negation, with the same undecided list,
    count and least form as a sweep of both signs.
    """
    if not tables:
        raise ValueError("need at least one table")
    ell = len(tables)
    if height < 1:
        raise ValueError("height must be positive")
    if (2 * height + 1) ** (ell + 1) > 10_000_000:
        raise ValueError(f"height {height} too large for exhaustive form enumeration")
    for s, table in enumerate(tables, start=1):
        if table.params != WaringParams(ell, s):
            raise ValueError(f"table {s} has parameters {table.params}")

    report = Report(
        kind="linear-forms",
        certificate={"ell": ell, "q": q, "height": height, "terms": terms},
    )
    enclosures = [_clamped_enclosure(HalfFunction.from_table(t), q, terms) for t in tables]

    theta = enclosures[0]
    crosscheck = []
    for j in range(2, ell + 1):
        powered = theta.power(j)
        crosscheck.append(
            {
                "power": j,
                "direct": enclosures[j - 1].to_json_dict(),
                "interval_power": powered.to_json_dict(),
                "intersects": enclosures[j - 1].intersects(powered),
            }
        )
    report.check("interval-power-crosscheck", all(c["intersects"] for c in crosscheck), crosscheck)

    sweep = _sweep_forms(enclosures, height)
    report.add(
        "forms-nonvanishing",
        Verdict.INCONCLUSIVE if sweep.undecided else Verdict.PASS,
        {"certified": sweep.certified, "undecided": sweep.undecided[:10]},
    )
    report.note(
        forms_checked=sweep.count,
        L_min=sweep.minimum,
        L_min_form=sweep.minimum_at,
        theta_enclosure=theta.to_json_dict(),
        theta_width=theta.width,
    )
    return report


# ---------------------------------------------------------------------------
# Parameter pipeline dry run
# ---------------------------------------------------------------------------

DEFAULT_POOLS = {3: (9, 63), 4: (16, 32)}
DEFAULT_SIGMAS = {3: Fraction(13, 4), 4: Fraction(512, 127)}
SIGMA_RANGES = {
    3: (Fraction(3), Fraction(27, 8)),
    4: (Fraction(4), 1 / WINDOW_EXPONENT),
}


@dataclass(frozen=True)
class PipelineConfig:
    """Resource bounds and desk-scale choices for the dry run.  xi is held
    as a Fraction.  A field out of range (an empty moduli_pool, xi not
    positive, max_limit or max_modulus below 1, mild_check_cap below 0) is
    refused by name when the config is built."""

    moduli_pool: tuple[int, ...] | None = None
    window: int = 2
    xi: Fraction = Fraction(32, 3)
    sigma: Fraction | None = None
    product_bound: int | None = None
    max_modulus: int = 4096
    max_limit: int = 2_000_000
    mild_check_cap: int = 200
    threads: int = 1

    def __post_init__(self) -> None:
        object.__setattr__(self, "xi", Fraction(self.xi))
        _refuse(
            vars(self), ("moduli_pool", "shorter than", 1), ("xi", "not above", 0),
            ("max_limit", "below", 1), ("max_modulus", "below", 1), ("mild_check_cap", "below", 0),
        )

    def to_json_dict(self) -> dict:
        return _echo(self)


def _window_runs(b: np.ndarray, M: int, N: int) -> tuple[np.ndarray, np.ndarray]:
    """The union of the windows [max(1, b + ceil(M/2)), min(N, b + M - 1)]
    of the ascending b, as ascending disjoint half-open runs (starts, stops).

    Both ends of a window ascend with b, so a window starts a new run of
    the union exactly when it starts past the end of the window before it,
    and a run ends where its last window does.
    """
    starts = b + (M + 1) // 2
    np.maximum(starts, 1, out=starts)
    stops = b + M  # half-open [start, stop)
    np.minimum(stops, N + 1, out=stops)
    nonempty = starts < stops
    starts, stops = starts[nonempty], stops[nonempty]
    gap = starts[1:] > stops[:-1]
    return (
        np.concatenate((starts[:1], starts[1:][gap])),
        np.concatenate((stops[:-1][gap], stops[-1:])),
    )


def _window_escapes(
    b: np.ndarray, M: int, N: int, runs: tuple[np.ndarray, np.ndarray]
) -> tuple[int, int]:
    """(window_points, escaped) for the windows of _window_runs: how many
    integers lie in some window, and how many of those are not exceptional.
    The exceptional points come as runs (starts, stops): ascending, disjoint
    half-open intervals of [1, N + 1).

    The exceptional points below x are a prefix sum of the run lengths,
    less the part of the run that x cuts.  One searchsorted finds it for
    the starts of the union's runs and one for their stops.
    """
    run_starts, run_stops = _window_runs(b, M, N)
    window_points = int((run_stops - run_starts).sum())
    ex_starts, ex_stops = runs
    below = np.concatenate(([0], np.cumsum(ex_stops - ex_starts)))
    ends = np.concatenate(([0], ex_stops))  # ends[i]: the stop of run i - 1

    def exceptional_below(x: np.ndarray) -> int:
        """The exceptional points below each x, summed over x."""
        i = np.searchsorted(ex_starts, x)  # the runs that start below x
        part = ends.take(i)
        part -= x
        np.maximum(part, 0, out=part)  # the part of run i - 1 at or past x
        total = -int(part.sum())
        # mode="clip" writes into out unbuffered; every i is in range
        return total + int(below.take(i, out=part, mode="clip").sum())

    inside = exceptional_below(run_stops) - exceptional_below(run_starts)
    return window_points, window_points - inside


def _maier_schedule(
    K1: int, K2: int, xi: Fraction
) -> tuple[tuple[Fraction, ...], tuple[int, ...]]:
    """The pipeline's counting schedule (eps, caps) over offsets 0..K2: eps
    1/(2 * K1) and cap 0 at the first K1 offsets, then eps xi and cap
    floor(12 * xi * (3/2)^k) at offset K1 + k.

    Its alpha is below 3/4 for every xi > 0: the first K1 terms sum to 1/2,
    and xi/(floor(12 * xi * (3/2)^k) + 1) < 1/(12 * (3/2)^k), since
    floor(y) + 1 > y; those bounds sum to less than 1/4.
    """
    eps = (Fraction(1, 2 * K1),) * K1 + (xi,) * (K2 - K1 + 1)
    caps = (0,) * K1 + tuple(int(12 * xi * Fraction(3, 2) ** k) for k in range(K2 - K1 + 1))
    return eps, caps


def pipeline_dry_run(
    ell: int, q: int, J: Fraction | int = 1, config: PipelineConfig | None = None
) -> Report:
    """Run the full parameter recipe at desk scale and report each step.

    The modulus comes from an exact search instead of an analytic
    existence argument; every subsequent choice (limit, windows, tail
    schedule, counting, bad-pair filter, separation, degree criterion) is
    evaluated exactly and reported, including the steps that fail at this
    scale.  Exceeding a configured bound yields a partial report, never a
    silent truncation.  An ell not 3 or 4, a q below 2 or a J not above 0
    is refused by name, as a certificate's field is, before any report.
    """
    J = Fraction(J)
    _refuse(
        {"ell": ell, "q": q, "J": J}, ("ell", "not one of", SUPPORTED_EXPONENTS),
        ("q", "below", 2), ("J", "not above", 0),
    )
    config = config or PipelineConfig()
    report = Report(
        kind="pipeline",
        certificate={"ell": ell, "q": q, "J": J, "config": config.to_json_dict()},
    )

    sigma = config.sigma if config.sigma is not None else DEFAULT_SIGMAS[ell]
    lo_sigma, hi_sigma = SIGMA_RANGES[ell]
    in_range = report.check(
        "exponent-in-range",
        lo_sigma < sigma < hi_sigma,
        {"sigma": sigma, "open_interval": [lo_sigma, hi_sigma]},
    )
    report.note(sigma=sigma)
    if not in_range:
        report.note(halted_at="exponent-in-range")
        return report

    pool = tuple(config.moduli_pool) if config.moduli_pool is not None else DEFAULT_POOLS[ell]
    usable_pool = tuple(m for m in pool if m <= config.max_modulus)
    if usable_pool != pool:
        report.add(
            "pool-within-modulus-budget",
            Verdict.FAIL,
            {"dropped": [m for m in pool if m > config.max_modulus]},
        )
    K1 = config.window
    search = search_gap_modulus(
        ell, K1, usable_pool, product_bound=config.product_bound
    ) if usable_pool else None
    if not report.check(
        "modulus-search",
        search is not None,
        search.to_json_dict() if search is not None else "no candidate met the small-count threshold",
    ):
        report.note(halted_at="modulus-search")
        return report
    M, m = search.modulus, search.residue
    report.note(M=M, m=m, K1=K1)

    exact_limit = floor_pow(M, sigma)
    capped = exact_limit > config.max_limit
    N = min(exact_limit, config.max_limit)
    report.check(
        "limit-within-budget",
        not capped,
        {"exact": exact_limit, "used": N, "max_limit": config.max_limit},
    )
    report.check("limit-covers-modulus-power", N >= M**ell, {"N": N, "M^ell": M**ell})
    report.note(N=N)

    K2 = M // 2
    report.note(K2=K2)
    if not report.check("windows-ordered", K1 <= K2, {"K1": K1, "K2": K2}):
        report.note(halted_at="windows-ordered")
        return report
    report.check("second-window-doubles-first", K2 > 2 * K1, {"K1": K1, "K2": K2})
    report.check("residue-window-inside-modulus", m + K2 < M, {"m+K2": m + K2, "M": M})
    report.check("size-shape", max(2 * m, 4 * K1) < M, {"2m": 2 * m, "4K1": 4 * K1, "M": M})
    report.check("modulus-even", M % 2 == 0, {"M": M})

    eps, caps = _maier_schedule(K1, K2, config.xi)
    cert = MaierCertificate(ell=ell, K=K2, M=M, m=m, eps=eps, caps=caps, N=N)
    alpha = cert.alpha
    report.note(alpha=alpha, xi=config.xi)
    report.check(
        "schedule-alpha-below-three-quarters",
        alpha < Fraction(3, 4),
        {"alpha": alpha, "alpha_decimal_display_only": decimal_str(alpha, 6)},
    )
    report.check(
        "schedule-dominates-loose-bound",
        12 * config.xi >= 8 * (1 << ell),
        {"12*xi": 12 * config.xi, "8*2^ell": 8 * (1 << ell)},
    )
    kappa = K2 - K1
    report.check("kappa-at-least-first-window", kappa >= K1, {"kappa": kappa, "K1": K1})
    report.check("kappa-at-least-log-limit", (1 << kappa) >= N, {"kappa": kappa, "N": N})
    E = 60 * config.xi
    report.note(E=E)

    # Margin past N keeps boundary tail checks decidable; counting ignores it.
    sieve_limit = default_cutoff(N + K2, K1) + 8
    table_full, table_lower = sieve_pair(ell, sieve_limit)
    profile = residue_counts(ell, M)
    members = maier_qualifying_set(table_full, M, m, caps, N, K2)
    maier_report = verify_maier(cert, table_full, profile, _qualifying=members)
    report.add(
        "counting-certificate",
        maier_report.verdict,
        maier_report.summary,
    )

    b_count = int(members.shape[0])
    report.note(qualifying_points=b_count)
    floor_bound = Fraction(N, (1 << (ell + 2)) * M)
    report.check(
        "qualifying-set-large", b_count >= floor_bound, {"count": b_count, "bound": floor_bound}
    )

    # The tables cover every window, so a next nonzero past its end means none inside.
    b1s, b2s = members[:-1], members[1:]
    # The inclusive end is one index stricter than the criterion's [n1, n2 + K2): good pairs pass it.
    good = table_lower.next_nonzero(b1s) > b2s + K2
    good_b1, good_b2 = b1s[good], b2s[good]
    bad_count = b1s.size - good_b1.size
    report.note(pairs=b1s.size, good_pairs=good_b1.size)
    report.check(
        "bad-points-minority", 2 * bad_count < b_count, {"bad": bad_count, "qualifying": b_count}
    )
    good_bound = Fraction(N, (1 << (ell + 3)) * M)
    report.check(
        "good-set-large",
        good_b1.size >= good_bound,
        {"count": good_b1.size, "bound": good_bound},
    )

    f_full = HalfFunction.from_table(table_full)
    _add_mild_gaps(
        report,
        "qualifying-points-are-mild-gaps",
        [(f_full, b, K1, E) for b in members[: config.mild_check_cap].tolist()],
        tally=True,
    )

    if ell == 3:
        report.check(
            "greedy-window-within-modulus",
            25**27 * N**8 < M**27,
            {"compare": "25^27 * N^8 < M^27", "N": N, "M": M},
        )
    else:
        epsilon = (Fraction(1) / sigma - WINDOW_EXPONENT) / 2
        if report.check(
            "window-exponent-positive", epsilon > 0, {"epsilon": epsilon}
        ):
            exponent = WINDOW_EXPONENT + epsilon
            ed, en = exponent.denominator, exponent.numerator
            report.check(
                "half-modulus-exceeds-window",
                _pow_greater(M, ed, N, en, ed),
                {"compare": "(M/2)^d > N^n", "exponent": exponent},
            )
            scan = scan_exceptional_set(N, epsilon, table_full)
            window_points, escaped = _window_escapes(good_b1, M, N, (scan.starts, scan.stops))
            report.check(
                "window-set-escapes-exceptional",
                escaped > 0,
                {
                    "window_points": window_points,
                    "exceptional": scan.cardinality,
                    "escaped": escaped,
                    "epsilon": epsilon,
                },
            )
            report.note(exceptional_density=scan.density)

    inside = table_full.next_nonzero(good_b1 + 1) < good_b2
    qualified_b1, qualified_b2 = good_b1[inside], good_b2[inside]
    report.check(
        "representable-point-in-some-pair",
        qualified_b1.size > 0,
        {"qualified": qualified_b1.size, "good_pairs": good_b1.size},
    )

    if qualified_b1.size:
        n1, n2 = int(qualified_b1[0]), int(qualified_b2[0])
        degree_report = verify_degree_criterion(
            DegreeCertificate(ell, q, J, E, N, K1, K2, n1, n2), table_lower, table_full
        )
        report.add(
            "degree-criterion",
            degree_report.verdict,
            {
                "n1": n1,
                "n2": n2,
                "per_condition": [c.to_json_dict() for c in degree_report.conditions],
                "summary": degree_report.summary,
            },
        )
        report.note(
            largest_certifiable_J_below=degree_report.summary["largest_certifiable_J_below"]
        )
    else:
        report.add("degree-criterion", Verdict.FAIL, "no qualifying pair available")

    return report


# ---------------------------------------------------------------------------
# Certificate wire formats
# ---------------------------------------------------------------------------


# What each relation of _refuse asks of a field's value and its bound.
_HOLDS = {"below": operator.ge, "not above": operator.gt, "not one of": lambda v, b: v in b,
          "shorter than": lambda v, b: len(v) >= b}


def _refuse(values: dict[str, Any], *rules: tuple[str, str, Any]) -> None:
    """Refuse the first field that breaks its rule, by name, as its record
    is built: a ValueError ``field <name>: <value> is <relation> <bound>``.

    values maps field names to values (a record's vars).  A rule (name,
    relation, bound) asks value >= bound ("below"), value > bound ("not
    above"), value in bound ("not one of") or len(value) >= bound ("shorter
    than"); a field that is None, left to its default, is not checked.  A
    bound that is a string names another field, and is shown as ``<name> =
    <value>``.  A value too long to print is refused by render_exact, as
    ``field <name> has more than <limit> digits to print``.
    """
    for name, relation, bound in rules:
        value = values[name]
        least = values[bound] if isinstance(bound, str) else bound
        if value is not None and not _HOLDS[relation](value, least):
            shown = render_exact(value, f"field {name}")
            if isinstance(bound, str):
                bound = f"{bound} = {render_exact(least, f'field {bound}')}"
            raise ValueError(f"field {name}: {shown} is {relation} {bound}")


def _echo(obj: Any, **extra: Any) -> dict:
    """A dataclass's fields that its repr shows, in order, each replaced by
    the extra entry of its name, then the other extra entries, as a report
    prints them."""
    echo = {f.name: getattr(obj, f.name) for f in fields(obj) if f.repr}
    return render_exact({**echo, **extra})


def _field(obj: dict, key: str, kind: str) -> Any:
    if key not in obj:
        raise ValueError(f"field {key}: missing")
    return parse_exact(obj[key], kind, f"field {key}")


def _entry(raw: Any) -> tuple[int, int]:
    """One [index, coefficient] pair of a coefficients spec's entries."""
    name = "field entries"
    entry = parse_exact(raw, "list", name)
    if len(entry) != 2:
        raise ValueError(
            f"{name}: expected an [index, coefficient] pair, got a list of {len(entry)}"
        )
    return parse_exact(entry[0], "int", name), parse_exact(entry[1], "int", name)


def half_function_from_spec(spec: dict, base_dir: Path | None = None) -> HalfFunction:
    """Build a series from its JSON description.

    Kinds: constant {value}, coefficients {entries|values, c?, label?},
    rep-table {path} or {ell, s, limit}, combination {alphas, parts}.
    """
    kind = spec.get("kind")
    if kind == "constant":
        return HalfFunction.constant(_field(spec, "value", "int"))
    if kind == "coefficients":
        if "entries" in spec:
            values = dict(map(_entry, _field(spec, "entries", "list")))
            bad = next((n for n in values if not 0 <= n < 2**63), None)
            if bad is not None:
                past = "below 0" if bad < 0 else "past 2^63 - 1"
                raise ValueError(f"field entries: index {bad} is {past}")
        else:
            values = {
                n: parse_exact(a, "int", "field values")
                for n, a in enumerate(_field(spec, "values", "list"))
            }
        c = _field(spec, "c", "fraction") if "c" in spec else None
        if c is not None and c < 0:
            raise ValueError(f"field c: {render_exact(c, 'c')} is below 0")
        label = _field(spec, "label", "string") if "label" in spec else "poly"
        return HalfFunction.from_coefficients(values, c=c, label=label)
    if kind == "rep-table":
        if "path" in spec:
            path = Path(_field(spec, "path", "string"))
            if base_dir is not None and not path.is_absolute():
                path = base_dir / path
            return HalfFunction.from_table(read_table_binary(path))
        params = WaringParams(_field(spec, "ell", "int"), _field(spec, "s", "int"))
        limit = _field(spec, "limit", "int")
        if limit < 0:
            raise ValueError(f"field limit: {limit} is below 0")
        return HalfFunction.from_table(sieve_rep(params, limit))
    if kind == "combination":
        parts = [
            half_function_from_spec(parse_exact(p, "object", "field parts"), base_dir)
            for p in _field(spec, "parts", "list")
        ]
        alphas = [parse_exact(a, "int", "field alphas") for a in _field(spec, "alphas", "list")]
        return linear_combination(alphas, parts)
    raise ValueError(f"unknown half-function kind {kind!r}")


def nested_certificate_from_json(
    obj: dict, base_dir: Path | None = None
) -> NestedGapsCertificate:
    """Parse the nested-gaps certificate wire format."""
    obj = parse_exact(obj, "object", "certificate")
    return NestedGapsCertificate(
        q=_field(obj, "q", "int"),
        H=_field(obj, "H", "fraction"),
        K1=_field(obj, "K1", "int"),
        K2=_field(obj, "K2", "int"),
        K_prime=_field(obj, "K_prime", "int"),
        n1=_field(obj, "n1", "int"),
        n2=_field(obj, "n2", "int"),
        n_prime=_field(obj, "n_prime", "int"),
        E=_field(obj, "E", "fraction"),
        E_prime=_field(obj, "E_prime", "fraction"),
        f=half_function_from_spec(_field(obj, "f", "object"), base_dir),
        g=half_function_from_spec(_field(obj, "g", "object"), base_dir),
        f_spec=obj["f"],
        g_spec=obj["g"],
    )
