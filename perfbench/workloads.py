"""Seeded inputs and step lists of the three benchmark workloads.

A workload is a fixed sequence of ``waring-gaps`` invocations.  The seed
picks one of ``VARIANTS`` input variants: it moves where the inputs sit
(scan offsets, small jitter on sieve limits, the order of a moduli pool)
and what values they hold (certificate coefficients, the base q), never
how much work a step does.
Each variant has a recorded reference in ``reference.json``, so every
step's output can be checked exactly.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from pathlib import Path

VARIANTS = 16


@dataclass(frozen=True)
class Step:
    """One CLI invocation, its JSON report and the other files it writes."""

    label: str
    argv: tuple[str, ...]
    report: Path
    outputs: tuple[Path, ...] = field(default=())

    @property
    def subcommand(self) -> str:
        return self.argv[0]


def _step(workdir: Path, label: str, argv: list, outputs: tuple[str, ...] = ()) -> Step:
    report = workdir / f"{label}.json"
    files = tuple(workdir / name for name in outputs)
    return Step(label, tuple(str(a) for a in argv) + ("--json", str(report)), report, files)


def sieve_tables(variant: int, workdir: Path) -> list[Step]:
    """Sieve, both table formats, the zero-run scan and report emission."""
    jitter = 1009 * variant
    w = workdir
    return [
        _step(w, "sieve-3-3", ["sieve", "--ell", 3, "--s", 3, "--limit", 2_000_000 + jitter,
                               "--out", w / "r33.bin"], ("r33.bin",)),
        _step(w, "sieve-3-2", ["sieve", "--ell", 3, "--s", 2, "--limit", 2_000_000 + jitter,
                               "--out", w / "r32.bin"], ("r32.bin",)),
        _step(w, "sieve-4-4", ["sieve", "--ell", 4, "--s", 4, "--limit", 5_000_000 + jitter,
                               "--out", w / "r44.bin"], ("r44.bin",)),
        _step(w, "sieve-4-4-csv", ["sieve", "--ell", 4, "--s", 4, "--limit", 200_000 + variant,
                                   "--out", w / "r44.csv"], ("r44.csv",)),
        _step(w, "gaps-3-3", ["gaps", "--table", w / "r33.bin", "--min-len", 6,
                              "--out", w / "runs33.csv"], ("runs33.csv",)),
        _step(w, "gaps-4-4-csv", ["gaps", "--table", w / "r44.csv", "--ell", 4, "--s", 4,
                                  "--min-len", 6, "--out", w / "runs44.csv"], ("runs44.csv",)),
        _step(w, "exceptional", ["exceptional", "--limit", 1_000_000 + jitter,
                                 "--table", w / "r44.bin", "--out", w / "members.csv"],
              ("members.csv",)),
    ]


def mild_gaps(variant: int, workdir: Path) -> list[Step]:
    """Mild-gap scan and the parameter pipeline over one sieved table."""
    w = workdir
    lo = 4 * variant
    q = (2, 3, 5, 7)[variant % 4]
    return [
        _step(w, "sieve-3-3", ["sieve", "--ell", 3, "--s", 3, "--limit", 1_000_000 + 101 * variant,
                               "--out", w / "m33.bin"], ("m33.bin",)),
        _step(w, "mild-scan", ["mild-scan", "--table", w / "m33.bin", "--lo", lo,
                               "--hi", lo + 800, "--k", 4, "--e", 8]),
        _step(w, "pipeline-3", ["pipeline", "--ell", 3, "--q", q, "--pool", 63]),
        _step(w, "pipeline-4", ["pipeline", "--ell", 4, "--q", q, "--pool", 32]),
    ]


MODSEARCH_POOL = (7, 9, 13, 19, 31, 37, 43, 61, 63, 67)


def exact_sweeps(variant: int, workdir: Path) -> list[Step]:
    """Exact Fraction sweeps in certify, residue convolution and CRT in modular."""
    w = workdir
    rng = random.Random(variant)
    cert = w / "certificate.json"
    cert.write_text(json.dumps(nested_certificate(rng)))
    pool = list(MODSEARCH_POOL)
    rng.shuffle(pool)
    return [
        _step(w, "nested", ["nested", "--cert", cert]),
        _step(w, "measure", ["measure", "--cert", cert]),
        _step(w, "linforms", ["linforms", "--ell", 4, "--q", 2, "--height", 3, "--terms", 64]),
        _step(w, "modsearch", ["modsearch", "--ell", 3, "--k1", 2,
                               "--pool", ",".join(map(str, pool)), "--product-bound", 20000]),
        _step(w, "modcount", ["modcount", "--ell", 3, "--modulus", 2000]),
    ]


def nested_certificate(rng: random.Random) -> dict:
    """A height-200 nested-gaps certificate that passes ``nested``.

    The support and the gaps are fixed, so ``measure`` always sweeps the
    same 2*200^2 = 80,000 pairs with fractions of the same size; the seed
    chooses the coefficient values.  Draws that fail the nested-gaps
    hypotheses are discarded, so ``measure`` never stops at its
    precondition.
    """
    from waring_gaps.certify import Verdict, nested_certificate_from_json, verify_nested_gaps

    while True:
        obj = {
            "q": 2, "H": "200", "K1": 9, "K2": 9, "K_prime": 39,
            "n1": 1, "n2": 11, "n_prime": 1, "E": "5/2", "E_prime": "5/2",
            "f": {"kind": "coefficients", "entries": [
                [0, rng.randint(-3, 3)], [10, rng.choice((1, -1))],
                [20, rng.choice((1, -1, 2, -2))], [30, rng.choice((1, -1))],
            ]},
            "g": {"kind": "coefficients", "entries": [
                [40, rng.choice((1, -1, 2, -2))], [50, rng.choice((1, -1))],
            ]},
        }
        if verify_nested_gaps(nested_certificate_from_json(obj)).verdict is Verdict.PASS:
            return obj


WORKLOADS = {
    "sieve-tables": sieve_tables,
    "mild-gaps": mild_gaps,
    "exact-sweeps": exact_sweeps,
}


def build(workload: str, seed: int, workdir: Path) -> list[Step]:
    """Write the seeded inputs of a workload into workdir and return its steps."""
    return WORKLOADS[workload](seed % VARIANTS, workdir)
