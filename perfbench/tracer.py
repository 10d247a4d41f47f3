"""Span recorder that traces the waring_gaps layers from outside the package.

``patched(tracer)`` replaces each public function named in ``TARGETS`` by
a wrapper that records a span (name, start, end, parent) and a few work
counters.  A function imported into another module with ``from ... import``
is a separate global there, so the wrapper is installed under every name,
in every loaded ``waring_gaps`` module, that refers to the original.
Everything is restored on exit.  Spans stay in memory; ``layer_metrics``
turns them into the per-layer metrics named in ``BENCHMARK.json``.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable

PACKAGE = "waring_gaps"

# Public functions traced per layer; "Class.method" names a method.
TARGETS = {
    "repcount": (
        "sieve_rep", "find_gap_runs", "scan_exceptional_set",
        "read_table_binary", "write_table_binary", "read_table_csv", "write_table_csv",
    ),
    "modular": ("residue_counts", "crt_combine", "search_gap_modulus"),
    "series": (
        "scan_mild_gaps", "is_mild_gap", "tail_norm", "eval_enclosure", "eval_truncated",
        "HalfFunction.tail_majorant_start",
    ),
    "certify": (
        "pipeline_dry_run", "check_measure", "check_theta_linear_forms",
        "verify_maier", "verify_degree_criterion", "verify_nested_gaps",
    ),
}

TABLE_IO = ("read_table_binary", "write_table_binary", "read_table_csv", "write_table_csv")


def _table_bytes(reads: bool) -> Callable:
    def count(args: tuple, kwargs: dict, result) -> dict[str, float]:
        path = kwargs["path"] if "path" in kwargs else args[0 if reads else 1]
        return {"repcount.table_io.bytes": os.path.getsize(path)}

    return count


# Counters taken from a traced call: (span name) -> fn(args, kwargs, result) -> {counter: n}.
COUNTERS: dict[str, Callable[[tuple, dict, object], dict[str, float]]] = {
    "repcount.sieve_rep": lambda a, k, r: {"repcount.sieve_rep.entries": r.limit + 1},
    "repcount.find_gap_runs": lambda a, k, r: {"repcount.find_gap_runs.runs": len(r)},
    "repcount.scan_exceptional_set": lambda a, k, r: {
        "repcount.scan_exceptional_set.members": len(r.members)
    },
    **{f"repcount.{name}": _table_bytes(name.startswith("read")) for name in TABLE_IO},
    "series.is_mild_gap": lambda a, k, r: {"series.is_mild_gap.witnesses": int(r.is_witness)},
    "certify.check_measure": lambda a, k, r: {
        "certify.check_measure.pairs": r.summary.get("pairs", 0)
    },
    "certify.check_theta_linear_forms": lambda a, k, r: {
        "certify.check_theta_linear_forms.forms": r.summary.get("forms_checked", 0)
    },
}


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory spans of one traced pass, plus work counters."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []

    def call(self, name: str, fn: Callable, args: tuple, kwargs: dict):
        """Run fn(*args, **kwargs) inside a span named name."""
        index = len(self.spans)
        self.spans.append(Span(name, self.clock(), 0.0, self._stack[-1] if self._stack else None))
        self._stack.append(index)
        try:
            result = fn(*args, **kwargs)
        finally:
            self._stack.pop()
            self.spans[index].end = self.clock()
        counter = COUNTERS.get(name)
        if counter is not None:
            self.counts.update(counter(args, kwargs, result))
        return result


def _wrap(tracer: Tracer, name: str, fn: Callable) -> Callable:
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        return tracer.call(name, fn, args, kwargs)

    return traced


def package_modules() -> list:
    return [m for n, m in sorted(sys.modules.items()) if n == PACKAGE or n.startswith(PACKAGE + ".")]


@contextmanager
def patched(tracer: Tracer):
    """Install span wrappers for every target; restore the originals on exit.

    A target missing from its module raises, so a rename cannot silently
    drop a layer from the trace.
    """
    restore: list[tuple[object, str, object]] = []
    try:
        for layer, names in TARGETS.items():
            module = importlib.import_module(f"{PACKAGE}.{layer}")
            modules = package_modules()
            for target in names:
                owner_name, _, attr = target.rpartition(".")
                owner = getattr(module, owner_name) if owner_name else module
                original = vars(owner)[attr]
                wrapper = _wrap(tracer, f"{layer}.{attr}", original)
                holders = [owner] if owner_name else modules
                for holder in holders:
                    for key, value in list(vars(holder).items()):
                        if value is original:
                            restore.append((holder, key, original))
                            setattr(holder, key, wrapper)
        yield tracer
    finally:
        for holder, key, original in reversed(restore):
            setattr(holder, key, original)


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    own = [s.duration for s in spans]
    for s in spans:
        if s.parent is not None:
            own[s.parent] -= s.duration
    return own


def layer_metrics(tracer: Tracer, subcommands: list[str]) -> dict[str, float]:
    """Per-layer metrics of one traced pass.

    ``<span>.s`` is the inclusive time of a traced function (outermost
    calls only), ``<span>.calls`` its call count and ``<layer>.self_s``
    the layer's span time minus its child spans.  ``cli.<subcommand>``
    spans are the steps themselves.
    """
    spans = tracer.spans
    busy: Counter = Counter()
    calls: Counter = Counter()
    own: Counter = Counter()
    for span, self_s in zip(spans, self_times(spans)):
        calls[span.name] += 1
        own[span.layer] += self_s
        ancestor, nested = span.parent, False
        while ancestor is not None and not nested:
            nested = spans[ancestor].name == span.name
            ancestor = spans[ancestor].parent
        if not nested:
            busy[span.name] += span.duration

    c = tracer.counts
    out: dict[str, float] = {}
    for layer in ("repcount", "modular", "series", "certify", "cli"):
        out[f"{layer}.self_s"] = own[layer]
    for name in ("repcount.sieve_rep", "modular.residue_counts", "modular.crt_combine",
                 "series.is_mild_gap", "series.tail_majorant_start"):
        out[f"{name}.s"] = busy[name]
        out[f"{name}.calls"] = calls[name]
    for name in ("repcount.find_gap_runs", "repcount.scan_exceptional_set",
                 "modular.search_gap_modulus", "series.scan_mild_gaps", "series.eval_enclosure",
                 "certify.pipeline_dry_run", "certify.check_measure",
                 "certify.check_theta_linear_forms", "certify.verify_maier",
                 "certify.verify_degree_criterion"):
        out[f"{name}.s"] = busy[name]
    out["repcount.sieve_rep.entries"] = c["repcount.sieve_rep.entries"]
    out["repcount.find_gap_runs.runs"] = c["repcount.find_gap_runs.runs"]
    out["repcount.scan_exceptional_set.members"] = c["repcount.scan_exceptional_set.members"]
    out["repcount.table_io.s"] = sum(busy[f"repcount.{n}"] for n in TABLE_IO)
    out["repcount.table_io.bytes"] = c["repcount.table_io.bytes"]
    mild_calls = calls["series.is_mild_gap"]
    out["series.is_mild_gap.witness_ratio"] = (
        c["series.is_mild_gap.witnesses"] / mild_calls if mild_calls else 0.0
    )
    out["series.tail_norm.calls"] = calls["series.tail_norm"]
    out["certify.check_measure.pairs"] = c["certify.check_measure.pairs"]
    out["certify.check_theta_linear_forms.forms"] = c["certify.check_theta_linear_forms.forms"]
    for sub in subcommands:
        out[f"cli.{sub}.s"] = busy[f"cli.{sub}"]
    out["cli.report_bytes"] = c["cli.report_bytes"]
    return out
