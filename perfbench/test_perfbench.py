"""Tests of the benchmark's own machinery: self times, digests and patching."""

from __future__ import annotations

import ast
import copy
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

import check  # noqa: E402
import run  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402
from waring_gaps import cli, series  # noqa: E402
from waring_gaps.repcount import WaringParams, sieve_rep  # noqa: E402


def test_self_times_subtract_direct_children():
    spans = [
        tracing.Span("cli.pipeline", 0.0, 10.0, None),
        tracing.Span("certify.pipeline_dry_run", 1.0, 7.0, 0),
        tracing.Span("series.is_mild_gap", 2.0, 5.0, 1),
        tracing.Span("series.tail_norm", 3.0, 4.5, 2),
        tracing.Span("repcount.sieve_rep", 8.0, 9.0, 0),
    ]
    assert tracing.self_times(spans) == [3.0, 3.0, 1.5, 1.5, 1.0]

    tracer = tracing.Tracer()
    tracer.spans = spans
    metrics = tracing.layer_metrics(tracer, ["pipeline"])
    assert metrics["cli.self_s"] == 3.0
    assert metrics["certify.self_s"] == 3.0
    assert metrics["series.self_s"] == 3.0
    assert metrics["repcount.self_s"] == 1.0
    assert metrics["certify.pipeline_dry_run.s"] == 6.0
    assert metrics["series.is_mild_gap.s"] == 3.0
    assert metrics["series.is_mild_gap.calls"] == 1
    assert metrics["series.tail_norm.calls"] == 1
    assert metrics["cli.pipeline.s"] == 10.0


def test_tracer_records_parents_and_counters():
    ticks = iter(range(100))
    tracer = tracing.Tracer(clock=lambda: float(next(ticks)))
    table = sieve_rep(WaringParams(3, 3), 2000)
    f = series.HalfFunction.from_table(table)
    with tracing.patched(tracer):
        series.is_mild_gap(f, 4, 4, 8)
    names = [s.name for s in tracer.spans]
    assert names == ["series.is_mild_gap", "series.tail_norm", "series.tail_majorant_start"]
    assert [s.parent for s in tracer.spans] == [None, 0, 1]
    assert tracer.counts["series.is_mild_gap.witnesses"] == 1
    assert sum(tracing.self_times(tracer.spans)) == tracer.spans[0].duration


def _measure_report(tmp_path: Path, name: str, *extra: str) -> dict:
    cert = tmp_path / "cert.json"
    cert.write_text(json.dumps({
        "q": 2, "H": "20", "K1": 9, "K2": 9, "K_prime": 39,
        "n1": 1, "n2": 11, "n_prime": 1, "E": "2", "E_prime": "1",
        "f": {"kind": "coefficients", "entries": [[0, 1], [10, 1], [20, 1]]},
        "g": {"kind": "coefficients", "entries": [[40, 1]]},
    }))
    out = tmp_path / name
    assert cli.main(["measure", "--cert", str(cert), "--json", str(out), *extra]) == 0
    return json.loads(out.read_text())


def test_digest_ignores_invocation_but_not_results(tmp_path):
    first = _measure_report(tmp_path, "a.json")
    second = _measure_report(tmp_path, "b.json", "--threads", "2")
    assert first["config"] != second["config"]
    assert check.report_digest(first) == check.report_digest(second)

    with_provenance = dict(first, provenance={"python": "3.x"})
    assert check.report_digest(with_provenance) == check.report_digest(first)

    flipped = copy.deepcopy(first)
    flipped["report"]["verdict"] = "fail"
    assert check.report_digest(flipped) != check.report_digest(first)

    recounted = copy.deepcopy(first)
    recounted["report"]["summary"]["pairs"] += 1
    assert check.report_digest(recounted) != check.report_digest(first)


def _imported_targets() -> list[tuple[str, str, str]]:
    """(importing module, local name, defining layer) for every cross-module
    ``from .layer import function`` of a traced function."""
    found = []
    for path in sorted((SRC / "waring_gaps").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module in tracing.TARGETS:
                for alias in node.names:
                    if alias.name in tracing.TARGETS[node.module]:
                        module = "waring_gaps" if path.stem == "__init__" else f"waring_gaps.{path.stem}"
                        found.append((module, alias.asname or alias.name, node.module))
    return found


def test_every_imported_target_is_patched_and_restored():
    imported = _imported_targets()
    named = {
        "sieve_rep": "repcount", "scan_exceptional_set": "repcount", "read_table_binary": "repcount",
        "residue_counts": "modular", "search_gap_modulus": "modular",
        "is_mild_gap": "series", "eval_enclosure": "series", "eval_truncated": "series",
    }
    for name, layer in named.items():
        assert ("waring_gaps.certify", name, layer) in imported

    def lookup(module: str, name: str):
        return getattr(sys.modules[module], name)

    originals = {(m, n): lookup(m, n) for m, n, _ in imported}
    method = series.HalfFunction.__dict__["tail_majorant_start"]
    with tracing.patched(tracing.Tracer()):
        for (module, name), original in originals.items():
            wrapper = lookup(module, name)
            assert wrapper is not original, f"{module}.{name} is not traced"
            assert wrapper.__wrapped__ is original
        for layer, names in tracing.TARGETS.items():
            for name in names:
                if "." not in name:
                    assert hasattr(lookup(f"waring_gaps.{layer}", name), "__wrapped__")
        assert series.HalfFunction.__dict__["tail_majorant_start"].__wrapped__ is method
    for (module, name), original in originals.items():
        assert lookup(module, name) is original
    assert series.HalfFunction.__dict__["tail_majorant_start"] is method


def test_layer_metrics_match_benchmark_definition():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    per_layer = {m["name"] for m in spec["per_layer"]}
    emitted = set(tracing.layer_metrics(tracing.Tracer(), run.cli_subcommands()))
    assert emitted | {"trace.overhead_s"} == per_layer


def test_seed_moves_values_not_steps(tmp_path):
    for workload in workloads.WORKLOADS:
        steps = {}
        for seed in (3, 3 + workloads.VARIANTS, 4):
            workdir = tmp_path / f"{workload}-{seed}"
            workdir.mkdir()
            steps[seed] = [
                (s.label, tuple(a.replace(str(workdir), "") for a in s.argv))
                for s in workloads.build(workload, seed, workdir)
            ]
        assert steps[3] == steps[3 + workloads.VARIANTS]
        assert [label for label, _ in steps[3]] == [label for label, _ in steps[4]]
        assert steps[3] != steps[4]
