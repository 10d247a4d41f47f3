"""Run one benchmark workload and print its metrics as one JSON line.

    python3 perfbench/run.py --workload mild-gaps --seed 3 --seconds 20 --trace 0

Run from the root of a source checkout; the program is imported from
``src``.  The workload's steps run in this one single-threaded process,
through ``waring_gaps.cli.main``, pass after pass until ``--seconds`` are
used up.  Every step's exit status, report and written files are checked
against ``reference.json``.  With ``--trace 0`` the end-to-end metrics are
reported: step times rescaled to a reference host speed (see ``probe``),
averaged over passes.  With ``--trace 1`` untraced and traced passes
alternate and the per-layer metrics of the traced passes are reported
(medians, unscaled).  Metric names and units come from ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

import check
import tracer as tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_SAMPLES = 7
STEP_TIMEOUT_S = 60.0
# Keeps a run under three minutes, however slow a step gets.
RUN_DEADLINE_S = 150.0
# The probe's median wall time on the host the baselines were measured on.
PROBE_REF_S = 0.020


class StepTimeout(Exception):
    pass


def probe() -> tuple[float, float]:
    """Wall and CPU seconds of a fixed pure-Python integer loop.

    Other tenants of a shared host change its speed by tens of percent
    for seconds to minutes at a time.  Probes run before the first step
    and after each step of a pass measure the speed the pass ran at, and
    the pass's time is rescaled to a host on which the probe takes
    ``PROBE_REF_S``.  Of the probes tried on this benchmark's steps (this
    loop, Fraction arithmetic, numpy array passes and their sums) this one
    tracked the step times of all three workloads best.
    """
    wall, cpu = time.perf_counter(), time.process_time()
    s = 0
    for i in range(300_000):
        s += i * i
    return time.perf_counter() - wall, time.process_time() - cpu


def import_cli():
    """Import waring_gaps.cli from this checkout's src, never from elsewhere."""
    if not (SRC / "waring_gaps" / "__init__.py").is_file():
        raise SystemExit(f"run.py: no program source under {SRC}")
    sys.path.insert(0, str(SRC))
    from waring_gaps import cli

    if Path(cli.__file__).resolve().parent.parent != SRC:
        raise SystemExit(f"run.py: imported {cli.__file__}, not the checkout's src")
    return cli


@contextlib.contextmanager
def time_limit(seconds: float):
    def expire(signum, frame):
        raise StepTimeout(f"step exceeded {seconds:.0f} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, max(seconds, 0.001))
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def run_step(cli, step: workloads.Step, timeout: float, tracer=None) -> int:
    """Run one CLI invocation with its output discarded; returns the exit status."""
    argv = list(step.argv)
    sink = io.StringIO()
    with time_limit(timeout), contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        if tracer is None:
            return cli.main(argv)
        return tracer.call(f"cli.{step.subcommand}", cli.main, (argv,), {})


@dataclass
class Pass:
    wall_s: float = 0.0
    cpu_s: float = 0.0
    attempted: int = 0
    failed: int = 0
    probes: list = field(default_factory=list)
    layers: dict = field(default_factory=dict)

    def rescaled(self) -> tuple[float, float]:
        """(wall_s, cpu_s) on a host where the probe takes PROBE_REF_S."""
        probe_wall = statistics.fmean(wall for wall, _ in self.probes)
        probe_cpu = statistics.fmean(cpu for _, cpu in self.probes)
        return self.wall_s * PROBE_REF_S / probe_wall, self.cpu_s * PROBE_REF_S / probe_cpu


def run_pass(cli, steps, reference: dict, deadline: float, traced: bool) -> Pass:
    """Time every step of the workload once and check its outputs."""
    result = Pass(probes=[probe()])
    tracer = tracing.Tracer() if traced else None
    with tracing.patched(tracer) if traced else contextlib.nullcontext():
        for step in steps:
            result.attempted += 1
            timeout = min(STEP_TIMEOUT_S, deadline - time.perf_counter())
            wall, cpu = time.perf_counter(), time.process_time()
            try:
                exit_code = run_step(cli, step, timeout, tracer)
            except Exception as exc:  # any failure of the program counts against the step
                exit_code, error = None, f"{type(exc).__name__}: {exc}"
            result.wall_s += time.perf_counter() - wall
            result.cpu_s += time.process_time() - cpu
            result.probes.append(probe())
            if exit_code is not None:
                try:
                    outcome = check.step_outcome(step, exit_code)
                    error = None if outcome == reference[step.label] else f"output differs: {outcome}"
                except (OSError, ValueError, KeyError) as exc:
                    error = f"cannot check output: {type(exc).__name__}: {exc}"
            if error is not None:
                result.failed += 1
                print(f"run.py: step {step.label} failed: {error}", file=sys.stderr)
            if tracer is not None and step.report.exists():
                tracer.counts["cli.report_bytes"] += step.report.stat().st_size
    if tracer is not None:
        result.layers = tracing.layer_metrics(tracer, cli_subcommands())
    return result


def benchmark_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def cli_subcommands() -> list[str]:
    names = [m["name"] for m in benchmark_spec()["per_layer"]]
    return [n[len("cli."):-len(".s")] for n in names if n.startswith("cli.") and n.endswith(".s")]


def setup_seconds(workload: str, seed: int, workdir: Path) -> tuple[list[float], list]:
    """Time interpreter start plus program import, and input generation, several times.

    Each sample is rescaled by the probes around it, as steps are.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    samples, steps = [], []
    before = probe()
    for _ in range(SETUP_SAMPLES):
        started = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import waring_gaps.cli"],
                       cwd=ROOT, env=env, check=True, timeout=60)
        steps = workloads.build(workload, seed, workdir)
        elapsed = time.perf_counter() - started
        after = probe()
        samples.append(elapsed * 2 * PROBE_REF_S / (before[0] + after[0]))
        before = after
    return samples, steps


def measure(cli, args, workdir: Path, started: float) -> tuple[dict, int, int]:
    reference = json.loads((HERE / "reference.json").read_text())
    expected = reference[args.workload][str(args.seed % workloads.VARIANTS)]
    setup, steps = setup_seconds(args.workload, args.seed, workdir)
    unknown = {s.subcommand for s in steps} - set(cli_subcommands())
    if unknown:
        raise SystemExit(f"run.py: BENCHMARK.json lacks cli metrics for {sorted(unknown)}")

    deadline = started + RUN_DEADLINE_S
    modes = (False, True) if args.trace else (False,)
    passes: dict[bool, list[Pass]] = {False: [], True: []}
    begun = time.perf_counter()
    rounds = 0
    while True:
        for traced in modes:
            passes[traced].append(run_pass(cli, steps, expected, deadline, traced))
        rounds += 1
        now = time.perf_counter()
        per_round = (now - begun) / rounds
        if now + per_round > min(begun + args.seconds, deadline):
            break

    done = passes[False] + passes[True]
    attempted = sum(p.attempted for p in done)
    failed = sum(p.failed for p in done)
    untraced_wall = statistics.median(p.wall_s for p in passes[False])
    if args.trace:
        traced = passes[True]
        metrics = {
            name: statistics.median(p.layers[name] for p in traced) for name in traced[0].layers
        }
        metrics["trace.overhead_s"] = statistics.median(p.wall_s for p in traced) - untraced_wall
    else:
        # After rescaling, the mean over passes measured steadier from run
        # to run than their median.
        rescaled = [p.rescaled() for p in passes[False]]
        metrics = {
            "wall_s": statistics.fmean(wall for wall, _ in rescaled),
            "cpu_s": statistics.fmean(cpu for _, cpu in rescaled),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "setup_s": statistics.median(setup),
        }
    print(
        f"run.py: {args.workload} seed {args.seed}: {len(passes[False])} untraced and "
        f"{len(passes[True])} traced passes of {len(steps)} steps; "
        f"median unscaled wall {untraced_wall:.3f} s; setup samples {len(setup)}",
        file=sys.stderr,
    )
    return metrics, attempted, failed


def main(argv: list[str] | None = None) -> int:
    started = time.perf_counter()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    cli = import_cli()
    spec = benchmark_spec()["per_layer" if args.trace else "end_to_end"]
    workroot = ROOT / ".perfbench_work"
    workroot.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=workroot))
    try:
        metrics, attempted, failed = measure(cli, args, workdir, started)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            workroot.rmdir()

    names = [m["name"] for m in spec]
    if set(names) != set(metrics):
        raise SystemExit(f"run.py: metrics {sorted(metrics)} do not match BENCHMARK.json {names}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in spec},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
