"""Run the benchmark over several seeds and print every metric per workload.

    python3 perfbench/spread.py --runs 10              # every workload, end-to-end
    python3 perfbench/spread.py --runs 1 --trace       # per-layer metrics too
    python3 perfbench/spread.py --runs 10 --save a.json
    python3 perfbench/spread.py --runs 10 --against a.json

For each workload and end-to-end metric it prints the median over runs,
the quartiles, and the spread (third minus first quartile, as a share of
the median) next to the metric's bound from ``BENCHMARK.json``.  Each run
is a fresh process of ``run.py`` with its own seed.  ``--against`` compares
the medians with a saved set and flags any that worsened by more than the
bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=ROOT, check=True, capture_output=True, text=True, timeout=300)
    return json.loads(out.stdout.strip().splitlines()[-1])


def quartile_spread(values: list[float]) -> tuple[float, float, float, float]:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
    return median, q1, q3, (q3 - q1) / median if median else 0.0


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workload", action="append", choices=names)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", action="store_true", help="also make one traced run each")
    parser.add_argument("--save", type=Path, help="write the raw values here")
    parser.add_argument("--against", type=Path, help="compare medians with a saved set")
    args = parser.parse_args()

    saved = json.loads(args.against.read_text()) if args.against else {}
    raw: dict = {}
    worst = 0.0
    for workload in args.workload or names:
        results = [
            run_once(workload, args.first_seed + i, args.seconds, 0) for i in range(args.runs)
        ]
        failed = sum(r["failed"] for r in results)
        attempted = sum(r["attempted"] for r in results)
        print(f"\n{workload}: {args.runs} runs, failed {failed} of {attempted} steps "
              f"(failed_frac {failed / attempted:.4g})")
        raw[workload] = {}
        for metric in spec["end_to_end"]:
            name, unit, bound = metric["name"], metric["unit"], metric["bound"]
            values = [r["metrics"][name]["value"] for r in results]
            raw[workload][name] = values
            median, q1, q3, spread = quartile_spread(values)
            line = (f"  {name:12s} median {median:10.4f} {unit:3s} q1 {q1:10.4f} q3 {q3:10.4f} "
                    f"spread {spread:6.1%} bound {bound:.0%}")
            if name != "setup_s":
                worst = max(worst, spread / bound)
            if workload in saved:
                before = statistics.median(saved[workload][name])
                change = median / before - 1
                line += f"  vs saved {change:+.1%}{' WORSE' if change > bound else ''}"
            print(line)
        if args.trace:
            traced = run_once(workload, args.first_seed, args.seconds, 1)["metrics"]
            print("  per layer (one traced run):")
            for name, m in traced.items():
                print(f"    {name:42s} {m['value']:14.6g} {m['unit']}")
            selfs = {k: v["value"] for k, v in traced.items() if k.endswith(".self_s")}
            total = sum(selfs.values()) or 1.0
            print("  self-time share: " + ", ".join(
                f"{k[:-len('.self_s')]} {v / total:.0%}" for k, v in sorted(selfs.items(), key=lambda kv: -kv[1])))
    print(f"\nlargest spread as a share of its bound (setup_s excluded): {worst:.2f}")
    if args.save:
        args.save.write_text(json.dumps(raw, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
