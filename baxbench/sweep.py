"""Run every workload over several seeds and report each metric's spread.

    python3 baxbench/sweep.py --seeds 10            # all workloads, seeds 1..10
    python3 baxbench/sweep.py --seeds 5 --workloads bigperm-n500 --first-seed 11

Runs ``run.py`` once per (seed, workload), the workloads interleaved within
each seed, with ``run_seconds`` from BENCHMARK.json.  For each end-to-end
metric it prints the median of the runs and the spread: the distance between
the first and third quartiles (``statistics.quantiles(values, n=4)``) as a
share of the median, next to the metric's bound.  This is the command that
regenerates the reference figures in README.md; the full table is also
written to baxbench/results/sweep.json.
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


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workloads", nargs="+", choices=names, default=names)
    args = parser.parse_args()

    runs: dict[str, list[dict]] = {w: [] for w in args.workloads}
    for seed in range(args.first_seed, args.first_seed + args.seeds):
        for workload in args.workloads:
            cmd = [
                sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
                "--seconds", str(bench["run_seconds"]), "--trace", "0",
            ]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
            if proc.returncode != 0:
                print(proc.stderr, file=sys.stderr)
                return 1
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            runs[workload].append(result)
            values = " ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items())
            print(f"seed {seed} {workload}: correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']} {values}", flush=True)

    table = {}
    print(f"\n{'workload':15s} {'metric':16s} {'median':>12s} {'spread':>8s} {'bound':>6s}")
    for workload, results in runs.items():
        for metric in bench["end_to_end"]:
            name = metric["name"]
            values = [r["metrics"][name]["value"] for r in results]
            median = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
            spread = (q3 - q1) / median
            table.setdefault(workload, {})[name] = {
                "values": values, "median": median, "spread": spread, "bound": metric["bound"],
            }
            print(f"{workload:15s} {name:16s} {median:12.4f} {spread:8.3f} {metric['bound']:6.2f}")
        shares = {r["failed"] / r["attempted"] for r in results}
        print(f"{workload:15s} failed share {sorted(shares)}, all correct: {all(r['correct'] for r in results)}")
    (HERE / "results").mkdir(exist_ok=True)
    (HERE / "results" / "sweep.json").write_text(json.dumps(table, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
