"""Run one benchmark workload against baxlab and print its metrics.

    python3 baxbench/run.py --workload bigperm-n500 --seed 1 --seconds 50 --trace 0

Run from the root of a baxlab checkout; the library is imported from its
``src`` directory.  ``--trace 0`` measures the end-to-end metrics: whole
rounds of the workload's operations until ``--seconds`` have passed, each
operation timed in CPU time at the reference speed of the box (see
calibration.py).  ``--trace 1`` runs an untraced, a traced and another
untraced round, in plain CPU time, and reports the per-layer metrics.  Every
output is checked against the oracles.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A fuller record,
with the seed and the environment, goes to baxbench/results/.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"
DEFAULT_SEED = 1
SETUP_PROBES = 7  # before the first round and after each round
SETUP_POLICY = (
    "median of 7 fresh-interpreter probes before the first round and 7 after each round, "
    "after one untimed warm-up probe; bytecode cached; each probe's CPU time scaled by "
    "the median of 5 calibration units timed right after it"
)
TIMING_POLICY = (
    "CPU time of each operation less the calibration handler's, scaled by "
    "REFERENCE_UNIT_S over the median calibration unit timed during it; "
    "an operation's time is the best of its repeats"
)
PYCACHE = ROOT / ".bench_build" / "pycache"

sys.path.insert(0, str(HERE))

import calibration  # noqa: E402
from tracing import Tracer, metric_units  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "peak_rss_mib": "MiB",
}


class BenchError(Exception):
    """The benchmark cannot run here."""


def import_baxlab() -> None:
    """baxlab from this checkout's src/, never an installed copy."""
    if not (SRC / "baxlab" / "__init__.py").is_file():
        raise BenchError(f"no baxlab sources at {SRC}; run from the root of a baxlab checkout")
    sys.path.insert(0, str(SRC))
    import baxlab

    if Path(baxlab.__file__).resolve().parent != SRC / "baxlab":
        raise BenchError(f"imported baxlab from {baxlab.__file__}, not from {SRC}")


class SetupProbe:
    """Times baxlab's set-up, each sample in a fresh interpreter.

    Set-up is timed as a user pays for it once baxlab has run before: with
    its bytecode cached.  An untimed first probe writes the bytecode to
    PYCACHE; the timed probes read it from there.  ``-E`` makes the probes
    ignore PYTHON* variables of the caller, PYTHONDONTWRITEBYTECODE among
    them, so every run sets up the same way.  Samples are taken in batches
    between the rounds, so that their median spans the whole run.
    """

    def __init__(self, workload) -> None:
        self.cmd = [
            sys.executable, "-E", "-X", f"pycache_prefix={PYCACHE}",
            str(HERE / "probe.py"), str(SRC), workload.entry_module,
        ]
        self.input = workload.probe_input()
        self.samples: list[float] = []  # scaled to the reference speed
        self.raw: list[float] = []  # CPU seconds as measured
        self._probe()  # warm-up

    def _probe(self) -> tuple[float, float]:
        """One probe's CPU seconds, as measured and scaled."""
        proc = subprocess.run(self.cmd, input=self.input, capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise BenchError(f"set-up probe failed: {proc.stderr.strip()}")
        elapsed, _, unit = proc.stdout.split()
        return float(elapsed), calibration.scaled(float(elapsed), [float(unit)])

    def batch(self) -> None:
        for _ in range(SETUP_PROBES):
            raw, scaled = self._probe()
            self.raw.append(raw)
            self.samples.append(scaled)


class Tally:
    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.failures: list[str] = []
        self.rounds: list[float] = []
        self.times: dict[int, list[float]] = {}  # operation index -> its times
        self.cpu: dict[int, list[float]] = {}  # operation index -> its CPU times as measured
        self.wall: dict[int, list[float]] = {}  # operation index -> its wall times
        self.unit: dict[int, list[float]] = {}  # operation index -> median calibration unit

    def run_round(self, workload, ops, calibrated: bool = True) -> float:
        """Time each operation, then check its output; returns the round's
        time, the sum of its operations' times.  These are scaled to the
        reference speed, or with ``calibrated=False`` plain CPU times."""
        total = 0.0
        for index, op in enumerate(ops):
            self.attempted += 1
            wall = time.perf_counter()
            try:
                if calibrated:
                    output, cpu, elapsed, units = calibration.timed(op)
                else:
                    started = time.process_time()
                    output = op()
                    cpu = elapsed = time.process_time() - started
                    units = [calibration.REFERENCE_UNIT_S]
            except Exception as exc:  # counted as a failed operation
                self.failed += 1
                self.failures.append(f"operation {index}: {exc!r}")
                continue
            wall = time.perf_counter() - wall
            total += elapsed
            self.times.setdefault(index, []).append(elapsed)
            self.cpu.setdefault(index, []).append(cpu)
            self.wall.setdefault(index, []).append(wall)
            self.unit.setdefault(index, []).append(statistics.median(units))
            try:
                self.errors.extend(workload.check(index, output))
            except Exception as exc:  # malformed output: wrong, not a crash
                self.errors.append(f"operation {index}: checking its output raised {exc!r}")
        self.errors.extend(workload.round_errors())
        self.rounds.append(total)
        return total


def percentiles(values: list[float]) -> tuple[float, float]:
    """p50 and p90 of values; a run in which fewer than two operations
    succeeded still reports, with what it has."""
    if len(values) < 2:
        return (values[0], values[0]) if values else (0.0, 0.0)
    return statistics.median(values), statistics.quantiles(values, n=10, method="inclusive")[8]


def end_to_end(workload, seconds: float, tally: Tally) -> tuple[dict, dict]:
    setup = SetupProbe(workload)
    setup.batch()
    workload.load()
    ops = workload.operations()
    # Whole rounds only; another round starts while it would end nearer to
    # the requested length than stopping now would.
    started = time.perf_counter()
    while True:
        tally.run_round(workload, ops)
        setup.batch()
        elapsed = time.perf_counter() - started
        last = elapsed / len(tally.rounds)
        if len(tally.rounds) >= workload.min_rounds and elapsed + last / 2 >= seconds:
            break
    # An operation's time is the best of its repeats, in CPU time of the
    # process at the reference speed: time spent descheduled is left out,
    # the speed of the box is divided out, and of the repeats the fastest is
    # the one least disturbed by what the calibration does not see.
    best = [min(ts) for ts in tally.times.values()]
    p50, p90 = percentiles(best)
    metrics = {
        "setup_s": statistics.median(setup.samples),
        "wall_s": sum(best),
        "latency_p50_ms": p50 * 1000.0,
        "latency_p90_ms": p90 * 1000.0,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    samples = {
        "setup_policy": SETUP_POLICY,
        "timing_policy": TIMING_POLICY,
        "reference_unit_s": calibration.REFERENCE_UNIT_S,
        "setup_s": setup.samples,
        "setup_cpu_s": setup.raw,
        "round_s": tally.rounds,
        "operation_s": list(tally.times.values()),
        "operation_cpu_s": list(tally.cpu.values()),
        "operation_wall_s": list(tally.wall.values()),
        "operation_unit_s": list(tally.unit.values()),
        "operations": len(best),
        "operations_above_p90": sum(1 for x in best if x > p90),
    }
    return metrics, samples


def per_layer(workload, tally: Tally) -> tuple[dict, dict]:
    workload.load()
    ops = workload.operations()
    # untraced rounds on both sides of the traced one, so that a drift in
    # machine speed does not read as tracing overhead
    before = tally.run_round(workload, ops, calibrated=False)
    with Tracer() as tracer:
        traced = tally.run_round(workload, ops, calibrated=False)
    after = tally.run_round(workload, ops, calibrated=False)
    metrics = tracer.metrics()
    metrics["trace.overhead_s"] = traced - (before + after) / 2
    return metrics, {"untraced_round_s": [before, after], "traced_round_s": traced}


def git_revision() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "cpu_count": os.cpu_count(),
        "platform": platform.platform(),
        "git_revision": git_revision(),
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED, help=f"input seed (default {DEFAULT_SEED})")
    parser.add_argument("--seconds", type=float, default=50.0, help="how long the untraced run measures")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        import_baxlab()
        workload = WORKLOADS[args.workload](args.seed)
        tally = Tally()
        if args.trace:
            values, samples = per_layer(workload, tally)
            units = metric_units()
        else:
            values, samples = end_to_end(workload, args.seconds, tally)
            units = END_TO_END_UNITS
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    result = {
        "correct": not tally.errors,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment(),
        **result,
        "samples": samples,
        "errors": tally.errors[:20],
        "failures": tally.failures[:20],
    }
    RESULTS.mkdir(exist_ok=True)
    out = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1) + "\n")

    for line in tally.errors[:5] + tally.failures[:5]:
        print(line, file=sys.stderr)
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  record {out.relative_to(ROOT)}")
    print(f"operations attempted {tally.attempted}, failed {tally.failed}, incorrect outputs {len(tally.errors)}")
    if not args.trace:
        print(
            f"samples: {len(samples['setup_s'])} set-ups, {len(tally.rounds)} rounds, "
            f"{samples['operations']} operations timed at their best ({samples['operations_above_p90']} above p90)"
        )
    for name, m in metrics.items():
        print(f"{name:40s} {m['value']:14.6f} {m['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
