#!/usr/bin/env python3
"""Benchmark of totalcorr, run from the root of a source checkout.

    python3 bench/run.py --workload {formation,sweep,mixed} --seed N \
        --seconds S --trace {0,1}

The package is imported from `src/`, not from an installed copy. A run
builds its inputs from the seed, warms up, then runs whole rounds of
operations until S seconds have passed, checks every output against
`reference`, and prints one JSON object as the last line of stdout:
the end-to-end metrics with `--trace 0`, the per-layer metrics of a
traced run with `--trace 1`. See bench/README.md for the metrics.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, NamedTuple

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
SETUP_REPEATS = 5
WORKLOAD_NAMES = ("formation", "sweep", "mixed")

ROOF_METRICS = ("roof.restarts", "roof.restart_s", "roof.restart_hit_ratio",
                "roof.converged_ratio", "roof.excess_bits")


def declared_units(trace: int) -> dict[str, str]:
    """Metric name -> unit, as BENCHMARK.json declares them for this kind of run."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOAD_NAMES, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-child", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def use_source_tree() -> None:
    if not (SRC / "totalcorr" / "__init__.py").is_file():
        sys.exit(f"error: no totalcorr sources under {SRC}; run from a source checkout")
    sys.path.insert(0, str(SRC))


def setup_child(args) -> None:
    """Time `import totalcorr` plus the input build, in this fresh process."""
    t0 = time.perf_counter()
    import totalcorr  # noqa: F401

    t1 = time.perf_counter()
    import workloads

    t2 = time.perf_counter()
    workloads.WORKLOADS[args.workload](args.seed, OUT)
    t3 = time.perf_counter()
    print(repr((t1 - t0) + (t3 - t2)))


def measure_setup(args) -> list[float]:
    """Set-up times of fresh processes, run one after another."""
    cmd = [sys.executable, str(BENCH / "run.py"), "--setup-child",
           "--workload", args.workload, "--seed", str(args.seed)]
    times = []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120,
                              check=True)
        times.append(float(done.stdout.split()[-1]))
    return times


class Record(NamedTuple):
    round: int
    traced: bool
    kind: str
    key: int
    seconds: float
    output: Any
    error: str | None


def run_rounds(workload, seconds: float, tracer=None, cal=None) -> list[Record]:
    """Whole rounds until `seconds` have passed.

    With a calibration, a chunk is timed before the first operation and
    after each further `cal.interval` seconds of operations. With a tracer,
    every round runs twice on the same inputs, once traced and once not,
    in alternating order, so that the difference between the two passes
    is the tracing overhead.
    """
    ops = workload.round()
    records: list[Record] = []
    since_chunk = math.inf
    t_start = time.perf_counter()
    r = 0
    while r == 0 or time.perf_counter() - t_start < seconds:
        passes = ((False, True) if r % 2 == 0 else (True, False)) if tracer else (False,)
        for traced in passes:
            if traced:
                tracer.install()
            for op in ops:
                if cal and since_chunk >= cal.interval:
                    cal.chunk()
                    since_chunk = 0.0
                if tracer:
                    tracer.current_op = len(records)
                t0 = time.perf_counter()
                try:
                    output, error = op.call(), None
                except Exception as exc:  # a failed operation is counted, not fatal
                    output, error = None, f"{type(exc).__name__}: {exc}"
                seconds_op = time.perf_counter() - t0
                since_chunk += seconds_op
                records.append(Record(r, traced, op.kind, op.key, seconds_op, output, error))
            if traced:
                tracer.uninstall()
        r += 1
    return records


def check_outputs(workload, records: list[Record]) -> list[bool]:
    """Check every output; True for each operation that ran and passed its check."""
    ok = []
    for rec in records:
        problem = rec.error
        if problem is None:
            problem = workload.check(rec.kind, rec.key, rec.output)
        ok.append(problem is None)
        if problem is not None and ok.count(False) <= 5:
            print(f"FAILED {rec.kind} #{rec.key} (round {rec.round}): {problem}",
                  file=sys.stderr)
    return ok


def end_to_end(records, ok: list[bool], setup: list[float], factor: float,
               peak_kb: int) -> dict[str, float]:
    """The end-to-end metrics; times are scaled by the run's speed factor (see speed.py).

    Only operations that completed and passed their check count as done;
    the time of every operation, failed ones too, counts as busy time.
    With no operation done, the median is taken over all of them, and
    the run is not correct anyway.
    """
    busy = sum(r.seconds for r in records)
    done = [r.seconds for r, good in zip(records, ok) if good] or [r.seconds for r in records]
    return {
        "setup_s": statistics.median(setup) * factor,
        "ops_per_s": sum(ok) / (busy * factor),
        "op_s_p50": statistics.median(done) * factor,
        "peak_rss_mb": peak_kb / 1024,
    }


def per_layer(workload, records, tracer) -> dict[str, float]:
    """Span totals per traced operation, the tracing overhead, and roof outcomes.

    Roof outcomes come from the untraced pass and read 0 on a workload
    that runs no roof.
    """
    traced = [r for r in records if r.traced]
    plain = [r for r in records if not r.traced]
    out = tracer.totals(len(traced))
    out["trace.overhead_s"] = (
        sum(r.seconds for r in traced) - sum(r.seconds for r in plain)
    ) / len(traced)
    out.update(dict.fromkeys(ROOF_METRICS, 0.0))
    roofs = [r for r in plain if r.kind == "roof" and r.error is None]
    if roofs:
        values = [r.output.per_restart_values for r in roofs]
        restarts = sum(map(len, values))
        out["roof.restarts"] = restarts / len(roofs)
        out["roof.restart_s"] = sum(r.seconds for r in roofs) / restarts
        hits = sum(v <= min(vs) + 1e-6 for vs in values for v in vs)
        out["roof.restart_hit_ratio"] = hits / restarts
        out["roof.converged_ratio"] = sum(r.output.converged for r in roofs) / len(roofs)
        out["roof.excess_bits"] = statistics.mean(
            r.output.value - workload.oracle(r.kind, r.key) for r in roofs
        )
    return out


def main(argv=None) -> int:
    args = parse_args(argv)
    use_source_tree()
    if args.setup_child:
        setup_child(args)
        return 0
    units = declared_units(args.trace)

    import totalcorr

    if Path(totalcorr.__file__).resolve().parent != (SRC / "totalcorr").resolve():
        sys.exit(f"error: imported totalcorr from {totalcorr.__file__}, not from {SRC}")
    import workloads
    from spans import Tracer
    from speed import Calibration

    OUT.mkdir(exist_ok=True)
    tracer = Tracer() if args.trace else None
    setup = [] if tracer else measure_setup(args)
    if tracer:
        tracer.install()
    workload = workloads.WORKLOADS[args.workload](args.seed, OUT)
    if tracer:
        tracer.uninstall()
    workload.warmup()
    cal = None if tracer else Calibration()
    records = run_rounds(workload, args.seconds, tracer, cal)
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    ok = check_outputs(workload, records)

    if tracer:
        metrics = per_layer(workload, records, tracer)
        tracer.save(OUT / f"trace-{args.workload}-{args.seed}.npz")
    else:
        metrics = end_to_end(records, ok, setup, cal.factor(), peak_kb)
        raw = end_to_end(records, ok, setup, 1.0, peak_kb)
        print(f"{args.workload} unscaled: " + ", ".join(f"{k} = {v:.6g}" for k, v in raw.items())
              + f"; speed factor {cal.factor():.4f}", file=sys.stderr)
    if set(metrics) != set(units):
        sys.exit(f"error: metrics {sorted(set(metrics) ^ set(units))} are reported but not "
                 "declared in BENCHMARK.json, or declared but not reported")
    result = {
        "correct": all(ok),
        "attempted": len(records),
        "failed": ok.count(False),
        "metrics": {name: {"value": v, "unit": units[name]} for name, v in metrics.items()},
    }
    for name, m in result["metrics"].items():
        print(f"{args.workload} {name} = {m['value']:.6g} {m['unit']}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
