"""End-to-end and per-layer benchmark of pga_hoare verdicts.

Usage (from the repository root):

    python3 perfbench/run.py --workload counter-loops --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 1

One client in one thread runs a closed loop: the next op starts when the
previous verdict is back.  Every verdict is checked against its known answer.
--trace 0 prints the end-to-end metrics, --trace 1 the per-layer ones.  The
last line of standard output is one JSON object: correct, attempted, failed
and metrics.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
from array import array
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calibrate
import workloads
from tracer import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

SETUP_PROBES = 5  # fresh interpreters per run; setup_s is their median
MIN_OPS = 100  # so that at least 10 verdicts lie beyond the p90
CAP_FACTOR = 1.5  # measuring stops at CAP_FACTOR * seconds even below MIN_OPS
SHOWN_FAILURES = 20
SEGMENT_S = 0.05  # op time between two timings of the reference work

END_TO_END_UNITS = {
    "setup_s": "s",
    "verdicts_per_s": "1/s",
    "verdict_ms_p50": "ms",
    "verdict_ms_p90": "ms",
    "ok_frac": "fraction",
    "peak_rss_mb": "MB",
}


def _commit():
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=60)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def _setup_seconds(workload):
    """Median over fresh interpreters of import plus the warm-up verdict."""
    times = []
    for _ in range(SETUP_PROBES):
        out = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), workload],
            capture_output=True, text=True, timeout=150)
        if out.returncode != 0:
            raise SystemExit(f"setup probe failed: {out.stderr.strip()}")
        times.append(float(out.stdout.split()[-1]))
    return statistics.median(times)


class Loop:
    """Closed-loop op runner: per-op latencies, total op time, failures.

    Latencies are host-normalized (see calibrate.py): the reference work is
    timed at the start of each round and again after every SEGMENT_S of op
    time, and each op is scaled by the mean of the two timings around it.
    """

    def __init__(self, ops):
        self.ops = ops
        self.latencies_ms = array("d")
        self.wall_ms = array("d")
        self.busy_s = 0.0
        self.failures = []

    def _time(self, op):
        start = time.perf_counter()
        try:
            wrong = self.ops.execute(op)
        except Exception as exc:  # counted as a failed verdict, listed below
            wrong = f"raised {type(exc).__name__}: {exc}"
        took = time.perf_counter() - start
        if wrong:
            self.failures.append({"op": op, "error": wrong})
        return took

    def run_round(self, ops):
        pending = []
        before = calibrate.reference_seconds()
        for i, op in enumerate(ops):
            pending.append(self._time(op))
            if sum(pending) < SEGMENT_S and i < len(ops) - 1:
                continue
            after = calibrate.reference_seconds()
            scale = calibrate.REFERENCE_S / ((before + after) / 2)
            before = after
            for took in pending:
                self.wall_ms.append(took * 1e3)
                self.latencies_ms.append(took * scale * 1e3)
                self.busy_s += took * scale
            pending = []

    @property
    def attempted(self):
        return len(self.latencies_ms)


def _run_for(loop, stream, seconds):
    """Whole rounds until `seconds` have passed and MIN_OPS ops ran; the
    number of rounds."""
    rounds = 0
    start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - start
        if elapsed >= CAP_FACTOR * seconds or (
                elapsed >= seconds and loop.attempted >= MIN_OPS):
            return rounds
        loop.run_round(next(stream))
        rounds += 1


def _warm_up(ops, workload):
    wrong = ops.execute(workloads.warmup(workload))
    if wrong:
        raise SystemExit(f"warm-up verdict wrong: {wrong}")


def _end_to_end(workload, seed, seconds, ops):
    setup_s = _setup_seconds(workload)
    _warm_up(ops, workload)
    loop = Loop(ops)
    rounds = _run_for(loop, workloads.rounds(workload, seed), seconds)
    lat = loop.latencies_ms
    metrics = {
        "setup_s": setup_s,
        "verdicts_per_s": loop.attempted / loop.busy_s,
        "verdict_ms_p50": statistics.median(lat),
        "verdict_ms_p90": statistics.quantiles(lat, n=10, method="inclusive")[8],
        "ok_frac": (loop.attempted - len(loop.failures)) / loop.attempted,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]}
               for k, v in metrics.items()}
    return loop, rounds, metrics


def _per_layer(workload, seed, seconds, ops):
    """Each round twice, untraced and traced, in alternating order."""
    _warm_up(ops, workload)
    plain, traced, tracer = Loop(ops), Loop(ops), Tracer()
    stream = workloads.rounds(workload, seed)
    rounds = 0
    start = time.perf_counter()
    while time.perf_counter() - start < seconds:
        batch = next(stream)
        if rounds % 2:
            plain.run_round(batch)
        with tracer:
            traced.run_round(batch)
        if not rounds % 2:
            plain.run_round(batch)
        rounds += 1
    n = traced.attempted
    metrics = {}
    for name in tracer.names():
        metrics[f"{name}.calls"] = (tracer.calls[name] / n, "calls/op")
        metrics[f"{name}.self_ms"] = (tracer.self_s[name] * 1e3 / n, "ms/op")
    for name, count in tracer.counts.items():
        metrics[name] = (count / n, "count/op")
    metrics["harness.self_ms"] = ((sum(traced.wall_ms) - tracer.top_s * 1e3) / n,
                                  "ms/op")
    metrics["trace.overhead_frac"] = (traced.busy_s / plain.busy_s - 1,
                                      "fraction")
    metrics = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    plain.failures += traced.failures
    plain.latencies_ms += traced.latencies_ms
    return plain, rounds, metrics


def run_workload(workload, seed, seconds, trace):
    import ops
    from pga_hoare import kernels

    meta = {
        "workload": workload,
        "seed": seed,
        "digest": workloads.digest(workload, seed),
        "trace": trace,
        "commit": _commit(),
        "kernel": kernels.implementation(),
        "PGA_HOARE_PURE": os.environ.get("PGA_HOARE_PURE", "unset"),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
    }
    measure = _per_layer if trace else _end_to_end
    loop, rounds, metrics = measure(workload, seed, seconds, ops)
    meta.update(rounds=rounds, ops=loop.attempted,
                wall_verdict_ms_p50=statistics.median(loop.wall_ms),
                wall_verdicts_per_s=1e3 * len(loop.wall_ms) / sum(loop.wall_ms))
    print("meta " + json.dumps(meta, sort_keys=True))
    for name, m in metrics.items():
        print(f"  {workload:<15} {name:<44} {m['value']:>14.6g} {m['unit']}")
    for f in loop.failures[:SHOWN_FAILURES]:
        print("failed " + json.dumps(f, sort_keys=True))
    if len(loop.failures) > SHOWN_FAILURES:
        print(f"failed ... and {len(loop.failures) - SHOWN_FAILURES} more")
    return {"correct": not loop.failures, "attempted": loop.attempted,
            "failed": len(loop.failures), "metrics": metrics}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    help="counter-loops, proof-check, register-sweep or all")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "pga_hoare" / "__init__.py").is_file():
        print(f"error: no pga_hoare package under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    names = (list(workloads.WORKLOADS) if args.workload == "all"
             else [args.workload])
    for name in names:
        if name not in workloads.WORKLOADS:
            ap.error(f"unknown workload {name!r}")
    results = {name: run_workload(name, args.seed, args.seconds, args.trace)
               for name in names}
    if len(results) == 1:
        final = results[names[0]]
    else:
        for name, r in results.items():
            print(f"result {name} " + json.dumps(r, sort_keys=True))
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{name}.{k}": v for name, r in results.items()
                        for k, v in r["metrics"].items()},
        }
    print(json.dumps(final, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
