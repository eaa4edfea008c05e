"""One benchmark process: set up, run timed passes, check, report JSON.

Started by run.py (see ``spawn``) in a fresh interpreter with the
checkout's ``src`` on PYTHONPATH.  Prints one JSON object: the
CLOCK_MONOTONIC time at which ``import sombor`` had returned and the
workload's inputs were loaded (``ready``), and, unless ``--setup-only``,
the run's measurements.  Single-threaded, closed loop: the next
operation starts when the previous one returns.  Between timed passes
the worker spawns set-up-only workers, one at a time, so that the
``setup_s`` samples are spread over the whole run.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import math
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# p99 is reported only with at least ten samples beyond it in each pass;
# a pass with fewer operations (verify, enumerate: one CLI call) cannot
# resolve it and reports its median there instead
MIN_OPS_FOR_P99 = 1000
SETUP_SAMPLES_PER_PASS = 2
WORKER_TIMEOUT_S = 150


class WorkerError(RuntimeError):
    """A worker process failed or timed out."""


def spawn(args: list[str], env: dict = None) -> tuple[float, dict]:
    """Run a worker with `args` in a fresh interpreter; return the time it
    was spawned and its JSON report.

    ``-S``: the program and the benchmark need only the standard library,
    and skipping ``site`` keeps the start-up hooks of whatever is
    installed on the host out of ``setup_s``.
    """
    import subprocess
    cmd = [sys.executable, "-S", str(Path(__file__).resolve())] + args
    spawned = _ready_clock()
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise WorkerError(f"worker timed out after {WORKER_TIMEOUT_S} s") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkerError(f"worker exited with status {proc.returncode}")
    return spawned, json.loads(lines[-1])


def setup_time(args: list[str], env: dict = None) -> float:
    """Seconds from spawning a set-up-only worker until it was ready."""
    spawned, report = spawn(args + ["--setup-only"], env)
    return report["ready"] - spawned


def _ready_clock() -> float:
    # CLOCK_MONOTONIC is shared by all processes on the machine, so run.py
    # can subtract the time it spawned this interpreter
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def percentile(latencies: list, q: float, charge: float) -> float:
    """Nearest-rank percentile; a failed op (None) ranks above every
    successful one and is charged `charge` seconds."""
    ok = sorted(x for x in latencies if x is not None)
    k = max(math.ceil(q * len(latencies)) - 1, 0)
    return ok[k] if k < len(ok) else charge


def timed_run(wl, seconds: float, sample_setup=None) -> dict:
    """Whole passes until `seconds` have elapsed (at least one).  After
    each pass, outside its timing, `sample_setup()` is called
    SETUP_SAMPLES_PER_PASS times; the seconds it returns are reported
    under ``setup_samples``."""
    from workloads import Outcome
    outcome = Outcome()
    passes, setups = [], []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        gc.collect()
        passes.append(wl.run_pass(outcome))
        if sample_setup is not None:
            setups += [sample_setup() for _ in range(SETUP_SAMPLES_PER_PASS)]
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    wl.check(outcome)
    walls = [p.wall for p in passes]
    ops = sum(len(p.op_latencies) for p in passes)

    def op_us(q: float) -> float:
        # per pass, like wall_s: one pass that ran while the machine was
        # slow cannot fill the tail on its own
        return statistics.median(
            percentile(p.op_latencies,
                       q if len(p.op_latencies) >= MIN_OPS_FOR_P99 else 0.50,
                       p.wall) for p in passes) * 1e6

    return {
        "metrics": {
            "wall_s": statistics.median(walls),
            "items_per_s": statistics.median(p.items / p.wall for p in passes),
            "op_us.p50": op_us(0.50),
            "op_us.p99": op_us(0.99),
            "peak_rss_mb": rss_kb / 1024,
        },
        "samples": {"wall_s": len(walls), "items_per_s": len(walls),
                    "op_us.p50": ops, "op_us.p99": ops,
                    "peak_rss_mb": 1},
        "setup_samples": setups,
        **_outcome(outcome),
    }


def traced_run(workloads: list, seconds: float) -> dict:
    """Per-layer metrics of every workload, each prefixed with its name.

    Each workload gets an equal share of `seconds`, alternating untraced
    and traced passes (at least one of each); layer metrics are medians
    over its traced passes, and ``trace.overhead_ratio`` is the median
    traced pass over the median untraced one.  Replays of single layers
    run once afterwards, outside every pass.
    """
    from spans import Tracer
    from workloads import Outcome
    outcome = Outcome()
    metrics: dict[str, float] = {}
    budget = seconds / len(workloads)
    for wl in workloads:
        plain, traced, layers = [], [], []
        start = time.perf_counter()
        while (len(plain) != len(traced) or not traced
               or time.perf_counter() - start < budget):
            gc.collect()
            if len(plain) == len(traced):
                plain.append(wl.run_pass(outcome).wall)
                continue
            tracer = Tracer(run=len(traced))
            with contextlib.ExitStack() as stack:
                wl.instrument(tracer, stack)
                traced.append(wl.run_pass(outcome).wall)
            layers.append(wl.layer_metrics(tracer))
        found = {key: statistics.median(layer[key] for layer in layers)
                 for key in layers[0]}
        found.update(wl.replay(Tracer(run=len(traced)), outcome))
        found["trace.overhead_ratio"] = (statistics.median(traced)
                                         / statistics.median(plain))
        wl.check(outcome)
        metrics.update({f"{wl.name}.{key}": value
                        for key, value in found.items()})
    return {"metrics": metrics, "samples": {}, **_outcome(outcome)}


def _outcome(outcome) -> dict:
    return {"attempted": outcome.attempted, "failed": outcome.failed,
            "correct": not outcome.mismatches, "mismatches": outcome.mismatches,
            "errors": outcome.errors}


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    import sombor  # noqa: F401  (set-up includes the import)
    from workloads import WORKLOADS
    names = list(WORKLOADS) if args.trace else [args.workload]
    workloads = [WORKLOADS[name](ROOT, args.seed) for name in names]
    ready = _ready_clock()
    if args.setup_only:
        result: dict = {}
    elif args.trace:
        result = traced_run(workloads, args.seconds)
    else:
        result = timed_run(workloads[0], args.seconds,
                           lambda: setup_time(argv))
    result["ready"] = ready
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
