"""sombor benchmark: one command for the `verify`, `enumerate` and
`molecules` workloads.

    python3 perfbench/run.py --workload verify --seed 1 --seconds 30 --trace 0

Run from the root of a checkout.  Each run spawns fresh single-threaded
interpreters (perfbench/worker.py) with the checkout's ``src`` on
PYTHONPATH: several set-up-only ones for ``setup_s``, then one that
measures for ``--seconds`` seconds and spawns further set-up-only ones
between its timed passes.  Every output is checked against
the benchmark's own oracles.  The run prints each metric with its unit
and sample count, then, as its last line, one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  With ``--trace 0``
the metrics are the end-to-end ones of BENCHMARK.json; with
``--trace 1`` a traced run of all three workloads reports the
per-layer ones.  Exit status: 0 when every output was correct, 1 on an
oracle mismatch, 2 when the checkout or a worker is unusable (no
result printed).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import sys
from pathlib import Path

import molgen
from worker import WorkerError, setup_time, spawn
from workloads import dataset_path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# set-up-only spawns before the measuring one; the measuring spawn adds
# one sample and spawns more between its passes
SETUP_SAMPLES = 4


class BenchError(RuntimeError):
    """The checkout is unusable."""


def _prepare_dataset(seed: int) -> dict[str, float]:
    molecules = molgen.generate(seed)
    path = dataset_path(ROOT, seed)
    path.parent.mkdir(exist_ok=True)
    molgen.write_csv(molecules, path)
    return molgen.shares(molecules)


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if workload not in {w["name"] for w in spec["workloads"]}:
        raise BenchError(f"unknown workload {workload!r}")
    if not (ROOT / "src" / "sombor" / "__init__.py").is_file():
        raise BenchError(f"no sombor sources under {ROOT / 'src'}")
    info: dict = {}
    if trace or workload == "molecules":
        info.update({f"{k}_share": v for k, v in _prepare_dataset(seed).items()})
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0")
    args = ["--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(int(trace))]
    wanted = spec["per_layer" if trace else "end_to_end"]
    setups = []
    if not trace:
        setup_time(args, env)  # fills the bytecode cache
        setups = [setup_time(args, env) for _ in range(SETUP_SAMPLES)]
    spawned, report = spawn(args, env)
    setups += [report["ready"] - spawned] + report.get("setup_samples", [])
    found = dict(report["metrics"])
    samples = dict(report["samples"])
    if not trace:
        found["setup_s"] = statistics.median(setups)
        samples["setup_s"] = len(setups)
    missing = [m["name"] for m in wanted if m["name"] not in found]
    if missing:
        raise BenchError(f"worker did not report {', '.join(missing)}")
    report["metrics"] = {m["name"]: {"value": found[m["name"]], "unit": m["unit"]}
                         for m in wanted}
    report["samples"] = samples
    report["info"] = info
    return report


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(
        description="sombor benchmark (see perfbench/NOTES.md)")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        report = measure(args.workload, args.seed, args.seconds,
                         bool(args.trace))
    except (BenchError, WorkerError, OSError, ValueError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"python {platform.python_version()}  cpus {os.cpu_count()}")
    for name, metric in report["metrics"].items():
        count = report["samples"].get(name)
        suffix = f"  (n={count})" if count is not None else ""
        print(f"  {name:44s} {metric['value']:14.6g} {metric['unit']}{suffix}")
    print(f"  {'fail_ratio':44s} {report['failed']}/{report['attempted']}"
          + "".join(f"  {k}={v}" for k, v in sorted(report["errors"].items())))
    for key, value in report["info"].items():
        print(f"  {key:44s} {value:.4f}")
    for message in report["mismatches"]:
        print(f"  MISMATCH {message}")
    print(json.dumps({"correct": report["correct"],
                      "attempted": report["attempted"],
                      "failed": report["failed"],
                      "metrics": report["metrics"]}))
    return 0 if report["correct"] else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
