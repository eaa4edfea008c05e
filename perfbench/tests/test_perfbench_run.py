"""Run-level behaviour: failed rows are counted, spans add up, and the
benchmark refuses a checkout without the program."""

import shutil
import subprocess
import sys
from pathlib import Path

import pytest
from sombor import chem, cli, qspr

import molgen
from spans import Tracer
from worker import percentile, timed_run
from workloads import Enumerate, Molecules, Outcome, Verify, dataset_path

BENCH = Path(__file__).resolve().parents[1]


def _molecules(tmp_path, seed=3, rows=400):
    path = dataset_path(tmp_path, seed)
    path.parent.mkdir()
    molgen.write_csv(molgen.generate(seed, rows), path)
    return Molecules(tmp_path, seed, rows)


def test_recursion_error_row_is_counted_and_the_run_goes_on(tmp_path):
    # 400 rows carry two tail chains, of 200 and 3000 backbone carbons;
    # the 3000-carbon one exceeds the recursion limit in alkane_to_smiles
    rows = 400
    wl = _molecules(tmp_path, rows=rows)
    outcome = Outcome()
    result = wl.run_pass(outcome)
    assert outcome.attempted == rows + 1  # every row plus the grid
    assert outcome.failed == 1
    assert outcome.errors == {"RecursionError": 1}
    assert len(result.op_latencies) == rows
    assert sum(x is None for x in result.op_latencies) == 1
    assert result.items == rows - 1
    wl.check(outcome)
    assert outcome.mismatches == []


def test_timed_run_reports_failures_without_aborting(tmp_path):
    report = timed_run(_molecules(tmp_path), seconds=0)
    assert report["correct"] and report["failed"] == 1
    assert report["errors"] == {"RecursionError": 1}
    # 400 ops leave fewer than ten samples beyond p99: the median stands in
    assert report["metrics"]["op_us.p99"] == report["metrics"]["op_us.p50"] > 0


def test_failed_ops_rank_above_every_success():
    latencies = [0.1] * 98 + [None, None]
    assert percentile(latencies, 0.5, 9.0) == 0.1
    assert percentile(latencies, 0.99, 9.0) == 9.0


def test_self_time_subtracts_direct_children():
    tr = Tracer()
    with tr.span("outer"):
        with tr.span("inner"):
            with tr.span("leaf"):
                pass
        with tr.span("inner"):
            pass
    outer = tr.total("outer")
    assert tr.calls("inner") == 2
    assert abs(tr.self_time("outer") - (outer - tr.total("inner"))) < 1e-12
    assert tr.calls_within("leaf", "outer") == 1
    assert tr.calls_within("outer", "inner") == 0
    assert all(s.run == 0 for s in tr.spans)


def test_refuses_a_directory_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "verify",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


def _boom(*args, **kwargs):
    raise AssertionError("injected")


def test_a_grid_that_raises_makes_the_run_incorrect(tmp_path, monkeypatch):
    wl = _molecules(tmp_path)
    monkeypatch.setattr(qspr, "correlation_grid", _boom)
    report = timed_run(wl, seconds=0)
    assert not report["correct"]
    assert report["errors"] == {"RecursionError": 1, "AssertionError": 1}
    assert any("correlation_grid" in m for m in report["mismatches"])


def test_a_regular_row_that_raises_makes_the_run_incorrect(tmp_path,
                                                           monkeypatch):
    # even the error that tail rows are allowed to raise
    wl = _molecules(tmp_path)
    real = chem.alkane_to_smiles

    def fails_on_small(g):
        if g.n <= molgen.REGULAR_SIZES[1]:
            raise RecursionError("injected")
        return real(g)

    monkeypatch.setattr(chem, "alkane_to_smiles", fails_on_small)
    report = timed_run(wl, seconds=0)
    assert not report["correct"]
    assert any("row 0: unexpected RecursionError" in m
               for m in report["mismatches"])


@pytest.mark.parametrize("workload, attr", [
    (Verify, "verify_extremal_bounds"),
    (Enumerate, "enumerate_trees"),
])
def test_a_cli_call_that_raises_makes_the_run_incorrect(workload, attr,
                                                        tmp_path, monkeypatch):
    monkeypatch.setattr(cli, attr, _boom)
    report = timed_run(workload(tmp_path, 1), seconds=0)
    assert not report["correct"]
    assert report["errors"] == {"AssertionError": 1}
    assert report["failed"] >= 1


def test_setup_is_sampled_between_passes(tmp_path):
    samples = iter(range(100))
    report = timed_run(_molecules(tmp_path), seconds=0,
                       sample_setup=lambda: next(samples))
    assert report["setup_samples"] == [0, 1]
