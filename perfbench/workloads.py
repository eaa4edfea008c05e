"""The three workloads: one pass each, its oracle check, and its layer
instrumentation.

A pass is the unit that `wall_s` times.  `verify` and `enumerate` run
one CLI invocation per pass; `molecules` runs every dataset row (one
operation each) and then the correlation grid.  Every call into the
program goes through a module attribute (``cli.run``, ``chem.
parse_alkane_smiles`` ...), so a traced pass sees the same calls through
the wrappers that ``instrument`` installs.  Checks run after timing.

``sombor`` is imported inside the workload classes, never at module
level: run.py imports this module before it knows that the checkout has
the program at all.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import time
from dataclasses import dataclass, field
from pathlib import Path

import molgen
import oracles
from spans import Tracer

clock = time.perf_counter
# Per-operation latency is the measuring thread's CPU time: on a shared
# machine, preemption by other processes would otherwise decide the tail
# percentiles.  Passes are timed by the wall clock.
op_clock = time.thread_time


@dataclass
class Pass:
    wall: float  # seconds, wall clock
    op_latencies: list[float]  # CPU seconds of each op; None if it failed
    items: int  # items completed (trees checked, trees emitted, rows)


@dataclass
class Outcome:
    """Accumulated over every pass of a run."""

    attempted: int = 0
    failed: int = 0
    mismatches: list[str] = field(default_factory=list)
    errors: dict[str, int] = field(default_factory=dict)

    def mismatch(self, message: str) -> None:
        self.failed += 1
        if len(self.mismatches) < 20:
            self.mismatches.append(message)

    def error(self, exc: BaseException, where: str,
              expected: bool = False) -> None:
        """An exception raised by the program.  Only an `expected` one, a
        known defect that the workload keeps on purpose, leaves the run
        correct; any other is a mismatch."""
        key = type(exc).__name__
        self.errors[key] = self.errors.get(key, 0) + 1
        if expected:
            self.failed += 1
        else:
            self.mismatch(f"{where}: unexpected {key}: {exc}")


def _swap(stack: contextlib.ExitStack, module, attr: str, wrapper) -> None:
    """Replace `module.attr` by `wrapper` until `stack` closes."""
    from unittest import mock  # only traced runs pay for importing it
    stack.enter_context(mock.patch.object(module, attr, wrapper))


def _cli_call(run, argv: list[str], outcome: Outcome):
    """One CLI invocation with stdout captured: (wall s, CPU s, exit
    status, stdout), or None when it raised (a mismatch)."""
    outcome.attempted += 1
    buf = io.StringIO()
    t0, c0 = clock(), op_clock()
    try:
        with contextlib.redirect_stdout(buf):
            envelope = run(argv)
    except Exception as exc:
        outcome.error(exc, " ".join(argv))
        return None
    return clock() - t0, op_clock() - c0, envelope.exit_status, buf.getvalue()


def _rebuilt_trees(tr: Tracer, enumeration, streams: list, outcome: Outcome):
    """Replay the enumeration streams a traced pass drained: check their
    lengths against OEIS, and yield each tree rebuilt by
    ``Graph.from_edges`` under a span."""
    from sombor import Graph
    for fn_name, n, count in streams:
        expected = (oracles.free_tree_count(n) if fn_name == "enumerate_trees"
                    else oracles.molecular_tree_count(n))
        if count != expected:
            outcome.mismatch(f"{fn_name}({n}) streamed {count} trees, "
                             f"OEIS says {expected}")
        for g in getattr(enumeration, fn_name)(n):
            edges = list(g.edges())
            with tr.span("graphs.from_edges"):
                h = Graph.from_edges(g.n, edges)
            if h != g:
                outcome.mismatch(f"{fn_name}({n}): rebuilt tree differs")
            yield h


def _from_edges_metrics(tr: Tracer) -> dict[str, float]:
    return {"graphs.from_edges.calls": tr.calls("graphs.from_edges"),
            "graphs.from_edges_s": tr.total("graphs.from_edges")}


class Verify:
    """`sombor extremal --verify-up-to 15`: the paper's headline check."""

    name = "verify"
    argv = ["extremal", "--verify-up-to", str(oracles.VERIFY_N)]

    def __init__(self, root: Path, seed: int) -> None:
        from sombor import cli, enumeration, extremal
        self.cli, self.enumeration, self.extremal = cli, enumeration, extremal
        self.items = oracles.distinct_trees_up_to(oracles.VERIFY_N)
        self.streams: list = []

    def run_pass(self, outcome: Outcome) -> Pass:
        t0 = clock()
        call = _cli_call(self.cli.run, self.argv, outcome)
        if call is None:
            return Pass(clock() - t0, [None], 0)
        wall, cpu, status, out = call
        digest = hashlib.sha256(out.encode()).hexdigest()
        if status != 0 or digest != oracles.VERIFY_OUTPUT_SHA256:
            outcome.mismatch(f"verify: exit {status}, output sha256 {digest}")
            return Pass(wall, [None], 0)
        return Pass(wall, [cpu], self.items)

    def instrument(self, tr: Tracer, stack: contextlib.ExitStack) -> None:
        cli, extremal, enumeration = self.cli, self.extremal, self.enumeration
        self.streams = []

        def attainers(result) -> None:
            tr.counts["extremal.attainers"] += len(result[1])

        def argmax_name(*args, molecular=False, **kwargs) -> str:
            return ("enumeration.argmax_so2_molecular" if molecular
                    else "enumeration.argmax_so2")

        _swap(stack, cli, "run", tr.wrap(cli.run, "cli.run"))
        _swap(stack, cli, "verify_extremal_bounds",
              tr.wrap(cli.verify_extremal_bounds, "extremal.verify"))
        _swap(stack, extremal, "argmin_so2",
              tr.wrap(extremal.argmin_so2, "enumeration.argmin_so2",
                      attainers))
        _swap(stack, extremal, "argmax_so2",
              tr.wrap(extremal.argmax_so2, argmax_name, attainers))
        _swap(stack, extremal, "is_in_family",
              tr.wrap(extremal.is_in_family, "extremal.is_in_family"))
        for attr in ("enumerate_trees", "enumerate_molecular_trees"):
            _swap(stack, enumeration, attr,
                  tr.wrap_stream(getattr(enumeration, attr),
                                 "enumeration.stream", self.streams))
        _swap(stack, enumeration, "so2",
              tr.wrap(enumeration.so2, "indices.so2"))

    def layer_metrics(self, tr: Tracer) -> dict[str, float]:
        evaluated = tr.calls_within("indices.so2", "extremal.verify")
        return {
            "cli.run_s": tr.total("cli.run"),
            "cli.self_s": tr.self_time("cli.run"),
            "extremal.verify_s": tr.total("extremal.verify"),
            "extremal.self_s": tr.self_time("extremal.verify"),
            "extremal.is_in_family.calls": tr.calls("extremal.is_in_family"),
            "extremal.is_in_family_s": tr.total("extremal.is_in_family"),
            "extremal.trees_evaluated": evaluated,
            "extremal.useful_ratio": self.items / evaluated if evaluated else 0.0,
            "extremal.attainers": tr.counts["extremal.attainers"],
            "enumeration.trees": tr.counts["enumeration.stream"],
            "enumeration.stream_s": tr.total("enumeration.stream"),
            "enumeration.argmin_so2_s": tr.total("enumeration.argmin_so2"),
            "enumeration.argmax_so2_s": tr.total("enumeration.argmax_so2"),
            "enumeration.argmax_so2_molecular_s":
                tr.total("enumeration.argmax_so2_molecular"),
            "indices.so2.calls": tr.calls("indices.so2"),
            "indices.so2_s": tr.total("indices.so2"),
        }

    def replay(self, tr: Tracer, outcome: Outcome) -> dict[str, float]:
        """Rebuild every tree the last traced pass streamed, and evaluate
        so2 from its edge-type profile, one span per call."""
        from sombor import edge_type_profile, so2_from_profile
        for h in _rebuilt_trees(tr, self.enumeration, self.streams, outcome):
            with tr.span("graphs.edge_type_profile"):
                profile = edge_type_profile(h)
            with tr.span("indices.so2_from_profile"):
                so2_from_profile(profile)
        return {**_from_edges_metrics(tr),
                "indices.so2_from_profile_s":
                    tr.total("indices.so2_from_profile")}

    def check(self, outcome: Outcome) -> None:
        """Every pass was checked against the reference hash as it ran;
        a pass that raised is a mismatch already."""


class Enumerate:
    """`sombor enumerate --n 17 --emit edgelist`: every tree materialised
    and written, no index evaluated."""

    name = "enumerate"
    n = 17
    argv = ["enumerate", "--n", str(n), "--emit", "edgelist"]

    def __init__(self, root: Path, seed: int) -> None:
        from sombor import cli, enumeration
        self.cli, self.enumeration = cli, enumeration
        self.streams: list = []
        self.first_output: str = ""
        self.digests: list[str] = []

    def run_pass(self, outcome: Outcome) -> Pass:
        t0 = clock()
        call = _cli_call(self.cli.run, self.argv, outcome)
        if call is None:
            return Pass(clock() - t0, [None], 0)
        wall, cpu, status, out = call
        if status != 0:
            outcome.mismatch(f"enumerate: exit {status}")
            return Pass(wall, [None], 0)
        if not self.first_output:
            self.first_output = out
        self.digests.append(hashlib.sha256(out.encode()).hexdigest())
        return Pass(wall, [cpu], out.count("\n"))

    def check(self, outcome: Outcome) -> None:
        """The first output holds A000055(17) pairwise non-isomorphic
        trees on 17 vertices; every later output is byte-identical."""
        lines = self.first_output.splitlines()
        expected = oracles.free_tree_count(self.n)
        if len(lines) != expected:
            outcome.mismatch(f"enumerate: {len(lines)} trees, OEIS says {expected}")
        forms = set()
        for line in lines:
            edges = [tuple(map(int, e.split("-"))) for e in line.split()]
            if any(not (0 <= v < self.n) for e in edges for v in e):
                outcome.mismatch(f"enumerate: vertex out of range in {line!r}")
                continue
            adj = oracles.adjacency_from_edges(self.n, edges)
            if not oracles.is_tree(adj):
                outcome.mismatch(f"enumerate: not a tree on {self.n} vertices: {line!r}")
                continue
            forms.add(oracles.canonical_form(adj))
        if len(forms) != len(lines):
            outcome.mismatch(f"enumerate: {len(lines) - len(forms)} repeated trees")
        first = hashlib.sha256(self.first_output.encode()).hexdigest()
        for digest in self.digests:
            if digest != first:
                outcome.mismatch("enumerate: output differs between passes")

    def instrument(self, tr: Tracer, stack: contextlib.ExitStack) -> None:
        cli = self.cli
        self.streams = []
        _swap(stack, cli, "run", tr.wrap(cli.run, "cli.run"))
        # the CLI writes each tree with its own `_edge_string`, looked up
        # at call time; `graphs.format_edge_list` is not on this path
        _swap(stack, cli, "_edge_string",
              tr.wrap(cli._edge_string, "cli.edge_string"))
        for attr in ("enumerate_trees", "enumerate_molecular_trees"):
            _swap(stack, cli, attr,
                  tr.wrap_stream(getattr(cli, attr), "enumeration.stream",
                                 self.streams))

    def layer_metrics(self, tr: Tracer) -> dict[str, float]:
        edge_string = tr.total("cli.edge_string")
        return {
            "cli.run_s": tr.total("cli.run"),
            # `_edge_string` is the CLI's own code: only the library's
            # enumeration stream is taken out of `run`
            "cli.self_s": tr.self_time("cli.run") + edge_string,
            "cli.edge_string_s": edge_string,
            "enumeration.trees": tr.counts["enumeration.stream"],
            "enumeration.stream_s": tr.total("enumeration.stream"),
        }

    def replay(self, tr: Tracer, outcome: Outcome) -> dict[str, float]:
        """Rebuild every tree the last traced pass streamed, and format
        it with `graphs.format_edge_list`, one span per call.  The CLI
        does not call `format_edge_list`; this prices the library's
        writer on the same trees, next to ``cli.edge_string_s``."""
        from sombor import format_edge_list
        for h in _rebuilt_trees(tr, self.enumeration, self.streams, outcome):
            with tr.span("graphs.format_edge_list"):
                format_edge_list(h)
        return {**_from_edges_metrics(tr),
                "graphs.format_edge_list_s":
                    tr.total("graphs.format_edge_list")}


def dataset_path(root: Path, seed: int) -> Path:
    return root / ".perfbench_work" / f"molecules-{seed}.csv"


class Molecules:
    """A seeded alkane CSV: per row parse, nine indices, exact so2 and
    canonical SMILES; then the index-vs-property correlation grid."""

    name = "molecules"

    def __init__(self, root: Path, seed: int, rows: int = molgen.ROWS) -> None:
        from sombor import chem, indices, qspr
        self.chem, self.indices, self.qspr = chem, indices, qspr
        self.seed, self.rows = seed, rows
        self.path = dataset_path(root, seed)
        self.records = chem.load_dataset(self.path)
        # rows longer than any regular molecule are the generator's long
        # chains, the only rows allowed to fail (ROADMAP item 5)
        self.tail_rows = {i for i, r in enumerate(self.records)
                          if r.smiles.count("C") > molgen.REGULAR_SIZES[1]}
        self.targets = molgen.PROPERTIES + ("so2",)
        self.first_rows: list = []
        self.first_grid: dict = {}
        self.graphs: list = []
        self.grid_keys: list = []

    def row(self, record):
        """One operation: parse, the nine indices, exact so2 and canonical
        SMILES of one dataset row."""
        chem, qspr = self.chem, self.qspr
        g = chem.parse_alkane_smiles(record.smiles)
        values = tuple(qspr.index_value(g, name) for name in qspr.INDEX_NAMES)
        exact = self.indices.so2(g).exact
        self.graphs.append(g)
        return values, exact, chem.alkane_to_smiles(g)

    def run_pass(self, outcome: Outcome) -> Pass:
        self.graphs = []
        rows, latencies, done = [], [], 0
        t_pass = clock()
        for record in self.records:
            c0 = op_clock()
            try:
                result = self.row(record)
            except Exception as exc:
                result = exc
            latency = op_clock() - c0
            rows.append(result)
            if isinstance(result, Exception):
                latencies.append(None)
            else:
                latencies.append(latency)
                done += 1
        try:
            grid = self.qspr.correlation_grid(self.records,
                                              self.qspr.INDEX_NAMES,
                                              self.targets)
        except Exception as exc:
            grid = exc
        wall = clock() - t_pass
        self._record(rows, grid, outcome)
        return Pass(wall, latencies, done)

    def _record(self, rows: list, grid, outcome: Outcome) -> None:
        outcome.attempted += len(rows) + 1
        for i, result in enumerate(rows):
            if isinstance(result, Exception):
                outcome.error(result, f"molecules: row {i}",
                              expected=(i in self.tail_rows and
                                        isinstance(result, RecursionError)))
        if isinstance(grid, Exception):
            outcome.error(grid, "molecules: correlation_grid")
        if not self.first_rows:
            self.first_rows, self.first_grid = rows, grid
            return
        for i, (a, b) in enumerate(zip(rows, self.first_rows)):
            raised = isinstance(a, Exception) or isinstance(b, Exception)
            if (type(a) is not type(b)) if raised else a != b:
                outcome.mismatch(f"molecules: row {i} differs between passes")
        if not isinstance(grid, Exception) and grid != self.first_grid:
            outcome.mismatch("molecules: grid differs between passes")

    def check(self, outcome: Outcome) -> None:
        """The first pass against the generator's ground truth: exact so2,
        the nine indices, canonical SMILES naming the same tree and equal
        within each duplicate group, and the grid's squared correlations."""
        truth = molgen.generate(self.seed, self.rows)
        names = [m.name for m in truth]
        if names != [r.name for r in self.records]:
            outcome.mismatch("molecules: dataset rows differ from the generator")
            return
        if self.tail_rows != {i for i, m in enumerate(truth) if m.kind == "tail"}:
            outcome.mismatch("molecules: long-chain rows misidentified")
        expected = [oracles.index_values([list(a) for a in m.adj]) for m in truth]
        group_smiles: dict[int, str] = {}
        forms: dict[int, str] = {}
        for i, (m, result) in enumerate(zip(truth, self.first_rows)):
            if isinstance(result, Exception):
                continue
            values, exact, smiles = result
            adj = [list(a) for a in m.adj]
            if exact != oracles.so2_exact(adj):
                outcome.mismatch(f"molecules: {m.name} so2 {exact}")
            want = expected[i]
            for name, value in zip(self.qspr.INDEX_NAMES, values):
                if not oracles.close(value, want[name]):
                    outcome.mismatch(f"molecules: {m.name} {name} {value!r} "
                                     f"expected {want[name]!r}")
            if m.group not in forms:
                forms[m.group] = oracles.canonical_form(adj)
            try:
                written = oracles.canonical_form(oracles.read_smiles(smiles))
            except ValueError:
                written = None
            if written != forms[m.group]:
                outcome.mismatch(f"molecules: {m.name} SMILES {smiles[:40]!r} "
                                 "is another tree")
            if group_smiles.setdefault(m.group, smiles) != smiles:
                outcome.mismatch(f"molecules: {m.name} canonical SMILES differs "
                                 "within its duplicate group")
        grid = self.first_grid
        if isinstance(grid, Exception):
            return  # a mismatch already
        for index_name in self.qspr.INDEX_NAMES:
            xs = [v[index_name] for v in expected]
            for target in self.targets:
                ys = ([v[target] for v in expected] if target == "so2"
                      else [m.properties[target] for m in truth])
                want = oracles.r_squared(xs, ys)
                if not oracles.close(grid.get((index_name, target), -1.0), want):
                    outcome.mismatch(f"molecules: r^2({index_name}, {target}) "
                                     f"{grid.get((index_name, target))!r} "
                                     f"expected {want!r}")

    def instrument(self, tr: Tracer, stack: contextlib.ExitStack) -> None:
        chem, indices, qspr = self.chem, self.indices, self.qspr
        index_value = qspr.index_value

        def traced_index_value(g, name):
            if tr.inside("qspr.correlation_grid"):
                self.grid_keys.append((name, id(g)))
            with tr.span("qspr.index_value"):
                return index_value(g, name)

        for module, attr, span in (
                (chem, "parse_alkane_smiles", "chem.parse_alkane_smiles"),
                (chem, "alkane_to_smiles", "chem.alkane_to_smiles"),
                (indices, "so2", "indices.so2"),
                (qspr, "so2", "indices.so2"),
                (qspr, "vdb_index", "indices.vdb_index"),
                (qspr, "neighborhood_zagreb", "indices.neighborhood_zagreb"),
                (qspr, "linear_fit", "qspr.linear_fit"),
                (qspr, "correlation_grid", "qspr.correlation_grid")):
            _swap(stack, module, attr, tr.wrap(getattr(module, attr), span))
        _swap(stack, qspr, "index_value", traced_index_value)
        self.grid_keys = []

    def layer_metrics(self, tr: Tracer) -> dict[str, float]:
        keys = self.grid_keys
        return {
            "chem.parse_alkane_smiles.calls": tr.calls("chem.parse_alkane_smiles"),
            "chem.parse_alkane_smiles_s": tr.total("chem.parse_alkane_smiles"),
            "chem.alkane_to_smiles.calls": tr.calls("chem.alkane_to_smiles"),
            "chem.alkane_to_smiles_s": tr.total("chem.alkane_to_smiles"),
            "chem.alkane_to_smiles.failed":
                tr.counts["chem.alkane_to_smiles.failed"],
            "indices.so2.calls": tr.calls("indices.so2"),
            "indices.so2_s": tr.total("indices.so2"),
            "indices.vdb_index_s": tr.total("indices.vdb_index"),
            "indices.neighborhood_zagreb_s":
                tr.total("indices.neighborhood_zagreb"),
            "qspr.index_value.calls": tr.calls("qspr.index_value"),
            "qspr.index_value_s": tr.total("qspr.index_value"),
            "qspr.index_value.useful_ratio":
                len(set(keys)) / len(keys) if keys else 0.0,
            "qspr.correlation_grid_s": tr.total("qspr.correlation_grid"),
            "qspr.linear_fit.calls": tr.calls("qspr.linear_fit"),
            "qspr.linear_fit_s": tr.total("qspr.linear_fit"),
        }

    def replay(self, tr: Tracer, outcome: Outcome) -> dict[str, float]:
        """Reload the dataset, and rebuild each parsed molecule and
        evaluate so2 from its edge-type profile, one span per call."""
        from sombor import Graph, edge_type_profile, so2_from_profile
        with tr.span("chem.load_dataset"):
            self.chem.load_dataset(self.path)
        for i, g in enumerate(self.graphs):
            edges = list(g.edges())
            with tr.span("graphs.from_edges"):
                h = Graph.from_edges(g.n, edges)
            with tr.span("graphs.edge_type_profile"):
                profile = edge_type_profile(h)
            with tr.span("indices.so2_from_profile"):
                value = so2_from_profile(profile)
            if h != g or value != self.indices.so2(g).exact:
                outcome.mismatch(f"molecules: replay of parsed molecule {i} differs")
        return {
            **_from_edges_metrics(tr),
            "chem.load_dataset_s": tr.total("chem.load_dataset"),
            "graphs.edge_type_profile_s": tr.total("graphs.edge_type_profile"),
            "indices.so2_from_profile_s": tr.total("indices.so2_from_profile"),
        }


WORKLOADS = {w.name: w for w in (Verify, Enumerate, Molecules)}
