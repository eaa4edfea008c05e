"""Command-line interface.

Subcommands: compute, enumerate, extremal, fit, parse.  Every value
with an exact rational form is printed both ways ("p/q (decimal)" in
plain format, tab-separated fields in tsv), because the extremal
statements are exact and decimals alone hide ties.  Output is
deterministic for identical inputs.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from .chem import load_dataset, octane_dataset_path, parse_alkane_smiles
from .enumeration import (argmax_so2, count_trees, enumerate_molecular_trees,
                          enumerate_trees)
from .extremal import (build_family_member, molecular_so2_max,
                       tree_so2_bounds, verify_extremal_bounds)
from .graphs import Graph, degrees, parse_edge_list
from .indices import INDEX_NAMES, IndexValue, index_by_name, so2
from .qspr import fit_property


@dataclass(frozen=True)
class OutputEnvelope:
    """Everything one invocation produced: echoed command, stdout lines,
    warnings, and the exit status (0 only when no error occurred)."""

    command: tuple[str, ...]
    results: tuple[str, ...] = ()
    warnings: tuple[str, ...] = ()
    exit_status: int = 0


def _fmt_exact(value: Fraction, fmt: str) -> str:
    if fmt == "tsv":
        return f"{value}\t{float(value)!r}"
    return f"{value} ({float(value)!r})"


def _fmt_index(value: IndexValue, fmt: str) -> str:
    if value.exact is not None:
        return _fmt_exact(value.exact, fmt)
    return repr(value.approx)


def _kv(key: str, value: str, fmt: str) -> str:
    sep = "\t" if fmt == "tsv" else " "
    return f"{key}{sep}{value}"


def _edge_string(g: Graph) -> str:
    return " ".join(f"{u}-{v}" for u, v in g.edges())


def _load_graph(args: argparse.Namespace) -> Graph:
    if args.smiles is not None:
        return parse_alkane_smiles(args.smiles)
    text = Path(args.input).read_text(encoding="utf-8")
    return parse_edge_list(text)


def _cmd_compute(args: argparse.Namespace) -> list[str]:
    value = index_by_name(_load_graph(args), args.index)
    return [_fmt_index(value, args.format)]


def _cmd_enumerate(args: argparse.Namespace) -> list[str]:
    if args.emit == "count":
        return [str(count_trees(args.n, molecular=args.molecular))]
    stream = (enumerate_molecular_trees(args.n) if args.molecular
              else enumerate_trees(args.n))
    return [_edge_string(g) if g.edge_count else "(no edges)" for g in stream]


def _cmd_extremal(args: argparse.Namespace) -> list[str]:
    fmt = args.format
    lines: list[str] = []
    if args.verify_up_to is not None:
        report = verify_extremal_bounds(args.verify_up_to)
        for check in report.checks:
            status = "ok" if check.passed else "VIOLATION"
            lines.append(_kv(f"n={check.n}",
                             f"{check.label} {status} {check.detail}", fmt))
        lines.append(f"{len(report.violations)} violations")
        return lines
    if args.n is None:
        raise ValueError("extremal needs --n or --verify-up-to")
    n = args.n
    lines.append(_kv("n", str(n), fmt))
    if n >= 3:
        lower, upper = tree_so2_bounds(n)
        lines.append(_kv("min_so2", _fmt_exact(lower, fmt), fmt))
        lines.append(_kv("max_so2", _fmt_exact(upper, fmt), fmt))
    if n >= 5:
        lines.append(_kv("molecular_max_so2",
                         _fmt_exact(molecular_so2_max(n), fmt), fmt))
    if args.family is not None:
        member = build_family_member(args.family, n)
        lines.append(_kv("family", str(args.family), fmt))
        lines.append(_kv("family_so2", _fmt_index(so2(member), fmt), fmt))
        lines.append(_kv("family_edges", _edge_string(member), fmt))
    if args.maximizers:
        value, attaining = argmax_so2(n, molecular=True)
        lines.append(_kv("maximizer_so2", _fmt_exact(value, fmt), fmt))
        for g in attaining:
            lines.append(_kv("maximizer_edges", _edge_string(g), fmt))
    return lines


def _cmd_fit(args: argparse.Namespace) -> list[str]:
    dataset = args.dataset if args.dataset else octane_dataset_path()
    records = load_dataset(dataset)
    fit, points = fit_property(records, args.index, args.property)
    fmt = args.format
    lines = [
        _kv("index", args.index, fmt),
        _kv("property", args.property, fmt),
        _kv("n", str(fit.sample_size), fmt),
        _kv("slope", repr(fit.slope), fmt),
        _kv("intercept", repr(fit.intercept), fmt),
        _kv("r_squared", repr(fit.r_squared), fmt),
    ]
    if args.emit_points:
        lines.append("name\tx\ty\tpredicted")
        for name, x, y in points:
            lines.append(f"{name}\t{x!r}\t{y!r}\t{fit.predict(x)!r}")
    return lines


def _cmd_parse(args: argparse.Namespace) -> list[str]:
    g = parse_alkane_smiles(args.smiles)
    fmt = args.format
    return [
        _kv("n", str(g.n), fmt),
        _kv("m", str(g.edge_count), fmt),
        _kv("edges", _edge_string(g) if g.edge_count else "(no edges)", fmt),
        _kv("degrees", " ".join(map(str, degrees(g))), fmt),
    ]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sombor",
        description="Exact second Sombor index computations, exhaustive "
                    "tree enumeration, extremal bounds, and octane QSPR fits.")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add_format(p: argparse.ArgumentParser) -> None:
        p.add_argument("--format", choices=("plain", "tsv"), default="plain")

    p = sub.add_parser("compute", help="evaluate an index on one graph")
    p.add_argument("--index", required=True, choices=INDEX_NAMES)
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--input", help="edge-list file (first line 'n m')")
    src.add_argument("--smiles", help="carbon-skeleton SMILES string")
    add_format(p)
    p.set_defaults(handler=_cmd_compute)

    p = sub.add_parser("enumerate", help="stream non-isomorphic trees")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--molecular", action="store_true",
                   help="restrict to maximum degree four")
    p.add_argument("--emit", choices=("edgelist", "count"), default="edgelist")
    add_format(p)
    p.set_defaults(handler=_cmd_enumerate)

    p = sub.add_parser("extremal", help="closed-form bounds, extremal "
                                        "families, brute-force verification")
    p.add_argument("--n", type=int)
    p.add_argument("--verify-up-to", type=int, dest="verify_up_to")
    p.add_argument("--family", type=int, choices=(0, 1, 2, 3))
    p.add_argument("--maximizers", action="store_true",
                   help="emit the molecular maximizer edge lists")
    add_format(p)
    p.set_defaults(handler=_cmd_extremal)

    p = sub.add_parser("fit", help="regress a property against an index")
    p.add_argument("--dataset", help="CSV file (default: packaged octanes)")
    p.add_argument("--index", default="so2", choices=INDEX_NAMES)
    p.add_argument("--property", required=True)
    p.add_argument("--emit-points", action="store_true", dest="emit_points")
    add_format(p)
    p.set_defaults(handler=_cmd_fit)

    p = sub.add_parser("parse", help="parse SMILES to an edge list")
    p.add_argument("--smiles", required=True)
    add_format(p)
    p.set_defaults(handler=_cmd_parse)

    return parser


def run(argv: list[str]) -> OutputEnvelope:
    """Execute one CLI invocation: write results to stdout and problems
    to stderr, and return everything as an envelope."""
    command = tuple(argv)
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        status = exc.code if isinstance(exc.code, int) else 2
        return OutputEnvelope(command=command, exit_status=status)
    try:
        lines = args.handler(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return OutputEnvelope(command=command, warnings=(str(exc),),
                              exit_status=1)
    for line in lines:
        print(line)
    return OutputEnvelope(command=command, results=tuple(lines))


def main() -> int:
    return run(sys.argv[1:]).exit_status


if __name__ == "__main__":
    sys.exit(main())
