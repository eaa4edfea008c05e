"""Acyclic-alkane SMILES parsing and the octane-isomer dataset.

Only the hydrogen-suppressed carbon-skeleton subset of SMILES is
accepted: atoms are the single letter ``C``, branches use parentheses,
bonds are implicit single bonds.  That is exactly what is needed to
name alkane isomers; anything else (rings, aromatics, heteroatoms,
charges) is a parse error with the offending position.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Iterable, Optional, Union

from .graphs import Graph, is_molecular_tree
from .indices import so2

MAX_VALENCE = 4


class SmilesError(ValueError):
    """Malformed or unsupported SMILES input; carries the position and,
    when known, the name of the molecule."""

    def __init__(self, message: str, position: int,
                 molecule: Optional[str] = None):
        where = f"position {position}"
        if molecule is not None:
            where = f"molecule {molecule!r}, {where}"
        super().__init__(f"{where}: {message}")
        self.message = message
        self.position = position
        self.molecule = molecule


def parse_alkane_smiles(s: str) -> Graph:
    """Parse a carbon-skeleton SMILES string into its tree.

    Vertices are numbered in token order.  Exceeding four bonds on any
    carbon is an error, so every parse result is a molecular tree.
    """
    if not s:
        raise SmilesError("empty SMILES string", 0)
    edges: list[tuple[int, int]] = []
    degree: list[int] = []
    stack: list[int] = []
    current = -1  # no atom seen yet
    for pos, ch in enumerate(s):
        if ch == "C":
            atom = len(degree)
            degree.append(0)
            if current >= 0:
                if degree[current] >= MAX_VALENCE:
                    raise SmilesError(
                        f"carbon valence exceeds {MAX_VALENCE}", pos)
                edges.append((current, atom))
                degree[current] += 1
                degree[atom] += 1
            current = atom
        elif ch == "(":
            if current < 0:
                raise SmilesError("branch before first atom", pos)
            stack.append(current)
        elif ch == ")":
            if not stack:
                raise SmilesError("unbalanced ')'", pos)
            if current == stack[-1]:
                raise SmilesError("empty branch", pos)
            current = stack.pop()
        else:
            raise SmilesError(f"unsupported character {ch!r}", pos)
    if stack:
        raise SmilesError("unbalanced '('", len(s))
    g = Graph.from_edges(len(degree), edges)
    assert is_molecular_tree(g)
    return g


def _canonical_key(g: Graph, v: int, parent: int):
    return tuple(sorted((_canonical_key(g, u, v) for u in g.adjacency[v]
                         if u != parent), reverse=True))


def _centroid_candidates(g: Graph) -> list[int]:
    # subtree sizes via one DFS from vertex 0, then max-component weights
    n = g.n
    order: list[int] = []
    parent = [-1] * n
    stack = [0]
    seen = [False] * n
    seen[0] = True
    while stack:
        v = stack.pop()
        order.append(v)
        for u in g.adjacency[v]:
            if not seen[u]:
                seen[u] = True
                parent[u] = v
                stack.append(u)
    size = [1] * n
    for v in reversed(order):
        if parent[v] >= 0:
            size[parent[v]] += size[v]
    best = n
    out: list[int] = []
    for v in range(n):
        weight = n - size[v]
        for u in g.adjacency[v]:
            if u != parent[v] and parent[u] == v:
                weight = max(weight, size[u])
        if weight < best:
            best = weight
            out = [v]
        elif weight == best:
            out.append(v)
    return out


def alkane_to_smiles(g: Graph) -> str:
    """Canonical SMILES of a molecular tree: rooted at the centroid
    (picking the lexicographically larger orientation for centroid
    pairs), children emitted in decreasing canonical order.  Isomorphic
    trees serialize identically."""
    if not is_molecular_tree(g):
        raise ValueError("not a molecular tree")
    root = max(_centroid_candidates(g),
               key=lambda v: _canonical_key(g, v, -1))

    def emit(v: int, parent: int) -> str:
        children = sorted((u for u in g.adjacency[v] if u != parent),
                          key=lambda u: _canonical_key(g, u, v), reverse=True)
        parts = [f"({emit(u, v)})" for u in children[:-1]]
        if children:
            parts.append(emit(children[-1], v))
        return "C" + "".join(parts)

    return emit(root, -1)


@dataclass(frozen=True)
class MoleculeRecord:
    """A named molecule with its SMILES string and property values."""

    name: str
    smiles: str
    properties: dict[str, float]

    def graph(self) -> Graph:
        try:
            return parse_alkane_smiles(self.smiles)
        except SmilesError as exc:
            raise SmilesError(exc.message, exc.position, self.name) from None


class DatasetError(ValueError):
    """Malformed molecule dataset file."""


def load_dataset(path: Union[str, Path]) -> list[MoleculeRecord]:
    """Load a molecule dataset from a comma-separated file whose header
    is ``name,smiles,<property>...``.  Empty cells mean the property is
    absent for that molecule; non-finite values (nan, inf) and repeated
    column names are errors.  SMILES are parsed later, by
    ``MoleculeRecord.graph``."""
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise DatasetError(f"cannot read dataset {path}: {exc}") from exc
    reader = csv.reader(text.splitlines())
    # (file line, cells) of the non-blank rows, so messages name file lines
    rows = [(reader.line_num, row) for row in reader
            if row and any(cell.strip() for cell in row)]
    if not rows:
        raise DatasetError(f"{path}: empty dataset file")
    header_line, header = rows[0][0], [cell.strip() for cell in rows[0][1]]
    if header[:2] != ["name", "smiles"]:
        raise DatasetError(f'{path}: header must start with "name,smiles"')
    for column in header:
        if header.count(column) > 1:
            raise DatasetError(f"{path}: row {header_line} (header) repeats "
                               f"column {column!r}")
    property_names = header[2:]
    records: list[MoleculeRecord] = []
    seen: set[str] = set()
    for lineno, row in rows[1:]:
        if len(row) != len(header):
            raise DatasetError(f"{path}: row {lineno} has {len(row)} cells, "
                               f"expected {len(header)}")
        name = row[0].strip()
        if not name:
            raise DatasetError(f"{path}: row {lineno} has an empty name")
        if name in seen:
            raise DatasetError(f"{path}: row {lineno}: duplicate molecule "
                               f"name {name!r}")
        seen.add(name)
        smiles = row[1].strip()
        properties: dict[str, float] = {}
        for column, cell in zip(property_names, row[2:]):
            cell = cell.strip()
            if not cell:
                continue
            try:
                value = float(cell)
            except ValueError:
                raise DatasetError(
                    f"{path}: row {lineno} ({name}), column {column!r}: "
                    f"non-numeric value {cell!r}") from None
            if not math.isfinite(value):
                raise DatasetError(
                    f"{path}: row {lineno} ({name}), column {column!r}: "
                    f"non-finite value {cell!r}")
            properties[column] = value
        records.append(MoleculeRecord(name=name, smiles=smiles,
                                      properties=properties))
    return records


def so2_table(records: Iterable[MoleculeRecord]) -> list[tuple[str, Fraction]]:
    """Exact second Sombor index of each molecule, in input order."""
    out = []
    for record in records:
        value = so2(record.graph()).exact
        assert value is not None
        out.append((record.name, value))
    return out


def octane_dataset_path() -> Path:
    """Path of the packaged 18-octane-isomer dataset."""
    return Path(__file__).parent / "data" / "octane_isomers.csv"
