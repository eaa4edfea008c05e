"""Acyclic-alkane SMILES parsing and the octane-isomer dataset.

Only the hydrogen-suppressed carbon-skeleton subset of SMILES is
accepted: atoms are the single letter ``C``, branches use parentheses,
bonds are implicit single bonds.  That is exactly what is needed to
name alkane isomers; anything else (rings, aromatics, heteroatoms,
charges) is a parse error with the offending position.  Canonical
SMILES are written from the enumerator's canonical shape
(``enumeration.canonical_shape``), the one canonical form of a tree.
"""

from __future__ import annotations

import codecs
import csv
import math
import re
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from pathlib import Path
from typing import Iterable, Optional, Union

from .enumeration import Shape, canonical_shape
from .graphs import MOLECULAR_MAX_DEGREE, Graph, decode_utf8
from .indices import INDEX_NAMES, so2


# a property cell: an optional sign and ASCII digits with an optional
# point and exponent, or the nan and infinity that ``float`` reads too,
# which are refused as non-finite
_NUMBER = re.compile(r"[+-]?(?:(?:[0-9]+\.?[0-9]*|\.[0-9]+)(?:e[+-]?[0-9]+)?"
                     r"|nan|inf(?:inity)?)", re.ASCII | re.IGNORECASE)


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

    Vertices are numbered in token order, so the neighbour lists come out
    sorted and go to ``Graph`` as built.  Exceeding four bonds on any
    carbon is an error, so every parse result is a molecular tree.
    """
    if not s:
        raise SmilesError("empty SMILES string", 0)
    nbrs: list[list[int]] = []
    stack: list[int] = []
    current = -1  # no atom seen yet
    for pos, ch in enumerate(s):
        if ch == "C":
            atom = len(nbrs)
            nbrs.append([])
            if current >= 0:
                if len(nbrs[current]) >= MOLECULAR_MAX_DEGREE:
                    raise SmilesError(
                        f"carbon valence exceeds {MOLECULAR_MAX_DEGREE}", pos)
                nbrs[current].append(atom)
                nbrs[atom].append(current)
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
    return Graph(len(nbrs), tuple(map(tuple, nbrs)))


def alkane_to_smiles(g: Graph) -> str:
    """Canonical SMILES of a molecular tree, written from its
    ``canonical_shape``: the centroid first, each atom's branches in the
    shape's order, the last one unparenthesized.  Isomorphic trees
    serialize identically."""
    if max(map(len, g.adjacency)) > MOLECULAR_MAX_DEGREE:
        raise ValueError("not a molecular tree")
    try:
        shape = canonical_shape(g)
    except ValueError:  # not a tree
        raise ValueError("not a molecular tree") from None
    out: list[str] = []
    _write(shape, out)
    return "".join(out)


def _write(shape: Shape, out: list[str]) -> None:
    out.append("C")
    for child in shape[:-1]:
        out.append("(")
        _write(child, out)
        out.append(")")
    if shape:
        _write(shape[-1], out)


@dataclass(frozen=True)
class MoleculeRecord:
    """A named molecule with its SMILES string and property values."""

    name: str
    smiles: str
    properties: dict[str, float]

    def graph(self) -> Graph:
        """The molecule's tree, parsed from its SMILES on the first call
        only (a failed parse is not kept: each call raises)."""
        return self._graph

    @cached_property
    def _graph(self) -> Graph:
        try:
            return parse_alkane_smiles(self.smiles)
        except SmilesError as exc:
            raise SmilesError(exc.message, exc.position, self.name) from None


class DatasetError(ValueError):
    """Malformed molecule dataset file."""


def load_dataset(path: Union[str, Path]) -> list[MoleculeRecord]:
    """Load a molecule dataset from a comma-separated file whose header
    is ``name,smiles,<property>...``, with or without a UTF-8 byte-order
    mark.  Empty cells mean the property is absent for that molecule;
    non-finite values (nan, inf), repeated column names and property
    names that are empty or an index name (which ``qspr`` would read as
    that index) are errors.  SMILES are parsed later, once per record,
    on its first ``MoleculeRecord.graph`` call."""
    path = Path(path)
    try:
        data = path.read_bytes()
    except OSError as exc:
        raise DatasetError(f"cannot read dataset {path}: {exc}") from exc
    bom = len(codecs.BOM_UTF8) if data.startswith(codecs.BOM_UTF8) else 0
    try:
        text = decode_utf8(data, bom)
    except ValueError as exc:
        raise DatasetError(f"{path}: {exc}") from None
    # lines end at "\n" only, as decode_utf8 counts them
    reader = csv.reader(text.split("\n"))
    # (file line, cells) of the non-blank rows, so messages name file lines
    try:
        rows = [(reader.line_num, row) for row in reader
                if row and any(cell.strip() for cell in row)]
    except csv.Error as exc:  # e.g. a carriage return inside a cell
        reason = str(exc).partition(" - ")[0]  # less the module's file hint
        raise DatasetError(f"{path}: row {reader.line_num}: {reason}") from None
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
    for column in property_names:
        if not column or column in INDEX_NAMES:
            raise DatasetError(
                f"{path}: row {header_line} (header), column {column!r}: "
                f"a property name may not be empty or an index name")
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
            if not _NUMBER.fullmatch(cell):
                raise DatasetError(
                    f"{path}: row {lineno} ({name}), column {column!r}: "
                    f"non-numeric value {cell!r}")
            value = float(cell)
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
