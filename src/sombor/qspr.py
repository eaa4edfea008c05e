"""Simple linear regression of molecular properties against indices.

Index values are exact rationals upstream; they are converted to
double precision here because the property data carries only a few
significant digits.  ``r_squared`` is the squared sample correlation
(the proportion of variance explained), so a reported correlation
magnitude corresponds to its square root.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

from .chem import MoleculeRecord
from .graphs import Graph
from .indices import INDEX_NAMES, index_by_name
# kept importable here: perfbench's traced run patches them on this module
from .indices import neighborhood_zagreb, so2, vdb_index  # noqa: F401


@dataclass(frozen=True)
class RegressionFit:
    """Ordinary least-squares fit of y against x."""

    slope: float
    intercept: float
    r_squared: float
    sample_size: int

    def predict(self, x: float) -> float:
        return self.intercept + self.slope * x


def linear_fit(xs: Sequence[float], ys: Sequence[float]) -> RegressionFit:
    """Least-squares line through (xs, ys) with the squared correlation.

    Requires at least two points and a non-constant predictor.
    """
    if len(xs) != len(ys):
        raise ValueError(f"length mismatch: {len(xs)} xs vs {len(ys)} ys")
    n = len(xs)
    if n < 2:
        raise ValueError("need at least two points")
    mean_x = math.fsum(xs) / n
    mean_y = math.fsum(ys) / n
    sxx = math.fsum((x - mean_x) ** 2 for x in xs)
    if sxx == 0.0:
        raise ValueError("predictor is constant")
    sxy = math.fsum((x - mean_x) * (y - mean_y) for x, y in zip(xs, ys))
    syy = math.fsum((y - mean_y) ** 2 for y in ys)
    slope = sxy / sxx
    r_squared = 1.0 if syy == 0.0 else min(sxy * sxy / (sxx * syy), 1.0)
    return RegressionFit(slope=slope, intercept=mean_y - slope * mean_x,
                         r_squared=r_squared, sample_size=n)


def index_value(g: Graph, name: str) -> float:
    """Evaluate a named index (any edge kernel, or "mn") as a float."""
    return index_by_name(g, name).approx


def _target_values(records: Sequence[MoleculeRecord], target: str,
                   graphs: Sequence[Graph]) -> list[float]:
    if target in INDEX_NAMES:
        return [index_value(g, target) for g in graphs]
    out = []
    for record in records:
        if target not in record.properties:
            raise ValueError(f"molecule {record.name!r} lacks property "
                             f"{target!r}")
        out.append(record.properties[target])
    return out


def correlation_grid(records: Sequence[MoleculeRecord],
                     index_list: Iterable[str],
                     target_list: Iterable[str]) -> dict[tuple[str, str], float]:
    """Squared correlation for each (index, target) pair over the record
    set.  Targets may be property names or other index names."""
    records = list(records)
    graphs = [record.graph() for record in records]
    targets = [(target, _target_values(records, target, graphs))
               for target in target_list]
    grid: dict[tuple[str, str], float] = {}
    for index_name in index_list:
        xs = [index_value(g, index_name) for g in graphs]
        for target, ys in targets:
            grid[(index_name, target)] = linear_fit(xs, ys).r_squared
    return grid


def fit_property(records: Sequence[MoleculeRecord], index_name: str,
                 property_name: str) -> tuple[RegressionFit, list[tuple[str, float, float]]]:
    """Fit one property against one index; also return the per-molecule
    (name, x, y) points used."""
    records = list(records)
    graphs = [record.graph() for record in records]
    xs = [index_value(g, index_name) for g in graphs]
    ys = _target_values(records, property_name, graphs)
    fit = linear_fit(xs, ys)
    points = [(record.name, x, y) for record, x, y in zip(records, xs, ys)]
    return fit, points
