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
from functools import cache
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

    Requires at least two points, a non-constant predictor and a
    non-constant response: the correlation is undefined otherwise.
    Data whose sums are not finite (a NaN, an infinity, or values so
    large that a sum overflows) and a line that overflows raise
    ``ValueError`` too, so every field of a fit is finite.
    """
    if len(xs) != len(ys):
        raise ValueError(f"length mismatch: {len(xs)} xs vs {len(ys)} ys")
    n = len(xs)
    if n < 2:
        raise ValueError("need at least two points")
    try:
        mean_x = math.fsum(xs) / n
        mean_y = math.fsum(ys) / n
        sxx = math.fsum((x - mean_x) ** 2 for x in xs)
        sxy = math.fsum((x - mean_x) * (y - mean_y) for x, y in zip(xs, ys))
        syy = math.fsum((y - mean_y) ** 2 for y in ys)
    except (OverflowError, ValueError):  # fsum overflows, or meets inf - inf
        sxx = sxy = syy = math.nan
    if not all(map(math.isfinite, (sxx, sxy, syy))):
        raise ValueError("a sum of the data is not finite (a NaN, an "
                         "infinity or an overflow)")
    if sxx == 0.0:
        raise ValueError("predictor is constant")
    if syy == 0.0:
        raise ValueError("response is constant")
    slope = sxy / sxx
    intercept = mean_y - slope * mean_x
    if not math.isfinite(intercept):  # so the slope is finite too
        raise ValueError("the fitted line overflows")
    # the product of the sums may overflow or underflow where the
    # quotients do not
    r_squared = (sxy * sxy / (sxx * syy) if 0.0 < sxx * syy < math.inf
                 else slope * (sxy / syy))
    return RegressionFit(slope=slope, intercept=intercept,
                         r_squared=min(r_squared, 1.0), sample_size=n)


def index_value(g: Graph, name: str) -> float:
    """Evaluate a named index (any edge kernel, or "mn") as a float."""
    return index_by_name(g, name).approx


def _target_values(records: Sequence[MoleculeRecord], target: str,
                   graphs: Sequence[Graph]) -> list[float]:
    if target in INDEX_NAMES:
        return [index_value(g, target) for g in graphs]
    if records and not any(target in record.properties
                           for record in records):
        names = dict.fromkeys(name for record in records
                              for name in record.properties)
        raise ValueError(f"every molecule lacks property {target!r}; the "
                         f"dataset's properties are: "
                         f"{', '.join(names) or 'none'}")
    out = []
    for record in records:
        if target not in record.properties:
            raise ValueError(f"molecule {record.name!r} lacks property "
                             f"{target!r}")
        out.append(record.properties[target])
    return out


def _fit(xs: Sequence[float], ys: Sequence[float], index_name: str,
         target: str) -> RegressionFit:
    """`linear_fit`, its errors prefixed with what was fitted."""
    try:
        return linear_fit(xs, ys)
    except ValueError as exc:
        raise ValueError(f"{index_name} against {target!r}: {exc}") from None


def correlation_grid(records: Sequence[MoleculeRecord],
                     index_list: Iterable[str],
                     target_list: Iterable[str]) -> dict[tuple[str, str], float]:
    """Squared correlation for each (index, target) pair over the record
    set.  Targets may be property names or other index names."""
    records = list(records)
    graphs = [record.graph() for record in records]

    @cache  # one evaluation per distinct index name
    def index_column(name: str) -> list[float]:
        return [index_value(g, name) for g in graphs]

    targets = [(target, index_column(target) if target in INDEX_NAMES
                else _target_values(records, target, graphs))
               for target in target_list]
    grid: dict[tuple[str, str], float] = {}
    for index_name in index_list:
        xs = index_column(index_name)
        for target, ys in targets:
            grid[(index_name, target)] = _fit(xs, ys, index_name,
                                              target).r_squared
    return grid


def fit_property(records: Sequence[MoleculeRecord], index_name: str,
                 property_name: str) -> tuple[RegressionFit, list[tuple[str, float, float]]]:
    """Fit one property against one index; also return the per-molecule
    (name, x, y) points used."""
    records = list(records)
    graphs = [record.graph() for record in records]
    xs = [index_value(g, index_name) for g in graphs]
    ys = _target_values(records, property_name, graphs)
    fit = _fit(xs, ys, index_name, property_name)
    points = [(record.name, x, y) for record, x, y in zip(records, xs, ys)]
    return fit, points
