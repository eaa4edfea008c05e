"""Vertex-degree-based topological indices.

The second Sombor index is the headline quantity:

    so2(G) = sum over edges uv of |d(u)^2 - d(v)^2| / (d(u)^2 + d(v)^2)

Every index in ``KERNELS`` is a sum over i <= j of m_ij * F(i, j), where
m_ij counts the edges joining degrees i and j (``edge_type_counts``);
one sum evaluates them all.  Rational kernels (SO2, M1, M2, F, SDD) are
exact ``Fraction``s, so ties between trees are exact equalities; the
irrational ones (SO, R, SCI) are ``math.fsum`` floats.  ``index_by_name``
evaluates any of ``INDEX_NAMES`` (the kernels, then neighborhood Zagreb).

The m_ij are counted once per ``Graph`` and kept on it, so evaluating
several indices of one graph walks its edges once; each term F(i, j) is
evaluated once per kernel function and degree pair.  The public
``edge_type_counts`` still returns a fresh dict per call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from typing import Callable, Optional

from .graphs import Graph, EdgeTypeProfile, degrees


@dataclass(frozen=True)
class IndexValue:
    """An index value: always a float, plus the exact rational when the
    defining kernel is rational-valued."""

    approx: float
    exact: Optional[Fraction] = None

    def __post_init__(self) -> None:
        if self.exact is not None and self.approx != float(self.exact):
            raise ValueError("approx must be the double rounding of exact")


@dataclass(frozen=True)
class VdbKernel:
    """A symmetric edge kernel F(x, y) on positive integer degrees.

    ``exact`` is present only for rational-valued kernels; ``approx``
    is always usable.
    """

    name: str
    approx: Callable[[int, int], float]
    exact: Optional[Callable[[int, int], Fraction]] = None


def _so2_term(x: int, y: int) -> Fraction:
    return Fraction(abs(x * x - y * y), x * x + y * y)


KERNELS: dict[str, VdbKernel] = {
    "so2": VdbKernel("so2", lambda x, y: float(_so2_term(x, y)), _so2_term),
    "so": VdbKernel("so", lambda x, y: math.sqrt(x * x + y * y)),
    "m1": VdbKernel("m1", lambda x, y: float(x + y),
                    lambda x, y: Fraction(x + y)),
    "m2": VdbKernel("m2", lambda x, y: float(x * y),
                    lambda x, y: Fraction(x * y)),
    "f": VdbKernel("f", lambda x, y: float(x * x + y * y),
                   lambda x, y: Fraction(x * x + y * y)),
    "r": VdbKernel("r", lambda x, y: 1.0 / math.sqrt(x * y)),
    "sci": VdbKernel("sci", lambda x, y: 1.0 / math.sqrt(x + y)),
    "sdd": VdbKernel("sdd", lambda x, y: x / y + y / x,
                     lambda x, y: Fraction(x * x + y * y, x * y)),
}


INDEX_NAMES = (*KERNELS, "mn")


@cache
def _term(f: Callable[[int, int], float | Fraction], i: int,
          j: int) -> float | Fraction:
    """F(i, j) for one kernel function, evaluated once per degree pair
    (functions hash by identity, so each kernel has its own terms)."""
    return f(i, j)


def _kernel_sum(m: dict[tuple[int, int], int], kernel: VdbKernel) -> IndexValue:
    """Sum of m_ij * F(i, j) over the nonzero edge-type counts ``m``: exact
    for a rational kernel, ``math.fsum`` of the float terms otherwise."""
    if kernel.exact is None:
        return IndexValue(approx=math.fsum(
            count * _term(kernel.approx, i, j)
            for (i, j), count in m.items() if count))
    terms = [(count, _term(kernel.exact, i, j))
             for (i, j), count in m.items() if count]
    # integer numerators over the lcm denominator: one normalisation
    den = math.lcm(*(term.denominator for _, term in terms))
    total = Fraction(sum(count * term.numerator * (den // term.denominator)
                         for count, term in terms), den)
    return IndexValue(approx=float(total), exact=total)


def so2(g: Graph) -> IndexValue:
    """Second Sombor index, exact.  Zero for edgeless graphs."""
    return _kernel_sum(g._edge_types, KERNELS["so2"])


def so2_from_profile(profile: EdgeTypeProfile) -> Fraction:
    """Second Sombor index evaluated from edge-type counts alone:
    sum of m_ij * |i^2 - j^2| / (i^2 + j^2)."""
    return _kernel_sum(profile.m, KERNELS["so2"]).exact


def vdb_index(g: Graph, kernel: VdbKernel) -> IndexValue:
    """Generic vertex-degree-based index: sum of the kernel over edges."""
    return _kernel_sum(g._edge_types, kernel)


def neighborhood_zagreb(g: Graph) -> IndexValue:
    """Neighborhood Zagreb index: sum over vertices of the squared sum
    of neighbor degrees."""
    deg = degrees(g)
    total = 0
    for v in range(g.n):
        s = sum(deg[u] for u in g.adjacency[v])
        total += s * s
    return IndexValue(approx=float(total), exact=Fraction(total))


def index_by_name(g: Graph, name: str) -> IndexValue:
    """Evaluate the index called ``name``, one of ``INDEX_NAMES``."""
    if name in KERNELS:
        return vdb_index(g, KERNELS[name])
    if name == "mn":
        return neighborhood_zagreb(g)
    raise ValueError(f"unknown index {name!r}; expected one of "
                     f"{', '.join(INDEX_NAMES)}")


def so2_upper_bound(m: int, min_degree: int, max_degree: int) -> Fraction:
    """Degree-ratio upper bound m * (D^2 - d^2) / (D^2 + d^2) on so2 for a
    graph with m edges, minimum degree d >= 1 and maximum degree D.

    The bound is 0 exactly when d == D, matching the fact that so2
    vanishes precisely on graphs whose components are all regular.
    """
    if min_degree < 1:
        raise ValueError("minimum degree must be at least 1")
    if max_degree < min_degree:
        raise ValueError("maximum degree below minimum degree")
    if m < 0:
        raise ValueError("edge count must be nonnegative")
    d2 = min_degree * min_degree
    g2 = max_degree * max_degree
    return Fraction(m * (g2 - d2), g2 + d2)
