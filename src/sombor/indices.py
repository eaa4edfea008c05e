"""Vertex-degree-based topological indices.

The second Sombor index is the headline quantity:

    so2(G) = sum over edges uv of |d(u)^2 - d(v)^2| / (d(u)^2 + d(v)^2)

Every index in ``KERNELS`` is a sum over i <= j of m_ij * F(i, j), where
m_ij counts the edges joining degrees i and j (``edge_type_counts``);
one sum evaluates them all.  Exact kernels (SO2, M1, M2, F, SDD) return
``Fraction``s, so ties between trees are exact equalities; the others
(SO, R, SCI) are ``math.fsum`` floats.  A kernel whose exact term is
neither an ``int`` nor a ``Fraction``, or whose float sum is not
finite, raises ``ValueError`` naming it.  ``index_by_name`` evaluates any
of ``INDEX_NAMES`` (the kernels, then neighborhood Zagreb).

The m_ij are counted once per ``Graph`` and kept on it, so evaluating
several indices of one graph walks its edges once; each kernel keeps its
own memo of F(i, j), one entry per degree pair, and an exact sum is one
integer numerator over the running lcm of the terms' denominators.  The
public ``edge_type_counts`` still returns a fresh dict per call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache
from typing import Callable, Optional

from .graphs import Graph, EdgeTypeProfile


@dataclass(frozen=True)
class IndexValue:
    """An index value: always a float, plus the exact rational when the
    defining kernel is exact."""

    approx: float
    exact: Optional[Fraction] = None

    def __post_init__(self) -> None:
        if self.exact is not None and self.approx != float(self.exact):
            raise ValueError("approx must be the double rounding of exact")


@dataclass(frozen=True)
class VdbKernel:
    """A symmetric edge kernel F(x, y) on positive integer degrees:
    ``term`` returns a ``Fraction`` if ``exact``, else a float.  Calling
    the kernel evaluates ``term`` once per degree pair, into a memo that
    is freed with the kernel; an exact kernel also memoises each term's
    (numerator, denominator), which is what sums read."""

    name: str
    term: Callable[[int, int], float | Fraction]
    exact: bool = False
    _memo: Callable[[int, int], float | Fraction] = field(
        init=False, repr=False, compare=False)
    _ratio: Optional[Callable[[int, int], tuple[int, int]]] = field(
        init=False, repr=False, compare=False, default=None)

    def __post_init__(self) -> None:
        memo = cache(self.term)
        object.__setattr__(self, "_memo", memo)
        if self.exact:
            def ratio(x: int, y: int) -> tuple[int, int]:
                value = memo(x, y)
                if not isinstance(value, (int, Fraction)):
                    raise ValueError(
                        f"exact kernel {self.name!r}: F({x}, {y}) = "
                        f"{value!r} is neither an int nor a Fraction")
                return value.numerator, value.denominator
            object.__setattr__(self, "_ratio", cache(ratio))

    def __call__(self, x: int, y: int) -> float | Fraction:
        return self._memo(x, y)


def _so2_term(x: int, y: int) -> Fraction:
    """The so2 term; the enumerator and the upper bound read it too."""
    return Fraction(abs(x * x - y * y), x * x + y * y)


KERNELS: dict[str, VdbKernel] = {kernel.name: kernel for kernel in (
    VdbKernel("so2", _so2_term, exact=True),
    VdbKernel("so", lambda x, y: math.sqrt(x * x + y * y)),
    VdbKernel("m1", lambda x, y: Fraction(x + y), exact=True),
    VdbKernel("m2", lambda x, y: Fraction(x * y), exact=True),
    VdbKernel("f", lambda x, y: Fraction(x * x + y * y), exact=True),
    VdbKernel("r", lambda x, y: 1.0 / math.sqrt(x * y)),
    VdbKernel("sci", lambda x, y: 1.0 / math.sqrt(x + y)),
    VdbKernel("sdd", lambda x, y: Fraction(x * x + y * y, x * y), exact=True),
)}


INDEX_NAMES = (*KERNELS, "mn")


def _kernel_sum(m: dict[tuple[int, int], int], kernel: VdbKernel) -> IndexValue:
    """Sum of m_ij * F(i, j) over the nonzero edge-type counts ``m``: exact
    for an exact kernel, ``math.fsum`` of the float terms otherwise."""
    if not kernel.exact:
        term = kernel._memo  # the memo itself: no Python-level call per term
        terms = [count * term(i, j) for (i, j), count in m.items() if count]
        try:
            total = math.fsum(terms)
        except (OverflowError, ValueError):  # an overflow, or inf - inf
            total = math.nan
        if not math.isfinite(total):
            raise ValueError(f"kernel {kernel.name!r}: the sum of its terms "
                             f"is not finite")
        return IndexValue(approx=total)
    ratio = kernel._ratio
    # one integer numerator over the running lcm of the denominators
    num, den = 0, 1
    for (i, j), count in m.items():
        if count:
            a, b = ratio(i, j)
            if den % b:
                scale = b // math.gcd(den, b)
                num *= scale
                den *= scale
            num += count * a * (den // b)
    total = Fraction(num, den)
    # the correctly rounded quotient, as float(total) computes it
    return IndexValue(approx=total.numerator / total.denominator, exact=total)


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
    rows = g.adjacency
    total = 0
    for nbrs in rows:
        s = 0
        for u in nbrs:
            s += len(rows[u])  # the degree of u
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
    # the term itself, not the kernel's memo: arbitrary degrees would
    # grow that memo without bound
    return m * _so2_term(min_degree, max_degree)
