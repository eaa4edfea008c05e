"""Extremal trees for the second Sombor index.

Closed forms: among all trees on n >= 3 vertices, so2 is minimized
exactly by the path (value 6/5) and maximized exactly by the star
(value (n^2-2n)(n-1) / (n^2-2n+2)).  Among molecular trees the maximum
depends on n mod 4 and is attained by four structural families, one per
residue class.  This module builds canonical members of those families,
tests membership, evaluates the closed-form bounds, carries the linear
system tying the edge-type counts m_ij of a molecular tree together,
and cross-checks all of it against exhaustive enumeration.  The
cross-check makes one pass over the free trees of each order, with so2
evaluated exactly on the enumerator's canonical shapes; only the trees
attaining an extreme are built as graphs and tested for membership.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple, Optional

from .graphs import Graph, EdgeTypeProfile, degrees, edge_type_counts, \
    is_molecular_tree
# argmax_so2 and argmin_so2 stay importable from this module
from .enumeration import argmax_so2, argmin_so2, so2_extremes  # noqa: F401


def build_path(n: int) -> Graph:
    """Path on n >= 1 vertices."""
    if n < 1:
        raise ValueError("path needs at least one vertex")
    return Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])


def build_star(n: int) -> Graph:
    """Star on n >= 2 vertices (center 0)."""
    if n < 2:
        raise ValueError("star needs at least two vertices")
    return Graph.from_edges(n, [(0, i) for i in range(1, n)])


class InconsistentProfileError(ValueError):
    """The edge-type profile cannot come from a molecular tree."""


@dataclass(frozen=True)
class FamilySignature:
    """Edge-type signature of one extremal family of molecular trees.

    Every m_ij prescribed by the family has the form (a*n + b) / 2; all
    other edge types are absent.  A signature is realizable only when
    n is congruent to ``residue`` mod 4 and n >= ``min_n``.
    """

    residue: int
    min_n: int
    coeffs: tuple[tuple[tuple[int, int], int, int], ...]  # ((i,j), a, b)

    def mij(self, n: int) -> dict[tuple[int, int], int]:
        """Required edge-type counts at vertex count n.

        Raises ``ValueError`` when n has the wrong residue or any count
        would be negative or fractional.
        """
        if n % 4 != self.residue:
            raise ValueError(f"family {self.residue} needs n == {self.residue} (mod 4)")
        out = {}
        for key, a, b in self.coeffs:
            value = a * n + b
            if value % 2 != 0 or value < 0:
                raise ValueError(f"family {self.residue} signature infeasible at n={n}")
            out[key] = value // 2
        return out


FAMILIES: tuple[FamilySignature, ...] = (
    FamilySignature(0, 12, (((1, 4), 1, 4), ((2, 4), 1, -8), ((4, 4), 0, 2))),
    FamilySignature(1, 5, (((1, 4), 1, 3), ((2, 4), 1, -5))),
    FamilySignature(2, 6, (((1, 4), 1, 0), ((2, 4), 1, -4), ((1, 2), 0, 2))),
    FamilySignature(3, 7, (((1, 4), 1, -1), ((2, 4), 1, -7),
                           ((1, 3), 0, 4), ((3, 4), 0, 2))),
)


def _caterpillar(spine: list[int]) -> Graph:
    """Tree with the given spine degree sequence: spine vertices form a
    path and each receives pendant leaves up to its target degree."""
    edges = [(i, i + 1) for i in range(len(spine) - 1)]
    nxt = len(spine)
    for i, target in enumerate(spine):
        path_neighbors = (1 if len(spine) > 1 else 0) + (1 if 0 < i < len(spine) - 1 else 0)
        if target < path_neighbors:
            raise ValueError("spine degree below path degree")
        for _ in range(target - path_neighbors):
            edges.append((i, nxt))
            nxt += 1
    return Graph.from_edges(nxt, edges)


def build_family_member(residue: int, n: int) -> Graph:
    """Canonical member of the extremal family for ``n % 4 == residue``:
    a caterpillar whose spine alternates degree-4 and degree-2 vertices,
    with the family's special vertices at one end."""
    if residue not in (0, 1, 2, 3):
        raise ValueError("residue must be 0, 1, 2 or 3")
    sig = FAMILIES[residue]
    if n % 4 != residue:
        raise ValueError(f"family {residue} needs n == {residue} (mod 4), got n={n}")
    if n < sig.min_n:
        raise ValueError(f"family {residue} needs n >= {sig.min_n}, got n={n}")
    if residue == 0:
        k4 = n // 4
        spine = [4, 4] + [2, 4] * (k4 - 2)
    elif residue == 1:
        k4 = (n - 1) // 4
        spine = [4] + [2, 4] * (k4 - 1)
    elif residue == 2:
        k4 = (n - 2) // 4
        spine = [4] + [2, 4] * (k4 - 1) + [2]
    else:
        k4 = (n - 3) // 4
        spine = [3] + [4, 2] * (k4 - 1) + [4]
    g = _caterpillar(spine)
    assert g.n == n
    return g


def is_in_family(g: Graph, residue: int) -> bool:
    """Membership in the extremal family for the given residue class.

    Checks the defining degree-class adjacency conditions together with
    the exact edge-type signature; vacuous degenerate trees (too small
    to carry the signature) are excluded by the signature comparison.
    """
    if residue not in (0, 1, 2, 3):
        raise ValueError("residue must be 0, 1, 2 or 3")
    if not is_molecular_tree(g) or g.n % 4 != residue:
        return False
    sig = FAMILIES[residue]
    try:
        required = sig.mij(g.n)
    except ValueError:
        return False
    # the signature fixes the 4-4 edges too: one in family 0, none elsewhere
    if edge_type_counts(g) != {key: count for key, count in required.items()
                               if count}:
        return False

    deg = degrees(g)
    degree3 = [v for v in range(g.n) if deg[v] == 3]
    if residue == 3:
        if len(degree3) != 1:
            return False
        if sorted(deg[u] for u in g.adjacency[degree3[0]]) != [1, 1, 4]:
            return False
    elif degree3:
        return False

    special_twos = 0
    for v in range(g.n):
        if deg[v] != 2:
            continue
        nbr = sorted(deg[u] for u in g.adjacency[v])
        if nbr == [4, 4]:
            continue
        if residue == 2 and nbr == [1, 4]:
            special_twos += 1
            continue
        return False
    if residue == 2 and special_twos != 1:
        return False
    return True


def tree_so2_bounds(n: int) -> tuple[Fraction, Fraction]:
    """Exact (min, max) of so2 over all trees on n >= 3 vertices:
    6/5 for the path and (n^2-2n)(n-1)/(n^2-2n+2) for the star."""
    if n <= 2:
        raise ValueError("bounds require n >= 3 (so2 of a single edge is 0)")
    q = n * n - 2 * n
    return Fraction(6, 5), Fraction(q * (n - 1), q + 2)


def molecular_so2_max(n: int) -> Fraction:
    """Exact maximum of so2 over molecular trees on n >= 5 vertices,
    by residue class of n mod 4."""
    if n < 5:
        raise ValueError("closed-form molecular maximum requires n >= 5")
    r = n % 4
    if r == 0:
        return Fraction(126 * n - 108, 170)
    if r == 1:
        return Fraction(126 * n - 30, 170)
    if r == 2:
        return Fraction(126 * n - 102, 170)
    return Fraction(315 * n - 281, 425)


class SolvedDegreeSystem(NamedTuple):
    m14: int
    m24: int
    n1: int
    n2: int
    n3: int
    n4: int


def solve_degree_system(profile: EdgeTypeProfile) -> SolvedDegreeSystem:
    """Recover m_14, m_24 and the degree counts n_1..n_4 of a molecular
    tree from its remaining edge-type counts and vertex count.

    The counts of a molecular tree satisfy six independent linear
    relations (vertex count, edge endpoint count, and one incidence
    identity per degree class); solving them for m_14, m_24, n_1..n_4
    gives each as an affine combination of n and the seven counts
    m_12, m_13, m_22, m_23, m_33, m_34, m_44.  Profiles that make any
    solution negative or fractional cannot come from a molecular tree
    and raise ``InconsistentProfileError``.
    """
    for (i, j) in profile.m:
        if not (1 <= i <= 4 and 1 <= j <= 4):
            raise InconsistentProfileError(f"degree pair ({i},{j}) outside 1..4")
    if profile.count(1, 1):
        raise InconsistentProfileError(
            "leaf-leaf edge: the system models molecular trees on >= 3 vertices")
    n = profile.n
    m12 = profile.count(1, 2)
    m13 = profile.count(1, 3)
    m22 = profile.count(2, 2)
    m23 = profile.count(2, 3)
    m33 = profile.count(3, 3)
    m34 = profile.count(3, 4)
    m44 = profile.count(4, 4)
    half = Fraction(1, 2)
    sixth = Fraction(1, 6)
    values = (
        half * (n + 3) - 3 * half * m12 - 7 * sixth * m13 - half * m22
        - sixth * m23 + sixth * m33 + Fraction(m34, 3) + half * m44,
        half * (n - 5) + half * m12 + sixth * m13 - half * m22
        - 5 * sixth * m23 - 7 * sixth * m33 - Fraction(4 * m34, 3) - 3 * half * m44,
        half * (n + 3) - half * m12 - sixth * m13 - half * m22
        - sixth * m23 + sixth * m33 + Fraction(m34, 3) + half * m44,
        Fraction(n - 5, 4) + Fraction(3 * m12, 4) + Fraction(m13, 12)
        + Fraction(3 * m22, 4) + Fraction(m23, 12) - Fraction(7 * m33, 12)
        - Fraction(2 * m34, 3) - Fraction(3 * m44, 4),
        Fraction(m13 + m23 + 2 * m33 + m34, 3),
        Fraction(n - 1, 4) - Fraction(m12, 4) - Fraction(m13, 4)
        - Fraction(m22, 4) - Fraction(m23, 4) - Fraction(m33, 4)
        + Fraction(m44, 4),
    )
    out = []
    for name, value in zip(SolvedDegreeSystem._fields, values):
        if value.denominator != 1 or value < 0:
            raise InconsistentProfileError(
                f"{name} = {value} is not a nonnegative integer")
        out.append(int(value))
    return SolvedDegreeSystem(*out)


# so2 deficit per unit of each edge type, relative to the all-(1,4)/(2,4)
# optimum; obtained by substituting the solved m_14 and m_24 back into
# the per-edge sum.  The m_22 coefficient is 63/85 = 15/34 + 3/10 (one
# m_22 edge displaces half an m_14 edge and half an m_24 edge).
_REDUCTION_PENALTIES = {
    (1, 2): Fraction(36, 85),
    (1, 3): Fraction(11, 85),
    (2, 2): Fraction(63, 85),
    (2, 3): Fraction(58, 221),
    (3, 3): Fraction(47, 85),
    (3, 4): Fraction(96, 425),
    (4, 4): Fraction(39, 85),
}


def so2_via_degree_system(profile: EdgeTypeProfile,
                          n: Optional[int] = None) -> Fraction:
    """so2 of a molecular tree (n >= 3) written as the residue-free
    maximum (126n - 30)/170 minus a penalty per off-optimal edge type.

    Agrees exactly with ``so2_from_profile`` on every molecular-tree
    profile.
    """
    if n is None:
        n = profile.n
    total = Fraction(126 * n - 30, 170)
    for key, penalty in _REDUCTION_PENALTIES.items():
        total -= penalty * profile.count(*key)
    return total


def degree_three_penalty(m13: int, m23: int, m33: int, m34: int) -> Fraction:
    """Total so2 penalty of the edges accounted to a single degree-3
    vertex, for a split (m13, m23, m33, m34) of its three edge slots
    (m13 + m23 + 2*m33 + m34 must equal 3)."""
    if min(m13, m23, m33, m34) < 0:
        raise ValueError("edge counts must be nonnegative")
    if m13 + m23 + 2 * m33 + m34 != 3:
        raise ValueError("split must satisfy m13 + m23 + 2*m33 + m34 == 3")
    split = {(1, 3): m13, (2, 3): m23, (3, 3): m33, (3, 4): m34}
    return sum(_REDUCTION_PENALTIES[key] * count for key, count in split.items())


def degree_three_edge_splits() -> list[tuple[int, int, int, int]]:
    """The candidate splits of one degree-3 vertex's edge slots: all
    nonnegative solutions of m13 + m23 + 2*m33 + m34 == 3 that mix at
    least two edge types.  (A split concentrated in a single type never
    yields the maximum: three leaf edges force the 4-vertex star, and
    the other two single-type splits are dominated in their residue
    classes.)"""
    out = []
    for m13 in range(4):
        for m23 in range(4 - m13):
            for m33 in range(2):
                m34 = 3 - m13 - m23 - 2 * m33
                if m34 < 0:
                    continue
                if sum(1 for x in (m13, m23, m33, m34) if x) >= 2:
                    out.append((m13, m23, m33, m34))
    return sorted(out)


@dataclass(frozen=True)
class BoundCheck:
    """Outcome of one verification item."""

    n: int
    label: str
    passed: bool
    detail: str


@dataclass(frozen=True)
class VerificationReport:
    """Result of pitting the closed forms against full enumeration."""

    n_max: int
    checks: tuple[BoundCheck, ...]

    @property
    def violations(self) -> list[BoundCheck]:
        return [c for c in self.checks if not c.passed]


def _is_path(g: Graph) -> bool:
    if g.n <= 2:
        return g.edge_count == g.n - 1
    counts = sorted(degrees(g))
    return counts[0] == counts[1] == 1 and counts[2:] == [2] * (g.n - 2)


def _is_star(g: Graph) -> bool:
    return g.n >= 2 and sorted(degrees(g))[-1] == g.n - 1 and g.edge_count == g.n - 1


def verify_extremal_bounds(n_max: int) -> VerificationReport:
    """Brute-force check, for every 3 <= n <= n_max, that the closed-form
    extremal values and their attaining trees match exhaustive
    enumeration exactly.  Violations become report entries, not errors.

    Each n takes one pass over the free trees (`so2_extremes`), which
    yields the minimum, the maximum and the molecular maximum together;
    only their attainers are built as graphs and checked structurally.
    """
    checks: list[BoundCheck] = []
    for n in range(3, n_max + 1):
        lower, upper = tree_so2_bounds(n)
        extremes = so2_extremes(n)

        min_value, minimizers = extremes.minimum
        ok = (min_value == lower and len(minimizers) == 1
              and _is_path(minimizers[0]))
        checks.append(BoundCheck(
            n, "tree_min", ok,
            f"min={min_value} expected={lower} attained_by={len(minimizers)}"))

        max_value, maximizers = extremes.maximum
        ok = (max_value == upper and len(maximizers) == 1
              and _is_star(maximizers[0]))
        checks.append(BoundCheck(
            n, "tree_max", ok,
            f"max={max_value} expected={upper} attained_by={len(maximizers)}"))

        if n < 5:
            continue
        expected = molecular_so2_max(n)
        mol_value, mol_maximizers = extremes.molecular_maximum
        checks.append(BoundCheck(
            n, "molecular_max", mol_value == expected,
            f"max={mol_value} expected={expected} attained_by={len(mol_maximizers)}"))
        residue = n % 4
        in_family = [is_in_family(g, residue) for g in mol_maximizers]
        detail = (f"{sum(in_family)}/{len(in_family)} maximizers in family "
                  f"{residue}")
        if n < FAMILIES[residue].min_n:
            detail += (" (degenerate: below the canonical-constructor minimum "
                       f"n={FAMILIES[residue].min_n}; maximizer set reported as found)")
        checks.append(BoundCheck(n, "molecular_max_family", all(in_family), detail))
    return VerificationReport(n_max=n_max, checks=tuple(checks))
