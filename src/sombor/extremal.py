"""Extremal trees for the second Sombor index.

Each extremal result is one edge-type signature: counts m_ij of the
edges joining degrees i and j, which fix so2 = sum of m_ij*F(i, j).
Among all trees on n >= 3 vertices, so2 is minimized exactly by the path
(m_12 = 2, m_22 = n - 3; value 6/5) and maximized exactly by the star
(m_1,n-1 = n - 1; value (n^2-2n)(n-1) / (n^2-2n+2)).  Among molecular
trees the maximum depends on n mod 4 and is attained by four families,
one per residue class, given by their signatures in ``FAMILIES``.  Each
closed form is the sum over its signature, and membership is a
comparison of edge-type counts with it.  This module also builds
canonical family members and solves the six counting identities of a
molecular tree; it checks that a profile has n - 1 edges and no
isolated vertex, and the solution is then the profile's own counts.
It cross-checks everything against exhaustive enumeration: one pass
over the free trees of each order, with so2 evaluated exactly on
canonical shapes and only the attainers built as graphs.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

from .graphs import Graph, EdgeTypeProfile, is_tree
from .indices import KERNELS, _kernel_sum
# argmax_so2 and argmin_so2 stay importable from this module
from .enumeration import _check_n, argmax_so2, argmin_so2, so2_extremes  # noqa: F401

EdgeCounts = dict[tuple[int, int], int]


def _so2(m: EdgeCounts) -> Fraction:
    """so2 of the edge-type counts m: the sum of m_ij * F(i, j)."""
    return _kernel_sum(m, KERNELS["so2"]).exact


def _has_signature(g: Graph, m: EdgeCounts) -> bool:
    """True iff g is a tree whose edge-type counts are exactly m (zero
    counts in m stand for absent edge types)."""
    return is_tree(g) and g._edge_types == {
        key: count for key, count in m.items() if count}


def _tree_signatures(n: int) -> tuple[EdgeCounts, EdgeCounts]:
    """Edge-type signatures of the path and the star on n >= 3 vertices."""
    return {(1, 2): 2, (2, 2): n - 3}, {(1, n - 1): n - 1}


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
    other edge types are absent.  The signature applies only when n is
    congruent to ``residue`` mod 4.  ``min_n`` is the smallest such n
    from which ``build_family_member`` builds a member; a smaller tree
    may still carry the signature (family 0's is realized at n = 8 by
    the double star, which ``verify_extremal_bounds`` reports as
    degenerate).
    """

    residue: int
    min_n: int
    coeffs: tuple[tuple[tuple[int, int], int, int], ...]  # ((i,j), a, b)

    def mij(self, n: int) -> EdgeCounts:
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
    path and each receives pendant leaves up to its target degree, which
    is never below its number of path neighbours."""
    edges = [(i, i + 1) for i in range(len(spine) - 1)]
    nxt = len(spine)
    for i, target in enumerate(spine):
        path_neighbors = (1 if len(spine) > 1 else 0) + (1 if 0 < i < len(spine) - 1 else 0)
        for _ in range(target - path_neighbors):
            edges.append((i, nxt))
            nxt += 1
    return Graph.from_edges(nxt, edges)


def build_family_member(residue: int, n: int) -> Graph:
    """Canonical member of the extremal family for ``n % 4 == residue``:
    a caterpillar whose spine alternates degree-4 and degree-2 vertices,
    with the family's special vertices at the ends (4-4 and 3-4 at the
    head in families 0 and 3, a degree-2 tail in family 2), n // 4
    degree-4 vertices in all."""
    if residue not in (0, 1, 2, 3):
        raise ValueError("residue must be 0, 1, 2 or 3")
    sig = FAMILIES[residue]
    if n % 4 != residue:
        raise ValueError(f"family {residue} needs n == {residue} (mod 4), got n={n}")
    if n < sig.min_n:
        raise ValueError(f"family {residue} needs n >= {sig.min_n}, got n={n}")
    head, tail = (([4, 4], []), ([4], []), ([4], [2]), ([3, 4], []))[residue]
    g = _caterpillar(head + [2, 4] * (n // 4 - head.count(4)) + tail)
    assert g.n == n
    return g


def is_in_family(g: Graph, residue: int) -> bool:
    """Membership in the extremal family for the given residue class:
    a tree whose edge-type counts equal the family signature.

    Degenerate trees too small to carry the signature fail the
    comparison.  A signature allows no degree above four, so its trees
    are molecular, and it implies the family's adjacency conditions: the
    only edge types it allows at degree-2 and degree-3 vertices are 2-4,
    family 2's one 1-2 and family 3's two 1-3 and one 3-4.  So family
    3's lone degree-3 vertex has neighbour degrees 1, 1, 4, and every
    degree-2 vertex has neighbour degrees 4, 4, except one with 1, 4 in
    family 2.
    """
    if residue not in (0, 1, 2, 3):
        raise ValueError("residue must be 0, 1, 2 or 3")
    try:
        required = FAMILIES[residue].mij(g.n)
    except ValueError:
        return False
    # the signature fixes the 4-4 edges too: one in family 0, none elsewhere
    return _has_signature(g, required)


def tree_so2_bounds(n: int) -> tuple[Fraction, Fraction]:
    """Exact (min, max) of so2 over all trees on n >= 3 vertices: the so2
    of the path signature, 2*(3/5) + (n-3)*0 = 6/5, and of the star
    signature, (n-1)*((n-1)^2-1)/((n-1)^2+1) = (n^2-2n)(n-1)/(n^2-2n+2)."""
    if n <= 2:
        raise ValueError("bounds require n >= 3 (so2 of a single edge is 0)")
    path, star = _tree_signatures(n)
    return _so2(path), _so2(star)


def molecular_so2_max(n: int) -> Fraction:
    """Exact maximum of so2 over molecular trees on n >= 5 vertices: the
    so2 of the family signature for n mod 4, which is (126n - 108)/170,
    (126n - 30)/170, (126n - 102)/170 or (315n - 281)/425 by residue."""
    if n < 5:
        raise ValueError("closed-form molecular maximum requires n >= 5")
    return _so2(FAMILIES[n % 4].mij(n))


class SolvedDegreeSystem(NamedTuple):
    m14: int
    m24: int
    n1: int
    n2: int
    n3: int
    n4: int


# the edge types whose counts, with n, fix the rest of a molecular tree
_FREE_TYPES = ((1, 2), (1, 3), (2, 2), (2, 3), (3, 3), (3, 4), (4, 4))


def _solve(n: int, m: EdgeCounts) -> tuple[Fraction, ...]:
    """(m14, m24, n1, n2, n3, n4) from n and the counts m of the free
    edge types, one identity at a time; nothing is checked."""
    m12, m13, m22, m23, m33, m34, m44 = (m.get(key, 0) for key in _FREE_TYPES)
    n3 = Fraction(m13 + m23 + 2 * m33 + m34, 3)  # the degree-3 ends
    # the degree-1, -2 and -4 ends give n1 + 2 n2 - 4 n4 = k; the vertex
    # and handshake counts make it 2n - 2 - 3 n3 - 8 n4, with n1 = n3 + 2 n4 + 2
    k = 2 * m12 + m13 + 2 * m22 + m23 - m34 - 2 * m44
    n4 = (2 * n - 2 - 3 * n3 - k) / 8
    n1 = n3 + 2 * n4 + 2
    n2 = n - n1 - n3 - n4
    # the leaf ends and the degree-2 ends left over
    m14 = n1 - m12 - m13
    m24 = 2 * n2 - m12 - 2 * m22 - m23
    return m14, m24, n1, n2, n3, n4


def solve_degree_system(profile: EdgeTypeProfile) -> SolvedDegreeSystem:
    """Recover m_14, m_24 and the degree counts n_1..n_4 of a molecular
    tree from its remaining edge-type counts and vertex count.

    The counts of a molecular tree satisfy six independent linear
    relations: the vertex count, the edge endpoint count, and one
    incidence identity per degree class.  They are solved one at a time
    for n_3, n_4, n_1, n_2, m_14 and m_24, each an affine combination of
    n and the seven counts m_12, m_13, m_22, m_23, m_33, m_34, m_44.

    The system assumes a tree, so the profile must have degrees in 1..4,
    no leaf-leaf edge, no vertex of degree 0 and exactly n - 1 edges;
    any other profile raises ``InconsistentProfileError``.  Then the six
    relations are the profile's own incidence identities and its vertex
    and edge counts, so the solution is the profile's own m_14, m_24
    and n_1..n_4.
    """
    for (i, j) in profile.m:
        if not (1 <= i <= 4 and 1 <= j <= 4):
            raise InconsistentProfileError(f"degree pair ({i},{j}) outside 1..4")
    if profile.count(1, 1):
        raise InconsistentProfileError(
            "leaf-leaf edge: the system models molecular trees on >= 3 vertices")
    if profile.degree_counts.get(0) or profile.edge_count != profile.n - 1:
        raise InconsistentProfileError(
            f"{profile.edge_count} edges on {profile.n} vertices, "
            f"{profile.degree_counts.get(0, 0)} isolated: not a tree on >= 2 vertices")
    return SolvedDegreeSystem(*map(int, _solve(profile.n, profile.m)))


def _so2_eliminated(n: int, m: EdgeCounts) -> Fraction:
    """so2 with m_14 and m_24 solved from n and the free counts in m."""
    free = {key: m.get(key, 0) for key in _FREE_TYPES}
    m14, m24 = _solve(n, free)[:2]
    return _so2({**free, (1, 4): m14, (2, 4): m24})


def so2_via_degree_system(profile: EdgeTypeProfile) -> Fraction:
    """so2 of a molecular tree (n >= 3) with m_14 and m_24 eliminated.

    This is the residue-free maximum (126n - 30)/170 minus a penalty per
    off-optimal edge: 36/85 per 1-2, 11/85 per 1-3, 63/85 per 2-2, 58/221
    per 2-3, 47/85 per 3-3, 96/425 per 3-4 and 39/85 per 4-4.  Agrees
    exactly with ``so2_from_profile`` on every profile that
    ``solve_degree_system`` accepts (degrees in 1..4, no leaf-leaf edge,
    no vertex of degree 0, n - 1 edges), since m_14 and m_24 are then
    the profile's own; any other profile raises the
    ``InconsistentProfileError`` that ``solve_degree_system`` raises.
    """
    solve_degree_system(profile)
    return _so2_eliminated(profile.n, profile.m)


def degree_three_penalty(m13: int, m23: int, m33: int, m34: int) -> Fraction:
    """Total so2 penalty of the edges accounted to a single degree-3
    vertex, for a split (m13, m23, m33, m34) of its three edge slots
    (m13 + m23 + 2*m33 + m34 must equal 3): the so2 it costs against
    a tree of the same order without those edges."""
    if min(m13, m23, m33, m34) < 0:
        raise ValueError("edge counts must be nonnegative")
    if m13 + m23 + 2 * m33 + m34 != 3:
        raise ValueError("split must satisfy m13 + m23 + 2*m33 + m34 == 3")
    split = {(1, 3): m13, (2, 3): m23, (3, 3): m33, (3, 4): m34}
    return _so2_eliminated(0, {}) - _so2_eliminated(0, split)


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


def verify_extremal_bounds(n_max: int) -> VerificationReport:
    """Brute-force check, for every 3 <= n <= n_max, that the closed-form
    extremal values and their attaining trees match exhaustive
    enumeration exactly.  Violations become report entries, not errors;
    an n_max below 3 or above the enumeration cap raises ``ValueError``
    before any scan.

    Each n takes one pass over the free trees (`so2_extremes`), which
    yields the minimum, the maximum and the molecular maximum together;
    only their attainers are built as graphs and compared with the
    signatures.
    """
    if n_max < 3:
        raise ValueError(f"verification needs n_max >= 3, got {n_max}")
    _check_n(n_max)
    checks: list[BoundCheck] = []
    for n in range(3, n_max + 1):
        extremes = so2_extremes(n)
        path, star = _tree_signatures(n)
        for label, signature, (value, attainers) in (
                ("min", path, extremes.minimum), ("max", star, extremes.maximum)):
            expected = _so2(signature)
            ok = (value == expected and len(attainers) == 1
                  and _has_signature(attainers[0], signature))
            checks.append(BoundCheck(
                n, f"tree_{label}", ok,
                f"{label}={value} expected={expected} attained_by={len(attainers)}"))

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
