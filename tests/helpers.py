"""Shared test utilities: independent oracles and random generators.

The canonical form here is center-rooted AHU (leaf stripping), on
purpose different from the centroid decomposition the enumerator uses;
the counting helper is a multiset-composition DP rather than a
generator; the reference labeller is a plain vertex-by-vertex loop,
where the library memoises branch rows; the linear-system helper is
plain Gaussian elimination; the index helper sums each kernel edge by
edge from its textbook formula, where the library sums over edge-type
counts, and the branch helper does the same on a branch labelled by the
reference loop, where the library sums over a branch's children.
Agreement between these and the library is therefore meaningful.
"""

from __future__ import annotations

import heapq
import math
import random
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from math import comb

from hypothesis import strategies as st

from sombor.graphs import Graph, EdgeTypeProfile

# published counts of free trees / trees with maximum degree four, n = 1..16
FREE_TREE_COUNTS = [1, 1, 1, 2, 3, 6, 11, 23, 47, 106, 235, 551,
                    1301, 3159, 7741, 19320]
MOLECULAR_TREE_COUNTS = [1, 1, 1, 2, 3, 5, 9, 18, 35, 75, 159, 355,
                         802, 1858, 4347, 10359]

# texts that are no integer at any input boundary, as SOMBOR_MAX_N
# refuses them: int() alone reads the first three as 10, 3 and 3
NON_INTEGERS = ("1_0", "\u0663", "\uff13", "0x0a", "1.0", "+-5", "")


def ahu_canonical(g: Graph):
    """Canonical form of a tree: rooted at its center (leaf stripping),
    subtrees as recursively sorted nested tuples."""
    n = g.n
    if n == 1:
        return ()
    if n == 2:
        return ("bi", (), ())
    deg = [len(a) for a in g.adjacency]
    removed = [False] * n
    layer = [v for v in range(n) if deg[v] == 1]
    remaining = n
    while remaining > 2:
        nxt = []
        for v in layer:
            removed[v] = True
            remaining -= 1
            for w in g.adjacency[v]:
                if not removed[w]:
                    deg[w] -= 1
                    if deg[w] == 1:
                        nxt.append(w)
        layer = nxt
    centers = [v for v in range(n) if not removed[v]]

    def shape(v, parent):
        return tuple(sorted((shape(w, v) for w in g.adjacency[v]
                             if w != parent), reverse=True))

    if len(centers) == 1:
        return shape(centers[0], -1)
    a, b = centers
    sa, sb = shape(a, b), shape(b, a)
    return ("bi", max(sa, sb), min(sa, sb))


def relabel(g: Graph, perm: list[int]) -> Graph:
    """Copy of g with vertex v renamed perm[v]."""
    return Graph.from_edges(g.n, [(perm[u], perm[v]) for u, v in g.edges()])


def shuffled_copy(g: Graph, rng: random.Random) -> Graph:
    perm = list(range(g.n))
    rng.shuffle(perm)
    return relabel(g, perm)


def random_graph(rng: random.Random, n: int, p: float) -> Graph:
    edges = [e for e in combinations(range(n), 2) if rng.random() < p]
    return Graph.from_edges(n, edges)


def random_tree(rng: random.Random, n: int, max_degree: int | None = None) -> Graph:
    """Random attachment tree; with max_degree, attachment respects it."""
    edges: list[tuple[int, int]] = []
    degree = [0] * n
    for v in range(1, n):
        while True:
            u = rng.randrange(v)
            if max_degree is None or degree[u] < max_degree:
                break
        edges.append((u, v))
        degree[u] += 1
        degree[v] += 1
    return Graph.from_edges(n, edges)


def tree_from_pruefer(n: int, sequence: list[int]) -> Graph:
    """The labelled tree on n vertices with the given Pruefer sequence
    (n - 2 labels); vertex v gets degree 1 + the number of times v
    occurs in it."""
    degree = [1] * n
    for v in sequence:
        degree[v] += 1
    leaves = [v for v in range(n) if degree[v] == 1]
    heapq.heapify(leaves)
    edges = []
    for v in sequence:
        edges.append((heapq.heappop(leaves), v))
        degree[v] -= 1
        if degree[v] == 1:
            heapq.heappush(leaves, v)
    if n > 1:
        edges.append((leaves[0], leaves[1]))
    return Graph.from_edges(n, edges)


@st.composite
def molecular_trees(draw, min_n=1, max_n=60):
    """Random molecular trees from Pruefer sequences in which no label
    occurs more than three times (so every degree is at most four)."""
    n = draw(st.integers(min_n, max_n))
    uses = [0] * n
    sequence = []
    for _ in range(n - 2):
        v = draw(st.sampled_from([u for u in range(n) if uses[u] < 3]))
        uses[v] += 1
        sequence.append(v)
    return tree_from_pruefer(n, sequence)


@st.composite
def simple_graphs(draw, min_n=1, max_n=10):
    """Random simple graphs: any set of vertex pairs, so edgeless graphs,
    isolated vertices, forests and cycles all occur."""
    n = draw(st.integers(min_n, max_n))
    pairs = list(combinations(range(n), 2))
    edges = draw(st.sets(st.sampled_from(pairs))) if pairs else set()
    return Graph.from_edges(n, edges)


# --- reference labelling (the straightforward loop) ---

def _attach(shape, parent, nbrs):
    """Label the root of `shape` with the next vertex id, join it to
    `parent`, then label its subtrees depth first."""
    root = len(nbrs)
    nbrs.append([parent])
    nbrs[parent].append(root)
    for child in shape:
        _attach(child, root, nbrs)


def reference_graph(n: int, tree) -> Graph:
    """The enumerator's labelling of a generated tree (the shapes of
    vertex 0's branches), built vertex by vertex: rooted at vertex 0,
    numbered depth first."""
    nbrs = [[]]
    for shape in tree:
        _attach(shape, 0, nbrs)
    return Graph(n, tuple(map(tuple, nbrs)))


# --- independent index evaluation (definitional per-edge sums) ---

# F(x, y) for endpoint degrees x, y: exact for the rational kernels,
# float for the irrational ones
EDGE_KERNELS = {
    "so2": lambda x, y: Fraction(abs(x * x - y * y), x * x + y * y),
    "so": lambda x, y: math.sqrt(x * x + y * y),
    "m1": lambda x, y: Fraction(x + y),
    "m2": lambda x, y: Fraction(x * y),
    "f": lambda x, y: Fraction(x * x + y * y),
    "r": lambda x, y: 1 / math.sqrt(x * y),
    "sci": lambda x, y: 1 / math.sqrt(x + y),
    "sdd": lambda x, y: Fraction(x, y) + Fraction(y, x),
}


def index_by_definition(g: Graph, name: str):
    """Index ``name`` as a plain sum over the edges of g: a Fraction for
    the rational kernels and "mn", a float (fsum) for the others."""
    deg = [len(a) for a in g.adjacency]
    if name == "mn":
        return Fraction(sum(sum(deg[u] for u in g.adjacency[v]) ** 2
                            for v in range(g.n)))
    terms = [EDGE_KERNELS[name](deg[u], deg[v])
             for u in range(g.n) for v in g.adjacency[u] if u < v]
    if name in ("so", "r", "sci"):
        return math.fsum(terms)
    return sum(terms, Fraction(0))


@lru_cache(maxsize=None)
def branch_by_definition(shape) -> tuple[Fraction, int, int]:
    """(so2 of the edges inside the branch, root degree, max degree) of
    the rooted branch `shape` (a nested tuple of child shapes), hung
    from a parent: both degrees count the edge to the parent, which the
    so2 leaves out.  The branch is labelled by the reference loop below
    a vertex 0 standing for the parent, and so2 summed edge by edge."""
    nbrs = [[]]
    _attach(shape, 0, nbrs)
    deg = [len(row) for row in nbrs]
    so2 = sum((EDGE_KERNELS["so2"](deg[u], deg[v])
               for u in range(1, len(nbrs)) for v in nbrs[u] if u < v),
              Fraction(0))
    return so2, deg[1], max(deg[1:])


# --- independent tree counting (multiset-composition DP) ---

@lru_cache(maxsize=None)
def _branch_kinds(size: int, max_children: int) -> int:
    if size == 1:
        return 1
    return _multiset_kinds(size - 1, size - 1, max_children, max_children)


@lru_cache(maxsize=None)
def _multiset_kinds(total: int, max_size: int, parts_left: int,
                    max_children: int) -> int:
    if total == 0:
        return 1
    if parts_left == 0 or max_size == 0:
        return 0
    out = 0
    s = min(max_size, total)
    kinds = _branch_kinds(s, max_children)
    for j in range(min(parts_left, total // s) + 1):
        out += comb(kinds + j - 1, j) * _multiset_kinds(
            total - j * s, s - 1, parts_left - j, max_children)
    return out


def count_trees_dp(n: int, max_degree: int | None = None) -> int:
    """Number of non-isomorphic trees on n vertices (optionally with a
    degree cap), by counting centroid-rooted branch multisets."""
    if n == 1:
        return 1
    root_cap = max_degree if max_degree is not None else n - 1
    child_cap = max_degree - 1 if max_degree is not None else n - 1
    total = _multiset_kinds(n - 1, (n - 1) // 2, root_cap, child_cap)
    if n % 2 == 0:
        b = _branch_kinds(n // 2, child_cap)
        total += b * (b + 1) // 2
    return total


# --- independent linear-system solve (Gaussian elimination) ---

def solve_degree_system_by_elimination(profile: EdgeTypeProfile):
    """Solve the six molecular-tree count relations for m14, m24 and
    n1..n4 with textbook elimination over exact rationals.

    Unknown order: m14, m24, n1, n2, n3, n4.  Returns the solution
    vector as Fractions (no integrality checking).
    """
    n = Fraction(profile.n)
    m12 = profile.count(1, 2)
    m13 = profile.count(1, 3)
    m22 = profile.count(2, 2)
    m23 = profile.count(2, 3)
    m33 = profile.count(3, 3)
    m34 = profile.count(3, 4)
    m44 = profile.count(4, 4)
    # rows: coefficients of (m14, m24, n1, n2, n3, n4) and the constant
    rows = [
        [0, 0, 1, 1, 1, 1, n],
        [0, 0, 1, 2, 3, 4, 2 * n - 2],
        [1, 0, -1, 0, 0, 0, -m12 - m13],
        [0, 1, 0, -2, 0, 0, -m12 - 2 * m22 - m23],
        [0, 0, 0, 0, -3, 0, -m13 - m23 - 2 * m33 - m34],
        [1, 1, 0, 0, 0, -4, -m34 - 2 * m44],
    ]
    matrix = [[Fraction(x) for x in row] for row in rows]
    size = 6
    for col in range(size):
        pivot = next(r for r in range(col, size) if matrix[r][col] != 0)
        matrix[col], matrix[pivot] = matrix[pivot], matrix[col]
        inv = 1 / matrix[col][col]
        matrix[col] = [x * inv for x in matrix[col]]
        for r in range(size):
            if r != col and matrix[r][col] != 0:
                factor = matrix[r][col]
                matrix[r] = [a - factor * b
                             for a, b in zip(matrix[r], matrix[col])]
    return tuple(matrix[r][size] for r in range(size))
