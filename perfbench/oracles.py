"""Correctness oracles owned by the benchmark.

Nothing here imports ``sombor``: every check compares the program's
output against facts computed or published independently of it.

- Published tree counts (OEIS A000055 free trees, A000602 alkanes, which
  are the trees of maximum degree four), n = 1..22.
- An AHU canonical form for free trees (centroid-rooted, iterative, so
  chains of thousands of vertices are fine).
- Exact second Sombor index and the eight comparison indices from
  their textbook definitions.
- A minimal carbon-skeleton SMILES reader for checking written SMILES.
- The sha256 of ``sombor extremal --verify-up-to 15`` at the commit that
  introduced this benchmark: the byte-identical gate for verification
  output.
"""

from __future__ import annotations

import math
from fractions import Fraction

# OEIS A000055, n = 1..22: free trees with n unlabeled vertices.
FREE_TREES = (1, 1, 1, 2, 3, 6, 11, 23, 47, 106, 235, 551, 1301, 3159, 7741,
              19320, 48629, 123867, 317955, 823065, 2144505, 5623756)
# OEIS A000602, n = 1..22: alkanes C_nH_{2n+2}, i.e. trees of maximum
# degree four on n vertices.
MOLECULAR_TREES = (1, 1, 1, 2, 3, 5, 9, 18, 35, 75, 159, 355, 802, 1858,
                   4347, 10359, 24894, 60523, 148284, 366319, 910726,
                   2278658)

VERIFY_N = 15
# sha256 of the stdout of `sombor extremal --verify-up-to 15` (49 lines,
# ending "0 violations") when this benchmark was introduced.
VERIFY_OUTPUT_SHA256 = (
    "db28227d1dc13b6c1700d9ed7e6990cc429ee4c3a7591c9e1544fc34fce129e1")


def free_tree_count(n: int) -> int:
    return FREE_TREES[n - 1]


def molecular_tree_count(n: int) -> int:
    return MOLECULAR_TREES[n - 1]


def distinct_trees_up_to(n_max: int) -> int:
    """Number of distinct free trees with 3..n_max vertices: the trees
    whose extremal values `extremal --verify-up-to n_max` establishes."""
    return sum(free_tree_count(n) for n in range(3, n_max + 1))


def adjacency_from_edges(n: int, edges) -> list[list[int]]:
    adj: list[list[int]] = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    return adj


def is_tree(adj: list[list[int]]) -> bool:
    n = len(adj)
    if n == 0 or sum(len(a) for a in adj) != 2 * (n - 1):
        return False
    seen = [False] * n
    seen[0] = True
    stack = [0]
    count = 1
    while stack:
        v = stack.pop()
        for u in adj[v]:
            if not seen[u]:
                seen[u] = True
                count += 1
                stack.append(u)
    return count == n


def _bfs_order(adj: list[list[int]], root: int) -> tuple[list[int], list[int]]:
    parent = [-1] * len(adj)
    order = [root]
    parent[root] = root
    for v in order:
        for u in adj[v]:
            if parent[u] == -1:
                parent[u] = v
                order.append(u)
    parent[root] = -1
    return order, parent


def centroids(adj: list[list[int]]) -> list[int]:
    """The one or two vertices minimizing the largest component left
    after their removal."""
    n = len(adj)
    order, parent = _bfs_order(adj, 0)
    size = [1] * n
    for v in reversed(order[1:]):
        size[parent[v]] += size[v]
    best, out = n, []
    for v in range(n):
        worst = n - size[v]
        for u in adj[v]:
            if parent[u] == v:
                worst = max(worst, size[u])
        if worst < best:
            best, out = worst, [v]
        elif worst == best:
            out.append(v)
    return out


def _rooted_form(adj: list[list[int]], root: int) -> str:
    order, parent = _bfs_order(adj, root)
    label = [""] * len(adj)
    for v in reversed(order):
        label[v] = "(" + "".join(sorted(label[u] for u in adj[v]
                                        if u != parent[v])) + ")"
    return label[root]


def canonical_form(adj: list[list[int]]) -> str:
    """AHU canonical string of a free tree: equal iff isomorphic."""
    return min(_rooted_form(adj, c) for c in centroids(adj))


def so2_exact(adj: list[list[int]]) -> Fraction:
    """Second Sombor index from its definition,
    sum over edges uv of |d(u)^2 - d(v)^2| / (d(u)^2 + d(v)^2)."""
    total = Fraction(0)
    for v, nbrs in enumerate(adj):
        a = len(nbrs) ** 2
        for u in nbrs:
            if v < u:
                b = len(adj[u]) ** 2
                total += Fraction(abs(a - b), a + b)
    return total


_EDGE_KERNELS = {
    "so2": lambda x, y: abs(x * x - y * y) / (x * x + y * y),
    "so": lambda x, y: math.sqrt(x * x + y * y),
    "m1": lambda x, y: x + y,
    "m2": lambda x, y: x * y,
    "f": lambda x, y: x * x + y * y,
    "r": lambda x, y: 1 / math.sqrt(x * y),
    "sci": lambda x, y: 1 / math.sqrt(x + y),
    "sdd": lambda x, y: x / y + y / x,
}


def index_values(adj: list[list[int]]) -> dict[str, float]:
    """The nine indices of the octane study, from their definitions:
    the eight edge kernels summed over edges, and the neighborhood
    Zagreb index (sum over vertices of the squared neighbor-degree
    sum)."""
    deg = [len(a) for a in adj]
    out = {}
    for name, kernel in _EDGE_KERNELS.items():
        out[name] = math.fsum(kernel(deg[v], deg[u])
                              for v, nbrs in enumerate(adj)
                              for u in nbrs if v < u)
    out["mn"] = float(sum(sum(deg[u] for u in nbrs) ** 2 for nbrs in adj))
    return out


def close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-9)


def read_smiles(smiles: str) -> list[list[int]]:
    """Adjacency of a carbon-skeleton SMILES string (``C``, ``(``, ``)``
    only).  Raises ``ValueError`` on anything else."""
    adj: list[list[int]] = []
    stack: list[int] = []
    current = -1
    for ch in smiles:
        if ch == "C":
            adj.append([])
            atom = len(adj) - 1
            if current >= 0:
                adj[current].append(atom)
                adj[atom].append(current)
            current = atom
        elif ch == "(" and current >= 0:
            stack.append(current)
        elif ch == ")" and stack:
            current = stack.pop()
        else:
            raise ValueError(f"unexpected {ch!r} in SMILES")
    if stack or not adj:
        raise ValueError("unbalanced or empty SMILES")
    return adj


def r_squared(xs: list[float], ys: list[float]) -> float:
    """Squared sample correlation of two equally long samples."""
    n = len(xs)
    mx, my = math.fsum(xs) / n, math.fsum(ys) / n
    sxx = math.fsum((x - mx) ** 2 for x in xs)
    syy = math.fsum((y - my) ** 2 for y in ys)
    sxy = math.fsum((x - mx) * (y - my) for x, y in zip(xs, ys))
    return min(sxy * sxy / (sxx * syy), 1.0)
