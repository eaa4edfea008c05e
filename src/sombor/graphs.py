"""Simple undirected graphs with dense integer vertex ids.

Graphs are immutable after construction.  Everything downstream (index
computation, tree enumeration, extremal verification) works on this
one representation, so construction validates the structural invariants
once and the rest of the code can trust them.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Iterator


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph on vertices 0..n-1.

    ``adjacency[v]`` is a sorted tuple of the neighbors of ``v``.  No
    self-loops, no parallel edges, and the adjacency relation is
    symmetric; violations raise ``ValueError`` at construction time.
    """

    n: int
    adjacency: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("vertex count must be positive")
        if len(self.adjacency) != self.n:
            raise ValueError("adjacency length does not match vertex count")
        neighbor_sets = []
        for v, nbrs in enumerate(self.adjacency):
            s = set(nbrs)
            if len(s) != len(nbrs):
                raise ValueError(f"duplicate neighbor in adjacency of vertex {v}")
            if v in s:
                raise ValueError(f"self-loop at vertex {v}")
            for u in s:
                if not 0 <= u < self.n:
                    raise ValueError(f"neighbor {u} of vertex {v} out of range")
            neighbor_sets.append(s)
        for v, s in enumerate(neighbor_sets):
            for u in s:
                if v not in neighbor_sets[u]:
                    raise ValueError(f"asymmetric edge {v}-{u}")

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple[int, int]]) -> "Graph":
        """Build a graph from an edge list, sorting each neighbor list."""
        nbrs: list[list[int]] = [[] for _ in range(max(n, 0))]
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge {u}-{v} out of range for n={n}")
            nbrs[u].append(v)
            nbrs[v].append(u)
        return cls(n, tuple(tuple(sorted(a)) for a in nbrs))

    @property
    def edge_count(self) -> int:
        return sum(len(a) for a in self.adjacency) // 2

    def edges(self) -> Iterator[tuple[int, int]]:
        """Yield each edge once as (u, v) with u < v, in sorted order."""
        for u, nbrs in enumerate(self.adjacency):
            for v in nbrs:
                if u < v:
                    yield u, v

    def degree(self, v: int) -> int:
        return len(self.adjacency[v])


def degrees(g: Graph) -> list[int]:
    """Degree of every vertex, indexed by vertex id."""
    return [len(nbrs) for nbrs in g.adjacency]


def _is_connected(g: Graph) -> bool:
    seen = [False] * g.n
    stack = [0]
    seen[0] = True
    count = 1
    while stack:
        v = stack.pop()
        for u in g.adjacency[v]:
            if not seen[u]:
                seen[u] = True
                count += 1
                stack.append(u)
    return count == g.n


def is_tree(g: Graph) -> bool:
    """True iff the graph is connected with exactly n-1 edges."""
    return g.edge_count == g.n - 1 and _is_connected(g)


def is_molecular_tree(g: Graph) -> bool:
    """True iff the graph is a tree of maximum degree at most four."""
    return is_tree(g) and max(degrees(g), default=0) <= 4


@dataclass(frozen=True)
class EdgeTypeProfile:
    """Edge counts by unordered endpoint-degree pair, plus degree counts.

    ``m[(i, j)]`` with i <= j is the number of edges whose endpoints have
    degrees i and j; ``degree_counts[i]`` is the number of vertices of
    degree i; ``n`` is the vertex count.  Construction checks the
    handshake and incidence identities, so a profile is always realizable
    arithmetic-wise (though not necessarily by a graph).
    """

    m: dict[tuple[int, int], int]
    degree_counts: dict[int, int]
    n: int

    def __post_init__(self) -> None:
        for (i, j), count in self.m.items():
            if i > j:
                raise ValueError(f"edge-type key ({i},{j}) not normalized to i<=j")
            if count < 0 or i < 0:
                raise ValueError("negative count or degree in profile")
        if any(c < 0 for c in self.degree_counts.values()):
            raise ValueError("negative degree count")
        if sum(self.degree_counts.values()) != self.n:
            raise ValueError("degree counts do not sum to vertex count")
        # each degree class must absorb exactly i*n_i edge endpoints
        degrees_seen = set(self.degree_counts) | {d for key in self.m for d in key}
        for i in degrees_seen:
            incident = sum(count * ((i == a) + (i == b))
                           for (a, b), count in self.m.items())
            if incident != i * self.degree_counts.get(i, 0):
                raise ValueError(f"incidence mismatch for degree {i}")

    @property
    def edge_count(self) -> int:
        return sum(self.m.values())

    def count(self, i: int, j: int) -> int:
        """Number of edges joining a degree-i and a degree-j vertex."""
        key = (i, j) if i <= j else (j, i)
        return self.m.get(key, 0)


def edge_type_counts(g: Graph) -> dict[tuple[int, int], int]:
    """Number of edges per endpoint-degree pair (i, j), i <= j: the m_ij
    of ``EdgeTypeProfile`` without its validation."""
    adjacency = g.adjacency
    m: dict[tuple[int, int], int] = {}
    for u, nbrs in enumerate(adjacency):
        du = len(nbrs)
        for v in nbrs:
            if u < v:
                dv = len(adjacency[v])
                key = (du, dv) if du <= dv else (dv, du)
                m[key] = m.get(key, 0) + 1
    return m


def edge_type_profile(g: Graph) -> EdgeTypeProfile:
    """Count edges by endpoint-degree pair and vertices by degree."""
    return EdgeTypeProfile(m=edge_type_counts(g),
                           degree_counts=dict(Counter(degrees(g))), n=g.n)


def parse_edge_list(text: str) -> Graph:
    """Parse the plain-text edge-list format: first line "n m", then m
    lines "u v" with 0-based vertex ids."""
    lines = [ln for ln in (raw.strip() for raw in text.splitlines()) if ln]
    if not lines:
        raise ValueError("empty edge-list input")
    head = lines[0].split()
    if len(head) != 2:
        raise ValueError('first line must be "n m"')
    try:
        n, m = int(head[0]), int(head[1])
    except ValueError:
        raise ValueError('first line must contain two integers "n m"') from None
    if len(lines) - 1 != m:
        raise ValueError(f"expected {m} edge lines, found {len(lines) - 1}")
    edges = []
    for idx, ln in enumerate(lines[1:], start=2):
        parts = ln.split()
        if len(parts) != 2:
            raise ValueError(f'line {idx}: expected "u v"')
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise ValueError(f"line {idx}: vertex ids must be integers") from None
        edges.append((u, v))
    return Graph.from_edges(n, edges)


def format_edge_list(g: Graph) -> str:
    """Serialize a graph in the "n m" / "u v" edge-list format."""
    lines = [f"{g.n} {g.edge_count}"]
    lines.extend(f"{u} {v}" for u, v in g.edges())
    return "\n".join(lines) + "\n"
