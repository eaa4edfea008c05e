"""Simple undirected graphs with dense integer vertex ids.

Graphs are immutable after construction.  Everything downstream (index
computation, tree enumeration, extremal verification) works on this
one representation, so construction validates the structural invariants
once and the rest of the code can trust them.
"""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator

# the maximum degree of a molecular tree: the valence of carbon
MOLECULAR_MAX_DEGREE = 4

# an integer as every input takes it: an optional sign and ASCII digits,
# with surrounding whitespace
_INTEGER = re.compile(r"\s*[+-]?[0-9]+\s*")

# one shared key object per edge type (i, j), so a graph's edge-type
# counts hold no tuples of their own
_EDGE_TYPE_KEYS: dict[tuple[int, int], tuple[int, int]] = {}


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph on vertices 0..n-1.

    ``adjacency[v]`` is a sorted tuple of the neighbors of ``v``.  No
    self-loops, no parallel edges, and the adjacency relation is
    symmetric; violations raise ``ValueError`` at construction time.
    One pass over the neighbor lists makes every check, visiting each
    edge once, from its lower end; only an adjacency that fails is
    examined again, to name its first defect.
    Equality, hashing and repr use ``n`` and ``adjacency`` only.
    """

    n: int
    adjacency: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("vertex count must be positive")
        if len(self.adjacency) != self.n:
            raise ValueError("adjacency length does not match vertex count")
        n = self.n
        # each row as an iterator over its entries not yet matched: the
        # rows are sorted, so the neighbors below v come first in v's row,
        # and the rows before v match them in order
        unmatched = list(map(iter, self.adjacency))
        for v, above in enumerate(unmatched):
            previous = v
            for u in above:
                # above v and the entry before, in range, and the next
                # unmatched neighbor of u is v
                if not (previous < u < n and next(unmatched[u], None) == v):
                    raise ValueError(_adjacency_problem(n, self.adjacency))
                previous = u

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple[int, int]]) -> "Graph":
        """Build a graph from an edge list, sorting each neighbor list."""
        nbrs: list[list[int]] = [[] for _ in range(max(n, 0))]
        for u, v in edges:
            problem = _edge_problem(n, u, v)
            if problem:
                raise ValueError(problem)
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

    @cached_property
    def _edge_text(self) -> str:
        """The edges as "u-v" (u < v) in sorted order, space-joined:
        written on first use, or filled in by whoever builds the graph
        from text it already holds (the enumerator does)."""
        return " ".join([f"{u}-{v}" for u, nbrs in enumerate(self.adjacency)
                         for v in nbrs if u < v])

    @cached_property
    def _edge_types(self) -> dict[tuple[int, int], int]:
        """The m_ij of ``edge_type_counts``, counted on first use and
        shared by every later reader, none of which may change it."""
        adjacency = self.adjacency
        m: dict[tuple[int, int], int] = {}
        for u, nbrs in enumerate(adjacency):
            du = len(nbrs)
            for v in nbrs:
                if u < v:
                    dv = len(adjacency[v])
                    key = (du, dv) if du <= dv else (dv, du)
                    m[key] = m.get(key, 0) + 1
        return {_EDGE_TYPE_KEYS.setdefault(key, key): count
                for key, count in m.items()}


def _edge_problem(n: int, u: int, v: int) -> str:
    """Why u-v cannot be an edge of a simple graph on n vertices, or ""."""
    if not (0 <= u < n and 0 <= v < n):
        return f"edge {u}-{v} out of range for n={n}"
    return f"self-loop at vertex {u}" if u == v else ""


def _adjacency_problem(n: int, adjacency) -> str:
    """The first defect of the n neighbor rows `adjacency`, or "": each
    row is checked entry by entry, then symmetry over per-vertex sets."""
    neighbor_sets = []
    for v, nbrs in enumerate(adjacency):
        previous = -1
        for u in nbrs:
            if not 0 <= u < n:
                return f"neighbor {u} of vertex {v} out of range"
            if u == v:
                return f"self-loop at vertex {v}"
            if u == previous:
                return f"duplicate neighbor in adjacency of vertex {v}"
            if u < previous:
                return f"adjacency of vertex {v} is not sorted"
            previous = u
        neighbor_sets.append(set(nbrs))
    for v, nbrs in enumerate(neighbor_sets):
        for u in nbrs:
            if v not in neighbor_sets[u]:
                return f"asymmetric edge {v}-{u}"
    return ""


def degrees(g: Graph) -> list[int]:
    """Degree of every vertex, indexed by vertex id."""
    return [len(nbrs) for nbrs in g.adjacency]


def _bfs(g: Graph, root: int) -> tuple[list[int], list[int]]:
    """Breadth-first order from `root` and the parents in it (the root
    is its own parent, unreached vertices have -1)."""
    order, parent = [root], [-1] * g.n
    parent[root] = root
    for v in order:
        for u in g.adjacency[v]:
            if parent[u] < 0:
                parent[u] = v
                order.append(u)
    return order, parent


def is_tree(g: Graph) -> bool:
    """True iff the graph is connected with exactly n-1 edges."""
    return g.edge_count == g.n - 1 and len(_bfs(g, 0)[0]) == g.n


def is_molecular_tree(g: Graph) -> bool:
    """True iff the graph is a tree of maximum degree at most four."""
    return is_tree(g) and max(degrees(g), default=0) <= MOLECULAR_MAX_DEGREE


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
    of ``EdgeTypeProfile`` without its validation.  The counts are taken
    once per graph; each call returns a fresh dict the caller may keep
    or change."""
    return dict(g._edge_types)


def edge_type_profile(g: Graph) -> EdgeTypeProfile:
    """Count edges by endpoint-degree pair and vertices by degree."""
    return EdgeTypeProfile(m=edge_type_counts(g),
                           degree_counts=dict(Counter(degrees(g))), n=g.n)


def decode_utf8(data: bytes, start: int = 0) -> str:
    """``data[start:]``, the bytes of a file, decoded as UTF-8.  A
    decoding error names the line and the byte offset counted from the
    start of the file; callers prefix the file's name."""
    try:
        return data[start:].decode("utf-8")
    except UnicodeDecodeError as exc:
        offset = start + exc.start
        line = data.count(b"\n", 0, offset) + 1
        raise ValueError(f"line {line}, byte {offset}: not UTF-8 text "
                         f"({exc.reason})") from None


def ascii_int(text: str) -> int:
    """`text` as an integer, written as an optional sign and ASCII digits
    with surrounding whitespace.  ``int`` also reads digit separators
    ("1_0") and non-ASCII digits; this raises ``ValueError`` on them.
    Edge lists, the command line and SOMBOR_MAX_N read integers with it."""
    if not _INTEGER.fullmatch(text):
        raise ValueError(f"invalid integer {text!r}")
    return int(text)


def _line_error(idx: int, line: str, problem: str) -> ValueError:
    """`problem` at line `idx`; a carriage return left inside the line
    means the file ends its lines with bare CRs, so that is named too."""
    if "\r" in line:
        problem += (' (lines end at "\\n"; this line holds a bare carriage '
                    'return)')
    return ValueError(f"line {idx}: {problem}")


def parse_edge_list(text: str) -> Graph:
    """Parse the plain-text edge-list format: first line "n m", then m
    lines "u v" with 0-based vertex ids.  Blank lines are skipped; errors
    name the line number in the text, lines ending at "\n" only (as
    ``decode_utf8`` counts them; a CR before it is stripped)."""
    lines = [(idx, raw.strip()) for idx, raw in enumerate(text.split("\n"), 1)
             if raw.strip()]
    if not lines:
        raise ValueError("empty edge-list input")
    head_line, head_text = lines[0]
    head = head_text.split()
    if len(head) != 2:
        raise _line_error(head_line, head_text, 'header must be "n m"')
    try:
        n, m = ascii_int(head[0]), ascii_int(head[1])
    except ValueError:
        raise _line_error(head_line, head_text,
                          'header must contain two integers "n m"') from None
    if n < 1:
        raise ValueError(f"line {head_line}: vertex count must be positive")
    if m < 0:
        raise ValueError(f"line {head_line}: edge count must not be negative")
    if len(lines) - 1 != m:
        problem = f"expected {m} edge lines, found {len(lines) - 1}"
        for idx, ln in lines:
            if "\r" in ln:  # bare CRs joined some lines
                raise _line_error(idx, ln, problem)
        raise ValueError(problem)
    edges: set[tuple[int, int]] = set()
    for idx, ln in lines[1:]:
        parts = ln.split()
        if len(parts) != 2:
            raise _line_error(idx, ln, 'expected "u v"')
        try:
            u, v = ascii_int(parts[0]), ascii_int(parts[1])
        except ValueError:
            raise _line_error(idx, ln, "vertex ids must be integers") from None
        key = (min(u, v), max(u, v))
        problem = _edge_problem(n, u, v) or (
            f"repeated edge {u}-{v}" if key in edges else "")
        if problem:
            raise ValueError(f"line {idx}: {problem}")
        edges.add(key)
    return Graph.from_edges(n, edges)


def format_edge_list(g: Graph) -> str:
    """Serialize a graph in the "n m" / "u v" edge-list format."""
    lines = [f"{g.n} {g.edge_count}"]
    lines.extend(f"{u} {v}" for u, v in g.edges())
    return "\n".join(lines) + "\n"
