"""Exhaustive generation of pairwise non-isomorphic free trees, and
exact so2 extremes evaluated on their canonical shapes.

Canonical construction via centroid decomposition: a free tree either
has a unique centroid vertex (every component of T - c has at most
floor((n-1)/2) vertices) or, for even n, a unique centroid edge whose
removal splits it into two halves of exactly n/2 vertices.  Rooted
subtrees ("branches") are generated as canonical shapes -- nested
tuples with children sorted in decreasing order -- in one memoised
table per (child cap, order), holding every branch of each size up to
order // 2 and its child tuple, built bottom up.  A tree is one form,
the tuple of vertex 0's branches: the multiset of branches below the
centroid, or, for an unordered pair of half-size branches across the
centroid edge, the first half's children followed by the second half.
Each isomorphism class is produced exactly once, with no post-hoc
isomorphism filtering.  ``canonical_shape`` computes the same shape
for any labelled tree, so it is the one canonical form of a tree:
canonical SMILES (``chem.alkane_to_smiles``) are written from it.

A maximum-degree cap is applied while generating (branch nodes get at
most cap-1 children, the centroid at most cap), so restricting to
molecular trees (degree <= 4) never touches the larger unrestricted
space.

so2 is a sum of per-edge terms that depend only on the endpoint degrees,
so it is evaluated on the shapes themselves.  Each branch carries its
shape, its max degree and the so2 of its own edges, scaled by L, the lcm
of the so2 terms' denominators over the degree pairs i + j <= n possible
at order n, so every edge term is an integer.  A tree's value is then an
integer sum over vertex 0's branches, each with its edge to vertex 0,
divided by L once.  ``so2_extremes`` is the one so2
scan; ``argmax_so2`` and ``argmin_so2`` are views of it.  Only the trees
a caller asks for -- the streamed ones, or the attainers of an extreme
-- are built as ``Graph``s, labelled depth first from vertex 0.  A
branch hung from vertex 0 at a given first label always gets the same
sorted neighbour rows and the same edges, so those rows and the edges'
text are memoised per (shape, first label).  A tree's adjacency is
vertex 0's row followed by its branches' rows, and its edge text,
which the ``Graph`` keeps for whoever writes it, is vertex 0's edges
followed by its branches' texts; every ``Graph`` is still validated as
it is built.  The
same generator drives the ``Graph`` streams, the counts and the so2
scan, so all of them see the same trees in the same order with the same
vertex labels.
"""

from __future__ import annotations

import math
import os
from fractions import Fraction
from functools import cache
from typing import Iterator, NamedTuple, Optional, Sequence

from .graphs import MOLECULAR_MAX_DEGREE, Graph, _bfs
# so2 stays importable from this module
from .indices import KERNELS, so2  # noqa: F401

DEFAULT_MAX_N = 18

# a Shape is a tuple of child Shapes, sorted decreasingly by (size,
# shape); () is a single vertex
Shape = tuple


class _Branch(NamedTuple):
    """A rooted subtree, seen from a parent it hangs from: its degrees
    count the edge to that parent, which its ``so2`` leaves out."""

    shape: Shape
    so2: int  # scaled so2 of the edges inside the branch
    degree: int  # of the root
    max_degree: int


# a generated tree: the branches of vertex 0 -- the centroid's, or
# across a centroid edge one half's children followed by the other half
_Tree = tuple


def enumeration_cap() -> int:
    """Largest n the enumerators accept; SOMBOR_MAX_N overrides the default."""
    raw = os.environ.get("SOMBOR_MAX_N")
    if raw is None:
        return DEFAULT_MAX_N
    try:
        cap = int(raw)
    except ValueError:
        raise ValueError(f"SOMBOR_MAX_N must be an integer, got {raw!r}") from None
    if cap < 1:
        raise ValueError("SOMBOR_MAX_N must be positive")
    return cap


@cache
def _edge_terms(order: int, max_degree: Optional[int]
                ) -> tuple[int, tuple[tuple[Optional[int], ...], ...]]:
    """The scale L of the trees on `order` vertices with degrees at most
    `max_degree` (None = unbounded), and ``terms[i][j]`` = L times the
    so2 term of an edge between degrees i and j.  Pairs with i + j >
    order cannot be adjacent in such a tree and are None."""
    top = order - 1 if max_degree is None else min(max_degree, order - 1)
    exact = {(i, j): KERNELS["so2"](i, j) for i in range(1, top + 1)
             for j in range(1, min(top, order - i) + 1)}
    scale = math.lcm(*(term.denominator for term in exact.values()))
    terms = [[None] * (top + 1) for _ in range(top + 1)]
    for (i, j), term in exact.items():
        terms[i][j] = term.numerator * (scale // term.denominator)
    return scale, tuple(map(tuple, terms))


@cache
def _tables(max_children: Optional[int], order: int
            ) -> tuple[tuple[tuple[_Branch, ...], ...],
                       tuple[tuple[tuple[_Branch, ...], ...], ...]]:
    """``branches[s]``: every canonical branch with s nodes, s <= order
    // 2, in which every node has at most `max_children` children (None
    = unbounded), its so2 scaled for trees on `order` vertices; and
    ``children[s]``: each of those branches' child tuple, in the same
    order.  Built bottom up, size s from the multisets of smaller ones."""
    _, terms = _edge_terms(order, None if max_children is None
                           else max_children + 1)
    branches, children = [(), (_Branch((), 0, 1, 1),)], [(), ((),)]
    for size in range(2, order // 2 + 1):
        # size - 1 nodes below the root make at most size - 1 children
        cap = size - 1 if max_children is None else max_children
        kids = tuple(_multisets(size - 1, size - 1, cap, branches, None))
        out = []
        for parts in kids:
            degree = len(parts) + 1
            row = terms[degree]
            out.append(_Branch(
                tuple(c.shape for c in parts),
                sum(c.so2 + row[c.degree] for c in parts),
                degree,
                max(degree, *(c.max_degree for c in parts))))
        branches.append(tuple(out))
        children.append(kids)
    return tuple(branches), tuple(children)


def _multisets(total: int, max_size: int, max_parts: int,
               branches: Sequence[tuple[_Branch, ...]],
               bound: Optional[_Branch]) -> Iterator[tuple[_Branch, ...]]:
    """Multisets of at most `max_parts` of the `branches` with the given
    total size, emitted as tuples sorted decreasingly by (size, shape);
    `bound` caps the first element."""
    if total == 0:
        yield ()
        return
    if max_parts == 0:
        return
    for s in range(min(max_size, total), 0, -1):
        for branch in branches[s]:
            if (bound is not None and s == max_size
                    and branch.shape > bound.shape):
                continue
            for rest in _multisets(total - s, s, max_parts - 1, branches,
                                   branch):
                yield (branch,) + rest


def _trees(n: int, max_degree: Optional[int]) -> Iterator[_Tree]:
    """Every tree on n vertices with degrees at most `max_degree`, once
    per isomorphism class, in a fixed order, as vertex 0's branches."""
    root_cap = n - 1 if max_degree is None else max_degree
    branches, children = _tables(
        None if max_degree is None else max_degree - 1, n)
    # unique-centroid trees: all branches strictly smaller than n/2
    yield from _multisets(n - 1, (n - 1) // 2, root_cap, branches, None)
    # centroid-edge trees: unordered pairs of half-size branches, the
    # first one's root as vertex 0
    if n % 2 == 0:
        halves = branches[n // 2]
        for i, below in enumerate(children[n // 2]):
            for b in halves[i:]:
                yield (*below, b)


def _scored_trees(n: int, max_degree: Optional[int]
                  ) -> Iterator[tuple[int, int, _Tree]]:
    """(L * so2, max degree, tree) for every tree of `_trees`."""
    _, terms = _edge_terms(n, max_degree)
    for tree in _trees(n, max_degree):
        row = terms[len(tree)]
        value, top = 0, len(tree)
        for b in tree:
            value += b.so2 + row[b.degree]
            if b.max_degree > top:
                top = b.max_degree
        yield value, top, tree


@cache
def _rows(shape: Shape, first: int
          ) -> tuple[tuple[tuple[int, ...], ...], str]:
    """The sorted neighbour rows of the branch `shape` with its root
    labelled `first` and hung from vertex 0, its vertices labelled depth
    first: row i belongs to vertex first + i.  With them, the branch's
    own edges as text, each written " u-v" (u < v) in sorted order, so
    the texts of consecutive branches concatenate in sorted order too.
    Both depend on the shape and the offset only, so every tree that
    hangs this branch at this offset shares them."""
    children, rows = [], []
    label = first + 1
    for child in shape:
        below, _ = _rows(child, label)
        children.append(label)
        rows.append((first, *below[0][1:]))  # re-hang from `first`
        rows.extend(below[1:])
        label += len(below)
    rows = ((0, *children), *rows)
    return rows, "".join([f" {u}-{v}" for u, nbrs in enumerate(rows, first)
                          for v in nbrs if u < v])


@cache
def _hanging(roots: tuple[int, ...]) -> str:
    """The edge text of vertex 0's edges to `roots`: many trees share
    vertex 0's row, so this too is memoised."""
    return " ".join([f"0-{root}" for root in roots])


def _graph(n: int, tree: _Tree) -> Graph:
    """The tree rooted at vertex 0 with vertices numbered in depth-first
    order.  Every branch of vertex 0 contributes its memoised ``_rows``,
    so the adjacency is vertex 0's row plus those rows in label order.
    Every row comes out sorted (parent first, then the children in label
    order), so it is handed to ``Graph`` as built.  The edges in sorted
    order are vertex 0's, then each branch's in label order, so the
    ``Graph`` gets its edge text from the memoised branch texts too."""
    roots, adjacency, texts = [], [()], []
    for branch in tree:
        roots.append(len(adjacency))
        rows, text = _rows(branch.shape, len(adjacency))
        adjacency.extend(rows)
        texts.append(text)
    adjacency[0] = roots = tuple(roots)
    g = Graph(n, tuple(adjacency))
    vars(g)["_edge_text"] = _hanging(roots) + "".join(texts)
    return g


def canonical_shape(g: Graph) -> Shape:
    """The generator's shape for the isomorphism class of the tree `g`:
    rooted at the centroid (for a centroid edge, at the end that gives
    the larger shape), children sorted decreasingly by (size, shape).
    Built bottom up without recursion, though comparing two deep shapes
    can still exceed the interpreter's recursion limit."""
    n = g.n
    order, parent = _bfs(g, 0)
    if len(order) != n or g.edge_count != n - 1:
        raise ValueError("not a tree")
    size, heaviest = [1] * n, [0] * n  # heaviest: largest child subtree
    for v in reversed(order[1:]):
        p = parent[v]
        size[p] += size[v]
        heaviest[p] = max(heaviest[p], size[v])
    centroids = [v for v in range(n) if 2 * max(heaviest[v], n - size[v]) <= n]
    top = centroids[0]
    order, parent = _bfs(g, top)
    shape: list[Shape] = [()] * n
    size = [1] * n
    for v in reversed(order):
        nbrs = g.adjacency[v]
        if len(nbrs) == 1 and v != top:
            continue  # a leaf keeps shape () and size 1
        p = parent[v]
        children = [(size[u], shape[u]) for u in nbrs if u != p]
        if len(children) > 1:
            children.sort(reverse=True)
        shape[v] = tuple(s for _, s in children)
        size[v] += sum(k for k, _ in children)
    root = shape[top]
    if len(centroids) == 2:
        # the other end's half comes first: it has n/2 of the n - 1
        half, rest = root[0], root[1:]
        if rest > half:
            return (rest, *half)
    return root


def _check_n(n: int) -> None:
    cap = enumeration_cap()
    if n < 1:
        raise ValueError("n must be positive")
    if n > cap:
        raise ValueError(f"n={n} exceeds the enumeration cap {cap}")


def enumerate_trees(n: int) -> Iterator[Graph]:
    """Stream every free tree on n vertices, one per isomorphism class."""
    _check_n(n)
    return (_graph(n, tree) for tree in _trees(n, None))


def enumerate_molecular_trees(n: int) -> Iterator[Graph]:
    """Stream every tree on n vertices with maximum degree at most four,
    one per isomorphism class."""
    _check_n(n)
    return (_graph(n, tree) for tree in _trees(n, MOLECULAR_MAX_DEGREE))


def count_trees(n: int, *, molecular: bool = False) -> int:
    """Number of trees `enumerate_trees` (or, with `molecular`,
    `enumerate_molecular_trees`) streams, counted without building them."""
    _check_n(n)
    max_degree = MOLECULAR_MAX_DEGREE if molecular else None
    return sum(1 for _ in _trees(n, max_degree))


class _Extreme:
    """Running extreme of scaled so2 values, with every attaining tree in
    stream order."""

    def __init__(self, sign: int) -> None:
        self.sign = sign  # +1 tracks the maximum, -1 the minimum
        self.best: Optional[int] = None
        self.trees: list[_Tree] = []

    def offer(self, value: int, tree: _Tree) -> None:
        if self.best is None or (value - self.best) * self.sign > 0:
            self.best = value
            self.trees = [tree]
        elif value == self.best:
            self.trees.append(tree)

    def result(self, n: int, scale: int) -> tuple[Fraction, list[Graph]]:
        assert self.best is not None
        return (Fraction(self.best, scale),
                [_graph(n, tree) for tree in self.trees])


class So2Extremes(NamedTuple):
    """Exact so2 extremes over the trees of one order, each with every
    attaining tree in stream order."""

    minimum: tuple[Fraction, list[Graph]]
    maximum: tuple[Fraction, list[Graph]]
    molecular_maximum: tuple[Fraction, list[Graph]]


def so2_extremes(n: int, *, molecular: bool = False) -> So2Extremes:
    """Minimum and maximum of so2 over the trees on n vertices (with
    `molecular`, over the molecular ones only), and its maximum over the
    molecular ones (degree <= 4), all from a single pass."""
    _check_n(n)
    max_degree = MOLECULAR_MAX_DEGREE if molecular else None
    low, high, high_molecular = _Extreme(-1), _Extreme(+1), _Extreme(+1)
    for value, top, tree in _scored_trees(n, max_degree):
        low.offer(value, tree)
        high.offer(value, tree)
        if top <= MOLECULAR_MAX_DEGREE:
            high_molecular.offer(value, tree)
    scale, _ = _edge_terms(n, max_degree)
    return So2Extremes(low.result(n, scale), high.result(n, scale),
                       high_molecular.result(n, scale))


def argmax_so2(n: int, *,
               molecular: bool = False) -> tuple[Fraction, list[Graph]]:
    """Exact maximum of so2 over the tree class, with every attaining tree
    (rational ties are exact, so the list is the full argmax set)."""
    return so2_extremes(n, molecular=molecular).maximum


def argmin_so2(n: int, *,
               molecular: bool = False) -> tuple[Fraction, list[Graph]]:
    """Exact minimum of so2 over the tree class, with every attaining tree."""
    return so2_extremes(n, molecular=molecular).minimum
