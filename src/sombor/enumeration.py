"""Exhaustive generation of pairwise non-isomorphic free trees, and
exact so2 extremes evaluated on their canonical shapes.

Canonical construction via centroid decomposition: a free tree either
has a unique centroid vertex (every component of T - c has at most
floor((n-1)/2) vertices) or, for even n, a unique centroid edge whose
removal splits it into two halves of exactly n/2 vertices.  A rooted
subtree ("branch") is its canonical shape: the nested tuple of its
children's shapes, sorted in decreasing order.  One memoised table per
(order, degree cap) lists every branch of each size up to order // 2,
built bottom up, with its shape's rank among the shapes of its size.
A tree is one form, the tuple of the shapes of vertex 0's branches:
the multiset of branches below the centroid, or, for an unordered pair
of half-size branches across the centroid edge, the first half's
children followed by the second half.
Trees (and branches) are generated by extending a shared prefix: each
branch is appended once to the prefix that all its extensions share,
and the trailing leaves are added in one step (a single one with the
part before it, one recursion level early).  Which branches may
follow a part of the same size is decided by comparing the ranks of
their shapes, integers sorted once per table.  Each isomorphism class
is produced exactly once, with no post-hoc isomorphism filtering.
``canonical_shape`` computes the same shape for any labelled tree, so
it is the one canonical form of a tree: canonical SMILES
(``chem.alkane_to_smiles``) are written from it.  It walks the tree
once: one BFS from vertex 0 and one bottom-up pass give each vertex its
branch, then the root descends from vertex 0 to a centroid, rerooting
each vertex it leaves as a branch of the next.

Every enumeration -- the ``Graph`` streams, the counts and the so2
scan -- starts at ``_trees``, which checks the order once, against 1
and ``enumeration_cap()``, before any table is read or built.

A maximum-degree cap is applied while generating (branch nodes get at
most cap-1 children, the centroid at most cap), so restricting to
molecular trees (degree <= 4) never touches the larger unrestricted
space.

so2 is a sum of per-edge terms that depend only on the endpoint degrees,
so it is evaluated on the shapes themselves.  The table lists with each
branch its root degree and the so2 of its own edges, scaled by L, the
lcm of the so2 terms' denominators over the degree pairs i + j <= n
possible at order n, so every edge term is an integer.  The generator
carries two integers with the prefix, each grown once per appended
part: the sum of the parts' own so2, and their root degrees packed as
the sum of n ** degree (exact, since a root has at most n - 1 parts).
The edges to the root depend on its degree, known only when the
multiset closes, but that is the digit sum of the packed degrees; so a
tree's value is the carried sum plus W[packed degrees], and the value
is divided by L once.  W is a dict filled on first use of each degree
multiset and kept with the table for the order and the cap, so later
scans of the same trees reuse it; the table holds L too.  A branch's
own so2 is read from the same sums over its children, its root having
one more edge, to its parent.
``so2_extremes`` is the one so2 scan; ``argmax_so2`` and ``argmin_so2``
are views of it.  Its molecular maximum tests molecular-ness per branch
shape, memoised, and only on the trees whose value could still set that
maximum and whose vertex 0 has at most four branches: at n = 15, 232 of
the 7,741 free trees (3.0 %), at n = 18, 3,125 of 123,867 (2.5 %).
Only the trees a caller asks for -- the streamed ones, or the attainers
of an extreme -- are built as ``Graph``s, labelled depth first from
vertex 0.  A branch hung from vertex 0 at a given first label always
gets the same sorted neighbour rows and the same edges, so those rows
and the edges' text are memoised per (shape, first label).  A tree's
adjacency is vertex 0's row followed by its branches' rows, and
its edge text, which the ``Graph`` keeps for whoever writes it, is
vertex 0's edges followed by its branches' texts; every ``Graph`` is
still validated as it is built.  The same generator drives the ``Graph``
streams, the counts and the so2 scan, so all of them see the same trees
in the same order with the same vertex labels.
"""

from __future__ import annotations

import math
import os
import sys
from fractions import Fraction
from functools import cache
from itertools import chain
from typing import Iterator, NamedTuple, Optional, Sequence

from .graphs import MOLECULAR_MAX_DEGREE, Graph, _bfs, ascii_int
# so2 stays importable from this module
from .indices import KERNELS, so2  # noqa: F401

DEFAULT_MAX_N = 18

# a Shape is a tuple of child Shapes, sorted decreasingly by (size,
# shape); () is a single vertex
Shape = tuple


# a generated tree: the shapes of vertex 0's branches -- the centroid's,
# or across a centroid edge one half's children followed by the other
# half
_Tree = tuple


def enumeration_cap() -> int:
    """Largest n the enumerators accept; SOMBOR_MAX_N overrides the
    default.  It takes an optional sign and ASCII digits only, with
    surrounding whitespace: no digit separators or non-ASCII digits."""
    raw = os.environ.get("SOMBOR_MAX_N")
    if raw is None:
        return DEFAULT_MAX_N
    try:
        cap = ascii_int(raw)
    except ValueError:
        raise ValueError(
            f"SOMBOR_MAX_N must be an integer, got {raw!r}") from None
    if cap < 1:
        raise ValueError("SOMBOR_MAX_N must be positive")
    return cap


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


def _degree_counts(code: int, base: int) -> list[int]:
    """``counts[d]``: how many parts of root degree d the packed degree
    multiset `code` = sum of base ** degree over the parts holds.  Every
    count is below `base`, so the packing is exact: a root has at most
    order - 1 parts, and the base is the order."""
    counts = []
    while code:
        code, count = divmod(code, base)
        counts.append(count)
    return counts


class _RootTerms(dict):
    """Packed degree multiset of a root's parts -> L times the so2 of
    the root's edges to them.  The root's degree is the number of parts,
    plus `extra` edges to a parent (1 for a branch).  Each value is
    computed on first use."""

    def __init__(self, base: int, terms: Sequence[Sequence[Optional[int]]],
                 extra: int = 0) -> None:
        super().__init__()
        self.base, self.terms, self.extra = base, terms, extra

    def __missing__(self, code: int) -> int:
        counts = _degree_counts(code, self.base)
        row = self.terms[sum(counts) + self.extra]
        self[code] = value = sum([count * row[degree]
                                  for degree, count in enumerate(counts)
                                  if count])
        return value


# a bound no shape rank reaches
_UNBOUNDED = sys.maxsize

# what `_multisets` yields: the parts' own scaled so2 summed, their root
# degrees packed as the sum of order ** degree, and the parts' shapes
_Carried = tuple[int, int, tuple[Shape, ...]]

# a branch as `_multisets` appends it: (shape,), the scaled so2 of its
# own edges, its digit order ** degree (its degree counts the edge to
# its parent), and the rank of its shape among the shapes of its size
# (shapes compare as tuples)
_Part = tuple[tuple[Shape], int, int, int]


@cache
def _tables(order: int, max_degree: Optional[int]
            ) -> tuple[int, _RootTerms, tuple[tuple[_Carried, ...], ...],
                       tuple[tuple[_Part, ...], ...]]:
    """Everything that depends on the order and the degree cap (None =
    unbounded) of the trees: their scale L; W, the `_RootTerms` of a
    tree's root, which every so2 scan of these trees fills and reuses;
    ``children[s]``, every canonical branch with s nodes, s <= order //
    2, in which every node has at most `max_degree` - 1 children, as
    `_multisets` yields its children, whose shapes are the branch's
    shape; and ``parts[s]``, each one as a `_Part`, its so2 scaled by L.
    Both in the same order, built bottom up, size s from the multisets
    of smaller ones."""
    scale, terms = _edge_terms(order, max_degree)
    branch_terms = _RootTerms(order, terms, 1)
    children = [(), ((0, 0, ()),)]
    parts = [(), ((((),), 0, order, 0),)]
    for size in range(2, order // 2 + 1):
        # size - 1 nodes below the root make at most size - 1 children
        cap = size - 1 if max_degree is None else max_degree - 1
        kids = tuple(_multisets((), 0, 0, size - 1, size - 1, cap, parts,
                                _UNBOUNDED))
        rank = {shape: r for r, shape in
                enumerate(sorted(shape for *_, shape in kids))}
        children.append(kids)
        parts.append(tuple(((shape,), so2 + branch_terms[code],
                            order ** (len(shape) + 1), rank[shape])
                           for so2, code, shape in kids))
    return scale, _RootTerms(order, terms), tuple(children), tuple(parts)


def _multisets(prefix: tuple[Shape, ...], so2: int, code: int, total: int,
               max_size: int, max_parts: int,
               parts: Sequence[tuple[_Part, ...]],
               bound: int) -> Iterator[_Carried]:
    """`prefix` followed by each multiset of at most `max_parts` of the
    branches in `parts` with the given total size, sorted decreasingly
    by (size, shape), with its carried sums (see `_Carried`); `so2` and
    `code` are the prefix's.  A first part of `max_size` nodes
    ranks at most `bound`.  Each part is appended once to the prefix all
    its extensions share, and adds to the sums they share once; the
    trailing leaves come in one step."""
    for s in range(min(max_size, total), 1, -1):
        limit = bound if s == max_size else _UNBOUNDED
        if s == total:
            for one, b_so2, weight, rank in parts[s]:
                if rank <= limit:
                    yield so2 + b_so2, code + weight, prefix + one
        elif max_parts == 1:
            continue
        elif s == total - 1:
            # only a leaf can follow: add it here, not one level down
            leaf, _, leaf_weight, _ = parts[1][0]
            for one, b_so2, weight, rank in parts[s]:
                if rank <= limit:
                    yield (so2 + b_so2, code + weight + leaf_weight,
                           prefix + one + leaf)
        else:
            for one, b_so2, weight, rank in parts[s]:
                if rank <= limit:
                    yield from _multisets(prefix + one, so2 + b_so2,
                                          code + weight, total - s, s,
                                          max_parts - 1, parts, rank)
    # only leaves can follow; at n = 2 the root takes no part smaller
    # than n/2 (max_size 0), and at n = 1 none at all
    if total <= max_parts and (max_size > 0 or total == 0):
        leaf, _, leaf_weight, _ = parts[1][0]
        yield so2, code + total * leaf_weight, prefix + leaf * total


def _pairs(children: Sequence[_Carried], halves: Sequence[_Part]
           ) -> Iterator[_Carried]:
    """The centroid-edge trees: each unordered pair of half-size
    branches, given by `children` and `halves` in table order, as the
    first one's children followed by the second one."""
    for i, (so2, code, below) in enumerate(children):
        for one, b_so2, weight, _ in halves[i:]:
            yield so2 + b_so2, code + weight, below + one


def _trees(n: int, max_degree: Optional[int]) -> Iterator[_Carried]:
    """Every tree on n vertices with degrees at most `max_degree`, once
    per isomorphism class, in a fixed order, as the shapes of vertex 0's
    branches with their carried sums (see `_Carried`).  The one door to
    every enumeration: it refuses an order below 1 or over the cap
    before any table is read or built, and, being no generator itself,
    at once when called."""
    _check_n(n)
    root_cap = n - 1 if max_degree is None else max_degree
    *_, children, parts = _tables(n, max_degree)
    # unique-centroid trees: all branches strictly smaller than n/2
    trees = _multisets((), 0, 0, n - 1, (n - 1) // 2, root_cap, parts,
                       _UNBOUNDED)
    if n % 2:
        return trees
    # then the centroid-edge trees, the first half's root as vertex 0
    return chain(trees, _pairs(children[n // 2], parts[n // 2]))


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
    for shape in tree:
        roots.append(len(adjacency))
        rows, text = _rows(shape, len(adjacency))
        adjacency.extend(rows)
        texts.append(text)
    adjacency[0] = roots = tuple(roots)
    g = Graph(n, tuple(adjacency))
    vars(g)["_edge_text"] = _hanging(roots) + "".join(texts)
    return g


def _join(children: list[tuple[int, Shape]]) -> tuple[int, Shape]:
    """The (size, shape) of a branch over `children`, (size, shape)
    pairs that this sorts decreasingly in place: the one statement of
    the child-order rule."""
    children.sort(reverse=True)
    return 1 + sum([k for k, _ in children]), tuple([s for _, s in children])


def canonical_shape(g: Graph) -> Shape:
    """The generator's shape for the isomorphism class of the tree `g`:
    rooted at the centroid (for a centroid edge, at the end that gives
    the larger shape), children sorted decreasingly by (size, shape).
    One walk: every vertex's (size, shape) is built bottom up from one
    BFS from vertex 0.  Then the root descends from vertex 0 into the
    neighbour whose side holds more than n/2 vertices, rerooting each
    vertex it leaves as a branch of the next, until no side does: that
    vertex is a centroid, and its neighbours' branches are its
    children.  Built without recursion, though comparing two deep
    shapes can still exceed the interpreter's recursion limit."""
    n, adjacency = g.n, g.adjacency
    order, parent = _bfs(g, 0)
    if len(order) != n or g.edge_count != n - 1:
        raise ValueError("not a tree")
    branch = [(1, ())] * n  # a leaf keeps (1, ())
    for v in reversed(order):
        if len(adjacency[v]) > 1 or v == 0:
            branch[v] = _join([branch[u] for u in adjacency[v]
                               if u != parent[v]])
    v = 0
    while heavy := [u for u in adjacency[v] if 2 * branch[u][0] > n]:
        # v, seen from heavy[0]: everything but the heavy side
        branch[v] = _join([branch[u] for u in adjacency[v] if u != heavy[0]])
        v = heavy[0]
    children = [branch[u] for u in adjacency[v]]
    root = _join(children)[1]
    if children and 2 * children[0][0] == n:
        # a centroid edge: the other end's half comes first
        half, rest = root[0], root[1:]
        if rest > half:
            return (rest, *half)
    return root


@cache
def _molecular(shape: Shape) -> bool:
    """Whether every node of the branch `shape` has degree at most
    MOLECULAR_MAX_DEGREE, its root counting the edge to its parent."""
    return len(shape) < MOLECULAR_MAX_DEGREE and all(map(_molecular, shape))


def _check_n(n: int) -> None:
    cap = enumeration_cap()
    if n < 1:
        raise ValueError("n must be positive")
    if n > cap:
        raise ValueError(f"n={n} exceeds the enumeration cap {cap}")


def enumerate_trees(n: int) -> Iterator[Graph]:
    """Stream every free tree on n vertices, one per isomorphism class."""
    return (_graph(n, tree) for _, _, tree in _trees(n, None))


def enumerate_molecular_trees(n: int) -> Iterator[Graph]:
    """Stream every tree on n vertices with maximum degree at most four,
    one per isomorphism class."""
    return (_graph(n, tree) for _, _, tree in _trees(n, MOLECULAR_MAX_DEGREE))


def count_trees(n: int, *, molecular: bool = False) -> int:
    """Number of trees `enumerate_trees` (or, with `molecular`,
    `enumerate_molecular_trees`) streams, counted without building them."""
    max_degree = MOLECULAR_MAX_DEGREE if molecular else None
    return sum(1 for _ in _trees(n, max_degree))


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
    max_degree = MOLECULAR_MAX_DEGREE if molecular else None
    trees = _trees(n, max_degree)  # refuses a bad n before any table
    scale, root_terms, _, _ = _tables(n, max_degree)
    # running extremes of the scaled values (all >= 0) and their
    # attainers in stream order
    low, high, high_molecular = math.inf, -1, -1
    lows, highs, highs_molecular = [], [], []
    for so2, code, tree in trees:
        value = so2 + root_terms[code]
        if value <= low:
            if value < low:
                low, lows = value, []
            lows.append(tree)
        if value >= high:
            if value > high:
                high, highs = value, []
            highs.append(tree)
        if (value >= high_molecular and len(tree) <= MOLECULAR_MAX_DEGREE
                and all(map(_molecular, tree))):
            if value > high_molecular:
                high_molecular, highs_molecular = value, []
            highs_molecular.append(tree)

    def result(best: int, trees: list[_Tree]) -> tuple[Fraction, list[Graph]]:
        return Fraction(best, scale), [_graph(n, tree) for tree in trees]

    return So2Extremes(result(low, lows), result(high, highs),
                       result(high_molecular, highs_molecular))


def argmax_so2(n: int, *,
               molecular: bool = False) -> tuple[Fraction, list[Graph]]:
    """Exact maximum of so2 over the tree class, with every attaining tree
    (rational ties are exact, so the list is the full argmax set)."""
    return so2_extremes(n, molecular=molecular).maximum


def argmin_so2(n: int, *,
               molecular: bool = False) -> tuple[Fraction, list[Graph]]:
    """Exact minimum of so2 over the tree class, with every attaining tree."""
    return so2_extremes(n, molecular=molecular).minimum
