import random
from collections import Counter
from fractions import Fraction
from functools import lru_cache

import pytest

from sombor.enumeration import (DEFAULT_MAX_N, _degree_counts, _edge_terms,
                                _graph, _molecular, _RootTerms, _tables,
                                _trees, argmax_so2, argmin_so2,
                                canonical_shape, count_trees,
                                enumerate_molecular_trees, enumerate_trees,
                                enumeration_cap, so2_extremes)
from sombor.graphs import Graph, degrees, is_molecular_tree, is_tree
from sombor.indices import KERNELS, so2

from helpers import (EDGE_KERNELS, FREE_TREE_COUNTS, MOLECULAR_TREE_COUNTS,
                     ahu_canonical, branch_by_definition, count_trees_dp,
                     reference_graph, shuffled_copy)


class TestCounts:
    def test_tiny_cases(self):
        assert sum(1 for _ in enumerate_trees(1)) == 1
        assert sum(1 for _ in enumerate_trees(4)) == 2
        assert sum(1 for _ in enumerate_trees(8)) == 23
        assert sum(1 for _ in enumerate_molecular_trees(5)) == 3
        assert sum(1 for _ in enumerate_molecular_trees(8)) == 18

    def test_known_sequences(self):
        for n in range(1, 13):
            assert sum(1 for _ in enumerate_trees(n)) == FREE_TREE_COUNTS[n - 1]
        for n in range(1, 14):
            assert (sum(1 for _ in enumerate_molecular_trees(n))
                    == MOLECULAR_TREE_COUNTS[n - 1])

    def test_second_method_recount(self):
        # independent multiset-composition count, including the n=12 case
        for n in range(1, 14):
            assert count_trees_dp(n) == FREE_TREE_COUNTS[n - 1]
            assert count_trees_dp(n, 4) == MOLECULAR_TREE_COUNTS[n - 1]
        assert (sum(1 for _ in enumerate_molecular_trees(12))
                == count_trees_dp(12, 4) == 355)

    def test_count_matches_stream_without_building_graphs(self):
        for n in range(1, 17):
            assert count_trees(n) == FREE_TREE_COUNTS[n - 1]
            assert (count_trees(n, molecular=True)
                    == MOLECULAR_TREE_COUNTS[n - 1])
        assert count_trees(9, molecular=True) == sum(
            1 for _ in enumerate_molecular_trees(9))
        with pytest.raises(ValueError, match="cap"):
            count_trees(DEFAULT_MAX_N + 1)

    def test_molecular_five_shapes(self):
        shapes = {tuple(sorted(degrees(g)))
                  for g in enumerate_molecular_trees(5)}
        assert shapes == {(1, 1, 2, 2, 2),      # path
                          (1, 1, 1, 2, 3),      # methylbutane skeleton
                          (1, 1, 1, 1, 4)}      # star


class TestStreamProperties:
    def test_everything_is_a_tree_of_right_order(self):
        for n in range(1, 11):
            for g in enumerate_trees(n):
                assert g.n == n and is_tree(g)

    def test_molecular_stream_respects_degree_cap(self):
        for n in range(1, 13):
            for g in enumerate_molecular_trees(n):
                assert is_molecular_tree(g)

    def test_no_two_emitted_trees_isomorphic(self):
        for n in range(1, 11):
            forms = [ahu_canonical(g) for g in enumerate_trees(n)]
            assert len(forms) == len(set(forms))

    def test_molecular_stream_equals_filtered_full_stream(self):
        for n in range(1, 11):
            full = {ahu_canonical(g) for g in enumerate_trees(n)
                    if max(degrees(g)) <= 4}
            molecular = {ahu_canonical(g) for g in enumerate_molecular_trees(n)}
            assert molecular == full

    def test_deterministic_order(self):
        first = [list(g.edges()) for g in enumerate_trees(9)]
        second = [list(g.edges()) for g in enumerate_trees(9)]
        assert first == second


def _size(shape):
    return 1 + sum(map(_size, shape))


def _kind(n, tree):
    """"edge" for a centroid-edge tree -- its last branch of vertex 0 is
    the other half, with n/2 nodes -- else "vertex"."""
    return "edge" if tree and 2 * _size(tree[-1]) == n else "vertex"


def _generated_shape(n, tree):
    """The shape the generator built: the centroid's branches, or for a
    centroid edge the shape rooted at the end with the larger half."""
    if _kind(n, tree) == "vertex":
        return tree
    low, high = sorted((tree[:-1], tree[-1]))
    return (high, *low)


@lru_cache(maxsize=None)
def _branch(shape, scale):
    """The shape oracle's (so2, root degree, max degree) of a branch,
    its so2 scaled by `scale`, which makes it an integer at the scale of
    the tables."""
    so2, degree, top = branch_by_definition(shape)
    so2 *= scale
    assert so2.denominator == 1
    return so2.numerator, degree, top


def _resum(n, scale, parts):
    """The sums the generator carries for the branch shapes `parts`,
    summed again from the shape oracle: their own so2 scaled by
    `scale`, and their root degrees packed as the sum of n ** degree."""
    records = [_branch(shape, scale) for shape in parts]
    return (sum(so2 for so2, _, _ in records),
            sum(n ** degree for _, degree, _ in records))


def _table_scale(max_children, n):
    return _edge_terms(n, None if max_children is None
                       else max_children + 1)[0]


class TestTables:
    @pytest.mark.parametrize("max_children", [None, 3])
    def test_children_rebuild_each_branch(self, max_children):
        for n in range(1, 17):
            scale = _table_scale(max_children, n)
            *_, children, parts = _tables(
                n, None if max_children is None else max_children + 1)
            assert len(parts) == len(children) == max(n // 2, 1) + 1
            for s in range(1, len(parts)):
                assert len(children[s]) == len(parts[s]) > 0
                for ((shape,), _, weight, _), (so2, code, kids) in (
                        zip(parts[s], children[s])):
                    assert (so2, code) == _resum(n, scale, kids)
                    assert shape == kids
                    assert _size(shape) == s
                    _, degree, _ = _branch(shape, scale)
                    assert weight == n ** degree == n ** (len(kids) + 1)

    @pytest.mark.parametrize("max_children", [None, 3])
    def test_part_rows_equal_the_shape_oracle(self, max_children):
        # a part row is (shape,), so2, n ** degree, rank, and its shape
        # is the tuple of its children's shapes
        for n in range(1, 17):
            scale = _table_scale(max_children, n)
            *_, children, parts = _tables(
                n, None if max_children is None else max_children + 1)
            for s in range(1, len(parts)):
                ranked = []
                for (one, so2, weight, rank), (*_, kids) in zip(
                        parts[s], children[s]):
                    assert one == (kids,)
                    b_so2, degree, _ = _branch(kids, scale)
                    assert (so2, weight) == (b_so2, n ** degree)
                    ranked.append((rank, kids))
                ranks = [rank for rank, _ in ranked]
                assert sorted(ranks) == list(range(len(ranked)))
                assert [shape for _, shape in sorted(ranked)] == sorted(
                    shape for _, shape in ranked)

    def test_molecular_equals_the_shape_oracle(self):
        # a branch is molecular when every node, its root counting the
        # edge to its parent, has degree <= 4
        kinds = Counter()
        for n in range(1, 17):
            *_, children, _ = _tables(n, None)
            for kids in children[1:]:
                for *_, shape in kids:
                    molecular = _molecular(shape)
                    assert molecular == (branch_by_definition(shape)[2] <= 4)
                    kinds[molecular] += 1
        assert kinds[True] > 0 and kinds[False] > 0


class TestCanonicalShape:
    def test_equals_generated_shape(self):
        rng = random.Random(5)
        kinds = Counter()
        for n in range(1, 15):
            for *_, tree in _trees(n, None):
                g = _graph(n, tree)
                expected = _generated_shape(n, tree)
                assert canonical_shape(g) == expected
                assert canonical_shape(shuffled_copy(g, rng)) == expected
                kinds[_kind(n, tree)] += 1
        assert sum(kinds.values()) == sum(FREE_TREE_COUNTS[:14])
        assert kinds["vertex"] > 0 and kinds["edge"] > 0

    def test_root_may_be_a_leaf(self):
        # n = 1: the root has no neighbour; n = 2: its one neighbour is
        # a child, not a parent
        assert canonical_shape(Graph(1, ((),))) == ()
        assert canonical_shape(Graph.from_edges(2, [(0, 1)])) == ((),)
        assert canonical_shape(Graph.from_edges(3, [(2, 0), (0, 1)])) == (
            (), ())

    def test_rejects_non_trees(self):
        cycle_plus_isolated = Graph.from_edges(4, [(0, 1), (1, 2), (2, 0)])
        for g in (cycle_plus_isolated, Graph.from_edges(3, [(0, 1)]),
                  Graph.from_edges(3, [(0, 1), (1, 2), (2, 0)])):
            with pytest.raises(ValueError, match="not a tree"):
                canonical_shape(g)


class TestLabelling:
    # every free tree with n <= 14 and every molecular tree with n <= 16
    ORDERS = [(n, None) for n in range(1, 15)] + [(n, 4) for n in range(1, 17)]

    def _check(self, orders):
        kinds = Counter()
        for n, max_degree in orders:
            for *_, tree in _trees(n, max_degree):
                g = _graph(n, tree)
                assert g == reference_graph(n, tree)
                # the edge text filled in from the memoised branch texts
                assert g._edge_text == " ".join(f"{u}-{v}"
                                                for u, v in g.edges())
                kinds[_kind(n, tree)] += 1
        assert kinds["vertex"] > 0 and kinds["edge"] > 0
        return sum(kinds.values())

    def test_memoised_rows_equal_vertex_by_vertex_labelling(self):
        total = self._check(self.ORDERS)
        assert total == sum(FREE_TREE_COUNTS[:14]) + sum(MOLECULAR_TREE_COUNTS)
        # largest orders first, so the shared rows first built for other
        # trees and offsets are reused by every smaller tree
        assert self._check(reversed(self.ORDERS)) == total


class TestCap:
    def test_rejects_over_default_cap(self):
        with pytest.raises(ValueError, match="cap"):
            enumerate_trees(DEFAULT_MAX_N + 1)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            enumerate_trees(0)

    def test_explicit_cap_argument(self, monkeypatch):
        # SOMBOR_MAX_N is the one cap source; no function takes a cap
        monkeypatch.setenv("SOMBOR_MAX_N", "8")
        with pytest.raises(ValueError, match="cap"):
            enumerate_molecular_trees(9)
        monkeypatch.setenv("SOMBOR_MAX_N", "19")
        assert sum(1 for _ in enumerate_trees(19)) > 0

    def test_env_override(self, monkeypatch):
        monkeypatch.setenv("SOMBOR_MAX_N", "5")
        assert enumeration_cap() == 5
        with pytest.raises(ValueError, match="cap"):
            enumerate_trees(6)
        monkeypatch.setenv("SOMBOR_MAX_N", "junk")
        with pytest.raises(ValueError, match="integer"):
            enumeration_cap()
        # int() reads the first three as 10, 3 and 3; only an optional
        # sign and ASCII digits are taken
        for raw in ("1_0", "\u0663", "\uff13", "0x0a", "1.0", "+-5", ""):
            monkeypatch.setenv("SOMBOR_MAX_N", raw)
            with pytest.raises(ValueError, match="^SOMBOR_MAX_N must be an "
                                                 "integer, got "):
                enumeration_cap()
        for raw, cap in ((" 7 ", 7), ("+7", 7), ("\t07\n", 7)):
            monkeypatch.setenv("SOMBOR_MAX_N", raw)
            assert enumeration_cap() == cap
        for raw in ("0", "-3", " -0 "):
            monkeypatch.setenv("SOMBOR_MAX_N", raw)
            with pytest.raises(ValueError, match="^SOMBOR_MAX_N must be "
                                                 "positive$"):
                enumerate_trees(1)


class TestExtremes:
    def test_molecular_maxima(self):
        value, _ = argmax_so2(8, molecular=True)
        assert value == Fraction(126 * 8 - 108, 170) == Fraction(90, 17)
        value, _ = argmax_so2(5, molecular=True)
        assert value == Fraction(126 * 5 - 30, 170) == Fraction(60, 17)
        value, _ = argmax_so2(7, molecular=True)
        assert value == Fraction(315 * 7 - 281, 425) == Fraction(1924, 425)

    def test_minimum_attained_only_by_path(self):
        value, attaining = argmin_so2(9)
        assert value == Fraction(6, 5)
        assert len(attaining) == 1
        assert sorted(degrees(attaining[0])) == [1, 1] + [2] * 7

    def test_tiny_minima(self):
        value, attaining = argmin_so2(3)
        assert value == Fraction(6, 5) and len(attaining) == 1
        value, attaining = argmin_so2(2)
        assert value == 0 and len(attaining) == 1

    def test_tie_pairs_among_octane_skeletons(self):
        # so2 of every 8-vertex molecular tree: exactly two exact tie pairs
        values = {}
        from sombor.indices import so2
        for g in enumerate_molecular_trees(8):
            values.setdefault(so2(g).exact, []).append(g)
        assert sorted(len(v) for v in values.values()).count(2) == 2

    def test_argmax_returns_all_attainers_on_ties(self):
        value, attaining = argmax_so2(14, molecular=True)
        assert value == Fraction(126 * 14 - 102, 170)
        assert len(attaining) > 1
        forms = {ahu_canonical(g) for g in attaining}
        assert len(forms) == len(attaining)
        from sombor.indices import so2
        assert all(so2(g).exact == value for g in attaining)


class TestShapeLevelSo2:
    """The searches evaluate so2 on canonical shapes in scaled integers;
    the graph-level `so2` is the oracle."""

    @pytest.mark.parametrize("max_degree, n_max", [(None, 12), (4, 14)])
    def test_every_tree_value_matches_graph_so2(self, max_degree, n_max):
        for n in range(1, n_max + 1):
            scale, terms = _edge_terms(n, max_degree)
            root_terms = _RootTerms(n, terms)
            for value, code, tree in _trees(n, max_degree):
                g = _graph(n, tree)
                assert Fraction(value + root_terms[code], scale) == (
                    so2(g).exact)
                assert (len(tree) <= 4 and all(map(_molecular, tree))) == (
                    max(degrees(g)) <= 4)

    @pytest.mark.parametrize("max_degree", [None, 4])
    def test_centroid_edge_value_is_both_halves_and_the_bridge(self,
                                                              max_degree):
        # vertex 0's branches (one half's children, then the other half)
        # sum to the two halves' own so2 plus the edge between them
        bridge = EDGE_KERNELS["so2"]
        for n in range(2, 17, 2):
            *_, parts = _tables(n, max_degree)
            scale, terms = _edge_terms(n, max_degree)
            root_terms = _RootTerms(n, terms)
            halves = [branch_by_definition(shape)
                      for (shape,), *_ in parts[n // 2]]
            expected = [(a_so2 + b_so2 + bridge(a_degree, b_degree),
                         max(a_top, b_top) <= 4)
                        for i, (a_so2, a_degree, a_top) in enumerate(halves)
                        for b_so2, b_degree, b_top in halves[i:]]
            assert [(Fraction(value + root_terms[code], scale),
                     len(tree) <= 4 and all(map(_molecular, tree)))
                    for value, code, tree in _trees(n, max_degree)
                    if _kind(n, tree) == "edge"] == expected

    @pytest.mark.parametrize("molecular, n_max", [(False, 12), (True, 14)])
    def test_attainer_sets_match_graph_level_brute_force(self, molecular,
                                                         n_max):
        for n in range(1, n_max + 1):
            stream = (enumerate_molecular_trees(n) if molecular
                      else enumerate_trees(n))
            forms_by_value = {}
            for g in stream:
                forms_by_value.setdefault(so2(g).exact, []).append(
                    ahu_canonical(g))
            for search, pick in ((argmin_so2, min), (argmax_so2, max)):
                value, attaining = search(n, molecular=molecular)
                assert value == pick(forms_by_value)
                assert (Counter(ahu_canonical(g) for g in attaining)
                        == Counter(forms_by_value[value]))

    @pytest.mark.parametrize("molecular", [False, True])
    def test_attainers_come_in_stream_order(self, molecular):
        # each attainer list is the stream filtered by value, in order and
        # with the stream's labels; n = 14 is the first order with two
        # maximizers, so the free case checks an order too
        for n in range(1, 15):
            stream = (enumerate_molecular_trees(n) if molecular
                      else enumerate_trees(n))
            scored = [(so2(g).exact, max(degrees(g)), list(g.edges()))
                      for g in stream]
            extremes = so2_extremes(n, molecular=molecular)
            for (value, attaining), pool in (
                    (extremes.minimum, scored),
                    (extremes.maximum, scored),
                    (extremes.molecular_maximum,
                     [s for s in scored if s[1] <= 4])):
                assert [list(g.edges()) for g in attaining] == [
                    edges for exact, _, edges in pool if exact == value]

    def test_single_pass_extremes_match_the_searches(self):
        def edge_lists(result):
            return result[0], [list(g.edges()) for g in result[1]]

        for n in range(1, 18):
            extremes = so2_extremes(n)
            assert edge_lists(extremes.minimum) == edge_lists(argmin_so2(n))
            assert edge_lists(extremes.maximum) == edge_lists(argmax_so2(n))
            assert (edge_lists(extremes.molecular_maximum)
                    == edge_lists(argmax_so2(n, molecular=True)))


class TestCarriedSums:
    """`_trees` carries each tree's sums with the prefix it extends; a
    re-summation over the tree's parts, and the per-tree scan the carried
    sums replace, are the oracles."""

    @pytest.mark.parametrize("max_degree", [None, 3, 4, 5])
    def test_carried_sums_equal_a_resummation(self, max_degree):
        for n in range(1, 15):
            scale, _ = _edge_terms(n, max_degree)
            count = 0
            for so2, code, tree in _trees(n, max_degree):
                assert (so2, code) == _resum(n, scale, tree)
                count += 1
            assert count == count_trees_dp(n, max_degree)

    @staticmethod
    def _reference_extremes(n, molecular):
        """`so2_extremes` by summing each tree over its branches, each
        with its edge to vertex 0, then filtering the stream by value."""
        max_degree = 4 if molecular else None
        scale, terms = _edge_terms(n, max_degree)
        scored = []
        for *_, tree in _trees(n, max_degree):
            row = terms[len(tree)]
            records = [_branch(shape, scale) for shape in tree]
            scored.append((sum(so2 + row[degree]
                               for so2, degree, _ in records),
                           max([len(tree)] + [top for *_, top in records]),
                           tree))
        result = []
        for pool, pick in ((scored, min), (scored, max),
                           ([s for s in scored if s[1] <= 4], max)):
            best = pick(value for value, _, _ in pool)
            result.append((Fraction(best, scale),
                           [list(_graph(n, tree).edges())
                            for value, _, tree in pool if value == best]))
        return result

    @pytest.mark.parametrize("molecular, n_max", [(False, 16), (True, 17)])
    def test_scan_equals_the_per_tree_loop(self, molecular, n_max):
        for n in range(1, n_max + 1):
            extremes = so2_extremes(n, molecular=molecular)
            assert [(value, [list(g.edges()) for g in attaining])
                    for value, attaining in extremes] == (
                self._reference_extremes(n, molecular))

    @pytest.mark.parametrize("molecular", [False, True])
    def test_scans_share_the_tables_root_terms(self, molecular):
        # W is kept with the table for its order and cap: a second scan
        # adds no entry, and every entry is a fresh lookup's value
        max_degree = 4 if molecular else None
        for n in range(1, 13):
            so2_extremes(n, molecular=molecular)
            scale, root_terms, _, _ = _tables(n, max_degree)
            filled = dict(root_terms)
            assert set(filled) == {code for _, code, _
                                   in _trees(n, max_degree)}
            so2_extremes(n, molecular=molecular)
            assert root_terms == filled
            fresh_scale, terms = _edge_terms(n, max_degree)
            fresh = _RootTerms(n, terms)
            assert scale == fresh_scale
            assert all(fresh[code] == value for code, value in filled.items())

    def test_packed_degrees_decode_exactly_at_large_order(self):
        # a raised SOMBOR_MAX_N: at n = 40 a root has up to 39 parts, so
        # every count is a base-40 digit, up to 39 in the top one
        base = 40
        rng = random.Random(16)
        cases = [{39: 39}, {1: 39}, {1: 30, 2: 5, 3: 3, 39: 1},
                 {d: 1 for d in range(1, 40)}]
        for _ in range(300):
            cases.append(Counter(rng.randint(1, base - 1)
                                 for _ in range(rng.randint(1, base - 1))))
        # row k, column d of these terms tell the root degree k and the
        # part degree d apart
        terms = [[1000 * k + d for d in range(base)]
                 for k in range(base + 1)]
        codes = set()
        for counts in cases:
            code = sum(c * base ** d for d, c in counts.items())
            decoded = _degree_counts(code, base)
            assert {d: c for d, c in enumerate(decoded) if c} == dict(counts)
            codes.add(code)
            k = sum(counts.values())
            for extra in (0, 1):
                assert _RootTerms(base, terms, extra)[code] == sum(
                    c * (1000 * (k + extra) + d) for d, c in counts.items())
        assert len(codes) == len({frozenset(c.items()) for c in cases})
        # the star on 40 vertices: 39 leaves at root degree 39
        scale, real = _edge_terms(base, None)
        assert Fraction(_RootTerms(base, real)[39 * base], scale) == (
            39 * KERNELS["so2"](39, 1))
