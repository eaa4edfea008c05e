import random

import pytest

from sombor.graphs import (Graph, EdgeTypeProfile, degrees, edge_type_counts,
                           edge_type_profile, format_edge_list,
                           is_molecular_tree, is_tree, parse_edge_list)

from helpers import random_graph, shuffled_copy


def path(n):
    return Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])


def star(n):
    return Graph.from_edges(n, [(0, i) for i in range(1, n)])


class TestGraphConstruction:
    def test_from_edges_sorts_neighbors(self):
        g = Graph.from_edges(3, [(2, 1), (0, 2)])
        assert g.adjacency == ((2,), (2,), (0, 1))

    def test_rejects_nonpositive_n(self):
        with pytest.raises(ValueError):
            Graph(0, ())

    def test_rejects_self_loop(self):
        with pytest.raises(ValueError, match="self-loop"):
            Graph(2, ((0, 1), (0,)))

    def test_rejects_duplicate_neighbor(self):
        with pytest.raises(ValueError, match="duplicate"):
            Graph(2, ((1, 1), (0,)))

    def test_rejects_asymmetric_adjacency(self):
        with pytest.raises(ValueError, match="asymmetric"):
            Graph(2, ((1,), ()))

    def test_rejects_out_of_range_edge(self):
        with pytest.raises(ValueError):
            Graph.from_edges(2, [(0, 2)])

    def test_immutable(self):
        g = path(3)
        with pytest.raises(AttributeError):
            g.n = 5

    def test_edges_iteration(self):
        assert list(path(4).edges()) == [(0, 1), (1, 2), (2, 3)]
        assert path(4).edge_count == 3


class TestDegrees:
    def test_path_on_three(self):
        assert degrees(path(3)) == [1, 2, 1]

    def test_star_on_five(self):
        assert degrees(star(5)) == [4, 1, 1, 1, 1]

    def test_single_edge(self):
        assert degrees(path(2)) == [1, 1]

    def test_single_vertex(self):
        assert degrees(Graph(1, ((),))) == [0]


class TestTreePredicates:
    def test_path_is_tree(self):
        assert is_tree(path(5))

    def test_cycle_is_not_tree(self):
        c3 = Graph.from_edges(3, [(0, 1), (1, 2), (2, 0)])
        assert not is_tree(c3)

    def test_disconnected_is_not_tree(self):
        two_edges = Graph.from_edges(4, [(0, 1), (2, 3)])
        assert not is_tree(two_edges)

    def test_single_vertex_is_tree(self):
        assert is_tree(Graph(1, ((),)))
        assert is_molecular_tree(Graph(1, ((),)))

    def test_molecular_degree_cap(self):
        assert is_molecular_tree(star(5))
        assert not is_molecular_tree(star(6))
        assert is_molecular_tree(path(8))


class TestEdgeTypeProfile:
    def test_path_on_four(self):
        p = edge_type_profile(path(4))
        assert p.m == {(1, 2): 2, (2, 2): 1}
        assert p.degree_counts == {1: 2, 2: 2}
        assert p.n == 4

    def test_two_adjacent_quaternary_carbons(self):
        # two adjacent degree-4 vertices, each with three pendant leaves
        edges = [(0, 1)]
        edges += [(0, v) for v in (2, 3, 4)]
        edges += [(1, v) for v in (5, 6, 7)]
        p = edge_type_profile(Graph.from_edges(8, edges))
        assert p.m == {(1, 4): 6, (4, 4): 1}

    def test_family_zero_signature_at_twelve(self):
        from sombor.extremal import build_family_member
        p = edge_type_profile(build_family_member(0, 12))
        assert p.m == {(1, 4): 8, (2, 4): 2, (4, 4): 1}

    def test_count_accessor_normalizes_order(self):
        p = edge_type_profile(path(4))
        assert p.count(2, 1) == 2
        assert p.count(3, 7) == 0

    def test_invariants_on_random_graphs(self):
        rng = random.Random(7)
        for _ in range(300):
            n = rng.randint(1, 10)
            g = random_graph(rng, n, rng.uniform(0.1, 0.7))
            p = edge_type_profile(g)
            assert sum(p.m.values()) == g.edge_count
            assert sum(p.degree_counts.values()) == g.n
            assert sum(d * c for d, c in p.degree_counts.items()) == 2 * g.edge_count
            for i in set(p.degree_counts):
                incident = sum(c * ((a == i) + (b == i))
                               for (a, b), c in p.m.items())
                assert incident == i * p.degree_counts[i]

    def test_isomorphism_invariance(self):
        rng = random.Random(11)
        for _ in range(100):
            g = random_graph(rng, rng.randint(2, 9), 0.4)
            h = shuffled_copy(g, rng)
            assert edge_type_profile(g) == edge_type_profile(h)

    def test_counts_match_sorted_degree_pairs(self):
        rng = random.Random(13)
        for _ in range(200):
            g = random_graph(rng, rng.randint(1, 10), rng.uniform(0.0, 0.8))
            deg = degrees(g)
            want: dict = {}
            for u, v in g.edges():
                key = tuple(sorted((deg[u], deg[v])))
                want[key] = want.get(key, 0) + 1
            assert edge_type_counts(g) == want
            assert edge_type_profile(g).m == want

    def test_rejects_inconsistent_profile(self):
        with pytest.raises(ValueError):
            EdgeTypeProfile(m={(1, 2): 1}, degree_counts={1: 1, 2: 1}, n=2)
        with pytest.raises(ValueError, match="normalized"):
            EdgeTypeProfile(m={(2, 1): 1}, degree_counts={1: 1, 2: 1}, n=2)


class TestEdgeListFormat:
    def test_round_trip(self):
        g = star(5)
        assert parse_edge_list(format_edge_list(g)) == g

    def test_parse_basic(self):
        g = parse_edge_list("3 2\n0 1\n1 2\n")
        assert g == path(3)

    def test_parse_errors(self):
        with pytest.raises(ValueError, match="empty"):
            parse_edge_list("")
        with pytest.raises(ValueError, match="two integers"):
            parse_edge_list("a b\n")
        with pytest.raises(ValueError, match="expected 2 edge lines"):
            parse_edge_list("3 2\n0 1\n")
        with pytest.raises(ValueError, match="line 2"):
            parse_edge_list("2 1\n0 x\n")
        with pytest.raises(ValueError, match="out of range"):
            parse_edge_list("2 1\n0 5\n")
