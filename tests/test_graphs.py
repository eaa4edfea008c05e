import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sombor.graphs import (Graph, EdgeTypeProfile, _adjacency_problem, degrees,
                           edge_type_counts, edge_type_profile,
                           format_edge_list, is_molecular_tree, is_tree,
                           parse_edge_list)

from helpers import random_graph, shuffled_copy, simple_graphs


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

    def test_rejects_adjacency_of_the_wrong_length(self):
        with pytest.raises(ValueError, match="^adjacency length does not "
                                             "match vertex count$"):
            Graph(2, ((),))

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

    def test_rejects_unsorted_adjacency(self):
        # accepted, this graph would list its edges as (0, 2), (0, 1) and
        # differ from its from_edges twin
        with pytest.raises(ValueError, match="adjacency of vertex 0 is not sorted"):
            Graph(3, ((2, 1), (0,), (0,)))
        assert Graph(3, ((1, 2), (0,), (0,))) == Graph.from_edges(3, [(0, 2), (0, 1)])

    def test_negative_neighbor_is_out_of_range(self):
        with pytest.raises(ValueError, match="neighbor -1 of vertex 0 out of range"):
            Graph(2, ((-1,), (0,)))
        with pytest.raises(ValueError, match="out of range"):
            Graph(2, ((1, -1), (0,)))

    def test_from_edges_names_a_self_loop(self):
        with pytest.raises(ValueError, match="self-loop at vertex 0"):
            Graph.from_edges(2, [(0, 0)])

    def test_immutable(self):
        g = path(3)
        with pytest.raises(AttributeError):
            g.n = 5

    def test_edges_iteration(self):
        assert list(path(4).edges()) == [(0, 1), (1, 2), (2, 3)]
        assert path(4).edge_count == 3


# adjacencies with exactly one defect, and the message naming it
SINGLE_DEFECTS = [
    ("negative id", 2, ((-1, 1), (0,)), "neighbor -1 of vertex 0 out of range"),
    ("id >= n", 2, ((1, 2), (0,)), "neighbor 2 of vertex 0 out of range"),
    ("self-loop", 2, ((0, 1), (0,)), "self-loop at vertex 0"),
    ("adjacent duplicate", 3, ((1, 2, 2), (0,), (0,)),
     "duplicate neighbor in adjacency of vertex 0"),
    ("unsorted", 3, ((2, 1), (0,), (0,)), "adjacency of vertex 0 is not sorted"),
    ("asymmetric, listed upward", 3, ((1, 2), (0,), ()), "asymmetric edge 0-2"),
    ("asymmetric, listed downward", 3, ((1,), (0,), (0,)),
     "asymmetric edge 2-0"),
    # listed at both ends, so every entry has a partner in the other row
    ("duplicate at both ends", 2, ((1, 1), (0, 0)),
     "duplicate neighbor in adjacency of vertex 0"),
    ("doubled self-loop", 1, ((0, 0),), "self-loop at vertex 0"),
]


def _perturbed(draw, g):
    """g's adjacency with at most one random change; "insert" may add
    the id twice, and "mirror" duplicates an edge at both its ends."""
    rows = [list(nbrs) for nbrs in g.adjacency]
    v = draw(st.integers(0, g.n - 1))
    row = rows[v]
    kind = draw(st.sampled_from(
        ["none", "insert", "remove", "swap", "duplicate", "mirror", "replace"]))
    if kind == "insert":
        i, u = draw(st.integers(0, len(row))), draw(st.integers(-2, g.n + 1))
        row[i:i] = [u] * draw(st.integers(1, 2))
    elif row and kind != "none":
        i = draw(st.integers(0, len(row) - 1))
        if kind == "remove":
            del row[i]
        elif kind == "swap" and i + 1 < len(row):
            row[i], row[i + 1] = row[i + 1], row[i]
        elif kind == "duplicate":
            row.insert(i, row[i])
        elif kind == "mirror":
            rows[row[i]].insert(rows[row[i]].index(v), v)
            row.insert(i, row[i])
        elif kind == "replace":
            row[i] = draw(st.integers(-2, g.n + 1))
    return tuple(map(tuple, rows))


class TestValidation:
    @pytest.mark.parametrize("n, adjacency, message",
                             [case[1:] for case in SINGLE_DEFECTS],
                             ids=[case[0] for case in SINGLE_DEFECTS])
    def test_single_defect_names_it(self, n, adjacency, message):
        assert _adjacency_problem(n, adjacency) == message
        with pytest.raises(ValueError) as raised:
            Graph(n, adjacency)
        assert str(raised.value) == message

    def test_rows_are_checked_before_symmetry(self):
        # 0-1 is listed one way only, and vertex 2 lists an id out of
        # range: every row is checked entry by entry before symmetry
        with pytest.raises(ValueError,
                           match="^neighbor 5 of vertex 2 out of range$"):
            Graph(3, ((1,), (), (5,)))

    def test_star_missing_one_end_of_an_edge(self):
        n = 200
        star = Graph.from_edges(n, [(0, v) for v in range(1, n)])
        rows = list(star.adjacency)
        rows[0] = rows[0][:-1]
        with pytest.raises(ValueError, match=f"^asymmetric edge {n - 1}-0$"):
            Graph(n, tuple(rows))
        rows[n - 1] = ()
        assert Graph(n, tuple(rows)) == Graph.from_edges(
            n, [(0, v) for v in range(1, n - 1)])

    @settings(deadline=None, max_examples=300)
    @given(st.data(), simple_graphs(max_n=8))
    def test_accepts_exactly_what_the_two_pass_check_accepts(self, data, g):
        # _adjacency_problem is the entry-by-entry, then set-based,
        # validator that names a defect; the one-pass check must reject
        # exactly the adjacencies it finds a defect in
        adjacency = _perturbed(data.draw, g)
        problem = _adjacency_problem(g.n, adjacency)
        if not problem:
            assert Graph(g.n, adjacency).adjacency == adjacency
        else:
            with pytest.raises(ValueError) as raised:
                Graph(g.n, adjacency)
            assert str(raised.value) == problem


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

    def test_each_count_call_returns_a_fresh_dict(self):
        g = path(5)
        first, second = edge_type_counts(g), edge_type_counts(g)
        assert first == second == {(1, 2): 2, (2, 2): 2}
        assert first is not second
        assert edge_type_profile(g).m is not edge_type_profile(g).m

    def test_counted_graph_keeps_equality_hash_and_repr(self):
        from sombor.indices import INDEX_NAMES, index_by_name
        rng = random.Random(19)
        for _ in range(50):
            g = random_graph(rng, rng.randint(1, 10), rng.uniform(0.0, 0.8))
            for name in INDEX_NAMES:
                index_by_name(g, name)
            h = Graph.from_edges(g.n, g.edges())
            assert g == h
            assert hash(g) == hash(h)
            assert repr(g) == repr(h)

    def test_rejects_inconsistent_profile(self):
        with pytest.raises(ValueError):
            EdgeTypeProfile(m={(1, 2): 1}, degree_counts={1: 1, 2: 1}, n=2)
        with pytest.raises(ValueError, match="normalized"):
            EdgeTypeProfile(m={(2, 1): 1}, degree_counts={1: 1, 2: 1}, n=2)
        with pytest.raises(ValueError, match="^negative count or degree"):
            EdgeTypeProfile(m={(1, 1): -1}, degree_counts={1: 2}, n=2)
        with pytest.raises(ValueError, match="^negative degree count$"):
            EdgeTypeProfile(m={(1, 1): 1}, degree_counts={1: 3, 2: -1}, n=2)
        with pytest.raises(ValueError, match="^degree counts do not sum to "
                                             "vertex count$"):
            EdgeTypeProfile(m={(1, 1): 1}, degree_counts={1: 2}, n=3)


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

    def test_parse_names_the_line_of_a_bad_edge(self):
        with pytest.raises(ValueError, match="line 3: edge 1-5 out of range for n=3"):
            parse_edge_list("3 2\n0 1\n1 5\n")
        with pytest.raises(ValueError, match="line 2: edge -1-0 out of range"):
            parse_edge_list("3 2\n-1 0\n1 2\n")
        with pytest.raises(ValueError, match="line 3: self-loop at vertex 2"):
            parse_edge_list("3 2\n0 1\n2 2\n")
        with pytest.raises(ValueError, match="line 4: repeated edge 1-0"):
            parse_edge_list("3 3\n0 1\n1 2\n1 0\n")
        with pytest.raises(ValueError, match='^line 3: expected "u v"$'):
            parse_edge_list("3 2\n0 1\n1 2 0\n")
        # blank lines count: the number is the line's place in the text
        with pytest.raises(ValueError, match="line 4: edge 1-5 out of range"):
            parse_edge_list("3 2\n\n0 1\n1 5\n")

    @pytest.mark.parametrize("separator", ["\x0c", "\u2028"])
    def test_lines_end_at_newline_only(self, separator):
        # a form feed or a line separator is blank space, not a line end,
        # so the numbers agree with the file's "\n" count
        with pytest.raises(ValueError,
                           match="^line 4: vertex ids must be integers$"):
            parse_edge_list(f"3 2\n0 1\n{separator}\n1 x\n")
        assert parse_edge_list(f"3 2\n0 1{separator}\n1 2\n") == path(3)

    def test_crlf_line_ends(self):
        assert parse_edge_list("3 2\r\n0 1\r\n\r\n1 2\r\n") == path(3)
        with pytest.raises(ValueError,
                           match="^line 4: vertex ids must be integers$"):
            parse_edge_list("3 2\r\n0 1\r\n\r\n1 x\r\n")

    @pytest.mark.parametrize("text, message", [
        ("3 2\r0 1\r1 2\r", 'line 1: header must be "n m"'),
        ("3 2\n0 1\r1 2\n", "line 2: expected 2 edge lines, found 1"),
        ("3 2\n0 1\n1\rx\n", "line 3: vertex ids must be integers"),
    ], ids=["header", "edge-count", "edge"])
    def test_bare_carriage_returns_are_named(self, text, message):
        # a CR not before "\n" is no line end, so it joins lines; the
        # message says so
        with pytest.raises(ValueError) as excinfo:
            parse_edge_list(text)
        assert str(excinfo.value) == (
            f'{message} (lines end at "\\n"; this line holds a bare '
            f'carriage return)')

    @pytest.mark.parametrize("text, message", [
        ("3 -1\n", "line 1: edge count must not be negative"),
        ("-2 0\n", "line 1: vertex count must be positive"),
        # leading blank lines are skipped, but they count
        ("\n \n0 0\n", "line 3: vertex count must be positive"),
        ("\n\na b\n", 'line 3: header must contain two integers "n m"'),
        ("\n\t\n\n4\n", 'line 4: header must be "n m"'),
    ])
    def test_parse_names_the_line_of_an_impossible_header(self, text,
                                                          message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            parse_edge_list(text)
