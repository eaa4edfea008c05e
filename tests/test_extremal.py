import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings

from sombor.enumeration import argmax_so2, enumerate_molecular_trees
from sombor.extremal import (FAMILIES, InconsistentProfileError,
                             build_family_member, build_path, build_star,
                             degree_three_edge_splits, degree_three_penalty,
                             is_in_family, molecular_so2_max,
                             solve_degree_system, so2_via_degree_system,
                             tree_so2_bounds, verify_extremal_bounds)
from sombor.graphs import EdgeTypeProfile, Graph, degrees, edge_type_profile
from sombor.indices import so2, so2_from_profile

from helpers import (molecular_trees, random_tree,
                     solve_degree_system_by_elimination)


class TestBuilders:
    def test_path_value(self):
        assert so2(build_path(8)).exact == Fraction(6, 5)

    def test_star_value(self):
        assert so2(build_star(5)).exact == Fraction(60, 17)
        max_value, _ = argmax_so2(5)
        assert max_value == Fraction(60, 17)

    def test_two_vertex_degenerates(self):
        assert so2(build_path(2)).exact == 0
        assert so2(build_star(2)).exact == 0

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            build_path(0)
        with pytest.raises(ValueError):
            build_star(1)


class TestFamilyConstruction:
    def test_residue_one_signature(self):
        p = edge_type_profile(build_family_member(1, 9))
        assert p.m == {(1, 4): 6, (2, 4): 2}

    def test_residue_three_signature(self):
        p = edge_type_profile(build_family_member(3, 7))
        assert p.m == {(1, 4): 3, (1, 3): 2, (3, 4): 1}

    def test_residue_zero_value(self):
        assert so2(build_family_member(0, 12)).exact == Fraction(126 * 12 - 108, 170)

    def test_signatures_match_for_all_small_n(self):
        for sig in FAMILIES:
            for n in range(sig.min_n, 41, 4):
                g = build_family_member(sig.residue, n)
                assert g.n == n
                actual = {k: c for k, c in edge_type_profile(g).m.items() if c}
                expected = {k: c for k, c in sig.mij(n).items() if c}
                assert actual == expected

    def test_bound_saturation(self):
        for sig in FAMILIES:
            for n in range(sig.min_n, 41, 4):
                g = build_family_member(sig.residue, n)
                assert so2(g).exact == molecular_so2_max(n)

    def test_rejects_wrong_residue_or_small_n(self):
        with pytest.raises(ValueError, match="mod 4"):
            build_family_member(1, 8)
        with pytest.raises(ValueError, match="n >= 12"):
            build_family_member(0, 8)
        with pytest.raises(ValueError):
            build_family_member(5, 9)


class TestFamilyMembership:
    def test_constructed_members_belong(self):
        for sig in FAMILIES:
            for n in range(sig.min_n, 30, 4):
                assert is_in_family(build_family_member(sig.residue, n),
                                    sig.residue)

    @pytest.mark.parametrize("residue", [4, -1])
    def test_rejects_a_residue_out_of_range(self, residue):
        with pytest.raises(ValueError, match="^residue must be 0, 1, 2 or 3$"):
            is_in_family(build_family_member(1, 9), residue)

    def test_path_is_not_in_family_one(self):
        assert not is_in_family(build_path(9), 1)

    def test_wrong_residue_is_rejected(self):
        member = build_family_member(1, 9)
        assert not is_in_family(member, 0)
        assert not is_in_family(member, 2)

    def test_maximizers_at_ten_are_family_two(self):
        _, attaining = argmax_so2(10, molecular=True)
        assert attaining
        assert all(is_in_family(g, 2) for g in attaining)

    def test_degenerate_quaternary_pair_is_family_zero(self):
        _, attaining = argmax_so2(8, molecular=True)
        assert len(attaining) == 1
        assert is_in_family(attaining[0], 0)

    def test_vacuous_small_trees_are_excluded(self):
        from sombor.graphs import Graph
        assert not is_in_family(Graph(1, ((),)), 1)
        assert not is_in_family(build_path(2), 2)

    def test_extra_quaternary_adjacency_is_rejected(self):
        # chain of five degree-4 vertices plus a pendant ethyl: the lone
        # degree-2 vertex does neighbor a 4 and a 1, yet the four 4-4
        # edges disqualify it (so2 is strictly below the maximum)
        from sombor.graphs import Graph, degrees
        edges = [(0, 1), (1, 2), (2, 3), (3, 4)]
        nxt = 5
        for v, leaves in ((0, 3), (1, 2), (2, 2), (3, 2), (4, 2)):
            for _ in range(leaves):
                edges.append((v, nxt))
                nxt += 1
        tail = nxt
        edges += [(4, tail), (tail, tail + 1)]
        g = Graph.from_edges(tail + 2, edges)
        assert g.n == 18 and g.n % 4 == 2
        assert sorted(degrees(g))[-5:] == [4, 4, 4, 4, 4]
        assert not is_in_family(g, 2)
        assert so2(g).exact < molecular_so2_max(18)


class TestClosedFormBounds:
    def test_octane_bounds(self):
        lower, upper = tree_so2_bounds(8)
        assert lower == Fraction(6, 5)
        assert upper == Fraction(336, 50)

    def test_three_vertices_bounds_coincide(self):
        lower, upper = tree_so2_bounds(3)
        assert lower == upper == Fraction(6, 5)

    def test_four_vertices_upper_attained_by_star(self):
        _, upper = tree_so2_bounds(4)
        assert upper == Fraction(12, 5) == so2(build_star(4)).exact

    def test_rejects_tiny_n(self):
        with pytest.raises(ValueError):
            tree_so2_bounds(2)

    def test_molecular_max_values(self):
        assert molecular_so2_max(8) == Fraction(90, 17)
        assert molecular_so2_max(5) == Fraction(60, 17)
        assert molecular_so2_max(7) == Fraction(1924, 425)
        assert abs(float(molecular_so2_max(7)) - 4.5271) < 1e-4

    def test_molecular_max_rejects_small_n(self):
        with pytest.raises(ValueError):
            molecular_so2_max(4)

    def test_paper_closed_forms_to_one_thousand(self):
        # the literal formulas of the paper; the library sums signatures
        for n in range(3, 1001):
            q = n * n - 2 * n
            assert tree_so2_bounds(n) == (Fraction(6, 5),
                                          Fraction(q * (n - 1), q + 2))
        residue_forms = (lambda n: Fraction(126 * n - 108, 170),
                         lambda n: Fraction(126 * n - 30, 170),
                         lambda n: Fraction(126 * n - 102, 170),
                         lambda n: Fraction(315 * n - 281, 425))
        for n in range(5, 1001):
            assert molecular_so2_max(n) == residue_forms[n % 4](n)

    def test_monotone_degree_ratio(self):
        # x -> (x^2 - 1)/(x^2 + 1) must increase for x > 0
        grid = [Fraction(k, 7) for k in range(1, 200)]
        values = [(x * x - 1) / (x * x + 1) for x in grid]
        assert all(a < b for a, b in zip(values, values[1:]))


class TestDegreeSystem:
    def test_path_profile(self):
        solved = solve_degree_system(edge_type_profile(build_path(8)))
        assert solved == (0, 0, 2, 6, 0, 0)

    def test_family_one_profile(self):
        solved = solve_degree_system(edge_type_profile(build_family_member(1, 9)))
        assert solved.m14 == 6 and solved.m24 == 2

    def test_defect_free_profile_needs_residue_one(self):
        # with every defect count zero the solution is integral only
        # when n == 1 (mod 4)
        clean_nine = EdgeTypeProfile(m={(1, 4): 6, (2, 4): 2},
                                     degree_counts={1: 6, 2: 1, 4: 2}, n=9)
        solved = solve_degree_system(clean_nine)
        assert solved == (6, 2, 6, 1, 0, 2)
        empty_eight = EdgeTypeProfile(m={}, degree_counts={0: 8}, n=8)
        with pytest.raises(InconsistentProfileError):
            solve_degree_system(empty_eight)

    def test_rejects_leaf_leaf_edge(self):
        with pytest.raises(InconsistentProfileError, match="leaf-leaf"):
            solve_degree_system(edge_type_profile(build_path(2)))

    def test_rejects_degrees_above_four(self):
        with pytest.raises(InconsistentProfileError):
            solve_degree_system(edge_type_profile(build_star(6)))

    def test_rejects_negative_solution(self):
        one = EdgeTypeProfile(m={}, degree_counts={0: 1}, n=1)
        with pytest.raises(InconsistentProfileError):
            solve_degree_system(one)

    def test_reproduces_direct_counts_on_enumerated_trees(self):
        for n in range(3, 15):
            for g in enumerate_molecular_trees(n):
                p = edge_type_profile(g)
                solved = solve_degree_system(p)
                assert solved.m14 == p.count(1, 4)
                assert solved.m24 == p.count(2, 4)
                assert (solved.n1, solved.n2, solved.n3, solved.n4) == tuple(
                    p.degree_counts.get(i, 0) for i in (1, 2, 3, 4))

    def test_agrees_with_independent_elimination(self):
        rng = random.Random(31)
        for _ in range(200):
            g = random_tree(rng, rng.randint(3, 14), max_degree=4)
            p = edge_type_profile(g)
            solved = solve_degree_system(p)
            assert tuple(map(Fraction, solved)) == \
                solve_degree_system_by_elimination(p)

    def test_refuses_molecular_graphs_with_cycles(self):
        # a molecular tree plus c edges between vertices of degree < 4;
        # with four cycles the solved counts can all be nonnegative
        # integers (n4 comes out short by c / 4), so only the edge count
        # tells such a graph from a tree
        rng = random.Random(2501)
        for c in range(1, 6):
            made = 0
            while made < 60:
                n = rng.randint(c + 3, 16)
                g = random_tree(rng, n, max_degree=4)
                edges, deg = set(g.edges()), degrees(g)
                for _ in range(c):
                    free = [(u, v) for u in range(n) for v in range(u + 1, n)
                            if deg[u] < 4 and deg[v] < 4
                            and (u, v) not in edges]
                    if not free:
                        break
                    u, v = rng.choice(free)
                    edges.add((u, v))
                    deg[u] += 1
                    deg[v] += 1
                if len(edges) != n - 1 + c:
                    continue
                made += 1
                p = edge_type_profile(Graph.from_edges(n, edges))
                expected = f"^{n - 1 + c} edges on {n} vertices, 0 isolated"
                with pytest.raises(InconsistentProfileError,
                                   match=expected) as solver:
                    solve_degree_system(p)
                with pytest.raises(InconsistentProfileError,
                                   match=f"^{re.escape(str(solver.value))}$"):
                    so2_via_degree_system(p)


# so2 lost per edge of each off-optimal type, against the all-(1,4)/(2,4)
# molecular tree of the same order
PENALTIES = {
    (1, 2): Fraction(36, 85),
    (1, 3): Fraction(11, 85),
    (2, 2): Fraction(63, 85),
    (2, 3): Fraction(58, 221),
    (3, 3): Fraction(47, 85),
    (3, 4): Fraction(96, 425),
    (4, 4): Fraction(39, 85),
}


class TestReducedForm:
    def test_path_profile(self):
        p = edge_type_profile(build_path(8))
        assert so2_via_degree_system(p) == Fraction(6, 5)

    def test_family_one_thirteen(self):
        p = edge_type_profile(build_family_member(1, 13))
        assert so2_via_degree_system(p) == Fraction(126 * 13 - 30, 170)

    def test_family_three_seven(self):
        p = edge_type_profile(build_family_member(3, 7))
        assert so2_via_degree_system(p) == Fraction(1924, 425) \
            == so2_from_profile(p)

    @pytest.mark.parametrize("profile", [
        edge_type_profile(build_star(6)),  # a degree-5 vertex; so2 60/13
        edge_type_profile(build_path(2)),  # a leaf-leaf edge; so2 0
        EdgeTypeProfile(m={(2, 2): 4}, degree_counts={2: 4}, n=4),  # C4
        # four independent cycles whose solved counts are all nonnegative
        # integers; so2 3878/425, but the system's m14 is 8, not 2
        edge_type_profile(Graph.from_edges(14, [
            (0, 1), (0, 8), (1, 2), (1, 3), (1, 7), (2, 4), (2, 13), (3, 5),
            (5, 6), (5, 9), (5, 11), (6, 10), (8, 13), (9, 10), (10, 12),
            (10, 13), (11, 13)])),
    ], ids=["star6", "path2", "cycle4", "four_cycles"])
    def test_refuses_what_the_system_cannot_model(self, profile):
        with pytest.raises(InconsistentProfileError) as solver:
            solve_degree_system(profile)
        with pytest.raises(InconsistentProfileError,
                           match=f"^{re.escape(str(solver.value))}$"):
            so2_via_degree_system(profile)

    def test_exact_identity_on_all_molecular_trees(self):
        for n in range(3, 15):
            for g in enumerate_molecular_trees(n):
                p = edge_type_profile(g)
                assert (so2_via_degree_system(p) == so2_from_profile(p)
                        == so2(g).exact)

    def test_paper_penalties(self):
        # so2 = (126n - 30)/170 minus these per-edge penalties, exactly
        for n in range(3, 13):
            for g in enumerate_molecular_trees(n):
                p = edge_type_profile(g)
                assert so2_from_profile(p) == Fraction(126 * n - 30, 170) - sum(
                    penalty * p.count(*key) for key, penalty in PENALTIES.items())

    @settings(deadline=None)
    @given(molecular_trees(min_n=3, max_n=60))
    def test_random_trees_beyond_exhaustive_reach(self, g):
        # graph, profile and degree-system so2 agree, and the system
        # recovers the counts read directly off the tree
        p = edge_type_profile(g)
        assert so2(g).exact == so2_from_profile(p) == so2_via_degree_system(p)
        deg = degrees(g)
        pairs = [sorted((deg[u], deg[v])) for u, v in g.edges()]
        assert solve_degree_system(p) == (
            pairs.count([1, 4]), pairs.count([2, 4]),
            *(deg.count(i) for i in (1, 2, 3, 4)))


# printed reference values for the ten candidate degree-3 splits
SPLIT_REFERENCE = {
    (1, 1, 0, 1): 0.617715,
    (1, 0, 1, 0): 0.682341,
    (0, 1, 1, 0): 0.815374,
    (0, 0, 1, 1): 0.778823,
    (2, 1, 0, 0): 0.521233,
    (1, 2, 0, 0): 0.654266,
    (1, 0, 0, 2): 0.581164,
    (2, 0, 0, 1): 0.484682,
    (0, 2, 0, 1): 0.750748,
    (0, 1, 0, 2): 0.714197,
}


class TestDegreeThreeSplits:
    def test_exact_minimum_split(self):
        value = degree_three_penalty(2, 0, 0, 1)
        assert value == Fraction(22, 85) + Fraction(96, 425) == Fraction(206, 425)
        assert abs(float(value) - 0.484682) < 1e-4

    def test_single_mixed_splits(self):
        assert degree_three_penalty(1, 0, 1, 0) == Fraction(58, 85)
        assert degree_three_penalty(0, 1, 1, 0) == \
            Fraction(58, 221) + Fraction(47, 85)

    def test_rejects_invalid_splits(self):
        with pytest.raises(ValueError):
            degree_three_penalty(1, 1, 1, 1)
        with pytest.raises(ValueError):
            degree_three_penalty(-1, 2, 0, 2)

    def test_all_ten_splits_match_reference(self):
        splits = degree_three_edge_splits()
        assert len(splits) == 10
        assert set(splits) == set(SPLIT_REFERENCE)
        for split in splits:
            assert abs(float(degree_three_penalty(*split))
                       - SPLIT_REFERENCE[split]) < 1e-4

    def test_split_penalty_is_its_edges_penalties(self):
        for m13, m23, m33, m34 in degree_three_edge_splits():
            assert degree_three_penalty(m13, m23, m33, m34) == (
                m13 * PENALTIES[1, 3] + m23 * PENALTIES[2, 3]
                + m33 * PENALTIES[3, 3] + m34 * PENALTIES[3, 4])

    def test_minimum_is_two_leaf_one_quaternary(self):
        best = min(degree_three_edge_splits(), key=lambda s: degree_three_penalty(*s))
        assert best == (2, 0, 0, 1)


class TestVerifier:
    def test_no_violations_up_to_ten(self):
        report = verify_extremal_bounds(10)
        assert report.violations == []
        labels = {(c.n, c.label) for c in report.checks}
        assert (3, "tree_min") in labels
        assert (10, "molecular_max_family") in labels

    def test_rejects_bad_n_max_before_any_scan(self, monkeypatch):
        from sombor import extremal

        def no_scan(*args, **kwargs):
            raise AssertionError("scanned before validating n_max")

        monkeypatch.setattr(extremal, "so2_extremes", no_scan)
        for bad in (2, 1, 0, -3):
            with pytest.raises(ValueError, match="n_max >= 3"):
                verify_extremal_bounds(bad)
        monkeypatch.setenv("SOMBOR_MAX_N", "9")
        with pytest.raises(ValueError, match="n=10 exceeds the enumeration cap 9"):
            verify_extremal_bounds(10)

    def test_degenerate_case_is_reported(self):
        report = verify_extremal_bounds(8)
        note = [c for c in report.checks
                if c.n == 8 and c.label == "molecular_max_family"]
        assert len(note) == 1
        assert note[0].passed
        assert "degenerate" in note[0].detail
