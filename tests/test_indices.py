import gc
import math
import random
import weakref
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from sombor.graphs import Graph, degrees, edge_type_counts, edge_type_profile
from sombor.indices import (INDEX_NAMES, KERNELS, IndexValue, VdbKernel,
                            index_by_name, neighborhood_zagreb, so2,
                            so2_from_profile, so2_upper_bound, vdb_index)

from helpers import (EDGE_KERNELS, index_by_definition, molecular_trees,
                     random_graph, random_tree, shuffled_copy, simple_graphs)


def path(n):
    return Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])


def star(n):
    return Graph.from_edges(n, [(0, i) for i in range(1, n)])


def cycle(n):
    return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


class TestSo2:
    def test_octane_path(self):
        assert so2(path(8)).exact == Fraction(6, 5)
        assert so2(path(8)).approx == 1.2

    def test_regular_graphs_vanish(self):
        assert so2(cycle(6)).exact == 0
        k4 = Graph.from_edges(4, [(a, b) for a in range(4) for b in range(a + 1, 4)])
        assert so2(k4).exact == 0
        assert so2(path(2)).exact == 0

    def test_single_vertex(self):
        assert so2(Graph(1, ((),))).exact == 0

    def test_methyl_heptane(self):
        # 2-methyl-heptane: per-edge terms 2*(4/5) + 5/13 + 3*0 + 3/5
        g = Graph.from_edges(8, [(0, 1), (1, 2), (1, 3), (3, 4), (4, 5),
                                 (5, 6), (6, 7)])
        value = so2(g).exact
        assert value == 2 * Fraction(4, 5) + Fraction(5, 13) + Fraction(3, 5)
        assert abs(float(value) - 2.5846) < 1e-4

    def test_star_closed_form(self):
        for n in range(2, 12):
            q = n * n - 2 * n
            assert so2(star(n)).exact == Fraction(q * (n - 1), q + 2)

    def test_exact_matches_approx(self):
        rng = random.Random(3)
        for _ in range(50):
            value = so2(random_tree(rng, rng.randint(2, 12)))
            assert value.approx == float(value.exact)

    def test_index_value_consistency_enforced(self):
        with pytest.raises(ValueError):
            IndexValue(approx=0.5, exact=Fraction(1, 3))


class TestSo2FromProfile:
    def test_path_profile(self):
        assert so2_from_profile(edge_type_profile(path(4))) == Fraction(6, 5)

    def test_quaternary_pair_profile(self):
        from sombor.graphs import EdgeTypeProfile
        p = EdgeTypeProfile(m={(1, 4): 6, (4, 4): 1},
                            degree_counts={1: 6, 4: 2}, n=8)
        value = so2_from_profile(p)
        assert value == Fraction(90, 17)
        assert abs(float(value) - 5.2941) < 1e-4

    def test_mixed_profile_equals_closed_form(self):
        from sombor.extremal import build_family_member, molecular_so2_max
        p = edge_type_profile(build_family_member(3, 7))
        assert p.m == {(1, 3): 2, (1, 4): 3, (3, 4): 1}
        value = so2_from_profile(p)
        assert value == 2 * Fraction(4, 5) + 3 * Fraction(15, 17) + Fraction(7, 25)
        assert value == Fraction(1924, 425) == molecular_so2_max(7)

    def test_zero_counts_are_skipped(self):
        from sombor.graphs import EdgeTypeProfile
        # a profile may list a (0, 0) type with count 0, where F is 0/0
        p = EdgeTypeProfile(m={(0, 0): 0, (1, 1): 1, (1, 2): 0},
                            degree_counts={0: 1, 1: 2}, n=3)
        assert so2_from_profile(p) == 0

    def test_agrees_with_direct_sum_on_random_graphs(self):
        rng = random.Random(5)
        for _ in range(200):
            g = random_graph(rng, rng.randint(1, 10), rng.uniform(0.1, 0.8))
            assert so2_from_profile(edge_type_profile(g)) == so2(g).exact


class TestVdbKernels:
    def test_kernel_symmetry(self):
        # exact equality for the float kernels too, and a Fraction exactly
        # from the kernels that say they are exact
        for kernel in KERNELS.values():
            for x in range(1, 8):
                for y in range(1, 8):
                    assert kernel(x, y) == kernel(y, x), (kernel.name, x, y)
                    assert isinstance(kernel(x, y), Fraction) is kernel.exact

    def test_memo_is_freed_with_the_kernel(self):
        # an exact kernel's (numerator, denominator) memo too
        for exact, kind in ((False, float), (True, Fraction)):
            term = lambda x, y: kind(x + y)  # noqa: E731
            alive = weakref.ref(term)
            kernel = VdbKernel("throwaway", term, exact=exact)
            assert vdb_index(path(4), kernel).approx == 10.0
            del kernel, term
            gc.collect()
            assert alive() is None

    @pytest.mark.parametrize("value", [0.5, "1/2", None])
    def test_exact_term_of_another_type_names_kernel_pair_and_value(
            self, value):
        kernel = VdbKernel("x", lambda x, y: value, exact=True)
        with pytest.raises(ValueError,
                           match=rf"^exact kernel 'x': F\(1, 2\) = "
                                 rf"{value!r} is neither an int nor a "
                                 rf"Fraction$"):
            vdb_index(path(4), kernel)

    def test_exact_terms_may_be_ints(self):
        kernel = VdbKernel("ones", lambda x, y: 1, exact=True)
        assert vdb_index(path(4), kernel) == IndexValue(3.0, Fraction(3))

    @pytest.mark.parametrize("term", [
        lambda x, y: math.nan,
        lambda x, y: math.inf,
        # 2 * 1e308 overflows to inf in the product
        lambda x, y: 1e308,
        # 2 * 6e307 and 1e308 are finite; their sum overflows inside fsum
        lambda x, y: 1e308 if x == y else 6e307,
        # inf - inf, which fsum refuses
        lambda x, y: math.inf if x == y else -math.inf,
    ], ids=["nan", "inf", "product-overflow", "sum-overflow", "inf-minus-inf"])
    def test_float_sum_that_is_not_finite_names_kernel(self, term):
        with pytest.raises(ValueError,
                           match=r"^kernel 'w': the sum of its terms is not "
                                 r"finite$"):
            vdb_index(path(4), VdbKernel("w", term))

    def test_builtin_kernels_pass_both_checks(self):
        # high degrees and many degree pairs: every built-in sum stays as
        # the per-edge definition gives it
        rng = random.Random(29)
        for g in (star(300), path(2), random_graph(rng, 60, 0.5),
                  random_tree(rng, 200)):
            for name, kernel in KERNELS.items():
                value, want = vdb_index(g, kernel), index_by_definition(g, name)
                if kernel.exact:
                    assert value.exact == want, name
                else:
                    assert math.isclose(value.approx, want, rel_tol=1e-12)

    def test_first_zagreb_on_path(self):
        # per-edge degree sums: (1+2) + (2+2) + (2+1)
        assert vdb_index(path(4), KERNELS["m1"]).exact == 10

    def test_randic_on_star(self):
        assert vdb_index(star(5), KERNELS["r"]).approx == pytest.approx(2.0)

    def test_so2_kernel_matches_dedicated_function(self):
        rng = random.Random(17)
        for _ in range(1000):
            g = random_tree(rng, rng.randint(2, 10))
            assert vdb_index(g, KERNELS["so2"]).exact == so2(g).exact

    def test_sdd_exact(self):
        # star edges give x/y + y/x = 4/1 + 1/4
        assert vdb_index(star(5), KERNELS["sdd"]).exact == 4 * Fraction(17, 4)

    def test_rational_kernels_populate_exact(self):
        g = random_tree(random.Random(1), 9)
        for name in ("so2", "m1", "m2", "f", "sdd"):
            assert vdb_index(g, KERNELS[name]).exact is not None
        for name in ("so", "r", "sci"):
            assert vdb_index(g, KERNELS[name]).exact is None

    def test_isomorphism_invariance(self):
        rng = random.Random(23)
        for _ in range(40):
            g = random_tree(rng, rng.randint(2, 10))
            h = shuffled_copy(g, rng)
            for kernel in KERNELS.values():
                assert vdb_index(g, kernel).approx == pytest.approx(
                    vdb_index(h, kernel).approx)
            assert neighborhood_zagreb(g).exact == neighborhood_zagreb(h).exact


class TestNeighborhoodZagreb:
    def test_single_edge(self):
        assert neighborhood_zagreb(path(2)).exact == 2

    def test_path_on_three(self):
        assert neighborhood_zagreb(path(3)).exact == 12

    def test_brute_force_cross_check(self):
        def brute(g):
            deg = degrees(g)
            total = 0
            for v in range(g.n):
                acc = 0
                for u in range(g.n):
                    if u in g.adjacency[v]:
                        acc += deg[u]
                total += acc ** 2
            return total

        rng = random.Random(29)
        assert neighborhood_zagreb(path(8)).exact == brute(path(8))
        for _ in range(60):
            g = random_graph(rng, rng.randint(1, 9), 0.4)
            assert neighborhood_zagreb(g).exact == brute(g)


def _components(g):
    seen = [False] * g.n
    for start in range(g.n):
        if seen[start]:
            continue
        comp = []
        stack = [start]
        seen[start] = True
        while stack:
            v = stack.pop()
            comp.append(v)
            for u in g.adjacency[v]:
                if not seen[u]:
                    seen[u] = True
                    stack.append(u)
        yield comp


def _all_components_regular(g):
    deg = degrees(g)
    return all(len({deg[v] for v in comp}) == 1 for comp in _components(g))


class TestUpperBound:
    def test_regular_case_is_zero(self):
        assert so2_upper_bound(6, 3, 3) == 0

    def test_star_attains_bound(self):
        for n in range(3, 12):
            bound = so2_upper_bound(n - 1, 1, n - 1)
            assert so2(star(n)).exact == bound

    def test_explicit_value(self):
        assert so2_upper_bound(5, 1, 4) == Fraction(75, 17)

    def test_rejects_bad_degrees(self):
        with pytest.raises(ValueError):
            so2_upper_bound(3, 0, 2)
        with pytest.raises(ValueError):
            so2_upper_bound(3, 3, 2)

    def test_rejects_negative_edge_count(self):
        with pytest.raises(ValueError, match="^edge count must be "
                                             "nonnegative$"):
            so2_upper_bound(-1, 1, 2)

    def test_arbitrary_degrees_leave_the_kernel_memo_alone(self):
        memo = KERNELS["so2"]._memo
        before = memo.cache_info().currsize
        for big in range(10_000, 11_000):
            assert so2_upper_bound(2, 1, big) == Fraction(
                2 * (big * big - 1), big * big + 1)
        assert memo.cache_info().currsize == before

    def test_bound_holds_on_random_graphs(self):
        rng = random.Random(41)
        for _ in range(2000):
            g = random_graph(rng, rng.randint(1, 10), rng.uniform(0.1, 0.9))
            value = so2(g).exact
            assert value >= 0
            deg = degrees(g)
            if g.edge_count:
                lo, hi = min(deg), max(deg)
                if lo >= 1:
                    assert value <= so2_upper_bound(g.edge_count, lo, hi)
                else:
                    assert value <= g.edge_count
            assert (value == 0) == _all_components_regular(g)

    @settings(deadline=None)
    @given(simple_graphs(max_n=12))
    def test_bound_property(self, g):
        # the bound holds with d and D taken over the edge endpoints, and
        # so2 vanishes exactly when every component is regular
        value = so2(g).exact
        assert value >= 0
        assert (value == 0) == _all_components_regular(g)
        touched = [d for d in degrees(g) if d]
        if touched:
            assert value <= so2_upper_bound(g.edge_count, min(touched),
                                            max(touched))

    @given(st.integers(2, 300))
    def test_stars_attain_the_bound(self, n):
        assert so2(star(n)).exact == so2_upper_bound(n - 1, 1, n - 1)


class TestRatioIdentity:
    def test_so2_as_edge_count_minus_ratio_sum(self):
        # so2 = m - sum over edges of 2/(r+1), r = max(d^2)/min(d^2), exactly
        rng = random.Random(53)
        for _ in range(200):
            g = random_tree(rng, rng.randint(2, 12))
            deg = degrees(g)
            acc = Fraction(0)
            for u, v in g.edges():
                a, b = sorted((deg[u] ** 2, deg[v] ** 2))
                r = Fraction(b, a)
                acc += Fraction(2) / (r + 1)
            assert so2(g).exact == g.edge_count - acc


def _large_degree_graphs():
    """The star K1,40, a random graph on 60 vertices (p = 0.5) and a
    caterpillar whose three hubs have degrees 13, 17 and 19."""
    yield star(41)
    yield random_graph(random.Random(61), 60, 0.5)
    hubs, edges, n = (13, 17, 19), [(0, 1), (1, 2)], 3
    for hub, degree in enumerate(hubs):
        leaves = degree - (2 if hub == 1 else 1)
        edges += [(hub, leaf) for leaf in range(n, n + leaves)]
        n += leaves
    caterpillar = Graph.from_edges(n, edges)
    assert [len(caterpillar.adjacency[h]) for h in range(3)] == list(hubs)
    yield caterpillar


def _definition_graphs():
    """Random graphs of every kind the sum must handle: edgeless ones,
    ones with isolated vertices, trees and graphs with cycles."""
    rng = random.Random(29)
    yield Graph(1, ((),))
    yield Graph.from_edges(5, [])
    yield Graph.from_edges(6, [(0, 1), (1, 2), (1, 3)])  # 4 and 5 isolated
    for _ in range(150):
        yield random_graph(rng, rng.randint(1, 12), rng.uniform(0.0, 0.9))
    for _ in range(50):
        yield random_tree(rng, rng.randint(2, 20))


class TestAgainstDefinition:
    """The edge-type sum against the per-edge sum of each kernel's
    defining formula (helpers.index_by_definition)."""

    def test_every_kernel_on_random_graphs(self):
        assert set(EDGE_KERNELS) == set(KERNELS)
        for g in _definition_graphs():
            for name, kernel in KERNELS.items():
                want = index_by_definition(g, name)
                got = vdb_index(g, kernel)
                if kernel.exact:
                    assert got.exact == want, (name, g)
                    assert got.approx == float(want)
                else:
                    assert got.exact is None
                    assert math.isclose(got.approx, want, rel_tol=1e-12), (name, g)

    def test_exact_kernels_on_large_coprime_degrees(self):
        # many degree pairs with large, mostly coprime denominators: the
        # running lcm of the exact sum grows at nearly every term
        for g in _large_degree_graphs():
            for name, kernel in KERNELS.items():
                if not kernel.exact:
                    continue
                got = vdb_index(g, kernel)
                want = index_by_definition(g, name)
                assert got.exact == want, (name, g.n)
                assert got.approx == float(want), (name, g.n)

    def test_so2_entries_on_random_graphs(self):
        for g in _definition_graphs():
            want = index_by_definition(g, "so2")
            assert so2(g).exact == want
            assert so2_from_profile(edge_type_profile(g)) == want

    def test_neighborhood_zagreb_on_random_graphs(self):
        for g in _definition_graphs():
            assert neighborhood_zagreb(g).exact == index_by_definition(g, "mn")

    def test_edgeless_graphs_sum_to_zero(self):
        g = Graph.from_edges(4, [])
        for kernel in KERNELS.values():
            value = vdb_index(g, kernel)
            assert value.approx == 0.0
            assert value.exact in (None, 0)


class TestIndexByName:
    def test_names_are_the_kernels_then_mn(self):
        assert INDEX_NAMES == ("so2", "so", "m1", "m2", "f", "r", "sci",
                               "sdd", "mn")
        assert INDEX_NAMES == (*KERNELS, "mn")

    def test_every_name_matches_its_entry(self):
        g = random_tree(random.Random(31), 11)
        for name in INDEX_NAMES:
            want = (neighborhood_zagreb(g) if name == "mn"
                    else vdb_index(g, KERNELS[name]))
            assert index_by_name(g, name) == want
        assert index_by_name(g, "so2") == so2(g)

    def test_changing_returned_counts_leaves_every_index_alone(self):
        rng = random.Random(37)
        graphs = [random_tree(rng, rng.randint(2, 15)) for _ in range(20)]
        graphs += [random_graph(rng, rng.randint(1, 10), 0.5) for _ in range(20)]
        for g in graphs:
            want = {name: index_by_name(Graph(g.n, g.adjacency), name)
                    for name in INDEX_NAMES}
            # change the copies before the first evaluation and after it
            for step in range(2):
                counts = edge_type_counts(g)
                counts[(1, 2)] = counts.get((1, 2), 0) + 7
                counts.pop(next(iter(counts)))
                profile = edge_type_profile(g)
                profile.m.clear()
                profile.m[(3, 3)] = 5
                assert so2(g) == want["so2"]
                assert {name: index_by_name(g, name)
                        for name in INDEX_NAMES} == want

    def test_unknown_name_lists_the_known_ones(self):
        with pytest.raises(ValueError,
                           match=r"unknown index 'zagreb99'; expected one of "
                                 r"so2, so, m1, m2, f, r, sci, sdd, mn"):
            index_by_name(path(3), "zagreb99")


# kernels that share a name with KERNELS["so2"] but not its function: a
# term memo keyed by kernel name would hand them so2's terms
_RENAMED_KERNELS = (
    ("m1", VdbKernel("so2", KERNELS["m1"].term, exact=True)),
    ("r", VdbKernel("so2", KERNELS["r"].term)),
)


class TestEvaluationOrder:
    """Indices evaluated in any order on one graph object agree with a
    fresh graph per index and with the per-edge definitions."""

    @settings(deadline=None, max_examples=150)
    @given(st.one_of(molecular_trees(max_n=40), simple_graphs()),
           st.permutations(INDEX_NAMES))
    def test_any_order_on_one_graph(self, g, order):
        values = {name: index_by_name(g, name) for name in order}
        renamed = {name: vdb_index(g, kernel) for name, kernel in _RENAMED_KERNELS}
        for name in INDEX_NAMES:
            assert values[name] == index_by_name(Graph(g.n, g.adjacency), name)
            want = index_by_definition(g, name)
            if values[name].exact is not None:
                assert values[name].exact == want, name
            else:
                assert math.isclose(values[name].approx, want, rel_tol=1e-12), name
        for name, value in renamed.items():
            assert value == values[name]
