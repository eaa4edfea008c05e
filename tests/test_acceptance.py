"""Acceptance suite: one test per acceptance criterion, each printing a
PASS/FAIL line (run with ``pytest tests/test_acceptance.py -v -s``).

All comparisons against closed forms are exact rational equalities;
comparisons against printed reference decimals use the stated absolute
tolerances.
"""

import math
import random
import time
from fractions import Fraction

from sombor.chem import load_dataset, octane_dataset_path, so2_table
from sombor.enumeration import (argmax_so2, argmin_so2,
                                enumerate_molecular_trees, enumerate_trees)
from sombor.extremal import (FAMILIES, degree_three_edge_splits,
                             degree_three_penalty, is_in_family,
                             molecular_so2_max, solve_degree_system,
                             so2_via_degree_system, tree_so2_bounds,
                             verify_extremal_bounds)
from sombor.graphs import degrees, edge_type_profile
from sombor.indices import so2, so2_from_profile, so2_upper_bound
from sombor.qspr import fit_property

from helpers import (FREE_TREE_COUNTS, MOLECULAR_TREE_COUNTS, random_graph)

from test_chem import OCTANE_SO2
from test_extremal import SPLIT_REFERENCE
from test_qspr import REFERENCE_FITS


def _report(number: int, label: str, passed: bool, extra: str = "") -> None:
    status = "PASS" if passed else "FAIL"
    tail = f" ({extra})" if extra else ""
    print(f"criterion {number}: {status} - {label}{tail}")
    assert passed, f"criterion {number} failed: {label}"


def test_criterion_1_octane_table():
    start = time.perf_counter()
    table = so2_table(load_dataset(octane_dataset_path()))
    elapsed = time.perf_counter() - start
    values = dict(table)
    ok = len(table) == 18
    ok &= all(abs(float(values[name]) - ref) < 1e-4
              for name, ref in OCTANE_SO2.items())
    ok &= values["3-methyl-heptane"] == values["4-methyl-heptane"]
    ok &= values["3,4-dimethyl-hexane"] == values["2-methyl-3-ethyl-pentane"]
    ok &= elapsed < 1.0
    _report(1, "all 18 octane so2 values within 1e-4, tie pairs exact",
            ok, f"{elapsed:.3f}s")


def test_criterion_2_tree_bounds_brute_force():
    start = time.perf_counter()
    ok = True
    for n in range(3, 13):
        lower, upper = tree_so2_bounds(n)
        min_value, minimizers = argmin_so2(n)
        max_value, maximizers = argmax_so2(n)
        ok &= min_value == lower == Fraction(6, 5)
        ok &= len(minimizers) == 1
        ok &= sorted(degrees(minimizers[0]))[2:] == [2] * (n - 2)
        ok &= max_value == upper
        ok &= len(maximizers) == 1
        ok &= max(degrees(maximizers[0])) == n - 1
    elapsed = time.perf_counter() - start
    ok &= elapsed < 30.0
    _report(2, "tree minimum 6/5 only at the path, maximum only at the "
               "star, for 3 <= n <= 12", ok, f"{elapsed:.2f}s")


def test_criterion_3_molecular_maximum_brute_force(monkeypatch):
    monkeypatch.setenv("SOMBOR_MAX_N", "19")
    start = time.perf_counter()
    ok = True
    degenerate_notes = []
    for n in range(5, 20):
        expected = molecular_so2_max(n)
        value, maximizers = argmax_so2(n, molecular=True)
        ok &= value == expected
        residue = n % 4
        ok &= all(is_in_family(g, residue) for g in maximizers)
        if n < FAMILIES[residue].min_n:
            degenerate_notes.append(
                f"n={n}: {len(maximizers)} maximizer(s) below the "
                f"family-{residue} constructor minimum "
                f"{FAMILIES[residue].min_n}")
    # the degenerate cases must be surfaced, not silently absorbed
    report = verify_extremal_bounds(8)
    ok &= any("degenerate" in c.detail for c in report.checks)
    ok &= len(degenerate_notes) > 0
    for note in degenerate_notes:
        print("  reported:", note)
    elapsed = time.perf_counter() - start
    ok &= elapsed < 120.0
    _report(3, "molecular maximum equals the closed form with all "
               "maximizers in the residue family, for 5 <= n <= 19",
            ok, f"{elapsed:.2f}s")


def test_criterion_4_degree_system_identities():
    # the linear system models trees with no degree-0 vertex and no
    # leaf-leaf edge, so the n <= 12 sweep starts at n = 3
    ok = True
    checked = 0
    for n in range(3, 13):
        for g in enumerate_molecular_trees(n):
            p = edge_type_profile(g)
            solved = solve_degree_system(p)
            ok &= solved.m14 == p.count(1, 4) and solved.m24 == p.count(2, 4)
            ok &= (solved.n1, solved.n2, solved.n3, solved.n4) == tuple(
                p.degree_counts.get(i, 0) for i in (1, 2, 3, 4))
            ok &= so2_via_degree_system(p) == so2_from_profile(p) == so2(g).exact
            checked += 1
    _report(4, "degree-system solutions and the reduced so2 form exact "
               "on every molecular tree, 3 <= n <= 12",
            ok, f"{checked} trees, zero exceptions" if ok else "")


def test_criterion_5_degree_three_split_table():
    splits = degree_three_edge_splits()
    ok = len(splits) == 10 and set(splits) == set(SPLIT_REFERENCE)
    for split in splits:
        ok &= abs(float(degree_three_penalty(*split))
                  - SPLIT_REFERENCE[split]) < 1e-4
    best = min(splits, key=lambda s: degree_three_penalty(*s))
    ok &= best == (2, 0, 0, 1)
    _report(5, "all 10 degree-3 splits within 1e-4 of the reference, "
               "minimum at (2,0,0,1)", ok)


def test_criterion_6_bound_property_suite():
    rng = random.Random(20240817)
    ok = True
    zero_cases = 0
    for _ in range(10_000):
        n = rng.randint(1, 12)
        g = random_graph(rng, n, rng.uniform(0.05, 0.9))
        value = so2(g).exact
        ok &= value >= 0
        deg = degrees(g)
        if g.edge_count:
            lo, hi = min(deg), max(deg)
            bound = (so2_upper_bound(g.edge_count, lo, hi) if lo >= 1
                     else Fraction(g.edge_count))
            ok &= value <= bound
        # zero exactly when every component is degree-regular
        seen = [False] * g.n
        regular = True
        for s in range(g.n):
            if seen[s]:
                continue
            stack, comp = [s], []
            seen[s] = True
            while stack:
                v = stack.pop()
                comp.append(v)
                for u in g.adjacency[v]:
                    if not seen[u]:
                        seen[u] = True
                        stack.append(u)
            if len({deg[v] for v in comp}) != 1:
                regular = False
        ok &= (value == 0) == regular
        zero_cases += value == 0
    _report(6, "0 <= so2 <= m(D^2-d^2)/(D^2+d^2) on 10,000 random graphs, "
               "zero exactly on regular components",
            ok, f"{zero_cases} exact zeros")


def test_criterion_7_enumeration_counts():
    ok = True
    for n in range(1, 17):
        ok &= (sum(1 for _ in enumerate_molecular_trees(n))
               == MOLECULAR_TREE_COUNTS[n - 1])
    for n in range(1, 15):
        ok &= sum(1 for _ in enumerate_trees(n)) == FREE_TREE_COUNTS[n - 1]
    _report(7, "molecular-tree counts match the published sequence to "
               "n=16 (18 at n=8), free-tree counts to n=14", ok)


def test_criterion_8_qspr_reproduction():
    records = load_dataset(octane_dataset_path())
    ok = True
    details = []
    for prop, (slope, intercept, correlation) in sorted(REFERENCE_FITS.items()):
        fit, _ = fit_property(records, "so2", prop)
        ok &= abs(fit.slope - slope) < 5e-3
        ok &= abs(fit.intercept - intercept) < 5e-3
        # the published table reports correlation magnitudes
        ok &= abs(math.sqrt(fit.r_squared) - correlation) < 5e-3
        details.append(f"{prop}: |r|={math.sqrt(fit.r_squared):.4f}")
    _report(8, "octane regressions reproduce all four reference fits "
               "within 5e-3", ok, ", ".join(details))
