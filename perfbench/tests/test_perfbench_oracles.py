"""The benchmark's oracles agree with the program where both can run."""

import io
import random
from contextlib import redirect_stdout
from hashlib import sha256

import pytest

import molgen
import oracles
from sombor import (alkane_to_smiles, cli, enumerate_molecular_trees,
                    enumerate_trees, parse_alkane_smiles, so2)
from sombor.qspr import INDEX_NAMES, index_value


def _adj(g):
    return [list(a) for a in g.adjacency]


@pytest.mark.parametrize("n", range(1, 13))
def test_free_tree_counts_match_enumerator(n):
    assert sum(1 for _ in enumerate_trees(n)) == oracles.free_tree_count(n)


@pytest.mark.parametrize("n", range(1, 14))
def test_molecular_tree_counts_match_enumerator(n):
    assert (sum(1 for _ in enumerate_molecular_trees(n))
            == oracles.molecular_tree_count(n))


def test_count_tables_reach_22_and_agree_where_they_must():
    assert len(oracles.FREE_TREES) == len(oracles.MOLECULAR_TREES) == 22
    assert oracles.FREE_TREES[21] == 5623756
    assert oracles.MOLECULAR_TREES[21] == 2278658
    # below five vertices every tree has maximum degree at most four
    assert oracles.FREE_TREES[:4] == oracles.MOLECULAR_TREES[:4]
    assert oracles.distinct_trees_up_to(15) == 13186


@pytest.mark.parametrize("n", [7, 10])
def test_canonical_form_separates_enumerated_trees(n):
    forms = {oracles.canonical_form(_adj(g)) for g in enumerate_trees(n)}
    assert len(forms) == oracles.free_tree_count(n)


def test_canonical_form_ignores_labels():
    rng = random.Random(3)
    for g in enumerate_trees(9):
        perm = list(range(g.n))
        rng.shuffle(perm)
        relabeled = oracles.adjacency_from_edges(
            g.n, [(perm[u], perm[v]) for u, v in g.edges()])
        assert oracles.canonical_form(relabeled) == oracles.canonical_form(_adj(g))


def test_index_oracles_match_program_on_generated_molecules():
    for m in molgen.generate(5, rows=200):
        g = parse_alkane_smiles(m.smiles)
        adj = [list(a) for a in m.adj]
        assert so2(g).exact == oracles.so2_exact(adj)
        want = oracles.index_values(adj)
        for name in INDEX_NAMES:
            assert oracles.close(index_value(g, name), want[name]), name


def test_canonical_smiles_names_the_generated_tree_and_repeats_per_group():
    seen = {}
    for m in molgen.generate(6, rows=200):
        smiles = alkane_to_smiles(parse_alkane_smiles(m.smiles))
        form = oracles.canonical_form(oracles.read_smiles(smiles))
        assert form == oracles.canonical_form([list(a) for a in m.adj])
        assert seen.setdefault(m.group, smiles) == smiles


def test_read_smiles_rejects_non_alkanes():
    for bad in ("", "C1CC1", "C(C", "CC)", "CO"):
        with pytest.raises(ValueError):
            oracles.read_smiles(bad)


def test_reference_verification_output_hash():
    buf = io.StringIO()
    with redirect_stdout(buf):
        envelope = cli.run(["extremal", "--verify-up-to", str(oracles.VERIFY_N)])
    out = buf.getvalue()
    assert envelope.exit_status == 0
    assert out.endswith("0 violations\n")
    assert sha256(out.encode()).hexdigest() == oracles.VERIFY_OUTPUT_SHA256
