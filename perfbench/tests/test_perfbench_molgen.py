"""The molecules generator is reproducible and has the stated mix."""

from sombor import load_dataset

import molgen
import oracles


def test_same_seed_same_dataset():
    assert molgen.generate(11) == molgen.generate(11)


def test_other_seed_other_dataset():
    a, b = molgen.generate(11), molgen.generate(12)
    assert [m.smiles for m in a] != [m.smiles for m in b]


def test_shares_are_exact_and_independent_of_seed():
    for seed in (1, 2):
        molecules = molgen.generate(seed)
        assert len(molecules) == molgen.ROWS
        assert molgen.shares(molecules) == {"duplicate": 0.3, "tail": 0.005}
        tails = sorted(len(m.adj) for m in molecules if m.kind == "tail")
        assert len(tails) == 10 and tails[0] >= 200 and tails[-1] >= 3000


def test_duplicates_copy_an_earlier_regular_skeleton():
    molecules = molgen.generate(4)
    for row, m in enumerate(molecules):
        if m.kind != "duplicate":
            assert m.group == row
            continue
        source = molecules[m.group]
        assert m.group < row and source.kind == "regular"
        assert (oracles.canonical_form(oracles.read_smiles(m.smiles))
                == oracles.canonical_form(oracles.read_smiles(source.smiles)))


def test_regular_sizes_cover_the_stated_range():
    sizes = {len(m.adj) for m in molgen.generate(9) if m.kind == "regular"}
    assert sizes == set(range(8, 41))


def test_csv_round_trips_through_the_program_loader(tmp_path):
    molecules = molgen.generate(2, rows=300)
    path = tmp_path / "m.csv"
    molgen.write_csv(molecules, path)
    records = load_dataset(path)
    assert [(r.name, r.smiles, r.properties) for r in records] == [
        (m.name, m.smiles, m.properties) for m in molecules]
