import random
from fractions import Fraction

import pytest

from sombor.chem import (DatasetError, MoleculeRecord, SmilesError,
                         alkane_to_smiles, load_dataset, octane_dataset_path,
                         parse_alkane_smiles, so2_table)
from sombor.enumeration import enumerate_molecular_trees
from sombor.graphs import degrees, is_molecular_tree
from sombor.indices import so2

from helpers import ahu_canonical, shuffled_copy


class TestSmilesParsing:
    def test_linear_octane(self):
        g = parse_alkane_smiles("CCCCCCCC")
        assert g.n == 8
        assert sorted(degrees(g)) == [1, 1] + [2] * 6
        assert so2(g).exact == Fraction(6, 5)

    def test_quaternary_pair(self):
        g = parse_alkane_smiles("CC(C)(C)C(C)(C)C")
        value = so2(g).exact
        assert value == Fraction(90, 17)
        assert abs(float(value) - 5.2941) < 1e-4

    def test_single_carbon(self):
        g = parse_alkane_smiles("C")
        assert g.n == 1
        assert so2(g).exact == 0

    def test_vertex_order_follows_token_order(self):
        g = parse_alkane_smiles("CC(C)C")
        assert list(g.edges()) == [(0, 1), (1, 2), (1, 3)]

    def test_every_parse_is_molecular(self):
        for smiles in ("C", "CC", "CC(C)(C)C", "CCC(CC)C(C)C"):
            assert is_molecular_tree(parse_alkane_smiles(smiles))

    def test_unbalanced_open(self):
        with pytest.raises(SmilesError, match="unbalanced"):
            parse_alkane_smiles("CC(C")

    def test_unbalanced_close(self):
        with pytest.raises(SmilesError, match="unbalanced"):
            parse_alkane_smiles("CC)C")

    def test_empty_input(self):
        with pytest.raises(SmilesError, match="empty"):
            parse_alkane_smiles("")

    def test_branch_before_first_atom(self):
        with pytest.raises(SmilesError, match="branch before"):
            parse_alkane_smiles("(CC)C")

    def test_empty_branch(self):
        with pytest.raises(SmilesError, match="empty branch"):
            parse_alkane_smiles("C()C")

    def test_unsupported_characters(self):
        for bad in ("CxC", "c1ccccc1", "C=C", "C C", "[CH4]"):
            with pytest.raises(SmilesError, match="unsupported"):
                parse_alkane_smiles(bad)

    def test_valence_overflow(self):
        with pytest.raises(SmilesError, match="valence"):
            parse_alkane_smiles("C(C)(C)(C)(C)C")

    def test_error_positions(self):
        with pytest.raises(SmilesError) as info:
            parse_alkane_smiles("CC(C")
        assert info.value.position == 4


class TestSmilesWriting:
    def test_round_trip_all_small_molecular_trees(self):
        for n in range(1, 10):
            for g in enumerate_molecular_trees(n):
                back = parse_alkane_smiles(alkane_to_smiles(g))
                assert ahu_canonical(back) == ahu_canonical(g)

    def test_canonical_under_relabeling(self):
        rng = random.Random(13)
        for g in enumerate_molecular_trees(8):
            assert alkane_to_smiles(shuffled_copy(g, rng)) == alkane_to_smiles(g)

    def test_rejects_non_molecular(self):
        from sombor.graphs import Graph
        star6 = Graph.from_edges(6, [(0, i) for i in range(1, 6)])
        with pytest.raises(ValueError):
            alkane_to_smiles(star6)


class TestDatasetLoading:
    def test_packaged_octanes(self):
        records = load_dataset(octane_dataset_path())
        assert len(records) == 18
        for record in records:
            assert set(record.properties) == {"AcenFac", "S", "SNar", "HNar"}
            assert is_molecular_tree(record.graph())

    def test_header_only_file(self, tmp_path):
        f = tmp_path / "empty.csv"
        f.write_text("name,smiles,AcenFac\n")
        assert load_dataset(f) == []

    def test_missing_cell_means_absent_property(self, tmp_path):
        f = tmp_path / "partial.csv"
        f.write_text("name,smiles,AcenFac,S\nbutane,CCCC,0.2,\n")
        records = load_dataset(f)
        assert records[0].properties == {"AcenFac": 0.2}

    def test_non_numeric_cell_names_row_and_column(self, tmp_path):
        f = tmp_path / "bad.csv"
        f.write_text("name,smiles,AcenFac\nbutane,CCCC,oops\n")
        with pytest.raises(DatasetError, match=r"row 2.*AcenFac.*oops"):
            load_dataset(f)

    def test_duplicate_names_rejected(self, tmp_path):
        f = tmp_path / "dup.csv"
        f.write_text("name,smiles,S\nbutane,CCCC,1\nbutane,CCCC,2\n")
        with pytest.raises(DatasetError, match="duplicate"):
            load_dataset(f)

    def test_missing_file(self, tmp_path):
        with pytest.raises(DatasetError, match="cannot read"):
            load_dataset(tmp_path / "nope.csv")

    def test_bad_header(self, tmp_path):
        f = tmp_path / "h.csv"
        f.write_text("molecule,AcenFac\nbutane,0.1\n")
        with pytest.raises(DatasetError, match="header"):
            load_dataset(f)

    def test_empty_name_rejected(self, tmp_path):
        f = tmp_path / "noname.csv"
        f.write_text("name,smiles,S\n,CCCC,1\n")
        with pytest.raises(DatasetError, match="empty name"):
            load_dataset(f)

    def test_nan_cell_names_row_molecule_and_column(self, tmp_path):
        f = tmp_path / "nan.csv"
        f.write_text("name,smiles,bp\nbutane,CCCC,1.0\npentane,CCCCC,nan\n")
        with pytest.raises(DatasetError,
                           match=r"nan\.csv: row 3 \(pentane\), column 'bp': "
                                 r"non-finite value 'nan'"):
            load_dataset(f)

    def test_inf_cell_rejected(self, tmp_path):
        f = tmp_path / "inf.csv"
        f.write_text("name,smiles,bp,S\nbutane,CCCC,1.0,-inf\n")
        with pytest.raises(DatasetError,
                           match=r"row 2 \(butane\), column 'S': "
                                 r"non-finite value '-inf'"):
            load_dataset(f)

    def test_duplicate_column_rejected(self, tmp_path):
        f = tmp_path / "dupcol.csv"
        f.write_text("name,smiles,bp,bp\nbutane,CCCC,1.0,2.0\n")
        with pytest.raises(DatasetError,
                           match=r"dupcol\.csv: row 1 \(header\) repeats "
                                 r"column 'bp'"):
            load_dataset(f)

    def test_rows_are_numbered_by_file_line(self, tmp_path):
        f = tmp_path / "blank.csv"
        f.write_text("name,smiles,bp\n\na,CCCC,1\n\nb,CCCCC,oops\n")
        with pytest.raises(DatasetError, match=r"row 5 \(b\), column 'bp'"):
            load_dataset(f)

    def test_bad_smiles_names_the_molecule_when_parsed(self, tmp_path):
        f = tmp_path / "badsmiles.csv"
        f.write_text("name,smiles,bp\nbutane,CCCC,1.0\nodd,CC(C,2.0\n")
        records = load_dataset(f)  # SMILES are not parsed at load time
        with pytest.raises(SmilesError,
                           match=r"molecule 'odd', position 4: unbalanced") as info:
            records[1].graph()
        assert info.value.molecule == "odd"
        assert info.value.position == 4


# printed reference values for the 18 octane isomers
OCTANE_SO2 = {
    "octane": 1.2,
    "2-methyl-heptane": 2.5846,
    "3-methyl-heptane": 2.7692,
    "4-methyl-heptane": 2.7692,
    "3-ethyl-hexane": 2.9538,
    "2,2-dimethyl-hexane": 3.8471,
    "2,3-dimethyl-hexane": 3.3846,
    "2,4-dimethyl-hexane": 4.1538,
    "2,5-dimethyl-hexane": 3.9692,
    "3,3-dimethyl-hexane": 4.1647,
    "3,4-dimethyl-hexane": 3.5692,
    "2-methyl-3-ethyl-pentane": 3.5692,
    "3-methyl-3-ethyl-pentane": 4.4824,
    "2,2,3-trimethyl-pentane": 4.7117,
    "2,2,4-trimethyl-pentane": 5.2317,
    "2,3,3-trimethyl-pentane": 4.8447,
    "2,3,4-trimethyl-pentane": 4.0,
    "2,2,3,3-tetramethylbutane": 5.2941,
}


class TestSo2Table:
    def test_reproduces_reference_values(self):
        table = so2_table(load_dataset(octane_dataset_path()))
        assert len(table) == 18
        for name, value in table:
            assert abs(float(value) - OCTANE_SO2[name]) < 1e-4, name

    def test_tie_pairs_are_exact(self):
        values = dict(so2_table(load_dataset(octane_dataset_path())))
        assert values["3-methyl-heptane"] == values["4-methyl-heptane"] \
            == Fraction(36, 13)
        assert values["3,4-dimethyl-hexane"] == values["2-methyl-3-ethyl-pentane"] \
            == Fraction(232, 65)

    def test_single_molecule(self):
        record = MoleculeRecord(name="octane", smiles="CCCCCCCC", properties={})
        assert so2_table([record]) == [("octane", Fraction(6, 5))]
