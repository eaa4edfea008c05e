import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from sombor.chem import (DatasetError, MoleculeRecord, SmilesError,
                         alkane_to_smiles, load_dataset, octane_dataset_path,
                         parse_alkane_smiles, so2_table)
from sombor.enumeration import enumerate_molecular_trees
from sombor.graphs import degrees, is_molecular_tree
from sombor.indices import so2

from helpers import ahu_canonical, molecular_trees, shuffled_copy


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
        # nested branches around a quaternary carbon (vertex 2)
        g = parse_alkane_smiles("CC(C(C)(CC)C(C)C)CC")
        assert list(g.edges()) == [(0, 1), (1, 2), (1, 9), (2, 3), (2, 4),
                                   (2, 6), (4, 5), (6, 7), (6, 8), (9, 10)]
        assert degrees(g)[2] == 4

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
        with pytest.raises(SmilesError,
                           match="position 13: carbon valence exceeds 4"):
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

    @settings(deadline=None)
    @given(molecular_trees(), st.randoms(use_true_random=False))
    def test_invariant_under_relabeling_property(self, g, rng):
        assert alkane_to_smiles(shuffled_copy(g, rng)) == alkane_to_smiles(g)

    @settings(deadline=None)
    @given(molecular_trees())
    def test_parse_of_written_smiles_is_the_same_tree(self, g):
        assert is_molecular_tree(g)
        back = parse_alkane_smiles(alkane_to_smiles(g))
        assert ahu_canonical(back) == ahu_canonical(g)

    def test_rejects_non_molecular(self):
        from sombor.graphs import Graph
        star6 = Graph.from_edges(6, [(0, i) for i in range(1, 6)])
        with pytest.raises(ValueError):
            alkane_to_smiles(star6)

    @pytest.mark.parametrize("n, edges", [
        (3, [(0, 1), (1, 2), (2, 0)]),  # a triangle
        (5, [(0, 1), (2, 3), (3, 4)]),  # a forest of two paths
        (7, [(0, i) for i in range(1, 6)] + [(5, 6)]),  # a degree-5 vertex
    ], ids=["triangle", "forest", "degree-5"])
    def test_non_molecular_tree_message(self, n, edges):
        from sombor.graphs import Graph
        with pytest.raises(ValueError, match="^not a molecular tree$"):
            alkane_to_smiles(Graph.from_edges(n, edges))


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

    @pytest.mark.parametrize("cell", ["1_0", "\u0663", "0x10", "1e", "."])
    def test_numbers_are_ascii(self, tmp_path, cell):
        # float() alone reads the first two as 10.0 and 3.0
        f = tmp_path / "sep.csv"
        f.write_text(f"name,smiles,bp\nbutane,CCCC,1.0\npentane,CCCCC,"
                     f"{cell}\n", encoding="utf-8")
        with pytest.raises(DatasetError,
                           match=rf"sep\.csv: row 3 \(pentane\), column "
                                 rf"'bp': non-numeric value "
                                 rf"{re.escape(repr(cell))}$"):
            load_dataset(f)

    def test_number_syntax(self, tmp_path):
        cells = ["1", "-2.5", "+.5", "3.", "1e3", "-1.5E-2", "07"]
        f = tmp_path / "ok.csv"
        f.write_text("name,smiles," + ",".join(f"p{i}" for i in range(7))
                     + "\nbutane,CCCC," + ",".join(cells) + "\n")
        [record] = load_dataset(f)
        assert list(record.properties.values()) == list(map(float, cells))

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

    def test_byte_order_mark_is_accepted(self, tmp_path):
        # as spreadsheet programs write UTF-8 CSV
        f = tmp_path / "bom.csv"
        f.write_text("\ufeffname,smiles,bp\nbutane,CCCC,1.0\n",
                     encoding="utf-8")
        records = load_dataset(f)
        assert [(r.name, r.properties) for r in records] == [
            ("butane", {"bp": 1.0})]

    @pytest.mark.parametrize("bom", [b"", b"\xef\xbb\xbf"])
    def test_non_utf8_file_names_line_and_byte(self, tmp_path, bom):
        # a Latin-1 file: the e-acute is one byte, 0xe9, which UTF-8
        # cannot decode before an ASCII letter
        f = tmp_path / "latin1.csv"
        f.write_bytes(bom + "name,smiles,bp\nbutane,CCCC,1.0\n"
                            "buténe,CCCC,2.0\n".encode("latin-1"))
        offset = len(bom) + 34
        with pytest.raises(DatasetError,
                           match=rf"latin1\.csv: line 3, byte {offset}: "
                                 r"not UTF-8 text \(invalid continuation "
                                 r"byte\)$"):
            load_dataset(f)

    @pytest.mark.parametrize("column", ["", "so2", "m1", "mn"])
    def test_empty_or_index_property_name_rejected(self, tmp_path, column):
        # qspr would read an index-named column as the computed index
        f = tmp_path / "shadow.csv"
        f.write_text(f"name,smiles,bp,{column}\nbutane,CCCC,1.0,2.0\n")
        with pytest.raises(DatasetError,
                           match=rf"shadow\.csv: row 1 \(header\), "
                                 rf"column '{column}': a property name may "
                                 rf"not be empty or an index name"):
            load_dataset(f)

    @pytest.mark.parametrize("contents", ["", "\n \n\t\n"])
    def test_empty_or_blank_file(self, tmp_path, contents):
        f = tmp_path / "blank.csv"
        f.write_text(contents)
        with pytest.raises(DatasetError, match=r"blank\.csv: empty dataset "
                                               r"file$"):
            load_dataset(f)

    def test_ragged_row(self, tmp_path):
        f = tmp_path / "ragged.csv"
        f.write_text("name,smiles,bp\na,CC,1\nb,CCC\n")
        with pytest.raises(DatasetError, match=r"ragged\.csv: row 3 has 2 "
                                               r"cells, expected 3$"):
            load_dataset(f)

    @pytest.mark.parametrize("separator", ["\x0c", "\u2028"])
    def test_lines_end_at_newline_only(self, tmp_path, separator):
        # a form feed or a line separator inside a cell stays in it, and
        # on a line of its own it is a blank line that still counts
        f = tmp_path / "sep.csv"
        f.write_text(f"name,smiles,bp\na{separator}b,CC,1\n",
                     encoding="utf-8")
        assert [(r.name, r.properties) for r in load_dataset(f)] == [
            (f"a{separator}b", {"bp": 1.0})]
        f.write_text(f"name,smiles,bp\n{separator}\nc,CC,x\n",
                     encoding="utf-8")
        with pytest.raises(DatasetError, match=r"row 3 \(c\), column 'bp'"):
            load_dataset(f)

    def test_crlf_line_ends(self, tmp_path):
        f = tmp_path / "crlf.csv"
        f.write_bytes(b"name,smiles,bp\r\na,CC,1\r\n\r\nb,CCC,x\r\n")
        with pytest.raises(DatasetError, match=r"row 4 \(b\), column 'bp'"):
            load_dataset(f)
        f.write_bytes(b"name,smiles,bp\r\na,CC,1\r\nb,CCC,2\r\n")
        assert [(r.name, r.smiles, r.properties) for r in load_dataset(f)] == [
            ("a", "CC", {"bp": 1.0}), ("b", "CCC", {"bp": 2.0})]

    def test_carriage_return_inside_a_cell(self, tmp_path):
        f = tmp_path / "cr.csv"
        f.write_bytes(b"name,smiles,bp\na,CC,1\nb\rc,CCC,2\n")
        with pytest.raises(DatasetError,
                           match=r"cr\.csv: row 3: new-line character seen "
                                 r"in unquoted field$"):
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

    def test_a_failed_parse_raises_on_every_call(self, tmp_path):
        f = tmp_path / "badsmiles.csv"
        f.write_text("name,smiles,bp\nodd,CC)C,2.0\n")
        record = load_dataset(f)[0]
        for _ in range(2):
            with pytest.raises(SmilesError, match=r"molecule 'odd', position 2"):
                record.graph()


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
