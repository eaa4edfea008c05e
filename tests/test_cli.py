import hashlib
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sombor import cli
from sombor.chem import parse_alkane_smiles
from sombor.cli import OutputEnvelope, run
from sombor.enumeration import enumerate_molecular_trees, enumerate_trees

from helpers import NON_INTEGERS, simple_graphs

# stdout of `sombor extremal --verify-up-to 12` from the graph-by-graph
# verifier that preceded the shape-level scan
VERIFY_12_GOLDEN = Path(__file__).parent / "data" / "extremal_verify_up_to_12.txt"
# stdout of `sombor enumerate --n 10 [--molecular]` from the enumerator
# that built each tree through an edge list and `Graph.from_edges`; the
# free trees include both centroid kinds
ENUMERATE_10_GOLDENS = {
    (): Path(__file__).parent / "data" / "enumerate_n10_edgelist.txt",
    ("--molecular",): (Path(__file__).parent / "data"
                       / "enumerate_n10_molecular_edgelist.txt"),
}

# sha256 of stdout past the n = 10 goldens: at n = 16 many centroid-edge
# trees, whose order and labels the generator must keep; at n = 14, 16
# and 17 several maximizers, whose order the so2 scan must keep; and the
# check of the paper's bounds up to the default cap
PINNED_OUTPUTS = {
    ("enumerate", "--n", "16", "--emit", "edgelist"):
        "a17c80cd288c46f895d54c3b78139ab6038723695ba451b5a49b2669ebfde7d1",
    ("enumerate", "--n", "16", "--molecular", "--emit", "edgelist"):
        "a93ff6517fae9b34bdab0592d224fbe016a1b3f529307d0dbfa9dcb44911a282",
    ("extremal", "--verify-up-to", "16"):
        "8521692150ed922751a18264d7b82c8bbc594602b9f5e2d5bbe73cfc39b8958a",
    ("extremal", "--n", "14", "--maximizers"):
        "6362ed4525102fd2386894f5f062bea733b3bae5f7edbf473e6f9bb0d19db0a6",
    ("extremal", "--n", "16", "--maximizers", "--family"):
        "0638c78ef9e52370892e29605d81f20c4bdf06a87ec31ee19fa09134af372d99",
    ("extremal", "--n", "17", "--maximizers", "--family", "--format", "tsv"):
        "5960236f7b1058bdd51dd8f37328b9ed0aaa3e6b955c381da61525651e2c5f65",
    ("extremal", "--verify-up-to", "18"):
        "9b4e22abf50cdf986eb3d15bb06404220ebb83d3f850121fb0b7dc853c92b2e9",
}


def lines_of(capsys):
    return capsys.readouterr().out.splitlines()


@pytest.mark.parametrize("argv", list(PINNED_OUTPUTS),
                         ids=[" ".join(argv) for argv in PINNED_OUTPUTS])
def test_output_matches_pinned_sha256(argv, capsys):
    assert run(list(argv)).exit_status == 0
    out = capsys.readouterr().out.encode("utf-8")
    assert hashlib.sha256(out).hexdigest() == PINNED_OUTPUTS[argv]


class TestCompute:
    def test_so2_from_smiles(self, capsys):
        envelope = run(["compute", "--index", "so2", "--smiles", "CCCCCCCC"])
        assert envelope.exit_status == 0
        assert lines_of(capsys) == ["6/5 (1.2)"]
        assert envelope.results == ("6/5 (1.2)",)

    def test_exact_and_decimal_agree(self, capsys):
        run(["compute", "--index", "so2", "--smiles", "CC(C)(C)C(C)(C)C"])
        exact, decimal = lines_of(capsys)[0].split(" ")
        num, den = exact.split("/")
        assert abs(int(num) / int(den) - float(decimal.strip("()"))) < 1e-12

    def test_tsv_format(self, capsys):
        run(["compute", "--index", "m1", "--smiles", "CCCC",
             "--format", "tsv"])
        assert lines_of(capsys) == ["10\t10.0"]

    def test_irrational_kernel_prints_decimal_only(self, capsys):
        envelope = run(["compute", "--index", "so", "--smiles", "CC"])
        assert envelope.exit_status == 0
        out = lines_of(capsys)[0]
        assert "/" not in out
        assert abs(float(out) - 2 ** 0.5) < 1e-12

    def test_edge_list_input(self, tmp_path, capsys):
        f = tmp_path / "g.txt"
        f.write_text("3 2\n0 1\n1 2\n")
        envelope = run(["compute", "--index", "so2", "--input", str(f)])
        assert envelope.exit_status == 0
        assert lines_of(capsys) == ["6/5 (1.2)"]

    def test_edge_list_with_byte_order_mark(self, tmp_path, capsys):
        # as editors that write UTF-8 with a mark save it, and as
        # datasets are accepted
        f = tmp_path / "bom.txt"
        f.write_bytes(b"\xef\xbb\xbf3 2\n0 1\n1 2\n")
        envelope = run(["compute", "--index", "so2", "--input", str(f)])
        assert envelope.exit_status == 0
        assert lines_of(capsys) == ["6/5 (1.2)"]

    def test_mn_index(self, capsys):
        run(["compute", "--index", "mn", "--smiles", "CCC"])
        assert lines_of(capsys) == ["12 (12.0)"]

    def test_parse_error_exits_one(self, capsys):
        envelope = run(["compute", "--index", "so2", "--smiles", "CC(C"])
        captured = capsys.readouterr()
        assert envelope.exit_status == 1
        assert captured.out == ""
        assert "unbalanced" in captured.err

    def test_missing_file_exits_one(self, capsys):
        envelope = run(["compute", "--index", "so2", "--input", "/nonexistent"])
        assert envelope.exit_status == 1

    @pytest.mark.parametrize("text, message", [
        ("3 2\n0 1\n1 x\n", "line 3: vertex ids must be integers"),
        ("3 2\n0 1\n", "expected 2 edge lines, found 1"),
        ("", "empty edge-list input"),
    ], ids=["bad-vertex-id", "missing-edge-line", "empty"])
    def test_edge_list_error_names_the_file(self, tmp_path, capsys, text,
                                            message):
        f = tmp_path / "bad.txt"
        f.write_text(text)
        envelope = run(["compute", "--index", "so2", "--input", str(f)])
        captured = capsys.readouterr()
        assert envelope.exit_status == 1
        assert captured.out == ""
        assert captured.err == f"error: {f}: {message}\n"

    def test_digit_separators_are_no_integer(self, tmp_path, capsys):
        # int() alone reads this as the 11-vertex graph with edges 0-10
        # and 1-2, whose so2 is 0
        f = tmp_path / "sep.txt"
        f.write_text("1_1 2\n0 1_0\n1 2\n")
        envelope = run(["compute", "--index", "so2", "--input", str(f)])
        captured = capsys.readouterr()
        assert envelope.exit_status == 1
        assert captured.out == ""
        assert captured.err == (f'error: {f}: line 1: header must contain '
                                f'two integers "n m"\n')

    def test_non_utf8_file_names_line_and_byte(self, tmp_path, capsys):
        # a Latin-1 e-acute (one byte, 0xe9) before a space: byte 9 of
        # the file, on line 3
        f = tmp_path / "latin1.txt"
        f.write_bytes("3 2\n0 1\n1\u00e9 2\n".encode("latin-1"))
        envelope = run(["compute", "--index", "so2", "--input", str(f)])
        captured = capsys.readouterr()
        assert envelope.exit_status == 1
        assert captured.out == ""
        assert captured.err == (f"error: {f}: line 3, byte 9: not UTF-8 text "
                                f"(invalid continuation byte)\n")


class TestEnumerate:
    def test_molecular_count(self, capsys):
        envelope = run(["enumerate", "--n", "8", "--molecular",
                        "--emit", "count"])
        assert envelope.exit_status == 0
        assert lines_of(capsys) == ["18"]

    def test_edgelist_stream(self, capsys):
        envelope = run(["enumerate", "--n", "4", "--emit", "edgelist"])
        out = lines_of(capsys)
        assert len(out) == 2
        assert all("-" in line for line in out)

    def test_single_vertex_stream(self, capsys):
        run(["enumerate", "--n", "1"])
        assert lines_of(capsys) == ["(no edges)"]

    def test_deterministic_output(self, capsys):
        run(["enumerate", "--n", "9", "--molecular"])
        first = capsys.readouterr().out
        run(["enumerate", "--n", "9", "--molecular"])
        assert capsys.readouterr().out == first

    @pytest.mark.parametrize("flags", list(ENUMERATE_10_GOLDENS),
                             ids=["free", "molecular"])
    def test_edgelist_matches_golden_bytes(self, flags, capsys):
        envelope = run(["enumerate", "--n", "10", *flags])
        assert envelope.exit_status == 0
        assert (capsys.readouterr().out
                == ENUMERATE_10_GOLDENS[flags].read_text(encoding="utf-8"))

    def test_format_is_not_an_option(self, capsys):
        envelope = run(["enumerate", "--n", "4", "--format", "tsv"])
        assert envelope.exit_status == 2
        assert envelope.results == ()

    def test_cap_violation_exits_one(self, capsys):
        envelope = run(["enumerate", "--n", "25", "--emit", "count"])
        assert envelope.exit_status == 1
        assert "cap" in capsys.readouterr().err

    def test_env_cap_override(self, monkeypatch, capsys):
        monkeypatch.setenv("SOMBOR_MAX_N", "6")
        assert run(["enumerate", "--n", "7", "--emit", "count"]).exit_status == 1
        capsys.readouterr()
        monkeypatch.setenv("SOMBOR_MAX_N", "10")
        envelope = run(["enumerate", "--n", "10", "--emit", "count"])
        assert envelope.exit_status == 0
        assert lines_of(capsys) == ["106"]


class TestExtremal:
    def test_bounds_for_octane_order(self, capsys):
        envelope = run(["extremal", "--n", "8"])
        assert envelope.exit_status == 0
        out = lines_of(capsys)
        assert "min_so2 6/5 (1.2)" in out
        assert "max_so2 168/25 (6.72)" in out
        assert any(line.startswith("molecular_max_so2 90/17") for line in out)

    def test_verify_output_matches_golden_bytes(self, capsys):
        envelope = run(["extremal", "--verify-up-to", "12"])
        assert envelope.exit_status == 0
        assert (capsys.readouterr().out
                == VERIFY_12_GOLDEN.read_text(encoding="utf-8"))

    def test_verify_reports_zero_violations(self, capsys):
        envelope = run(["extremal", "--verify-up-to", "10"])
        assert envelope.exit_status == 0
        out = lines_of(capsys)
        assert out[-1] == "0 violations"
        assert not any("VIOLATION" in line for line in out)

    def test_verify_rejects_orders_it_cannot_check(self, capsys, monkeypatch):
        # below n = 3 nothing would be checked
        for bad in ("2", "1", "0"):
            envelope = run(["extremal", "--verify-up-to", bad])
            assert envelope.exit_status == 1
            assert "n_max >= 3" in envelope.warnings[0]
        monkeypatch.setenv("SOMBOR_MAX_N", "6")
        envelope = run(["extremal", "--verify-up-to", "7"])
        assert envelope.exit_status == 1
        assert envelope.warnings == ("n=7 exceeds the enumeration cap 6",)
        assert capsys.readouterr().out == ""

    def test_family_member_emission(self, capsys):
        envelope = run(["extremal", "--n", "9", "--family"])
        assert envelope.exit_status == 0
        out = lines_of(capsys)
        assert any(line.startswith("family_so2 552/85") for line in out)
        edges = next(line for line in out if line.startswith("family_edges"))
        assert len(edges.split()) == 1 + 8  # key + n-1 edges

    def test_maximizer_emission(self, capsys):
        envelope = run(["extremal", "--n", "8", "--maximizers"])
        assert envelope.exit_status == 0
        out = lines_of(capsys)
        assert any(line.startswith("maximizer_so2 90/17") for line in out)
        assert sum(1 for line in out if line.startswith("maximizer_edges")) == 1

    def test_family_takes_no_residue(self, capsys):
        # n fixes the family, so a residue argument is a usage error
        envelope = run(["extremal", "--n", "9", "--family", "1"])
        assert envelope.exit_status == 2
        assert envelope.results == ()

    def test_family_below_its_minimum_order_exits_one(self, capsys):
        envelope = run(["extremal", "--n", "8", "--family"])
        assert envelope.exit_status == 1
        assert envelope.warnings == ("family 0 needs n >= 12, got n=8",)
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("extra, refused", [
        (["--n", "9"], "--n"), (["--family"], "--family"),
        (["--maximizers"], "--maximizers"),
        (["--maximizers", "--n", "9", "--family"],
         "--n, --family, --maximizers"),
    ], ids=["n", "family", "maximizers", "all"])
    def test_verify_refuses_single_order_options(self, extra, refused,
                                                 capsys):
        envelope = run(["extremal", "--verify-up-to", "4", *extra])
        assert envelope.exit_status == 1
        assert envelope.warnings == (f"--verify-up-to does not take {refused}",)
        assert capsys.readouterr().out == ""

    def test_single_vertex_maximizer_has_no_edges(self, capsys):
        envelope = run(["extremal", "--n", "1", "--maximizers"])
        assert envelope.exit_status == 0
        assert lines_of(capsys) == ["n 1", "maximizer_so2 0 (0.0)",
                                    "maximizer_edges (no edges)"]

    def test_needs_some_action(self, capsys):
        envelope = run(["extremal"])
        assert envelope.exit_status == 1

    def test_rejects_nonpositive_order_before_printing(self, capsys):
        for bad in ("-5", "0"):
            envelope = run(["extremal", "--n", bad])
            assert envelope.exit_status == 1
            assert envelope.warnings == ("n must be positive",)
            assert envelope.results == ()
            assert capsys.readouterr().out == ""

    def test_small_and_large_orders_still_print(self, capsys):
        # no enumeration cap applies to the closed forms
        assert run(["extremal", "--n", "1"]).exit_status == 0
        assert lines_of(capsys) == ["n 1"]
        envelope = run(["extremal", "--n", "1000"])
        assert envelope.exit_status == 0
        assert lines_of(capsys)[0] == "n 1000"


class TestFit:
    def test_default_dataset_fit(self, capsys):
        envelope = run(["fit", "--property", "AcenFac"])
        assert envelope.exit_status == 0
        out = dict(line.split(" ", 1) for line in lines_of(capsys))
        assert out["index"] == "so2"
        assert out["n"] == "18"
        assert abs(float(out["slope"]) - (-0.0314)) < 5e-3
        assert abs(float(out["intercept"]) - 0.4536) < 5e-3

    def test_emit_points(self, capsys):
        envelope = run(["fit", "--property", "S", "--emit-points"])
        assert envelope.exit_status == 0
        out = lines_of(capsys)
        point_rows = [line for line in out if "\t" in line]
        assert len(point_rows) == 1 + 18  # header + one row per molecule
        name, x, y, predicted = point_rows[1].split("\t")
        assert name == "octane" and float(x) == 1.2

    def test_unknown_property_exits_one(self, capsys):
        envelope = run(["fit", "--property", "Density"])
        assert envelope.exit_status == 1

    def test_custom_dataset(self, tmp_path, capsys):
        f = tmp_path / "two.csv"
        f.write_text("name,smiles,Y\na,CCCC,1.0\nb,CC(C)C,2.0\n")
        envelope = run(["fit", "--dataset", str(f), "--property", "Y"])
        assert envelope.exit_status == 0

    def test_non_finite_property_exits_one(self, tmp_path, capsys):
        f = tmp_path / "nan.csv"
        f.write_text("name,smiles,Y\na,CCCC,1.0\nb,CC(C)C,nan\nc,CCCCC,3.0\n")
        envelope = run(["fit", "--dataset", str(f), "--property", "Y"])
        assert envelope.exit_status == 1
        assert "non-finite value 'nan'" in envelope.warnings[0]
        assert lines_of(capsys) == []

    @pytest.mark.parametrize("smiles, values, message", [
        # every so2 is 6/5 on a path skeleton
        (("CCC", "CCCC", "CCCCC"), ("1", "2", "3"),
         "so2 against 'P': predictor is constant"),
        (("CCCC", "CC(C)C", "CCCCC"), ("1", "1", "1"),
         "so2 against 'P': response is constant"),
        # the squares of the deviations overflow a float
        (("CCCC", "CC(C)C", "CCCCC"), ("1e308", "-1e308", "1e308"),
         "so2 against 'P': a sum of the data is not finite (a NaN, an "
         "infinity or an overflow)"),
    ], ids=["constant-predictor", "constant-response", "overflow"])
    def test_unfittable_data_exits_one_naming_the_fit(self, tmp_path, capsys,
                                                      smiles, values,
                                                      message):
        f = tmp_path / "p.csv"
        f.write_text("name,smiles,P\n" + "".join(
            f"m{i},{s},{v}\n" for i, (s, v) in enumerate(zip(smiles, values))))
        envelope = run(["fit", "--dataset", str(f), "--property", "P"])
        assert envelope.exit_status == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: {message}\n"
        assert captured.out == ""

    def test_header_only_dataset_has_too_few_points(self, tmp_path, capsys):
        # P is a column; there are just no molecules to fit
        f = tmp_path / "h.csv"
        f.write_text("name,smiles,P\n")
        envelope = run(["fit", "--dataset", str(f), "--property", "P"])
        captured = capsys.readouterr()
        assert envelope.exit_status == 1
        assert captured.out == ""
        assert captured.err == ("error: so2 against 'P': need at least two "
                                "points\n")

    def test_index_named_property_exits_one(self, tmp_path, capsys):
        # it would otherwise fit so2 against the computed M1 (10, 12, 14)
        f = tmp_path / "m1.csv"
        f.write_text("name,smiles,m1\na,CCCC,100\nb,CC(C)C,7\nc,CCCCC,3\n")
        envelope = run(["fit", "--dataset", str(f), "--property", "m1",
                        "--emit-points"])
        assert envelope.exit_status == 1
        assert "column 'm1'" in envelope.warnings[0]
        assert lines_of(capsys) == []


class TestParse:
    def test_parse_output(self, capsys):
        envelope = run(["parse", "--smiles", "CC(C)C"])
        assert envelope.exit_status == 0
        assert lines_of(capsys) == [
            "n 4",
            "m 3",
            "edges 0-1 1-2 1-3",
            "degrees 1 3 1 1",
        ]

    def test_single_atom(self, capsys):
        run(["parse", "--smiles", "C"])
        out = lines_of(capsys)
        assert out[0] == "n 1" and out[2] == "edges (no edges)"


def reference_edge_string(g):
    return " ".join(f"{u}-{v}" for u, v in g.edges())


# both centroid kinds, degrees above and below four
ENUMERATED_TREES = [*enumerate_trees(10), *enumerate_molecular_trees(11)]


class TestEdgeString:
    @settings(deadline=None, max_examples=50)
    @given(simple_graphs(max_n=30), st.sampled_from(ENUMERATED_TREES))
    def test_equals_the_edge_list(self, g, tree):
        assert cli._edge_string(g) == reference_edge_string(g)
        # an enumerated tree's text comes from its memoised branches
        assert cli._edge_string(tree) == reference_edge_string(tree)

    def test_parse_writes_a_5000_carbon_chain(self, capsys):
        smiles = "C" * 5000
        envelope = run(["parse", "--smiles", smiles])
        assert envelope.exit_status == 0
        edges = lines_of(capsys)[2]
        assert edges == "edges " + reference_edge_string(
            parse_alkane_smiles(smiles))
        assert edges.endswith(" 4998-4999")


class TestDispatch:
    def test_unknown_subcommand_exits_two(self, capsys):
        envelope = run(["frobnicate"])
        assert envelope.exit_status == 2
        assert envelope.results == ()

    def test_unknown_flag_exits_two(self, capsys):
        envelope = run(["compute", "--index", "so2", "--smiles", "C",
                        "--bogus"])
        assert envelope.exit_status == 2

    @pytest.mark.parametrize("raw", NON_INTEGERS)
    def test_integer_options_are_a_sign_and_ascii_digits(self, raw, capsys):
        for argv in (["enumerate", "--n", raw, "--emit", "count"],
                     ["extremal", "--n", raw],
                     ["extremal", "--verify-up-to", raw]):
            envelope = run(argv)
            captured = capsys.readouterr()
            assert envelope.exit_status == 2
            assert captured.out == ""
            assert f"invalid ascii_int value: {raw!r}" in captured.err

    def test_envelope_echoes_command(self, capsys):
        argv = ["enumerate", "--n", "3", "--emit", "count"]
        envelope = run(argv)
        assert envelope.command == tuple(argv)
        assert isinstance(envelope, OutputEnvelope)
