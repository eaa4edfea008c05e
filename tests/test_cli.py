from pathlib import Path

from sombor.cli import OutputEnvelope, run

# stdout of `sombor extremal --verify-up-to 12` from the graph-by-graph
# verifier that preceded the shape-level scan
VERIFY_12_GOLDEN = Path(__file__).parent / "data" / "extremal_verify_up_to_12.txt"


def lines_of(capsys):
    return capsys.readouterr().out.splitlines()


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

    def test_family_member_emission(self, capsys):
        envelope = run(["extremal", "--n", "9", "--family", "1"])
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

    def test_family_residue_mismatch_exits_one(self, capsys):
        envelope = run(["extremal", "--n", "9", "--family", "2"])
        assert envelope.exit_status == 1

    def test_needs_some_action(self, capsys):
        envelope = run(["extremal"])
        assert envelope.exit_status == 1


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


class TestDispatch:
    def test_unknown_subcommand_exits_two(self, capsys):
        envelope = run(["frobnicate"])
        assert envelope.exit_status == 2
        assert envelope.results == ()

    def test_unknown_flag_exits_two(self, capsys):
        envelope = run(["compute", "--index", "so2", "--smiles", "C",
                        "--bogus"])
        assert envelope.exit_status == 2

    def test_envelope_echoes_command(self, capsys):
        argv = ["enumerate", "--n", "3", "--emit", "count"]
        envelope = run(argv)
        assert envelope.command == tuple(argv)
        assert isinstance(envelope, OutputEnvelope)
