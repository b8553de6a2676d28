"""Command line behavior: exit codes, output formats, environment knobs."""

import json

import pytest

from gkmkit import parse, serialize
from gkmkit.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def cp2_file(tmp_path, capsys):
    path = tmp_path / "cp2.json"
    code = main(["example", "cpn", "--n", "2", "--out", str(path)])
    capsys.readouterr()
    assert code == 0
    return str(path)


@pytest.fixture
def cp3_file(tmp_path, capsys):
    path = tmp_path / "cp3.json"
    assert main(["example", "cpn", "--n", "3", "--out", str(path)]) == 0
    capsys.readouterr()
    return str(path)


class TestValidate:
    def test_model_passes(self, capsys, cp2_file):
        code, out, _ = run(capsys, "validate", cp2_file)
        assert code == 0
        assert "pairing: pass" in out
        assert "describes: pass" in out

    def test_non_gkm_example_fails(self, capsys, tmp_path):
        path = tmp_path / "ng.json"
        assert main(["example", "cp3_nongkm", "--out", str(path)]) == 0
        capsys.readouterr()
        code, out, _ = run(capsys, "validate", str(path))
        assert code == 2
        assert "gkm: FAIL" in out
        assert "pairing: pass" in out

    def test_json_output(self, capsys, cp2_file):
        code, out, _ = run(capsys, "validate", cp2_file, "--json")
        assert code == 0
        doc = json.loads(out)
        assert all(entry["passed"] for entry in doc)
        assert {"pairing", "weight_sum", "gkm"} <= {e["check"] for e in doc}


class TestGenus:
    def test_s6_text(self, capsys, tmp_path):
        path = tmp_path / "s6.json"
        assert main(["example", "s6", "--out", str(path)]) == 0
        capsys.readouterr()
        code, out, _ = run(capsys, "genus", str(path))
        assert code == 0
        assert "chi_y = -y + y^2" in out
        assert "euler = 2" in out
        assert "signature = 0" in out

    def test_json(self, capsys, cp2_file):
        code, out, _ = run(capsys, "genus", cp2_file, "--json")
        assert code == 0
        doc = json.loads(out)
        assert doc["chi_y"] == [1, 1, 1]
        assert doc["euler"] == 3 and doc["todd"] == 1 and doc["signature"] == 1
        assert any(c["check"] == "chi_y_positivity" for c in doc["checks"])

    def test_explicit_xi(self, capsys, cp2_file):
        code, out, _ = run(capsys, "genus", cp2_file, "--xi", "2,5")
        assert code == 0
        assert "coefficients = [1, 1, 1]" in out

    def test_non_generic_xi(self, capsys, cp2_file):
        code, _, err = run(capsys, "genus", cp2_file, "--xi", "0,1")
        assert code == 3
        assert "error:" in err

    def test_bad_xi_syntax(self, capsys, cp2_file):
        code, _, err = run(capsys, "genus", cp2_file, "--xi", "a,b")
        assert code == 64


class TestChern:
    def test_single_partition(self, capsys, cp2_file):
        code, out, _ = run(capsys, "chern", cp2_file, "--partition", "1,1")
        assert code == 0
        assert "c1^2 = 9" in out

    def test_all_partitions(self, capsys, tmp_path):
        path = tmp_path / "v5.json"
        assert main(["example", "fano", "--variant", "V5", "--out", str(path)]) == 0
        capsys.readouterr()
        code, out, _ = run(capsys, "chern", str(path))
        assert code == 0
        assert "c1^3 = 40" in out
        assert "c2*c1 = 24" in out
        assert "c3 = 4" in out

    def test_partition_must_sum(self, capsys, cp2_file):
        code, _, err = run(capsys, "chern", cp2_file, "--partition", "1")
        assert code == 3

    def test_partition_syntax(self, capsys, cp2_file):
        code, _, _ = run(capsys, "chern", cp2_file, "--partition", "x")
        assert code == 64

    def test_mode_flag_in_json(self, capsys, cp2_file):
        code, out, _ = run(capsys, "chern", cp2_file, "--json", "--mode", "expanded")
        assert code == 0
        doc = json.loads(out)
        assert doc["mode"] == "expanded"
        assert {"partition": [1, 1], "value": 9} in doc["values"]

    def test_mode_env_default(self, capsys, cp2_file, monkeypatch):
        monkeypatch.setenv("GKMKIT_MODE", "expanded")
        code, out, _ = run(capsys, "chern", cp2_file, "--json")
        assert code == 0
        assert json.loads(out)["mode"] == "expanded"

    def test_mode_flag_beats_env(self, capsys, cp2_file, monkeypatch):
        monkeypatch.setenv("GKMKIT_MODE", "expanded")
        code, out, _ = run(capsys, "chern", cp2_file, "--json", "--mode", "generic")
        assert code == 0
        assert json.loads(out)["mode"] == "generic"

    def test_bad_env_mode(self, capsys, cp2_file, monkeypatch):
        monkeypatch.setenv("GKMKIT_MODE", "fast")
        code, _, err = run(capsys, "chern", cp2_file)
        assert code == 64
        assert "GKMKIT_MODE" in err


class TestPetrie:
    def test_match(self, capsys, cp3_file):
        code, out, _ = run(capsys, "petrie", cp3_file)
        assert code == 0
        assert "verdict: match" in out
        assert "base point: p0" in out
        assert "c1^3 = 64" in out

    def test_precondition(self, capsys, tmp_path):
        path = tmp_path / "s6.json"
        assert main(["example", "s6", "--out", str(path)]) == 0
        capsys.readouterr()
        code, out, _ = run(capsys, "petrie", str(path))
        assert code == 3
        assert "verdict: precondition-failed" in out

    def test_no_match(self, capsys, tmp_path, cp2_file):
        data, _ = parse(open(cp2_file).read())
        doc = json.loads(serialize(data))
        for p in doc["fixed_points"]:
            if p["id"] == "p2":
                p["weights"] = [[0, -1], [1, -2]]
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        code, out, _ = run(capsys, "petrie", str(bad))
        assert code == 2
        assert "verdict: no-match" in out

    def test_json_with_gl(self, capsys, cp2_file):
        code, out, _ = run(capsys, "petrie", cp2_file, "--json", "--up-to-gl")
        assert code == 0
        doc = json.loads(out)
        assert doc["verdict"] == "match"
        assert doc["basis"] == [[1, 0], [0, 1]]
        assert doc["simplex"] == [[0, 0], [1, 0], [0, 1]]
        assert doc["gl_normalized_equal"] is True
        assert {"partition": [1, 1], "value": 9} in doc["invariants"]["chern"]


class TestGraph:
    def test_dot_shows_parallel_edges(self, capsys, tmp_path):
        path = tmp_path / "v22.json"
        assert main(["example", "fano", "--variant", "V22", "--out", str(path)]) == 0
        capsys.readouterr()
        code, out, _ = run(capsys, "graph", str(path), "--format", "dot")
        assert code == 0
        assert out.count('"p1" -> "p4"') == 2
        assert out.startswith("digraph fixed_point_graph {")

    def test_json_round_trip(self, capsys, cp2_file):
        code, out, _ = run(capsys, "graph", cp2_file, "--format", "json")
        assert code == 0
        data, graph = parse(out)
        assert serialize(data, graph) == out

    def test_build_warns_on_self_loops(self, capsys, tmp_path):
        doc = {"torus_rank": 2, "half_dim": 2,
               "fixed_points": [{"id": "p", "weights": [[1, 0], [-1, 0]]}]}
        path = tmp_path / "loop.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, "graph", str(path))
        assert code == 0
        assert "loop-free" in err
        assert '"p" -> "p"' in out

    def test_build_failure(self, capsys, tmp_path):
        doc = {"torus_rank": 2, "half_dim": 2,
               "fixed_points": [{"id": "p", "weights": [[1, 0], [0, 1]]}]}
        path = tmp_path / "nopair.json"
        path.write_text(json.dumps(doc))
        code, _, err = run(capsys, "graph", str(path))
        assert code == 2
        assert "error:" in err

    def test_out_file(self, capsys, cp2_file, tmp_path):
        target = tmp_path / "g.dot"
        code, out, _ = run(capsys, "graph", cp2_file, "--out", str(target))
        assert code == 0 and out == ""
        assert target.read_text().startswith("digraph")


class TestExample:
    def test_deterministic_output(self, capsys):
        _, first, _ = run(capsys, "example", "cpn", "--n", "3")
        _, second, _ = run(capsys, "example", "cpn", "--n", "3")
        assert first == second

    def test_custom_basis(self, capsys):
        code, out, _ = run(capsys, "example", "cpn", "--n", "2",
                           "--basis", "1,1;0,1")
        assert code == 0
        data, _ = parse(out)
        assert (1, 1) in data.point("p0").weights

    def test_dependent_basis(self, capsys):
        code, _, err = run(capsys, "example", "cpn", "--basis", "1,0;2,0")
        assert code == 3

    def test_s6_parameters(self, capsys):
        code, out, _ = run(capsys, "example", "s6", "--a", "1,2", "--b", "0,1")
        assert code == 0
        data, _ = parse(out)
        assert (1, 2) in data.point("p").weights

    def test_bad_variant(self, capsys):
        code, _, _ = run(capsys, "example", "fano", "--variant", "V9")
        assert code == 3

    def test_unknown_name(self, capsys):
        code, _, _ = run(capsys, "example", "torus")
        assert code == 64


class TestUsageAndIo:
    def test_no_arguments(self, capsys):
        assert run(capsys, )[0] == 64

    def test_unknown_command(self, capsys):
        assert run(capsys, "frobnicate")[0] == 64

    def test_unknown_flag(self, capsys, cp2_file):
        assert run(capsys, "validate", cp2_file, "--frob")[0] == 64

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "validate", "/nonexistent/data.json")
        assert code == 4
        assert "error:" in err

    def test_unparsable_file(self, capsys, tmp_path):
        path = tmp_path / "junk.json"
        path.write_text("not json at all")
        code, _, err = run(capsys, "validate", str(path))
        assert code == 4

    def test_deeply_nested_file(self, capsys, tmp_path):
        path = tmp_path / "deep.json"
        path.write_text("[" * 5000 + "]" * 5000)
        code, _, err = run(capsys, "validate", str(path))
        assert code == 4
        assert "nested too deeply" in err

    def test_graph_unwritable_out(self, capsys, cp2_file, tmp_path):
        target = tmp_path / "missing_dir" / "g.dot"
        code, out, err = run(capsys, "graph", cp2_file, "--out", str(target))
        assert code == 4
        assert err.startswith("error: cannot write") and "Traceback" not in err
        assert out == ""

    def test_example_unwritable_out(self, capsys, tmp_path):
        target = tmp_path / "missing_dir" / "cp2.json"
        code, out, err = run(capsys, "example", "cpn", "--out", str(target))
        assert code == 4
        assert err.startswith("error: cannot write") and "Traceback" not in err
        assert out == ""
