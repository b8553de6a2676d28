"""Command line behavior: exit codes, output formats, help and usage text."""

import argparse
import copy
import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from gkmkit import all_entries, cli, cpn, genus, model, parse, serialize, transform, weights
from gkmkit.cli import main

from conftest import random_relabel, random_unimodular, shuffled


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


SKEW_DOC = """{"torus_rank": 2, "half_dim": 2, "fixed_points": [
 {"id": "p0", "weights": [[2,-2],[2,-2]]},
 {"id": "p1", "weights": [[1,-2],[1,2]]},
 {"id": "p2", "weights": [[1,1],[-2,1]]}]}"""

# ``example s6_blowup --a 1,1 --b 0,1``: the blow-up of the six-sphere
# action with weights (1,1) and (0,1), as it prints
S6_BLOWUP_11_01 = """{
  "torus_rank": 2,
  "half_dim": 3,
  "torus_manifold": false,
  "fixed_points": [
    {"id": "p1", "weights": [[-2,-3],[-1,0],[1,1]]},
    {"id": "p2", "weights": [[-1,-2],[1,3],[2,3]]},
    {"id": "p3", "weights": [[-1,-3],[0,1],[1,0]]},
    {"id": "q", "weights": [[-1,-1],[0,-1],[1,2]]}
  ],
  "edges": [
    {"from": "p1", "to": "p3", "label": [-1,0]},
    {"from": "p1", "to": "q", "label": [1,1]},
    {"from": "p2", "to": "p1", "label": [2,3]},
    {"from": "p2", "to": "p3", "label": [1,3]},
    {"from": "p3", "to": "q", "label": [0,1]},
    {"from": "q", "to": "p2", "label": [1,2]}
  ]
}
"""


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

    def test_verdicts_judge_the_printed_polynomial(self, capsys, tmp_path):
        # symmetric for the default circle, not for the circle (5, 1)
        path = tmp_path / "skew.json"
        path.write_text(SKEW_DOC)
        code, out, _ = run(capsys, "genus", str(path))
        assert code == 0
        assert "coefficients = [1, 1, 1]" in out
        assert "chi_y_symmetry: pass" in out
        code, out, _ = run(capsys, "genus", str(path), "--xi", "5,1")
        assert code == 2
        assert "coefficients = [2, 1, 0]" in out
        assert "chi_y_symmetry: FAIL" in out
        code, out, _ = run(capsys, "genus", str(path), "--xi", "5,1", "--json")
        assert code == 2
        doc = json.loads(out)
        assert doc["chi_y"] == [2, 1, 0]
        assert doc["checks"] == [{"check": "chi_y_symmetry", "passed": False, "note": ""}]

    def test_one_chi_y_per_call(self, capsys, cp3_file, monkeypatch):
        calls = []
        real = genus.index_d_minus

        def counting(point, xi):
            calls.append(point.id)
            return real(point, xi)

        monkeypatch.setattr(genus, "index_d_minus", counting)
        code, out, _ = run(capsys, "genus", cp3_file)
        assert code == 0
        assert "chi_y_positivity: pass" in out
        assert len(calls) == 4  # one per fixed point of CP^3


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

    def test_single_partition_json_is_one_line(self, capsys, cp2_file):
        code, out, err = run(capsys, "chern", cp2_file, "--partition", "1,1", "--json")
        assert (code, err) == (0, "")
        assert out == '{"partition": [1, 1], "value": 9, "mode": "generic"}\n'

    def test_mode_flag_in_json(self, capsys, cp2_file):
        code, out, _ = run(capsys, "chern", cp2_file, "--json", "--mode", "expanded")
        assert code == 0
        doc = json.loads(out)
        assert doc["mode"] == "expanded"
        assert {"partition": [1, 1], "value": 9} in doc["values"]

    def test_two_point_luck_refused_in_both_modes(self, capsys, tmp_path):
        # c1^2 sums to 8 at (1,2) and at (1,3), but to 872/105 at (1,4)
        path = tmp_path / "luck.json"
        path.write_text(json.dumps({"torus_rank": 2, "half_dim": 2, "fixed_points": [
            {"id": "p0", "weights": [[-3, 3], [3, 1]]},
            {"id": "p1", "weights": [[3, -3], [-1, -1]]},
            {"id": "p2", "weights": [[-3, -1], [1, 1]]}]}))
        message = ("localized sum is not a constant; the numerators do not "
                   "come from a global class of integral degree")
        for mode in ("generic", "expanded"):
            code, out, err = run(capsys, "chern", str(path), "--mode", mode)
            assert (code, out, err) == (2, f"c2 = 3\nc1^2: FAIL ({message})\n", ""), mode
            code, out, err = run(capsys, "chern", str(path), "--mode", mode,
                                 "--partition", "1,1")
            assert (code, out, err) == (2, "", f"error: {message}\n"), mode

    def test_weightless_data_of_huge_rank(self, capsys, tmp_path):
        # without weights no circle or point is read, so rank 10^7 costs
        # what rank 1 does and prints the same
        outputs = []
        for k in (1, 10 ** 7):
            path = tmp_path / f"rank{k}.json"
            path.write_text(json.dumps({"torus_rank": k, "half_dim": 0,
                                        "fixed_points": [{"id": "p", "weights": []}]}))
            outputs.append([run(capsys, *form) for form in (
                ("genus", str(path)), ("chern", str(path)),
                ("chern", str(path), "--mode", "expanded"))])
        assert outputs[1] == outputs[0]
        assert [code for code, _, _ in outputs[0]] == [0, 0, 0]
        assert outputs[0][1] == (0, "1 = 1\n", "")

    def test_mode_help_names_modes_and_default(self, capsys):
        code, out, _ = run(capsys, "chern", "--help")
        assert code == 0
        help_text = " ".join(out.split())
        assert ("generic (one point for GKM data with a describing graph, "
                "else exact)") in help_text
        assert "expanded (exact polynomial identity)" in help_text
        assert "default generic" in help_text


class TestPetrie:
    def test_match(self, capsys, cp3_file):
        code, out, _ = run(capsys, "petrie", cp3_file)
        assert code == 0
        assert "verdict: match" in out
        assert "base point: p0" in out
        assert "c1^3 = 64" in out

    def test_match_full_text_with_gl(self, capsys, cp3_file):
        code, out, err = run(capsys, "petrie", cp3_file, "--up-to-gl")
        assert (code, err) == (0, "")
        assert out == "".join(line + "\n" for line in [
            "verdict: match",
            "base point: p0",
            "basis: (1,0,0), (0,1,0), (0,0,1)",
            "simplex: (0,0,0), (1,0,0), (0,1,0), (0,0,1)",
            "relation: (p0, p1) divisor (1,0,0)",
            "relation: (p0, p2) divisor (0,1,0)",
            "relation: (p0, p3) divisor (0,0,1)",
            "relation: (p1, p2) divisor (-1,1,0)",
            "relation: (p1, p3) divisor (-1,0,1)",
            "relation: (p2, p3) divisor (0,-1,1)",
            "chi_y coefficients: [1, 1, 1, 1]",
            "euler = 4, todd = 1, signature = 0",
            "c1^3 = 64",
            "c2*c1 = 24",
            "c3 = 4",
            "graph consistent: True",
            "gl normalized equal: True",
        ])

    def test_precondition(self, capsys, tmp_path):
        path = tmp_path / "s6.json"
        assert main(["example", "s6", "--out", str(path)]) == 0
        capsys.readouterr()
        code, out, _ = run(capsys, "petrie", str(path))
        assert code == 3
        assert "verdict: precondition-failed" in out
        assert out == ("verdict: precondition-failed\n"
                       "witness: data is not flagged as a torus manifold\n")

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
        assert out == ("verdict: no-match\n"
                       "witness: weights at p2 do not match the model pattern for base p0\n")

    def test_json_with_gl(self, capsys, cp2_file):
        code, out, _ = run(capsys, "petrie", cp2_file, "--json", "--up-to-gl")
        assert code == 0
        doc = json.loads(out)
        assert doc["verdict"] == "match"
        assert doc["basis"] == [[1, 0], [0, 1]]
        assert doc["simplex"] == [[0, 0], [1, 0], [0, 1]]
        assert doc["gl_normalized_equal"] is True
        assert {"partition": [1, 1], "value": 9} in doc["invariants"]["chern"]
        expected = {
            "verdict": "match",
            "base_point": "p0",
            "basis": [[1, 0], [0, 1]],
            "relabeling": {"p0": 0, "p1": 1, "p2": 2},
            "simplex": [[0, 0], [1, 0], [0, 1]],
            "invariants": {
                "chi_y": [1, 1, 1], "euler": 3, "todd": 1, "signature": 1,
                "chern": [{"partition": [1, 1], "value": 9},
                          {"partition": [2], "value": 3}]},
            "witness": None,
            "graph_consistent": True,
            "gl_normalized_equal": True,
        }
        assert out == json.dumps(expected, indent=2) + "\n"


    def test_one_lattice_check_per_point(self, capsys, tmp_path, monkeypatch):
        # parse checks the lattice bases once, and the precondition reads
        # that: below the crossover every point takes one det, from it on one
        # det certifies the whole (connected) CP^n
        rng = random.Random(2100)
        calls = []
        det = weights.det
        monkeypatch.setattr(weights, "det", lambda rows: calls.append(rows) or det(rows))
        cut = model._CERTIFY_FROM
        for n in (cut - 1, cut, cut + 2):
            moved = transform(cpn(n).data, random_unimodular(rng, n))
            data = shuffled(rng, random_relabel(rng, moved, prefix="d")[0])
            path = tmp_path / f"disguised{n}.json"
            path.write_text(serialize(data))
            calls.clear()
            code, out, _ = run(capsys, "petrie", str(path), "--json")
            assert code == 0 and json.loads(out)["verdict"] == "match"
            assert len(calls) == (1 if n >= cut else n + 1), n


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

    @pytest.mark.parametrize("points, message", [
        # three classes out of balance, in class order
        ([[[1, 0], [0, 1]], [[1, 0], [0, 1]], [[-1, 0], [2, 1]]],
         "pairing violation, no multigraph can describe the data: (0, 1): 2 vs 0 "
         "negated; (1, 0): 2 vs 1 negated; (2, 1): 1 vs 0 negated"),
        # pairing holds, but mod (0, 1) the weights at p and r disagree
        ([[[1, 0], [0, 1]], [[-1, 0], [0, 3]], [[0, -1], [0, -3]]],
         "no congruent matching for weight class (0, 1)"),
    ], ids=["pairing", "bucket"])
    def test_build_error_texts(self, capsys, tmp_path, points, message):
        doc = {"torus_rank": 2, "half_dim": 2, "fixed_points": [
            {"id": pid, "weights": ws} for pid, ws in zip("pqr", points)]}
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        assert run(capsys, "graph", str(path), "--build") == (2, "", f"error: {message}\n")

    def test_dot_escapes_quote_and_backslash(self, capsys, tmp_path):
        doc = {"torus_rank": 1, "half_dim": 1, "fixed_points": [
            {"id": 'a"b', "weights": [[1]]}, {"id": "c\\d", "weights": [[-1]]}]}
        path = tmp_path / "ids.json"
        path.write_text(json.dumps(doc))
        code, out, _ = run(capsys, "graph", str(path), "--format", "dot")
        assert code == 0
        assert out == ('digraph fixed_point_graph {\n'
                       '  "a\\"b";\n'
                       '  "c\\\\d";\n'
                       '  "a\\"b" -> "c\\\\d" [label="1"];\n'
                       '}\n')

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

    def test_s6_parameter_of_wrong_length(self, capsys):
        code, out, err = run(capsys, "example", "s6", "--a", "1,2,3")
        assert (code, out) == (3, "")
        assert err == "error: parameters must be vectors of length 2\n"

    def test_s6_blowup_parameters(self, capsys):
        code, out, err = run(capsys, "example", "s6_blowup", "--a", "1,1", "--b", "0,1")
        assert (code, err) == (0, "")
        assert out == S6_BLOWUP_11_01

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

    @pytest.mark.parametrize("content", [
        b'\xff\xfe{"torus_rank":1}',                    # not UTF-8
        b'{"torus_rank": 1' + b"0" * 4400 + b"}",       # over 4300 digits
    ], ids=["not_utf8", "long_integer"])
    @pytest.mark.parametrize("command", ["validate", "genus", "chern", "petrie", "graph"])
    def test_undecodable_file(self, capsys, tmp_path, content, command):
        path = tmp_path / "bad.json"
        path.write_bytes(content)
        code, out, err = run(capsys, command, str(path))
        assert code == 4
        assert err.startswith("error: cannot parse") and "Traceback" not in err
        assert out == ""

    @pytest.mark.parametrize("argv", [
        ("graph", "{file}", "--out="),
        ("example", "cpn", "--out="),
    ])
    def test_empty_out(self, capsys, cp2_file, argv):
        code, out, err = run(capsys, *(a.format(file=cp2_file) for a in argv))
        assert code == 4
        assert err.startswith("error: cannot write") and "Traceback" not in err
        assert out == ""

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

    @pytest.mark.parametrize("argv", [
        ("chern", "{file}", "--partition="),
        ("genus", "{file}", "--xi="),
        ("example", "cpn", "--n", "2", "--basis="),
    ])
    def test_empty_option_value(self, capsys, cp2_file, argv):
        code, out, err = run(capsys, *(a.format(file=cp2_file) for a in argv))
        assert code == 64
        assert err == "error: not an integer vector: ''\n" and out == ""

    @pytest.mark.parametrize("doc, message", [
        ([], "top level must be an object"),
        ({"fixed_points": []}, "fixed_points must be a non-empty list"),
        ({"fixed_points": "p"}, "fixed_points must be a non-empty list"),
        ({"edges": "x"}, "edges must be a list"),
        ({"edges": [{"from": "p", "to": "q"}]},
         "edge must have exactly from, to, label: {'from': 'p', 'to': 'q'}"),
    ], ids=["top_level_list", "no_points", "points_not_a_list", "edges_not_a_list",
            "edge_without_label"])
    def test_parse_error_texts(self, capsys, tmp_path, doc, message):
        if isinstance(doc, dict):
            doc = {"torus_rank": 1, "half_dim": 1, "fixed_points": [
                {"id": "p", "weights": [[1]]}, {"id": "q", "weights": [[-1]]}], **doc}
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, "validate", str(path))
        assert (code, out) == (4, "")
        assert err == f"error: cannot parse {path}: {message}\n"

    def test_non_basis_point_exits_4(self, capsys, tmp_path):
        doc = {"torus_rank": 2, "half_dim": 2, "torus_manifold": True,
               "fixed_points": [{"id": "p", "weights": [[2, 3], [3, 5]]},
                                {"id": "q", "weights": [[2, 1], [4, 3]]}]}
        path = tmp_path / "det2.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, "validate", str(path))
        assert code == 4 and out == ""
        assert "weights at q are not a lattice basis" in err

    @pytest.mark.parametrize("endpoint", [["p0"], {"id": "p0"}, 0, None, ""])
    def test_edge_endpoint_not_a_string(self, capsys, tmp_path, endpoint):
        doc = json.loads(EDGE_DOC)
        doc["edges"][1]["from"] = endpoint
        path = tmp_path / "endpoint.json"
        path.write_text(json.dumps(doc))
        for command in ("validate", "genus", "chern", "petrie", "graph"):
            code, out, err = run(capsys, command, str(path))
            assert code == 4, command
            assert "edge endpoint must be a non-empty string" in err
            assert "Traceback" not in err and out == ""


def _rank_one_doc(*points):
    return json.dumps({"torus_rank": 1, "half_dim": 2, "fixed_points": [
        {"id": pid, "weights": [[a], [b]]} for pid, (a, b) in zip("pq", points)]})


# every weight parses (at most 4300 digits), but c1^2 = 2 (a + b)^2 / (ab)
# has 6001-digit parts and the weight sum has 4301 digits
HUGE_A, HUGE_B = 10 ** 3000 + 1, 10 ** 3000 + 3
HUGE_CHERN_DOC = _rank_one_doc((HUGE_A, HUGE_B), (-HUGE_A, -HUGE_B))
HUGE_SUM_DOC = _rank_one_doc((10 ** 4300 - 1, 10 ** 4300 - 1), (1, 2))


class TestJsonOutput:
    """``--json`` is printed by ``cli._dumps``, which must give the bytes of
    ``json.dumps(doc, indent=2)``."""

    ALPHABET = ("a", "Z", "0", " ", "/", '"', "\\", "\n", "\t", "\x00", "\x1f",
                "\x7f", "\xe9", "\u2211", "\u2028", "\U0001f600", "<", "&")

    def leaf(self, rng):
        kind = rng.randrange(8)
        if kind == 0:
            return "".join(rng.choice(self.ALPHABET) for _ in range(rng.randint(0, 6)))
        if kind == 1:
            return rng.choice((1, -1)) * rng.randrange(2 ** 64, 2 ** 200)
        if kind == 2:
            return rng.randint(-3, 3)
        if kind == 3:
            return rng.choice((True, False, None))
        if kind == 4:
            return rng.choice(([], {}, ()))
        if kind == 5:  # a printable digit count, a str subclass
            return weights.printable(rng.choice((1, -1)) * 10 ** rng.randint(4300, 4600) + 7)
        return rng.choice(("p0", "c1^2", "", "pass", "no-match"))

    def doc(self, rng, depth=0):
        kind = rng.random()
        if depth >= 4 or kind < 0.4:
            return self.leaf(rng)
        children = [self.doc(rng, depth + 1) for _ in range(rng.randint(0, 4))]
        if kind < 0.6:
            return tuple(children)
        if kind < 0.8:
            return children
        return {"".join(rng.choice(self.ALPHABET) for _ in range(rng.randint(0, 4))): c
                for c in children}

    def test_formatter_equals_json_dumps(self):
        rng = random.Random(20261022)
        seen = set()
        for _ in range(400):
            doc = self.doc(rng)
            assert cli._dumps(doc) == json.dumps(doc, indent=2), doc
            seen.add(type(doc).__name__)
        assert seen >= {"dict", "list", "tuple", "str", "int", "bool", "NoneType"}, seen

    def test_refuses_what_json_refuses(self):
        for bad in (1.5, {"a": Fraction(1, 3)}, [object()]):
            with pytest.raises(TypeError, match="is not JSON serializable"):
                cli._dumps(bad)

    def test_catalog_outputs_are_json_dumps_indent_2(self, capsys, tmp_path):
        path = str(tmp_path / "entry.json")
        docs = [serialize(e.data, e.graph) for e in all_entries()]
        for text in docs + [HUGE_CHERN_DOC]:
            with open(path, "w") as fh:
                fh.write(text)
            for argv in (["chern", path], ["chern", path, "--mode", "expanded"],
                         ["genus", path], ["petrie", path, "--up-to-gl"],
                         ["validate", path]):
                _, out, _ = run(capsys, *argv, "--json")
                assert out == json.dumps(json.loads(out), indent=2) + "\n", argv


class TestHugeIntegers:
    """Results too long for str() print as their digit count, exit 2."""

    def test_chern(self, capsys, tmp_path):
        path = tmp_path / "huge_chern.json"
        path.write_text(HUGE_CHERN_DOC)
        limit = sys.get_int_max_str_digits()
        message = ("Chern number for (1, 1) is not an integer: "
                   "<6001-digit integer>/<6001-digit integer>")
        for mode in ("generic", "expanded"):
            code, out, err = run(capsys, "chern", str(path), "--mode", mode)
            assert (code, out, err) == (2, f"c2 = 2\nc1^2: FAIL ({message})\n", "")
            code, out, _ = run(capsys, "chern", str(path), "--mode", mode, "--json")
            assert code == 2
            assert json.loads(out)["failures"] == [{"partition": [1, 1], "error": message}]
            code, out, err = run(capsys, "chern", str(path), "--mode", mode,
                                 "--partition", "1,1")
            assert (code, out, err) == (2, "", f"error: {message}\n")
        assert sys.get_int_max_str_digits() == limit

    def test_validate(self, capsys, tmp_path):
        path = tmp_path / "huge_sum.json"
        path.write_text(HUGE_SUM_DOC)
        limit = sys.get_int_max_str_digits()
        code, out, err = run(capsys, "validate", str(path))
        assert code == 2 and err == ""
        assert "weight_sum: FAIL\n  witness: (<4301-digit integer>,)\n" in out
        code, out, err = run(capsys, "validate", str(path), "--json")
        assert code == 2 and err == ""
        (weight_sum,) = [r for r in json.loads(out) if r["check"] == "weight_sum"]
        assert weight_sum["witnesses"] == ["(<4301-digit integer>,)"]
        assert sys.get_int_max_str_digits() == limit


TOP_USAGE = "usage: gkmkit [-h] {validate,genus,chern,petrie,graph,example} ...\n"
TOP_HELP = TOP_USAGE + """
validate and analyze torus fixed-point data

positional arguments:
  {validate,genus,chern,petrie,graph,example}
    validate            run all applicable checks
    genus               chi_y genus and its specializations
    chern               Chern numbers by localization
    petrie              compare against the linear model
    graph               export or build the describing multigraph
    example             emit a catalog dataset

options:
  -h, --help            show this help message and exit
"""
COMMAND_HELP = {
    "validate": """usage: gkmkit validate [-h] [--json] file

positional arguments:
  file

options:
  -h, --help  show this help message and exit
  --json
""",
    "genus": """usage: gkmkit genus [-h] [--xi XI] [--json] file

positional arguments:
  file

options:
  -h, --help  show this help message and exit
  --xi XI     comma-separated circle, e.g. 1,3
  --json
""",
    "chern": """usage: gkmkit chern [-h] [--partition PARTITION] [--all]
                    [--mode {generic,expanded}] [--json]
                    file

positional arguments:
  file

options:
  -h, --help            show this help message and exit
  --partition PARTITION
                        comma-separated partition, e.g. 1,1,2
  --all                 all partitions (default)
  --mode {generic,expanded}
                        localization mode: generic (one point for GKM data
                        with a describing graph, else exact) or expanded
                        (exact polynomial identity); default generic
  --json
""",
    "petrie": """usage: gkmkit petrie [-h] [--up-to-gl] [--json] file

positional arguments:
  file

options:
  -h, --help  show this help message and exit
  --up-to-gl  also report that normalizing by the recovered basis gives the
              standard model
  --json
""",
    "graph": """usage: gkmkit graph [-h] [--format {dot,json}] [--build] [--out OUT] file

positional arguments:
  file

options:
  -h, --help           show this help message and exit
  --format {dot,json}
  --build              rebuild even when the file carries edges
  --out OUT
""",
    "example": """usage: gkmkit example [-h] [--n N] [--basis BASIS] [--a A] [--b B]
                      [--variant VARIANT] [--out OUT]
                      {cpn,cp3_nongkm,s6,s6_blowup,fano}

positional arguments:
  {cpn,cp3_nongkm,s6,s6_blowup,fano}

options:
  -h, --help            show this help message and exit
  --n N                 dimension for cpn
  --basis BASIS         semicolon-separated rows, e.g. 1,0;1,1
  --a A                 first parameter vector
  --b B                 second parameter vector
  --variant VARIANT     fano variant: V5 or V22
  --out OUT
""",
}
FRONT_DOOR = [
    (["--help"], 0, TOP_HELP, ""),
    ([], 64, "", TOP_USAGE + "gkmkit: error: the following arguments are required: "
                             "command\n"),
    (["bogus"], 64, "", TOP_USAGE + "gkmkit: error: argument command: invalid choice: "
     "'bogus' (choose from 'validate', 'genus', 'chern', 'petrie', 'graph', "
     "'example')\n"),
    (["-h", "chern"], 0, TOP_HELP, ""),
    (["chern", "--bogus", "FILE"], 64, "",
     TOP_USAGE + "gkmkit: error: unrecognized arguments: --bogus\n"),
    (["graph", "FILE", "--format", "svg"], 64, "",
     "usage: gkmkit graph [-h] [--format {dot,json}] [--build] [--out OUT] file\n"
     "gkmkit graph: error: argument --format: invalid choice: 'svg' "
     "(choose from 'dot', 'json')\n"),
] + [([name, "-h"], 0, text, "") for name, text in COMMAND_HELP.items()]


class TestFrontDoor:
    """Help, usage errors and the parsers each call builds."""

    @pytest.mark.parametrize("argv, code, out, err", FRONT_DOOR,
                             ids=[" ".join(case[0]) or "<none>" for case in FRONT_DOOR])
    def test_pinned_output(self, capsys, monkeypatch, argv, code, out, err):
        monkeypatch.setenv("COLUMNS", "80")
        assert run(capsys, *argv) == (code, out, err)

    def test_plain_argv_builds_no_parser(self, capsys, tmp_path, cp2_file, monkeypatch):
        """A well-formed call builds no parser.  Help and usage errors build
        the full parser once: prog ``gkmkit``, with its six subparsers."""
        progs = []
        init = cli._Parser.__init__

        def spy(parser, *args, **kwargs):
            init(parser, *args, **kwargs)
            progs.append(parser.prog)

        monkeypatch.setattr(cli._Parser, "__init__", spy)
        out = str(tmp_path / "out.json")
        plain = {
            "validate": ["validate", cp2_file, "--json"],
            "genus": ["genus", "--xi", "1,3", cp2_file],
            "chern": ["chern", cp2_file, "--mode=expanded", "--partition", "1,1"],
            "petrie": ["petrie", cp2_file, "--up-to-gl", "--json"],
            "graph": ["graph", cp2_file, "--build", "--format", "json", "--out=" + out],
            "example": ["example", "cpn", "--n=2", "--basis", "1,0;1,1", "--out", out],
        }
        assert list(plain) == list(cli.COMMANDS)
        for name, argv in plain.items():
            progs.clear()
            assert run(capsys, *argv)[0] == 0, name
            assert progs == [], name
        full = ["gkmkit"] + [f"gkmkit {name}" for name in cli.COMMANDS]
        for argv, code in ((["chern", cp2_file, "-h"], 0), (["chern", cp2_file, "--bogus"], 64)):
            progs.clear()
            assert run(capsys, *argv)[0] == code
            assert progs == full, argv

    DIFFERENTIAL = [
        ["chern", "F", "--mode=expanded"], ["chern", "--partition=1,1", "F"],
        ["chern", "F", "--js"], ["chern", "F", "--mo", "expanded"],
        ["chern", "F", "--par", "2"], ["chern", "F", "--p", "2"],
        ["chern", "--", "F"], ["chern", "F", "--", "G"], ["chern", "--", "--json"],
        ["chern", "F", "--json", "--json", "--mode", "generic", "--mode", "expanded"],
        ["validate"], ["chern", "--json"], ["example"],
        ["validate", "F", "G"], ["example", "cpn", "s6"],
        ["chern", "--bogus", "F"], ["chern", "F", "--bogus"], ["chern", "-x", "F", "-y"],
        ["graph", "F", "--format", "svg"], ["graph", "F", "--format=svg"],
        ["chern", "F", "--mode", "fast"], ["chern", "F", "--mode"],
        ["chern", "F", "-h"], ["example", "cpn", "--help"], ["petrie", "F", "--he"],
        ["genus", "F", "--xi", "-1,2"], ["genus", "F", "--xi=-1,2"], ["genus", "-1"],
        ["example", "cpn", "--n", "x"], ["example", "cpn", "--n", "-3"],
        ["example", "torus"], ["graph", "F", "--out"], ["petrie", "F", "--up"],
        ["validate", "F", "--jsonx"], ["validate", "F", "--json=1"],
        ["example", "cpn", "--n=3"], ["example", "cpn", "--n= 3"], ["example", "cpn", "--n=x"],
        ["chern", "F", "--partition="], ["validate", "F", "--json="],
        ["graph", "F", "--out=o.json"], ["graph", "F", "--out", ""], ["graph", "F", "--out="],
        ["example", "cpn", "--b", "1,1"], ["example", "cpn", "--ba", "1,0;0,1"],
        ["example", "cpn", "--b=-1,1"], ["example", "cpn", "--a", "-"],
        ["chern", "-"], ["chern", ""], ["example", ""], ["validate", "a=b"],
        ["petrie", "F", "--up-to-gl=1"], ["petrie", "--up-to-gl", "F"],
    ]
    TOKENS = ("F", "G", "--", "-", "-h", "--json", "--js", "--bogus", "-x", "--mode",
              "--mode=generic", "--mo", "expanded", "fast", "--format", "--format=json",
              "svg", "--out", "o.json", "--xi", "-1,2", "--partition", "1,1", "--n", "3",
              "--basis", "--up-to-gl", "--build", "--all", "cpn", "s6", "fano",
              "--xi=-1,2", "--n=3", "--partition=", "--json=", "--out=o.json", "--b",
              "--ba", "", "a=b", "--up-to-gl=1")
    # well-formed words of each command, an option and its value together
    PLAIN = {
        "validate": (["--json"],),
        "genus": (["--xi", "1,3"], ["--xi=-1,2"], ["--json"]),
        "chern": (["--mode", "expanded"], ["--mode=generic"], ["--partition", "1,1"],
                  ["--partition="], ["--all"], ["--json"]),
        "petrie": (["--up-to-gl"], ["--json"]),
        "graph": (["--format", "json"], ["--format=dot"], ["--build"], ["--out", ""],
                  ["--out=o.json"]),
        "example": (["--n", "3"], ["--n=-3"], ["--basis", "1,0;1,1"], ["--a", "1,0"],
                    ["--b=0,1"], ["--variant", "V22"], ["--out", "o.json"]),
    }

    @staticmethod
    def parsed(capsys, parse, argv):
        try:
            args = parse(argv)
        except SystemExit as exc:
            args = exc.code
        captured = capsys.readouterr()
        if isinstance(args, argparse.Namespace):
            vars(args).pop("command", None)
        return args, captured.out, captured.err

    def test_plain_reader_agrees_with_full_parser(self, capsys, monkeypatch):
        """Where ``_parse_plain`` reads argv, it gives the full parser's
        Namespace and prints nothing; ``_parse_args`` gives the full parser's
        Namespace, or exit code, stdout and stderr, on every argv."""
        monkeypatch.setenv("COLUMNS", "80")
        rng = random.Random(20261018)
        corpus = list(self.DIFFERENTIAL)
        for _ in range(300):
            name = rng.choice(list(cli.COMMANDS))
            words = [rng.choice(self.PLAIN[name]) if rng.random() < 0.5
                     else [rng.choice(self.TOKENS)] for _ in range(rng.randint(0, 4))]
            if rng.random() < 0.7:  # mostly with the positional argument
                words.insert(rng.randint(0, len(words)), ["cpn" if name == "example" else "F"])
            corpus.append([name] + [word for group in words for word in group])
        read = 0
        for argv in corpus:
            full = self.parsed(capsys, cli.build_parser().parse_args, list(argv))
            plain = self.parsed(capsys, cli._parse_plain, list(argv))
            if plain[0] is not None:
                read += 1
                assert plain == full, argv
            assert plain[1:] == ("", ""), argv
            assert self.parsed(capsys, cli._parse_args, list(argv)) == full, argv
        assert read >= len(corpus) / 4, (read, len(corpus))


class TestEntryPoint:
    """``python -m gkmkit.cli`` reads its arguments from ``sys.argv``."""

    @staticmethod
    def gkmkit(*argv):
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, COLUMNS="80")
        env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
        return subprocess.run([sys.executable, "-m", "gkmkit.cli", *argv], env=env,
                              capture_output=True, text=True, timeout=120)

    def test_chern_json(self, capsys, cp2_file):
        proc = self.gkmkit("chern", cp2_file, "--json")
        assert (proc.returncode, proc.stderr) == (0, "")
        assert run(capsys, "chern", cp2_file, "--json") == (0, proc.stdout, "")

    def test_unrecognized_argument(self, capsys, cp2_file, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")
        proc = self.gkmkit("chern", cp2_file, "--bogus")
        assert (proc.returncode, proc.stdout) == (64, "")
        assert proc.stderr == TOP_USAGE + "gkmkit: error: unrecognized arguments: --bogus\n"
        assert run(capsys, "chern", cp2_file, "--bogus") == (64, "", proc.stderr)

    def test_unknown_command(self, capsys, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")
        proc = self.gkmkit("bogus")
        assert (proc.returncode, proc.stdout) == (64, "")
        assert run(capsys, "bogus") == (64, "", proc.stderr)


EDGE_DOC = """{"torus_rank": 2, "half_dim": 2, "torus_manifold": true,
 "fixed_points": [{"id": "p0", "weights": [[1,0],[0,1]]},
                  {"id": "p1", "weights": [[-1,0],[-1,1]]},
                  {"id": "p2", "weights": [[0,-1],[1,-1]]}],
 "edges": [{"from": "p0", "to": "p1", "label": [1,0]},
           {"from": "p0", "to": "p2", "label": [0,1]},
           {"from": "p1", "to": "p2", "label": [-1,1]}]}"""


class TestFuzz:
    """Seeded mutations of a cp2 document and of the vector options.

    Every run must end in a documented exit code and print no traceback.
    The corpus is drawn from a fixed seed, so every run sees the same inputs.
    """

    POOL = (None, True, False, 0, 1, -1, 2, 10 ** 30, 1.5, "", "p0", "x", [], [1],
            [0, 0], [1, 0], [2, -1], [[1, 0]], [[1, 0], [0, 1]], {}, {"id": "p9"}, ["p0"])

    @staticmethod
    def paths(node, path=()):
        yield path
        items = (node.items() if isinstance(node, dict)
                 else enumerate(node) if isinstance(node, list) else ())
        for key, child in items:
            yield from TestFuzz.paths(child, path + (key,))

    def mutate(self, rng, doc):
        doc = copy.deepcopy(doc)
        for _ in range(rng.randint(1, 3)):
            path = rng.choice([p for p in self.paths(doc) if p] or [None])
            if path is None:
                break
            parent = doc
            for key in path[:-1]:
                parent = parent[key]
            last, op = path[-1], rng.random()
            if op < 0.6:
                parent[last] = copy.deepcopy(rng.choice(self.POOL))
            elif op < 0.75:
                del parent[last]
            elif op < 0.9 and isinstance(parent, list):
                parent.insert(last, copy.deepcopy(parent[last]))
            elif type(parent[last]) is int:
                parent[last] += rng.choice((-2, -1, 1, 2))
        return doc

    @staticmethod
    def vector_text(rng):
        return "".join(rng.choice("0123456789,-; a") for _ in range(rng.randint(0, 8)))

    def test_exit_codes_are_documented(self, capsys, tmp_path):
        rng = random.Random(20261018)
        base = json.loads(EDGE_DOC)
        path = str(tmp_path / "fuzz.json")
        codes = set()
        for _ in range(40):
            with open(path, "w") as fh:
                json.dump(self.mutate(rng, base), fh)
            codes |= self.run_commands(capsys, rng, path)
        assert codes == {0, 2, 3, 4, 64}

    def test_huge_integers(self, capsys, tmp_path):
        rng = random.Random(20261018)
        path = str(tmp_path / "huge.json")
        for doc in (HUGE_CHERN_DOC, HUGE_SUM_DOC):
            with open(path, "w") as fh:
                fh.write(doc)
            self.run_commands(capsys, rng, path)

    def run_commands(self, capsys, rng, path):
        """Exit codes of every command on the file; none may raise."""
        codes = set()
        for argv in (["validate", path], ["genus", path], ["chern", path],
                     ["chern", path, "--mode", "expanded"],
                     ["chern", path, "--partition", "1,1"],
                     ["petrie", path, "--up-to-gl"],
                     ["graph", path, "--build", "--format", "json"], ["graph", path],
                     ["genus", path, "--xi", self.vector_text(rng)],
                     ["chern", path, "--partition", self.vector_text(rng)],
                     ["example", "cpn", "--n", str(rng.randint(1, 3)),
                      "--basis", self.vector_text(rng)]):
            try:
                code, _, err = run(capsys, *argv)
            except Exception as exc:  # a traceback in a real process
                pytest.fail(f"{argv} on {open(path).read()}: {exc!r}")
            assert code in (0, 2, 3, 4, 64), argv
            assert "Traceback" not in err, argv
            codes.add(code)
        return codes
