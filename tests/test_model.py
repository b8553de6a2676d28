import json
import random
import time

import pytest

from gkmkit.catalog import all_entries, cp3_nongkm, cpn, fano, s6
from gkmkit.model import (
    Classification,
    Edge,
    FixedPoint,
    FixedPointData,
    MatchingError,
    Multigraph,
    ParseError,
    build_multigraph,
    check_describes,
    check_edge_congruence,
    check_gkm,
    check_pairing,
    check_simple,
    check_weight_sum_zero,
    classify_few_fixed_points,
    congruent_mod,
    parse,
    relabel,
    residue_mod,
    serialize,
    transform,
    validate_all,
)
from gkmkit.matching import maximum_matching
from gkmkit.weights import canonicalize, neg

from conftest import random_unimodular

CP2_DOC = """
{
  "torus_rank": 2,
  "half_dim": 2,
  "torus_manifold": true,
  "fixed_points": [
    {"id": "p0", "weights": [[1,0],[0,1]]},
    {"id": "p1", "weights": [[-1,0],[-1,1]]},
    {"id": "p2", "weights": [[0,-1],[1,-1]]}
  ],
  "edges": [
    {"from": "p0", "to": "p1", "label": [1,0]},
    {"from": "p0", "to": "p2", "label": [0,1]},
    {"from": "p1", "to": "p2", "label": [-1,1]}
  ]
}
"""


def _paired_data(rng, k):
    """Random rank-k data from +w/-w slot pairs, so pairing always holds."""
    n = rng.randint(1, 3)
    count = rng.randint(1, 4)
    if (count * n) % 2:
        count += 1
    slots = [(i, j) for i in range(count) for j in range(n)]
    rng.shuffle(slots)
    grid = [[None] * n for _ in range(count)]
    for a in range(0, len(slots), 2):
        (i1, j1), (i2, j2) = slots[a], slots[a + 1]
        while True:
            w = tuple(rng.randint(-2, 2) for _ in range(k))
            if any(w):
                break
        grid[i1][j1] = w
        grid[i2][j2] = neg(w)
    pts = [FixedPoint(f"p{i}", tuple(grid[i])) for i in range(count)]
    return FixedPointData(k, n, tuple(pts))


def _hk_congruent(left, right, label):
    """Oracle: a perfect congruent_mod matching exists (Hopcroft-Karp)."""
    adjacency = [[j for j, v in enumerate(right) if congruent_mod(u, v, label)]
                 for u in left]
    match = maximum_matching(len(left), len(right), adjacency)
    return len(left) == len(right) == len(match)


def _hk_build_oracle(data):
    """Oracle for build_multigraph: (buildable, fewest self-loops).

    Per class {w, -w}, an occurrence of w at u may pair with one of -w at
    v when the whole weight multisets at u and v biject congruently mod w.
    The class is buildable when that graph has a perfect matching, and no
    perfect matching has fewer self-loops than the class size minus the
    largest loop-free matching.
    """
    plus, minus = {}, {}
    for p in sorted(data.points, key=lambda p: p.id):
        for w in p.weights:
            s, rep = canonicalize(w)
            (plus if s > 0 else minus).setdefault(rep, []).append(p.id)
    buildable, loops = True, 0
    for rep, left in plus.items():
        right = minus[rep]
        admissible = {(u, v): _hk_congruent(data.point(u).weights,
                                            data.point(v).weights, rep)
                      for u in left for v in right}
        full = [[j for j, v in enumerate(right) if admissible[u, v]] for u in left]
        free = [[j for j, v in enumerate(right) if admissible[u, v] and u != v]
                for u in left]
        buildable &= len(maximum_matching(len(left), len(right), full)) == len(left)
        loops += len(left) - len(maximum_matching(len(left), len(right), free))
    return buildable, loops


class TestParsing:
    def test_round_trip(self):
        data, graph = parse(CP2_DOC)
        assert data.torus_rank == 2 and data.half_dim == 2
        assert data.torus_manifold
        assert len(data.points) == 3 and graph is not None
        again, graph2 = parse(serialize(data, graph))
        assert serialize(again, graph2) == serialize(data, graph)
        assert set(graph2.edges) == set(graph.edges)

    def test_serialize_is_fixed_point_of_round_trip(self):
        for entry in all_entries():
            text = serialize(entry.data, entry.graph)
            data, graph = parse(text)
            assert serialize(data, graph) == text

    def test_edges_optional(self):
        doc = json.loads(CP2_DOC)
        del doc["edges"]
        data, graph = parse(json.dumps(doc))
        assert graph is None and len(data.points) == 3

    def test_torus_manifold_defaults_false(self):
        doc = json.loads(CP2_DOC)
        del doc["torus_manifold"]
        del doc["edges"]
        data, _ = parse(json.dumps(doc))
        assert data.torus_manifold is False

    @pytest.mark.parametrize("mangle,fragment", [
        (lambda d: d.__setitem__("torus_rank", "2"), "integer"),
        (lambda d: d.__setitem__("torus_rank", 0), ">= 1"),
        (lambda d: d.__setitem__("half_dim", -1), ">= 0"),
        (lambda d: d.pop("fixed_points"), "missing"),
        (lambda d: d.__setitem__("extra", 1), "unknown"),
        (lambda d: d["fixed_points"].append(
            {"id": "p0", "weights": [[1, 0], [0, 1]]}), "duplicate"),
        (lambda d: d["fixed_points"][0].__setitem__(
            "weights", [[1, 0]]), "exactly 2 weights"),
        (lambda d: d["fixed_points"][0]["weights"].__setitem__(
            0, [0, 0]), "zero weight"),
        (lambda d: d["fixed_points"][0]["weights"].__setitem__(
            0, [1, 0, 0]), "list of 2 integers"),
        (lambda d: d["edges"][0].__setitem__("label", [0, 0]), "zero"),
        (lambda d: d["edges"][0].__setitem__("from", "nope"), "endpoint"),
    ])
    def test_malformed_documents(self, mangle, fragment):
        doc = json.loads(CP2_DOC)
        mangle(doc)
        with pytest.raises(ParseError, match=fragment):
            parse(json.dumps(doc))

    def test_not_json(self):
        with pytest.raises(ParseError):
            parse(b"{not json")

    def test_torus_manifold_claims_verified(self):
        doc = json.loads(CP2_DOC)
        doc["half_dim"] = 2
        doc["fixed_points"][0]["weights"] = [[1, 0], [2, 0]]
        del doc["edges"]
        with pytest.raises(ParseError, match="lattice basis"):
            parse(json.dumps(doc))
        doc2 = {"torus_rank": 1, "half_dim": 2, "torus_manifold": True,
                "fixed_points": [{"id": "p", "weights": [[1], [1]]}]}
        with pytest.raises(ParseError, match="torus_rank == half_dim"):
            parse(json.dumps(doc2))


class TestBasicChecks:
    def test_pairing_passes_on_catalog(self):
        for entry in all_entries():
            assert check_pairing(entry.data).passed, entry.name

    def test_pairing_failure_witness(self):
        data = FixedPointData(2, 2, (FixedPoint("p", ((1, 0), (0, 1))),))
        rep = check_pairing(data)
        assert not rep.passed
        assert (1, 0) in rep.results[0].witnesses
        assert (0, 1) in rep.results[0].witnesses

    def test_pairing_counts_multiplicity(self):
        # two copies of w against one of -w is unbalanced
        data = FixedPointData(1, 3, (
            FixedPoint("p", ((1,), (1,), (-1,))),))
        assert not check_pairing(data).passed

    def test_pairing_invariant_under_negation(self):
        rng = random.Random(31)
        for entry in all_entries():
            negated = FixedPointData(
                entry.data.torus_rank, entry.data.half_dim,
                tuple(FixedPoint(p.id, tuple(neg(w) for w in p.weights))
                      for p in entry.data.points),
                entry.data.torus_manifold)
            assert check_pairing(negated).passed == check_pairing(entry.data).passed
        # and on random unbalanced data the verdicts also agree
        for _ in range(20):
            pts = []
            for i in range(rng.randint(1, 3)):
                ws = tuple((rng.randint(-3, 3), rng.randint(-3, 3))
                           for _ in range(2))
                if any(not any(w) for w in ws):
                    continue
                pts.append(FixedPoint(f"p{i}", ws))
            if not pts:
                continue
            data = FixedPointData(2, 2, tuple(pts))
            negated = FixedPointData(2, 2, tuple(
                FixedPoint(p.id, tuple(neg(w) for w in p.weights))
                for p in pts))
            assert check_pairing(data).passed == check_pairing(negated).passed

    def test_weight_sum(self):
        for entry in all_entries():
            assert check_weight_sum_zero(entry.data).passed, entry.name
        bad = FixedPointData(1, 1, (FixedPoint("p", ((1,),)),
                                    FixedPoint("q", ((1,),))))
        rep = check_weight_sum_zero(bad)
        assert not rep.passed
        assert rep.results[0].witnesses == ((2,),)

    def test_gkm(self):
        for n in range(1, 6):
            assert check_gkm(cpn(n).data).passed
        rep = check_gkm(cp3_nongkm().data)
        assert not rep.passed
        assert any(w[0] == "p2" for w in rep.results[0].witnesses)
        # the parallel pair at p2 is (-2,0), (-1,0)
        assert ("p2", (-2, 0), (-1, 0)) in rep.results[0].witnesses


class TestCongruence:
    def test_congruent_mod_examples(self):
        assert congruent_mod((1, 0), (-1, 0), (1, 0))
        assert congruent_mod((0, 1), (-1, 1), (1, 0))
        assert congruent_mod((3, 1), (1, 0), (2, 1))
        assert not congruent_mod((0, 1), (1, 0), (1, 1))
        assert not congruent_mod((1, 0), (0, 0), (2, 0))

    def test_residue_examples(self):
        assert residue_mod((5, 3), (2, 0)) == (1, 3)
        assert residue_mod((-1, 2), (2, 1)) == (1, 3)
        assert residue_mod((0, -1), (0, 1)) == (0, 0)

    def test_residue_characterizes_congruence(self):
        rng = random.Random(37)
        for _ in range(200):
            k = rng.randint(1, 3)
            w = tuple(rng.randint(-4, 4) for _ in range(k))
            if not any(w):
                continue
            u = tuple(rng.randint(-9, 9) for _ in range(k))
            v = tuple(rng.randint(-9, 9) for _ in range(k))
            assert (residue_mod(u, w) == residue_mod(v, w)) == congruent_mod(u, v, w)
            # the residue is itself congruent to the input
            assert congruent_mod(u, residue_mod(u, w), w)

    def test_edge_congruence_passes_on_catalog(self):
        for entry in all_entries():
            rep = check_edge_congruence(entry.data, entry.graph)
            assert rep.passed, (entry.name, rep)
            # each passing edge records its matching
            assert len(rep.results[0].info) == len(entry.graph.edges)

    def test_edge_congruence_failure(self):
        data = FixedPointData(2, 2, (
            FixedPoint("p", ((1, 0), (0, 1))),
            FixedPoint("q", ((-1, 0), (0, 5))),
        ))
        graph = Multigraph(("p", "q"), (Edge("p", "q", (1, 0)),))
        rep = check_edge_congruence(data, graph)
        assert not rep.passed
        assert rep.results[0].witnesses == (("p", "q", (1, 0)),)

    def test_edge_congruence_matches_hopcroft_karp_oracle(self):
        rng = random.Random(43)
        passed = failed = 0
        for _ in range(300):
            data = _paired_data(rng, rng.choice((1, 2)))
            ids = [p.id for p in data.points]
            edges = []
            for _ in range(rng.randint(1, 4)):
                u, v = rng.choice(ids), rng.choice(ids)
                label = rng.choice(data.point(u).weights + ((1,) * data.torus_rank,))
                edges.append(Edge(u, v, label))
            graph = Multigraph(tuple(sorted(ids)), tuple(edges))
            result = check_edge_congruence(data, graph).results[0]
            oracle = [e for e in sorted(edges, key=lambda e: (e.from_id, e.to_id, e.label))
                      if not _hk_congruent(data.point(e.from_id).weights,
                                           data.point(e.to_id).weights, e.label)]
            assert result.witnesses == tuple((e.from_id, e.to_id, e.label) for e in oracle)
            assert result.passed == (not oracle)
            passed += result.passed
            failed += not result.passed
            for (u, v, label), pairs in result.info:
                assert all(congruent_mod(a, b, label) for a, b in pairs)
                assert sorted(a for a, _ in pairs) == sorted(data.point(u).weights)
                assert sorted(b for _, b in pairs) == sorted(data.point(v).weights)
        assert passed > 50 and failed > 50  # both verdicts exercised


class TestDescribes:
    def test_catalog_graphs_describe(self):
        for entry in all_entries():
            assert check_describes(entry.data, entry.graph).passed, entry.name

    def test_negated_label_breaks_both_endpoints(self):
        entry = cpn(2)
        edges = list(entry.graph.edges)
        edges[0] = Edge(edges[0].from_id, edges[0].to_id, neg(edges[0].label))
        bad = Multigraph(entry.graph.vertex_ids, tuple(edges))
        rep = check_describes(entry.data, bad)
        assert not rep.passed
        mismatch = rep.result("describes")
        assert {w[0] for w in mismatch.witnesses} == {edges[0].from_id,
                                                      edges[0].to_id}

    def test_vertex_set_must_match(self):
        entry = cpn(2)
        graph = Multigraph(("p0", "p1"), ())
        rep = check_describes(entry.data, graph)
        assert not rep.passed

    def test_simple(self):
        assert check_simple(cpn(3).graph).passed
        rep = check_simple(fano("V5").graph)
        assert not rep.passed
        kinds = {w[0] for w in rep.results[0].witnesses}
        assert kinds == {"parallel"}
        loop = Multigraph(("p",), (Edge("p", "p", (1, 0)),))
        rep = check_simple(loop)
        assert not rep.passed
        assert rep.results[0].witnesses[0][0] == "self_loop"


class TestBuildMultigraph:
    def test_projective_plane_triangle(self):
        entry = cpn(2)
        graph = build_multigraph(entry.data)
        assert len(graph.edges) == 3
        assert check_describes(entry.data, graph).passed
        assert check_simple(graph).passed
        pairs = {frozenset((e.from_id, e.to_id)) for e in graph.edges}
        assert pairs == {frozenset(("p0", "p1")), frozenset(("p0", "p2")),
                         frozenset(("p1", "p2"))}

    def test_six_sphere_parallel_edges(self):
        entry = s6()
        graph = build_multigraph(entry.data)
        assert len(graph.edges) == 3
        assert all({e.from_id, e.to_id} == {"p", "q"} for e in graph.edges)
        assert sorted(e.label for e in graph.edges) == [(0, 1), (1, 0), (1, 1)]
        assert check_describes(entry.data, graph).passed
        assert not check_simple(graph).passed

    def test_catalog_builds_describe(self):
        for entry in all_entries():
            graph = build_multigraph(entry.data)
            assert check_describes(entry.data, graph).passed, entry.name

    def test_torus_catalog_builds_are_simple_complete(self):
        for n in range(1, 5):
            data = cpn(n).data
            graph = build_multigraph(data)
            assert check_simple(graph).passed
            assert len(graph.edges) == n * (n + 1) // 2

    def test_pairing_violation_rejected(self):
        data = FixedPointData(2, 2, (FixedPoint("p", ((1, 0), (0, 1))),))
        with pytest.raises(ValueError, match="pairing"):
            build_multigraph(data)

    def test_unmatchable_class(self):
        data = FixedPointData(2, 2, (
            FixedPoint("p", ((1, 0), (0, 1))),
            FixedPoint("q", ((-1, 0), (0, -1))),
        ))
        with pytest.raises(MatchingError) as err:
            build_multigraph(data)
        assert err.value.weight_class in ((1, 0), (0, 1))

    def test_self_loop_fallback(self):
        data = FixedPointData(2, 2, (FixedPoint("p", ((1, 0), (-1, 0))),))
        graph = build_multigraph(data)
        assert graph.edges == (Edge("p", "p", (1, 0)),)
        assert check_describes(data, graph).passed
        assert not check_simple(graph).passed

    def test_build_implies_describes_on_random_data(self):
        # data built from +w/-w slot pairs always satisfies pairing, so the
        # builder only fails on congruence grounds; whenever it succeeds the
        # result must describe the data
        rng = random.Random(41)
        built = 0
        for _ in range(120):
            n = rng.randint(1, 3)
            count = rng.randint(1, 4)
            if (count * n) % 2:
                count += 1
            slots = [(i, j) for i in range(count) for j in range(n)]
            rng.shuffle(slots)
            grid = [[None] * n for _ in range(count)]
            for a in range(0, len(slots), 2):
                (i1, j1), (i2, j2) = slots[a], slots[a + 1]
                while True:
                    w = (rng.randint(-2, 2), rng.randint(-2, 2))
                    if any(w):
                        break
                grid[i1][j1] = w
                grid[i2][j2] = (-w[0], -w[1])
            pts = [FixedPoint(f"p{i}", tuple(grid[i])) for i in range(count)]
            data = FixedPointData(2, n, tuple(pts))
            try:
                graph = build_multigraph(data)
            except MatchingError:
                continue
            built += 1
            assert check_describes(data, graph).passed
        assert built > 20  # the property must actually have been exercised

    def test_build_matches_hopcroft_karp_oracle(self):
        rng = random.Random(47)
        built = refused = looped = 0
        for _ in range(300):
            data = _paired_data(rng, rng.choice((1, 2)))
            buildable, fewest_loops = _hk_build_oracle(data)
            try:
                graph = build_multigraph(data)
            except MatchingError:
                assert not buildable
                refused += 1
                continue
            assert buildable
            assert check_describes(data, graph).passed
            loops = sum(1 for e in graph.edges if e.from_id == e.to_id)
            assert loops == fewest_loops
            built += 1
            looped += loops > 0
        assert built > 50 and refused > 50 and looped > 20

    def test_loops_only_where_a_bucket_forces_them(self):
        # class {1}: p1 carries 1, 1 and -1 of the two pairs, so one loop;
        # class {2}: p2 alone has residues {0, 0, 1}, so it loops, while
        # p0 and p3 pair with each other
        data = FixedPointData(1, 3, (
            FixedPoint("p0", ((2,), (-2,), (2,))),
            FixedPoint("p1", ((-1,), (1,), (1,))),
            FixedPoint("p2", ((-1,), (-2,), (2,))),
            FixedPoint("p3", ((-2,), (-2,), (2,))),
        ))
        graph = build_multigraph(data)
        loops = sorted((e.from_id, e.label) for e in graph.edges if e.from_id == e.to_id)
        assert loops == [("p1", (1,)), ("p2", (2,))]
        assert check_describes(data, graph).passed

    def test_rank_one_spheres_scale(self):
        m = 4000
        data = FixedPointData(1, 1, tuple(
            FixedPoint(f"p{i}", ((1 if i < m else -1,),)) for i in range(2 * m)))
        start = time.perf_counter()
        rep = validate_all(data)
        elapsed = time.perf_counter() - start
        assert rep.result("buildable").passed
        assert rep.result("buildable").note == "built, loop-free"
        assert elapsed < 1.0, f"validate_all took {elapsed:.2f} s at m = {m}"


class TestValidateAll:
    def test_with_graph(self):
        entry = cp3_nongkm()
        rep = validate_all(entry.data, entry.graph)
        assert not rep.passed
        assert not rep.result("gkm").passed
        assert rep.result("pairing").passed
        assert rep.result("describes").passed

    def test_without_graph_builds(self):
        rep = validate_all(cpn(2).data)
        assert rep.passed
        assert "loop-free" in rep.result("buildable").note

    def test_unbuildable_reported(self):
        data = FixedPointData(2, 2, (
            FixedPoint("p", ((1, 0), (0, 1))),
            FixedPoint("q", ((-1, 0), (0, -1))),
        ))
        rep = validate_all(data)
        assert not rep.result("buildable").passed


class TestTransforms:
    def test_transform_applies_matrix(self):
        data = cpn(2).data
        rot = ((0, -1), (1, 0))
        out = transform(data, rot)
        assert out.point("p0").weights == ((0, 1), (-1, 0))

    def test_relabel(self):
        data = relabel(cpn(1).data, {"p0": "a", "p1": "b"})
        assert data.ids() == ("a", "b")

    def test_transform_preserves_checks(self):
        rng = random.Random(43)
        for _ in range(10):
            u = random_unimodular(rng, 2)
            data = transform(cpn(2).data, u)
            assert check_pairing(data).passed
            assert check_weight_sum_zero(data).passed
            assert check_gkm(data).passed

    def test_point_lookup_by_id(self):
        data = cpn(3).data
        before = repr(data)
        assert data.point("p2") is data.points[2]
        with pytest.raises(KeyError):
            data.point("q")
        assert repr(data) == before
        assert data == cpn(3).data and hash(data) == hash(cpn(3).data)

    def test_point_lookup_first_of_repeated_id(self):
        first, second = FixedPoint("p", ((1,),)), FixedPoint("p", ((-1,),))
        assert FixedPointData(1, 1, (first, second)).point("p") is first


class TestClassification:
    def test_point(self):
        data = FixedPointData(1, 0, (FixedPoint("p", ()),))
        assert classify_few_fixed_points(data) == Classification("point")

    def test_two_point_sphere(self):
        data = FixedPointData(1, 1, (FixedPoint("p", ((3,),)),
                                     FixedPoint("q", ((-3,),))))
        assert classify_few_fixed_points(data) == Classification("sphere-dim2", (3,))

    def test_dim6_pair(self):
        data = FixedPointData(1, 3, (
            FixedPoint("p", ((-3,), (1,), (2,))),
            FixedPoint("q", ((-1,), (-2,), (3,))),
        ))
        assert classify_few_fixed_points(data) == Classification("dim6-pair", (1, 2))

    def test_dim4_triple(self):
        data = FixedPointData(1, 2, (
            FixedPoint("p", ((3,), (1,))),
            FixedPoint("q", ((-1,), (2,))),
            FixedPoint("r", ((-2,), (-3,))),
        ))
        assert classify_few_fixed_points(data) == Classification("dim4-triple", (1, 2))

    def test_nonconforming(self):
        # three points in half dimension three fit no pattern
        data = FixedPointData(1, 3, (
            FixedPoint("p", ((1,), (2,), (3,))),
            FixedPoint("q", ((-1,), (-2,), (3,))),
            FixedPoint("r", ((-3,), (-3,), (3,))),
        ))
        assert classify_few_fixed_points(data).kind == "nonconforming"
        two = FixedPointData(1, 1, (FixedPoint("p", ((2,),)),
                                    FixedPoint("q", ((-3,),))))
        assert classify_few_fixed_points(two).kind == "nonconforming"

    def test_preconditions(self):
        with pytest.raises(ValueError, match="rank"):
            classify_few_fixed_points(s6().data)
        four = fano("V5").data
        with pytest.raises(ValueError, match="points"):
            classify_few_fixed_points(four)
