import json
import random
import re
import time
import tracemalloc
from collections import Counter
from itertools import combinations, product

import pytest

from gkmkit import localization, model, weights
from gkmkit.catalog import all_entries, cp3_nongkm, cpn, fano, s6
from gkmkit.model import (
    Edge,
    FixedPoint,
    FixedPointData,
    MatchingError,
    Multigraph,
    ParseError,
    _WeightIndex,
    _pair_bucket,
    build_multigraph,
    check_describes,
    check_edge_congruence,
    check_gkm,
    check_pairing,
    check_simple,
    check_weight_sum_zero,
    congruent_mod,
    parse,
    relabel,
    residue_mod,
    serialize,
    transform,
    validate_all,
)
from gkmkit.matching import maximum_matching
from gkmkit.weights import canonicalize, is_unimodular_basis, neg, parallel

import conftest
from conftest import random_relabel, random_unimodular, shuffled
from oracle import chern_numerators

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

    def test_lattice_basis_without_unit_pivot(self):
        # no weight has a +-1 entry, so det needs non-unit pivots
        doc = {"torus_rank": 2, "half_dim": 2, "torus_manifold": True,
               "fixed_points": [{"id": "p", "weights": [[2, 3], [3, 5]]},
                                {"id": "q", "weights": [[-2, -3], [-3, -5]]}]}
        data, _ = parse(json.dumps(doc))
        assert [p.id for p in data.points] == ["p", "q"]
        doc["fixed_points"][1]["weights"] = [[2, 1], [4, 3]]  # det 2
        with pytest.raises(ParseError, match="weights at q are not a lattice basis"):
            parse(json.dumps(doc))


def _doc(k, n, points, torus_manifold=False):
    return {"torus_rank": k, "half_dim": n, "torus_manifold": torus_manifold,
            "fixed_points": [{"id": pid, "weights": [list(w) for w in ws]}
                             for pid, ws in points]}


def _built(doc):
    """The FixedPointData call that ``parse`` makes for the document."""
    return FixedPointData(doc["torus_rank"], doc["half_dim"], tuple(
        FixedPoint(e["id"], tuple(map(tuple, e["weights"]))) for e in doc["fixed_points"]),
        doc["torus_manifold"])


def _cp2_with_first_weight(w):
    pts = list(cpn(2).data.points)
    pts[0] = FixedPoint(pts[0].id, (w,) + pts[0].weights[1:])
    return lambda: FixedPointData(2, 2, tuple(pts))


class TestShapeRules:
    """``FixedPointData`` refuses what ``parse`` refuses, in the same words."""

    @pytest.mark.parametrize("case,text", [
        pytest.param(_doc(2, 2, [("p0", [(0, -1), (-1, 0)]), ("p0", [(1, 0), (0, 1)])]),
                     "duplicate fixed point id: p0", id="duplicate-id"),
        # Hirzebruch F_1 weights, two at each point, declared with half_dim 3
        pytest.param(_doc(2, 3, [("q1", [(1, 0), (-1, 1)]), ("q2", [(0, 1), (1, -1)]),
                                 ("p1", [(-1, 0), (-1, 1)]), ("p2", [(0, -1), (1, -1)])]),
                     "point q1 must carry exactly 3 weights", id="short-point"),
        pytest.param(_doc(2, 3, [("z", [(1, 0), (0, 0), (0, 1)])]),
                     "zero weight at point z", id="zero-weight"),
        pytest.param(_doc(2, 3, [(p.id, p.weights) for p in s6().data.points], True),
                     "torus_manifold needs torus_rank == half_dim, got 2 != 3",
                     id="torus-manifold-rank"),
        # parse words a vector of the wrong length as a JSON type error
        pytest.param(_cp2_with_first_weight((1, 0, 5)),
                     "weight (1, 0, 5) at point p0 must have 2 entries", id="weight-too-long"),
        pytest.param(_cp2_with_first_weight((1,)),
                     "weight (1,) at point p0 must have 2 entries", id="weight-too-short"),
        pytest.param(lambda: transform(cpn(2).data, ((1, 1), (1, 1))),
                     "zero weight at point p1", id="singular-transform"),
        pytest.param(lambda: relabel(cpn(2).data, {"p0": "a", "p1": "a", "p2": "b"}),
                     "duplicate fixed point id: a", id="non-injective-relabel"),
    ])
    def test_constructor_refuses(self, case, text):
        with pytest.raises(ValueError, match=f"^{re.escape(text)}$"):
            case() if callable(case) else _built(case)
        if not callable(case):
            with pytest.raises(ParseError, match=f"^{re.escape(text)}$"):
                parse(json.dumps(case))


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

    def test_weight_sum_reads_the_pairing_counts(self):
        # (#w - #(-w)) w summed over the classes, pinned where it is not zero
        data = FixedPointData(2, 2, (FixedPoint("p", ((1, 0), (1, 0))),
                                     FixedPoint("q", ((-1, 0), (0, 2))),
                                     FixedPoint("r", ((0, -1), (-3, 1)))))
        assert check_weight_sum_zero(data).results[0].witnesses == ((-2, 2),)
        # pairing fails, yet (2) - (1) - (1) sums to zero
        data = FixedPointData(1, 1, (FixedPoint("p", ((2,),)), FixedPoint("q", ((-1,),)),
                                     FixedPoint("r", ((-1,),))))
        assert not check_pairing(data).passed
        assert check_weight_sum_zero(data).passed
        # against the plain sum of all weights on random data
        rng = random.Random(29)
        verdicts = Counter()
        for _ in range(200):
            data, _ = _kernel_data(rng)
            if rng.random() < 0.5:
                data = _mirrored(data)
            total = tuple(map(sum, zip(*data.all_weights())))
            result = check_weight_sum_zero(data).results[0]
            assert result.passed == (not any(total))
            assert result.witnesses == (() if result.passed else (total,))
            verdicts[result.passed] += 1
        assert verdicts[True] > 50 and verdicts[False] > 50

    def test_weight_sum_of_weightless_data_costs_nothing_per_rank(self):
        # with no weights nothing is summed and no witness is printed, so
        # rank 10^7 costs and reports what rank 1 does
        reports = []
        for k in (1, 10 ** 7):
            data = FixedPointData(k, 0, (FixedPoint("p", ()),))
            tracemalloc.start()
            try:
                reports.append(check_weight_sum_zero(data))
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 1 << 20, (k, peak)
        assert reports[0].passed and reports[1] == reports[0]

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
        assert passed > 50 and failed > 50  # both verdicts exercised

    @pytest.mark.parametrize("label", [(0, 0, 1), (1, 0, 0), (1,)],
                             ids=["too-long-off-the-weights", "too-long", "too-short"])
    def test_label_of_wrong_length_is_refused(self, label):
        # (0, 0, 1) read past the weights' entries; (1,) and (1, 0, 0)
        # passed congruence on the entries they share with the weights
        entry = cpn(2)
        edges = list(entry.graph.edges)
        first, second = edges[1], edges[2]
        edges[1] = Edge(first.from_id, first.to_id, label)
        edges[2] = Edge(second.from_id, second.to_id, (1, 1, 1, 1))
        graph = Multigraph(entry.graph.vertex_ids, tuple(edges))
        text = f"label {label} of edge {first.from_id}->{first.to_id} must have 2 entries"
        for check in (check_edge_congruence, check_describes, validate_all):
            with pytest.raises(ValueError, match=f"^{re.escape(text)}$"):
                check(entry.data, graph)


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

    def test_witnesses_of_a_self_loop_and_a_wrong_label(self):
        # a loop gives its point both w and -w; witnesses list weights sorted
        entry = cpn(1)
        loop = Multigraph(entry.graph.vertex_ids, (Edge("p0", "p0", (1,)),))
        rep = check_describes(entry.data, loop)
        assert rep.result("describes").witnesses == (
            ("p0", ((-1,), (1,)), ((1,),)), ("p1", (), ((-1,),)))
        # (1, 1) is not a weight class of cp2, so the graph takes its own index
        entry = cpn(2)
        edges = list(entry.graph.edges)
        edges[2] = Edge(edges[2].from_id, edges[2].to_id, (1, 1))
        rep = check_describes(entry.data, Multigraph(entry.graph.vertex_ids, tuple(edges)))
        assert rep.result("describes").witnesses == (
            ("p1", ((-1, 0), (1, 1)), ((-1, 0), (-1, 1))),
            ("p2", ((-1, -1), (0, -1)), ((0, -1), (1, -1))))
        assert rep.result("edge_congruence").witnesses == (("p1", "p2", (1, 1)),)

    def test_vertex_set_must_match(self):
        entry = cpn(2)
        graph = Multigraph(("p0", "p1"), ())
        rep = check_describes(entry.data, graph)
        assert not rep.passed

    def test_edge_to_unknown_vertex_is_a_witness(self):
        data = FixedPointData(1, 1, (FixedPoint("p", ((1,),)),
                                     FixedPoint("q", ((-1,),))))
        graph = Multigraph(("p", "x"), (Edge("p", "x", (1,)),))
        rep = check_describes(data, graph)
        assert rep.result("describes").witnesses == (
            ("vertex_set", ("p", "x"), ("p", "q")),)
        assert rep.result("edge_congruence").witnesses == (("p", "x", (1,)),)
        assert not validate_all(data, graph).result("describes").passed

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


def _two_unbalanced() -> FixedPointData:
    """Two points whose classes (0, 1) and (1, 0) both have unbalanced buckets."""
    return FixedPointData(2, 2, (FixedPoint("p", ((1, 0), (0, 1))),
                                 FixedPoint("q", ((-1, 0), (0, -1)))))


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
        with pytest.raises(MatchingError) as err:
            build_multigraph(_two_unbalanced())
        assert err.value.weight_class == (0, 1)

    def test_two_unbalanced_classes(self):
        # both classes are unbalanced: the index lists them in sorted order
        # and refuses the first before it yields any bucket
        index = _WeightIndex(_two_unbalanced())
        assert [index.reps[c] for c in index.unbalanced] == [(0, 1), (1, 0)]
        assert index.certified is False
        with pytest.raises(MatchingError) as err:
            next(index.buckets())
        assert err.value.weight_class == (0, 1)
        assert str(err.value) == "no congruent matching for weight class (0, 1)"

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

    def test_unbalanced_bucket_after_a_forced_loop(self):
        # class (1,) forces a loop at p0 first; class (3,) then has residues
        # {0, 1} at p1 and {0, 2} at p2, an unbalanced bucket, so a scan that
        # stopped at the first loop would call the data buildable
        data = FixedPointData(1, 2, (
            FixedPoint("p0", ((-1,), (1,))),
            FixedPoint("p1", ((3,), (-2,))),
            FixedPoint("p2", ((2,), (-3,))),
            FixedPoint("p3", ((-2,), (2,))),
        ))
        rep = validate_all(data)
        assert rep.result("pairing").passed
        assert not rep.result("buildable").passed
        assert rep.result("buildable").note == "no congruent matching for weight class (3,)"

    def test_builds_no_graph(self, monkeypatch):
        # validate reads the pairs of each bucket; only build_multigraph makes edges
        rng = random.Random(2201)
        data = shuffled(rng, cpn(8, random_unimodular(rng, 8)).data)
        made = Counter()
        for cls in (Edge, Multigraph):
            def counted(*args, _cls=cls, **kwargs):
                made[_cls.__name__] += 1
                return _cls(*args, **kwargs)
            monkeypatch.setattr(model, cls.__name__, counted)
        assert validate_all(data).result("buildable").note == "built, loop-free"
        assert not made
        # the counters do count
        build_multigraph(data)
        assert made == {"Edge": 36, "Multigraph": 1}


def _disguised(rng, n, prefix="d"):
    moved = transform(cpn(n).data, random_unimodular(rng, n))
    return shuffled(rng, random_relabel(rng, moved, prefix)[0])


def _with_points(data, points):
    return FixedPointData(data.torus_rank, data.half_dim, tuple(points), data.torus_manifold)


def _spoiled(rng, p):
    """p with one weight doubled: no longer a lattice basis."""
    ws = list(p.weights)
    i = rng.randrange(len(ws))
    ws[i] = tuple(2 * a for a in ws[i])
    return FixedPoint(p.id, tuple(ws))


class TestLatticeCertificate:
    """``_non_basis_point`` is the first point in data order whose weights
    are not a lattice basis, whether found by one det per component or,
    below the crossover and on data the certificate does not cover, by
    one det per point."""

    @staticmethod
    def _certify(data, monkeypatch):
        """(the certificate's answer, the dets it ran) on a fresh copy,
        checked against a det per point."""
        fresh = _with_points(data, data.points)
        calls = []
        det = weights.det
        with monkeypatch.context() as m:
            m.setattr(weights, "det", lambda rows: calls.append(rows) or det(rows))
            found = fresh._non_basis_point
        expected = next((p for p in data.points if not is_unimodular_basis(p.weights)), None)
        assert found is expected, (found, expected)
        return found, len(calls)

    def test_disguised_cpn(self, monkeypatch):
        rng = random.Random(2300)
        for n in range(1, 17):
            data = _disguised(rng, n)
            dets = 1 if n >= model._CERTIFY_FROM else n + 1
            assert self._certify(data, monkeypatch) == (None, dets), n

    def test_petrie_mutants(self, monkeypatch):
        # w_k + t w_l keeps the point a basis but unbalances two classes;
        # a doubled weight, or a random one, may spoil it
        rng = random.Random(2310)
        for n in (4, 9, 10, 12, 14, 16):
            for _ in range(4):
                data = _disguised(rng, n)
                pts = list(data.points)
                i = rng.randrange(len(pts))
                ws = list(pts[i].weights)
                k, l = rng.sample(range(n), 2)
                t = rng.choice((-2, -1, 1, 2))
                ws[k] = tuple(a + t * b for a, b in zip(ws[k], ws[l]))
                pts[i] = FixedPoint(pts[i].id, tuple(ws))
                mutant = _with_points(data, pts)
                assert self._certify(mutant, monkeypatch)[0] is None
                j = rng.randrange(len(pts))
                pts[j] = _spoiled(rng, pts[j])
                self._certify(_with_points(mutant, pts), monkeypatch)
                self._certify(conftest.mutate_one_weight(rng, mutant), monkeypatch)

    def test_blow_ups_and_products(self, monkeypatch):
        rng = random.Random(2320)
        spaces = []
        for n in (3, 10, 11):
            space = conftest.Space(cpn(n).data, cpn(n).graph)
            for _ in range(3):
                space = conftest.blow_up(space, rng.choice(space.data.points).id)
                spaces.append(space.data)
        for a, b in ((1, 10), (4, 6), (5, 5), (2, 9), (3, 3)):
            spaces.append(conftest.product(cpn(a), cpn(b)).data)
        for data in spaces:
            n = data.half_dim
            data = shuffled(rng, transform(data, random_unimodular(rng, n)))
            assert self._certify(data, monkeypatch)[0] is None
            pts = list(data.points)
            for _ in range(2):
                j = rng.randrange(len(pts))
                pts[j] = _spoiled(rng, pts[j])
                self._certify(_with_points(data, pts), monkeypatch)

    def test_two_components_take_one_det_each(self, monkeypatch):
        rng = random.Random(2330)
        for n in (10, 12):
            a, b = _disguised(rng, n, "a"), _disguised(rng, n, "b")
            union = list(a.points + b.points)
            rng.shuffle(union)
            assert self._certify(_with_points(a, union), monkeypatch) == (None, 2)
            j = rng.randrange(len(union))
            union[j] = _spoiled(rng, union[j])
            self._certify(_with_points(a, union), monkeypatch)

    @pytest.mark.parametrize("n", [9, 10, 13])
    def test_non_basis_point_first_middle_last(self, monkeypatch, n):
        rng = random.Random(2340 + n)
        data = _disguised(rng, n)
        for at in (0, len(data.points) // 2, len(data.points) - 1):
            pts = list(data.points)
            bad = _spoiled(rng, pts.pop(rng.randrange(len(pts))))
            pts.insert(at, bad)
            assert self._certify(_with_points(data, pts), monkeypatch)[0] is bad
            doc = {"torus_rank": n, "half_dim": n, "torus_manifold": True,
                   "fixed_points": [{"id": p.id, "weights": [list(w) for w in p.weights]}
                                    for p in pts]}
            with pytest.raises(ParseError, match=f"^weights at {bad.id} are not a lattice basis$"):
                parse(json.dumps(doc))


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


def _kernel_data(rng):
    """Random rank 1-4 data with entries within +-50 and a label to reduce by.

    Every point shifts one base multiset by multiples of the label, so
    residues coincide often; some base weights repeat, the label's pivot
    is negative half the time, and now and then the label is (+-1, +-50,
    ...) against weights at +-50, the extreme residues the packing bound
    has to cover.
    """
    k, n = rng.randint(1, 4), rng.randint(1, 4)

    def vec(r):
        while True:
            w = tuple(rng.randint(-r, r) for _ in range(k))
            if any(w):
                return w

    if k > 1 and rng.random() < 0.2:
        label = (rng.choice((-1, 1)),) + tuple(rng.choice((-50, 50)) for _ in range(k - 1))
        base = [tuple(rng.choice((-50, 50)) for _ in range(k)) for _ in range(n)]
        shifts = (0,)
    else:
        label = canonicalize(vec(15))[1]
        base = [vec(20) for _ in range(n)]
        shifts = (-2, -1, 0, 1, 2)
    if rng.random() < 0.5:
        label = neg(label)
    if n > 1 and rng.random() < 0.5:
        base[1] = base[0]
    points = []
    for i in range(rng.randint(2, 5)):
        ws = []
        for u in base:
            w = tuple(a + rng.choice(shifts) * b for a, b in zip(u, label))
            ws.append(w if any(w) and rng.random() > 0.1 else vec(50))
        points.append(FixedPoint(f"p{i}", tuple(ws)))
    return FixedPointData(k, n, tuple(points)), label


def _mirrored(data):
    """The data plus a negated copy of every point, so pairing holds."""
    return FixedPointData(data.torus_rank, data.half_dim, data.points + tuple(
        FixedPoint(p.id + "'", tuple(neg(w) for w in p.weights)) for p in data.points))


def _reference_edge_congruence(data, graph):
    """check_edge_congruence keyed on residue_mod tuples: its witnesses."""
    return tuple((e.from_id, e.to_id, e.label)
                 for e in sorted(graph.edges, key=lambda e: (e.from_id, e.to_id, e.label))
                 if sorted(residue_mod(w, e.label) for w in data.point(e.from_id).weights)
                 != sorted(residue_mod(w, e.label) for w in data.point(e.to_id).weights))


def _reference_build(data):
    """build_multigraph keyed on residue_mod tuples: serialized graph or error."""
    if not check_pairing(data).passed:
        return "pairing"
    plus, minus = {}, {}
    for p in sorted(data.points, key=lambda p: p.id):
        for w in p.weights:
            s, rep = canonicalize(w)
            (plus if s > 0 else minus).setdefault(rep, []).append(p.id)
    edges = []
    for rep in sorted(plus):
        buckets = {}
        for side, pids in enumerate((plus[rep], minus[rep])):
            for pid in pids:
                key = tuple(sorted(residue_mod(w, rep) for w in data.point(pid).weights))
                buckets.setdefault(key, ([], []))[side].append(pid)
        for left, right in buckets.values():
            if len(left) != len(right):
                return ("unmatched", rep, f"no congruent matching for weight class {rep}")
            edges.extend(Edge(u, v, rep) for u, v in _pair_bucket(left, right))
    return serialize(data, Multigraph(data.ids(), tuple(edges)))


class TestPackedKernels:
    """Packed residues and primitive directions against the tuple oracles."""

    def test_packed_residues_equal_exactly_when_tuples_are(self):
        rng = random.Random(53)
        equal = unequal = 0
        for _ in range(300):
            data, label = _kernel_data(rng)
            labels = [label, neg(label), *data.points[0].weights]
            kernel = _WeightIndex(data, labels)
            for lab in labels:
                res = kernel.residues(kernel.classes[lab][1], [p.id for p in data.points])
                flat = [(r, residue_mod(u, lab))
                        for p in data.points for r, u in zip(res[p.id], p.weights)]
                assert all(r == kernel.pack(t) for r, t in flat)
                for (a, ra), (b, rb) in combinations(flat, 2):
                    assert (a == b) == (ra == rb), (data, lab)
                    equal += ra == rb
                    unequal += ra != rb
        assert equal > 1000 and unequal > 1000

    def test_packing_injective_on_every_small_residue(self):
        # every non-zero vector of [-2, 2]^3 modulo every other: the width is
        # the least that keeps these residues apart
        box = [w for w in product(range(-2, 3), repeat=3) if any(w)]
        data = FixedPointData(3, len(box), (FixedPoint("p", tuple(box)),))
        kernel = _WeightIndex(data)
        for label in box:
            packed = kernel.residues(kernel.classes[label][1], ["p"])["p"]
            tuples = [residue_mod(u, label) for u in box]
            assert len(set(zip(packed, tuples))) == len(set(packed)) == len(set(tuples))

    def test_labels_widen_the_packing(self):
        # mod (1, 50, 0) the residues (0, 2050, 0) and (0, -2046, 1) differ, yet
        # they pack to the same int at width 12, which the weights alone
        # (|entries| <= 41) would give; the label's 50 forces width 13
        data = FixedPointData(3, 1, (FixedPoint("p", ((-41, 0, 0),)),
                                     FixedPoint("q", ((41, 4, 1),))))
        graph = Multigraph(("p", "q"), (Edge("p", "q", (1, 50, 0)),))
        assert residue_mod((-41, 0, 0), (1, 50, 0)) == (0, 2050, 0)
        assert residue_mod((41, 4, 1), (1, 50, 0)) == (0, -2046, 1)
        assert 2050 << 12 == (-2046 << 12) + (1 << 24)
        assert check_edge_congruence(data, graph).results[0].witnesses == (
            ("p", "q", (1, 50, 0)),)

    def test_edge_congruence_matches_tuple_reference(self):
        rng = random.Random(59)
        verdicts = Counter()
        for _ in range(300):
            data, label = _kernel_data(rng)
            ids = [p.id for p in data.points]
            edges = []
            for _ in range(rng.randint(1, 5)):
                u, v = rng.choice(ids), rng.choice(ids)
                lab = rng.choice((label, neg(label), rng.choice(data.point(u).weights)))
                edges.append(Edge(u, v, lab))
            graph = Multigraph(tuple(sorted(ids)), tuple(edges))
            result = check_edge_congruence(data, graph).results[0]
            assert result.witnesses == _reference_edge_congruence(data, graph)
            verdicts[result.passed] += 1
        assert verdicts[True] > 50 and verdicts[False] > 50

    def test_edge_congruence_matches_tuple_reference_on_known_graphs(self):
        # the catalog graphs (fano's parallel edges, cp3_nongkm's parallel
        # weights), seeded blow-ups and products; a residue repeats at the
        # far end of some edges of fano, cp3_nongkm and their products
        rng = random.Random(61)
        entries = [conftest.Space(e.data, e.graph) for e in all_entries()]
        spaces = list(entries)
        for _ in range(20):
            space = rng.choice([s for s in entries if s.data.torus_manifold])
            for _ in range(rng.randint(1, 2)):
                space = conftest.blow_up(space, rng.choice(space.data.ids()))
            spaces.append(space)
            spaces.append(conftest.product(rng.choice(entries), rng.choice(spaces)))
        paths = Counter()
        for data, graph in spaces:
            result = check_edge_congruence(data, graph).results[0]
            assert result.passed
            assert result.witnesses == _reference_edge_congruence(data, graph)
            for e in graph.edges:
                res = [residue_mod(w, e.label) for w in data.point(e.to_id).weights]
                paths["repeated" if len(set(res)) < len(res) else "distinct"] += 1
        assert paths["distinct"] >= 50 and paths["repeated"] >= 50, paths

    def test_build_matches_tuple_reference(self):
        rng = random.Random(67)
        outcomes = Counter()
        for _ in range(300):
            data, _ = _kernel_data(rng)
            if rng.random() < 0.8:
                data = _mirrored(data)
            expected = _reference_build(data)
            try:
                got = serialize(data, build_multigraph(data))
            except MatchingError as exc:
                got = ("unmatched", exc.weight_class, str(exc))
            except ValueError:
                got = "pairing"
            assert got == expected, data
            outcomes["pairing" if got == "pairing" else
                     "refused" if isinstance(got, tuple) else "built"] += 1
        assert min(outcomes["built"], outcomes["refused"], outcomes["pairing"]) > 30, outcomes

    def test_gkm_witnesses_follow_pairwise_oracle(self):
        rng = random.Random(71)
        flagged = 0
        for _ in range(300):
            k, n = rng.randint(1, 4), rng.randint(1, 5)
            lines = [tuple(rng.randint(-3, 3) for _ in range(k)) for _ in range(2)]
            lines = [d for d in lines if any(d)] or [(1,) * k]
            points = []
            for i in range(rng.randint(1, 4)):
                ws = []
                while len(ws) < n:
                    if rng.random() < 0.5:
                        c = rng.choice((-3, -2, -1, 1, 2, 3))
                        w = tuple(c * a for a in rng.choice(lines))
                    else:
                        w = tuple(rng.randint(-6, 6) for _ in range(k))
                    if any(w):
                        ws.append(w)
                points.append(FixedPoint(f"p{rng.randint(0, 9)}{i}", tuple(ws)))
            data = FixedPointData(k, n, tuple(points))
            oracle = tuple((p.id, u, v) for p in sorted(points, key=lambda p: p.id)
                           for u, v in combinations(p.weights, 2) if parallel(u, v))
            assert check_gkm(data).results[0].witnesses == oracle
            flagged += bool(oracle)
        assert 50 < flagged < 250

    def test_gkm_parallel_pairs(self):
        data = FixedPointData(2, 3, (FixedPoint("p", ((2, 4), (1, 0), (-1, -2))),))
        assert check_gkm(data).results[0].witnesses == (("p", (2, 4), (-1, -2)),)
        # in rank 1 every pair of weights is parallel
        data = FixedPointData(1, 3, (FixedPoint("q", ((1,), (-2,), (3,))),))
        assert check_gkm(data).results[0].witnesses == (
            ("q", (1,), (-2,)), ("q", (1,), (3,)), ("q", (-2,), (3,)))

    def test_one_canonicalize_per_distinct_weight_per_call(self, monkeypatch):
        # a dataset keeps one weight index, which canonicalizes a class
        # {w, -w} the first time it meets either sign and never again, over
        # every check, build and localization call on that dataset
        rng = random.Random(2110)
        entry = cpn(8, random_unimodular(rng, 8))
        data = shuffled(rng, entry.data)
        # the expanded table's cost grows fast with n, so it reads CP^4
        small = shuffled(rng, cpn(4, random_unimodular(rng, 4)).data)
        e1 = chern_numerators(small, (1,))
        calls = Counter()
        for module in (model, localization):
            original = getattr(module, "canonicalize", canonicalize)

            def counted(w, _original=original):
                calls[tuple(w)] += 1
                return _original(w)
            monkeypatch.setattr(module, "canonicalize", counted, raising=False)
        for subject, work in (
                (data, (lambda: validate_all(data),
                        lambda: validate_all(data, entry.graph),
                        lambda: check_pairing(data), lambda: check_gkm(data),
                        lambda: check_describes(data, entry.graph),
                        lambda: check_edge_congruence(data, entry.graph),
                        lambda: build_multigraph(data),
                        lambda: localization.chern_report(data),
                        lambda: localization.check_lower_degree_vanishing(data))),
                (small, (lambda: localization.chern_report(small, "expanded"),
                         lambda: localization.check_lower_degree_vanishing(small, "expanded"),
                         lambda: localization.integrate(small, e1)))):
            calls.clear()
            for call in work:
                call()
            assert set(calls) <= set(subject.all_weights()), calls
            assert max(calls.values()) == 1, calls
            assert sum(calls.values()) == len(subject._index.reps)

    def test_graph_layer_calls_no_tuple_oracles(self, monkeypatch):
        calls = Counter()
        for name in ("residue_mod", "parallel"):
            for module in (model, weights):
                if name in vars(module):
                    original = getattr(module, name)

                    def wrapper(*args, _name=name, _original=original):
                        calls[_name] += 1
                        return _original(*args)
                    monkeypatch.setattr(module, name, wrapper)
        entry = cpn(8)
        assert validate_all(entry.data).passed
        assert check_describes(entry.data, entry.graph).passed
        assert calls == {}
        # the wrappers do count
        model.residue_mod((5, 3), (2, 0))
        weights.parallel((1, 0), (2, 0))
        assert calls == {"residue_mod": 1, "parallel": 1}

    @pytest.mark.parametrize("doc", [
        {"torus_rank": 2, "half_dim": 1,
         "fixed_points": [{"id": "p", "weights": [[True, 0]]},
                          {"id": "q", "weights": [[-1, 0]]}]},
        {"torus_rank": 1, "half_dim": 1,
         "fixed_points": [{"id": "p", "weights": [[1]]}, {"id": "q", "weights": [[-1]]}],
         "edges": [{"from": "p", "to": "q", "label": [1.0]}]},
    ])
    def test_parse_refuses_bool_and_float_entries(self, doc):
        with pytest.raises(ParseError, match="must be an integer"):
            parse(json.dumps(doc))
