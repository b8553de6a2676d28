"""Minimal-data model recognition: reconstruction, relations, invariants."""

import random
import time

import pytest

from gkmkit import (
    Edge,
    FixedPoint,
    FixedPointData,
    Multigraph,
    Relation,
    all_entries,
    chern_report,
    chi_y,
    cpn,
    gkm_relations,
    petrie_verify,
    relabel,
    s6,
    transform,
    triangle_identity,
)
from gkmkit import weights
from gkmkit.weights import apply_matrix, frac_add, neg, parallel, poly_const, sub

from conftest import mutate_one_weight, random_relabel, random_unimodular, shuffled
from oracle import fraction


class TestTriangleIdentity:
    def test_model_triple_holds(self):
        assert triangle_identity((1, 0), (0, 1), (-1, 1))

    @pytest.mark.parametrize("wij", [(1, 1), (1, -1), (-2, 2), (0, 3)])
    def test_other_triples_fail(self, wij):
        assert not triangle_identity((1, 0), (0, 1), wij)

    def test_parallel_arms_rejected(self):
        with pytest.raises(ValueError, match="parallel"):
            triangle_identity((1, 0), (-2, 0), (1, 1))

    def test_zero_third_weight_rejected(self):
        with pytest.raises(ValueError, match="zero"):
            triangle_identity((1, 0), (0, 1), (0, 0))

    def test_holds_exactly_at_difference(self, rng):
        for _ in range(40):
            a = (rng.randint(-5, 5), rng.randint(-5, 5))
            b = (rng.randint(-5, 5), rng.randint(-5, 5))
            if a[0] * b[1] - a[1] * b[0] == 0:
                continue
            c = sub(b, a)
            assert triangle_identity(a, b, c)
            delta = (rng.choice((-2, -1, 1, 2)), rng.randint(-2, 2))
            moved = (c[0] + delta[0], c[1] + delta[1])
            if moved != c and any(moved):
                assert not triangle_identity(a, b, moved)

    @staticmethod
    def three_fraction_sum(a, b, c):
        """1/(ab) + 1/((-a)c) + 1/((-b)(-c)) as a factored fraction."""
        if parallel(a, b):
            raise ValueError("parallel")
        if not any(c):
            raise ValueError("zero")
        one = poly_const(len(a), 1)
        return frac_add(frac_add(fraction(one, (a, b)), fraction(one, (neg(a), c))),
                        fraction(one, (neg(b), neg(c))))

    def test_agrees_with_three_fraction_sum(self):
        rng = random.Random(2718)
        outcomes = set()
        for _ in range(2400):
            k = rng.randint(1, 3)
            a, b, c = (tuple(rng.randint(-3, 3) for _ in range(k)) for _ in range(3))
            if rng.random() < 0.3:
                c = sub(b, a)
            try:
                expected = self.three_fraction_sum(a, b, c).is_zero()
            except ValueError as exc:
                with pytest.raises(ValueError, match=str(exc)):
                    triangle_identity(a, b, c)
                outcomes.add(str(exc))
                continue
            assert triangle_identity(a, b, c) == expected
            outcomes.add(expected)
        assert outcomes == {True, False, "parallel", "zero"}

    def test_makes_no_polynomial_division(self, monkeypatch):
        calls = []
        real = weights.poly_div_linear

        def counting(p, w):
            calls.append(w)
            return real(p, w)

        monkeypatch.setattr(weights, "poly_div_linear", counting)
        assert triangle_identity((1, 0), (0, 1), (-1, 1))
        assert calls == []


class TestVerifyOnModel:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_identity_model_matches(self, n):
        entry = cpn(n)
        report = petrie_verify(entry.data, entry.graph, up_to_gl=True)
        assert report.matched
        assert report.verdict == "match"
        assert report.base_point == "p0"
        expected_basis = tuple(
            tuple(1 if i == j else 0 for i in range(n)) for j in range(n))
        assert report.basis == expected_basis
        assert report.relabeling == {f"p{i}": i for i in range(n + 1)}
        assert report.simplex == ((0,) * n,) + expected_basis
        assert report.graph_consistent is True
        assert report.gl_normalized_equal is True

    def test_invariant_table(self):
        report = petrie_verify(cpn(2).data)
        inv = report.invariants
        assert inv["chi_y"] == (1, 1, 1)
        assert inv["euler"] == 3
        assert inv["todd"] == 1
        assert inv["signature"] == 1
        assert inv["chern"] == {(1, 1): 9, (2,): 3}
        assert inv["chi_y"] == (1,) * 3

    def test_graph_defaults_to_unchecked(self):
        report = petrie_verify(cpn(2).data)
        assert report.graph_consistent is None
        assert report.gl_normalized_equal is None

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_transformed_relabeled_shuffled_roundtrip(self, n):
        rng = random.Random(900 + n)
        chars = [tuple(0 for _ in range(n))] + [
            tuple(1 if i == j else 0 for i in range(n)) for j in range(n)]
        for _ in range(5):
            rows = random_unimodular(rng, n)
            moved = transform(cpn(n).data, rows)
            renamed, mapping = random_relabel(rng, moved, prefix="q")
            scrambled = shuffled(rng, renamed)
            report = petrie_verify(scrambled, up_to_gl=True)
            assert report.matched
            assert report.gl_normalized_equal is True
            assert report.base_point == min(scrambled.ids())
            # the recovered basis is the transformed character differences
            # taken from whichever original point became the base
            back = {new: old for old, new in mapping.items()}
            m = int(back[report.base_point][1:])
            expect = sorted(
                apply_matrix(rows, sub(chars[j], chars[m]))
                for j in range(n + 1) if j != m)
            assert sorted(report.basis) == expect
            assert report.invariants["chi_y"] == (1,) * (n + 1)


class TestVerifyRejections:
    def test_unflagged_data(self):
        report = petrie_verify(s6().data)
        assert report.verdict == "precondition-failed"
        assert "flag" in report.witness

    def test_non_basis_weights(self):
        pts = []
        for p in cpn(2).data.points:
            if p.id == "p2":
                ws = tuple((2, 0) if w == (1, -1) else w for w in p.weights)
                pts.append(FixedPoint(p.id, ws))
            else:
                pts.append(p)
        data = FixedPointData(2, 2, tuple(pts), torus_manifold=True)
        report = petrie_verify(data)
        assert report.verdict == "precondition-failed"
        assert "lattice basis" in report.witness

    def test_wrong_point_count(self):
        extra = cpn(2).data.points + (FixedPoint("p3", ((1, 0), (0, 1))),)
        data = FixedPointData(2, 2, extra, torus_manifold=True)
        report = petrie_verify(data)
        assert report.verdict == "precondition-failed"
        assert "fixed points" in report.witness

    def test_pattern_violation_is_no_match(self):
        pts = []
        for p in cpn(2).data.points:
            if p.id == "p2":
                pts.append(FixedPoint(p.id, ((0, -1), (1, -2))))
            else:
                pts.append(p)
        data = FixedPointData(2, 2, tuple(pts), torus_manifold=True)
        report = petrie_verify(data)
        assert report.verdict == "no-match"
        assert "p2" in report.witness

    def test_repeated_point_is_no_match(self):
        # p1 and p2 both fit the pattern of the same base weight
        p1 = cpn(2).data.point("p1")
        pts = cpn(2).data.points[:2] + (FixedPoint("p2", p1.weights),)
        report = petrie_verify(FixedPointData(2, 2, pts, torus_manifold=True))
        assert report.verdict == "no-match"
        assert "p2" in report.witness

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_single_weight_mutants_never_match(self, n):
        rng = random.Random(7000 + n)
        for _ in range(25):
            rows = random_unimodular(rng, n)
            moved = transform(cpn(n).data, rows)
            mutant = mutate_one_weight(rng, moved)
            assert not petrie_verify(mutant).matched


class TestGraphConsistency:
    def test_model_graph_accepted(self):
        report = petrie_verify(cpn(3).data, cpn(3).graph)
        assert report.matched and report.graph_consistent is True

    def test_reversed_edge_accepted(self):
        entry = cpn(2)
        edges = list(entry.graph.edges)
        e = edges[0]
        edges[0] = Edge(e.to_id, e.from_id, tuple(-x for x in e.label))
        graph = Multigraph(entry.graph.vertex_ids, tuple(edges))
        report = petrie_verify(entry.data, graph)
        assert report.matched and report.graph_consistent is True

    def test_bad_label_rejected(self):
        entry = cpn(2)
        edges = list(entry.graph.edges)
        e = edges[0]
        edges[0] = Edge(e.from_id, e.to_id, (5, 7))
        graph = Multigraph(entry.graph.vertex_ids, tuple(edges))
        report = petrie_verify(entry.data, graph)
        assert report.verdict == "no-match"
        assert report.graph_consistent is False
        assert "label" in report.witness

    def test_missing_edge_rejected(self):
        entry = cpn(2)
        graph = Multigraph(entry.graph.vertex_ids, entry.graph.edges[:-1])
        report = petrie_verify(entry.data, graph)
        assert report.verdict == "no-match"
        assert "complete" in report.witness

    def test_duplicate_edge_rejected(self):
        entry = cpn(2)
        graph = Multigraph(entry.graph.vertex_ids,
                           entry.graph.edges + (entry.graph.edges[0],))
        report = petrie_verify(entry.data, graph)
        assert report.verdict == "no-match"
        assert "duplicate" in report.witness

    def test_self_loop_rejected(self):
        entry = cpn(2)
        edges = entry.graph.edges[:-1] + (Edge("p0", "p0", (1, 0)),)
        graph = Multigraph(entry.graph.vertex_ids, edges)
        report = petrie_verify(entry.data, graph)
        assert report.verdict == "no-match"
        assert "self-loop" in report.witness

    def test_vertex_set_must_be_the_points(self):
        graph = Multigraph(("p0", "p1"), ())
        report = petrie_verify(cpn(2).data, graph)
        assert (report.verdict, report.graph_consistent) == ("no-match", False)
        assert report.witness == "graph vertex set differs from the fixed point set"


class TestRelationsAndSimplex:
    def test_cp2_relations(self):
        report = petrie_verify(cpn(2).data)
        rels = gkm_relations(report)
        assert rels == (
            Relation("p0", "p1", (1, 0)),
            Relation("p0", "p2", (0, 1)),
            Relation("p1", "p2", (-1, 1)),
        )

    def test_relation_count(self):
        for n in (2, 3, 4):
            report = petrie_verify(cpn(n).data)
            assert len(gkm_relations(report)) == n * (n + 1) // 2

    def test_simplex_vertices(self):
        report = petrie_verify(cpn(2).data)
        assert report.simplex == ((0, 0), (1, 0), (0, 1))

    def test_requires_match(self):
        report = petrie_verify(s6().data)
        with pytest.raises(ValueError):
            gkm_relations(report)

    def test_chern_table_matches_direct_computation(self):
        report = petrie_verify(cpn(3).data)
        assert report.invariants["chern"] == chern_report(cpn(3).data).values

    def test_relations_cover_every_pair_once(self):
        rng = random.Random(31)
        renamed, _ = random_relabel(rng, cpn(3).data, prefix="m")
        report = petrie_verify(renamed)
        assert report.matched
        rels = gkm_relations(report)
        pairs = {frozenset((r.from_id, r.to_id)) for r in rels}
        assert len(pairs) == len(rels) == 6
        ids = set(renamed.ids())
        assert {x for pair in pairs for x in pair} == ids
        # a divisor is a weight at its tail and occurs negated at its head
        for r in rels:
            assert r.divisor in set(renamed.point(r.from_id).weights)
            assert tuple(-x for x in r.divisor) in set(renamed.point(r.to_id).weights)


class TestClosedFormInvariants:
    """A match reports linear CP^n's invariants in closed form.

    chi_y and chern_report, run on the data itself, are the oracle.
    """

    @staticmethod
    def assert_oracle(data):
        report = petrie_verify(data)
        assert report.matched
        genus = chi_y(data)
        chern = dict(sorted(chern_report(data).values.items()))
        inv = report.invariants
        assert list(inv.items()) == [
            ("chi_y", genus.coeffs), ("euler", genus.euler), ("todd", genus.todd),
            ("signature", genus.signature), ("chern", chern)]
        assert list(inv["chern"].items()) == list(chern.items())

    def test_catalog_torus_manifolds(self):
        entries = [e for e in all_entries() if e.data.torus_manifold]
        assert len(entries) == 4
        for entry in entries:
            self.assert_oracle(entry.data)

    def test_disguised_cpn(self):
        rng = random.Random(1700)
        for n in range(1, 10):
            moved = transform(cpn(n).data, random_unimodular(rng, n))
            self.assert_oracle(shuffled(rng, random_relabel(rng, moved, prefix="d")[0]))


def ambiguous(rows, names=None) -> FixedPointData:
    """Base point with basis weights b_i; n other points each carry every -b_i.

    Every other point holds the negation of every base weight, so each
    base weight is a candidate everywhere, yet no point has a model pattern.
    """
    n = len(rows)
    negated = tuple(tuple(-a for a in b) for b in rows)
    pts = (FixedPoint("base", tuple(rows)),) + tuple(
        FixedPoint(f"q{i:02d}", negated) for i in range(n))
    return FixedPointData(n, n, pts, torus_manifold=True)


def basis_mutant(rng: random.Random, data: FixedPointData) -> FixedPointData:
    """Replace w_k at one point by w_k + t*w_l: still a basis, no longer a model."""
    i = rng.randrange(len(data.points))
    p = data.points[i]
    k, l = rng.sample(range(len(p.weights)), 2)
    t = rng.choice((-2, -1, 1, 2))
    ws = list(p.weights)
    ws[k] = tuple(a + t * b for a, b in zip(ws[k], ws[l]))
    pts = list(data.points)
    pts[i] = FixedPoint(p.id, tuple(ws))
    return FixedPointData(data.torus_rank, data.half_dim, tuple(pts),
                          data.torus_manifold)


def with_base(data: FixedPointData, pid: str) -> FixedPointData:
    """Rename the points so that ``pid`` sorts first and becomes the base."""
    return relabel(data, {q: "a" if q == pid else f"b{q}" for q in data.ids()})


class TestAdversarialInput:
    def test_ambiguous_n12_refused_quickly(self):
        rng = random.Random(1212)
        data = shuffled(rng, ambiguous(random_unimodular(rng, 12)))
        start = time.perf_counter()
        report = petrie_verify(data, up_to_gl=True)
        elapsed = time.perf_counter() - start
        assert report.verdict == "no-match"
        assert report.base_point == "base"
        assert any(pid in report.witness for pid in data.ids() if pid != "base")
        assert elapsed < 1.0


class TestBasePointInvariance:
    """Every point, used as the base point, gives the same verdict."""

    def _verdicts(self, data):
        return {petrie_verify(with_base(data, pid)).verdict for pid in data.ids()}

    def test_ambiguous_family(self):
        rng = random.Random(1400)
        for n in range(2, 7):
            assert self._verdicts(ambiguous(random_unimodular(rng, n))) == {"no-match"}

    def test_models_and_mutants(self):
        rng = random.Random(1500)
        for n in range(2, 6):
            for _ in range(6):
                moved = transform(cpn(n).data, random_unimodular(rng, n))
                assert self._verdicts(moved) == {"match"}
                assert self._verdicts(basis_mutant(rng, moved)) == {"no-match"}
                verdicts = self._verdicts(mutate_one_weight(rng, moved))
                assert len(verdicts) == 1 and "match" not in verdicts


class TestGlNormalization:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_inverse_basis_maps_onto_standard_model(self, n):
        # checked forwards: the recovered basis, as columns, maps the
        # standard model onto the relabeled data
        rng = random.Random(1600 + n)
        for _ in range(6):
            moved = transform(cpn(n).data, random_unimodular(rng, n))
            renamed, _ = random_relabel(rng, moved, prefix="g")
            data = shuffled(rng, renamed)
            report = petrie_verify(data, up_to_gl=True)
            assert report.matched and report.gl_normalized_equal is True
            columns = tuple(tuple(b[i] for b in report.basis) for i in range(n))
            model = transform(cpn(n).data, columns)
            back = relabel(data, {pid: f"p{idx}"
                                  for pid, idx in report.relabeling.items()})
            assert ({p.id: sorted(p.weights) for p in back.points}
                    == {p.id: sorted(p.weights) for p in model.points})
