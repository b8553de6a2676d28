"""Genus computation: indices, coefficient vectors, specializations, checks."""

import pytest

from gkmkit import (
    ChiYPolynomial,
    FixedPoint,
    FixedPointData,
    NonGenericCircleError,
    all_entries,
    chi_y,
    cpn,
    index_d_minus,
    positivity,
    s6,
    symmetry,
)


class TestIndices:
    def test_cp2_indices(self):
        data = cpn(2).data
        xi = (1, 2)
        assert index_d_minus(data.point("p0"), xi) == 0
        assert index_d_minus(data.point("p1"), xi) == 1
        assert index_d_minus(data.point("p2"), xi) == 2
        assert len(data.point("p0").weights) - index_d_minus(data.point("p0"), xi) == 2
        assert len(data.point("p2").weights) - index_d_minus(data.point("p2"), xi) == 0

    def test_non_generic_circle(self):
        p = cpn(2).data.point("p0")
        with pytest.raises(NonGenericCircleError) as exc:
            index_d_minus(p, (0, 1))
        assert exc.value.point_id == "p0"
        assert exc.value.weight == (1, 0)
        assert exc.value.xi == (0, 1)

    def test_plus_is_minus_of_negated_circle(self, rng):
        for _ in range(30):
            ws = []
            while len(ws) < 3:
                w = (rng.randint(-5, 5), rng.randint(-5, 5))
                if any(w):
                    ws.append(w)
            p = FixedPoint("q", tuple(ws))
            xi = (rng.randint(-7, 7), rng.randint(-7, 7))
            try:
                d = index_d_minus(p, xi)
            except NonGenericCircleError:
                continue
            neg_xi = (-xi[0], -xi[1])
            assert len(p.weights) - index_d_minus(p, xi) == index_d_minus(p, neg_xi)
            assert d + len(p.weights) - index_d_minus(p, xi) == 3


class TestChiYPolynomial:
    def test_specializations(self):
        g = ChiYPolynomial((1, 1, 1))
        assert g.half_dim == 2
        assert g.euler == 3
        assert g.todd == 1
        assert g.signature == 1
        assert g.eval_at(0) == 1
        assert g.eval_at(-1) == 3

    @pytest.mark.parametrize(
        "coeffs,text",
        [
            ((1, 1, 1, 1), "1 - y + y^2 - y^3"),
            ((0, 1, 1, 0), "-y + y^2"),
            ((0, 2, 2, 0), "-2y + 2y^2"),
            ((1, 0, 3), "1 + 3y^2"),
            ((2,), "2"),
            ((0, 0), "0"),
        ],
    )
    def test_as_y_string(self, coeffs, text):
        assert ChiYPolynomial(coeffs).as_y_string() == text


class TestChiY:
    def test_cp3(self):
        data = cpn(3).data
        assert chi_y(data).coeffs == (1, 1, 1, 1)
        assert chi_y(data, (1, 2, 4)).coeffs == (1, 1, 1, 1)

    def test_s6_values(self):
        data = s6().data
        assert chi_y(data).coeffs == (0, 1, 1, 0)
        assert chi_y(data).euler == 2
        assert chi_y(data).todd == 0
        assert chi_y(data).signature == 0

    def test_xi_length_check(self):
        with pytest.raises(ValueError, match="length"):
            chi_y(cpn(2).data, (1, 2, 3))

    def test_non_generic_xi_propagates(self):
        with pytest.raises(NonGenericCircleError):
            chi_y(cpn(2).data, (0, 1))

    def test_point_count(self, rng):
        # the coefficients always partition the set of fixed points
        for _ in range(20):
            points = []
            for i in range(rng.randint(1, 6)):
                ws = []
                while len(ws) < 3:
                    w = (rng.randint(-4, 4), rng.randint(-4, 4))
                    if any(w):
                        ws.append(w)
                points.append(FixedPoint(f"p{i}", tuple(ws)))
            data = FixedPointData(2, 3, tuple(points))
            assert chi_y(data).euler == len(points)


class TestXiIndependence:
    def test_catalog_is_circle_independent(self, rng):
        for entry in all_entries():
            base = chi_y(entry.data).coeffs
            k = entry.data.torus_rank
            tried = 0
            while tried < 50:
                xi = tuple(rng.randint(-9, 9) for _ in range(k))
                try:
                    coeffs = chi_y(entry.data, xi).coeffs
                except NonGenericCircleError:
                    continue
                tried += 1
                assert coeffs == base, (entry.name, xi)

    def test_negating_xi_reverses_coefficients(self, rng):
        for entry in all_entries():
            k = entry.data.torus_rank
            tried = 0
            while tried < 10:
                xi = tuple(rng.randint(-9, 9) for _ in range(k))
                try:
                    coeffs = chi_y(entry.data, xi).coeffs
                except NonGenericCircleError:
                    continue
                tried += 1
                neg_xi = tuple(-x for x in xi)
                assert chi_y(entry.data, neg_xi).coeffs == coeffs[::-1]


class TestSymmetry:
    def test_catalog_passes(self):
        for entry in all_entries():
            rep = symmetry(chi_y(entry.data).coeffs)
            assert rep.passed, entry.name

    def test_failure_carries_witnesses(self):
        data = FixedPointData(2, 2, (FixedPoint("p", ((1, 0), (0, 1))),))
        rep = symmetry(chi_y(data).coeffs)
        assert not rep.passed
        assert rep.result("chi_y_symmetry").witnesses == ((0, 1, 0), (2, 0, 1))


class TestPositivity:
    def test_cpn_passes(self):
        for n in (1, 2, 3):
            rep = positivity(chi_y(cpn(n).data).coeffs)
            assert rep.passed
            assert rep.result("chi_y_positivity").note == ""

    def test_unrealizable_subset(self):
        full = cpn(2).data
        points = tuple(p for p in full.points if p.id != "p2")
        data = FixedPointData(2, 2, points, torus_manifold=True)
        rep = positivity(chi_y(data).coeffs)
        assert not rep.passed
        res = rep.result("chi_y_positivity")
        assert res.witnesses == ((2, 0),)
        assert "unrealizable" in res.note
