import functools
import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gkmkit.weights import (
    canonicalize,
    det,
    dot,
    elem_sym_all,
    elem_sym_scalars,
    frac_add,
    frac_equal,
    generic_points,
    is_unimodular_basis,
    linear_form,
    parallel,
    poly_add,
    poly_const,
    poly_div_linear,
    poly_eval,
    poly_mul,
    poly_total_degree,
)

from conftest import random_unimodular
from oracle import NonGenericPointError, frac_eval, frac_sum, fraction


class TestVectorOps:
    def test_dot(self):
        assert dot((1, 2), (-2, -1)) == -4
        assert dot((1, 0), (5, 7)) == 5
        assert dot((2,), (-3,)) == -6

    def test_dot_dimension_mismatch(self):
        with pytest.raises(ValueError):
            dot((1, 2), (1, 2, 3))

    def test_canonicalize(self):
        assert canonicalize((-1, 1)) == (-1, (1, -1))
        assert canonicalize((0, 3)) == (1, (0, 3))
        assert canonicalize((0, -2, 5)) == (-1, (0, 2, -5))
        assert canonicalize((4,)) == (1, (4,))

    def test_canonicalize_rejects_zero(self):
        with pytest.raises(ValueError):
            canonicalize((0, 0))

    def test_parallel(self):
        assert parallel((1, 0), (2, 0))
        assert parallel((2, 4), (-1, -2))
        assert not parallel((1, 0), (0, 1))
        assert not parallel((1, 2), (2, 1))


class TestDeterminant:
    def test_examples(self):
        assert det(((1, 0), (0, 1))) == 1
        assert det(((2, 1), (1, 1))) == 1
        assert det(((2, 0), (0, 2))) == 4
        assert det(((1, 2), (2, 4))) == 0
        assert det(()) == 1

    def test_three_by_three(self):
        assert det(((1, 0, 0), (1, 1, 0), (2, 1, 1))) == 1
        assert det(((0, 1, 0), (1, 0, 0), (0, 0, 1))) == -1

    def test_unimodular_basis(self):
        assert is_unimodular_basis(((1, 0), (0, 1)))
        assert is_unimodular_basis(((1, 0), (1, 1)))
        assert not is_unimodular_basis(((1, 0), (2, 0)))
        # pairs drawn from a rank-deficient triple
        assert not is_unimodular_basis(((-2, 0), (-1, 0)))
        assert not is_unimodular_basis(((-2, 0), (-2, 1)))
        assert is_unimodular_basis(((-1, 0), (-2, 1)))

    def test_unimodularity_preserved_by_row_ops(self):
        rng = random.Random(7)
        for _ in range(40):
            n = rng.randint(1, 6)
            m = random_unimodular(rng, n)
            assert det(m) in (1, -1)
            assert is_unimodular_basis(m)

    # every pivot choice the elimination can meet, forced
    FORCED = [
        ((0, 1, 2), (0, 3, 4), (0, 5, 6)),          # zero leading column
        ((2, 3), (3, 5)),                           # no unit in the column
        ((4, 1, 0), (-2, 5, 1), (6, 0, 3)),         # negative least pivot
        ((-3, 1, 2), (5, 0, 1), (7, 2, 2)),         # negative pivot in row 0
        ((3, 1), (1, 2)),                           # pivot in row 1
        ((3, 1, 4, 1), (5, 9, 2, 6), (6, 5, 3, 5), (1, 2, 7, 9)),  # pivot in row 3
        ((1, 2, 3), (4, 5, 6), (1, 2, 3)),          # repeated rows
        ((2, 4, 1), (2, 4, 1), (2, 4, 1)),          # all rows equal
        ((2, 1, 1), (4, 1, 3), (6, 2, 5)),          # non-unit pivots only
        ((2, 1, 1), (0, 3, 1), (4, 1, 5)),          # zero lead, pivot 2
        ((1, 2, 3), (0, 4, 5), (2, 1, 1)),          # zero lead, pivot 1
    ]

    @pytest.mark.parametrize("rows", FORCED)
    def test_forced_pivots_match_leibniz(self, rows):
        assert det(rows) == _leibniz(rows)

    def test_forced_pivots_transposed_and_negated(self):
        for rows in self.FORCED:
            cols = tuple(zip(*rows))
            neg_first = (tuple(-x for x in rows[0]),) + tuple(rows[1:])
            assert det(cols) == _leibniz(rows)
            assert det(neg_first) == -_leibniz(rows)

    def test_matches_leibniz_on_seeded_corpus(self):
        rng = random.Random(20261017)
        for _ in range(3000):
            n = rng.randint(0, 6)
            rows = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
            roll = rng.random()
            if n and roll < 0.1:
                for r in rows:
                    r[0] = 0
            elif n > 1 and roll < 0.25:
                rows[rng.randrange(n)] = list(rows[rng.randrange(n)])
            elif n and roll < 0.4:
                # no unit in the leading column
                for r in rows:
                    r[0] = rng.choice((-4, -3, -2, 0, 2, 3, 4))
            assert det(rows) == _leibniz(rows), rows

    def test_large_unimodular(self):
        rng = random.Random(40)
        for n in range(1, 41):
            assert det(random_unimodular(rng, n)) in (1, -1)


@functools.cache
def _signed_permutations(n):
    out = []
    for perm in itertools.permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        out.append((-1 if inversions % 2 else 1, perm))
    return out


def _leibniz(rows):
    """Determinant as the signed sum over permutations (independent oracle)."""
    total = 0
    for term, perm in _signed_permutations(len(rows)):
        for i, j in enumerate(perm):
            term *= rows[i][j]
        total += term
    return total


class TestGenericPoints:
    def test_projective_plane_forms(self):
        forms = [(1, 0), (0, 1), (-1, 0), (-1, 1), (0, -1), (1, -1)]
        assert next(generic_points(forms)) == (1, 2)

    def test_skips_annihilated_candidates(self):
        # (1,2) pairs to zero with (-2,1), so the schedule moves to N=3
        forms = [(1, 0), (0, 1), (-2, 1)]
        assert next(generic_points(forms)) == (1, 3)

    def test_single_form(self):
        assert next(generic_points([(1, -2)])) == (1, 2)

    def test_rank_one(self):
        assert next(generic_points([(3,), (-2,)])) == (1,)
        it = generic_points([(3,)], 1)
        assert [next(it) for _ in range(3)] == [(1,), (2,), (3,)]

    def test_empty_forms_need_rank(self):
        assert next(generic_points([], 2)) == (1, 2)
        with pytest.raises(ValueError):
            next(generic_points([]))

    def test_zero_form_rejected(self):
        with pytest.raises(ValueError):
            next(generic_points([(0, 0)]))

    def test_schedule_is_generic_and_distinct(self):
        rng = random.Random(3)
        for _ in range(20):
            k = rng.randint(1, 4)
            forms = []
            while len(forms) < 6:
                w = tuple(rng.randint(-5, 5) for _ in range(k))
                if any(w):
                    forms.append(w)
            it = generic_points(forms)
            pts = [next(it) for _ in range(3)]
            assert len(set(pts)) == 3
            for p in pts:
                assert all(dot(p, f) != 0 for f in forms)


class TestPolynomials:
    def test_linear_form(self):
        assert linear_form((-2, 1)) == {(1, 0): Fraction(-2), (0, 1): Fraction(1)}
        assert linear_form((0, 7)) == {(0, 1): Fraction(7)}

    def test_elem_sym_examples(self):
        assert elem_sym_all([(1, 0), (0, 1)], 1)[1] == {(1, 0): Fraction(1),
                                                        (0, 1): Fraction(1)}
        assert elem_sym_all([(1, 0), (0, 1)], 2)[2] == {(1, 1): Fraction(1)}
        assert elem_sym_all([(-1, 0), (-1, 1)], 1)[1] == {(1, 0): Fraction(-2),
                                                          (0, 1): Fraction(1)}
        assert elem_sym_all([(1, 0)], 0)[0] == poly_const(2, 1)

    def test_elem_sym_range_errors(self):
        with pytest.raises(ValueError):
            elem_sym_all([(1, 0), (0, 1)], 3)[3]
        with pytest.raises(ValueError):
            elem_sym_all([], 0)[0]

    def test_elem_sym_vieta(self):
        # prod_i (X - f_i) == sum_j (-1)^j e_j X^(n-j), X a fresh variable
        rng = random.Random(5)
        for _ in range(15):
            k = rng.randint(1, 3)
            n = rng.randint(1, 4)
            forms = []
            while len(forms) < n:
                w = tuple(rng.randint(-3, 3) for _ in range(k))
                if any(w):
                    forms.append(w)
            lifted = [f + (0,) for f in forms]
            x = tuple([0] * k + [1])
            prod = poly_const(k + 1, 1)
            for f in lifted:
                prod = poly_mul(prod, poly_add(linear_form(x),
                                               {e: -c for e, c in linear_form(f).items()}))
            rhs = {}
            elems = elem_sym_all(lifted, n, k + 1)
            for j in range(n + 1):
                xpow = poly_const(k + 1, 1)
                for _ in range(n - j):
                    xpow = poly_mul(xpow, linear_form(x))
                term = poly_mul(elems[j], xpow)
                if j % 2:
                    term = {e: -c for e, c in term.items()}
                rhs = poly_add(rhs, term)
            assert prod == rhs

    def test_elem_sym_scalars_match_polys(self):
        rng = random.Random(9)
        for _ in range(20):
            k = rng.randint(1, 3)
            forms = []
            while len(forms) < 4:
                w = tuple(rng.randint(-4, 4) for _ in range(k))
                if any(w):
                    forms.append(w)
            rho = next(generic_points(forms))
            pairings = [dot(rho, f) for f in forms]
            scal = elem_sym_scalars(pairings, 4)
            for j in range(5):
                assert poly_eval(elem_sym_all(forms, j)[j], rho) == scal[j]

    def test_elem_sym_scalars_stay_integer(self):
        levels = elem_sym_scalars([2, -3, 5], 4)
        assert levels == [1, 4, -11, -30, 0]
        assert all(type(v) is int for v in levels)

    def test_division_exact(self):
        p = {(2, 0): Fraction(1), (0, 2): Fraction(-1)}
        assert poly_div_linear(p, (1, -1)) == {(1, 0): Fraction(1),
                                               (0, 1): Fraction(1)}
        assert poly_div_linear({}, (1, -1)) == {}

    def test_division_refuses_nondivisible(self):
        assert poly_div_linear({(1, 0): Fraction(1)}, (0, 1)) is None
        assert poly_div_linear({(1, 1): Fraction(1), (0, 0): Fraction(1)},
                               (1, 0)) is None

    def test_division_round_trip(self):
        rng = random.Random(13)
        for _ in range(40):
            k = rng.randint(1, 3)
            w = tuple(rng.randint(-3, 3) for _ in range(k))
            if not any(w):
                continue
            q = {}
            for _ in range(rng.randint(1, 4)):
                e = tuple(rng.randint(0, 2) for _ in range(k))
                c = Fraction(rng.randint(-5, 5))
                if c:
                    q = poly_add(q, {e: c})
            p = poly_mul(linear_form(w), q)
            assert poly_div_linear(p, w) == q

    def test_total_degree(self):
        assert poly_total_degree({}) == -1
        assert poly_total_degree(poly_const(2, 3)) == 0
        assert poly_total_degree({(2, 1): Fraction(1)}) == 3


def _frac_strategy():
    weight = st.tuples(st.integers(-3, 3), st.integers(-3, 3)).filter(any)
    num = st.dictionaries(
        st.tuples(st.integers(0, 2), st.integers(0, 2)),
        st.fractions(min_value=-5, max_value=5).filter(bool),
        min_size=0, max_size=3)
    return st.builds(lambda n, d: fraction(n, tuple(d)),
                     num, st.lists(weight, min_size=0, max_size=2))


class TestFractions:
    def test_triangle_sum_is_zero(self):
        one = poly_const(2, 1)
        total = frac_sum([
            fraction(one, ((1, 0), (0, 1))),
            fraction(one, ((-1, 0), (-1, 1))),
            fraction(one, ((0, -1), (1, -1))),
        ])
        assert total.is_zero()

    def test_opposite_terms_cancel(self):
        one = poly_const(1, 1)
        f = frac_add(fraction(one, ((2,),)), fraction(one, ((-2,),)))
        assert f.is_zero()

    def test_sign_canonicalization(self):
        one = poly_const(2, 1)
        f = fraction(one, ((-1, 0), (0, -1)))
        assert f.denominator == ((0, 1), (1, 0))
        assert poly_eval(f.numerator, (1, 1)) == 1  # two sign flips cancel

    def test_construction_cancels(self):
        # (t1*t2) / (t1*t2) collapses to 1
        num = poly_mul(linear_form((1, 0)), linear_form((0, 1)))
        f = fraction(num, ((1, 0), (0, 1)))
        assert f.denominator == ()
        assert f.numerator == poly_const(2, 1)

    def test_eval_examples(self):
        one = poly_const(2, 1)
        terms = [
            fraction(one, ((1, 0), (0, 1))),
            fraction(one, ((-1, 0), (-1, 1))),
            fraction(one, ((0, -1), (1, -1))),
        ]
        vals = [frac_eval(t, (1, 3)) for t in terms]
        assert vals == [Fraction(1, 3), Fraction(-1, 2), Fraction(1, 6)]
        assert sum(vals) == 0

    def test_eval_non_generic_point(self):
        f = fraction(poly_const(2, 1), ((1, -1),))
        with pytest.raises(NonGenericPointError) as err:
            frac_eval(f, (2, 2))
        assert err.value.form == (1, -1)

    def test_cross_multiplied_equality(self):
        one = poly_const(2, 1)
        f = fraction(one, ((1, 0),))
        g = fraction(linear_form((0, 1)), ((1, 0), (0, 1)))
        assert frac_equal(f, g)
        assert f == g
        assert not frac_equal(f, fraction(one, ((0, 1),)))

    @settings(max_examples=40, deadline=None)
    @given(_frac_strategy(), _frac_strategy())
    def test_add_commutes(self, f, g):
        assert frac_add(f, g) == frac_add(g, f)

    @settings(max_examples=25, deadline=None)
    @given(_frac_strategy(), _frac_strategy(), _frac_strategy())
    def test_add_associates(self, f, g, h):
        assert frac_add(frac_add(f, g), h) == frac_add(f, frac_add(g, h))

    def test_sum_matches_pointwise_evaluation(self):
        rng = random.Random(17)
        for _ in range(25):
            terms = []
            forms = []
            for _ in range(rng.randint(1, 4)):
                den = []
                for _ in range(rng.randint(0, 2)):
                    w = (rng.randint(-3, 3), rng.randint(-3, 3))
                    if any(w):
                        den.append(w)
                        forms.append(w)
                num = poly_const(2, rng.randint(-4, 4))
                terms.append(fraction(num, tuple(den)))
            total = frac_sum(terms)
            rho = next(generic_points(forms)) if forms else (1, 2)
            expect = sum(frac_eval(t, rho) for t in terms)
            assert frac_eval(total, rho) == expect
