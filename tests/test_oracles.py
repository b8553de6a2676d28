"""Oracles from outside the package: equivariant blow-ups of CP^n and
products of them.

Blowing up a fixed point of a torus manifold is local (``conftest.blow_up``),
so after b blow-ups of CP^n every invariant has a closed form in n and b,
whatever the disguise and whichever points were blown up:

* chi_y = (1, 1 + b, ..., 1 + b, 1), so euler = c_n = n + 1 + b(n - 1);
* c_lambda = prod C(n + 1, lambda_i) + b * DELTA[n][lambda], in particular
  c1^n = (n + 1)^n - b (n - 1)^n.

The paper's theorems become properties of the family: the data validates,
its built graph is simple, chi_y is positive, and Petrie refuses it since
it has more than n + 1 points.  Hirzebruch-Riemann-Roch and the signature
theorem tie ``genus`` (which counts) to ``localization`` (which sums).

Products (``conftest.product``) raise the rank.  chi_y multiplies as a
polynomial, and c(A x B) = c(A) c(B), so a Chern number of the product is
a sum of products of the factors' closed forms; (CP^1)^k has
c1^k = 2^k k!.  A product of torus manifolds is one, so it validates and
its built graph is simple, and Petrie refuses it for its point count.
"""

import random
from fractions import Fraction
from itertools import product as cartesian
from math import comb, factorial, prod

import pytest

from gkmkit import (
    build_multigraph,
    check_positivity,
    check_simple,
    chern_report,
    chi_y,
    cpn,
    petrie_verify,
    s6,
    s6_blowup,
    serialize,
    validate_all,
)

from conftest import blow_up, product, random_unimodular

# change of each Chern number per blow-up, by partition
DELTA = {
    2: {(2,): 1, (1, 1): -1},
    3: {(3,): 2, (2, 1): 0, (1, 1, 1): -8},
    4: {(4,): 3, (3, 1): 6, (2, 2): -4, (2, 1, 1): -18, (1, 1, 1, 1): -81},
    5: {(5,): 4, (4, 1): 20, (3, 2): 0, (3, 1, 1): 0, (2, 2, 1): -100,
        (2, 1, 1, 1): -320, (1, 1, 1, 1, 1): -1024},
}
COUNT = 300


def family(seed=20261018, count=COUNT):
    """Seeded (n, b, space): disguised CP^n, n = 2..5, blown up b = 1..5
    times, each time at a random current point."""
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(2, 5)
        space = cpn(n, random_unimodular(rng, n))
        b = rng.randint(1, 5)
        for _ in range(b):
            space = blow_up(space, rng.choice(space.data.ids()))
        yield n, b, space


def hirzebruch(n, c):
    """(todd, signature or None) from the Chern numbers c, by partition."""
    if n == 1:
        return Fraction(c[(1,)], 2), None
    if n == 2:
        return (Fraction(c[(1, 1)] + c[(2,)], 12),
                Fraction(c[(1, 1)] - 2 * c[(2,)], 3))
    if n == 3:
        return Fraction(c[(2, 1)], 24), None
    todd = Fraction(-c[(1, 1, 1, 1)] + 4 * c[(2, 1, 1)] + 3 * c[(2, 2)]
                    + c[(3, 1)] - c[(4,)], 720)
    # p1 = c1^2 - 2 c2 and p2 = c2^2 - 2 c1 c3 + 2 c4; signature = (7 p2 - p1^2) / 45
    p1_sq = c[(1, 1, 1, 1)] - 4 * c[(2, 1, 1)] + 4 * c[(2, 2)]
    p2 = c[(2, 2)] - 2 * c[(3, 1)] + 2 * c[(4,)]
    return todd, Fraction(7 * p2 - p1_sq, 45)


class TestBlowUpFamily:
    @pytest.fixture(scope="class")
    def spaces(self):
        return list(family())

    def test_family_is_large_and_varied(self, spaces):
        assert len(spaces) >= 300
        assert {n for n, _, _ in spaces} == {2, 3, 4, 5}
        assert {b for _, b, _ in spaces} == {1, 2, 3, 4, 5}

    def test_chi_y(self, spaces):
        for n, b, space in spaces:
            assert chi_y(space.data).coeffs == (1,) + (1 + b,) * (n - 1) + (1,)
            assert check_positivity(space.data).passed

    def test_chern_numbers(self, spaces):
        for n, b, space in spaces:
            values = chern_report(space.data).values
            assert values == {part: prod(comb(n + 1, j) for j in part) + b * delta
                              for part, delta in DELTA[n].items()}
            assert values[(n,)] == n + 1 + b * (n - 1)
            assert values[(1,) * n] == (n + 1) ** n - b * (n - 1) ** n

    def test_theorems(self, spaces):
        for n, _, space in spaces:
            assert validate_all(space.data).passed
            assert validate_all(space.data, space.graph).passed
            assert check_simple(build_multigraph(space.data)).passed
            report = petrie_verify(space.data, space.graph)
            assert report.verdict == "precondition-failed"
            assert report.witness == (f"expected {n + 1} fixed points, "
                                      f"found {len(space.data.points)}")

    def test_expanded_equals_generic(self, spaces):
        for n, _, space in spaces:
            if n <= 3:
                assert (chern_report(space.data, "expanded")
                        == chern_report(space.data, "generic"))

    def test_hirzebruch_identities(self, spaces):
        rng = random.Random(7)
        base = [(n, cpn(n, random_unimodular(rng, n))) for n in (1, 2, 3, 4)]
        for n, space in base + [(n, s) for n, _, s in spaces if n <= 4]:
            genus = chi_y(space.data)
            todd, signature = hirzebruch(n, chern_report(space.data).values)
            assert todd == genus.todd
            if signature is not None:
                assert signature == genus.signature


@pytest.mark.parametrize("a, b", [((1, 0), (0, 1)), ((2, 1), (1, 3)),
                                  ((1, 2), (3, 5)), ((-1, 4), (2, -3))])
def test_s6_blowup_is_s6_blown_up(a, b):
    entry = s6_blowup(a, b)
    assert (serialize(*blow_up(s6(a, b), "p", ids=("p2", "p1", "p3")))
            == serialize(entry.data, entry.graph))


def decreasing_partitions(m, top=None):
    """Partitions of m into parts of at most top, in decreasing
    lexicographic order, the order ``chern_report`` reports them in."""
    top = m if top is None else top
    if m == 0:
        return [()]
    return [(j,) + rest for j in range(min(m, top), 0, -1)
            for rest in decreasing_partitions(m - j, j)]


def closed_forms(n, b):
    """(chi_y, Chern numbers by partition) of CP^n blown up b times."""
    chern = {part: prod(comb(n + 1, j) for j in part) + (b * DELTA[n][part] if b else 0)
             for part in decreasing_partitions(n)}
    return (1,) + (1 + b,) * (n - 1) + (1,), chern


def product_forms(forms_a, forms_b, a, b):
    """(chi_y, Chern numbers) of a product from its factors' closed forms:
    the chi_y coefficients convolve, and with c_k = sum_{i+j=k} c_i(A) c_j(B)
    a part lambda_i splits as s_i + (lambda_i - s_i) with sum s_i = dim A."""
    (chi_a, ca), (chi_b, cb) = forms_a, forms_b
    chi = [0] * (a + b + 1)
    for i, x in enumerate(chi_a):
        for j, y in enumerate(chi_b):
            chi[i + j] += x * y
    chern = {}
    for lam in decreasing_partitions(a + b):
        chern[lam] = 0
        for s in cartesian(*(range(part + 1) for part in lam)):
            if sum(s) == a:
                mu = tuple(sorted((x for x in s if x), reverse=True))
                nu = tuple(sorted((p - x for p, x in zip(lam, s) if p - x), reverse=True))
                chern[lam] += ca[mu] * cb[nu]
    return tuple(chi), chern


def factor(rng, n):
    """(closed forms, space): disguised CP^n blown up 0..2 times (never
    for n = 1, where a blow-up changes nothing)."""
    space = cpn(n, random_unimodular(rng, n))
    b = rng.randint(0, 2) if n > 1 else 0
    for _ in range(b):
        space = blow_up(space, rng.choice(space.data.ids()))
    return closed_forms(n, b), space


def products(seed=20261019, count=100):
    """Seeded (half_dim, closed forms, space): products of two factors of
    dimension 1..4 (rank up to 8), then (CP^1)^k for k = 2..8."""
    rng = random.Random(seed)
    for _ in range(count):
        a, b = rng.randint(1, 4), rng.randint(1, 4)
        (fa, sa), (fb, sb) = factor(rng, a), factor(rng, b)
        yield a + b, product_forms(fa, fb, a, b), product(sa, sb)
    forms, space = factor(rng, 1)
    for k in range(2, 9):
        forms_1, line = factor(rng, 1)
        forms, space = product_forms(forms, forms_1, k - 1, 1), product(space, line)
        yield k, forms, space


class TestProducts:
    @pytest.fixture(scope="class")
    def spaces(self):
        return list(products())

    def test_family_is_large_and_varied(self, spaces):
        assert len(spaces) >= 100
        assert {n for n, _, _ in spaces} == set(range(2, 9))
        assert max(len(s.data.points) for _, _, s in spaces) >= 100

    def test_chi_y_multiplies(self, spaces):
        for _, (chi, _), space in spaces:
            assert chi_y(space.data).coeffs == chi
            assert check_positivity(space.data).passed

    def test_chern_numbers_multiply(self, spaces):
        for n, (_, chern), space in spaces:
            report = chern_report(space.data)
            assert report.ok and list(report.values.items()) == list(chern.items())
            assert report.values[(n,)] == len(space.data.points)

    def test_cp1_power(self, spaces):
        for k, (_, _, space) in enumerate(spaces[-7:], 2):  # (CP^1)^2..8
            assert len(space.data.points) == 2 ** k
            assert chern_report(space.data).values[(1,) * k] == 2 ** k * factorial(k)

    def test_theorems(self, spaces):
        for n, _, space in spaces:
            assert validate_all(space.data).passed
            assert validate_all(space.data, space.graph).passed
            assert check_simple(build_multigraph(space.data)).passed
            report = petrie_verify(space.data, space.graph)
            assert report.verdict == "precondition-failed"
            assert report.witness == (f"expected {n + 1} fixed points, "
                                      f"found {len(space.data.points)}")
