"""Exact arithmetic over integer weight vectors.

A weight is a tuple of ``k`` integers, read as the linear form
``w[0]*t_1 + ... + w[k-1]*t_k`` on a rank-``k`` torus.  On top of weights
this module provides sparse multivariate polynomials with rational
coefficients, and rational functions kept in factored form: a polynomial
numerator over a multiset of linear forms.  Fixed-point localization sums
have exactly that shape, one term per fixed point.

Representation conventions:

* ``SparsePoly`` maps exponent tuples (length ``k``) to non-zero
  ``Fraction`` coefficients.  The zero polynomial is the empty dict.
* ``FactoredFraction`` denominators are stored sign-canonicalized (first
  non-zero entry of each factor positive) with the signs folded into the
  numerator, so cancellation can match factors by value.

Everything here is integer or rational arithmetic; no floats appear.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Iterable, Iterator, Sequence, Tuple

Weight = Tuple[int, ...]
Exponent = Tuple[int, ...]
SparsePoly = Dict[Exponent, Fraction]

Scalar = Fraction | int


class NonGenericPointError(ValueError):
    """An evaluation point annihilates one of the linear forms."""

    def __init__(self, form: Weight, point: Sequence[Scalar]):
        self.form = tuple(form)
        self.point = tuple(point)
        super().__init__(f"form {self.form} vanishes at {self.point}")


# ---------------------------------------------------------------------------
# integer vector helpers


def dot(xi: Sequence[int], w: Sequence[int]) -> int:
    """Integer pairing of two equal-length vectors."""
    if len(xi) != len(w):
        raise ValueError(f"dimension mismatch: {len(xi)} vs {len(w)}")
    return sum(a * b for a, b in zip(xi, w))


def add(u: Weight, v: Weight) -> Weight:
    if len(u) != len(v):
        raise ValueError(f"dimension mismatch: {len(u)} vs {len(v)}")
    return tuple(a + b for a, b in zip(u, v))


def sub(u: Weight, v: Weight) -> Weight:
    if len(u) != len(v):
        raise ValueError(f"dimension mismatch: {len(u)} vs {len(v)}")
    return tuple(a - b for a, b in zip(u, v))


def neg(w: Weight) -> Weight:
    return tuple(-a for a in w)


def pivot_index(w: Weight) -> int:
    """Index of the first non-zero entry; rejects the zero vector."""
    for i, a in enumerate(w):
        if a:
            return i
    raise ValueError("zero weight")


def canonicalize(w: Weight) -> Tuple[int, Weight]:
    """Split ``w`` into (sign, representative with positive leading entry)."""
    s = 1 if w[pivot_index(w)] > 0 else -1
    return s, tuple(s * a for a in w)


def parallel(u: Weight, v: Weight) -> bool:
    """True when all 2x2 minors of the pair vanish."""
    if len(u) != len(v):
        raise ValueError(f"dimension mismatch: {len(u)} vs {len(v)}")
    return all(u[i] * v[j] - u[j] * v[i] == 0
               for i in range(len(u)) for j in range(i + 1, len(u)))


def det(rows: Sequence[Sequence[int]]) -> int:
    """Determinant of a square integer matrix (fraction-free Bareiss)."""
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise ValueError("matrix is not square")
    if n == 0:
        return 1
    a = [list(r) for r in rows]
    sign = 1
    prev = 1
    for i in range(n - 1):
        if a[i][i] == 0:
            for r in range(i + 1, n):
                if a[r][i] != 0:
                    a[i], a[r] = a[r], a[i]
                    sign = -sign
                    break
            else:
                return 0
        for r in range(i + 1, n):
            for c in range(i + 1, n):
                a[r][c] = (a[r][c] * a[i][i] - a[r][i] * a[i][c]) // prev
            a[r][i] = 0
        prev = a[i][i]
    return sign * a[n - 1][n - 1]


def is_unimodular_basis(vectors: Sequence[Weight]) -> bool:
    """True when the vectors form a basis of the integer lattice."""
    n = len(vectors)
    if any(len(v) != n for v in vectors):
        return False
    return det(vectors) in (1, -1)


def apply_matrix(rows: Sequence[Weight], w: Weight) -> Weight:
    """Matrix-vector product, rows acting on a column vector."""
    return tuple(dot(r, w) for r in rows)


def mat_mul(a: Sequence[Weight], b: Sequence[Weight]) -> Tuple[Weight, ...]:
    cols = list(zip(*b))
    return tuple(tuple(dot(r, c) for c in cols) for r in a)


def mat_inverse_unimodular(rows: Sequence[Weight]) -> Tuple[Weight, ...]:
    """Exact inverse of a determinant +-1 integer matrix."""
    n = len(rows)
    d = det(rows)
    if d not in (1, -1):
        raise ValueError(f"matrix with determinant {d} has no integer inverse")

    def minor(i: int, j: int) -> int:
        sub_rows = [[rows[r][c] for c in range(n) if c != j]
                    for r in range(n) if r != i]
        return det(sub_rows)

    # adjugate transpose divided by the determinant
    return tuple(tuple((-1) ** (i + j) * minor(j, i) * d for j in range(n))
                 for i in range(n))


# ---------------------------------------------------------------------------
# generic evaluation points


def generic_points(forms: Iterable[Weight], k: int | None = None) -> Iterator[Weight]:
    """Yield the deterministic schedule of points pairing non-zero with every form.

    For rank >= 2 the candidates are (1, N, N^2, ...) for N = 2, 3, ...;
    for rank 1 they are (1), (2), (3), ....  Only candidates with all
    pairings non-zero are yielded.
    """
    forms = [tuple(f) for f in forms]
    if k is None:
        if not forms:
            raise ValueError("rank required when the form set is empty")
        k = len(forms[0])
    if k < 1:
        raise ValueError("rank must be positive")
    for f in forms:
        if len(f) != k:
            raise ValueError(f"dimension mismatch: {len(f)} vs {k}")
        if not any(f):
            raise ValueError("zero form admits no generic point")
    n_cand = 2
    while True:
        xi = (n_cand - 1,) if k == 1 else tuple(n_cand ** i for i in range(k))
        if all(dot(xi, f) != 0 for f in forms):
            yield xi
        n_cand += 1


def generic_point(forms: Iterable[Weight], k: int | None = None) -> Weight:
    """First point of the deterministic schedule avoiding all the forms."""
    return next(generic_points(forms, k))


# ---------------------------------------------------------------------------
# sparse polynomials


def poly_const(k: int, c: Scalar) -> SparsePoly:
    c = Fraction(c)
    return {} if c == 0 else {(0,) * k: c}


def linear_form(w: Weight) -> SparsePoly:
    """The weight as a degree-one polynomial."""
    k = len(w)
    p: SparsePoly = {}
    for i, a in enumerate(w):
        if a:
            e = tuple(1 if j == i else 0 for j in range(k))
            p[e] = Fraction(a)
    return p


def poly_add(p: SparsePoly, q: SparsePoly) -> SparsePoly:
    out = dict(p)
    for e, c in q.items():
        s = out.get(e, 0) + c
        if s:
            out[e] = s
        else:
            out.pop(e, None)
    return out


def poly_neg(p: SparsePoly) -> SparsePoly:
    return {e: -c for e, c in p.items()}


def poly_mul(p: SparsePoly, q: SparsePoly) -> SparsePoly:
    out: SparsePoly = {}
    for e1, c1 in p.items():
        for e2, c2 in q.items():
            e = tuple(a + b for a, b in zip(e1, e2))
            s = out.get(e, 0) + c1 * c2
            if s:
                out[e] = s
            else:
                out.pop(e, None)
    return out


def poly_eval(p: SparsePoly, point: Sequence[Scalar]) -> Fraction:
    total = Fraction(0)
    for e, c in p.items():
        term = c
        for x, d in zip(point, e):
            if d:
                term = term * Fraction(x) ** d
        total += term
    return total


def poly_total_degree(p: SparsePoly) -> int:
    """Total degree; the zero polynomial reports -1."""
    return max((sum(e) for e in p), default=-1)


def poly_is_const(p: SparsePoly) -> bool:
    return all(not any(e) for e in p)


def poly_const_value(p: SparsePoly) -> Fraction:
    if not p:
        return Fraction(0)
    if not poly_is_const(p):
        raise ValueError("polynomial is not constant")
    return next(iter(p.values()))


def poly_div_linear(p: SparsePoly, w: Weight) -> SparsePoly | None:
    """Exact quotient of ``p`` by the linear form of ``w``, or None.

    Single-divisor division in lexicographic monomial order.  The leading
    monomial of the divisor is the variable at the first non-zero entry of
    ``w``, so a non-zero remainder shows up as a leading monomial of the
    running remainder with no power of that variable; at that moment the
    division cannot be exact and we bail out.
    """
    if not p:
        return {}
    piv = pivot_index(w)
    lead = Fraction(w[piv])
    tail = [(i, a) for i, a in enumerate(w) if a and i != piv]
    q: SparsePoly = {}
    r = dict(p)
    while r:
        m = max(r)
        c = r.pop(m)
        if m[piv] == 0:
            return None
        qm = tuple(a - 1 if i == piv else a for i, a in enumerate(m))
        qc = c / lead
        q[qm] = q.get(qm, Fraction(0)) + qc
        for i, a in tail:
            e = tuple(v + 1 if j == i else v for j, v in enumerate(qm))
            s = r.get(e, 0) - qc * a
            if s:
                r[e] = s
            else:
                r.pop(e, None)
    return q


def forms_product(forms: Iterable[Weight], k: int) -> SparsePoly:
    out = poly_const(k, 1)
    for f in forms:
        out = poly_mul(out, linear_form(f))
    return out


def elem_sym(j: int, forms: Sequence[Weight], k: int | None = None) -> SparsePoly:
    """Elementary symmetric polynomial of degree ``j`` in the given forms."""
    return elem_sym_all(forms, j, k)[j]


def elem_sym_all(forms: Sequence[Weight], upto: int,
                 k: int | None = None) -> list[SparsePoly]:
    """All elementary symmetric polynomials e_0..e_upto of the forms."""
    forms = [tuple(f) for f in forms]
    if k is None:
        if not forms:
            raise ValueError("rank required when the form list is empty")
        k = len(forms[0])
    if not 0 <= upto <= len(forms):
        raise ValueError(f"symmetric degree {upto} out of range 0..{len(forms)}")
    levels: list[SparsePoly] = [poly_const(k, 1)] + [{} for _ in range(upto)]
    for f in forms:
        lf = linear_form(f)
        for d in range(upto, 0, -1):
            levels[d] = poly_add(levels[d], poly_mul(lf, levels[d - 1]))
    return levels


def elem_sym_scalars(values: Sequence[Scalar], upto: int) -> list[Scalar]:
    """e_0..e_upto of a list of scalars; integer values give ``int`` results."""
    levels: list[Scalar] = [1] + [0] * upto
    for v in values:
        for d in range(upto, 0, -1):
            levels[d] += v * levels[d - 1]
    return levels


# ---------------------------------------------------------------------------
# factored rational functions


@dataclass(frozen=True, eq=False)
class FactoredFraction:
    """Polynomial numerator over a multiset of sign-canonical linear forms."""

    numerator: SparsePoly
    denominator: Tuple[Weight, ...]

    def is_zero(self) -> bool:
        return not self.numerator

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FactoredFraction):
            return NotImplemented
        return frac_equal(self, other)

    __hash__ = None  # type: ignore[assignment]


def fraction(numerator: SparsePoly, forms: Sequence[Weight]) -> FactoredFraction:
    """Build a fraction: canonicalize factor signs, then cancel what divides."""
    num = dict(numerator)
    den: list[Weight] = []
    flip = 1
    for f in forms:
        s, rep = canonicalize(tuple(f))
        flip *= s
        den.append(rep)
    if flip < 0:
        num = poly_neg(num)
    num, den_t = _cancel(num, den)
    return FactoredFraction(num, den_t)


def _cancel(num: SparsePoly, den: list[Weight]) -> tuple[SparsePoly, Tuple[Weight, ...]]:
    # one pass suffices: a factor that does not divide num cannot divide num / v
    if not num:
        return num, ()
    kept = []
    for w in den:
        q = poly_div_linear(num, w)
        if q is None:
            kept.append(w)
        else:
            num = q
    return num, tuple(sorted(kept))


def frac_zero() -> FactoredFraction:
    return FactoredFraction({}, ())


def frac_add(f: FactoredFraction, g: FactoredFraction) -> FactoredFraction:
    """Sum over the least common denominator, then cancel linear factors."""
    if f.is_zero():
        return g
    if g.is_zero():
        return f
    cf = Counter(f.denominator)
    cg = Counter(g.denominator)
    lcm = cf | cg
    k = len(next(iter(f.numerator)))
    mul_f = forms_product((lcm - cf).elements(), k)
    mul_g = forms_product((lcm - cg).elements(), k)
    num = poly_add(poly_mul(f.numerator, mul_f), poly_mul(g.numerator, mul_g))
    num, den = _cancel(num, list(lcm.elements()))
    return FactoredFraction(num, den)


def frac_sum(terms: Iterable[FactoredFraction]) -> FactoredFraction:
    total = frac_zero()
    for t in terms:
        total = frac_add(total, t)
    return total


def frac_equal(f: FactoredFraction, g: FactoredFraction) -> bool:
    """Equality by cross-multiplication, independent of representation."""
    if f.is_zero() or g.is_zero():
        return f.is_zero() and g.is_zero()
    k = len(next(iter(f.numerator)))
    lhs = poly_mul(f.numerator, forms_product(g.denominator, k))
    rhs = poly_mul(g.numerator, forms_product(f.denominator, k))
    return lhs == rhs


def frac_eval(f: FactoredFraction, point: Sequence[Scalar]) -> Fraction:
    """Evaluate at a point; every denominator factor must stay non-zero."""
    den = Fraction(1)
    for w in f.denominator:
        v = sum(Fraction(x) * a for x, a in zip(point, w))
        if v == 0:
            raise NonGenericPointError(w, point)
        den *= v
    return poly_eval(f.numerator, point) / den
