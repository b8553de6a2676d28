"""Exact arithmetic over integer weight vectors.

A weight is a tuple of ``k`` integers, read as the linear form
``w[0]*t_1 + ... + w[k-1]*t_k`` on a rank-``k`` torus.  On top of weights
this module provides sparse multivariate polynomials with rational
coefficients, elementary symmetric functions of weights, and rational
functions kept in factored form: a polynomial numerator over a multiset
of linear forms.  Fixed-point localization sums have exactly that shape,
one term per fixed point.

Localization reads a table of integers or packed polynomials instead.
``FactoredFraction``, ``frac_add``, ``poly_div_linear``, ``poly_mul`` and
``elem_sym_all`` (with what they call) stay here because the benchmark's
per-layer tracer wraps them; the rest of the symbolic oracle lives with
the tests.

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
from itertools import chain
from operator import mul, neg as _neg
from typing import Dict, Iterable, Iterator, Sequence, Tuple

Weight = Tuple[int, ...]
Exponent = Tuple[int, ...]
SparsePoly = Dict[Exponent, Fraction]

Scalar = Fraction | int


# ---------------------------------------------------------------------------
# integer vector helpers


def dot(xi: Sequence[int], w: Sequence[int]) -> int:
    """Integer pairing of two equal-length vectors."""
    if len(xi) != len(w):
        raise ValueError(f"dimension mismatch: {len(xi)} vs {len(w)}")
    return sum(a * b for a, b in zip(xi, w))


def sub(u: Weight, v: Weight) -> Weight:
    if len(u) != len(v):
        raise ValueError(f"dimension mismatch: {len(u)} vs {len(v)}")
    return tuple(a - b for a, b in zip(u, v))


def neg(w: Weight) -> Weight:
    return tuple(map(_neg, w))


def pivot_index(w: Weight) -> int:
    """Index of the first non-zero entry; rejects the zero vector."""
    for i, a in enumerate(w):
        if a:
            return i
    raise ValueError("zero weight")


def canonicalize(w: Weight) -> Tuple[int, Weight]:
    """Split ``w`` into (sign, representative with positive leading entry)."""
    w = tuple(w)
    zero = (0,) * len(w)  # tuples compare at their first differing entry
    if w > zero:
        return 1, w
    if w < zero:
        return -1, tuple(map(_neg, w))
    raise ValueError("zero weight")


def parallel(u: Weight, v: Weight) -> bool:
    """True when all 2x2 minors of the pair vanish."""
    if len(u) != len(v):
        raise ValueError(f"dimension mismatch: {len(u)} vs {len(v)}")
    return all(u[i] * v[j] - u[j] * v[i] == 0
               for i in range(len(u)) for j in range(i + 1, len(u)))


def det(rows: Sequence[Sequence[int]]) -> int:
    """Determinant of a square integer matrix (fraction-free Bareiss).

    Each step eliminates the leading column of the shrinking trailing
    block.  The pivot is the remaining row with the least non-zero
    |leading entry|, and the first +-1 ends the search.  The pivot row is
    swapped to the top and negated if needed so that the pivot is
    positive; ``sign`` records both.  Every entry of every block is then
    a minor of the matrix with its rows permuted and some negated, so
    each division by the previous pivot is exact (Bareiss 1968) and, by
    Hadamard's bound, no entry exceeds the product of the Euclidean
    norms of the rows: the cost stays polynomial.  With both pivots 1 a
    step is ``x - f*y``; a row whose leading entry is 0 is only rescaled
    by pivot / previous pivot.
    """
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise ValueError("matrix is not square")
    if n == 0:
        return 1
    block = list(rows)
    sign = 1
    prev = 1
    while len(block) > 1:
        at, least = -1, 0
        for i, row in enumerate(block):
            lead = abs(row[0])
            if lead and (at < 0 or lead < least):
                at, least = i, lead
                if lead == 1:
                    break
        if at < 0:
            return 0
        top = block[at]
        if at:
            block[at] = block[0]
            sign = -sign
        if top[0] < 0:
            top = [-y for y in top]
            sign = -sign
        pivot, tail = top[0], top[1:]
        unit = pivot == prev == 1
        nxt = []
        for row in block[1:]:
            f = row[0]
            if not f:
                nxt.append(row[1:] if pivot == prev
                           else [pivot * x // prev for x in row[1:]])
            elif unit:
                nxt.append([x - f * y for x, y in zip(row[1:], tail)])
            else:
                nxt.append([(pivot * x - f * y) // prev
                            for x, y in zip(row[1:], tail)])
        block = nxt
        prev = pivot
    return sign * block[0][0]


def is_unimodular_basis(vectors: Sequence[Weight]) -> bool:
    """True when the vectors form a basis of the integer lattice."""
    n = len(vectors)
    if any(len(v) != n for v in vectors):
        return False
    return det(vectors) in (1, -1)


def apply_matrix(rows: Sequence[Weight], w: Weight) -> Weight:
    """Matrix-vector product, rows acting on a column vector."""
    return tuple(dot(r, w) for r in rows)


class _Digits(str):
    __repr__ = str.__str__  # bare inside a tuple too


def printable(x):
    """``x`` safe for ``str`` and ``json``: an int past the interpreter's
    limit on decimal digits (4300 by default) becomes ``<N-digit integer>``,
    in a Fraction per part and in a tuple or list per item."""
    if type(x) in (tuple, list):
        return type(x)(map(printable, x))
    if isinstance(x, Fraction):
        num, den = printable((x.numerator, x.denominator))
        return x if type(num) is type(den) is int else _Digits(
            num if den == 1 else f"{num}/{den}")
    if type(x) is int and x.bit_length() > 2000:  # no limit is below 640 digits
        try:
            str(x)
        except ValueError:
            d = int((x.bit_length() - 1) * 0.30102999566398120) + 1
            return _Digits(f"{'-' * (x < 0)}<{d + (abs(x) >= 10 ** d)}-digit integer>")
    return x


# ---------------------------------------------------------------------------
# generic evaluation points


def generic_points(forms: Iterable[Weight], k: int | None = None) -> Iterator[Weight]:
    """Yield the deterministic schedule of points pairing non-zero with every form.

    For rank >= 2 the candidates are (1, N, N^2, ...) for N = 2, ..., k + 2
    and then for N from max(k + 3, 2 + M) on, M the largest |entry| of the
    forms; for rank 1 they are (1), (2), (3), ....  Only candidates with
    all pairings non-zero are yielded.  A form pairs with (1, N, ...) to a
    number whose signed base-N digits are its entries; once N > 1 + M the
    top non-zero digit outweighs the rest (Cauchy's bound), so the first
    candidate past the jump passes and at most k + 2 are tried.
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
        if n_cand == k + 3 and k > 1:
            n_cand = max(n_cand, 2 + max(map(abs, chain.from_iterable(forms)), default=0))
        xi = (n_cand - 1,) if k == 1 else tuple(n_cand ** i for i in range(k))
        if all(sum(map(mul, xi, f)) for f in forms):
            yield xi
        n_cand += 1


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


def poly_total_degree(p: SparsePoly) -> int:
    """Total degree; the zero polynomial reports -1."""
    return max((sum(e) for e in p), default=-1)


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


def elem_sym_scalars(values: Sequence, upto: int) -> list:
    """e_0..e_upto of a list of ring elements; e_0 is the int 1.

    Any values with ``+`` and ``*`` that take ints on either side will
    do: integers give ``int`` results, and a localization table passes
    its weight forms evaluated at a generic point or at the symbolic one.
    """
    levels: list = [1] + [0] * upto
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


def frac_equal(f: FactoredFraction, g: FactoredFraction) -> bool:
    """Equality by cross-multiplication, independent of representation."""
    if f.is_zero() or g.is_zero():
        return f.is_zero() and g.is_zero()
    k = len(next(iter(f.numerator)))
    lhs = poly_mul(f.numerator, forms_product(g.denominator, k))
    rhs = poly_mul(g.numerator, forms_product(f.denominator, k))
    return lhs == rhs
