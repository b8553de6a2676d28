"""Exact fixed-point localization of characteristic numbers.

An integral over the underlying space is recovered as a sum over fixed
points: numerator at the point divided by the product of its weight
forms.  Both modes read every class from one table of the weight forms
evaluated at a point t: the common denominator D (each sign-canonical
form to its highest multiplicity at any point) and, per fixed point p,
the multiplier M_p = sign_p * D / den_p and e_0..e_upto of its forms.
Numerators N_p sum to S / D with S = sum of N_p * M_p, and partitions
read in order share the products of their prefixes.

* "expanded": t is the symbolic point, t_i the packed monomial x^(B^i).
  Entries are polynomials with integer coefficients, and the sum is the
  constant c exactly when S = c D coefficient by coefficient.  Makes no
  genericity assumption.
* "generic": t is one generic integer point, entries are plain ints and
  the sum is Fraction(S, D), when the data is certified: the weights at
  each point are pairwise independent and a describing graph exists.  An
  edge labeled w joins a +w and a -w whose other weights agree on
  {w = 0}, so there the residues of a symmetric numerator cancel in
  pairs (Goresky-Kottwitz-MacPherson).  The sum of a Chern class of
  degree at most half_dim, over denominators of degree half_dim, is then
  a polynomial of degree at most 0: a constant.  Other data takes the
  expanded table, so the modes agree or both refuse.

Chern numbers take elementary symmetric polynomials of the weight forms
as numerators; the top one always equals the Euler count.  Two datasets
are compared by the ``values`` of their ``chern_report``.  The symbolic
reference that both modes are tested against, a factored-fraction sum
of per-point numerators, belongs to the test suite, not to this module.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from fractions import Fraction
from math import prod
from typing import Dict, Iterable, Mapping, Sequence, Tuple

from .model import FixedPointData, ValidationReport, _single
from .weights import (
    SparsePoly,
    Weight,
    elem_sym_scalars,
    generic_points,
    poly_total_degree,
    printable,
)

Partition = Tuple[int, ...]


class InconsistencyError(ValueError):
    """Localization produced a value the theory forbids."""


def partitions(m: int) -> Tuple[Partition, ...]:
    """Weakly decreasing integer partitions of m in decreasing lexicographic
    order; partitions(0) is ((),)."""
    if m < 0:
        raise ValueError(f"need m >= 0, got {m}")
    out, part = [], [m] if m else []
    while True:
        out.append(tuple(part))
        ones = part.count(1)  # all at the end
        del part[len(part) - ones:]
        if not part:
            return tuple(out)
        part[-1] -= 1  # the last part drops by one; the rest refills with parts <= it
        q, r = divmod(ones + 1, part[-1])
        part += [part[-1]] * q + [r] * (r > 0)


def _check_numerators(data: FixedPointData,
                      numerators: Mapping[str, SparsePoly]) -> None:
    missing = [p.id for p in data.points if p.id not in numerators]
    if missing:
        raise ValueError(f"numerator missing for points: {missing}")
    if any(len(e) != data.torus_rank for p in data.points for e in numerators[p.id]):
        raise ValueError(f"numerator exponents must have torus_rank {data.torus_rank} entries")


class _Packed(dict):
    """A polynomial with int or Fraction coefficients, none zero, keyed by
    packed monomials: exponents e become the int sum e_i * B**i, and B
    exceeds every total degree that occurs, so multiplying two monomials
    adds their keys.  Numbers act as constants on either side of ``+`` and
    ``*``, so ``sum``, ``prod`` and ``elem_sym_scalars`` take packed
    polynomials as they take ints.  A value is never changed once built."""

    def __add__(self, other):
        if not other:
            return self
        if not isinstance(other, _Packed):
            other = {0: other}
        out = _Packed(self)
        for m, c in other.items():
            c += out.get(m, 0)
            if c:
                out[m] = c
            else:
                del out[m]
        return out

    __radd__ = __add__

    def __mul__(self, other):
        if not isinstance(other, _Packed):
            return _Packed({m: c * other for m, c in self.items()} if other else {})
        p, q = (self, other) if len(self) <= len(other) else (other, self)
        out = _Packed()
        get = out.get
        for m1, c1 in p.items():
            for m2, c2 in q.items():
                m = m1 + m2
                out[m] = get(m, 0) + c1 * c2
        for m in [m for m, c in out.items() if not c]:
            del out[m]
        return out

    __rmul__ = __mul__


class _Table:
    """The localization table of one dataset at the point t_1..t_k.

    ``forms`` lists the factors of D; ``rows`` holds per fixed point its
    sign and its weights as (sign, index into ``forms``); ``one`` is the
    unit of the ring of t."""

    def __init__(self, forms: Sequence[Weight], rows: Sequence, upto: int,
                 point: Sequence, one=1):
        at = [sum(map(operator.mul, rep, point)) for rep in forms]
        self.point = point
        self.denominator = d = prod(at, start=one)
        if not isinstance(d, _Packed):  # D / den_p by exact division
            self.multipliers = [sign * (d // prod(at[i] for _, i in den)) for sign, den in rows]
        else:  # _Packed has no division: the product of the other factors
            mine = [{i for _, i in den} for _, den in rows]
            self.multipliers = [sign * prod((a for i, a in enumerate(at) if i not in m), start=one)
                                for (sign, _), m in zip(rows, mine)]
        self.elems = [elem_sym_scalars([s * at[i] for s, i in den], upto) for _, den in rows]
        # entry i: the last partition read cut to length i and, per point,
        # M_p * e_{lambda_1} * ... * e_{lambda_i}
        self.chain = [((), self.multipliers)]

    def evaluate(self, poly: SparsePoly):
        """A numerator at t; integral coefficients become int."""
        return sum((c.numerator if c.denominator == 1 else c)
                   * prod(x for x, d in zip(self.point, e) for _ in range(d))
                   for e, c in poly.items())

    def ratio(self, s) -> Fraction:
        """S / D, which must be a constant: Fraction(S, D) at an integer
        point, the c with S = c * D coefficient by coefficient otherwise."""
        den = self.denominator
        if not isinstance(den, _Packed):
            return Fraction(s, den)
        if not s:
            return Fraction(0)
        if s.keys() == den.keys():
            m0 = next(iter(den))
            s0, d0 = s[m0], den[m0]
            if all(s[m] * d0 == s0 * d for m, d in den.items()):
                return Fraction(s0, d0)
        raise InconsistencyError(
            "localized sum is not a constant; the numerators do not "
            "come from a global class of integral degree")

    def integral(self, numerators: Iterable) -> Fraction:
        """Sum of N_p / den_p for numerators at t in point order."""
        return self.ratio(sum(map(operator.mul, numerators, self.multipliers)))

    def product(self, partition: Partition) -> Fraction:
        """The class prod e_{lambda_i} of a partition with no part above
        the table's degree ``upto``."""
        chain = self.chain
        while chain[-1][0] != partition[:len(chain) - 1]:
            chain.pop()
        for j in partition[len(chain) - 1:]:
            prefix, terms = chain[-1]
            chain.append((prefix + (j,), [t * e[j] for t, e in zip(terms, self.elems)]))
        return self.ratio(sum(chain[-1][1]))


def _table(data: FixedPointData, upto: int, mode: str) -> _Table:
    """The table of the mode for classes, or numerators, of degree up to
    upto: at one generic point for certified data in generic mode, else at
    the symbolic point.  Weightless data whose numerators are constants
    reads no point, so none is chosen."""
    if mode not in ("generic", "expanded"):
        raise ValueError(f"unknown mode {mode!r}")
    k = data.torus_rank
    index = data._index
    factor: Dict[Tuple[int, int], int] = {}  # (class, copy at a point) -> factor of D
    rows = []
    for row in index.rows:
        sign, den, seen = 1, [], {}
        for s, c in row:
            sign *= s
            seen[c] = copy = seen.get(c, -1) + 1
            den.append((s, factor.setdefault((c, copy), len(factor))))
        rows.append((sign, den))
    forms = [index.reps[c] for c, _ in factor]
    if mode == "generic" and index.certified:
        return _Table(forms, rows, upto, next(generic_points(index.reps, k)) if forms else ())
    base = 1 + len(forms) + max(upto, 0)
    # t is read by the forms and by integrate's numerators of positive degree
    symbolic = [_Packed({base ** i: 1}) for i in range(k)] if forms or upto > 0 else ()
    return _Table(forms, rows, upto, symbolic, _Packed({0: 1}))


def integrate(data: FixedPointData, numerators: Mapping[str, SparsePoly]) -> Fraction:
    """Exact localized integral of per-point numerator classes.  Arbitrary
    numerators carry no certificate, so the point is always symbolic."""
    _check_numerators(data, numerators)
    deg = max((poly_total_degree(q) for q in numerators.values()), default=0)
    table = _table(data, deg, "expanded")
    return table.integral(table.evaluate(numerators[p.id]) for p in data.points)


# ---------------------------------------------------------------------------
# Chern numbers


def _chern(table: _Table, part: Partition) -> int:
    """Integer Chern number of a sorted partition of half_dim."""
    v = table.product(part)
    if v.denominator != 1:
        raise InconsistencyError(
            f"Chern number for {part} is not an integer: {printable(v)}")
    return int(v)


def chern_number(data: FixedPointData, partition: Sequence[int],
                 mode: str = "generic") -> int:
    """Integer Chern number for a partition of the half dimension."""
    part = tuple(sorted(partition, reverse=True))
    if any(x < 1 for x in part) or sum(part) != data.half_dim:
        raise ValueError(
            f"partition {tuple(partition)} does not sum to half_dim {data.half_dim}")
    return _chern(_table(data, data.half_dim, mode), part)


@dataclass(frozen=True)
class ChernReport:
    half_dim: int
    values: Dict[Partition, int]
    failures: Tuple[Tuple[Partition, str], ...] = ()

    @property
    def ok(self) -> bool:
        return not self.failures


def chern_report(data: FixedPointData, mode: str = "generic") -> ChernReport:
    """All Chern numbers of the data, with per-partition failure capture."""
    table = _table(data, data.half_dim, mode)  # once for all partitions
    values: Dict[Partition, int] = {}
    failures = []
    for part in partitions(data.half_dim):
        try:
            values[part] = _chern(table, part)
        except InconsistencyError as exc:
            failures.append((part, str(exc)))
    return ChernReport(data.half_dim, values, tuple(failures))


def check_lower_degree_vanishing(data: FixedPointData,
                                 mode: str = "generic") -> ValidationReport:
    """Localized integrals of all classes of degree below half_dim must vanish."""
    n = data.half_dim
    table = _table(data, max(n - 1, 0), mode)
    witnesses = []
    for m in range(n):
        for part in partitions(m):
            try:
                value = table.product(part)
            except InconsistencyError as exc:
                witnesses.append((part, str(exc)))
                continue
            if value != 0:
                witnesses.append((part, str(printable(value))))
    return _single("lower_degree_vanishing", not witnesses, tuple(witnesses))
