"""Exact fixed-point localization of characteristic numbers.

An integral over the underlying space is recovered as a sum over fixed
points: numerator at the point divided by the product of its weight
forms.  Two evaluation strategies are provided and must agree:

* "generic": evaluate every term at a deterministic generic integer point
  and cross-check the total at a second one.  Sound for numerators of
  total degree at most the half dimension, where the sum is a constant
  rational function; higher degrees are rejected.  Each call builds one
  integer table per point (``_Kernel``) and reads every class it needs
  from it: a class prod e_{lambda_i} is one integer sum over fixed points.
* "expanded": exact over one common denominator D, the lcm of the
  sign-canonical weight products.  Each call builds one table
  (``_Expanded``) holding D and, per point, its multiplier D / den_p and
  the symbolic e_0..e_upto of its weight forms, all with integer
  coefficients; the sum of a class is S / D with S a single polynomial,
  and it is a constant c exactly when S = c D coefficient by
  coefficient.  Makes no genericity assumption and doubles as the oracle
  for the generic mode.

Chern numbers take elementary symmetric polynomials of the weight forms
as numerators; the top one always equals the Euler count.
"""

from __future__ import annotations

import operator
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from math import lcm, prod
from typing import Callable, Dict, Iterable, Mapping, Sequence, Tuple

from .model import FixedPointData, ValidationReport, _single
from .weights import (
    SparsePoly,
    Weight,
    canonicalize,
    dot,
    elem_sym_all,
    elem_sym_scalars,
    frac_sum,
    fraction,
    generic_points,
    poly_const,
    poly_eval,
    poly_mul,
    poly_total_degree,
)

Partition = Tuple[int, ...]


class InconsistencyError(ValueError):
    """Localization produced a value the theory forbids."""


def partitions(m: int) -> Tuple[Partition, ...]:
    """Weakly decreasing integer partitions of m; partitions(0) is ((),)."""
    if m < 0:
        raise ValueError(f"need m >= 0, got {m}")

    def gen(rest: int, cap: int) -> Iterable[Partition]:
        if rest == 0:
            yield ()
            return
        for first in range(min(rest, cap), 0, -1):
            for tail in gen(rest - first, first):
                yield (first,) + tail

    return tuple(gen(m, m))


def _check_numerators(data: FixedPointData,
                      numerators: Mapping[str, SparsePoly]) -> None:
    missing = [p.id for p in data.points if p.id not in numerators]
    if missing:
        raise ValueError(f"numerator missing for points: {missing}")


def localize_sum(data: FixedPointData,
                 numerators: Mapping[str, SparsePoly]):
    """Full factored-fraction sum of numerator/product-of-weights terms."""
    _check_numerators(data, numerators)
    return frac_sum(
        fraction(numerators[p.id], p.weights)
        for p in sorted(data.points, key=lambda p: p.id))


class _Kernel:
    """Integer localization tables of one dataset at its two generic points.

    Per point rho and fixed point p: the id of p, e_0..e_upto of the
    pairings <rho, w> (plain ints) and the multiplier L / prod <rho, w>,
    where L, the common denominator, is the lcm of those products.
    Evaluation at rho commutes with products and with e_j, so a class read
    from the table equals integrate() on its symbolic numerators.
    """

    def __init__(self, data: FixedPointData, upto: int):
        schedule = generic_points(set(data.all_weights()), data.torus_rank)
        self.tables = []
        for rho in (next(schedule), next(schedule)):
            pairings = [[dot(rho, w) for w in p.weights] for p in data.points]
            common = lcm(*map(prod, pairings))
            rows = [(p.id, elem_sym_scalars(ps, upto), common // prod(ps))
                    for p, ps in zip(data.points, pairings)]
            self.tables.append((rho, rows, common))

    def value(self, what: str, numerator: Callable[..., Fraction | int]) -> Fraction:
        """Sum of numerator(rho, id, e) over the points, equal at both rho."""
        v1, v2 = (Fraction(sum(numerator(rho, pid, e) * mult
                               for pid, e, mult in rows), common)
                  for rho, rows, common in self.tables)
        if v1 != v2:
            raise InconsistencyError(
                f"{what} differs between generic points: {v1} vs {v2}")
        return v1

    def product(self, what: str, partition: Partition) -> Fraction:
        """The class prod e_{lambda_i} of a partition."""
        return self.value(what, lambda rho, pid, e: prod(e[j] for j in partition))


# A packed polynomial maps the monomial with exponents e to the int
# sum e_i * B**i; B exceeds every total degree that occurs, so no exponent
# carries and multiplying two monomials adds their keys.
Packed = Dict[int, Fraction | int]


def _mul_into(out: Packed, p: Packed, q: Packed) -> Packed:
    """Add p * q into out; zero coefficients may stay behind."""
    if len(p) > len(q):
        p, q = q, p
    get = out.get
    for m1, c1 in p.items():
        for m2, c2 in q.items():
            m = m1 + m2
            out[m] = get(m, 0) + c1 * c2
    return out


def _nonzero(p: Packed) -> Packed:
    return {m: c for m, c in p.items() if c}


class _Expanded:
    """Exact localization table of one dataset over one common denominator.

    D is the lcm of the sign-canonical denominators: each canonical form
    to its highest multiplicity at any point.  Per point p the table holds
    the multiplier M_p = sign_p * D / den_p and e_0..e_upto of its weight
    forms, packed, with integer coefficients.  The sum of N_p / den_p is
    then S / D with S = sum of N_p * M_p, and it is a constant c exactly
    when S = c * D coefficient by coefficient.  Numerators may reach total
    degree ``degree`` (default upto).
    """

    def __init__(self, data: FixedPointData, upto: int, degree: int | None = None):
        dens = [[canonicalize(w) for w in p.weights] for p in data.points]
        signs = [prod(s for s, _ in den) for den in dens]
        counts = [Counter(rep for _, rep in den) for den in dens]
        top = reduce(operator.or_, counts, Counter())
        base = 1 + sum(top.values()) + max(upto if degree is None else degree, 0)
        self.powers = [base ** i for i in range(data.torus_rank)]

        def product(forms: Iterable[Weight], start: Packed) -> Packed:
            for f in forms:
                start = _nonzero(_mul_into({}, start, self.pack_form(f)))
            return start

        self.denominator = product(top.elements(), {0: 1})
        self.multipliers = [product((top - count).elements(), {0: sign})
                            for sign, count in zip(signs, counts)]
        self.elems = []
        for p in data.points:
            levels: list[Packed] = [{0: 1}] + [{} for _ in range(upto)]
            for i, w in enumerate(p.weights):
                form = self.pack_form(w)
                for d in range(min(upto, i + 1), 0, -1):
                    levels[d] = _nonzero(
                        _mul_into(dict(levels[d]), levels[d - 1], form))
            self.elems.append(levels)
        # per point, M_p * e_{lambda_1} * ... * e_{lambda_i} for each prefix
        # of the last partition read; consecutive partitions share prefixes
        self.chain = [((), self.multipliers)]

    def pack_form(self, w: Weight) -> Packed:
        return {v: a for v, a in zip(self.powers, w) if a}

    def pack(self, poly: SparsePoly) -> Packed:
        """A SparsePoly in packed form; integral coefficients become int."""
        return {sum(map(operator.mul, e, self.powers)):
                c.numerator if c.denominator == 1 else c
                for e, c in poly.items()}

    def quotient(self, s: Packed) -> Fraction:
        """S / D, which must be a constant."""
        s = _nonzero(s)
        if not s:
            return Fraction(0)
        den = self.denominator
        if s.keys() == den.keys():
            m0 = next(iter(den))
            s0, d0 = s[m0], den[m0]
            if all(s[m] * d0 == s0 * d for m, d in den.items()):
                return Fraction(s0, d0)
        raise InconsistencyError(
            "localized sum is not a constant; the numerators do not "
            "come from a global class of integral degree")

    def integral(self, numerators: Iterable[Packed]) -> Fraction:
        """Sum of N_p / den_p for packed numerators in point order."""
        s: Packed = {}
        for num, mult in zip(numerators, self.multipliers):
            _mul_into(s, num, mult)
        return self.quotient(s)

    def product(self, what: str, partition: Partition) -> Fraction:
        """The class prod e_{lambda_i} of a partition.

        ``what`` is unused: a refusal has one message for every class.
        """
        chain = self.chain
        while partition[:len(chain[-1][0])] != chain[-1][0]:
            chain.pop()
        for j in partition[len(chain[-1][0]):]:
            prefix, polys = chain[-1]
            chain.append((prefix + (j,), [_nonzero(_mul_into({}, poly, e[j]))
                                          for poly, e in zip(polys, self.elems)]))
        s: Packed = {}
        for poly in chain[-1][1]:
            for m, c in poly.items():
                s[m] = s.get(m, 0) + c
        return self.quotient(s)


def integrate(data: FixedPointData, numerators: Mapping[str, SparsePoly],
              mode: str = "generic") -> Fraction:
    """Localized integral of per-point numerator classes."""
    _check_numerators(data, numerators)
    deg = max((poly_total_degree(q) for q in numerators.values()), default=0)
    if mode == "expanded":
        table = _Expanded(data, 0, deg)
        return table.integral(table.pack(numerators[p.id]) for p in data.points)
    if mode != "generic":
        raise ValueError(f"unknown mode {mode!r}")
    if deg > data.half_dim:
        raise ValueError(
            f"numerator degree {deg} exceeds half_dim {data.half_dim}; "
            "generic evaluation is unsound here, use mode='expanded'")
    return _Kernel(data, 0).value(
        "localized sum", lambda rho, pid, e: poly_eval(numerators[pid], rho))


# ---------------------------------------------------------------------------
# Chern numbers


def chern_numerators(data: FixedPointData,
                     partition: Partition) -> Dict[str, SparsePoly]:
    """Per-point product of elementary symmetric classes for the partition.

    This is the symbolic reference: no mode evaluates it, and the tests
    compare the expanded table against ``localize_sum`` of its output.
    """
    k = data.torus_rank
    upto = max(partition) if partition else 0
    out: Dict[str, SparsePoly] = {}
    for p in data.points:
        elems = elem_sym_all(p.weights, min(upto, len(p.weights)), k)
        num = poly_const(k, 1)
        for part in partition:
            num = poly_mul(num, elems[part])
        out[p.id] = num
    return out


def _table(data: FixedPointData, upto: int, mode: str) -> _Kernel | _Expanded:
    """The localization table of the mode, for classes up to degree upto."""
    if mode == "generic":
        return _Kernel(data, upto)
    if mode == "expanded":
        return _Expanded(data, upto)
    raise ValueError(f"unknown mode {mode!r}")


def _chern_evaluator(data: FixedPointData, mode: str) -> Callable[[Partition], int]:
    """Integer Chern number of a sorted partition of half_dim.

    The table is built here, once for all partitions.
    """
    table = _table(data, data.half_dim, mode)

    def number(part: Partition) -> int:
        v = table.product(f"Chern value for {part}", part)
        if v.denominator != 1:
            raise InconsistencyError(
                f"Chern number for {part} is not an integer: {v}")
        return int(v)

    return number


def chern_number(data: FixedPointData, partition: Sequence[int],
                 mode: str = "generic") -> int:
    """Integer Chern number for a partition of the half dimension."""
    part = tuple(sorted(partition, reverse=True))
    if any(x < 1 for x in part) or sum(part) != data.half_dim:
        raise ValueError(
            f"partition {tuple(partition)} does not sum to half_dim {data.half_dim}")
    return _chern_evaluator(data, mode)(part)


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
    number = _chern_evaluator(data, mode)
    values: Dict[Partition, int] = {}
    failures = []
    for part in partitions(data.half_dim):
        try:
            values[part] = number(part)
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
                value = table.product("localized sum", part)
            except InconsistencyError as exc:
                witnesses.append((part, str(exc)))
                continue
            if value != 0:
                witnesses.append((part, str(value)))
    return _single("lower_degree_vanishing", not witnesses, tuple(witnesses))


@dataclass(frozen=True)
class ChernComparison:
    half_dim: int
    rows: Dict[Partition, Tuple[int | None, int | None]]

    @property
    def all_equal(self) -> bool:
        return all(a is not None and a == b for a, b in self.rows.values())


def compare_chern(data: FixedPointData, other: FixedPointData,
                  mode: str = "generic") -> ChernComparison:
    """Partition-by-partition Chern comparison of two datasets of equal half_dim.

    All rows equal means the two are indistinguishable by Chern numbers
    (equivariantly cobordant data always is).
    """
    if data.half_dim != other.half_dim:
        raise ValueError(
            f"half dimensions differ: {data.half_dim} vs {other.half_dim}")
    numbers = (_chern_evaluator(data, mode), _chern_evaluator(other, mode))
    rows: Dict[Partition, Tuple[int | None, int | None]] = {}
    for part in partitions(data.half_dim):
        pair = []
        for number in numbers:
            try:
                pair.append(number(part))
            except InconsistencyError:
                pair.append(None)
        rows[part] = (pair[0], pair[1])
    return ChernComparison(data.half_dim, rows)
