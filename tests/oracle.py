"""The symbolic reference that the tests check the package against.

Factored fractions add term by term and cancel linear factors, so a
localization sum comes out as a fraction whose constancy the tests read
off directly, with no evaluation point and no table.  The package itself
never calls any of this; it keeps only the factored-fraction pieces below
these (``FactoredFraction``, ``frac_add``, ``poly_div_linear``, ...).
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, Iterable, Mapping, Sequence

from gkmkit.localization import Partition, _check_numerators
from gkmkit.model import FixedPointData
from gkmkit.weights import (
    FactoredFraction,
    Scalar,
    SparsePoly,
    Weight,
    _cancel,
    canonicalize,
    elem_sym_all,
    frac_add,
    poly_const,
    poly_mul,
)


class NonGenericPointError(ValueError):
    """An evaluation point annihilates one of the linear forms."""

    def __init__(self, form: Weight, point: Sequence[Scalar]):
        self.form = tuple(form)
        self.point = tuple(point)
        super().__init__(f"form {self.form} vanishes at {self.point}")


def poly_is_const(p: SparsePoly) -> bool:
    return all(not any(e) for e in p)


def poly_const_value(p: SparsePoly) -> Fraction:
    if not p:
        return Fraction(0)
    if not poly_is_const(p):
        raise ValueError("polynomial is not constant")
    return next(iter(p.values()))


def poly_eval(p: SparsePoly, point: Sequence[Scalar]) -> Fraction:
    total = Fraction(0)
    for e, c in p.items():
        term = c
        for x, d in zip(point, e):
            if d:
                term = term * Fraction(x) ** d
        total += term
    return total


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
        num = {e: -c for e, c in num.items()}
    num, den_t = _cancel(num, den)
    return FactoredFraction(num, den_t)


def frac_sum(terms: Iterable[FactoredFraction]) -> FactoredFraction:
    total = FactoredFraction({}, ())
    for t in terms:
        total = frac_add(total, t)
    return total


def frac_eval(f: FactoredFraction, point: Sequence[Scalar]) -> Fraction:
    """Evaluate at a point; every denominator factor must stay non-zero."""
    den = Fraction(1)
    for w in f.denominator:
        v = sum(Fraction(x) * a for x, a in zip(point, w))
        if v == 0:
            raise NonGenericPointError(w, point)
        den *= v
    return poly_eval(f.numerator, point) / den


def localize_sum(data: FixedPointData,
                 numerators: Mapping[str, SparsePoly]):
    """Full factored-fraction sum of numerator/product-of-weights terms."""
    _check_numerators(data, numerators)
    return frac_sum(
        fraction(numerators[p.id], p.weights)
        for p in sorted(data.points, key=lambda p: p.id))


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
            # e_j vanishes above the point's weight count
            num = poly_mul(num, elems[part]) if part < len(elems) else {}
        out[p.id] = num
    return out
