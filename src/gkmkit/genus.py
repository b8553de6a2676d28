"""Hirzebruch genus of fixed-point data by counting negative pairings.

Pick a circle xi in the torus that pairs non-trivially with every weight.
Each fixed point contributes (-y)^d where d is its number of negative
pairings; collecting points by d gives the coefficients (a_0, ..., a_n)
of chi_y.  The value is independent of the choice of xi for data coming
from an actual action, which is exactly what the property tests assert.

Specializations: euler = sum of all a_i = number of fixed points,
todd = a_0, signature = chi_y at y = 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Tuple

from .model import FixedPoint, FixedPointData, ValidationReport, _single
from .weights import Weight, dot, generic_points


class NonGenericCircleError(ValueError):
    """The chosen circle pairs to zero with some weight."""

    def __init__(self, point_id: str, weight: Weight, xi: Sequence[int]):
        self.point_id = point_id
        self.weight = tuple(weight)
        self.xi = tuple(xi)
        super().__init__(
            f"circle {self.xi} pairs to zero with weight {self.weight} at {point_id}")


@dataclass(frozen=True)
class ChiYPolynomial:
    """Coefficients (a_0, ..., a_n) of the genus in powers of -y."""

    coeffs: Tuple[int, ...]

    @property
    def half_dim(self) -> int:
        return len(self.coeffs) - 1

    def eval_at(self, y: int) -> int:
        return sum(a * (-y) ** i for i, a in enumerate(self.coeffs))

    @property
    def euler(self) -> int:
        return sum(self.coeffs)

    @property
    def todd(self) -> int:
        return self.coeffs[0]

    @property
    def signature(self) -> int:
        return self.eval_at(1)

    def as_y_string(self) -> str:
        """Render as a polynomial in y, e.g. '1 - y + y^2'."""
        parts: list[str] = []
        for i, a in enumerate(self.coeffs):
            c = a * (-1) ** i
            if c == 0:
                continue
            mono = "1" if i == 0 else ("y" if i == 1 else f"y^{i}")
            mag = abs(c)
            body = mono if (mag == 1 and i > 0) else (str(mag) if i == 0 else f"{mag}{mono}")
            if not parts:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if c > 0 else f"- {body}")
        return " ".join(parts) if parts else "0"


def index_d_minus(point: FixedPoint, xi: Sequence[int]) -> int:
    """Number of weights at the point pairing negatively with xi."""
    count = 0
    for w in point.weights:
        v = dot(xi, w)
        if v == 0:
            raise NonGenericCircleError(point.id, w, xi)
        if v < 0:
            count += 1
    return count


def chi_y(data: FixedPointData, xi: Sequence[int] | None = None) -> ChiYPolynomial:
    """Genus of the data; xi defaults to the deterministic generic circle."""
    if xi is None:
        forms = set(data.all_weights())  # without weights no point reads xi
        xi = next(generic_points(forms, data.torus_rank)) if forms else ()
    else:
        xi = tuple(xi)
        if len(xi) != data.torus_rank:
            raise ValueError(f"xi must have length {data.torus_rank}")
    counts = [0] * (data.half_dim + 1)
    for p in data.points:
        counts[index_d_minus(p, xi)] += 1
    return ChiYPolynomial(tuple(counts))


def symmetry(coeffs: Sequence[int]) -> ValidationReport:
    """The coefficient vector must be palindromic: a_i == a_{n-i}."""
    n = len(coeffs) - 1
    witnesses = tuple((i, coeffs[i], coeffs[n - i])
                      for i in range(n + 1) if coeffs[i] != coeffs[n - i])
    return _single("chi_y_symmetry", not witnesses, witnesses)


def positivity(coeffs: Sequence[int]) -> ValidationReport:
    """Every coefficient must be >= 1."""
    witnesses = tuple((i, coeffs[i]) for i in range(len(coeffs)) if coeffs[i] < 1)
    note = "" if not witnesses else (
        "data unrealizable: some chi_y coefficient is not positive")
    return _single("chi_y_positivity", not witnesses, witnesses, note=note)


def check_symmetry(data: FixedPointData) -> ValidationReport:
    """Serre duality: chi_y(data) is palindromic."""
    return symmetry(chi_y(data).coeffs)


def check_positivity(data: FixedPointData) -> ValidationReport:
    """Every chi_y coefficient is >= 1 for data flagged as a torus manifold."""
    if not data.torus_manifold:
        raise ValueError("positivity check applies to torus_manifold data only")
    return positivity(chi_y(data).coeffs)
