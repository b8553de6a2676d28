"""Rigidity check for torus-manifold data with the minimal fixed-point count.

A rank-n torus manifold has at least n+1 fixed points; the linear action
on projective n-space attains the bound.  Given flagged data with exactly
n+1 points, this module decides whether the data is, after relabeling,
exactly that of a linear projective-space model.  Pick a base point with
weights b_1..b_n summing to S.  In the model, the point whose character
is b carries {-b} + {b' - b : b' != b}, and these weights sum to
S - (n+1) b.  So every other point's base weight is read off its own
weight sum, the assignment is unique when it exists, and one pass over
the points checks each multiset against its pattern.  On success the
report carries the recovered character basis, the lattice-simplex
realization, the divisor relations of the induced complete graph, and
the invariant table.  The paper's Petrie-type theorem gives that table
in closed form: matched data is linear CP^n in the recovered basis, so
chi_y has all n + 1 coefficients one and the total Chern class is
(1 + x)^(n+1) with x^n integrating to one.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb, prod
from typing import Dict, Tuple

from .localization import partitions
from .model import FixedPointData, Multigraph
from .weights import Weight, neg, parallel, sub


@dataclass(frozen=True)
class Relation:
    from_id: str
    to_id: str
    divisor: Weight


@dataclass(frozen=True)
class PetrieReport:
    verdict: str  # "match" | "no-match" | "precondition-failed"
    base_point: str | None = None
    basis: Tuple[Weight, ...] | None = None
    relabeling: Dict[str, int] | None = None
    simplex: Tuple[Weight, ...] | None = None
    invariants: Dict[str, object] | None = None
    witness: str | None = None
    graph_consistent: bool | None = None
    gl_normalized_equal: bool | None = None

    @property
    def matched(self) -> bool:
        return self.verdict == "match"


def _model_invariants(n: int) -> Dict[str, object]:
    """Invariant table of linear CP^n, which every match shares.

    chi_y has all coefficients one, so euler = n + 1, todd = 1 and the
    signature is 1 for even n, 0 for odd n; c_i = C(n+1, i) x^i, so the
    Chern number of a partition is the product of C(n+1, part).
    """
    return {
        "chi_y": (1,) * (n + 1),
        "euler": n + 1,
        "todd": 1,
        "signature": 1 - n % 2,
        "chern": {part: prod(comb(n + 1, j) for j in part)
                  for part in sorted(partitions(n))},
    }


def triangle_identity(w0i: Weight, w0j: Weight, wij: Weight) -> bool:
    """Does 1/(ab) + 1/((-a)c) + 1/((-b)(-c)) vanish for a=w0i, b=w0j, c=wij?

    The sum collapses to (a - b + c) / (abc), so it vanishes exactly when
    c = b - a; this is the two-dimensional shadow of the model relations.
    """
    if parallel(w0i, w0j):
        raise ValueError(f"degenerate triangle: {w0i} and {w0j} are parallel")
    if not any(wij):
        raise ValueError("zero weight in triangle")
    return tuple(wij) == sub(w0j, w0i)


def _reconstruct(data: FixedPointData, base_id: str) -> Tuple[Dict[str, Weight] | None, str]:
    """Assign the base point's weights to the other points, model-style.

    Returns (assignment, witness): either a map other_id -> b with
    weights(other) == {-b} + {b' - b : b' != b} and b used once, or None
    plus a reason.  The point's weight sum S - (n+1) b forces b.
    """
    base = data.point(base_id).weights
    n = len(base)
    total = [sum(col) for col in zip(*base)]
    unused = set(base)
    others = list(data.ids())
    others.remove(base_id)
    assignment: Dict[str, Weight] = {}
    for pid in others:
        weights = data.point(pid).weights
        # floor division: a non-integral b fails the pattern check, whose
        # weights sum to exactly S - (n+1) b
        b = tuple((s - sum(col)) // (n + 1) for s, col in zip(total, zip(*weights)))
        pattern = [neg(b)] + [sub(c, b) for c in base if c != b]
        if b not in unused or sorted(pattern) != sorted(weights):
            return None, (f"weights at {pid} do not match the model pattern "
                          f"for base {base_id}")
        unused.remove(b)
        assignment[pid] = b
    return assignment, ""


def _precondition_witness(data: FixedPointData) -> str | None:
    if not data.torus_manifold:
        return "data is not flagged as a torus manifold"
    if data._non_basis_point is not None:
        return f"weights at {data._non_basis_point.id} are not a lattice basis"
    if len(data.points) != data.half_dim + 1:
        return (f"expected {data.half_dim + 1} fixed points, "
                f"found {len(data.points)}")
    return None


def petrie_verify(data: FixedPointData, graph: Multigraph | None = None,
                  up_to_gl: bool = False) -> PetrieReport:
    """Decide whether minimal data agrees with a linear projective model."""
    reason = _precondition_witness(data)
    if reason is not None:
        return PetrieReport("precondition-failed", witness=reason)

    base_id = data.ids()[0]
    assignment, witness = _reconstruct(data, base_id)
    if assignment is None:
        return PetrieReport("no-match", base_point=base_id, witness=witness)

    basis = tuple(assignment.values())
    relabeling = {base_id: 0}
    relabeling.update({pid: i + 1 for i, pid in enumerate(assignment)})

    simplex = ((0,) * data.half_dim,) + basis
    graph_consistent: bool | None = None
    if graph is not None:
        graph_consistent, graph_witness = _graph_consistent(
            graph, {pid: simplex[i] for pid, i in relabeling.items()})
        if not graph_consistent:
            return PetrieReport(
                "no-match", base_point=base_id, basis=basis,
                relabeling=relabeling, graph_consistent=False,
                witness=graph_witness)

    return PetrieReport(
        "match", base_point=base_id, basis=basis, relabeling=relabeling,
        simplex=simplex, invariants=_model_invariants(data.half_dim),
        graph_consistent=graph_consistent,
        # the inverse basis maps matched data onto the standard model
        gl_normalized_equal=True if up_to_gl else None)


def _graph_consistent(graph: Multigraph,
                      chars: Dict[str, Weight]) -> Tuple[bool, str]:
    """A supplied graph must be the model's complete graph, label-for-label.

    ``chars`` maps each point to its model character.  Edge direction is
    free: u -> v labeled char(v) - char(u) and the reversed edge with
    negated label describe the same data.
    """
    if set(graph.vertex_ids) != set(chars):
        return False, "graph vertex set differs from the fixed point set"
    seen: set[frozenset[str]] = set()
    for e in graph.edges:
        if e.from_id == e.to_id:
            return False, f"self-loop at {e.from_id}"
        expected = sub(chars[e.to_id], chars[e.from_id])
        if e.label != expected:
            return False, (f"edge {e.from_id}->{e.to_id} has label {e.label}, "
                           f"model gives {expected}")
        key = frozenset((e.from_id, e.to_id))
        if key in seen:
            return False, f"duplicate edge between {e.from_id} and {e.to_id}"
        seen.add(key)
    # every pair seen joins two distinct points, so counting them suffices
    if len(seen) != comb(len(chars), 2):
        return False, "graph is not the complete graph on the fixed points"
    return True, ""


def gkm_relations(report: PetrieReport) -> Tuple[Relation, ...]:
    """Divisor relations of the matched model: one per unordered point pair."""
    if not report.matched or report.relabeling is None or report.simplex is None:
        raise ValueError("relations require a match verdict")
    ordered = sorted(report.relabeling, key=report.relabeling.__getitem__)
    chars = report.simplex
    return tuple(Relation(ordered[i], ordered[j], sub(chars[j], chars[i]))
                 for i in range(len(ordered)) for j in range(i + 1, len(ordered)))
