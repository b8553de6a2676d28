"""Shared randomized-data helpers for the test-suite.

All randomness is seeded by the callers, so every test run sees the same
sequence of matrices, relabelings, and mutants.
"""

from __future__ import annotations

import random
from typing import Dict, NamedTuple, Sequence, Tuple

import pytest

from gkmkit.model import Edge, FixedPoint, FixedPointData, Multigraph, relabel
from gkmkit.weights import Weight, neg, sub


@pytest.fixture
def rng() -> random.Random:
    return random.Random(20260818)


def random_unimodular(rng: random.Random, n: int) -> Tuple[Weight, ...]:
    """Random determinant +-1 integer matrix built from elementary row ops."""
    if n == 1:
        return ((rng.choice((-1, 1)),),)
    m = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for _ in range(2 * n):
        i, j = rng.sample(range(n), 2)
        c = rng.choice((-2, -1, 1, 2))
        for col in range(n):
            m[j][col] += c * m[i][col]
    rng.shuffle(m)
    for row in m:
        if rng.random() < 0.3:
            for col in range(n):
                row[col] = -row[col]
    return tuple(tuple(r) for r in m)


def random_relabel(rng: random.Random, data: FixedPointData,
                   prefix: str = "v") -> Tuple[FixedPointData, Dict[str, str]]:
    """Rename every point id to a shuffled fresh name."""
    ids = [p.id for p in data.points]
    perm = list(range(len(ids)))
    rng.shuffle(perm)
    mapping = {pid: f"{prefix}{perm[i]:02d}" for i, pid in enumerate(ids)}
    return relabel(data, mapping), mapping


def shuffled(rng: random.Random, data: FixedPointData) -> FixedPointData:
    """Shuffle point order and the weight order inside each point."""
    pts = []
    for p in data.points:
        ws = list(p.weights)
        rng.shuffle(ws)
        pts.append(FixedPoint(p.id, tuple(ws)))
    rng.shuffle(pts)
    return FixedPointData(data.torus_rank, data.half_dim, tuple(pts),
                          data.torus_manifold)


def mutate_one_weight(rng: random.Random, data: FixedPointData) -> FixedPointData:
    """Replace a single weight by a different non-zero random vector."""
    i = rng.randrange(len(data.points))
    p = data.points[i]
    j = rng.randrange(len(p.weights))
    k = data.torus_rank
    while True:
        w = tuple(rng.randint(-4, 4) for _ in range(k))
        if any(w) and w != p.weights[j]:
            break
    ws = list(p.weights)
    ws[j] = w
    pts = list(data.points)
    pts[i] = FixedPoint(p.id, tuple(ws))
    return FixedPointData(data.torus_rank, data.half_dim, tuple(pts),
                          data.torus_manifold)


class Space(NamedTuple):
    """Fixed-point data with its describing graph, if any; unpacks into
    ``serialize``."""

    data: FixedPointData
    graph: Multigraph | None


def blow_up(space, pid: str, ids: Sequence[str] | None = None) -> Space:
    """Equivariant blow-up of ``space`` (anything with ``data`` and
    ``graph``) at the fixed point ``pid``.

    The point with weights w_1..w_n becomes n points q_i, named by ``ids``
    (default ``pid.i``), where q_i carries {w_i} + {w_j - w_i : j != i}:
    the standard local model at an isolated fixed point.  In the graph an
    edge leaving p along w_i now leaves q_i, an edge entering p along -w_i
    enters q_i, and q_i -> q_j (i < j) is a new edge labeled w_j - w_i.
    """
    data, graph = space.data, space.graph
    ws = data.point(pid).weights
    ids = tuple(ids) if ids is not None else tuple(f"{pid}.{i}" for i in range(len(ws)))
    new = tuple(FixedPoint(q, (w,) + tuple(sub(v, w) for j, v in enumerate(ws) if j != i))
                for i, (q, w) in enumerate(zip(ids, ws)))
    points = tuple(p for p in data.points if p.id != pid) + new
    blown = FixedPointData(data.torus_rank, data.half_dim, points, data.torus_manifold)
    if graph is None:
        return Space(blown, None)
    free = list(range(len(ws)))  # weights at p not yet given to an edge

    def take(w: Weight) -> str:
        i = next(i for i in free if ws[i] == w)
        free.remove(i)
        return ids[i]

    edges = [Edge(take(e.label) if e.from_id == pid else e.from_id,
                  take(neg(e.label)) if e.to_id == pid else e.to_id, e.label)
             for e in graph.edges]
    edges += [Edge(ids[i], ids[j], sub(ws[j], ws[i]))
              for i in range(len(ws)) for j in range(i + 1, len(ws))]
    vertices = tuple(v for v in graph.vertex_ids if v != pid) + ids
    return Space(blown, Multigraph(vertices, tuple(edges)))


def product(a, b) -> Space:
    """The product of ``a`` and ``b`` (anything with ``data`` and ``graph``).

    The point (p, q), named "p,q", carries W_p + 0 and 0 + W_q in the rank
    a + b torus; half dimensions add, and the product is a torus manifold
    when both factors are.  The graph is the Cartesian product: each edge
    of a at every point of b, and each edge of b at every point of a.
    """
    da, db = a.data, b.data
    za, zb = (0,) * da.torus_rank, (0,) * db.torus_rank
    points = tuple(FixedPoint(f"{p.id},{q.id}", tuple(w + zb for w in p.weights)
                              + tuple(za + w for w in q.weights))
                   for p in da.points for q in db.points)
    data = FixedPointData(da.torus_rank + db.torus_rank, da.half_dim + db.half_dim,
                          points, da.torus_manifold and db.torus_manifold)
    if a.graph is None or b.graph is None:
        return Space(data, None)
    edges = [Edge(f"{e.from_id},{q}", f"{e.to_id},{q}", e.label + zb)
             for e in a.graph.edges for q in db.ids()]
    edges += [Edge(f"{p},{e.from_id}", f"{p},{e.to_id}", za + e.label)
              for p in da.ids() for e in b.graph.edges]
    return Space(data, Multigraph(tuple(p.id for p in points), tuple(edges)))
