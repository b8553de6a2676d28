"""Fixed-point data of torus actions and the multigraphs describing it.

The central object is :class:`FixedPointData`: a torus rank ``k``, a half
dimension ``n``, and a finite set of fixed points each carrying a multiset
of ``n`` non-zero weights in ``Z^k``.  A labeled directed multigraph
*describes* such data when the weights at every point are exactly the
labels of the outgoing edges together with the negated labels of the
incoming ones, and the weights at the two ends of every edge agree
modulo the edge label.

This module provides the JSON round-trip, the necessary-condition checks
(pairing balance, zero weight sum, the GKM independence condition, edge
congruences), construction of a describing multigraph from bare weight
data, and the classification of rank-one data with at most three fixed
points.

Checks never raise on bad data; they return a :class:`ValidationReport`
whose witnesses say what failed and where.  Errors are reserved for
malformed input (wrong shapes, unparsable documents).
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from typing import Dict, Mapping, Sequence, Tuple

from .matching import maximum_matching
from .weights import (
    Weight,
    add,
    canonicalize,
    is_unimodular_basis,
    neg,
    parallel,
    pivot_index,
    sub,
)

TOP_LEVEL_KEYS = {"torus_rank", "half_dim", "torus_manifold", "fixed_points", "edges"}


class ParseError(ValueError):
    """Input document is not well-formed fixed-point data."""


class MatchingError(ValueError):
    """No describing multigraph exists for some weight class."""

    def __init__(self, weight_class: Weight, message: str):
        self.weight_class = tuple(weight_class)
        super().__init__(message)


# ---------------------------------------------------------------------------
# data types


@dataclass(frozen=True)
class FixedPoint:
    id: str
    weights: Tuple[Weight, ...]


@dataclass(frozen=True)
class FixedPointData:
    torus_rank: int
    half_dim: int
    points: Tuple[FixedPoint, ...]
    torus_manifold: bool = False

    def ids(self) -> Tuple[str, ...]:
        return tuple(sorted(p.id for p in self.points))

    def point(self, pid: str) -> FixedPoint:
        return self._by_id[pid]

    @cached_property
    def _by_id(self) -> Dict[str, FixedPoint]:
        # first point wins on a repeated id; not a field, so eq and repr skip it
        return {p.id: p for p in reversed(self.points)}

    def all_weights(self) -> Tuple[Weight, ...]:
        return tuple(w for p in self.points for w in p.weights)


@dataclass(frozen=True)
class Edge:
    from_id: str
    to_id: str
    label: Weight

    def __post_init__(self) -> None:
        if not any(self.label):
            raise ValueError("zero edge label")


@dataclass(frozen=True)
class Multigraph:
    vertex_ids: Tuple[str, ...]
    edges: Tuple[Edge, ...]

    def __post_init__(self) -> None:
        vs = set(self.vertex_ids)
        for e in self.edges:
            if e.from_id not in vs or e.to_id not in vs:
                raise ValueError(f"edge endpoint not a vertex: {e.from_id}->{e.to_id}")


@dataclass(frozen=True)
class CheckResult:
    check: str
    passed: bool
    witnesses: Tuple = ()
    info: Tuple = ()
    note: str = ""


@dataclass(frozen=True)
class ValidationReport:
    results: Tuple[CheckResult, ...]

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.results)

    def failed(self) -> Tuple[CheckResult, ...]:
        return tuple(r for r in self.results if not r.passed)

    def result(self, check: str) -> CheckResult:
        for r in self.results:
            if r.check == check:
                return r
        raise KeyError(check)


def combine_reports(*reports: ValidationReport) -> ValidationReport:
    return ValidationReport(tuple(r for rep in reports for r in rep.results))


def _single(check: str, passed: bool, witnesses: Tuple = (), info: Tuple = (),
            note: str = "") -> ValidationReport:
    return ValidationReport((CheckResult(check, passed, witnesses, info, note),))


# ---------------------------------------------------------------------------
# parsing and serialization


def _expect_int(value: object, what: str) -> int:
    if not isinstance(value, int) or isinstance(value, bool):
        raise ParseError(f"{what} must be an integer, got {value!r}")
    return value


def _parse_vector(value: object, k: int, what: str) -> Weight:
    if not isinstance(value, list) or len(value) != k:
        raise ParseError(f"{what} must be a list of {k} integers, got {value!r}")
    return tuple(_expect_int(a, f"entry of {what}") for a in value)


def parse(raw: bytes | str) -> Tuple[FixedPointData, Multigraph | None]:
    """Parse a JSON document into fixed-point data plus an optional graph."""
    if isinstance(raw, (bytes, bytearray)):
        raw = raw.decode("utf-8")
    try:
        doc = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise ParseError(f"not valid JSON: {exc}") from exc
    except RecursionError as exc:
        raise ParseError("JSON document is nested too deeply") from exc
    if not isinstance(doc, dict):
        raise ParseError("top level must be an object")
    unknown = set(doc) - TOP_LEVEL_KEYS
    if unknown:
        raise ParseError(f"unknown keys: {sorted(unknown)}")
    for key in ("torus_rank", "half_dim", "fixed_points"):
        if key not in doc:
            raise ParseError(f"missing key: {key}")
    k = _expect_int(doc["torus_rank"], "torus_rank")
    n = _expect_int(doc["half_dim"], "half_dim")
    if k < 1:
        raise ParseError(f"torus_rank must be >= 1, got {k}")
    if n < 0:
        raise ParseError(f"half_dim must be >= 0, got {n}")
    tm = doc.get("torus_manifold", False)
    if not isinstance(tm, bool):
        raise ParseError("torus_manifold must be a boolean")

    entries = doc["fixed_points"]
    if not isinstance(entries, list) or not entries:
        raise ParseError("fixed_points must be a non-empty list")
    points = []
    seen: set[str] = set()
    for entry in entries:
        if not isinstance(entry, dict) or set(entry) != {"id", "weights"}:
            raise ParseError(f"fixed point must have exactly id and weights: {entry!r}")
        pid = entry["id"]
        if not isinstance(pid, str) or not pid:
            raise ParseError(f"fixed point id must be a non-empty string: {pid!r}")
        if pid in seen:
            raise ParseError(f"duplicate fixed point id: {pid}")
        seen.add(pid)
        ws = entry["weights"]
        if not isinstance(ws, list) or len(ws) != n:
            raise ParseError(f"point {pid} must carry exactly {n} weights")
        weights = tuple(_parse_vector(w, k, f"weight of {pid}") for w in ws)
        for w in weights:
            if not any(w):
                raise ParseError(f"zero weight at point {pid}")
        points.append(FixedPoint(pid, weights))

    if tm:
        if k != n:
            raise ParseError(f"torus_manifold needs torus_rank == half_dim, got {k} != {n}")
        for p in points:
            if not is_unimodular_basis(p.weights):
                raise ParseError(f"weights at {p.id} are not a lattice basis")

    data = FixedPointData(k, n, tuple(points), tm)

    graph = None
    if "edges" in doc:
        raw_edges = doc["edges"]
        if not isinstance(raw_edges, list):
            raise ParseError("edges must be a list")
        edges = []
        for entry in raw_edges:
            if not isinstance(entry, dict) or set(entry) != {"from", "to", "label"}:
                raise ParseError(f"edge must have exactly from, to, label: {entry!r}")
            u, v = entry["from"], entry["to"]
            if u not in seen or v not in seen:
                raise ParseError(f"edge endpoint is not a fixed point id: {entry!r}")
            label = _parse_vector(entry["label"], k, "edge label")
            if not any(label):
                raise ParseError(f"zero edge label on {u}->{v}")
            edges.append(Edge(u, v, label))
        graph = Multigraph(tuple(sorted(seen)), tuple(edges))
    return data, graph


def load_path(path: str) -> Tuple[FixedPointData, Multigraph | None]:
    with open(path, "rb") as fh:
        return parse(fh.read())


def _vec_json(w: Sequence[int]) -> str:
    return "[" + ",".join(str(a) for a in w) + "]"


def serialize(data: FixedPointData, graph: Multigraph | None = None) -> str:
    """Canonical JSON: points sorted by id, weights and edges sorted."""
    lines = ["{"]
    lines.append(f'  "torus_rank": {data.torus_rank},')
    lines.append(f'  "half_dim": {data.half_dim},')
    lines.append(f'  "torus_manifold": {"true" if data.torus_manifold else "false"},')
    pts = []
    for p in sorted(data.points, key=lambda p: p.id):
        ws = ",".join(_vec_json(w) for w in sorted(p.weights))
        pts.append(f'    {{"id": {json.dumps(p.id)}, "weights": [{ws}]}}')
    body = ",\n".join(pts)
    if graph is None:
        lines.append('  "fixed_points": [')
        lines.append(body)
        lines.append("  ]")
    else:
        lines.append('  "fixed_points": [')
        lines.append(body)
        lines.append("  ],")
        lines.append('  "edges": [')
        es = []
        for e in sorted(graph.edges, key=lambda e: (e.from_id, e.to_id, e.label)):
            es.append(f'    {{"from": {json.dumps(e.from_id)}, '
                      f'"to": {json.dumps(e.to_id)}, "label": {_vec_json(e.label)}}}')
        lines.append(",\n".join(es))
        lines.append("  ]")
    lines.append("}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# congruence helpers


def congruent_mod(u: Weight, v: Weight, w: Weight) -> bool:
    """True when u - v is an integer multiple of w."""
    d = sub(u, v)
    j = pivot_index(w)
    if d[j] % w[j]:
        return False
    c = d[j] // w[j]
    return all(a == c * b for a, b in zip(d, w))


def residue_mod(u: Weight, w: Weight) -> Weight:
    """Canonical representative of u modulo Z*w.

    Shifts u by the unique multiple of w putting the coordinate at w's
    pivot into [0, |w_pivot|).  Two vectors are congruent mod w exactly
    when their residues coincide.
    """
    j = pivot_index(w)
    c = u[j] // w[j] if w[j] > 0 else -(u[j] // -w[j])
    return tuple(a - c * b for a, b in zip(u, w))


# ---------------------------------------------------------------------------
# checks


def check_pairing(data: FixedPointData) -> ValidationReport:
    """Every weight must occur as often as its negative, globally."""
    counts: Dict[Weight, list[int]] = {}
    for w in data.all_weights():
        s, rep = canonicalize(w)
        counts.setdefault(rep, [0, 0])[0 if s > 0 else 1] += 1
    witnesses = tuple(rep for rep in sorted(counts)
                      if counts[rep][0] != counts[rep][1])
    note = ""
    if witnesses:
        parts = [f"{rep}: {counts[rep][0]} vs {counts[rep][1]} negated"
                 for rep in witnesses]
        note = "; ".join(parts)
    return _single("pairing", not witnesses, witnesses, note=note)


def check_weight_sum_zero(data: FixedPointData) -> ValidationReport:
    """The sum of all weights over all points must vanish."""
    total = (0,) * data.torus_rank
    for w in data.all_weights():
        total = add(total, w)
    ok = not any(total)
    return _single("weight_sum", ok, () if ok else (total,))


def check_gkm(data: FixedPointData) -> ValidationReport:
    """Weights at each point must be pairwise linearly independent."""
    witnesses = []
    for p in sorted(data.points, key=lambda p: p.id):
        ws = p.weights
        for i in range(len(ws)):
            for j in range(i + 1, len(ws)):
                if parallel(ws[i], ws[j]):
                    witnesses.append((p.id, ws[i], ws[j]))
    return _single("gkm", not witnesses, tuple(witnesses))


def _congruence_matching(left: Sequence[Weight], right: Sequence[Weight],
                         label: Weight) -> Dict[int, int] | None:
    adjacency = [[j for j, v in enumerate(right) if congruent_mod(u, v, label)]
                 for u in left]
    match = maximum_matching(len(left), len(right), adjacency)
    return match if len(match) == len(left) else None


def check_edge_congruence(data: FixedPointData,
                          graph: Multigraph) -> ValidationReport:
    """Endpoint weight multisets of each edge must biject congruently mod its label."""
    witnesses = []
    info = []
    for e in sorted(graph.edges, key=lambda e: (e.from_id, e.to_id, e.label)):
        left = data.point(e.from_id).weights
        right = data.point(e.to_id).weights
        match = _congruence_matching(left, right, e.label)
        if match is None:
            witnesses.append((e.from_id, e.to_id, e.label))
        else:
            pairs = tuple(sorted((left[i], right[j]) for i, j in match.items()))
            info.append(((e.from_id, e.to_id, e.label), pairs))
    return _single("edge_congruence", not witnesses, tuple(witnesses), tuple(info))


def check_describes(data: FixedPointData, graph: Multigraph) -> ValidationReport:
    """Does the multigraph describe the data?

    Per point, outgoing labels plus negated incoming labels must
    reproduce the declared weight multiset; on top of that every edge
    must pass the congruence check.
    """
    witnesses = []
    if set(graph.vertex_ids) != set(p.id for p in data.points):
        witnesses.append(("vertex_set", tuple(sorted(graph.vertex_ids)),
                          data.ids()))
    else:
        induced: Dict[str, list[Weight]] = {pid: [] for pid in graph.vertex_ids}
        for e in graph.edges:
            induced[e.from_id].append(e.label)
            induced[e.to_id].append(neg(e.label))
        for p in sorted(data.points, key=lambda p: p.id):
            if sorted(induced[p.id]) != sorted(p.weights):
                witnesses.append((p.id, tuple(sorted(induced[p.id])),
                                  tuple(sorted(p.weights))))
    multiset = _single("describes", not witnesses, tuple(witnesses))
    return combine_reports(multiset, check_edge_congruence(data, graph))


def check_simple(graph: Multigraph) -> ValidationReport:
    """No self-loops and at most one edge per unordered vertex pair."""
    witnesses = []
    seen: Counter[Tuple[str, str]] = Counter()
    for e in graph.edges:
        if e.from_id == e.to_id:
            witnesses.append(("self_loop", e.from_id, e.label))
        seen[tuple(sorted((e.from_id, e.to_id)))] += 1
    for pair in sorted(seen):
        if seen[pair] > 1:
            witnesses.append(("parallel", pair[0], pair[1], seen[pair]))
    return _single("simple", not witnesses, tuple(witnesses))


# ---------------------------------------------------------------------------
# graph construction


def build_multigraph(data: FixedPointData) -> Multigraph:
    """Construct a describing multigraph from bare weight data.

    Weight occurrences are grouped into classes {w, -w}; within a class,
    occurrences of w are matched to occurrences of -w at other points,
    admitting the pair only when the two points' whole weight multisets
    agree modulo w.  Self-loop pairs at a single point are used only when
    no loop-free perfect matching exists.  Raises MatchingError naming the
    first weight class for which no perfect matching exists at all.
    """
    pairing = check_pairing(data)
    if not pairing.passed:
        raise ValueError(f"pairing violation, no multigraph can describe the data: "
                         f"{pairing.results[0].note}")
    order = sorted(data.points, key=lambda p: p.id)
    plus: Dict[Weight, list[str]] = {}
    minus: Dict[Weight, list[str]] = {}
    for p in order:
        for w in p.weights:
            s, rep = canonicalize(w)
            (plus if s > 0 else minus).setdefault(rep, []).append(p.id)

    edges: list[Edge] = []
    for rep in sorted(plus):
        left = plus[rep]
        right = minus[rep]
        residues = {pid: tuple(sorted(residue_mod(w, rep)
                                      for w in data.point(pid).weights))
                    for pid in {*left, *right}}

        def admissible(u: str, v: str) -> bool:
            return residues[u] == residues[v]

        adjacency = [[j for j, v in enumerate(right) if u != v and admissible(u, v)]
                     for u in left]
        match = maximum_matching(len(left), len(right), adjacency)
        if len(match) < len(left):
            # fall back to allowing self-loops before giving up
            adjacency = [[j for j, v in enumerate(right) if admissible(u, v)]
                         for u in left]
            match = maximum_matching(len(left), len(right), adjacency)
            if len(match) < len(left):
                raise MatchingError(rep, f"no congruent matching for weight class {rep}")
        edges.extend(Edge(left[i], right[j], rep) for i, j in match.items())

    edges.sort(key=lambda e: (e.from_id, e.to_id, e.label))
    return Multigraph(data.ids(), tuple(edges))


def validate_all(data: FixedPointData,
                 graph: Multigraph | None = None) -> ValidationReport:
    """Run every applicable check; try to build a graph when none is given."""
    reports = [check_pairing(data), check_weight_sum_zero(data), check_gkm(data)]
    if graph is not None:
        reports.append(check_describes(data, graph))
        reports.append(check_simple(graph))
    elif reports[0].passed:
        try:
            built = build_multigraph(data)
        except (ValueError, MatchingError) as exc:
            reports.append(_single("buildable", False, note=str(exc)))
        else:
            loops = sum(1 for e in built.edges if e.from_id == e.to_id)
            note = "built, not loop-free" if loops else "built, loop-free"
            reports.append(_single("buildable", True, note=note))
    return combine_reports(*reports)


# ---------------------------------------------------------------------------
# transforms and small classifications


def transform(data: FixedPointData, rows: Sequence[Weight]) -> FixedPointData:
    """Apply an integer matrix (rows acting on column vectors) to every weight."""
    from .weights import apply_matrix

    points = tuple(FixedPoint(p.id, tuple(apply_matrix(rows, w) for w in p.weights))
                   for p in data.points)
    return FixedPointData(data.torus_rank, data.half_dim, points,
                          data.torus_manifold)


def relabel(data: FixedPointData, mapping: Mapping[str, str]) -> FixedPointData:
    points = tuple(FixedPoint(mapping[p.id], p.weights) for p in data.points)
    return FixedPointData(data.torus_rank, data.half_dim, points,
                          data.torus_manifold)


@dataclass(frozen=True)
class Classification:
    kind: str  # point | sphere-dim2 | dim6-pair | dim4-triple | nonconforming
    params: Tuple[int, ...] = ()


def classify_few_fixed_points(data: FixedPointData) -> Classification:
    """Classify rank-one data with at most three fixed points.

    The conforming shapes are: a single point with no weights; two points
    {a}, {-a}; two points {-a-b, a, b}, {-a, -b, a+b}; three points
    {a+b, a}, {-a, b}, {-b, -a-b}; always with a, b positive.  Anything
    else is nonconforming.
    """
    if data.torus_rank != 1:
        raise ValueError(f"classification needs rank 1, got {data.torus_rank}")
    m = len(data.points)
    if not 1 <= m <= 3:
        raise ValueError(f"classification covers 1..3 points, got {m}")
    mult = [sorted(w[0] for w in p.weights) for p in data.points]
    n = data.half_dim

    if m == 1:
        return Classification("point") if n == 0 else Classification("nonconforming")

    if m == 2 and n == 1:
        lo, hi = sorted(ws[0] for ws in mult)
        if hi > 0 and lo == -hi:
            return Classification("sphere-dim2", (hi,))
        return Classification("nonconforming")

    if m == 2 and n == 3:
        by_negs = sorted(mult, key=lambda ws: sum(1 for x in ws if x < 0))
        src, snk = by_negs
        pos = sorted(x for x in src if x > 0)
        if len(pos) == 2:
            a, b = pos
            if src == sorted([-a - b, a, b]) and snk == sorted([-a, -b, a + b]):
                return Classification("dim6-pair", (a, b))
        return Classification("nonconforming")

    if m == 3 and n == 2:
        by_negs = sorted(mult, key=lambda ws: sum(1 for x in ws if x < 0))
        if [sum(1 for x in ws if x < 0) for ws in by_negs] == [0, 1, 2]:
            top, mid, bot = by_negs
            negs = [x for x in mid if x < 0]
            poss = [x for x in mid if x > 0]
            if len(negs) == 1 and len(poss) == 1:
                a, b = -negs[0], poss[0]
                if (top == sorted([a + b, a]) and bot == sorted([-b, -a - b])):
                    return Classification("dim4-triple", (a, b))
        return Classification("nonconforming")

    return Classification("nonconforming")
