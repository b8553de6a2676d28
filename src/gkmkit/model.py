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
data, and integer basis changes and relabelings of the data.  The
checks and the build compare packed residues (see ``_WeightIndex``);
the tuple forms ``residue_mod`` and ``congruent_mod`` stay as the
reference the tests hold them to, and because the benchmark's per-layer
tracer wraps them.

Checks never raise on bad data; they return a :class:`ValidationReport`
whose witnesses say what failed and where.  Errors are reserved for
malformed input (wrong shapes, unparsable documents).
"""

from __future__ import annotations

import heapq
import json
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, combinations
from math import gcd
from operator import lshift
from typing import Dict, Iterable, Iterator, Mapping, Sequence, Tuple

from .weights import (
    Weight,
    apply_matrix,
    canonicalize,
    is_unimodular_basis,
    neg,
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

    @cached_property
    def _non_basis_point(self) -> FixedPoint | None:
        """The first point whose weights are not a lattice basis, if any;
        ``parse`` and the Petrie precondition both read it."""
        return next((p for p in self.points if not is_unimodular_basis(p.weights)),
                    None)

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
    if type(value) is list and len(value) == k and all(type(a) is int for a in value):
        return tuple(value)
    if not isinstance(value, list) or len(value) != k:
        raise ParseError(f"{what} must be a list of {k} integers, got {value!r}")
    return tuple(_expect_int(a, f"entry of {what}") for a in value)


def parse(raw: bytes | str) -> Tuple[FixedPointData, Multigraph | None]:
    """Parse a JSON document into fixed-point data plus an optional graph."""
    try:
        # bad UTF-8, bad JSON and over-long integer literals are ValueErrors
        if isinstance(raw, (bytes, bytearray)):
            raw = raw.decode("utf-8")
        doc = json.loads(raw)
    except ValueError as exc:
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

    if tm and k != n:
        raise ParseError(f"torus_manifold needs torus_rank == half_dim, got {k} != {n}")
    data = FixedPointData(k, n, tuple(points), tm)
    if tm and data._non_basis_point is not None:
        raise ParseError(f"weights at {data._non_basis_point.id} are not a lattice basis")

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
            for end in (u, v):
                if not isinstance(end, str) or not end:
                    raise ParseError(f"edge endpoint must be a non-empty string: {end!r}")
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
    lines.append('  "fixed_points": [')
    lines.append(",\n".join(pts))
    if graph is not None:
        lines.append("  ],")
        lines.append('  "edges": [')
        es = [f'    {{"from": {json.dumps(e.from_id)}, '
              f'"to": {json.dumps(e.to_id)}, "label": {_vec_json(e.label)}}}'
              for e in sorted(graph.edges, key=lambda e: (e.from_id, e.to_id, e.label))]
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


class _WeightIndex:
    """The weight classes {w, -w} of one dataset, found once per public call.

    ``classes`` maps each weight and edge label, and its negation, to its
    sign and class id, canonicalizing once per class (a zero weight: sign
    0, no class, and ``zero`` set); ``rows`` lists per point, in data
    order, those of its weights; ``reps`` holds per class the representative
    (positive leading entry); ``order`` sorts the classes by representative;
    ``points`` pairs each point with its row in id order; per class
    ``carriers`` holds the ids at +w and at -w in id order, ``direction``
    the id of rep / gcd(rep) and ``packed`` its packed int; ``at`` maps each
    id (first point wins) to its weights and their packed ints.

    A vector v packs to P(v) = sum v_i 2^(s i).  Packing is linear, so the
    residue of u mod w packs to P(u) - c P(w) with c as in ``residue_mod``.
    With M the largest |entry| over the weights and labels, |c| <= M and
    every residue coordinate lies below M + M^2 in absolute value; the
    width s is the least with 2^(s-1) > M + M^2, which makes packing
    injective on residues: two residues are equal exactly when their
    packed ints are.
    """

    def __init__(self, data: FixedPointData, labels: Iterable[Weight] = ()):
        self.data, self.zero = data, False
        self.classes, self.reps = classes, reps = {}, []
        self.rows = [[classes.get(w) or self._add(w) for w in p.weights] for p in data.points]
        for w in labels:
            classes.get(w) or self._add(w)
        self.order = sorted(range(len(reps)), key=reps.__getitem__)
        self.points = sorted(zip(data.points, self.rows), key=lambda pr: pr[0].id)
        self.carriers = [([], []) for _ in reps]
        for p, row in self.points:
            for s, c in row:
                if s:
                    self.carriers[c][s < 0].append(p.id)
        lines: Dict[Weight, int] = {}
        self.direction = [lines.setdefault(rep if (g := gcd(*rep)) == 1 else
                                           tuple(a // g for a in rep), len(lines)) for rep in reps]
        m = max(map(abs, chain.from_iterable(reps)), default=0)
        self.width = (m + m * m).bit_length() + 1
        self.packed = packed = [self.pack(rep) for rep in reps]
        self.at = {p.id: (p.weights, [s * packed[c] if s else 0 for s, c in row])
                   for p, row in reversed(self.points)}

    def _add(self, w: Weight) -> Tuple[int, int | None]:
        try:
            s, rep = canonicalize(w)
        except ValueError:  # a zero weight
            self.zero, self.classes[w] = True, (0, None)
            return self.classes[w]
        c = len(self.reps)  # a new class: each class enters with both signs
        self.reps.append(rep)
        self.classes[rep], self.classes[w if s < 0 else neg(w)] = (1, c), (-1, c)
        return self.classes[w]

    def pack(self, v: Weight) -> int:
        return sum(map(lshift, v, range(0, self.width * len(v), self.width)))

    def residues(self, c: int, pids: Iterable[str]) -> Dict[str, list[int]]:
        """Packed residues mod class c of the weights at each point, in
        order; u mod w is u mod -w, so one class serves both signs."""
        rep, pw = self.reps[c], self.packed[c]
        j = pivot_index(rep)
        d = rep[j]
        return {pid: [pu - u[j] // d * pw for u, pu in zip(*self.at[pid])]
                for pid in pids}

    def pairing(self) -> ValidationReport:
        """Per class the counts of +w and -w; a zero weight, which has no
        negative to pair with, fails first with the zero vector."""
        counts = [(self.reps[c], *map(len, self.carriers[c])) for c in self.order]
        bad = [(rep, f"{rep}: {a} vs {b} negated") for rep, a, b in counts if a != b]
        if self.zero:
            zeros = [p.id for p, row in self.points if (0, None) in row]
            bad.insert(0, ((0,) * self.data.torus_rank, f"zero weight at {', '.join(zeros)}"))
        return _single("pairing", not bad, tuple(w for w, _ in bad),
                       note="; ".join(note for _, note in bad))

    def gkm(self) -> ValidationReport:
        witnesses = []
        for p, row in self.points:
            dirs = [self.direction[c] if s else None for s, c in row]
            if len(set(dirs)) < len(dirs) or None in dirs:
                witnesses.extend((p.id, u, v) for (u, a), (v, b)
                                 in combinations(zip(p.weights, dirs), 2)
                                 if a == b or a is None or b is None)
        return _single("gkm", not witnesses, tuple(witnesses))

    def edge_congruence(self, graph: Multigraph) -> ValidationReport:
        witnesses, info = [], []
        for e in sorted(graph.edges, key=lambda e: (e.from_id, e.to_id, e.label)):
            if e.from_id not in self.at or e.to_id not in self.at:
                witnesses.append((e.from_id, e.to_id, e.label))
                continue
            res = self.residues(self.classes[e.label][1], (e.from_id, e.to_id))
            left = sorted(zip(res[e.from_id], self.at[e.from_id][0]))
            right = sorted(zip(res[e.to_id], self.at[e.to_id][0]))
            if [r for r, _ in left] != [r for r, _ in right]:
                witnesses.append((e.from_id, e.to_id, e.label))
            else:
                pairs = tuple(sorted((u, v) for (_, u), (_, v) in zip(left, right)))
                info.append(((e.from_id, e.to_id, e.label), pairs))
        return _single("edge_congruence", not witnesses, tuple(witnesses), tuple(info))

    def describes(self, graph: Multigraph) -> ValidationReport:
        witnesses = []
        if set(graph.vertex_ids) != set(self.at):
            witnesses.append(("vertex_set", tuple(sorted(graph.vertex_ids)),
                              self.data.ids()))
        else:
            induced: Dict[str, list[Weight]] = {pid: [] for pid in graph.vertex_ids}
            for e in graph.edges:
                induced[e.from_id].append(e.label)
                induced[e.to_id].append(neg(e.label))
            for p, _ in self.points:
                if sorted(induced[p.id]) != sorted(p.weights):
                    witnesses.append((p.id, tuple(sorted(induced[p.id])),
                                      tuple(sorted(p.weights))))
        return combine_reports(_single("describes", not witnesses, tuple(witnesses)),
                               self.edge_congruence(graph))

    def buckets(self) -> Iterator[Tuple[Weight, list[str], list[str]]]:
        """(class, ids at its +w, ids at its -w) per residue bucket, classes
        in sorted order.  Within a class {w, -w}, w at p may pair with -w
        at q exactly when the weight multisets at p and q have the same
        sorted residues mod w, so a describing multigraph exists exactly
        when every bucket holds as many +w as -w.  Raises ValueError on a
        repeated point id or a pairing violation (a zero weight is one)
        before the first bucket, and MatchingError at the first unbalanced
        bucket."""
        for (a, _), (b, _) in zip(self.points, self.points[1:]):
            if a.id == b.id:
                raise ValueError(f"repeated point id {a.id!r}, "
                                 f"no multigraph can describe the data")
        pairing = self.pairing().results[0]
        if not pairing.passed:
            raise ValueError(f"pairing violation, no multigraph can describe the data: "
                             f"{pairing.note}")
        for c in self.order:
            (left, right), rep = self.carriers[c], self.reps[c]
            residues = self.residues(c, {*left, *right})
            if len(left) == 1 and sorted(residues[left[0]]) == sorted(residues[right[0]]):
                yield rep, left, right  # one pair: one comparison
                continue
            buckets: Dict[Tuple[int, ...], Tuple[list[str], list[str]]] = {}
            for side, pids in enumerate((left, right)):
                for pid in pids:
                    buckets.setdefault(tuple(sorted(residues[pid])), ([], []))[side].append(pid)
            for plus, minus in buckets.values():
                if len(plus) != len(minus):
                    raise MatchingError(rep, f"no congruent matching for weight class {rep}")
                yield rep, plus, minus

    def build(self) -> Multigraph:
        edges: list[Edge] = []
        for rep, left, right in self.buckets():
            edges.extend(Edge(u, v, rep) for u, v in _pair_bucket(left, right))
        edges.sort(key=lambda e: (e.from_id, e.to_id, e.label))
        return Multigraph(self.data.ids(), tuple(edges))


# ---------------------------------------------------------------------------
# checks


def check_pairing(data: FixedPointData) -> ValidationReport:
    """Every weight must occur as often as its negative, globally."""
    return _WeightIndex(data).pairing()


def check_weight_sum_zero(data: FixedPointData) -> ValidationReport:
    """The sum of all weights over all points must vanish."""
    total = tuple(map(sum, zip(*data.all_weights())))
    ok = not any(total)
    return _single("weight_sum", ok, () if ok else (total,))


def check_gkm(data: FixedPointData) -> ValidationReport:
    """Weights at each point must be pairwise linearly independent: their
    primitive directions (see ``_WeightIndex``) must differ.  Every
    parallel pair is a witness, in pair order; a zero weight is parallel
    to every weight."""
    return _WeightIndex(data).gkm()


def check_edge_congruence(data: FixedPointData,
                          graph: Multigraph) -> ValidationReport:
    """Endpoint weight multisets of each edge must biject congruently mod
    its label, that is have equal sorted residues (packed ints, see
    ``_WeightIndex``); info zips the two.  An edge with an endpoint the
    data lacks is a witness."""
    return _WeightIndex(data, (e.label for e in graph.edges)).edge_congruence(graph)


def check_describes(data: FixedPointData, graph: Multigraph) -> ValidationReport:
    """Does the multigraph describe the data?  Per point, outgoing labels
    plus negated incoming labels must reproduce the declared weight
    multiset, and every edge must pass the congruence check."""
    return _WeightIndex(data, (e.label for e in graph.edges)).describes(graph)


def check_simple(graph: Multigraph) -> ValidationReport:
    """No self-loops and at most one edge per unordered vertex pair."""
    seen = Counter(tuple(sorted((e.from_id, e.to_id))) for e in graph.edges)
    witnesses = [("self_loop", e.from_id, e.label) for e in graph.edges if e.from_id == e.to_id]
    witnesses += [("parallel", *pair, k) for pair, k in sorted(seen.items()) if k > 1]
    return _single("simple", not witnesses, tuple(witnesses))


# ---------------------------------------------------------------------------
# graph construction


def _pair_bucket(left: Sequence[str], right: Sequence[str]) -> Iterator[Tuple[str, str]]:
    """Pair the +w with the -w occurrences of one bucket (point ids, in id order).

    Each +w occurrence takes the first free -w occurrence at another point,
    except while a point t holds at least half of the 2n unpaired
    occurrences: every pair must then involve t, and it is a self-loop
    only when t holds more than half, which forces one.
    """
    if len(left) == 1:  # the pair the rule below makes, a loop if the ids agree
        yield left[0], right[0]
        return
    free: Dict[str, int] = {}
    load: Dict[str, int] = {}
    for v in right:
        free[v] = load[v] = free.get(v, 0) + 1
    for u in left:
        load[u] = load.get(u, 0) + 1
    heaviest = [(-d, x) for x, d in load.items()]
    heapq.heapify(heaviest)
    for n, u in zip(range(len(left), 0, -1), left):
        while -heaviest[0][0] != load[heaviest[0][1]]:
            heapq.heappop(heaviest)
        t = heaviest[0][1]
        if load[t] > n or (load[t] == n and t != u):
            v = t
        else:
            v = next(x for x in free if x != u)
        yield u, v
        free[v] -= 1
        if not free[v]:
            del free[v]
        load[u] -= 1
        load[v] -= 1
        heapq.heappush(heaviest, (-load[u], u))
        heapq.heappush(heaviest, (-load[v], v))


def build_multigraph(data: FixedPointData) -> Multigraph:
    """Construct a describing multigraph from bare weight data.

    A residue bucket (see ``_WeightIndex.buckets``) holding n occurrences
    of each sign, L_x of w and R_x of -w at point x, pairs without
    self-loops iff L_x + R_x <= n for every x (Hall's theorem); otherwise
    the one point over the bound gets the forced L_x + R_x - n loops and
    no others do.  Raises as the buckets do: MatchingError naming the first
    weight class with an unbalanced bucket, ValueError before that.
    """
    return _WeightIndex(data).build()


def validate_all(data: FixedPointData,
                 graph: Multigraph | None = None) -> ValidationReport:
    """Run every applicable check; try to build a graph when none is given."""
    index = _WeightIndex(data, () if graph is None else (e.label for e in graph.edges))
    reports = [index.pairing(), check_weight_sum_zero(data), index.gkm()]
    if graph is not None:
        reports += [index.describes(graph), check_simple(graph)]
    elif reports[0].passed:
        try:
            built = index.build()
        except ValueError as exc:
            reports.append(_single("buildable", False, note=str(exc)))
        else:
            loops = any(e.from_id == e.to_id for e in built.edges)
            reports.append(_single("buildable", True, note="built, not loop-free" if loops
                                   else "built, loop-free"))
    return combine_reports(*reports)


# ---------------------------------------------------------------------------
# transforms


def transform(data: FixedPointData, rows: Sequence[Weight]) -> FixedPointData:
    """Apply an integer matrix (rows acting on column vectors) to every weight."""
    points = tuple(FixedPoint(p.id, tuple(apply_matrix(rows, w) for w in p.weights))
                   for p in data.points)
    return FixedPointData(data.torus_rank, data.half_dim, points,
                          data.torus_manifold)


def relabel(data: FixedPointData, mapping: Mapping[str, str]) -> FixedPointData:
    points = tuple(FixedPoint(mapping[p.id], p.weights) for p in data.points)
    return FixedPointData(data.torus_rank, data.half_dim, points,
                          data.torus_manifold)
