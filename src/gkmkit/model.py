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

``FixedPointData`` refuses what ``parse`` refuses: a repeated id, a point
without ``half_dim`` weights, a weight without ``torus_rank`` entries, a
zero weight, and the ``torus_manifold`` flag when k != n.  Checks never
raise on data built past that; they return a :class:`ValidationReport`
whose witnesses say what failed and where.
"""

from __future__ import annotations

import heapq
import json
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, combinations
from json.encoder import encode_basestring_ascii
from math import gcd
from operator import attrgetter, lshift
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

# half_dim from which one det certifies a whole component of torus-manifold
# data (see ``_WeightIndex.non_basis_point``).  Below it a det per point costs
# less than building the weight index, for the commands that read no index
# (genus, petrie); measured on disguised CP^2..CP^12, a 2-vCPU x86-64 VM.
_CERTIFY_FROM = 10


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

    def __post_init__(self) -> None:
        """The shape rules, in ``parse``'s order and words; the lattice
        bases stay lazy (``_non_basis_point``)."""
        k, n = self.torus_rank, self.half_dim
        seen: set[str] = set()
        for p in self.points:
            if p.id in seen:
                raise ValueError(f"duplicate fixed point id: {p.id}")
            seen.add(p.id)
            if len(p.weights) != n:
                raise ValueError(f"point {p.id} must carry exactly {n} weights")
            if not {k} >= set(map(len, p.weights)):
                w = next(w for w in p.weights if len(w) != k)
                raise ValueError(f"weight {w} at point {p.id} must have {k} entries")
            if not all(map(any, p.weights)):
                raise ValueError(f"zero weight at point {p.id}")
        if self.torus_manifold and k != n:
            raise ValueError(f"torus_manifold needs torus_rank == half_dim, got {k} != {n}")

    def ids(self) -> Tuple[str, ...]:
        return tuple(sorted(p.id for p in self.points))

    def point(self, pid: str) -> FixedPoint:
        return self._by_id[pid]

    @cached_property
    def _by_id(self) -> Dict[str, FixedPoint]:
        # not a field, so eq and repr skip it
        return {p.id: p for p in self.points}

    @cached_property
    def _index(self) -> _WeightIndex:
        """The weight classes of the data, found once for every check,
        the build, the lattice certificate and the localization table."""
        return _WeightIndex(self)

    @cached_property
    def _non_basis_point(self) -> FixedPoint | None:
        """The first point, in data order, whose weights are not a lattice
        basis, if any; ``parse`` and the Petrie precondition both read it.
        The certificate and its crossover are described in README's Data
        format; below the crossover each point takes a ``det``."""
        if self.half_dim >= _CERTIFY_FROM:
            return self._index.non_basis_point(self.points)
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


_EDGE_ORDER = attrgetter("from_id", "to_id", "label")  # how edges are listed


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


def _single(check: str, passed: bool, witnesses: Tuple = (), note: str = "") -> ValidationReport:
    return ValidationReport((CheckResult(check, passed, witnesses, note),))


# ---------------------------------------------------------------------------
# parsing and serialization


def _expect_int(value: object, what: str) -> int:
    if not isinstance(value, int) or isinstance(value, bool):
        raise ParseError(f"{what} must be an integer, got {value!r}")
    return value


def _parse_vector(value: object, k: int, what: str) -> Weight:
    if type(value) is list and len(value) == k and {int} >= set(map(type, value)):
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
    for entry in entries:
        if not isinstance(entry, dict) or set(entry) != {"id", "weights"}:
            raise ParseError(f"fixed point must have exactly id and weights: {entry!r}")
        pid = entry["id"]
        if not isinstance(pid, str) or not pid:
            raise ParseError(f"fixed point id must be a non-empty string: {pid!r}")
        ws = entry["weights"]
        if not isinstance(ws, list) or len(ws) != n:
            raise ParseError(f"point {pid} must carry exactly {n} weights")
        if ({list} >= set(map(type, ws)) and {k} >= set(map(len, ws))
                and {int} >= set(map(type, chain.from_iterable(ws)))):
            weights = tuple(map(tuple, ws))
        else:  # _parse_vector words the error of the first bad vector
            weights = tuple(_parse_vector(w, k, f"weight of {pid}") for w in ws)
        points.append(FixedPoint(pid, weights))

    try:  # the repeated id, the zero weight and the flag's k != n
        data = FixedPointData(k, n, tuple(points), tm)
    except ValueError as exc:
        raise ParseError(str(exc)) from exc
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
            if u not in data._by_id or v not in data._by_id:
                raise ParseError(f"edge endpoint is not a fixed point id: {entry!r}")
            label = _parse_vector(entry["label"], k, "edge label")
            if not any(label):
                raise ParseError(f"zero edge label on {u}->{v}")
            edges.append(Edge(u, v, label))
        graph = Multigraph(data.ids(), tuple(edges))
    return data, graph


def load_path(path: str) -> Tuple[FixedPointData, Multigraph | None]:
    with open(path, "rb") as fh:
        return parse(fh.read())


def _vec_json(w: Sequence[int]) -> str:
    return "[" + ",".join(str(a) for a in w) + "]"


# One encoder call costs more than the join on a single vector and less on
# a point's list of vectors, so labels take the join and weight lists this.
_compact = json.JSONEncoder(separators=(",", ":")).encode


def serialize(data: FixedPointData, graph: Multigraph | None = None) -> str:
    """Canonical JSON: points sorted by id, weights and edges sorted."""
    lines = ["{"]
    lines.append(f'  "torus_rank": {data.torus_rank},')
    lines.append(f'  "half_dim": {data.half_dim},')
    lines.append(f'  "torus_manifold": {"true" if data.torus_manifold else "false"},')
    pts = [f'    {{"id": {encode_basestring_ascii(p.id)}, "weights": {_compact(sorted(p.weights))}}}'
           for p in sorted(data.points, key=attrgetter("id"))]
    lines.append('  "fixed_points": [')
    lines.append(",\n".join(pts))
    if graph is not None:
        lines.append("  ],")
        lines.append('  "edges": [')
        es = [f'    {{"from": {encode_basestring_ascii(e.from_id)}, '
              f'"to": {encode_basestring_ascii(e.to_id)}, "label": {_vec_json(e.label)}}}'
              for e in sorted(graph.edges, key=_EDGE_ORDER)]
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
    """The weight classes {w, -w} of one dataset, found once per dataset
    (``FixedPointData._index``), or once per call for a graph whose edge
    labels are not all weight classes.

    ``classes`` maps each weight and edge label, and its negation, to its
    sign and class id, canonicalizing once per class; ``rows`` lists per
    point, in data order, those of its weights; ``reps`` holds per class the
    representative (positive leading entry); ``order`` sorts the classes by
    representative; ``points`` pairs each point with its row in id order;
    per class ``carriers`` holds the ids at +w and at -w in id order and
    ``packed`` the packed int of rep; ``at`` maps each id to its weights and
    their packed ints; ``splits`` keeps the residue buckets of each class
    once ``split`` has found them, and ``pairing``, ``gkm``, ``directions``,
    ``unbalanced`` and ``certified`` their values once read.  Nothing else
    changes after construction, so every check on one dataset can share one
    index.  It holds no reference to the data that keeps it: no cycle.

    A vector v packs to P(v) = sum v_i 2^(s i).  Packing is linear, so the
    residue of u mod w packs to P(u) - c P(w) with c as in ``residue_mod``.
    With M the largest |entry| over the weights and labels, |c| <= M and
    every residue coordinate lies below M + M^2 in absolute value; the
    width s is the least with 2^(s-1) > M + M^2, which makes packing
    injective on residues: two residues are equal exactly when their
    packed ints are.
    """

    def __init__(self, data: FixedPointData, labels: Iterable[Weight] = ()):
        self.classes, self.reps = classes, reps = {}, []
        self.rows = [[classes.get(w) or self._add(w) for w in p.weights] for p in data.points]
        for w in labels:
            classes.get(w) or self._add(w)
        self.order = sorted(range(len(reps)), key=reps.__getitem__)
        self.points = sorted(zip(data.points, self.rows), key=lambda pr: pr[0].id)
        self.carriers = [([], []) for _ in reps]
        for p, row in self.points:
            for s, c in row:
                self.carriers[c][s < 0].append(p.id)
        m = max(map(abs, chain.from_iterable(reps)), default=0)
        self.width = (m + m * m).bit_length() + 1
        self.packed = packed = [self.pack(rep) for rep in reps]
        self.at = {p.id: (p.weights, [s * packed[c] for s, c in row]) for p, row in self.points}
        self.splits: Dict[int, list[Tuple[list[str], list[str]]]] = {}

    def _add(self, w: Weight) -> Tuple[int, int]:
        s, rep = canonicalize(w)
        c = len(self.reps)  # a new class: each class enters with both signs
        self.reps.append(rep)
        self.classes[rep], self.classes[w if s < 0 else neg(w)] = (1, c), (-1, c)
        return self.classes[w]

    def pack(self, v: Weight) -> int:
        return sum(map(lshift, v, range(0, self.width * len(v), self.width)))

    def residues(self, c: int, pids: Iterable[str]) -> Dict[str, list]:
        """Packed residues mod class c of the weights at each point, in data
        order; u mod w is u mod -w for both signs."""
        rep, pw, at = self.reps[c], self.packed[c], self.at
        j = pivot_index(rep)
        d = rep[j]
        return {pid: [pu - u[j] // d * pw for u, pu in zip(*at[pid])] for pid in pids}

    @cached_property
    def pairing(self) -> ValidationReport:
        """Per class the counts of +w and -w."""
        counts = [(self.reps[c], *map(len, self.carriers[c])) for c in self.order]
        bad = [(rep, f"{rep}: {a} vs {b} negated") for rep, a, b in counts if a != b]
        return _single("pairing", not bad, tuple(w for w, _ in bad),
                       note="; ".join(note for _, note in bad))

    @cached_property
    def directions(self) -> list[int]:
        """Per class the id of its primitive direction rep / gcd(rep)."""
        lines: Dict[Weight, int] = {}
        return [lines.setdefault(rep if (g := gcd(*rep)) == 1 else
                                 tuple(a // g for a in rep), len(lines)) for rep in self.reps]

    @cached_property
    def gkm(self) -> ValidationReport:
        """Per point the ``directions`` of its weights must differ."""
        witnesses = []
        for p, row in self.points:
            dirs = [self.directions[c] for _, c in row]
            if len(set(dirs)) < len(dirs):
                witnesses.extend((p.id, u, v) for (u, a), (v, b)
                                 in combinations(zip(p.weights, dirs), 2) if a == b)
        return _single("gkm", not witnesses, tuple(witnesses))

    def edge_congruence(self, graph: Multigraph) -> ValidationReport:
        witnesses = []
        for e in sorted(graph.edges, key=_EDGE_ORDER):
            edge = (e.from_id, e.to_id, e.label)
            if e.from_id in self.at and e.to_id in self.at:
                res = self.residues(self.classes[e.label][1], edge[:2])
                if sorted(res[e.from_id]) == sorted(res[e.to_id]):
                    continue
            witnesses.append(edge)
        return _single("edge_congruence", not witnesses, tuple(witnesses))

    def describes(self, graph: Multigraph) -> ValidationReport:
        witnesses = []
        if set(graph.vertex_ids) != set(self.at):
            witnesses.append(("vertex_set", tuple(sorted(graph.vertex_ids)),
                              tuple(p.id for p, _ in self.points)))
        else:
            induced: Dict[str, list[Tuple[int, int]]] = {pid: [] for pid in graph.vertex_ids}
            for e in graph.edges:  # (sign, class) ids; weights only in a witness
                s, c = self.classes[e.label]
                induced[e.from_id].append((s, c))
                induced[e.to_id].append((-s, c))
            for p, row in self.points:
                if sorted(induced[p.id]) != sorted(row):
                    got = sorted(tuple(s * a for a in self.reps[c]) for s, c in induced[p.id])
                    witnesses.append((p.id, tuple(got), tuple(sorted(p.weights))))
        return combine_reports(_single("describes", not witnesses, tuple(witnesses)),
                               self.edge_congruence(graph))

    def split(self, c: int) -> Sequence[Tuple[list[str], list[str]]]:
        """(ids at +w, ids at -w) per residue bucket of class c: the
        carriers whose weights have the same sorted residues mod w.  Each
        class is split once per index."""
        if c in self.splits:
            return self.splits[c]
        left, right = self.carriers[c]
        residues = self.residues(c, {*left, *right})
        if len(left) == len(right) == 1 and sorted(residues[left[0]]) == sorted(residues[right[0]]):
            self.splits[c] = [(left, right)]  # one pair: one comparison
            return self.splits[c]
        buckets: Dict[Tuple[int, ...], Tuple[list[str], list[str]]] = {}
        for side, pids in enumerate((left, right)):
            for pid in pids:
                buckets.setdefault(tuple(sorted(residues[pid])), ([], []))[side].append(pid)
        self.splits[c] = list(buckets.values())
        return self.splits[c]

    def buckets(self) -> Iterator[Tuple[Weight, list[str], list[str]]]:
        """(class, ids at its +w, ids at its -w) per residue bucket, classes
        in sorted order.  Within a class {w, -w}, w at p may pair with -w
        at q exactly when the weight multisets at p and q have the same
        sorted residues mod w, so a describing multigraph exists exactly
        when no class is ``unbalanced``.  Both errors come before the first
        bucket: ValueError on a pairing violation, then MatchingError."""
        pairing = self.pairing.results[0]
        if not pairing.passed:
            raise ValueError(f"pairing violation, no multigraph can describe the data: "
                             f"{pairing.note}")
        if self.unbalanced:
            rep = self.reps[self.unbalanced[0]]
            raise MatchingError(rep, f"no congruent matching for weight class {rep}")
        for c in self.order:  # ``unbalanced`` has split every class
            for plus, minus in self.splits[c]:
                yield self.reps[c], plus, minus

    @cached_property
    def unbalanced(self) -> list[int]:
        """The classes, in ``order``, with a residue bucket whose sides differ."""
        return list(dict.fromkeys(c for c in self.order for a, b in self.split(c)
                                  if len(a) != len(b)))

    @cached_property
    def certified(self) -> bool:
        """The localization certificate: ``gkm``, ``pairing``, no ``unbalanced`` class."""
        return self.gkm.passed and self.pairing.passed and not self.unbalanced

    def non_basis_point(self, points: Sequence[FixedPoint]) -> FixedPoint | None:
        """The first of the data's points (in data order, as ``rows``)
        whose n weights of length n are not a lattice basis.

        A basis certifies its residue buckets.  Let the weights at p be a
        basis and q share p's bucket of class {w, -w}.  Then w is the only
        weight at p that is 0 mod w, so the weights at q are +-w and the
        others at p each moved by a multiple of w, and their determinant
        is +- that at p.  Points are read in data order: the first one not
        yet certified takes a ``det``, and if it is a basis every point
        reachable from it through shared buckets is certified.  Each class
        is split into buckets at most once, and the walk ends once every
        point is certified."""
        rows = {p.id: row for p, row in zip(points, self.rows)}
        members: Dict[int, Dict[str, list[str]]] = {}  # per class: id -> its bucket
        certified: set[str] = set()
        for p in points:
            if p.id in certified:
                continue
            if not is_unimodular_basis(p.weights):
                return p
            certified.add(p.id)
            todo = [p.id]
            while todo and len(certified) < len(rows):
                pid = todo.pop()
                for _, c in rows[pid]:
                    if c not in members:
                        members[c] = {q: bucket for plus, minus in self.split(c)
                                      for bucket in [plus + minus] for q in bucket}
                    fresh = [q for q in members[c][pid] if q not in certified]
                    certified.update(fresh)
                    todo += fresh
        return None


# ---------------------------------------------------------------------------
# checks


def _graph_index(data: FixedPointData, graph: Multigraph) -> _WeightIndex:
    """The data's index, or its own one with the graph's labels when a
    label is not a weight class of the data.  Raises ValueError on the
    first edge whose label does not have ``torus_rank`` entries."""
    index = data._index
    if all(e.label in index.classes for e in graph.edges):
        return index
    for e in graph.edges:
        if len(e.label) != data.torus_rank:
            raise ValueError(f"label {e.label} of edge {e.from_id}->{e.to_id} "
                             f"must have {data.torus_rank} entries")
    return _WeightIndex(data, (e.label for e in graph.edges))


def check_pairing(data: FixedPointData) -> ValidationReport:
    """Every weight must occur as often as its negative, globally."""
    return data._index.pairing


def check_weight_sum_zero(data: FixedPointData) -> ValidationReport:
    """The weights must sum to zero; pairing implies it, as they sum to
    sum_c (#w - #(-w)) w over the classes {w, -w}."""
    index = data._index
    total = () if index.pairing.passed else tuple(map(sum, zip(*(
        [(len(a) - len(b)) * x for x in rep] for rep, (a, b) in zip(index.reps, index.carriers)))))
    return _single("weight_sum", not any(total), (total,) if any(total) else ())


def check_gkm(data: FixedPointData) -> ValidationReport:
    """Weights at each point must be pairwise linearly independent: their
    primitive directions (see ``_WeightIndex``) must differ.  Every
    parallel pair is a witness, in pair order."""
    return data._index.gkm


def check_edge_congruence(data: FixedPointData,
                          graph: Multigraph) -> ValidationReport:
    """Endpoint weight multisets of each edge must biject congruently mod
    its label: equal sorted residues (packed ints, see ``_WeightIndex``).
    An edge with an endpoint the data lacks is a witness."""
    return _graph_index(data, graph).edge_congruence(graph)


def check_describes(data: FixedPointData, graph: Multigraph) -> ValidationReport:
    """Does the multigraph describe the data?  Per point, outgoing labels
    plus negated incoming labels must reproduce the declared weight
    multiset, and every edge must pass the congruence check."""
    return _graph_index(data, graph).describes(graph)


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
    weight class with an unbalanced bucket, ValueError before that.  This
    is the only code that makes edges from the buckets; ``validate_all``
    reads their pairs and builds nothing.
    """
    edges = [Edge(u, v, rep) for rep, left, right in data._index.buckets()
             for u, v in _pair_bucket(left, right)]
    edges.sort(key=_EDGE_ORDER)
    return Multigraph(data.ids(), tuple(edges))


def validate_all(data: FixedPointData,
                 graph: Multigraph | None = None) -> ValidationReport:
    """Run every applicable check.  Without a graph, decide whether one can
    be built, and whether loop-free, from the pairs ``_pair_bucket`` makes
    in each residue bucket, the same pairs ``build_multigraph`` turns into
    edges; no graph is built."""
    index = data._index if graph is None else _graph_index(data, graph)
    reports = [index.pairing, check_weight_sum_zero(data), index.gkm]
    if graph is not None:
        reports += [index.describes(graph), check_simple(graph)]
    elif reports[0].passed:
        try:
            loops = any(u == v for _, left, right in index.buckets()
                        for u, v in _pair_bucket(left, right))
        except ValueError as exc:
            reports.append(_single("buildable", False, note=str(exc)))
        else:
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
