"""Independent expectations for gkmkit outputs.

Nothing here imports gkmkit: every expected value is derived from how an
input was constructed (linear CP^n, disjoint spheres, Petrie mutants) or
from a catalog entry's documented ``expected`` dict, and graphs are
checked by a direct O(E) pass.  Each ``check_*`` function takes the raw
outcome of a job and returns ``None`` when it is right, or a one-line
reason when it is not.

A dataset is a plain dict in gkmkit's JSON input format, with weights and
edge labels as lists of integers.
"""

from __future__ import annotations

import json
from collections import Counter
from fractions import Fraction
from math import comb, prod


# ---------------------------------------------------------------------------
# facts about the inputs, computed without gkmkit


def partitions(m: int) -> list[tuple[int, ...]]:
    """Weakly decreasing partitions of m."""
    out = []

    def gen(rest: int, cap: int, head: tuple[int, ...]) -> None:
        if rest == 0:
            out.append(head)
            return
        for first in range(min(rest, cap), 0, -1):
            gen(rest - first, first, head + (first,))

    gen(m, m, ())
    return out


def cpn_chern(n: int) -> dict[tuple[int, ...], int]:
    """Chern numbers of CP^n: c = (1 + x)^(n+1), so c_lambda = prod C(n+1, l_i)."""
    return {p: prod(comb(n + 1, x) for x in p) for p in partitions(n)}


def todd_from_chern(n: int, c: dict[tuple[int, ...], int]):
    """Todd genus as the Hirzebruch polynomial in the Chern numbers (n <= 4)."""
    if n == 1:
        return Fraction(c[(1,)], 2)
    if n == 2:
        return Fraction(c[(1, 1)] + c[(2,)], 12)
    if n == 3:
        return Fraction(c[(2, 1)], 24)
    if n == 4:
        return Fraction(-c[(4,)] + c[(3, 1)] + 3 * c[(2, 2)] + 4 * c[(2, 1, 1)]
                        - c[(1, 1, 1, 1)], 720)
    raise ValueError(f"no Todd polynomial for half_dim {n}")


def _residue(u, w) -> tuple[int, ...]:
    """Canonical representative of u modulo Z*w (pivot = first non-zero of w)."""
    j = next(i for i, a in enumerate(w) if a)
    c = u[j] // w[j]
    return tuple(a - c * b for a, b in zip(u, w))


def weight_table(ds: dict) -> dict[str, Counter]:
    return {p["id"]: Counter(tuple(w) for w in p["weights"])
            for p in ds["fixed_points"]}


def induced_mismatch(ds: dict, edges: list[dict]) -> str | None:
    """Out-labels plus negated in-labels must give each point's weights."""
    table = weight_table(ds)
    induced = {pid: Counter() for pid in table}
    for e in edges:
        u, v, w = e["from"], e["to"], tuple(e["label"])
        if u not in table or v not in table:
            return f"edge {u}->{v} has an unknown endpoint"
        induced[u][w] += 1
        induced[v][tuple(-a for a in w)] += 1
    for pid, want in table.items():
        if induced[pid] != want:
            return f"edges do not induce the weights at {pid}"
    return None


def incongruent_edge(ds: dict, edges: list[dict]) -> str | None:
    """Endpoint weights of every edge must agree modulo its label, that is,
    have equal sorted residue multisets."""
    table = weight_table(ds)
    for e in edges:
        u, v, w = e["from"], e["to"], tuple(e["label"])
        if not any(w):
            return f"edge {u}->{v} has a zero label"
        ru = sorted(_residue(x, w) for x in table[u].elements())
        rv = sorted(_residue(x, w) for x in table[v].elements())
        if ru != rv:
            return f"edge {u}->{v} label {list(w)}: endpoint weights not congruent"
    return None


def describes(ds: dict, edges: list[dict]) -> str | None:
    """Does the edge list describe the data?  One pass over the edges each."""
    return induced_mismatch(ds, edges) or incongruent_edge(ds, edges)


def simple(edges: list[dict]) -> bool:
    pairs = Counter(frozenset((e["from"], e["to"])) for e in edges)
    return all(e["from"] != e["to"] for e in edges) and all(
        c == 1 for c in pairs.values())


def expected_checks(ds: dict) -> dict[str, bool]:
    """Pass/fail of each check gkmkit's validate runs, decided independently."""
    all_w = [tuple(w) for p in ds["fixed_points"] for w in p["weights"]]
    counts = Counter(all_w)
    pairing = all(counts[w] == counts[tuple(-a for a in w)] for w in counts)
    weight_sum = not any(sum(col) for col in zip(*all_w)) if all_w else True

    def parallel(u, v) -> bool:
        return all(u[i] * v[j] == u[j] * v[i]
                   for i in range(len(u)) for j in range(i + 1, len(u)))

    gkm = all(not parallel(ws[i], ws[j])
              for p in ds["fixed_points"] for ws in [p["weights"]]
              for i in range(len(ws)) for j in range(i + 1, len(ws)))
    out = {"pairing": pairing, "weight_sum": weight_sum, "gkm": gkm}
    if "edges" in ds:
        out["describes"] = induced_mismatch(ds, ds["edges"]) is None
        out["edge_congruence"] = incongruent_edge(ds, ds["edges"]) is None
        out["simple"] = simple(ds["edges"])
    elif pairing:
        out["buildable"] = True
    return out


def chi_y_facts(coeffs: list[int]) -> dict[str, int]:
    return {"euler": sum(coeffs), "todd": coeffs[0],
            "signature": sum(a * (-1) ** i for i, a in enumerate(coeffs))}


# ---------------------------------------------------------------------------
# output checks


def _json_out(outcome, want_code: int):
    code, stdout, _stderr = outcome
    if code != want_code:
        return None, f"exit code {code}, expected {want_code}"
    try:
        return json.loads(stdout), None
    except json.JSONDecodeError:
        return None, "stdout is not JSON"


def check_chern(outcome, n: int, mode: str, values: dict | None = None,
                euler: int | None = None, todd: int | None = None) -> str | None:
    """`chern --json`: all partitions present, no failures, values right.

    ``values`` gives the full table (CP^n); otherwise the top Chern number
    must be the Euler count and the Hirzebruch polynomial must give Todd.
    """
    doc, err = _json_out(outcome, 0)
    if err:
        return err
    if doc.get("mode") != mode:
        return f"mode {doc.get('mode')!r}, expected {mode!r}"
    if doc.get("failures"):
        return f"unexpected failures {doc['failures']}"
    got = {tuple(v["partition"]): v["value"] for v in doc.get("values", [])}
    if set(got) != set(partitions(n)):
        return "partitions reported differ from the partitions of half_dim"
    if values is not None:
        for p, v in values.items():
            if got[p] != v:
                return f"c{list(p)} = {got[p]}, expected {v}"
    if euler is not None and got[(n,)] != euler:
        return f"top Chern number {got[(n,)]}, expected Euler count {euler}"
    if todd is not None and todd_from_chern(n, got) != todd:
        return f"Chern numbers give Todd {todd_from_chern(n, got)}, expected {todd}"
    return None


def check_genus(outcome, chi: list[int], facts: dict) -> str | None:
    """`genus --json`: coefficients, specializations, and passing checks."""
    doc, err = _json_out(outcome, 0)
    if err:
        return err
    if doc.get("chi_y") != list(chi):
        return f"chi_y {doc.get('chi_y')}, expected {list(chi)}"
    for key, want in facts.items():
        if doc.get(key) != want:
            return f"{key} {doc.get(key)}, expected {want}"
    if not all(c["passed"] for c in doc.get("checks", [])):
        return "a genus check failed"
    return None


def check_validate(outcome, checks: dict[str, bool],
                   note: str | None = None) -> str | None:
    """`validate --json`: the same checks, each with the expected verdict."""
    want_code = 0 if all(checks.values()) else 2
    doc, err = _json_out(outcome, want_code)
    if err:
        return err
    got = {r["check"]: r["passed"] for r in doc}
    if got != checks:
        return f"checks {got}, expected {checks}"
    if note is not None:
        notes = {r["check"]: r["note"] for r in doc}
        if notes.get("buildable") != note:
            return f"buildable note {notes.get('buildable')!r}, expected {note!r}"
    return None


def check_built_graph(outcome, ds: dict, loop_free: bool) -> str | None:
    """`graph --build --format json`: data unchanged and the edges describe it."""
    doc, err = _json_out(outcome, 0)
    if err:
        return err
    for key in ("torus_rank", "half_dim"):
        if doc.get(key) != ds[key]:
            return f"{key} changed"
    if weight_table(doc) != weight_table(ds):
        return "fixed point weights changed"
    edges = doc.get("edges", [])
    reason = describes(ds, edges)
    if reason:
        return reason
    if loop_free and any(e["from"] == e["to"] for e in edges):
        return "built graph has a self-loop"
    return None


def check_petrie_match(outcome, ds: dict, n: int) -> str | None:
    """`petrie --up-to-gl --json` on a linear model: the recovered basis and
    relabeling must rebuild every point's weights, and the invariants must
    be those of CP^n."""
    doc, err = _json_out(outcome, 0)
    if err:
        return err
    if doc.get("verdict") != "match":
        return f"verdict {doc.get('verdict')!r}, expected 'match'"
    basis = [tuple(b) for b in doc.get("basis") or []]
    relab = doc.get("relabeling") or {}
    table = weight_table(ds)
    if len(basis) != n or sorted(relab.values()) != list(range(n + 1)) or set(relab) != set(table):
        return "basis or relabeling has the wrong shape"
    if relab.get(doc.get("base_point")) != 0:
        return "base point is not relabeled 0"
    chars = [(0,) * n] + basis
    for pid, idx in relab.items():
        want = Counter(tuple(a - b for a, b in zip(chars[j], chars[idx]))
                       for j in range(n + 1) if j != idx)
        if table[pid] != want:
            return f"recovered model does not give the weights at {pid}"
    if [tuple(v) for v in doc.get("simplex") or []] != chars:
        return "simplex is not the origin plus the basis"
    if doc.get("gl_normalized_equal") is not True:
        return "gl_normalized_equal is not true"
    if doc.get("graph_consistent") is not (True if "edges" in ds else None):
        return f"graph_consistent {doc.get('graph_consistent')} for the supplied graph"
    inv = doc.get("invariants") or {}
    if inv.get("chi_y") != [1] * (n + 1):
        return f"chi_y {inv.get('chi_y')}, expected all ones"
    got = {tuple(v["partition"]): v["value"] for v in inv.get("chern", [])}
    if got != cpn_chern(n):
        return "Chern numbers differ from those of CP^n"
    return None


def check_petrie_verdict(outcome, verdict: str) -> str | None:
    """Verdict and its documented exit code (no-match 2, precondition 3)."""
    code = {"match": 0, "no-match": 2, "precondition-failed": 3}[verdict]
    doc, err = _json_out(outcome, code)
    if err:
        return err
    if doc.get("verdict") != verdict:
        return f"verdict {doc.get('verdict')!r}, expected {verdict!r}"
    return None


def check_vanishing(report) -> str | None:
    """Lower-degree vanishing holds on real manifolds: every class integrates to 0."""
    if not report.passed:
        return f"lower-degree vanishing failed: {report.results[0].witnesses[:3]}"
    return None
