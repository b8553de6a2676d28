"""Seeded inputs and job lists of the two workloads.

Every input is made from the workload seed, written as a JSON file in
gkmkit's input format, and only then handed to gkmkit: CLI jobs get the
path, library jobs get the data gkmkit parses from that path.  Each job
carries its own independent expectation (see ``expect``).

Why each workload exists:

* ``invariants``: three job families that compute or compare invariants
  and never build a graph, so ``matching`` does no work:

  - generic-mode ``chern``/``genus`` on disguised CP^n plus lower-degree
    vanishing: ``localization`` and the scalar side of ``weights``;
  - ``petrie --up-to-gl`` on disguised CP^n (match), on single-weight
    mutants that stay torus-manifold data (no match), and on the
    ambiguous-candidate family (no match after full backtracking), whose
    time is spent in ``petrie`` itself;
  - ``chern --mode expanded``, the only jobs that run the symbolic
    ``weights`` layer (polynomials, factored fractions, cancellation).

* ``graphs``: graph building, validation by building, and validation of
  supplied edges on disguised CP^n, plus rank-one disjoint spheres.
  ``model`` and ``matching`` do nearly all the work, ``localization``
  none.

The "large" jobs are the tops of the generic ``chern`` ladder and of the
ambiguous Petrie ladder (``invariants``) and of the CP^n ladder
(``graphs``).  Expanded mode runs on six disguised CP^3 and on the
catalog, whose CP^4 has the standard basis.  A disguised CP^4 is left
out: its expanded-mode cost depends on the basis and on the order of the
points (the order in which fractions are summed and cancelled), from
130 to 420 ms over forty instances on a 2-vCPU Xeon VM, so one seed's
instance would say more about the seed than about the code.  Six CP^3
instances average that out.

One sweep takes 0.6 to 1.4 s on that VM, so a 54 s run holds 40 to 90
sweeps, enough for a tail percentile with ten sweeps beyond it.
"""

from __future__ import annotations

import io
import json
import os
import random
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from typing import Callable

import expect

WORKLOADS = ("invariants", "graphs")

# Seed kept out of all tuning; use it only to confirm a claimed gain.
HELD_OUT_SEED = 20261017

INVARIANTS_LADDER = (4, 6, 8, 10)
VANISHING_LADDER = (3, 4, 5)
GRAPH_LADDER = (8, 12, 16)
SPHERE_LADDER = (60, 240)
PETRIE_MATCH_LADDER = (3, 5, 7, 9)
PETRIE_MUTANT_LADDER = (4, 6, 8)
PETRIE_ADVERSARIAL_LADDER = (6, 7)
# Disguised CP^3 instances for expanded mode; CP^4 comes from the catalog.
EXPANDED_DISGUISED = (3,) * 6


@dataclass
class Job:
    """One call into gkmkit.  ``group`` is "small" for catalog-sized jobs,
    "large" for the top of the workload's size ladder, "" otherwise."""

    name: str
    group: str
    run: Callable[[], object]
    check: Callable[[object], str | None]
    checked: object = field(default=None, repr=False)


# ---------------------------------------------------------------------------
# datasets as plain JSON documents


def unimodular(rng: random.Random, n: int) -> list[list[int]]:
    """Random determinant +-1 matrix: 2n transvections by +-1, a row
    shuffle and random row signs."""
    m = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(2 * n if n > 1 else 0):
        i, j = rng.sample(range(n), 2)
        c = rng.choice((-1, 1))
        m[j] = [a + c * b for a, b in zip(m[j], m[i])]
    rng.shuffle(m)
    return [[-a for a in row] if rng.random() < 0.5 else row for row in m]


def _doc(k: int, n: int, points, edges=None, torus_manifold=False) -> dict:
    doc = {"torus_rank": k, "half_dim": n, "torus_manifold": torus_manifold,
           "fixed_points": [{"id": pid, "weights": [list(w) for w in ws]}
                            for pid, ws in points]}
    if edges is not None:
        doc["edges"] = [{"from": u, "to": v, "label": list(w)} for u, v, w in edges]
    return doc


def _disguise(rng: random.Random, doc: dict) -> dict:
    """Fresh shuffled ids, shuffled point and weight order, random edge
    directions (a reversed edge carries the negated label)."""
    ids = [p["id"] for p in doc["fixed_points"]]
    names = rng.sample(range(10 * len(ids) + 10), len(ids))
    rename = {pid: f"x{name}" for pid, name in zip(ids, names)}
    points = []
    for p in doc["fixed_points"]:
        ws = list(p["weights"])
        rng.shuffle(ws)
        points.append({"id": rename[p["id"]], "weights": ws})
    rng.shuffle(points)
    out = dict(doc, fixed_points=points)
    if "edges" in doc:
        edges = []
        for e in doc["edges"]:
            u, v, w = rename[e["from"]], rename[e["to"]], e["label"]
            if rng.random() < 0.5:
                u, v, w = v, u, [-a for a in w]
            edges.append({"from": u, "to": v, "label": w})
        rng.shuffle(edges)
        out["edges"] = edges
    return out


def entry_doc(entry, with_edges: bool = True) -> dict:
    """A gkmkit catalog entry as a JSON document."""
    d = entry.data
    edges = None
    if with_edges and entry.graph is not None:
        edges = [(e.from_id, e.to_id, e.label) for e in entry.graph.edges]
    return _doc(d.torus_rank, d.half_dim, [(p.id, p.weights) for p in d.points],
                edges, d.torus_manifold)


def disguised_cpn(gk, rng: random.Random, n: int, with_edges: bool) -> dict:
    """CP^n with a random lattice basis of characters, relabeled and shuffled."""
    basis = tuple(tuple(r) for r in unimodular(rng, n))
    return _disguise(rng, entry_doc(gk.catalog.cpn(n, basis), with_edges))


def spheres(rng: random.Random, m: int) -> dict:
    """m disjoint 2-spheres under a circle: 2m points of weight +1 or -1."""
    points = [(f"a{i}", [(1,)]) for i in range(m)] + [(f"b{i}", [(-1,)]) for i in range(m)]
    return _disguise(rng, _doc(1, 1, points))


def petrie_mutant(rng: random.Random, doc: dict) -> dict:
    """Replace one weight w_k at one point by w_k + t*w_l (l != k, t != 0).

    The point's weights stay a lattice basis, so the file still parses as
    torus-manifold data.  The global weight multiset is no longer closed
    under negation (w_k lost an occurrence, -w_k did not), so no linear
    model can match: the verdict is known to be no-match.
    """
    points = [dict(p, weights=[list(w) for w in p["weights"]]) for p in doc["fixed_points"]]
    p = rng.choice(points)
    k, l = rng.sample(range(len(p["weights"])), 2)
    t = rng.choice((-2, -1, 1, 2))
    p["weights"][k] = [a + t * b for a, b in zip(p["weights"][k], p["weights"][l])]
    return dict(doc, fixed_points=points)


def ambiguous(rng: random.Random, n: int) -> dict:
    """Base point with a lattice basis b_i, n other points each with {-b_i}.

    Every other point accepts every base weight, so reconstruction tries
    all n! assignments before answering no-match.
    """
    basis = unimodular(rng, n)
    points = [("base", basis)] + [(f"q{i}", [[-a for a in b] for b in basis])
                                  for i in range(n)]
    return _disguise(rng, _doc(n, n, points, torus_manifold=True))


# ---------------------------------------------------------------------------
# jobs


def cli_job(gk, argv: list[str]) -> Callable[[], object]:
    """In-process ``gkmkit.cli.main(argv)`` with stdout and stderr captured."""
    def run():
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = gk.cli.main(argv)
        return code, out.getvalue(), err.getvalue()
    return run


class Builder:
    """Writes the input files of one workload and collects its jobs."""

    def __init__(self, gk, directory: str):
        self.gk = gk
        self.dir = directory
        self.jobs: list[Job] = []

    def write(self, name: str, doc: dict) -> str:
        path = os.path.join(self.dir, name + ".json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        return path

    def cli(self, name: str, group: str, argv: list[str], check) -> None:
        self.jobs.append(Job(name, group, cli_job(self.gk, argv), check))

    def catalog(self) -> list[tuple[object, str, dict, str]]:
        """Each catalog entry with its job group, document and file (edges
        included).  Entries of half dimension at most 3 are the small jobs;
        cp4 is catalog-sized but costs far more than parsing in expanded mode."""
        out = []
        for entry in self.gk.catalog.all_entries():
            doc = entry_doc(entry)
            group = "small" if doc["half_dim"] <= 3 else ""
            out.append((entry, group, doc, self.write("cat_" + entry.name, doc)))
        return out


def _catalog_checks(entry, doc: dict) -> dict[str, bool]:
    """Independent validate verdicts, cross-checked with the entry's
    documented ``expected`` dict wherever it names the same check."""
    checks = expect.expected_checks(doc)
    for key, want in entry.expected.items():
        if key in checks and checks[key] != want:
            raise RuntimeError(f"benchmark disagrees with catalog {entry.name} on {key}")
    return checks


def _chern_catalog(b: Builder, catalog, mode: str) -> None:
    label = "chern" if mode == "generic" else f"chern {mode}"
    for entry, group, doc, path in catalog:
        ex = entry.expected
        n = doc["half_dim"]
        argv = ["chern", path, "--json"] + (["--mode", mode] if mode != "generic" else [])
        b.cli(f"{label} {entry.name}", group, argv,
              lambda out, n=n, ex=ex: expect.check_chern(
                  out, n, mode, euler=ex["euler"], todd=ex.get("todd")))


def _generic(b: Builder, rng: random.Random, catalog) -> None:
    gk = b.gk
    top = INVARIANTS_LADDER[-1]
    for n in INVARIANTS_LADDER:
        path = b.write(f"cp{n}", disguised_cpn(gk, rng, n, with_edges=False))
        values = expect.cpn_chern(n)
        b.cli(f"chern cp{n}", "large" if n == top else "", ["chern", path, "--json"],
              lambda out, n=n, v=values: expect.check_chern(out, n, "generic", v))
        ones = [1] * (n + 1)
        b.cli(f"genus cp{n}", "", ["genus", path, "--json"],
              lambda out, c=ones: expect.check_genus(out, c, expect.chi_y_facts(c)))
    for n in VANISHING_LADDER:
        path = b.write(f"vanish_cp{n}", disguised_cpn(gk, rng, n, with_edges=False))
        b.jobs.append(Job(
            f"lower-degree cp{n}", "",
            lambda p=path: gk.localization.check_lower_degree_vanishing(
                gk.model.load_path(p)[0]),
            expect.check_vanishing))
    _chern_catalog(b, catalog, "generic")
    for entry, group, doc, path in catalog:
        chi = list(entry.expected["chi_y"])
        facts = {k: entry.expected[k] for k in ("euler", "todd", "signature")
                 if k in entry.expected}
        b.cli(f"genus {entry.name}", group, ["genus", path, "--json"],
              lambda out, c=chi, f=facts: expect.check_genus(out, c, f))


def _petrie(b: Builder, rng: random.Random, catalog) -> None:
    gk = b.gk
    top = PETRIE_ADVERSARIAL_LADDER[-1]
    for n in PETRIE_MATCH_LADDER:
        doc = disguised_cpn(gk, rng, n, with_edges=False)
        path = b.write(f"match_cp{n}", doc)
        b.cli(f"petrie cp{n}", "", ["petrie", path, "--up-to-gl", "--json"],
              lambda out, d=doc, n=n: expect.check_petrie_match(out, d, n))
    for n in PETRIE_MUTANT_LADDER:
        doc = petrie_mutant(rng, disguised_cpn(gk, rng, n, with_edges=False))
        path = b.write(f"mutant_cp{n}", doc)
        b.cli(f"petrie mutant cp{n}", "", ["petrie", path, "--up-to-gl", "--json"],
              lambda out: expect.check_petrie_verdict(out, "no-match"))
    for n in PETRIE_ADVERSARIAL_LADDER:
        path = b.write(f"ambiguous{n}", ambiguous(rng, n))
        b.cli(f"petrie ambiguous{n}", "large" if n == top else "",
              ["petrie", path, "--up-to-gl", "--json"],
              lambda out: expect.check_petrie_verdict(out, "no-match"))
    for entry, group, doc, path in catalog:
        if entry.data.torus_manifold:
            n = doc["half_dim"]
            check = (lambda out, d=doc, n=n: expect.check_petrie_match(out, d, n))
        else:
            check = (lambda out: expect.check_petrie_verdict(out, "precondition-failed"))
        b.cli(f"petrie {entry.name}", group, ["petrie", path, "--up-to-gl", "--json"],
              check)


def _expanded(b: Builder, rng: random.Random, catalog) -> None:
    gk = b.gk
    for i, n in enumerate(EXPANDED_DISGUISED):
        path = b.write(f"cp{n}_{i}", disguised_cpn(gk, rng, n, with_edges=False))
        b.cli(f"chern expanded cp{n}#{i}", "",
              ["chern", path, "--mode", "expanded", "--json"],
              lambda out, n=n, v=expect.cpn_chern(n): expect.check_chern(
                  out, n, "expanded", v))
    _chern_catalog(b, catalog, "expanded")


def build_invariants(b: Builder, rng: random.Random) -> None:
    catalog = b.catalog()
    _generic(b, rng, catalog)
    _petrie(b, rng, catalog)
    _expanded(b, rng, catalog)


def build_graphs(b: Builder, rng: random.Random) -> None:
    gk = b.gk
    top = GRAPH_LADDER[-1]
    for n in GRAPH_LADDER:
        group = "large" if n == top else ""
        bare = disguised_cpn(gk, rng, n, with_edges=False)
        bare_path = b.write(f"cp{n}", bare)
        full = disguised_cpn(gk, rng, n, with_edges=True)
        full_path = b.write(f"cp{n}_edges", full)
        b.cli(f"graph --build cp{n}", group,
              ["graph", bare_path, "--build", "--format", "json"],
              lambda out, d=bare: expect.check_built_graph(out, d, loop_free=True))
        b.cli(f"validate cp{n}", group, ["validate", bare_path, "--json"],
              lambda out, c=expect.expected_checks(bare): expect.check_validate(
                  out, c, note="built, loop-free"))
        b.cli(f"validate cp{n} edges", group, ["validate", full_path, "--json"],
              lambda out, c=expect.expected_checks(full): expect.check_validate(out, c))
    for m in SPHERE_LADDER:
        doc = spheres(rng, m)
        path = b.write(f"spheres{m}", doc)
        b.cli(f"validate spheres{m}", "", ["validate", path, "--json"],
              lambda out, c=expect.expected_checks(doc): expect.check_validate(
                  out, c, note="built, loop-free"))
    for entry, group, doc, path in b.catalog():
        b.cli(f"validate {entry.name}", group, ["validate", path, "--json"],
              lambda out, c=_catalog_checks(entry, doc): expect.check_validate(out, c))
        bare = entry_doc(entry, with_edges=False)
        bare_path = b.write("bare_" + entry.name, bare)
        b.cli(f"graph --build {entry.name}", group,
              ["graph", bare_path, "--build", "--format", "json"],
              lambda out, d=bare: expect.check_built_graph(out, d, loop_free=False))


BUILDERS = {"invariants": build_invariants, "graphs": build_graphs}


def build(gk, workload: str, seed: int, directory: str) -> list[Job]:
    """Generate the workload's inputs from the seed, write them, return its jobs."""
    os.makedirs(directory, exist_ok=True)
    b = Builder(gk, directory)
    BUILDERS[workload](b, random.Random(f"{workload}:{seed}"))
    return b.jobs
