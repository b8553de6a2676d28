"""Self-test of the output checks: right outputs pass, corrupted ones fail.

The outputs are built by hand from the expectations, so this needs no
gkmkit.  ``run.py`` runs it in every run, outside the timed interval, and
reports a failed self-test as an incorrect run.  Run alone with
``python3 perfbench/selftest.py``.
"""

from __future__ import annotations

import copy
import json
import sys
from types import SimpleNamespace

import expect


def _cli(code: int, doc) -> tuple[int, str, str]:
    return code, json.dumps(doc), ""


def _cpn_doc(n: int, with_edges: bool) -> dict:
    chars = [[0] * n] + [[int(i == j) for j in range(n)] for i in range(n)]

    def diff(j: int, i: int) -> list[int]:
        return [a - b for a, b in zip(chars[j], chars[i])]

    doc = {"torus_rank": n, "half_dim": n, "torus_manifold": True,
           "fixed_points": [{"id": f"p{i}", "weights": [diff(j, i) for j in range(n + 1) if j != i]}
                            for i in range(n + 1)]}
    if with_edges:
        doc["edges"] = [{"from": f"p{i}", "to": f"p{j}", "label": diff(j, i)}
                        for i in range(n + 1) for j in range(i + 1, n + 1)]
    return doc


def cases():
    """(name, check, right output, corrupted outputs) for every check kind."""
    n = 3
    chern = {"mode": "generic", "failures": [],
             "values": [{"partition": list(p), "value": v}
                        for p, v in expect.cpn_chern(n).items()]}
    wrong_value = copy.deepcopy(chern)
    wrong_value["values"][0]["value"] += 1
    missing = copy.deepcopy(chern)
    missing["values"].pop()
    yield ("chern", lambda out: expect.check_chern(out, n, "generic", expect.cpn_chern(n)),
           _cli(0, chern), [_cli(0, wrong_value), _cli(0, missing), _cli(2, chern)])
    yield ("chern identities",
           lambda out: expect.check_chern(out, n, "generic", euler=4, todd=1),
           _cli(0, chern), [_cli(0, wrong_value)])

    genus = {"chi_y": [1] * (n + 1), "euler": n + 1, "todd": 1, "signature": 0,
             "checks": [{"check": "chi_y_symmetry", "passed": True, "note": ""}]}
    bad_genus = dict(genus, chi_y=[1, 2, 1, 1])
    yield ("genus", lambda out: expect.check_genus(out, [1] * (n + 1), expect.chi_y_facts([1] * (n + 1))),
           _cli(0, genus), [_cli(0, bad_genus), _cli(0, dict(genus, euler=5))])

    full = _cpn_doc(n, with_edges=True)
    bare = _cpn_doc(n, with_edges=False)
    checks = expect.expected_checks(full)
    report = [{"check": c, "passed": p, "witnesses": [], "note": ""} for c, p in checks.items()]
    flipped = copy.deepcopy(report)
    flipped[-1]["passed"] = False
    yield ("validate", lambda out: expect.check_validate(out, checks),
           _cli(0, report), [_cli(2, flipped), _cli(2, report)])

    dropped = copy.deepcopy(full)
    dropped["edges"].pop()
    relabeled = copy.deepcopy(full)
    relabeled["edges"][0]["label"] = [2 * a for a in relabeled["edges"][0]["label"]]
    looped = copy.deepcopy(full)
    looped["edges"][0]["to"] = looped["edges"][0]["from"]
    yield ("built graph", lambda out: expect.check_built_graph(out, bare, loop_free=True),
           _cli(0, full), [_cli(0, dropped), _cli(0, relabeled), _cli(0, looped)])

    petrie = {"verdict": "match", "base_point": "p0",
              "basis": [[int(i == j) for j in range(n)] for i in range(n)],
              "relabeling": {f"p{i}": i for i in range(n + 1)},
              "simplex": [[0] * n] + [[int(i == j) for j in range(n)] for i in range(n)],
              "gl_normalized_equal": True, "graph_consistent": None,
              "invariants": {"chi_y": [1] * (n + 1),
                             "chern": chern["values"]}}
    swapped = copy.deepcopy(petrie)
    swapped["relabeling"]["p1"], swapped["relabeling"]["p2"] = 2, 1
    wrong_basis = copy.deepcopy(petrie)
    wrong_basis["basis"][0] = [1, 1, 0]
    wrong_inv = copy.deepcopy(petrie)
    wrong_inv["invariants"]["chern"] = wrong_value["values"]
    yield ("petrie match", lambda out: expect.check_petrie_match(out, bare, n),
           _cli(0, petrie), [_cli(0, swapped), _cli(0, wrong_basis), _cli(0, wrong_inv),
                             _cli(2, dict(petrie, verdict="no-match"))])
    def vanishing(passed: bool) -> SimpleNamespace:
        return SimpleNamespace(passed=passed,
                               results=[SimpleNamespace(witnesses=[((1,), "1/2")])])

    yield ("lower-degree vanishing", expect.check_vanishing, vanishing(True),
           [vanishing(False)])
    yield ("petrie verdict", lambda out: expect.check_petrie_verdict(out, "no-match"),
           _cli(2, {"verdict": "no-match"}),
           [_cli(0, {"verdict": "match"}), _cli(2, {"verdict": "match"})])


def run_selftest() -> list[str]:
    """Names of checks that accepted a corrupted output or rejected a right one."""
    problems = []
    for name, check, right, corrupted in cases():
        if check(right) is not None:
            problems.append(f"{name}: rejected a right output ({check(right)})")
        for i, out in enumerate(corrupted):
            if check(out) is None:
                problems.append(f"{name}: accepted corruption #{i}")
    return problems


if __name__ == "__main__":
    found = run_selftest()
    for line in found:
        print(line)
    print("selftest:", "FAIL" if found else "ok")
    sys.exit(1 if found else 0)
