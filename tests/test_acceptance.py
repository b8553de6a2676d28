"""Acceptance gate: one test per shipped guarantee, with timing budgets.

Each test prints a single PASS line (with its runtime where a budget
applies); a failing guarantee shows up as the pytest FAIL line instead.
"""

import random
import time

from gkmkit import (
    FixedPointData,
    all_entries,
    check_describes,
    check_lower_degree_vanishing,
    check_pairing,
    check_simple,
    check_weight_sum_zero,
    chern_number,
    chern_report,
    chi_y,
    cpn,
    fano,
    partitions,
    petrie_verify,
    positivity,
    s6,
    s6_blowup,
    symmetry,
    transform,
)
from gkmkit.genus import NonGenericCircleError
from gkmkit.weights import apply_matrix, sub

from conftest import mutate_one_weight, random_relabel, random_unimodular, shuffled


def _report(num: int, label: str, elapsed: float | None = None,
            budget: float | None = None) -> None:
    suffix = ""
    if elapsed is not None:
        suffix = f" ({elapsed:.2f}s" + (f", budget {budget:.0f}s)" if budget else ")")
    print(f"criterion {num} [{label}]: PASS{suffix}")


def test_criterion_1_model_genus_regression():
    rng = random.Random(101)
    start = time.perf_counter()
    for n in range(1, 9):
        for _ in range(100):
            rows = random_unimodular(rng, n)
            entry = cpn(n, basis=rows)
            assert chi_y(entry.data).coeffs == (1,) * (n + 1), (n, rows)
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    _report(1, "chi_y of the linear model, 100 random bases per dimension",
            elapsed, 5.0)


def test_criterion_2_sphere_genera():
    rng = random.Random(202)
    start = time.perf_counter()
    done = 0
    while done < 100:
        a = (rng.randint(-9, 9), rng.randint(-9, 9))
        b = (rng.randint(-9, 9), rng.randint(-9, 9))
        if a[0] * b[1] - a[1] * b[0] == 0:
            continue
        done += 1
        sphere = chi_y(s6(a, b).data)
        blowup = chi_y(s6_blowup(a, b).data)
        assert sphere.coeffs == (0, 1, 1, 0), (a, b)
        assert sphere.as_y_string() == "-y + y^2"
        assert blowup.coeffs == (0, 2, 2, 0), (a, b)
        assert blowup.as_y_string() == "-2y + 2y^2"
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    _report(2, "six-sphere and blowup genera over 100 parameter pairs",
            elapsed, 1.0)


def test_criterion_3_one_dimensional_torus_fixtures():
    for variant in ("V5", "V22"):
        entry = fano(variant)
        data, graph = entry.data, entry.graph
        assert check_pairing(data).passed, variant
        assert check_weight_sum_zero(data).passed, variant
        assert check_describes(data, graph).passed, variant
        assert not check_simple(graph).passed, variant
        genus = chi_y(data)
        assert genus.coeffs == (1, 1, 1, 1), variant
        assert genus.as_y_string() == "1 - y + y^2 - y^3"
    _report(3, "threefold fixtures: describing but non-simple graph, model genus")


def test_criterion_4_lower_degree_vanishing():
    for n in range(1, 6):
        rep = check_lower_degree_vanishing(cpn(n).data, "generic")
        assert rep.passed, ("generic", n)
    for n in range(1, 4):
        rep = check_lower_degree_vanishing(cpn(n).data, "expanded")
        assert rep.passed, ("expanded", n)
    _report(4, "localized integrals of low-degree classes vanish in both modes")


def test_criterion_5_chern_numbers():
    start = time.perf_counter()
    cp2 = cpn(2).data
    cp3 = cpn(3).data
    # frozen constants, re-confirmed in both evaluation modes
    for mode in ("generic", "expanded"):
        assert chern_number(cp2, (1, 1), mode) == 9
        assert chern_number(cp2, (2,), mode) == 3
        assert chern_number(cp3, (3,), mode) == 4
        assert chern_number(cp3, (1, 1, 1), mode) == 64
        assert chern_number(cp3, (2, 1), mode) == 24
    # integrality (and mode consistency) across every partition up to dim 4
    for n in range(1, 5):
        data = cpn(n).data
        for part in partitions(n):
            value = chern_number(data, part, "generic")
            assert isinstance(value, int), (n, part)
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    _report(5, "Chern oracles agree across modes; all partitions integral",
            elapsed, 10.0)


def test_criterion_6_model_recognition_roundtrip():
    rng = random.Random(606)
    start = time.perf_counter()
    chars_by_n = {
        n: [tuple(0 for _ in range(n))] + [
            tuple(1 if i == j else 0 for i in range(n)) for j in range(n)]
        for n in range(2, 7)}
    for n in range(2, 7):
        chars = chars_by_n[n]
        for _ in range(50):
            rows = random_unimodular(rng, n)
            moved = transform(cpn(n).data, rows)
            renamed, mapping = random_relabel(rng, moved, prefix="r")
            data = shuffled(rng, renamed)
            report = petrie_verify(data)
            assert report.matched, (n, rows)
            back = {new: old for old, new in mapping.items()}
            m = int(back[report.base_point][1:])
            expect = sorted(apply_matrix(rows, sub(chars[j], chars[m]))
                            for j in range(n + 1) if j != m)
            assert sorted(report.basis) == expect, (n, rows)
    flipped = 0
    for i in range(500):
        n = 2 + i % 5
        rows = random_unimodular(rng, n)
        mutant = mutate_one_weight(rng, transform(cpn(n).data, rows))
        verdict = petrie_verify(mutant).verdict
        assert verdict in ("no-match", "precondition-failed"), (n, i)
        flipped += 1
    assert flipped == 500
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    _report(6, "250 disguised models recognized, 500 single-weight mutants refused",
            elapsed, 30.0)


def test_criterion_7_property_suites():
    rng = random.Random(707)
    # circle independence of the genus
    for entry in all_entries():
        base = chi_y(entry.data).coeffs
        k = entry.data.torus_rank
        tried = 0
        while tried < 50:
            xi = tuple(rng.randint(-9, 9) for _ in range(k))
            try:
                coeffs = chi_y(entry.data, xi).coeffs
            except NonGenericCircleError:
                continue
            tried += 1
            assert coeffs == base, (entry.name, xi)
    # palindromic coefficients and point count
    for entry in all_entries():
        assert symmetry(chi_y(entry.data).coeffs).passed, entry.name
        assert chi_y(entry.data).euler == len(entry.data.points), entry.name
    # basis-change invariance of Chern numbers
    for entry in (cpn(2), cpn(3), s6(), s6_blowup(), fano("V5")):
        base_values = chern_report(entry.data).values
        k = entry.data.torus_rank
        for _ in range(5):
            rows = random_unimodular(rng, k)
            moved = transform(entry.data, rows)
            assert chern_report(moved).values == base_values, entry.name
    # the recognition verdict cannot depend on which point is the base
    for n in (2, 3, 4):
        for _ in range(8):
            renamed, _ = random_relabel(rng, cpn(n).data, prefix="b")
            assert petrie_verify(renamed).matched, n
    mutant = mutate_one_weight(rng, cpn(3).data)
    for _ in range(8):
        renamed, _ = random_relabel(rng, mutant, prefix="b")
        assert not petrie_verify(renamed).matched
    _report(7, "circle independence, symmetry, point count, basis and "
               "base-point invariance")


def test_criterion_8_positivity_coverage():
    flagged = [e for e in all_entries() if e.data.torus_manifold]
    assert flagged, "catalog must carry torus-manifold entries"
    for entry in flagged:
        rep = positivity(chi_y(entry.data).coeffs)
        assert rep.passed, entry.name
    # a synthetic violation must be reported as unrealizable, not as an error
    full = cpn(2).data
    points = tuple(p for p in full.points if p.id != "p2")
    dented = FixedPointData(2, 2, points, torus_manifold=True)
    rep = positivity(chi_y(dented).coeffs)
    assert not rep.passed
    res = rep.result("chi_y_positivity")
    assert res.witnesses == ((2, 0),)
    assert "unrealizable" in res.note
    _report(8, "positive genus coefficients on flagged data, witness otherwise")
