"""Localization engine: integrals, Chern numbers, modes, consistency checks."""

import functools
import random
import time
from collections import Counter
from fractions import Fraction
from itertools import combinations

import pytest

from gkmkit import (
    FixedPoint,
    FixedPointData,
    InconsistencyError,
    all_entries,
    build_multigraph,
    chern_number,
    chern_report,
    check_gkm,
    check_lower_degree_vanishing,
    chi_y,
    cp3_nongkm,
    cpn,
    fano,
    integrate,
    partitions,
    s6,
    s6_blowup,
    transform,
    validate_all,
)
from gkmkit import localization, model, weights
from gkmkit.weights import poly_const

from conftest import Space, blow_up, product, random_unimodular
from test_model import _kernel_data, _mirrored
from oracle import chern_numerators, localize_sum, poly_const_value, poly_is_const


def certified(data: FixedPointData) -> bool:
    """The localization certificate of the data, on a fresh weight index."""
    return model._WeightIndex(data).certified


def corrupted_cp2() -> FixedPointData:
    """cpn(2) with one weight at p2 changed from (1,-1) to (1,-2)."""
    pts = []
    for p in cpn(2).data.points:
        if p.id == "p2":
            ws = tuple((1, -2) if w == (1, -1) else w for w in p.weights)
            pts.append(FixedPoint(p.id, ws))
        else:
            pts.append(p)
    return FixedPointData(2, 2, tuple(pts))


def two_point_luck() -> FixedPointData:
    """Rank-2 data whose c1^2 sum is 8 at (1,2) and (1,3) but 872/105 at (1,4)."""
    return FixedPointData(2, 2, (
        FixedPoint("p0", ((-3, 3), (3, 1))),
        FixedPoint("p1", ((3, -3), (-1, -1))),
        FixedPoint("p2", ((-3, -1), (1, 1)))))


def refuted_sum() -> FixedPointData:
    """Rank-1 data whose e_1 sum is -2/(3t^2): numerator and denominator
    are single monomials, of different degrees."""
    return FixedPointData(1, 3, (
        FixedPoint("p0", ((-3,), (-3,), (-3,))),
        FixedPoint("p1", ((-2,), (-3,), (1,))),
        FixedPoint("q0", ((3,), (3,), (3,))),
        FixedPoint("q1", ((2,), (3,), (-1,)))))


def random_small_data(rng, ranks=(1, 2)) -> FixedPointData:
    """Rank in ``ranks``, half_dim <= 3, entries in [-3, 3]; half of the
    samples pair each point with its mirror, so that many sums are constant."""
    k, n = rng.choice(ranks), rng.randint(1, 3)

    def weight():
        while True:
            w = tuple(rng.randint(-3, 3) for _ in range(k))
            if any(w):
                return w

    pts = []
    if rng.random() < 0.5:
        for i in range(rng.randint(1, 2)):
            ws = tuple(weight() for _ in range(n))
            pts.append(FixedPoint(f"p{i}", ws))
            pts.append(FixedPoint(f"q{i}", tuple(tuple(-a for a in w) for w in ws)))
    else:
        pts = [FixedPoint(f"p{i}", tuple(weight() for _ in range(n)))
               for i in range(rng.randint(1, 4))]
    return FixedPointData(k, n, tuple(pts))


def factored_sum_value(data: FixedPointData, part):
    """The constant that localize_sum gives for the class, or None."""
    total = localize_sum(data, chern_numerators(data, part))
    if total.is_zero():
        return Fraction(0)
    if total.denominator or not poly_is_const(total.numerator):
        return None
    return poly_const_value(total.numerator)


class TestPartitions:
    def test_zero(self):
        assert partitions(0) == ((),)

    def test_four(self):
        assert partitions(4) == ((4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1))

    @pytest.mark.parametrize("m,count", [(1, 1), (5, 7), (6, 11), (8, 22)])
    def test_counts(self, m, count):
        assert len(partitions(m)) == count

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            partitions(-1)

    def test_equals_recursive_generator_in_order(self):
        def recursive(rest, cap):
            if rest == 0:
                yield ()
                return
            for first in range(min(rest, cap), 0, -1):
                for tail in recursive(rest - first, first):
                    yield (first,) + tail

        for m in range(21):
            assert partitions(m) == tuple(recursive(m, m)), m

    def test_partition_numbers(self):
        counts = (1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42, 56, 77, 101, 135, 176,
                  231, 297, 385, 490, 627)
        assert tuple(len(partitions(m)) for m in range(21)) == counts


class TestIntegrate:
    def test_constant_numerator_vanishes(self):
        data = cpn(2).data
        ones = {p.id: poly_const(2, 1) for p in data.points}
        assert integrate(data, ones) == 0

    def test_e1_squared_on_cp2(self):
        data = cpn(2).data
        nums = chern_numerators(data, (1, 1))
        assert integrate(data, nums) == Fraction(9)

    def test_single_point_top_class(self):
        data = FixedPointData(2, 2, (FixedPoint("p", ((1, 0), (0, 1))),))
        nums = chern_numerators(data, (2,))
        assert integrate(data, nums) == 1

    def test_weightless_data_still_reads_the_point(self):
        # no weight form reads t, but the numerator t_1 does: t_1 / 1 is no constant
        data = FixedPointData(3, 0, (FixedPoint("p", ()),))
        with pytest.raises(InconsistencyError, match="not a constant"):
            integrate(data, {"p": {(1, 0, 0): Fraction(1)}})
        assert integrate(data, {"p": poly_const(3, 5)}) == 5

    @pytest.mark.parametrize("nums, value", [
        ({"p0": {(0,): 1, (1,): 1}, "p1": {(0,): 1, (1,): 1}}, 0),
        ({"p0": {(0,): 1, (1,): 2}, "p1": {(0,): 1, (1,): -1}}, 3),
    ], ids=["same", "differing"])
    def test_numerator_of_mixed_degrees(self, nums, value):
        # a degree-0 term makes the table add an int to a packed polynomial;
        # on cp1, (1 + 2t)/t + (1 - t)/(-t) = 3
        data = cpn(1).data
        assert integrate(data, nums) == value
        total = localize_sum(data, nums)
        assert not total.denominator and poly_const_value(total.numerator) == value

    def test_exponents_of_the_wrong_length(self):
        # too long and too short: neither may be cut or padded to rank 2
        data = cpn(2).data
        for exponents in ((0, 0, 2), (2,)):
            with pytest.raises(ValueError, match="torus_rank 2 entries"):
                integrate(data, {p.id: {exponents: Fraction(1)} for p in data.points})

    def test_missing_numerator(self):
        data = cpn(2).data
        with pytest.raises(ValueError, match="missing"):
            integrate(data, {"p0": poly_const(2, 1)})

    def test_expanded_mode_detects_non_constant_sum(self):
        data = cpn(2).data
        nums = chern_numerators(data, (1, 1, 1, 1))
        with pytest.raises(InconsistencyError, match="not a constant"):
            integrate(data, nums)

    def test_degree_above_half_dim_can_still_vanish(self):
        # e1^3 has degree 3 on a half_dim 2 space; the exact sum is zero
        data = cpn(2).data
        nums = chern_numerators(data, (1, 1, 1))
        assert integrate(data, nums) == 0

    def test_part_above_half_dim_is_the_zero_class(self):
        data = cpn(2).data
        assert integrate(data, chern_numerators(data, (3,))) == 0

    def test_unknown_mode(self):
        data = cpn(1).data
        with pytest.raises(ValueError, match="mode"):
            chern_number(data, (1,), "fast")

    def test_localize_sum_constant(self):
        data = cpn(1).data
        total = localize_sum(data, chern_numerators(data, (1,)))
        assert not total.denominator
        assert poly_const_value(total.numerator) == 2

    def test_localize_sum_zero(self):
        data = cpn(1).data
        ones = {p.id: poly_const(1, 1) for p in data.points}
        assert localize_sum(data, ones).is_zero()


class TestChernOracles:
    @pytest.mark.parametrize("mode", ["generic", "expanded"])
    def test_cp2(self, mode):
        data = cpn(2).data
        assert chern_number(data, (1, 1), mode) == 9
        assert chern_number(data, (2,), mode) == 3

    @pytest.mark.parametrize("mode", ["generic", "expanded"])
    def test_cp3(self, mode):
        data = cpn(3).data
        assert chern_number(data, (1, 1, 1), mode) == 64
        assert chern_number(data, (2, 1), mode) == 24
        assert chern_number(data, (3,), mode) == 4

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_top_power_of_first_class(self, n):
        assert chern_number(cpn(n).data, (1,) * n) == (n + 1) ** n

    @pytest.mark.parametrize("variant,cube", [("V5", 40), ("V22", 22)])
    def test_fano(self, variant, cube):
        data = fano(variant).data
        assert chern_number(data, (1, 1, 1)) == cube
        assert chern_number(data, (2, 1)) == 24
        assert chern_number(data, (3,)) == 4

    def test_s6(self):
        data = s6().data
        assert chern_number(data, (1, 1, 1)) == 0
        assert chern_number(data, (2, 1)) == 0
        assert chern_number(data, (3,)) == 2

    def test_s6_blowup(self):
        data = s6_blowup().data
        assert chern_number(data, (1, 1, 1)) == -8
        assert chern_number(data, (2, 1)) == 0
        assert chern_number(data, (3,)) == 4

    def test_partition_order_irrelevant(self):
        data = cpn(3).data
        assert chern_number(data, (1, 2)) == chern_number(data, (2, 1))

    def test_partition_must_fill_half_dim(self):
        with pytest.raises(ValueError, match="half_dim"):
            chern_number(cpn(2).data, (1,))
        with pytest.raises(ValueError, match="half_dim"):
            chern_number(cpn(2).data, (0, 2))

    def test_top_class_counts_points(self):
        for entry in all_entries():
            n = entry.data.half_dim
            assert chern_number(entry.data, (n,)) == len(entry.data.points)

    def test_reports_clean_on_catalog(self):
        for entry in all_entries():
            rep = chern_report(entry.data)
            assert rep.ok, entry.name
            assert set(rep.values) == set(partitions(entry.data.half_dim))


class TestModeAgreement:
    def test_catalog_modes_agree(self):
        for entry in all_entries():
            for part in partitions(entry.data.half_dim):
                g = chern_number(entry.data, part, "generic")
                e = chern_number(entry.data, part, "expanded")
                assert g == e, (entry.name, part)

    def test_fast_path_equals_polynomial_path(self):
        for entry in (cpn(3), s6_blowup(), fano("V5")):
            data = entry.data
            for part in partitions(data.half_dim):
                nums = chern_numerators(data, part)
                assert chern_number(data, part, "generic") == integrate(data, nums)

    def test_generic_agrees_with_expanded(self):
        # certified data reads one generic point and the rest the symbolic
        # table, so the modes agree on every value and every refusal
        rng = random.Random(20261019)
        datasets = [random_small_data(rng, (1, 2, 3)) for _ in range(1200)]
        for _ in range(60):
            n = rng.randint(2, 4)
            space = cpn(n, random_unimodular(rng, n))
            for _ in range(rng.randint(1, 3)):
                space = blow_up(space, rng.choice(space.data.ids()))
            assert certified(space.data), space.data
            datasets.append(space.data)
        seen = Counter()
        for data in datasets:
            gen, exp = chern_report(data), chern_report(data, "expanded")
            assert gen == exp, data
            assert (check_lower_degree_vanishing(data)
                    == check_lower_degree_vanishing(data, "expanded")), data
            seen["certified"] += certified(data)
            seen["refused"] += len(exp.failures)
        assert seen["certified"] > 250 and seen["refused"] > 250, seen


def certificate_oracle(data: FixedPointData) -> bool:
    """The certificate spelled out: ``check_gkm`` and a describing graph
    built without error."""
    try:
        return check_gkm(data).passed and build_multigraph(data) is not None
    except ValueError:  # MatchingError included
        return False


class TestCertificate:
    """``certified`` reads residue buckets only, and builds no graph."""

    def test_equals_graph_certificate(self):
        rng = random.Random(20261020)
        datasets = [random_small_data(rng, (1, 2, 3)) for _ in range(1500)]
        for _ in range(60):
            n = rng.randint(2, 4)
            space = cpn(n, random_unimodular(rng, n))
            for _ in range(rng.randint(1, 3)):
                space = blow_up(space, rng.choice(space.data.ids()))
            datasets.append(space.data)
        seen = Counter()
        for data in datasets:
            want = certificate_oracle(data)
            assert certified(data) == want, data
            seen["certified"] += want
            index = model._WeightIndex(data)
            unmatched = None
            try:
                build_multigraph(data)
            except model.MatchingError as exc:
                unmatched = exc.weight_class
            except ValueError:  # a pairing violation
                pass
            assert (not index.unbalanced) == (index.pairing.passed and unmatched is None), data
            if unmatched is not None:
                assert unmatched == index.reps[index.unbalanced[0]], data
                seen["unmatched"] += 1
            for a, b in combinations(range(len(index.reps)), 2):
                same = index.directions[a] == index.directions[b]
                assert same == weights.parallel(index.reps[a], index.reps[b]), data
                seen["parallel"] += same
        assert seen["certified"] > 300 and len(datasets) - seen["certified"] > 300, seen
        assert seen["unmatched"] > 300 and seen["parallel"] > 500, seen


def never_raise_data(seed=20261020):
    """Seeded datasets: random small data, the packed-kernel data with and
    without mirrors, blow-ups of random small data or a disguised CP^n at a
    random point, and products of two random small datasets; and the number
    of blow-up draws skipped because a repeated weight at the point leaves a
    zero weight, which ``FixedPointData`` refuses."""
    rng = random.Random(seed)
    out, skipped = [random_small_data(rng, (1, 2, 3)) for _ in range(300)], 0
    for _ in range(40):  # expanded mode costs most on these
        data, _ = _kernel_data(rng)
        out += [data, _mirrored(data)]
    for _ in range(150):
        n = rng.randint(1, 3)
        data = (random_small_data(rng) if rng.random() < 0.5 else
                cpn(n, random_unimodular(rng, n)).data)
        try:
            out.append(blow_up(Space(data, None), rng.choice(data.ids())).data)
        except ValueError:
            skipped += 1
    for _ in range(60):
        a, b = random_small_data(rng), random_small_data(rng)
        out.append(product(Space(a, None), Space(b, None)).data)
    return out, skipped


class TestNeverRaises:
    def test_checks_and_invariants_never_raise(self):
        datasets, skipped = never_raise_data()
        refused = 0
        for data in datasets:
            validate_all(data)
            chern_report(data), chern_report(data, "expanded")
            check_lower_degree_vanishing(data)
            chi_y(data)
            try:
                build_multigraph(data)
            except ValueError:  # MatchingError included
                refused += 1
        assert 0 < skipped < 30 and 100 < refused < len(datasets) - 100, (skipped, refused)


class TestInvariance:
    def test_chern_numbers_are_gl_invariant(self, rng):
        for entry in (cpn(2), cpn(3), s6_blowup()):
            base = chern_report(entry.data).values
            k = entry.data.torus_rank
            for _ in range(10):
                rows = random_unimodular(rng, k)
                moved = transform(entry.data, rows)
                assert chern_report(moved).values == base, entry.name


class TestVanishing:
    def test_catalog_generic(self):
        for entry in all_entries():
            rep = check_lower_degree_vanishing(entry.data)
            assert rep.passed, entry.name

    def test_catalog_expanded_small(self):
        for entry in (cpn(1), cpn(2), cpn(3), s6(), fano("V22")):
            rep = check_lower_degree_vanishing(entry.data, "expanded")
            assert rep.passed, entry.name

    @pytest.mark.parametrize("mode", ["generic", "expanded"])
    def test_corrupted_data_fails(self, mode):
        rep = check_lower_degree_vanishing(corrupted_cp2(), mode)
        assert not rep.passed
        parts = [w[0] for w in rep.result("lower_degree_vanishing").witnesses]
        assert () in parts and (1,) in parts


class TestCorruptedData:
    def test_generic_cross_check_trips(self):
        with pytest.raises(InconsistencyError, match="not a constant"):
            chern_number(corrupted_cp2(), (1, 1), "generic")

    def test_expanded_sum_not_constant(self):
        with pytest.raises(InconsistencyError, match="not a constant"):
            chern_number(corrupted_cp2(), (1, 1), "expanded")

    def test_top_class_still_counts_points(self):
        assert chern_number(corrupted_cp2(), (2,)) == 3

    def test_expanded_refuses_two_point_luck(self):
        with pytest.raises(InconsistencyError, match="not a constant"):
            chern_number(two_point_luck(), (1, 1), "expanded")

    def test_generic_refuses_two_point_luck(self):
        with pytest.raises(InconsistencyError):
            chern_number(two_point_luck(), (1, 1), "generic")

    def test_report_captures_failure(self):
        rep = chern_report(corrupted_cp2())
        assert not rep.ok
        assert rep.values == {(2,): 3}
        assert [f[0] for f in rep.failures] == [(1, 1)]


class TestCompare:
    def test_non_gkm_example_matches_model(self):
        a, b = chern_report(cp3_nongkm().data), chern_report(cpn(3).data)
        assert a.ok and b.ok
        assert a.values == b.values
        assert set(a.values) == set(partitions(3))

    def test_blowup_differs_from_model(self):
        a, b = chern_report(s6_blowup().data), chern_report(cpn(3).data)
        assert a.ok and b.ok
        assert a.values != b.values
        assert (a.values[(1, 1, 1)], b.values[(1, 1, 1)]) == (-8, 64)
        assert (a.values[(3,)], b.values[(3,)]) == (4, 4)

    def test_failure_becomes_none(self):
        a, b = chern_report(corrupted_cp2()), chern_report(cpn(2).data)
        assert not a.ok and b.ok
        assert (a.values.get((1, 1)), b.values[(1, 1)]) == (None, 9)
        assert (a.values[(2,)], b.values[(2,)]) == (3, 3)
        assert a.values != b.values


NOT_CONSTANT = ("localized sum is not a constant; the numerators do not come "
                "from a global class of integral degree")


class TestKernel:
    """The shared per-point table behind every class, and its messages."""

    def test_every_partition_equals_expanded_sum(self, rng):
        datasets = [entry.data for entry in all_entries()]
        datasets += [transform(cpn(n).data, random_unimodular(rng, n))
                     for n in (1, 2, 3, 4) for _ in range(2 if n < 4 else 1)]
        for data in datasets:
            values = chern_report(data).values
            for part in partitions(data.half_dim):
                exact = integrate(data, chern_numerators(data, part))
                assert values[part] == exact, (data, part)

    def test_corrupted_messages_pinned(self):
        assert chern_report(corrupted_cp2()).failures == (((1, 1), NOT_CONSTANT),)
        rep = check_lower_degree_vanishing(corrupted_cp2())
        assert rep.result("lower_degree_vanishing").witnesses == (
            ((), NOT_CONSTANT), ((1,), NOT_CONSTANT))

    def test_non_integral_messages_pinned(self):
        data = FixedPointData(1, 2, (FixedPoint("p0", ((1,), (1,))),
                                     FixedPoint("p1", ((-1,), (-2,)))))
        rep = chern_report(data)
        assert rep.values == {(2,): 2}
        assert rep.failures == (
            ((1, 1), "Chern number for (1, 1) is not an integer: 17/2"),)
        vanishing = check_lower_degree_vanishing(data)
        assert vanishing.result("lower_degree_vanishing").witnesses == (
            ((), NOT_CONSTANT), ((1,), NOT_CONSTANT))

    def test_one_schedule_per_call_and_no_symbolic_products(self, monkeypatch):
        calls = Counter()

        def counted(module, name):
            original = getattr(module, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)
            monkeypatch.setattr(module, name, wrapper)

        counted(localization, "generic_points")
        counted(weights, "poly_mul")
        assert chern_report(cpn(6).data).ok
        assert calls == {"generic_points": 1}
        calls.clear()
        assert check_lower_degree_vanishing(cpn(5).data).passed
        assert calls == {"generic_points": 1}


    def test_one_gkm_pass_per_dataset(self, monkeypatch):
        # the index keeps its GKM and pairing reports, so the certificate
        # of every later table call reads them instead of scanning again
        calls = Counter()
        for name in ("gkm", "pairing"):
            original = vars(model._WeightIndex)[name].func

            def counted(index, _name=name, _original=original):
                calls[_name] += 1
                return _original(index)
            prop = functools.cached_property(counted)
            prop.__set_name__(model._WeightIndex, name)
            monkeypatch.setattr(model._WeightIndex, name, prop)
        data = cpn(6).data
        assert chern_report(data).ok
        assert check_lower_degree_vanishing(data).passed
        assert chern_number(data, (6,)) == 7
        assert model.validate_all(data).passed
        assert calls == {"gkm": 1, "pairing": 1}

class TestExpanded:
    """The expanded table: one common denominator, one polynomial identity."""

    @staticmethod
    def table_value(table, part):
        try:
            return table.product(part)
        except InconsistencyError as exc:
            assert "not a constant" in str(exc)
            return None

    def test_agrees_with_factored_sum_on_random_data(self, rng):
        seen = Counter()
        for _ in range(200):
            data = random_small_data(rng)
            table = localization._table(data, data.half_dim, "expanded")
            for m in range(data.half_dim + 1):
                for part in partitions(m):
                    exact = factored_sum_value(data, part)
                    assert self.table_value(table, part) == exact, (data, part)
                    seen["refused" if exact is None else "constant"] += 1
        assert seen["refused"] > 100 and seen["constant"] > 100, seen

    def test_support_outside_denominator_is_refused(self):
        # comparing S with c * D only on D's support, plus the term count,
        # would read c = 0 here
        data = refuted_sum()
        assert factored_sum_value(data, (1,)) is None
        assert self.table_value(localization._table(data, 3, "expanded"), (1,)) is None
        with pytest.raises(InconsistencyError, match="not a constant"):
            integrate(data, chern_numerators(data, (1,)))
        rep = check_lower_degree_vanishing(data, "expanded")
        assert (1,) in [w[0] for w in rep.result("lower_degree_vanishing").witnesses]

    def test_two_point_luck_still_refused(self):
        rep = chern_report(two_point_luck(), "expanded")
        assert rep.values == {(2,): 3}
        assert rep.failures == (((1, 1), "localized sum is not a constant; the "
                                 "numerators do not come from a global class "
                                 "of integral degree"),)

    def test_fraction_numerators(self):
        data = cpn(2).data
        nums = {pid: {e: c / 3 for e, c in q.items()}
                for pid, q in chern_numerators(data, (1, 1)).items()}
        assert integrate(data, nums) == 3

    def test_no_symbolic_reference_calls(self, monkeypatch):
        calls = Counter()

        def counted(module, name):
            original = getattr(module, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)
            monkeypatch.setattr(module, name, wrapper)

        counted(weights, "poly_mul")
        counted(weights, "poly_div_linear")
        assert chern_report(cpn(5).data, "expanded").ok
        assert check_lower_degree_vanishing(cpn(4).data, "expanded").passed
        assert not calls

    def test_cpn6_within_budget(self):
        start = time.perf_counter()
        rep = chern_report(cpn(6).data, "expanded")
        elapsed = time.perf_counter() - start
        assert rep.values == chern_report(cpn(6).data).values and rep.ok
        assert elapsed < 10.0
