"""Splice planner: exhaustive argmax, clustering heuristic, determinism."""

import itertools

import numpy as np
import pytest

from sfwm import (AssemblySpec, PumpSpec, build_jsa, evaluate_plan, g2_quadrature,
                  plan_exhaustive, plan_greedy)
from sfwm.planner import PlanSpaceError, SegmentPool

from conftest import (
    CATALOG,
    PUMP_NM,
    catalog_assembly,
    catalog_fiber,
    catalog_point,
    catalog_pool,
)

PUMP = PumpSpec(PUMP_NM, 2.0)
FAST = dict(ns=256, ni=256, lobes=6.0)


def test_single_segment_plan_value():
    pool = catalog_pool(["S2"], target_m=0.3, tolerance_m=0.0)
    g2, spectrum = evaluate_plan((0,), pool, PUMP)
    assert g2 == pytest.approx(1.56, abs=0.05)
    assert spectrum.values.max() > 0


def test_permutation_pair_values():
    pool = catalog_pool(["S1", "S2", "S3", "S4"], target_m=1.2, tolerance_m=0.0)
    g2_a, _ = evaluate_plan((0, 1, 2, 3), pool, PUMP)
    g2_b, _ = evaluate_plan((0, 3, 1, 2), pool, PUMP)
    assert g2_a == pytest.approx(1.42, abs=0.05)
    assert g2_b == pytest.approx(1.44, abs=0.05)
    assert g2_b > g2_a


def test_two_segment_reversal_equivalence():
    pool = catalog_pool(["S1", "S3"], target_m=0.6, tolerance_m=0.0)
    fwd, _ = evaluate_plan((0, 1), pool, PUMP)
    rev, _ = evaluate_plan((1, 0), pool, PUMP)
    assert abs(fwd - rev) < 1e-10


def test_mirror_orders_tie_exactly():
    # The planner evaluates a splice in its lexicographically smaller
    # orientation; the physics it relies on (a mirrored linearized assembly
    # has the same g2 and |f|) is checked on directly built JSAs.
    pool = catalog_pool(["S1", "S2", "S3", "S4"], target_m=0.9, tolerance_m=0.0)
    for order in ((0, 2), (3, 1, 2)):
        g2_fwd, spec_fwd = evaluate_plan(order, pool, PUMP, **FAST)
        g2_rev, spec_rev = evaluate_plan(order[::-1], pool, PUMP, **FAST)
        assert g2_fwd == g2_rev
        assert np.array_equal(spec_fwd.values, spec_rev.values)
        labels = [pool.candidates[i][0] for i in order]
        fwd = build_jsa(catalog_assembly([(lab, 0.3) for lab in labels]), PUMP, **FAST)
        rev = build_jsa(catalog_assembly([(lab, 0.3) for lab in labels[::-1]]), PUMP, **FAST)
        assert g2_quadrature(rev) == pytest.approx(g2_quadrature(fwd), rel=1e-13)
        assert np.max(np.abs(np.abs(rev.amplitude) - np.abs(fwd.amplitude))) \
            <= 1e-13 * np.abs(fwd.amplitude).max()
    plan = plan_exhaustive(catalog_pool(["S3", "S4"], 0.6, tolerance_m=0.0), PUMP, **FAST)
    assert plan.order == (0, 1)


def test_order_validation():
    pool = catalog_pool(["S1", "S3"], target_m=0.6)
    with pytest.raises(ValueError):
        evaluate_plan((0, 0), pool, PUMP)
    with pytest.raises(ValueError):
        evaluate_plan((0, 5), pool, PUMP)
    with pytest.raises(ValueError):
        evaluate_plan((), pool, PUMP)


def _brute_force(pool, pump, **kwargs):
    best = None
    for size in range(1, pool.effective_max_segments + 1):
        for combo in itertools.combinations(range(len(pool.candidates)), size):
            if not pool.is_feasible(combo):
                continue
            for order in itertools.permutations(combo):
                g2, _ = evaluate_plan(order, pool, pump, **kwargs)
                total = sum(pool.candidates[i][1].length_m for i in order)
                key = (-g2, total, order)
                if best is None or key < best[0]:
                    best = (key, order, g2)
    return best


def test_exhaustive_matches_brute_force_enumeration():
    pool = catalog_pool(["S1", "S2", "S3"], target_m=0.6)  # default tolerance 0.3 m
    plan = plan_exhaustive(pool, PUMP, **FAST)
    _, order, g2 = _brute_force(pool, PUMP, **FAST)
    assert plan.order == order
    assert plan.predicted_g2 == g2


def test_exhaustive_picks_closest_dispersion_pair():
    # Among the 0.6 m pairs the engine ranks S2+S3 a hair above S1+S2 (their
    # signal bands sit closer in frequency), and S3+S4 above both.
    pool = catalog_pool(["S1", "S2", "S3"], target_m=0.6, tolerance_m=0.0)
    plan = plan_exhaustive(pool, PUMP)
    assert set(plan.labels) == {"S2", "S3"}
    full_pool = catalog_pool(["S1", "S2", "S3", "S4"], target_m=0.6, tolerance_m=0.0)
    full_plan = plan_exhaustive(full_pool, PUMP)
    assert set(full_plan.labels) == {"S3", "S4"}


def test_identical_candidates_collapse_to_uniform_fiber():
    from sfwm import default_grid
    from sfwm.spectra import AssemblySegment, AssemblySpec

    pool = SegmentPool(
        candidates=tuple(("S2", AssemblySegment(0.3, catalog_point("S2"), catalog_fiber("S2")))
                         for _ in range(3)),
        target_total_length_m=0.6,
        tolerance_m=0.0,
    )
    # Common grid: the auto-sized windows of the two representations differ,
    # the amplitudes themselves do not.
    spliced = AssemblySpec(
        (AssemblySegment(0.3, catalog_point("S2")),
         AssemblySegment(0.3, catalog_point("S2"))), "linearized")
    grid = default_grid(spliced, PUMP, ns=256, ni=256, lobes=6.0)
    plan = plan_exhaustive(pool, PUMP, ns=256, ni=256, grid=grid)
    assert len(plan.order) == 2
    single = SegmentPool(
        candidates=(("S2", AssemblySegment(0.6, catalog_point("S2"), catalog_fiber("S2", 0.6))),),
        target_total_length_m=0.6, tolerance_m=0.0,
    )
    uniform, _ = evaluate_plan((0,), single, PUMP, ns=256, ni=256, grid=grid)
    assert plan.predicted_g2 == pytest.approx(uniform, rel=1e-9)


def test_smallest_signal_spread_wins_among_pairs():
    values = {}
    for pair in itertools.combinations(["S1", "S2", "S3", "S4"], 2):
        pool = catalog_pool(list(pair), target_m=0.6, tolerance_m=0.0)
        values[pair], _ = evaluate_plan((0, 1), pool, PUMP, **FAST)
    spread = lambda pair: abs(CATALOG[pair[1]][1] - CATALOG[pair[0]][1])
    tight = {p: v for p, v in values.items() if spread(p) < 4.0}
    loose = {p: v for p, v in values.items() if spread(p) >= 4.0}
    assert min(tight.values()) > max(loose.values())


def test_greedy_selects_adjacent_pair_and_never_beats_exhaustive():
    pool = catalog_pool(["S1", "S2", "S3", "S4"], target_m=0.6, tolerance_m=0.0)
    greedy = plan_greedy(pool, PUMP, **FAST)
    exhaustive = plan_exhaustive(pool, PUMP, **FAST)
    assert set(greedy.labels) != {"S1", "S4"}
    labels = sorted(greedy.labels)
    assert labels in (["S1", "S2"], ["S2", "S3"], ["S3", "S4"])
    assert greedy.predicted_g2 <= exhaustive.predicted_g2 + 1e-12


def test_greedy_single_candidate():
    pool = catalog_pool(["S2"], target_m=0.3, tolerance_m=0.0)
    plan = plan_greedy(pool, PUMP, **FAST)
    assert plan.order == (0,)
    assert plan.labels == ("S2",)


def test_plan_space_cap():
    pool = catalog_pool(["S1", "S2", "S3", "S4"], target_m=0.6, tolerance_m=0.0)
    # The message names the config fields a CLI user can change.
    with pytest.raises(PlanSpaceError, match=r"^12 feasible ordered subsets exceed the cap 3 "
                       r"\(planner\.max_plans\); lower planner\.max_segments or "
                       r"planner\.tolerance_m"):
        plan_exhaustive(pool, PUMP, max_plans=3, **FAST)


def test_no_feasible_subset():
    pool = catalog_pool(["S1", "S2"], target_m=10.0, tolerance_m=0.1)
    with pytest.raises(ValueError, match="no subset"):
        plan_exhaustive(pool, PUMP, **FAST)
    with pytest.raises(ValueError, match="no subset"):
        plan_greedy(pool, PUMP, **FAST)


def test_exhaustive_is_deterministic():
    pool = catalog_pool(["S1", "S2", "S3"], target_m=0.6, tolerance_m=0.0)
    a = plan_exhaustive(pool, PUMP, **FAST)
    b = plan_exhaustive(pool, PUMP, **FAST)
    assert a.order == b.order
    assert a.predicted_g2 == b.predicted_g2
    assert a.total_length_m == b.total_length_m


def _count_builds(monkeypatch):
    # Each g2_streamed call fills one JSA, block by block.
    import sfwm.planner

    built = []
    real = sfwm.planner.g2_streamed

    def counting(assembly, *args, **kwargs):
        built.append(assembly)
        return real(assembly, *args, **kwargs)

    monkeypatch.setattr(sfwm.planner, "g2_streamed", counting)
    return built


def test_planners_break_mirror_ties_on_the_exact_total_length():
    # 0.1 + 0.2 + 0.3 is 0.6000000000000001 left to right but 0.3 + 0.2 +
    # 0.1 is 0.6: an inexact sum would hand the tie to one orientation by
    # rounding noise.  Both planners return the smaller one, at 0.6 m.
    pool = SegmentPool(
        candidates=tuple((lab, catalog_assembly([(lab, length)]).segments[0])
                         for lab, length in (("S1", 0.1), ("S2", 0.2), ("S3", 0.3))),
        target_total_length_m=0.6, tolerance_m=0.0)
    kwargs = dict(ns=128, ni=128, lobes=4.0)
    for plan in (plan_exhaustive(pool, PUMP, **kwargs), plan_greedy(pool, PUMP, **kwargs)):
        assert plan.order == (0, 2, 1)
        assert plan.total_length_m == 0.6
    # The assembly's own sum agrees, in either orientation.
    segments = tuple(seg for _, seg in pool.candidates)
    assert AssemblySpec(segments).total_length_m == AssemblySpec(segments[::-1]).total_length_m
    assert AssemblySpec(segments).total_length_m == 0.6


@pytest.mark.parametrize("target_m, n_orders, n_builds", [(0.6, 12, 6), (0.9, 24, 12)],
                         ids=["pairs", "triples"])
def test_exhaustive_builds_one_jsa_per_mirror_pair(monkeypatch, target_m, n_orders, n_builds):
    pool = catalog_pool(["S1", "S2", "S3", "S4"], target_m, tolerance_m=0.0)
    best = None
    orders = 0
    for combo in itertools.combinations(range(4), round(target_m / 0.3)):
        for order in itertools.permutations(combo):
            g2, spectrum = evaluate_plan(order, pool, PUMP, **FAST)
            orders += 1
            if best is None or (-g2, order) < (-best[1], best[0]):
                best = (order, g2, spectrum)
    assert orders == n_orders
    built = _count_builds(monkeypatch)
    plan = plan_exhaustive(pool, PUMP, **FAST)
    assert len(built) == n_builds
    # plan.scored, which the plan manifest records, lists them in fill order.
    assert [assembly.segments for assembly in built] == [
        tuple(pool.candidates[i][1] for i in scored.order) for scored in plan.scored]
    assert plan.order == best[0]
    assert plan.predicted_g2 == best[1]
    assert np.array_equal(plan.predicted_spectrum.values, best[2].values)


@pytest.mark.parametrize("labels, target_m, order, g2_hex", [
    (["S1", "S2", "S3"], 0.6, (2, 1), "0x1.9fa51b41ed1e8p+0"),
    (["S1", "S2", "S3", "S4"], 0.6, (2, 3), "0x1.a0a9d4fe5e62ap+0"),
    (["S1", "S2", "S3", "S4"], 1.2, (0, 2, 1, 3), "0x1.70148c105d084p+0"),
], ids=["S1-S3@0.6m", "S1-S4@0.6m", "S1-S4@1.2m"])
def test_greedy_result_pinned_and_builds_once_per_mirror_pair(monkeypatch, labels, target_m,
                                                              order, g2_hex):
    # Pinned to the values of the greedy search that scored every visited
    # order from scratch.
    import sfwm.planner

    evaluated = []
    real_evaluate = sfwm.planner.evaluate_plan

    def recording(order, *args, **kwargs):
        evaluated.append(min(order, order[::-1]))
        return real_evaluate(order, *args, **kwargs)

    monkeypatch.setattr(sfwm.planner, "evaluate_plan", recording)
    built = _count_builds(monkeypatch)
    pool = catalog_pool(labels, target_m, tolerance_m=0.0)
    plan = plan_greedy(pool, PUMP, **FAST)
    assert plan.order == order
    assert plan.predicted_g2 == float.fromhex(g2_hex)
    # One evaluation, and one JSA, per orientation visited; plan.scored lists
    # each once, in fill order.
    assert len(evaluated) == len(set(evaluated)) == len(built)
    assert [scored.order for scored in plan.scored] == evaluated
    assert [assembly.segments for assembly in built] == [
        tuple(pool.candidates[i][1] for i in scored.order) for scored in plan.scored]
