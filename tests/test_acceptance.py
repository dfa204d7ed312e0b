"""Acceptance criteria for the toolkit, one test per criterion.

Each test prints one ``ACCEPTANCE <n> PASS|FAIL`` line (run with ``-s`` or
``-rA`` to see them on success). Criterion 8 aggregates structure checks over
every threshold-policy run produced by criteria 1 through 7 in this module.
"""

from __future__ import annotations

import math
import time

import pytest

import repsim as R
from conftest import fig3_instance
from reference_oracle import reference_schedule

_CHECKED_RUNS = {"alg1": 0, "other": 0}
_STRUCTURE_PROBLEMS: list[str] = []


def _register(run: R.AnnotatedRun) -> None:
    if run.policy_name == "alg1":
        _STRUCTURE_PROBLEMS.extend(R.special_copy_problems(run))
        _STRUCTURE_PROBLEMS.extend(R.typing_problems(run))
        _CHECKED_RUNS["alg1"] += 1
    else:
        if any(c.kind in ("resident_special", "relocated_special") for c in run.schedule.copies):
            _STRUCTURE_PROBLEMS.append(f"{run.policy_name} run produced special copy kinds")
        _CHECKED_RUNS["other"] += 1


def _report(criterion: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {criterion} {'PASS' if ok else 'FAIL'}: {detail}")


@pytest.fixture(scope="module")
def random_batch_500():
    return [
        R.gen_random(seed=20_000 + k, n=1 + k % 4, m=1 + k % 12, rate_range=(1.0, 6.0))
        for k in range(500)
    ]


def test_criterion_1_first_counterexample():
    t0 = time.perf_counter()
    res = R.gen_fig1(2000, 1.0, 1e-4, 1e-5)
    run, cost = R.simulate("wang", res.instance)
    _register(run)
    opt = R.opt_full(res.instance, reconstruct=False).opt_cost
    elapsed = time.perf_counter() - t0
    ratio_dp = cost.total / opt
    ratio_formula = cost.total / res.optimal_cost
    ok = ratio_dp >= 2.97 and ratio_formula >= 2.97 and abs(opt - res.optimal_cost) <= 1e-6 and elapsed < 5.0
    _report(1, ok, f"rival/optimal ratio {ratio_dp:.4f} (limit 3), {elapsed:.2f}s")
    assert ratio_dp >= 2.97
    assert ratio_formula >= 2.97
    assert abs(opt - res.optimal_cost) <= 1e-6
    assert elapsed < 5.0


def test_criterion_2_second_counterexample():
    t0 = time.perf_counter()
    res = R.gen_fig2(2000, 1.0, 1.0, 1e-5)
    run, cost = R.simulate("wang", res.instance)
    _register(run)
    opt = R.opt_full(res.instance, reconstruct=False).opt_cost
    elapsed = time.perf_counter() - t0
    ratio = cost.total / opt
    ok = 2.45 <= ratio <= 2.50 and abs(opt - res.optimal_cost) <= 1e-6 and elapsed < 5.0
    _report(2, ok, f"rival/optimal ratio {ratio:.4f} (limit 5/2), {elapsed:.2f}s")
    assert 2.45 <= ratio <= 2.50
    assert abs(opt - res.optimal_cost) <= 1e-6
    assert elapsed < 5.0


def test_criterion_3_adversary_lower_bound():
    ratios = {}
    for name in ("alg1", "wang", "simple"):
        out = R.run_adversary(name, mu=5.0, lam=1.0, epsilon=1e-4)
        ratios[name] = out.ratio
        run, _ = R.simulate("alg1", out.instance)
        _register(run)
    formula = R.adversary_branch1_ratio(5.0, 1.0)
    ok = all(r > 2.0 for r in ratios.values()) and abs(formula - 70.0 / 34.0) <= 1e-9
    detail = ", ".join(f"{k}={v:.4f}" for k, v in ratios.items())
    _report(3, ok, f"realized ratios {detail}; branch-1 formula {formula:.10f}")
    for name, r in ratios.items():
        assert r > 2.0, name
    assert abs(formula - 70.0 / 34.0) <= 1e-9


def test_criterion_4_tight_examples():
    cases = {
        "a": (R.gen_tight(1, mu2=2.0, lam=1.0, epsilon=1e-4), None),
        "b": (R.gen_tight(2, mu2=2.5, lam=1.0, epsilon=1e-4, tau=1e4), 2.5),
        "c": (R.gen_tight(3, mu2=4.0, lam=1.0, epsilon=1e-5), 3.0),
    }
    ratios = {}
    for label, (res, _target) in cases.items():
        run, cost = R.simulate("alg1", res.instance)
        _register(run)
        opt = R.opt_full(res.instance).opt_cost
        assert abs(opt - res.optimal_cost) <= 1e-9
        assert abs(cost.total - res.online_cost) <= 1e-9
        ratios[label] = cost.total / opt
    ok = (
        ratios["a"] >= 1.999
        and abs(ratios["b"] - 2.5) <= 0.01 * 2.5
        and abs(ratios["c"] - 3.0) <= 0.01 * 3.0
    )
    _report(4, ok, f"ratios a={ratios['a']:.5f} b={ratios['b']:.5f} c={ratios['c']:.5f}")
    assert ratios["a"] >= 1.999
    assert abs(ratios["b"] - 2.5) <= 0.01 * 2.5
    assert abs(ratios["c"] - 3.0) <= 0.01 * 3.0


def test_criterion_5_competitive_bounds(random_batch_500):
    t0 = time.perf_counter()
    worst_alg1 = worst_simple = 0.0
    for inst in random_batch_500:
        opt = R.opt_full(inst, reconstruct=False).opt_cost
        bound = R.competitive_bound(inst)
        run_a, cost_a = R.simulate("alg1", inst)
        _register(run_a)
        run_s, cost_s = R.simulate("simple", inst)
        _register(run_s)
        assert cost_a.total <= bound * opt + 1e-9, inst
        assert cost_s.total <= 3.0 * opt + 1e-9, inst
        if opt > 0:
            worst_alg1 = max(worst_alg1, cost_a.total / (bound * opt))
            worst_simple = max(worst_simple, cost_s.total / (3.0 * opt))
    elapsed = time.perf_counter() - t0
    ok = elapsed < 60.0
    _report(
        5,
        ok,
        f"500 instances; worst alg1 bound use {worst_alg1:.3f}, worst simple bound use {worst_simple:.3f}, {elapsed:.1f}s",
    )
    assert elapsed < 60.0


def test_criterion_6_oracle_self_consistency(random_batch_500):
    worst_gap = 0.0
    for inst in random_batch_500:
        full = R.opt_full(inst)
        restr, restr_schedule = reference_schedule(inst, restricted=True)  # holder sets with two far servers masked
        gap = abs(full.opt_cost - restr)
        worst_gap = max(worst_gap, gap)
        assert gap <= 1e-9, inst
        for schedule in (full.schedule, restr_schedule):
            assert R.validate_schedule(schedule) == [], inst
            assert R.validate_offline_structure(schedule) == [], inst
    _report(6, True, f"restricted == full on 500 instances (worst gap {worst_gap:.2e}); schedules valid")


def test_criterion_7_allocation_conservation():
    worst = 0.0
    for k in range(300):
        inst = R.gen_random(seed=60_000 + k, n=1 + k % 5, m=1 + k % 30)
        run, cost = R.simulate("alg1", inst)
        _register(run)
        report = R.classify_and_allocate(run)
        gap = abs(report.total_allocated - cost.total)
        worst = max(worst, gap)
        assert gap <= 1e-9, k
    run, _ = R.simulate("alg1", fig3_instance())
    _register(run)
    categories = {req.index: t.category for req, t, _ in R.classify_and_allocate(run).entries}
    expected = {2: 1, 3: 1, 4: 1, 5: 2, 6: 3, 8: 4, 1: 5, 7: 6}
    ok = categories == expected
    _report(7, ok, f"conservation on 300 instances (worst gap {worst:.2e}); reference typing {categories == expected}")
    assert categories == expected


def test_criterion_8_special_copy_disjointness():
    checked = _CHECKED_RUNS["alg1"]
    ok = checked >= 800 and not _STRUCTURE_PROBLEMS
    _report(8, ok, f"{checked} threshold runs checked, {len(_STRUCTURE_PROBLEMS)} structure problem(s)")
    assert checked >= 800, "criteria 1-7 must register their runs first"
    assert _STRUCTURE_PROBLEMS == []


def test_criterion_9_experiment_shape():
    t0 = time.perf_counter()
    times = R.gen_poisson_trace(seed=42, total_requests=11_683, mean_gap=50.0)
    per_server_gap = times[-1] / len(times) * 10
    assert abs(per_server_gap - 500.0) <= 0.05 * 500.0

    low_lambdas = tuple(float(v) for v in range(50, 451, 25))
    spec_low = R.ExperimentSpec(
        times=tuple(times),
        rate_sets={k: R.RATE_SETS[k] for k in ("set1", "set2")},
        lambda_values=low_lambdas,
        seed=42,
    )
    rows_low = R.run_sweep(spec_low)
    by_cell: dict[tuple[str, float], dict[str, float]] = {}
    for row in rows_low:
        by_cell.setdefault((row.rate_set, row.lam), {})[row.policy] = row.ratio
    wins = sum(
        1
        for cell in by_cell.values()
        if cell["alg1"] <= cell["wang"] + 1e-9 and cell["alg1"] <= cell["simple"] + 1e-9
    )
    frac = wins / len(by_cell)

    spec_high = R.ExperimentSpec(
        times=tuple(times),
        rate_sets=dict(R.RATE_SETS),
        lambda_values=(1200.0,),
        seed=42,
    )
    rows_high = R.run_sweep(spec_high)
    costs_by_set: dict[str, list[float]] = {}
    for row in rows_high:
        costs_by_set.setdefault(row.rate_set, []).append(row.online_cost)
    spreads = {name: max(v) / min(v) for name, v in costs_by_set.items()}
    set_bounds = {
        name: R.competitive_bound(R.Instance.build(rates, 50.0, 1, []))
        for name, rates in R.RATE_SETS.items()
    }
    for row in rows_low + rows_high:
        assert row.ratio is not None and row.ratio >= 1.0 - 1e-9
        if row.policy == "simple":
            assert row.ratio <= 3.0 + 1e-9, row
        if row.policy == "alg1":
            assert row.ratio <= set_bounds[row.rate_set] + 1e-9, row

    elapsed = time.perf_counter() - t0
    ok = frac >= 0.90 and all(s <= 1.10 for s in spreads.values()) and elapsed < 1800.0
    spread_txt = ", ".join(f"{k}={v:.3f}" for k, v in sorted(spreads.items()))
    _report(
        9,
        ok,
        f"threshold best in {wins}/{len(by_cell)} low-cost cells ({frac:.0%}); "
        f"cost spread at 1200: {spread_txt}; {elapsed:.0f}s",
    )
    assert frac >= 0.90
    for name, spread in sorted(spreads.items()):
        assert spread <= 1.10, (name, spread)
    assert elapsed < 1800.0
