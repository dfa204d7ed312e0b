"""Instance generators: counterexamples, tight instances, adversary, random."""

from __future__ import annotations

import math

import pytest

import repsim as R
from reference_oracle import reference_schedule

TOL = 1e-9


def test_fig1_times_and_optimum():
    res = R.gen_fig1(4, 1.0, 0.5, 0.1)
    assert [r.time for r in res.instance.all_requests] == [0.0, 0.1, 1.1, 2.1]
    assert [r.server for r in res.instance.all_requests] == [1, 2, 2, 2]
    # closed-form optimum (m-2)*lam*(1+delta) + lam + eps
    assert abs(res.optimal_cost - 4.1) <= TOL
    assert abs(R.opt_full(res.instance).opt_cost - res.optimal_cost) <= TOL


def test_fig1_second_parameterization():
    res = R.gen_fig1(3, 2.0, 0.25, 0.2)
    assert [r.time for r in res.instance.all_requests] == [0.0, 0.2, 2.2]
    assert abs(res.optimal_cost - 4.7) <= TOL
    assert abs(R.opt_full(res.instance).opt_cost - 4.7) <= TOL


def test_fig1_parameter_ranges():
    with pytest.raises(R.ParameterError):
        R.gen_fig1(2, 1.0, 0.5, 0.1)
    with pytest.raises(R.ParameterError) as err:
        R.gen_fig1(4, 1.0, 0.5, 0.4)  # eps >= lam - lam/(1+delta) = 1/3
    assert "lam - lam/(1+delta)" in str(err.value)
    with pytest.raises(R.ParameterError):
        R.gen_fig1(4, 1.0, -0.1, 0.01)


def test_fig1_ratio_approaches_three():
    res = R.gen_fig1(2000, 1.0, 1e-4, 1e-5)
    _, cost = R.simulate("wang", res.instance)
    ratio = cost.total / res.optimal_cost
    assert ratio >= 2.99


def test_fig1_threshold_policy_stays_within_twice_optimal():
    for m in (3, 5, 20, 200):
        res = R.gen_fig1(m, 1.0, 0.5, 0.1)
        _, cost = R.simulate("alg1", res.instance)
        assert cost.total <= 2.0 * res.optimal_cost + 1e-9
    # and approaches the optimum as the sequence grows
    res = R.gen_fig1(200, 1.0, 0.5, 0.1)
    _, cost = R.simulate("alg1", res.instance)
    assert cost.total / res.optimal_cost <= 1.05


def test_fig2_times():
    res = R.gen_fig2(3, 1.0, 1.0, 0.01)
    times = [r.time for r in res.instance.all_requests]
    assert times[0] == 0.0
    assert abs(times[1] - 0.01) <= TOL
    assert abs(times[2] - 2.02) <= TOL


def test_fig2_simulated_ratio_near_limit():
    res = R.gen_fig2(1000, 1.0, 1.0, 1e-4)
    _, cost = R.simulate("wang", res.instance)
    ratio = cost.total / res.optimal_cost
    assert 2.45 <= ratio <= 2.5
    assert abs(R.wang_fig2_limit_ratio(1.0) - 2.5) <= TOL


def test_fig2_limit_ratio_above_two_below_three_halves():
    assert abs(R.wang_fig2_limit_ratio(1.4) - 5.0 / 2.4) <= TOL
    assert R.wang_fig2_limit_ratio(1.4) > 2.0
    res = R.gen_fig2(1500, 1.0, 1.4, 1e-4)
    _, cost = R.simulate("wang", res.instance)
    assert abs(cost.total / res.optimal_cost - 5.0 / 2.4) <= 0.005


def test_fig2_parameter_ranges():
    with pytest.raises(R.ParameterError):
        R.gen_fig2(2, 1.0, 1.0, 0.01)
    with pytest.raises(R.ParameterError):
        R.gen_fig2(4, 1.0, 0.9, 0.01)
    with pytest.raises(R.ParameterError):
        R.gen_fig2(4, 1.0, 1.0, 0.0)


def test_tight1_example():
    res = R.gen_tight(1, mu2=2.0, lam=1.0, epsilon=0.01)
    run, cost = R.simulate("alg1", res.instance)
    assert abs(cost.total - res.online_cost) <= TOL
    opt = R.opt_full(res.instance).opt_cost
    assert abs(opt - res.optimal_cost) <= TOL
    assert abs(cost.total / opt - 1.990) <= 5e-4


def test_tight2_example():
    res = R.gen_tight(2, mu2=2.5, lam=1.0, epsilon=0.01, tau=100.0)
    run, cost = R.simulate("alg1", res.instance)
    assert abs(cost.total - res.online_cost) <= TOL
    opt = R.opt_full(res.instance).opt_cost
    assert abs(opt - res.optimal_cost) <= TOL
    assert abs(cost.total / opt - 2.5) <= 0.02 * 2.5


def test_tight3_example():
    res = R.gen_tight(3, mu2=4.0, lam=1.0, epsilon=1e-3)
    run, cost = R.simulate("alg1", res.instance)
    assert abs(cost.total - res.online_cost) <= TOL
    opt = R.opt_full(res.instance).opt_cost
    assert abs(opt - res.optimal_cost) <= TOL
    assert abs(cost.total / opt - (3 + 1e-3) / (1 + 4e-3)) <= 1e-6


def test_tight_bracket_rejections():
    with pytest.raises(R.ParameterError):
        R.gen_tight(1, mu2=2.5)
    with pytest.raises(R.ParameterError):
        R.gen_tight(2, mu2=2.0)
    with pytest.raises(R.ParameterError):
        R.gen_tight(3, mu2=3.0)
    with pytest.raises(R.ParameterError, match=r"which=3 requires mu2 > 3 \+ 1e-9"):
        R.gen_tight(3, mu2=3 + 5e-10)  # the threshold policy keeps a sole copy here
    with pytest.raises(R.ParameterError, match=r"which=2 requires 2 < mu2 <= 3 \+ 1e-9"):
        R.gen_tight(2, mu2=3 + 2e-9)
    with pytest.raises(R.ParameterError):
        R.gen_tight(4, mu2=2.0)


@pytest.mark.parametrize("which, mu2", [(2, 3 + 5e-10), (3, 3 + 2e-9)])
def test_tight_brackets_follow_the_threshold_rule(which, mu2):
    # within TOL of 3 the policy keeps its sole copy, just beyond it relocates, and the closed form follows
    res = R.gen_tight(which, mu2=mu2)
    _, cost = R.simulate("alg1", res.instance)
    assert abs(cost.total - res.online_cost) <= 1e-9 * res.online_cost


def test_adversary_branch_formulas():
    assert abs(R.adversary_branch1_ratio(5.0, 1.0) - 70.0 / 34.0) <= 1e-12
    assert R.adversary_branch1_ratio(5.0, 1.0) > 2.0
    assert abs(R.adversary_branch2_ratio(0.1, 5.0, 1.0) - 5.0) <= 1e-12


def test_adversary_beats_all_three_policies():
    for name in ("alg1", "wang", "simple"):
        out = R.run_adversary(name, mu=5.0, lam=1.0, epsilon=1e-4)
        assert out.ratio > 2.0, name
        assert R.validate_schedule(R.simulate(name, out.instance)[0].schedule) == []


def test_adversary_branch1_realized_by_rival():
    out = R.run_adversary("wang", mu=5.0, lam=1.0, epsilon=1e-4)
    assert out.branch == 1
    assert abs(out.ratio - 70.0 / 34.0) <= 1e-9


def test_adversary_branch2_realized_by_threshold():
    out = R.run_adversary("alg1", mu=5.0, lam=1.0, epsilon=1e-4)
    assert out.branch == 2
    assert abs(out.decision_time - 0.2) <= TOL
    # realized cost follows the abandonment bound with the finite epsilon term
    t, mu, lam, eps = out.decision_time, 5.0, 1.0, 1e-4
    assert abs(out.online_cost - (t * mu + eps * 1.0 + 2 * lam)) <= 1e-9
    assert abs(out.offline_cost - (t + eps) * mu) <= 1e-9


def test_adversary_parameter_ranges():
    with pytest.raises(R.ParameterError):
        R.run_adversary("alg1", mu=4.0)
    with pytest.raises(R.ParameterError):
        R.run_adversary("alg1", mu=5.0, epsilon=0.0)


def test_random_generator_is_deterministic():
    a = R.gen_random(seed=17, n=4, m=9)
    b = R.gen_random(seed=17, n=4, m=9)
    assert a == b
    assert a != R.gen_random(seed=18, n=4, m=9)


def test_random_single_server_forced():
    inst = R.gen_random(seed=3, n=1, m=6)
    assert all(r.server == 1 for r in inst.requests)
    opt = R.opt_full(inst).opt_cost
    assert abs(opt - inst.rate(1) * inst.horizon) <= 1e-9


def test_random_oracles_agree_seed7():
    inst = R.gen_random(seed=7, n=4, m=12)
    assert abs(R.opt_full(inst).opt_cost - reference_schedule(inst, restricted=True)[0]) <= 1e-9


@pytest.mark.parametrize("horizon", [0.0, -1.0, math.nan, math.inf])
def test_random_generator_rejects_a_bad_horizon(horizon):
    with pytest.raises(R.ParameterError, match=r"^horizon must satisfy 0 < horizon < inf, got "):
        R.gen_random(seed=1, n=2, m=3, horizon=horizon)


@pytest.mark.parametrize(
    "rate_range",
    [(0.0, 1.0), (-1.0, 1.0), (2.0, 1.0), (1.0, math.inf), (math.inf, math.inf), (math.nan, 1.0), (1.0, math.nan)],
)
def test_random_generator_rejects_a_bad_rate_range(rate_range):
    with pytest.raises(R.ParameterError, match=r"^rate_range must satisfy 0 < lo <= hi < inf, got "):
        R.gen_random(seed=1, n=2, m=3, rate_range=rate_range)
