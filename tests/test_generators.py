"""Instance generators: counterexamples, tight instances, adversary, random."""

from __future__ import annotations

import math

import pytest

import repsim as R
from reference_oracle import reference_schedule
from repsim.model import KIND_RELOCATED_SPECIAL, KIND_RESIDENT_SPECIAL, PURPOSE_RELOCATE
from repsim.policies import Policy

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


@pytest.mark.parametrize(
    "make, message",
    [
        (lambda: R.gen_tight(1, mu2=1.5, epsilon=1.0), "which=1 requires epsilon < lam/mu2 = 0.666667, got 1.0"),
        (lambda: R.gen_tight(2, mu2=2.5, epsilon=0.5), "which=2 requires epsilon < lam/mu2 = 0.4, got 0.5"),
        (lambda: R.gen_random(seed=1, n=0, m=1), "n must satisfy n >= 1, got 0"),
        (lambda: R.gen_random(seed=1, n=1, m=-1), "m must satisfy m >= 0, got -1"),
    ],
    ids=["tight1-epsilon", "tight2-epsilon", "random-no-server", "random-negative-m"],
)
def test_generator_refusals_name_their_fault(make, message):
    with pytest.raises(R.ParameterError) as err:
        make()
    assert str(err.value) == message


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


def test_an_abandonment_at_time_zero_forces_an_unbounded_ratio():
    # the anchor policy drops the pricier initial copy at the start
    t = R.run_adversary("simple", mu=5.0).decision_time
    assert t == 0.0
    assert R.adversary_branch2_ratio(t, 5.0, 1.0) == math.inf


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


class _MarksThenRelocates(Policy):
    """Marks the initial copy at server 2 special at t=0.1, then relocates it to server 1 at t=0.25."""

    name = "marks-then-relocates"

    def start(self, sim) -> None:
        sim.hold(2, 0.1)

    def on_request(self, sim, time, server, source) -> None:
        pass

    def expire(self, sim, time, server) -> None:
        if time == 0.1:
            sim.mark(2, KIND_RESIDENT_SPECIAL)
            sim.hold(2, 0.25)
        else:
            sim.transfer(2, 1, PURPOSE_RELOCATE, KIND_RELOCATED_SPECIAL)
            sim.drop(2)


class _RelocatesAtTheProbe(Policy):
    """Holds the initial copy at server 2 to the probe time, then drops it, first relocating it to a copyless server 1."""

    name = "relocates-at-the-probe"

    def start(self, sim) -> None:
        lam, mu = sim.prices.transfer_cost, sim.prices.rate(2)
        sim.hold(2, lam / mu + 4.0 * lam / mu**2)

    def on_request(self, sim, time, server, source) -> None:
        pass

    def expire(self, sim, time, server) -> None:
        if 1 not in sim.holders:
            sim.transfer(2, 1, PURPOSE_RELOCATE)
        sim.drop(2)


def test_a_kind_change_is_not_an_abandonment():
    # the probe time is 0.36 at mu 5; the copy turns special at 0.1 and leaves at 0.25
    out = R.run_adversary(_MarksThenRelocates(), mu=5.0)
    assert (out.branch, out.decision_time) == (2, 0.25)


def test_an_abandonment_at_the_probe_time_does_not_decide():
    # only alarms strictly before the probe time decide
    out = R.run_adversary(_RelocatesAtTheProbe(), mu=5.0)
    assert (out.branch, out.decision_time) == (1, 1.0 / 5.0 + 4.0 / 5.0**2)


def test_adversary_parameter_ranges():
    with pytest.raises(R.ParameterError):
        R.run_adversary("alg1", mu=4.0)
    with pytest.raises(R.ParameterError):
        R.run_adversary("alg1", mu=5.0, epsilon=0.0)


# each generator with admissible arguments; a case overrides one of them
GENERATORS = {
    "fig1": lambda kw: R.gen_fig1(**{"m": 4, "lam": 1.0, "delta": 0.5, "epsilon": 0.1, **kw}),
    "fig2": lambda kw: R.gen_fig2(**{"m": 4, "lam": 1.0, "mu2": 1.0, "epsilon": 0.01, **kw}),
    "tight1": lambda kw: R.gen_tight(**{"which": 1, "mu2": 1.5, **kw}),
    "tight2": lambda kw: R.gen_tight(**{"which": 2, "mu2": 2.5, "tau": 100.0, **kw}),
    "tight3": lambda kw: R.gen_tight(**{"which": 3, "mu2": 4.0, **kw}),
    "adversary": lambda kw: R.run_adversary(**{"policy": "alg1", "mu": 5.0, **kw}),
}


@pytest.mark.parametrize("value", [math.nan, math.inf])
@pytest.mark.parametrize(
    "generator, parameter",
    [
        ("fig1", "lam"), ("fig1", "delta"), ("fig1", "epsilon"),
        ("fig2", "lam"), ("fig2", "mu2"), ("fig2", "epsilon"),
        ("tight1", "mu2"), ("tight2", "lam"), ("tight2", "epsilon"), ("tight2", "mu2"), ("tight2", "tau"),
        ("tight3", "mu2"),
        ("adversary", "mu"), ("adversary", "lam"), ("adversary", "epsilon"),
    ],
)
def test_generator_parameters_refuse_nan_and_infinity_by_name(generator, parameter, value):
    GENERATORS[generator]({})  # the defaults are admissible
    with pytest.raises(R.ParameterError, match=rf"^{parameter} must satisfy "):
        GENERATORS[generator]({parameter: value})


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
