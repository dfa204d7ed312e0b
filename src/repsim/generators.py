"""Generators for counterexamples, tight instances, the adaptive adversary,
and seeded random instances.

The two-server counterexample families and the tight two-request instances
come with their closed-form expected costs so tests can compare simulated
runs against formulas rather than formulas against formulas. Constructions
whose opening request falls at time 0 realize it through the synthetic
initial request (time 0 at the initial server), which behaves identically;
request counts ``m`` include it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import Instance
from .policies import Policy, relocates, simulate


class ParameterError(ValueError):
    """A generator parameter fell outside its admissible range."""


def _check(name: str, value: float, ok: bool, rule: str) -> None:
    """Refuse parameter ``name`` unless ``value`` is finite and ``ok``, the test of ``rule``; NaN fails every test."""
    if not (ok and math.isfinite(value)):
        raise ParameterError(f"{name} must satisfy {rule}, got {value}")


@dataclass(frozen=True)
class CounterexampleResult:
    instance: Instance
    wang_lower_bound: float  # rival policy pays at least this up to the final request
    optimal_cost: float
    threshold_cost: float | None  # closed-form threshold-policy cost when known


@dataclass(frozen=True)
class TightResult:
    instance: Instance
    online_cost: float  # threshold policy, closed form
    optimal_cost: float

    @property
    def ratio(self) -> float:
        return self.online_cost / self.optimal_cost


@dataclass(frozen=True)
class AdversaryOutcome:
    instance: Instance
    online_cost: float
    offline_cost: float  # cost of the comparison strategy, feasible by construction
    branch: int  # 1: survived to the probe time; 2: abandoned early
    decision_time: float  # probe time (branch 1) or abandonment time (branch 2)

    @property
    def ratio(self) -> float:
        return self.online_cost / self.offline_cost


def gen_fig1(m: int, lam: float, delta: float, epsilon: float) -> CounterexampleResult:
    """First counterexample family: rates (1, 1+delta), requests at the pricier
    server spaced exactly one transfer cost apart.

    The rival policy pays at least (m-2)*3*lam + lam + eps while the optimum
    is (m-2)*lam*(1+delta) + lam + eps, driving the ratio to 3 as delta goes
    to 0 and m grows.
    """
    if m < 3:
        raise ParameterError(f"m must satisfy m >= 3, got {m}")
    _check("lam", lam, lam > 0, "0 < lam < inf")
    _check("delta", delta, delta > 0, "0 < delta < inf")
    limit = lam - lam / (1.0 + delta)
    _check("epsilon", epsilon, 0 < epsilon < limit, f"0 < epsilon < lam - lam/(1+delta) = {limit:g}")
    requests = [(epsilon + (k - 2) * lam, 2) for k in range(2, m + 1)]
    inst = Instance.build([1.0, 1.0 + delta], lam, 1, requests)
    wang_bound = (m - 2) * 3.0 * lam + lam + epsilon
    opt = (m - 2) * lam * (1.0 + delta) + lam + epsilon
    threshold = (m - 3) * lam * (1.0 + delta) + 4.0 * lam + epsilon
    return CounterexampleResult(inst, wang_bound, opt, threshold)


def gen_fig2(m: int, lam: float, mu2: float, epsilon: float) -> CounterexampleResult:
    """Second counterexample family: rates (1, mu2), consecutive requests at
    the second server spaced lam + lam/mu2 + eps apart.

    The rival policy pays at least (m-2)*5*lam + 2*lam - lam/mu2 + eps; the
    ratio tends to 5/(mu2+1), which exceeds 2 for 1 <= mu2 < 3/2.
    """
    if m < 3:
        raise ParameterError(f"m must satisfy m >= 3, got {m}")
    _check("lam", lam, lam > 0, "0 < lam < inf")
    _check("mu2", mu2, mu2 >= 1, "1 <= mu2 < inf")
    _check("epsilon", epsilon, epsilon > 0, "0 < epsilon < inf")
    spacing = lam + lam / mu2 + epsilon
    t = lam - lam / mu2 + epsilon
    requests = []
    for _ in range(2, m + 1):
        requests.append((t, 2))
        t += spacing
    inst = Instance.build([1.0, mu2], lam, 1, requests)
    wang_bound = (m - 2) * 5.0 * lam + 2.0 * lam - lam / mu2 + epsilon
    opt = (m - 2) * mu2 * spacing + 2.0 * lam - lam / mu2 + epsilon
    threshold = (m - 2) * mu2 * spacing + 2.0 * lam if mu2 < 1.5 else None
    return CounterexampleResult(inst, wang_bound, opt, threshold)


def wang_fig2_limit_ratio(mu2: float) -> float:
    """Limiting rival-to-optimal ratio of the second counterexample family."""
    return 5.0 / (mu2 + 1.0)


def gen_tight(which: int, mu2: float, lam: float = 1.0, epsilon: float = 1e-4, tau: float = 1.0) -> TightResult:
    """Tight two-server instances matching the three competitive-ratio regimes.

    which=1 (rate spread <= 2): ratio 4*lam / (2*lam + eps).
    which=2 (2 < spread, sole copy kept): ratio (4*lam + mu2*tau) / (2*lam + tau + eps).
    which=3 (sole copy relocated): ratio (3*lam + eps) / (lam + mu2*eps).
    The threshold policy's own rule, ``relocates(mu2, 1)`` or mu2 > 3 + 1e-9, parts 2 from 3.
    """
    _check("lam", lam, lam > 0, "0 < lam < inf")
    _check("epsilon", epsilon, epsilon > 0, "0 < epsilon < inf")
    _check("mu2", mu2, mu2 > 1, "1 < mu2 < inf")
    if which == 1:
        if not 1.0 < mu2 <= 2.0:
            raise ParameterError(f"which=1 requires 1 < mu2 <= 2, got {mu2}")
        if epsilon >= lam / mu2:
            raise ParameterError(f"which=1 requires epsilon < lam/mu2 = {lam / mu2:g}, got {epsilon}")
        t1 = (1.0 - 1.0 / mu2) * lam + epsilon
        inst = Instance.build([1.0, mu2], lam, 1, [(t1, 2), (lam + epsilon, 1)])
        return TightResult(inst, 4.0 * lam, 2.0 * lam + epsilon)
    if which == 2:
        if not 2.0 < mu2 or relocates(mu2, 1.0):
            raise ParameterError(f"which=2 requires 2 < mu2 <= 3 + 1e-9, got {mu2}")
        if epsilon >= lam / mu2:
            raise ParameterError(f"which=2 requires epsilon < lam/mu2 = {lam / mu2:g}, got {epsilon}")
        _check("tau", tau, tau > 0, "0 < tau < inf")
        t1 = (1.0 - 1.0 / mu2) * lam + epsilon
        inst = Instance.build([1.0, mu2], lam, 1, [(t1, 2), (lam + tau + epsilon, 1)])
        return TightResult(inst, 4.0 * lam + mu2 * tau, 2.0 * lam + tau + epsilon)
    if which == 3:
        if not relocates(mu2, 1.0):
            raise ParameterError(f"which=3 requires mu2 > 3 + 1e-9, got {mu2}")
        t1 = lam / mu2 + epsilon
        inst = Instance.build([1.0, mu2], lam, 2, [(t1, 2)])
        return TightResult(inst, 3.0 * lam + epsilon, lam + mu2 * epsilon)
    raise ParameterError(f"which must be 1, 2 or 3, got {which}")


def adversary_branch1_ratio(mu: float, lam: float = 1.0) -> float:
    """Ratio forced when the policy holds the expensive copy to the probe time."""
    return (2.0 * lam * mu**2 + 4.0 * lam * mu) / (lam * mu**2 + lam * mu + 4.0 * lam)


def adversary_branch2_ratio(t: float, mu: float, lam: float = 1.0) -> float:
    """Limiting ratio forced when the policy abandons the copy at time t; unbounded at t = 0."""
    return math.inf if t == 0 else (t * mu + 2.0 * lam) / (t * mu)


def run_adversary(policy: "Policy | str", mu: float, lam: float = 1.0, epsilon: float = 1e-4) -> AdversaryOutcome:
    """Adaptively construct a two-server instance defeating a deterministic policy.

    Two servers with rates 1 and mu (> 4); the object starts at the pricier
    one. If the policy keeps that copy up to the probe time
    lam/mu + 4*lam/mu^2, one request at the cheap server forces the ratio
    above 2; if it abandons the copy earlier, one request right after the
    abandonment does.

    The decision is read off a plain run of the outcome instance without
    requests: the end of server 2's first holding span there, records that
    touch merged so that a kind change is no abandonment. An end before the
    probe time takes branch 2 at that end, any other branch 1. The policy is then
    simulated afresh on the instance with the one chosen request. The two runs
    agree up to the request because the policies are online by construction
    (a policy sees prices and the past only), and ``Policy.start`` begins a
    fresh run.
    """
    _check("mu", mu, mu > 4, "4 < mu < inf")
    _check("lam", lam, lam > 0, "0 < lam < inf")
    _check("epsilon", epsilon, epsilon > 0, "0 < epsilon < inf")
    probe = lam / mu + 4.0 * lam / mu**2
    watched, _ = simulate(policy, Instance.build([1.0, mu], lam, 2, []))
    held_until = 0.0  # the end of server 2's first holding span, whose initial copy starts at 0
    for c in watched.schedule.copies:  # in start order
        if c.server == 2 and c.start == held_until:
            held_until = c.end
    if held_until >= probe:
        branch, decision_time, request, offline = 1, probe, (probe, 1), probe + lam
    else:
        t_req = held_until + epsilon
        branch, decision_time, request, offline = 2, held_until, (t_req, 2), t_req * mu
    instance = Instance.build([1.0, mu], lam, 2, [request])
    _, cost = simulate(policy, instance)
    return AdversaryOutcome(instance, cost.total, offline, branch, decision_time)


def gen_random(
    seed: int,
    n: int,
    m: int,
    rate_range: tuple[float, float] = (1.0, 6.0),
    horizon: float = 10.0,
    initial_server: int = 1,
) -> Instance:
    """Seeded random instance: sorted rates, strictly increasing times."""
    if n < 1:
        raise ParameterError(f"n must satisfy n >= 1, got {n}")
    if m < 0:
        raise ParameterError(f"m must satisfy m >= 0, got {m}")
    lo, hi = rate_range
    if not 0 < lo <= hi < math.inf:
        raise ParameterError(f"rate_range must satisfy 0 < lo <= hi < inf, got {rate_range}")
    if not 0 < horizon < math.inf:
        raise ParameterError(f"horizon must satisfy 0 < horizon < inf, got {horizon}")
    rng = np.random.default_rng(seed)
    rates = np.sort(rng.uniform(lo, hi, n))
    lam = float(rng.uniform(0.5, 2.0))
    while True:
        times = np.sort(rng.uniform(0.0, horizon, m))
        if m == 0 or (times[0] > 0 and np.all(np.diff(times) > 0)):
            break
    servers = rng.integers(1, n + 1, m)
    return Instance.build(list(rates), lam, initial_server, list(zip(times.tolist(), servers.tolist())))
