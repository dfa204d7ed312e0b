"""Invariant suites over policy runs and oracle outputs.

Used by the ``verify`` command and by the test suite: schedule validity for
every policy, special-copy structure of threshold-policy runs, allocation
conservation, the oracle's schedule and its structural laws (the
one-far-holder law among them), dominance, and the competitive bounds of
the threshold and anchor policies. The schedule validators live in ``model``;
this module adds the threshold-run checks, which ``verify_instance`` calls by
their public names once per instance.
"""

from __future__ import annotations

import heapq

from .allocation import AllocationReport, classify_and_allocate
from .generators import gen_random
from .model import (
    KIND_REGULAR,
    KIND_RELOCATED_SPECIAL,
    SPECIAL_KINDS,
    TOL,
    CopyInterval,
    Instance,
    compute_cost,
    competitive_bound,
    validate_offline_structure,
    validate_schedule,
)
from .offline import BudgetExceeded, DEFAULT_BUDGET, opt_full
from .policies import AnnotatedRun, relocates, simulate


def _overlaps(a: CopyInterval, b: CopyInterval) -> bool:
    return a.start < b.end - TOL and b.start < a.end - TOL


def _special_overlaps(specials: list[CopyInterval], regulars: list[CopyInterval]) -> list[tuple[int, bool, int]]:
    """Every pair of overlapping copies that includes a special one, in report order.

    Both lists come in order of start, as a schedule stores its copies. A
    pair is (position of the special, whether the partner is regular,
    position of the partner), with the earlier special first in a pair of
    specials. One sweep in order of start: a copy stays live while a later
    start can still fall before its ``end - TOL``, so each special is compared
    only with the copies live when it starts and each regular only with the
    live specials.
    """
    pairs: list[tuple[int, bool, int]] = []
    # heaps of (end - TOL, position), indexed by whether the copy is regular
    live = live_specials, live_regulars = ([], [])
    order = heapq.merge(
        [(c.start, False, i) for i, c in enumerate(specials)], [(c.start, True, k) for k, c in enumerate(regulars)]
    )
    for start, regular, x in order:
        for heap in live:
            while heap and heap[0][0] <= start:
                heapq.heappop(heap)
        c = regulars[x] if regular else specials[x]
        for _, i in live_specials:
            if _overlaps(specials[i], c):
                pairs.append((i, True, x) if regular else (min(i, x), False, max(i, x)))
        if not regular:
            pairs += [(x, True, k) for _, k in live_regulars if _overlaps(c, regulars[k])]
        heapq.heappush(live[regular], (c.end - TOL, x))
    return sorted(pairs)


def special_copy_problems(run: AnnotatedRun) -> list[str]:
    """Violations of the special-copy structure in a threshold-policy run.

    No two special intervals may overlap, no special interval may overlap a
    regular one, relocated copies live only at a minimum-rate server, and
    relocated copies exist only when the dearest rate crosses the threshold
    policy's rule, ``relocates``: more than three times the cheapest plus TOL.
    """
    inst = run.schedule.instance
    out: list[str] = []
    specials = [c for c in run.schedule.copies if c.kind in SPECIAL_KINDS]
    regulars = [c for c in run.schedule.copies if c.kind == KIND_REGULAR]
    for i, regular, j in _special_overlaps(specials, regulars):
        if regular:
            out.append(f"special copy overlaps a regular copy: {specials[i]} and {regulars[j]}")
        else:
            out.append(f"special copies overlap: {specials[i]} and {specials[j]}")
    min_rate = inst.rate(1)
    for c in specials:
        if c.kind == KIND_RELOCATED_SPECIAL and inst.rate(c.server) > min_rate + TOL:
            out.append(f"relocated copy at non-minimum-rate server {c.server}")
    if any(c.kind == KIND_RELOCATED_SPECIAL for c in specials) and not relocates(inst.servers[-1].rate, min_rate):
        out.append(f"relocated copy exists although no rate exceeds 3 x {min_rate:g} + 1e-9")
    return out


def typing_problems(run: AnnotatedRun, report: AllocationReport | None = None) -> list[str]:
    """Violations of the request-typing laws in a threshold-policy run.

    ``report`` is the run's allocation when the caller has already made it;
    without it the run is allocated here.
    """
    report = classify_and_allocate(run) if report is None else report
    inst = run.schedule.instance
    out: list[str] = []
    cheapest = inst.rate(1)
    relocating = relocates(inst.servers[-1].rate, cheapest)
    rule = f"3 x {cheapest:g} + 1e-9"
    all_reqs = inst.all_requests
    prev_at: dict[int, float] = {inst.initial_server: 0.0}
    for req, typing, _alloc in report.entries:
        t_prev = prev_at.get(req.server)
        window = inst.transfer_cost / inst.rate(req.server)
        if t_prev is not None:
            gap = req.time - t_prev
            if typing.category == 4 and gap > window + TOL:
                out.append(f"request {req.index} served from its own window after {gap:g} > {window:g}")
            if typing.category != 4 and gap <= window - TOL:
                out.append(f"request {req.index} not window-served although gap {gap:g} <= {window:g}")
        if typing.category in (2, 5):
            provider_rate = inst.rate(all_reqs[typing.provider].server)
            if relocates(provider_rate, cheapest):
                out.append(f"request {req.index} served from a retained copy at rate {provider_rate:g} > {rule}")
        if typing.category in (3, 6) and not relocating:
            out.append(f"request {req.index} is category {typing.category} although no rate exceeds {rule}")
        prev_at[req.server] = req.time
    return out


def _cost_slack(a: float, b: float) -> float:
    """Tolerance of a comparison between two costs: 1e-9 relative, at least 1e-9.

    Costs reach about 1e7 at trace scale, where an absolute 1e-9 is below
    one ulp and summing the same schedule in another order already exceeds it.
    """
    return 1e-9 * max(1.0, abs(a), abs(b))


def verify_instance(instance: Instance, budget: int = DEFAULT_BUDGET) -> list[str]:
    """Run every invariant suite against one instance; returns found problems."""
    problems: list[str] = []
    runs: dict[str, tuple] = {}
    for name in ("alg1", "wang", "simple"):
        run, cost = simulate(name, instance)
        runs[name] = (run, cost)
        for v in validate_schedule(run.schedule):
            problems.append(f"{name}: invalid schedule: {v.description}")

    alg1_run, alg1_cost = runs["alg1"]
    problems += [f"alg1: {p}" for p in special_copy_problems(alg1_run)]
    report = classify_and_allocate(alg1_run)
    problems += [f"alg1: {p}" for p in typing_problems(alg1_run, report)]
    gap = report.total_allocated - alg1_cost.total
    # summing thousands of allocated pieces in another order drifts by ulps of the total
    if abs(gap) > max(1e-9, 1e-12 * alg1_cost.total):
        problems.append(f"alg1: allocation conservation broken by {gap:g}")

    try:
        full = opt_full(instance, budget=budget)
    except BudgetExceeded as exc:
        problems.append(f"oracle skipped: {exc}")
        return problems
    problems += [f"oracle: invalid schedule: {v.description}" for v in validate_schedule(full.schedule)]
    problems += [f"oracle: structure: {v.description}" for v in validate_offline_structure(full.schedule)]
    schedule_cost = compute_cost(full.schedule).total
    if abs(schedule_cost - full.opt_cost) > _cost_slack(schedule_cost, full.opt_cost):
        problems.append("oracle: reconstructed schedule cost differs from optimum")
    for i in range(1, len(full.prefix_costs)):
        before, after = full.prefix_costs[i - 1], full.prefix_costs[i]
        if before > after + _cost_slack(before, after):
            problems.append(f"prefix optimum decreases at request {i}")
    for name, (run, cost) in runs.items():
        if full.opt_cost > cost.total + _cost_slack(full.opt_cost, cost.total):
            problems.append(f"{name}: cost {cost.total:g} undercuts the optimum {full.opt_cost:g}")
    bound = competitive_bound(instance)
    if alg1_cost.total > bound * full.opt_cost + _cost_slack(alg1_cost.total, bound * full.opt_cost):
        problems.append(f"alg1: cost {alg1_cost.total!r} exceeds {bound:g} x optimum {full.opt_cost!r}")
    simple_cost = runs["simple"][1].total
    simple_bound = 3.0 * full.opt_cost
    if instance.initial_server == 1 and simple_cost > simple_bound + _cost_slack(simple_cost, simple_bound):
        problems.append(f"simple: cost {simple_cost!r} exceeds 3 x optimum {full.opt_cost!r}")
    return problems


def verify_random_batch(seed: int, count: int, budget: int = DEFAULT_BUDGET) -> list[str]:
    """Invariant suites over seeded random instances of 1-4 servers and 1-12 requests, oracles under ``budget``."""
    if count < 1:
        raise ValueError(f"count must be at least 1 instance, got {count}")
    problems: list[str] = []
    for k in range(count):
        inst = gen_random(seed + k, n=1 + (seed + k) % 4, m=1 + (seed + 7 * k) % 12)
        found = verify_instance(inst, budget=budget)
        problems += [f"instance {k} (seed {seed + k}): {p}" for p in found]
    return problems
