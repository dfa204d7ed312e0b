"""Exact offline-optimal cost oracle via dynamic programming over holder subsets.

Between consecutive requests an optimal schedule keeps a fixed nonempty set of
copy holders, and changes holders only at request instants (creating a copy
early only adds storage, and transfers can always be aligned with a request).
The DP therefore sweeps requests in time order with one cost table indexed by
holder subset. A step charges gap storage for the held set, a transfer when
the requesting server holds no copy, and a transfer per extra copy created.

Two transition sets are offered. The full oracle may create copies anywhere.
The restricted oracle prunes the creation targets to the requesting server,
the cheapest server, and servers strictly cheaper than the priciest current
holder (the just-served requester counting as held). The pruning is safe: an
extra copy only ever pays off by letting a costlier holder be dropped
(parking the object cheaply or pre-positioning it at a cheaper server with
an upcoming request), so some optimal schedule never creates a copy at or
above the priciest held rate. Creating only at the requester or the cheapest
server, with no rate condition, is NOT enough; pre-positioning at a
mid-priced server beats it by a positive margin.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import (
    KIND_OFFLINE,
    PURPOSE_CREATE,
    PURPOSE_SERVE,
    TOL,
    CopyInterval,
    Instance,
    ReplicationSchedule,
    Transfer,
    Violation,
    _holding_spans,
)

DEFAULT_BUDGET = 5_000_000_000


class BudgetExceeded(RuntimeError):
    """The requested oracle run exceeds the configured work budget."""


@dataclass(frozen=True)
class DPSolution:
    """Optimal offline cost, one optimal schedule, and all prefix optima."""

    opt_cost: float
    schedule: ReplicationSchedule | None
    prefix_costs: tuple[float, ...]  # prefix_costs[i] = optimum for the first i requests


def _bit(server: int) -> int:
    return 1 << (server - 1)


def _rank_order(n: int) -> np.ndarray:
    """rank[mask] = position under (popcount, ascending index tuple) ordering."""
    size = 1 << n
    def key(mask: int) -> tuple:
        idx = tuple(i + 1 for i in range(n) if mask >> i & 1)
        return (len(idx), idx)
    order = sorted(range(size), key=key)
    rank = np.empty(size, dtype=np.int64)
    for pos, mask in enumerate(order):
        rank[mask] = pos
    return rank


def _check_budget(instance: Instance, restricted: bool, budget: int) -> None:
    n, m = instance.n, instance.m
    if n > 12:
        raise BudgetExceeded(f"oracle supports at most 12 servers, instance has {n}")
    if restricted:
        work = (m + 1) * (2 * n + 2) * (1 << n)
    else:
        work = (m + 1) * 4**n
    if work > budget:
        raise BudgetExceeded(
            f"estimated work {work:.4g} transition evaluations exceeds budget {budget:.4g}"
            f" (n={n}, m={m}, {'restricted' if restricted else 'full'} mode)"
        )


def _subset_tables(instance: Instance) -> tuple[np.ndarray, np.ndarray, np.ndarray, list[tuple[float, int]]]:
    """Rates, each holder subset's rate sum and priciest rate, and the events.

    Subset ``mask`` holds server ``b + 1`` when bit ``b`` is set. The events
    are (time, server) pairs, the synthetic time-0 request first.
    """
    rates = np.array([s.rate for s in instance.servers])
    size = 1 << instance.n
    ratesum = np.zeros(size)
    maxrate = np.zeros(size)
    for b in range(instance.n):
        half = 1 << b
        ratesum[half : 2 * half] = ratesum[:half] + rates[b]
        maxrate[half : 2 * half] = np.maximum(maxrate[:half], rates[b])
    events = [(0.0, instance.initial_server)] + [(r.time, r.server) for r in instance.requests]
    return rates, ratesum, maxrate, events


def _solve(instance: Instance, restricted: bool, budget: int, reconstruct: bool) -> DPSolution:
    _check_budget(instance, restricted, budget)
    n = instance.n
    size = 1 << n
    lam = instance.transfer_cost
    rates, ratesum, maxrate, events = _subset_tables(instance)

    masks = np.arange(size)
    with_bit = [np.nonzero(masks & (1 << b))[0] for b in range(n)]

    dp = np.full(size, math.inf)
    dp[_bit(instance.initial_server)] = 0.0

    tables: list[np.ndarray] = []
    prefix: list[float] = []
    prev_t = 0.0
    for time, server in events:
        gap = time - prev_t
        prev_t = time
        qbit = _bit(server)
        a = dp + gap * ratesum
        without_q = (masks & qbit) == 0
        a[without_q] += lam  # serve by inward transfer
        wq = with_bit[server - 1]
        a[wq] = np.minimum(a[wq], a[wq ^ qbit])  # keeping the served copy is free
        for b in range(n):
            # an extra copy costs one transfer; sequential passes cover
            # multi-copy creations (restricted targets cannot raise the
            # priciest held rate, so later conditions are unaffected)
            w = with_bit[b]
            src = w ^ (1 << b)
            if restricted and b != 0:
                ok = maxrate[src] > rates[b]
                w, src = w[ok], src[ok]
            a[w] = np.minimum(a[w], a[src] + lam)
        for b in range(n):
            w = with_bit[b]
            a[w ^ (1 << b)] = np.minimum(a[w ^ (1 << b)], a[w])  # drops are free
        a[0] = math.inf
        dp = a
        if reconstruct:
            tables.append(dp.copy())
        prefix.append(float(dp.min()))

    opt = prefix[-1]
    schedule = _reconstruct(instance, tables, restricted) if reconstruct else None
    return DPSolution(opt, schedule, tuple(prefix))


def _argmin_with_rank(costs: np.ndarray, rank: np.ndarray, feasible: np.ndarray) -> int:
    c = np.where(feasible, costs, math.inf)
    best = c.min()
    if not math.isfinite(best):
        raise RuntimeError("offline DP backtrack found no feasible predecessor")
    near = np.nonzero(c <= best + TOL)[0]
    return int(near[np.argmin(rank[near])])


def _reconstruct(instance: Instance, tables: list[np.ndarray], restricted: bool) -> ReplicationSchedule:
    n = instance.n
    size = 1 << n
    lam = instance.transfer_cost
    masks = np.arange(size)
    rank = _rank_order(n)
    rates, ratesum, maxrate, events = _subset_tables(instance)
    popcount = np.array([bin(m).count("1") for m in range(size)])

    final_state = _argmin_with_rank(tables[-1], rank, np.ones(size, dtype=bool))
    holder_seq = [0] * len(events)
    holder_seq[-1] = final_state
    target = final_state
    for i in range(len(events) - 1, 0, -1):
        time, server = events[i]
        gap = time - events[i - 1][0]
        qbit = _bit(server)
        extra = target & ~(masks | qbit)
        feasible = np.ones(size, dtype=bool)
        if restricted:
            # creations are conditioned on the priciest holder with the just
            # served requester counting as held, matching the forward pass
            maxrate_q = maxrate[masks | qbit]
            for b in range(1, n):
                bb = 1 << b
                if target & bb and bb != qbit:
                    lacks = (masks & bb) == 0
                    feasible &= ~lacks | (maxrate_q > rates[b])
        costs = (
            tables[i - 1]
            + gap * ratesum
            + lam * ((masks & qbit) == 0)
            + lam * popcount[extra]
        )
        target = _argmin_with_rank(costs, rank, feasible)
        holder_seq[i - 1] = target

    copies: list[CopyInterval] = []
    transfers: list[Transfer] = []
    times = [t for t, _ in events]
    last = len(events) - 1
    for server in range(1, n + 1):
        bit = _bit(server)
        i = 0
        while i <= last:
            if holder_seq[i] & bit:
                j = i
                while j < last and holder_seq[j + 1] & bit:
                    j += 1
                end = times[j + 1] if j < last else times[last]
                copies.append(CopyInterval(server, times[i], end, KIND_OFFLINE))
                i = j + 1
            else:
                i += 1
    if not holder_seq[0] & _bit(instance.initial_server):
        # initial copy dropped right after the time-0 adjustment
        copies.append(CopyInterval(instance.initial_server, 0.0, 0.0, KIND_OFFLINE))
    for i, (time, server) in enumerate(events):
        qbit = _bit(server)
        prev_mask = holder_seq[i - 1] if i > 0 else _bit(instance.initial_server)
        src = min(s for s in range(1, n + 1) if prev_mask & _bit(s))
        if i > 0 and not prev_mask & qbit:
            transfers.append(Transfer(time, src, server, PURPOSE_SERVE))
            if not holder_seq[i] & qbit:
                copies.append(CopyInterval(server, time, time, KIND_OFFLINE))
        created = holder_seq[i] & ~(prev_mask | qbit)
        for s in range(1, n + 1):
            if created & _bit(s):
                transfers.append(Transfer(time, src, s, PURPOSE_CREATE))
    return ReplicationSchedule(
        instance,
        tuple(sorted(copies, key=lambda c: (c.start, c.server, c.end))),
        tuple(sorted(transfers, key=lambda t: (t.time, t.src, t.dst))),
    )


def opt_full(instance: Instance, budget: int = DEFAULT_BUDGET, reconstruct: bool = True) -> DPSolution:
    """Exact optimum with copies creatable at any server on request instants."""
    return _solve(instance, restricted=False, budget=budget, reconstruct=reconstruct)


def opt_restricted(instance: Instance, budget: int = DEFAULT_BUDGET, reconstruct: bool = True) -> DPSolution:
    """Optimum over the pruned transition set meant for trace-scale runs.

    Copies are created only at the requesting server, at server 1, or at
    servers strictly cheaper than the priciest current holder. Agreement
    with ``opt_full`` is part of the acceptance suite.
    """
    return _solve(instance, restricted=True, budget=budget, reconstruct=reconstruct)


def validate_offline_structure(schedule: ReplicationSchedule) -> list[Violation]:
    """Check the structural laws every optimal schedule can be assumed to obey.

    (a) every transfer happens at some request time (the synthetic time-0
    request included); (b) when two consecutive requests at one server are
    close enough that storing between them is no costlier than one transfer,
    the server holds a copy throughout the gap.
    """
    inst = schedule.instance
    out: list[Violation] = []
    req_times = [0.0] + [r.time for r in inst.requests]
    for tr in schedule.transfers:
        if not any(abs(tr.time - t) <= TOL for t in req_times):
            out.append(Violation(tr.time, f"transfer at t={tr.time:g} coincides with no request time"))

    spans = _holding_spans(schedule)

    prev_at: dict[int, float] = {inst.initial_server: 0.0}
    for req in inst.requests:
        t_prev = prev_at.get(req.server)
        if t_prev is not None and inst.rate(req.server) * (req.time - t_prev) <= inst.transfer_cost + TOL:
            held = any(a - TOL <= t_prev and req.time <= b + TOL for a, b in spans[req.server])
            if not held:
                out.append(
                    Violation(
                        req.time,
                        f"request {req.index}: server {req.server} does not hold a copy through "
                        f"({t_prev:g}, {req.time:g}) although storing is no costlier than a transfer",
                    )
                )
        prev_at[req.server] = req.time
    return out
