"""Exact offline-optimal cost oracle via dynamic programming over holder subsets.

Between consecutive requests an optimal schedule keeps a fixed nonempty set of
copy holders, and changes holders only at request instants (creating a copy
early only adds storage, and transfers can always be aligned with a request).
The DP therefore sweeps requests in time order with one cost table indexed by
holder subset. A step charges gap storage for the held set, a transfer when
the requesting server holds no copy, and a transfer per extra copy created.
Each change of holders is a bit pass that relaxes the subsets on one side of
a server's bit from their partners on the other: (2n + 2) * 2^n evaluations
per step in either mode.

The restricted oracle is the full one with a creation mask: copies are
created only at the requester, the cheapest server, and servers strictly
cheaper than the priciest current holder. The pruning is safe: an extra copy
only ever pays off by letting a costlier holder be dropped (parking the object
cheaply or pre-positioning it at a cheaper server with an upcoming request),
so some optimal schedule never creates a copy at or above the priciest held
rate. Creating only at the requester or the cheapest server, with no rate
condition, is NOT enough; pre-positioning at a mid-priced server beats it by
a positive margin.

For a schedule the forward pass records, per step, the subset each subset was
reached from, moving it only where a candidate is strictly cheaper. The
backtrack walks these choices back from the first cheapest final subset, so
on exact ties the schedule is the first strictly cheaper path in pass order.
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
    _any_within_tol,
    _holding_spans,
    _holds_through,
    _span_lows,
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


def _check_budget(instance: Instance, budget: int) -> None:
    n, m = instance.n, instance.m
    if n > 12:
        raise BudgetExceeded(f"oracle supports at most 12 servers, instance has {n}")
    work = (m + 1) * (2 * n + 2) * (1 << n)
    if work > budget:
        raise BudgetExceeded(
            f"estimated work {work:.4g} transition evaluations exceeds budget {budget:.4g} (n={n}, m={m})"
        )


def _subset_tables(instance: Instance, restricted: bool) -> tuple[np.ndarray, list[np.ndarray]]:
    """Each holder subset's rate sum, and per bit the cost of creating that copy.

    Subset ``mask`` holds server ``b + 1`` when bit ``b`` is set. ``create[b]``
    is laid out like the subsets lacking bit ``b`` in ``_relax``: one transfer
    where a copy at server ``b + 1`` may be created from that subset, ``inf``
    where the restricted rule forbids it.
    """
    rates = [s.rate for s in instance.servers]
    ratesum = np.zeros(1 << instance.n)
    maxrate = np.zeros(1 << instance.n)
    for b, rate in enumerate(rates):
        half = 1 << b
        ratesum[half : 2 * half] = ratesum[:half] + rate
        maxrate[half : 2 * half] = np.maximum(maxrate[:half], rate)
    create = []
    for b, rate in enumerate(rates):
        priciest = maxrate.reshape(-1, 2, 1 << b)[:, 0]
        allowed = (priciest > rate) | (b == 0 or not restricted)
        create.append(np.where(allowed, instance.transfer_cost, math.inf))
    return ratesum, create


def _relax(dp: np.ndarray, came: np.ndarray | None, b: int, into: int, cost: np.ndarray | None = None) -> None:
    """Relax the subsets with bit ``b`` equal to ``into`` from their partners across it.

    With ``came`` given, an entry and its origin move only where the candidate
    is strictly cheaper; without it this is a plain in-place minimum.
    """
    side = dp.reshape(-1, 2, 1 << b)
    dst, src = side[:, into], side[:, 1 - into]
    cand = src if cost is None else src + cost
    if came is None:
        np.minimum(dst, cand, out=dst)
        return
    better = cand < dst
    np.copyto(dst, cand, where=better)
    origin = came.reshape(-1, 2, 1 << b)
    np.copyto(origin[:, into], origin[:, 1 - into], where=better)


def _solve(instance: Instance, restricted: bool, budget: int, reconstruct: bool) -> DPSolution:
    _check_budget(instance, budget)
    n = instance.n
    size = 1 << n
    ratesum, create = _subset_tables(instance, restricted)
    events = [(0.0, instance.initial_server)] + [(r.time, r.server) for r in instance.requests]

    dp = np.full(size, math.inf)
    dp[_bit(instance.initial_server)] = 0.0
    # came[i][s]: the subset held before step i that subset s after it was reached from
    came = np.tile(np.arange(size, dtype=np.int16), (len(events), 1)) if reconstruct else None

    prefix: list[float] = []
    prev_t = 0.0
    for i, (time, server) in enumerate(events):
        dp += (time - prev_t) * ratesum
        prev_t = time
        back = came[i] if reconstruct else None
        q = server - 1
        dp.reshape(-1, 2, 1 << q)[:, 0] += instance.transfer_cost  # serve by inward transfer
        _relax(dp, back, q, 1)  # keeping the served copy is free
        for b in range(n):
            # sequential passes cover multi-copy creations; a restricted creation never
            # raises the priciest held rate, so every pass tests the same priciest holder
            _relax(dp, back, b, 1, create[b])
        for b in range(n):
            _relax(dp, back, b, 0)  # drops are free
        dp[0] = math.inf
        prefix.append(float(dp.min()))

    schedule = _reconstruct(instance, events, came, int(np.argmin(dp))) if reconstruct else None
    return DPSolution(prefix[-1], schedule, tuple(prefix))


def _reconstruct(
    instance: Instance, events: list[tuple[float, int]], came: np.ndarray, final_state: int
) -> ReplicationSchedule:
    n = instance.n
    holder_seq = [0] * len(events)
    holder_seq[-1] = final_state
    for i in range(len(events) - 1, 0, -1):
        holder_seq[i - 1] = int(came[i, holder_seq[i]])

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
    """Optimum over the pruned transition set: the same DP with a creation mask.

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
    the server holds a copy throughout the gap. Sorted lookups keep it at
    O((m + copies + transfers) log) time.
    """
    inst = schedule.instance
    out: list[Violation] = []
    req_times = [0.0] + [r.time for r in inst.requests]
    for tr in schedule.transfers:
        if not _any_within_tol(req_times, tr.time):
            out.append(Violation(tr.time, f"transfer at t={tr.time:g} coincides with no request time"))

    spans = _holding_spans(schedule)
    lows = _span_lows(spans)

    prev_at: dict[int, float] = {inst.initial_server: 0.0}
    for req in inst.requests:
        t_prev = prev_at.get(req.server)
        if t_prev is not None and inst.rate(req.server) * (req.time - t_prev) <= inst.transfer_cost + TOL:
            if not _holds_through(spans[req.server], lows[req.server], t_prev, req.time):
                out.append(
                    Violation(
                        req.time,
                        f"request {req.index}: server {req.server} does not hold a copy through "
                        f"({t_prev:g}, {req.time:g}) although storing is no costlier than a transfer",
                    )
                )
        prev_at[req.server] = req.time
    return out
