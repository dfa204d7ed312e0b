"""Exact offline-optimal cost oracle via dynamic programming over holder subsets.

Between consecutive requests an optimal schedule keeps a fixed nonempty set of
copy holders, and changes holders only at request instants (creating a copy
early only adds storage, and transfers can always be aligned with a request).
The DP therefore sweeps requests in time order with one cost table indexed by
holder subset. A step charges gap storage for the held set, a transfer when
the requesting server holds no copy, and a transfer per extra copy created.
Each change of holders is a bit pass that relaxes the subsets on one side of
a server's bit from their partners on the other. Transfer costs change no
event, so the table has one column per transfer cost, and a sweep gets all of
a rate set's optima from one pass (``opt_costs``); ``opt_full`` and
``opt_restricted`` are the one-column case.

After each step the table is monotone, ``dp[s] <= dp[t]`` for every nonempty
``s`` within ``t`` (drops are free), and adding storage keeps it so. The full
step is therefore a closed form: with ``S`` the table after storage and row 0
set to the cheapest singleton row ("serve from the cheapest sole holder, then
drop it"), let ``G[s] = min over p within s of S[p] + transfer * |s - p|``;
the step's result is ``F[s] = G[s | q]`` for requester ``q``. ``G`` is n
creation passes, the one over ``q``'s bit being the serve, and ``F`` copies
the half with ``q`` into the half without it. The restricted step keeps an
explicit serve, a keep-the-served-copy pass and n drop passes around its
masked creation passes: its mask tests the priciest holder before the drops,
so masking the closed form would be stricter and no longer exact. Both modes
are charged the restricted step's (2n + 2) * 2^n evaluations per step, an
upper bound for each.

The restricted oracle is the explicit step with a creation mask: copies are
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
from collections.abc import Sequence
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
ORACLES = ("full", "restricted")


class BudgetExceeded(RuntimeError):
    """The requested oracle run exceeds the configured work budget."""


@dataclass(frozen=True)
class DPSolution:
    """Optimal offline cost, one optimal schedule, and all prefix optima."""

    opt_cost: float
    schedule: ReplicationSchedule | None
    prefix_costs: tuple[float, ...]  # prefix_costs[i] = optimum for the first i requests


def check_oracle(oracle: str) -> None:
    """Reject an oracle name that is not one of ``ORACLES``."""
    if oracle not in ORACLES:
        raise ValueError(f"oracle must be one of {ORACLES}, got {oracle!r}")


def _bit(server: int) -> int:
    return 1 << (server - 1)


def _check_budget(instance: Instance, budget: int) -> None:
    """Refuse a run whose work per transfer cost exceeds ``budget``.

    The charge, (m + 1) * (2n + 2) * 2^n, is the restricted step's work and
    an upper bound for the full step's, so both modes are refused alike. A
    pass over K transfer costs does K times this work; the budget bounds the
    work of each one.
    """
    n, m = instance.n, instance.m
    if n > 12:
        raise BudgetExceeded(f"oracle supports at most 12 servers, instance has {n}")
    work = (m + 1) * (2 * n + 2) * (1 << n)
    if work > budget:
        raise BudgetExceeded(
            f"estimated work {work:.4g} transition evaluations per transfer cost exceeds budget {budget:.4g}"
            f" (n={n}, m={m})"
        )


def _subset_tables(instance: Instance) -> tuple[np.ndarray, np.ndarray]:
    """Each holder subset's rate sum and priciest held rate.

    Subset ``mask`` holds server ``b + 1`` when bit ``b`` is set.
    """
    ratesum = np.zeros(1 << instance.n)
    maxrate = np.zeros(1 << instance.n)
    for b, server in enumerate(instance.servers):
        half = 1 << b
        ratesum[half : 2 * half] = ratesum[:half] + server.rate
        maxrate[half : 2 * half] = np.maximum(maxrate[:half], server.rate)
    return ratesum, maxrate


_SHORT_RUN = 4  # views made of runs this short or shorter put the axis across runs last


def _halves(table: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
    """Per bit ``b``, views of the rows of ``table`` whose subset lacks and has bit ``b``.

    The two views of a bit pair each subset with the one that differs from it
    in that bit only, and tables of one shape get views of one shape. A view
    is made of runs of ``(1 << b) * columns`` contiguous entries. When runs
    are short, numpy's per-run cost dominates, so those views put the axis
    across runs last; ufuncs over them must then run in C order.
    """
    size, cols = table.shape
    out = []
    for b in range(size.bit_length() - 1):
        side = table.reshape(size >> (b + 1), 2, 1 << b, cols)
        lo, hi = side[:, 0], side[:, 1]
        if (1 << b) * cols <= _SHORT_RUN:
            lo, hi = lo.transpose(1, 2, 0), hi.transpose(1, 2, 0)
        out.append((lo, hi))
    return out


def _solve(
    instance: Instance,
    transfer_costs: Sequence[float],
    restricted: bool,
    budget: int,
    prefix: bool,
    reconstruct: bool,
) -> tuple[np.ndarray, ReplicationSchedule | None]:
    """Run the DP with one table column per transfer cost.

    Returns the optima, one column per transfer cost: one row per step with
    ``prefix``, else the final row only. With ``reconstruct`` (one transfer
    cost only) it also returns an optimal schedule. Every view, temporary and
    creation-cost array is built before the step loop, which then only calls
    ufuncs on them in place. A full step is the closed form of the module
    docstring, with no serve add and no drop passes; a restricted step
    serves, keeps the served copy, runs its masked creation passes and then
    one drop pass per bit. While reconstructing, row 0's origin is the
    cheapest singleton, so a step may move the object to holders that share
    nothing with the ones before it.
    """
    _check_budget(instance, budget)
    n = instance.n
    size = 1 << n
    cols = len(transfer_costs)
    events = [(0.0, instance.initial_server)] + [(r.time, r.server) for r in instance.requests]

    def table(column) -> np.ndarray:
        return np.repeat(np.asarray(column, dtype=float)[:, None], cols, axis=1)

    ratesum, maxrate = _subset_tables(instance)
    ratesum = table(ratesum)  # a full table keeps the storage pass contiguous
    transfer = _halves(np.tile(np.asarray(transfer_costs, dtype=float), (size, 1)))
    priciest = [lo for lo, _ in _halves(table(maxrate))]
    create = []
    for b, server in enumerate(instance.servers):
        # a copy at server b + 1 costs one transfer where the restricted rule allows it
        allowed = (priciest[b] > server.rate) | (b == 0 or not restricted)
        create.append(np.where(allowed, transfer[b][0], math.inf))
    singles = 1 << np.arange(n)
    dp = np.full((size, cols), math.inf)
    dp[_bit(instance.initial_server)] = 0.0
    halves = _halves(dp)
    scratch = [np.empty_like(lo) for lo, _ in halves]
    storage = np.empty_like(dp)
    optima = np.empty((len(events) if prefix else 1, cols))
    if reconstruct:
        # came[i][s]: the subset held before step i that subset s after it was reached from
        came = np.empty((len(events), size), dtype=np.int16)
        origin = np.empty((size, 1), dtype=np.int16)
        identity = np.arange(size, dtype=np.int16)[:, None]
        origin_halves = _halves(origin)
        better = [np.empty(lo.shape, dtype=bool) for lo, _ in halves]

    def relax(b: int, into: int, cost: np.ndarray | None = None) -> None:
        """Relax the subsets with bit ``b`` equal to ``into`` from their partners across it.

        While reconstructing, an entry and its origin move only where the
        candidate is strictly cheaper; otherwise this is a plain minimum.
        """
        dst, src = halves[b][into], halves[b][1 - into]
        if cost is not None:
            src = np.add(src, cost, out=scratch[b], order="C")
        if not reconstruct:
            np.minimum(dst, src, out=dst, order="C")
            return
        moved = np.less(src, dst, out=better[b], order="C")
        np.copyto(dst, src, where=moved)
        np.copyto(origin_halves[b][into], origin_halves[b][1 - into], where=moved)

    prev_t = 0.0
    for i, (time, server) in enumerate(events):
        dp += np.multiply(ratesum, time - prev_t, out=storage)
        prev_t = time
        if reconstruct:
            np.copyto(origin, identity)
        q = server - 1
        if restricted:
            np.add(halves[q][0], transfer[q][0], out=halves[q][0], order="C")  # serve by inward transfer
            relax(q, 1)  # keeping the served copy is free
        else:
            # the closed form F[s] = G[s | q] of the module docstring: row 0 stands for
            # "serve from the cheapest sole holder, then drop it", and the creation
            # pass over bit q is the serve
            np.min(dp[singles], axis=0, out=dp[0])
            if reconstruct:
                origin[0] = singles[np.argmin(dp[singles, 0])]
        for b in range(n):
            # sequential passes cover multi-copy creations; a restricted creation never
            # raises the priciest held rate, so every pass tests the same priciest holder
            relax(b, 1, create[b])
        if restricted:
            for b in range(n):
                relax(b, 0)  # drops are free
        else:
            np.copyto(halves[q][0], halves[q][1])  # dropping q is free
            if reconstruct:
                np.copyto(origin_halves[q][0], origin_halves[q][1])
        dp[0] = math.inf
        if prefix:
            np.min(dp, axis=0, out=optima[i])
        if reconstruct:
            came[i] = origin[:, 0]
    if not prefix:
        np.min(dp, axis=0, out=optima[0])

    schedule = _reconstruct(instance, events, came, int(np.argmin(dp[:, 0]))) if reconstruct else None
    return optima, schedule


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


def _single(instance: Instance, restricted: bool, budget: int, reconstruct: bool) -> DPSolution:
    prefix, schedule = _solve(instance, (instance.transfer_cost,), restricted, budget, True, reconstruct)
    costs = tuple(prefix[:, 0].tolist())
    return DPSolution(costs[-1], schedule, costs)


def opt_full(instance: Instance, budget: int = DEFAULT_BUDGET, reconstruct: bool = True) -> DPSolution:
    """Exact optimum with copies creatable at any server on request instants."""
    return _single(instance, restricted=False, budget=budget, reconstruct=reconstruct)


def opt_restricted(instance: Instance, budget: int = DEFAULT_BUDGET, reconstruct: bool = True) -> DPSolution:
    """Optimum over the pruned transition set: the same DP with a creation mask.

    Copies are created only at the requesting server, at server 1, or at
    servers strictly cheaper than the priciest current holder. Agreement
    with ``opt_full`` is part of the acceptance suite.
    """
    return _single(instance, restricted=True, budget=budget, reconstruct=reconstruct)


def opt_costs(
    instance: Instance, transfer_costs: Sequence[float], oracle: str = "full", budget: int = DEFAULT_BUDGET
) -> tuple[float, ...]:
    """The optimum of ``instance`` under each transfer cost, from one DP pass.

    The instance's own transfer cost is ignored. Each result equals
    ``opt_full`` or ``opt_restricted`` (by ``oracle``) of the instance with
    that transfer cost. The budget bounds the work per transfer cost, which
    is the same for every cost, so the pass is refused for all or for none.
    """
    check_oracle(oracle)
    for cost in transfer_costs:
        Instance(instance.servers, float(cost), instance.initial_server, ())  # rejects a bad transfer cost
    optima, _ = _solve(instance, transfer_costs, oracle == "restricted", budget, False, False)
    return tuple(optima[0].tolist())


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
