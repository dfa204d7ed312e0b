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
``s`` within ``t`` (drops are free), and adding storage keeps it so. A step
is therefore a closed form: with ``S`` the table after storage and row 0 set
to the cheapest singleton row ("serve from the cheapest sole holder, then
drop it"), let ``G[s] = min over p within s of S[p] + transfer * |s - p|``;
the step's result is ``F[s] = G[s | q]`` for requester ``q``. ``G`` is n
creation passes, the one over ``q``'s bit being the serve, and ``F`` copies
the half with ``q`` into the half without it. A step relaxes n * 2^(n-1)
entries and copies 2^(n-1), and each run is charged (n + 1) * 2^(n-1) per
step and transfer cost.

The restricted oracle runs the same step and then sets to ``inf`` every
holder set with two or more far servers. Server ``s`` is far at step ``i``
when ``rate_s * (next request at s after t_i - t_i) > transfer + TOL``;
rounding ties are near. The mask is exact (the one-far-holder law): of two
far holders, drop at ``t_i`` the one whose copy ends first. The other
survives at least as long, so it keeps the object alive and can act as a
source. If the dropped copy would have lasted to its server's next request,
serving that request by transfer costs one transfer and saves more than one
transfer of storage; otherwise the drop only saves storage. Masked sets are
the supersets of far pairs, so the table stays monotone. Agreement with
``opt_full`` checks the law against the unpruned oracle.

For a schedule the forward pass records one move bit per creation pass and
entry it relaxes: set where the candidate from across the pass's bit is
strictly cheaper, the only entries the minimum changes. A step's n * 2^(n-1)
bits are packed into one row, and the step also keeps its cheapest
singleton; the half copy is unconditional and needs no bit. The backtrack
walks the first cheapest final subset back through each step's passes in
reverse, one bit lookup per pass, so on exact ties the schedule is the first
strictly cheaper path in pass order.
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


def _bit(server: int) -> int:
    return 1 << (server - 1)


def _check_budget(instance: Instance, budget: int) -> None:
    """Refuse a run whose work per transfer cost exceeds ``budget``.

    The charge, (m + 1) * (n + 1) * 2^(n-1), counts the table entries each
    step relaxes or copies: n creation passes over half the table and one
    half copy. Both oracles run this step. A pass over K transfer costs does
    K times this work; the budget bounds the work of each one.
    """
    n, m = instance.n, instance.m
    if n > 12:
        raise BudgetExceeded(f"oracle supports at most 12 servers, instance has {n}")
    work = (m + 1) * (n + 1) * (1 << (n - 1))
    if work > budget:
        raise BudgetExceeded(
            f"estimated work {work:.4g} entries relaxed or copied per transfer cost exceeds budget {budget:.4g}"
            f" (n={n}, m={m})"
        )


def _rate_sums(instance: Instance) -> np.ndarray:
    """Each holder subset's rate sum; subset ``mask`` holds server ``b + 1`` when bit ``b`` is set."""
    ratesum = np.zeros(1 << instance.n)
    for b, server in enumerate(instance.servers):
        half = 1 << b
        ratesum[half : 2 * half] = ratesum[:half] + server.rate
    return ratesum


def _far_sets(instance: Instance, events: list[tuple[float, int]]) -> np.ndarray:
    """Per step, the bits of the servers that are far under the instance's transfer cost.

    Server ``b + 1`` is far at step ``i`` when storing from ``t_i`` to its
    next request after ``t_i`` (or forever, without one) costs more than a
    transfer plus ``TOL``; rounding ties are near. The next requests come
    from one backward pass, a running minimum over the reversed events.
    """
    times = np.array([t for t, _ in events])
    following = np.full((len(events) + 1, instance.n), math.inf)  # row i: each server's first request from step i on
    following[np.arange(len(events)), [server - 1 for _, server in events]] = times
    following = np.minimum.accumulate(following[::-1])[::-1]
    rates = np.array([server.rate for server in instance.servers])
    far = rates * (following[1:] - times[:, None]) > instance.transfer_cost + TOL
    return far @ (1 << np.arange(instance.n))


_SHORT_RUN = 4  # views made of runs this short or shorter put the axis across runs last


def _runs_last(view: np.ndarray) -> np.ndarray:
    """A ``(runs, run, columns)`` view, with the axis across runs last when runs are short."""
    return view.transpose(1, 2, 0) if view.shape[1] * view.shape[2] <= _SHORT_RUN else view


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
        out.append((_runs_last(side[:, 0]), _runs_last(side[:, 1])))
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
    cost only) it also returns an optimal schedule. Every view and temporary
    is built before the step loop, which then only calls ufuncs on them in
    place, but for the restricted mask's small temporaries. Each step is the
    closed form of the module docstring; with ``restricted`` (the instance's
    own transfer cost only) it ends with the far-pair mask. While reconstructing, each step packs its passes' move
    bits into one row of ``record`` and records the cheapest singleton that
    row 0 stands for, so a step may move the object to holders that share
    nothing with the ones before it.
    """
    _check_budget(instance, budget)
    n = instance.n
    size = 1 << n
    cols = len(transfer_costs)
    events = [(0.0, instance.initial_server)] + [(r.time, r.server) for r in instance.requests]

    ratesum = np.repeat(_rate_sums(instance)[:, None], cols, axis=1)  # a full table keeps the storage pass contiguous
    transfer = _halves(np.tile(np.asarray(transfer_costs, dtype=float), (size, 1)))
    singles = 1 << np.arange(n)
    dp = np.full((size, cols), math.inf)
    dp[_bit(instance.initial_server)] = 0.0
    halves = _halves(dp)
    storage = np.empty_like(dp)
    optima = np.empty((len(events) if prefix else 1, cols))
    if restricted:
        far = _far_sets(instance, events).tolist()
        subsets = np.arange(size)
        crowd = (subsets & (subsets - 1)) != 0  # the subsets with two or more holders
        subsets = subsets[:, None]
    slots = [None] * n
    if reconstruct:
        moves = np.zeros((n, size >> 1), dtype=bool)  # pass b records its move bits in row b
        slots = [_runs_last(moves[b].reshape(size >> (b + 1), 1 << b, 1)) for b in range(n)]
        record = np.empty((len(events), (moves.size + 7) // 8), dtype=np.uint8)
        cheapest = np.zeros(len(events), dtype=np.uint8)
    # pass b creates a copy at server b + 1 for one transfer; sequential passes cover multi-copy
    # creations, and contiguous copies of the cost views keep the adds fast
    passes = [
        (lo, hi, np.ascontiguousarray(transfer[b][0]), np.empty_like(lo), slots[b]) for b, (lo, hi) in enumerate(halves)
    ]

    prev_t = 0.0
    for i, (time, server) in enumerate(events):
        dp += np.multiply(ratesum, time - prev_t, out=storage)
        prev_t = time
        q = server - 1
        # the closed form F[s] = G[s | q] of the module docstring: row 0 stands for
        # "serve from the cheapest sole holder, then drop it", and the creation
        # pass over bit q is the serve
        np.min(dp[singles], axis=0, out=dp[0])
        if reconstruct:
            cheapest[i] = np.argmin(dp[singles, 0])
        for lo, hi, cost, spare, moved in passes:
            src = np.add(lo, cost, out=spare, order="C")
            if moved is not None:
                np.less(src, hi, out=moved, order="C")
            np.minimum(hi, src, out=hi, order="C")
        np.copyto(halves[q][0], halves[q][1])  # dropping q is free
        dp[0] = math.inf
        if restricted and far[i] & (far[i] - 1):  # two or more servers are far
            np.copyto(dp, math.inf, where=crowd[subsets & far[i]])  # the sets holding two of them
        if prefix:
            np.min(dp, axis=0, out=optima[i])
        if reconstruct:
            record[i] = np.packbits(moves, bitorder="little")
    if not prefix:
        np.min(dp, axis=0, out=optima[0])
    if not reconstruct:
        return optima, None
    return optima, _reconstruct(instance, events, record, cheapest.tolist(), int(np.argmin(dp[:, 0])))


def _reconstruct(
    instance: Instance,
    events: list[tuple[float, int]],
    record: np.ndarray,
    cheapest: list[int],
    final_state: int,
) -> ReplicationSchedule:
    """The schedule that walks ``final_state`` back through each step's recorded moves.

    ``record[i]`` packs step ``i``'s move bits little-endian, 2^(n-1) per
    creation pass in bit order, each at its subset's index with the pass's
    bit removed. A subset with the pass's bit whose move bit is set came from
    its partner without it. Each step ends with the requester's half copied
    into the half without it, and its row 0 is the singleton with bit
    ``cheapest[i]``.
    """
    n = instance.n
    half = 1 << (n - 1)
    bits = memoryview(record.reshape(-1))
    row_bits = 8 * record.shape[1]
    backwards = [(b * half, b, (1 << b) - 1) for b in reversed(range(n))]
    holder_seq = [0] * len(events)
    state = final_state
    for i in range(len(events) - 1, 0, -1):
        holder_seq[i] = state
        state |= _bit(events[i][1])
        base = i * row_bits
        for offset, b, low in backwards:
            if state >> b & 1:
                at = base + offset + ((state >> 1) & ~low | state & low)
                if bits[at >> 3] >> (at & 7) & 1:
                    state ^= 1 << b
        if not state:
            state = 1 << cheapest[i]
    holder_seq[0] = state

    copies: list[CopyInterval] = []
    transfers: list[Transfer] = []
    prev_mask = _bit(instance.initial_server)
    held = {instance.initial_server: 0.0}  # each open copy's start; the initial copy is open at 0
    for i, (time, server) in enumerate(events):
        qbit = _bit(server)
        mask = holder_seq[i]
        src = (prev_mask & -prev_mask).bit_length()  # the lowest-numbered holder
        if i > 0 and not prev_mask & qbit:
            transfers.append(Transfer(time, src, server, PURPOSE_SERVE))
            if not mask & qbit:
                copies.append(CopyInterval(server, time, time, KIND_OFFLINE))
        created = mask & ~(prev_mask | qbit)
        while created:
            low = created & -created
            transfers.append(Transfer(time, src, low.bit_length(), PURPOSE_CREATE))
            created ^= low
        changed = mask ^ prev_mask
        while changed:
            low = changed & -changed
            holder = low.bit_length()
            if mask & low:
                held[holder] = time
            else:
                copies.append(CopyInterval(holder, held.pop(holder), time, KIND_OFFLINE))
            changed ^= low
        prev_mask = mask
    copies += [CopyInterval(server, start, events[-1][0], KIND_OFFLINE) for server, start in held.items()]
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
    """Optimum over the holder sets with at most one far server: the same DP step plus a mask.

    The one-far-holder law of the module docstring makes the mask exact.
    Agreement with ``opt_full`` is part of the acceptance suite.
    """
    return _single(instance, restricted=True, budget=budget, reconstruct=reconstruct)


def opt_costs(instance: Instance, transfer_costs: Sequence[float], *, budget: int = DEFAULT_BUDGET) -> tuple[float, ...]:
    """The optimum of ``instance`` under each transfer cost, from one full-oracle DP pass.

    The instance's own transfer cost is ignored. Each result equals
    ``opt_full`` of the instance with that transfer cost. The budget bounds
    the work per transfer cost, which is the same for every cost, so the
    pass is refused for all or for none.
    """
    for cost in transfer_costs:
        Instance(instance.servers, float(cost), instance.initial_server, ())  # rejects a bad transfer cost
    optima, _ = _solve(instance, transfer_costs, False, budget, False, False)
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
