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
a rate set's optima from one full-oracle pass (``opt_costs``); ``opt_full``
and ``opt_restricted`` are the one-column case.

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

For a schedule the forward pass records one move bit per pass and entry it
relaxes: set where the candidate from across the pass's bit is strictly
cheaper, the only entries the minimum changes. A step's bits are packed into
one row, (2n + 1) * 2^(n-1) bits for a restricted step and n * 2^(n-1) for a
full one, which also keeps its cheapest singleton; the full step's half copy
is unconditional and needs none. The backtrack walks the first cheapest final
subset back through each step's passes in reverse, one bit lookup per pass,
so on exact ties the schedule is the first strictly cheaper path in pass
order.
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
    cost only) it also returns an optimal schedule. Every view, temporary and
    creation-cost array is built before the step loop, which then only calls
    ufuncs on them in place. A full step is the closed form of the module
    docstring, with no serve add and no drop passes; a restricted step
    serves, keeps the served copy, runs its masked creation passes and then
    one drop pass per bit. A creation pass whose mask forbids every entry
    would change nothing and is not run. While reconstructing, each step
    packs its passes' move bits into one row of ``record``, and a full step
    also records the cheapest singleton that row 0 stands for, so a step may
    move the object to holders that share nothing with the ones before it.
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
    # a step's relax passes in order, as (bit, side written, creation cost) with bit None for
    # the requester's; pass k records its move bits in row k of ``moves``
    passes: list[tuple[int | None, int, np.ndarray | None]] = [(None, 1, None)] if restricted else []
    for b, server in enumerate(instance.servers):
        # a copy at server b + 1 costs one transfer where the restricted rule allows it;
        # sequential passes cover multi-copy creations, and a restricted creation never
        # raises the priciest held rate, so every pass tests the same priciest holder
        allowed = (priciest[b] > server.rate) | (b == 0 or not restricted)
        if allowed.any():  # a pass whose mask forbids every entry would change nothing
            passes.append((b, 1, np.where(allowed, transfer[b][0], math.inf)))
    if restricted:
        passes += [(b, 0, None) for b in range(n)]  # drops are free
    singles = 1 << np.arange(n)
    dp = np.full((size, cols), math.inf)
    dp[_bit(instance.initial_server)] = 0.0
    halves = _halves(dp)
    scratch = [np.empty_like(lo) for lo, _ in halves]
    storage = np.empty_like(dp)
    optima = np.empty((len(events) if prefix else 1, cols))
    if reconstruct:
        moves = np.zeros((len(passes), size >> 1), dtype=bool)
        record = np.empty((len(events), (moves.size + 7) // 8), dtype=np.uint8)
        cheapest = np.zeros(len(events), dtype=np.int64)

    def slot(k: int, b: int) -> np.ndarray | None:
        """Pass ``k``'s move bits over bit ``b``, shaped like that bit's halves."""
        return _runs_last(moves[k].reshape(size >> (b + 1), 1 << b, 1)) if reconstruct else None

    keep = [slot(0, b) for b in range(n)] if restricted else []  # keeping the served copy is free
    fixed = [(b, into, cost, slot(k, b)) for k, (b, into, cost) in enumerate(passes) if b is not None]

    def relax(b: int, into: int, cost: np.ndarray | None, moved: np.ndarray | None) -> None:
        """Relax the subsets with bit ``b`` equal to ``into`` from their partners across it.

        With ``moved``, it also records where the candidate is strictly
        cheaper, the only entries the minimum changes.
        """
        dst, src = halves[b][into], halves[b][1 - into]
        if cost is not None:
            src = np.add(src, cost, out=scratch[b], order="C")
        if moved is not None:
            np.less(src, dst, out=moved, order="C")
        np.minimum(dst, src, out=dst, order="C")

    prev_t = 0.0
    for i, (time, server) in enumerate(events):
        dp += np.multiply(ratesum, time - prev_t, out=storage)
        prev_t = time
        q = server - 1
        if restricted:
            np.add(halves[q][0], transfer[q][0], out=halves[q][0], order="C")  # serve by inward transfer
            relax(q, 1, None, keep[q])
        else:
            # the closed form F[s] = G[s | q] of the module docstring: row 0 stands for
            # "serve from the cheapest sole holder, then drop it", and the creation
            # pass over bit q is the serve
            np.min(dp[singles], axis=0, out=dp[0])
            if reconstruct:
                cheapest[i] = singles[np.argmin(dp[singles, 0])]
        for b, into, cost, moved in fixed:
            relax(b, into, cost, moved)
        if not restricted:
            np.copyto(halves[q][0], halves[q][1])  # dropping q is free
        dp[0] = math.inf
        if prefix:
            np.min(dp, axis=0, out=optima[i])
        if reconstruct:
            record[i] = np.packbits(moves, bitorder="little")
    if not prefix:
        np.min(dp, axis=0, out=optima[0])
    if not reconstruct:
        return optima, None
    order = [(b, into) for b, into, _ in passes]
    singletons = None if restricted else cheapest.tolist()
    return optima, _reconstruct(instance, events, record, order, singletons, int(np.argmin(dp[:, 0])))


def _reconstruct(
    instance: Instance,
    events: list[tuple[float, int]],
    record: np.ndarray,
    passes: list[tuple[int | None, int]],
    cheapest: list[int] | None,
    final_state: int,
) -> ReplicationSchedule:
    """The schedule that walks ``final_state`` back through each step's recorded moves.

    ``record[i]`` packs step ``i``'s move bits little-endian, 2^(n-1) per
    pass in the order of ``passes``, each at its subset's index with the
    pass's bit removed. A subset on a pass's destination side whose bit is
    set came from its partner across the pass's bit. Full steps
    (``cheapest`` given) end with the requester's half copied into the half
    without it, and their row 0 is the singleton ``cheapest[i]``.
    """
    half = 1 << (instance.n - 1)
    bits = memoryview(record.reshape(-1))
    row_bits = 8 * record.shape[1]
    backwards = [(k * half, b, into) for k, (b, into) in enumerate(passes)][::-1]
    holder_seq = [0] * len(events)
    state = final_state
    for i in range(len(events) - 1, 0, -1):
        holder_seq[i] = state
        q = events[i][1] - 1
        if cheapest is not None:
            state |= 1 << q
        base = i * row_bits
        for offset, b, into in backwards:
            if b is None:
                b = q
            if (state >> b & 1) == into:
                low = (1 << b) - 1
                at = base + offset + ((state >> 1) & ~low | state & low)
                if bits[at >> 3] >> (at & 7) & 1:
                    state ^= 1 << b
        if not state:
            state = cheapest[i]
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
    """Optimum over the pruned transition set: the same DP with a creation mask.

    Copies are created only at the requesting server, at server 1, or at
    servers strictly cheaper than the priciest current holder. Agreement
    with ``opt_full`` is part of the acceptance suite.
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
