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
a rate set's optima from one pass (``opt_costs``); ``opt_full`` is the
one-column case.

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

A step makes no reduction over the table. Its optimum is the requester's
singleton row ``G[{q}]``: a set that holds ``q`` costs at least ``S[{q}]``,
and one that lacks it pays at least one creation, ``S[0] + transfer``, so
``G[{q}]`` is the least entry, and the half copy keeps it so. Row 0 is
per-step scratch: storage adds 0 to it, and the next step overwrites it.

There is one oracle, and it prunes no holder set. The one-far-holder law is
check (c) of ``validate_offline_structure``, which ``repsim verify`` runs on
every schedule the oracle reconstructs.

For a schedule the forward pass records one move bit per creation pass and
entry it relaxes: set where the candidate from across the pass's bit is
strictly cheaper, the only entries the minimum changes. A step's n * 2^(n-1)
bits are packed into one row, and the step also keeps its cheapest
singleton; the half copy is unconditional and needs no bit. The backtrack
walks the first cheapest final subset back through each step's passes in
reverse, one bit lookup per pass over a bit the subset holds (undoing pass
``b`` toggles bit ``b`` only), so on exact ties the schedule is the first
strictly cheaper path in pass order. Undoing a step gives the holders
before it, so the same walk emits the schedule, step by step.
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
    _check_transfer_cost,
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
    """Refuse a run whose work per transfer cost exceeds ``budget``.

    The charge, (m + 1) * (n + 1) * 2^(n-1), counts the table entries each
    step relaxes or copies: n creation passes over half the table and one
    half copy. A pass over K transfer costs does K times this work; the
    budget bounds the work of each one.
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
    budget: int,
    prefix: bool,
    reconstruct: bool,
) -> tuple[np.ndarray, ReplicationSchedule | None]:
    """Run the DP with one table column per transfer cost.

    Returns the optima, one column per transfer cost: one row per step with
    ``prefix``, else the final row only. With ``reconstruct`` (one transfer
    cost only) it also returns an optimal schedule. Every view and temporary
    is built before the step loop, which then works on them in place and
    makes no reduction over the table. Each step is the closed form of the
    module docstring; its optimum is row ``{q}``, and row 0 is per-step
    scratch, set to ``inf`` after the loop for the final argmin. While
    reconstructing, each step packs its passes' move bits into one row of
    ``record`` and records the cheapest singleton that row 0 stands for, so
    a step may move the object to holders that share nothing with the ones
    before it.
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
    singletons = np.empty((n, cols))  # gathered once per step
    optima = np.empty((len(events) if prefix else 1, cols))
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

    add, minimum, less, take, copyto = np.add, np.minimum, np.less, np.take, np.copyto
    prev_t = 0.0
    for i, (time, server) in enumerate(events):
        dp += np.multiply(ratesum, time - prev_t, out=storage)
        prev_t = time
        q = server - 1
        # the closed form F[s] = G[s | q] of the module docstring: row 0 stands for
        # "serve from the cheapest sole holder, then drop it", and the creation
        # pass over bit q is the serve
        minimum.reduce(take(dp, singles, axis=0, out=singletons, mode="clip"), axis=0, out=dp[0])
        if reconstruct:
            cheapest[i] = singletons[:, 0].argmin()
        for lo, hi, cost, spare, moved in passes:
            src = add(lo, cost, out=spare, order="C")
            if moved is not None:
                less(src, hi, out=moved, order="C")
            minimum(hi, src, out=hi, order="C")
        copyto(halves[q][0], halves[q][1])  # dropping q is free; row 0 gets G[{q}], dead until the next step
        if prefix:
            optima[i] = dp[1 << q]  # the least entry: the step's optimum
        if reconstruct:
            record[i] = np.packbits(moves, bitorder="little")
    if not prefix:
        optima[0] = dp[1 << q]
    if not reconstruct:
        return optima, None
    dp[0] = math.inf
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
    ``cheapest[i]``. Undoing step ``i`` gives the holders before it, so the
    one backward walk emits the step's transfers and copies right there.
    """
    n = instance.n
    half = 1 << (n - 1)
    bits = memoryview(record.reshape(-1))
    row_bits = 8 * record.shape[1]
    offsets = [b * half for b in range(n)]
    copies: list[CopyInterval] = []
    transfers: list[Transfer] = []
    ends = {b + 1: events[-1][0] for b in range(n) if final_state >> b & 1}  # copies whose start is still ahead
    after = final_state
    for i in range(len(events) - 1, -1, -1):
        time, server = events[i]
        qbit = _bit(server)
        state = after | qbit
        base = i * row_bits
        held = state
        while held:  # undoing pass b toggles bit b only, so the lower set bits stay the passes to undo
            b = held.bit_length() - 1
            top = 1 << b
            held ^= top
            at = base + offsets[b] + ((state >> 1) & -top | state & (top - 1))
            if bits[at >> 3] >> (at & 7) & 1:
                state ^= top
        state = state or 1 << cheapest[i]
        # ``state`` holds the holders before step i; before step 0 every entry but the
        # initial server's is inf, so undoing step 0 always lands on that server alone
        src = (state & -state).bit_length()  # the lowest-numbered holder
        if not state & qbit:
            transfers.append(Transfer(time, src, server, PURPOSE_SERVE))
            if not after & qbit:
                copies.append(CopyInterval(server, time, time, KIND_OFFLINE))
        created = after & ~(state | qbit)
        while created:
            low = created & -created
            transfers.append(Transfer(time, src, low.bit_length(), PURPOSE_CREATE))
            created ^= low
        changed = after ^ state
        while changed:
            low = changed & -changed
            holder = low.bit_length()
            if after & low:
                copies.append(CopyInterval(holder, time, ends.pop(holder), KIND_OFFLINE))
            else:
                ends[holder] = time
            changed ^= low
        after = state
    copies += [CopyInterval(server, 0.0, end, KIND_OFFLINE) for server, end in ends.items()]
    return ReplicationSchedule(instance, copies, transfers)


def _single(instance: Instance, budget: int, reconstruct: bool) -> DPSolution:
    prefix, schedule = _solve(instance, (instance.transfer_cost,), budget, True, reconstruct)
    costs = tuple(prefix[:, 0].tolist())
    return DPSolution(costs[-1], schedule, costs)


def opt_full(instance: Instance, budget: int = DEFAULT_BUDGET, reconstruct: bool = True) -> DPSolution:
    """Exact optimum with copies creatable at any server on request instants."""
    return _single(instance, budget, reconstruct)


def opt_restricted(instance: Instance, budget: int = DEFAULT_BUDGET, reconstruct: bool = True) -> DPSolution:
    """The restricted optimum, over holder sets with at most one far server: the full one.

    The one-far-holder law makes the full optimum the restricted one, and
    check (c) of ``validate_offline_structure`` holds its schedule to the law.
    This name goes when a benchmark change moves ``trace-audit`` to ``opt_full``.
    """
    return _single(instance, budget, reconstruct)


def opt_costs(instance: Instance, transfer_costs: Sequence[float], *, budget: int = DEFAULT_BUDGET) -> tuple[float, ...]:
    """The optimum of ``instance`` under each transfer cost, from one full-oracle DP pass.

    The instance's own transfer cost is ignored. Each result equals
    ``opt_full`` of the instance with that transfer cost. The budget bounds
    the work per transfer cost, which is the same for every cost, so the
    pass is refused for all or for none.
    """
    for cost in transfer_costs:
        _check_transfer_cost(float(cost))
    optima, _ = _solve(instance, transfer_costs, budget, False, False)
    return tuple(optima[0].tolist())


def validate_offline_structure(schedule: ReplicationSchedule) -> list[Violation]:
    """Check the structural laws every optimal schedule can be assumed to obey.

    (a) every transfer happens at some request time (the synthetic time-0
    request included); (b) when two consecutive requests at one server are
    close enough that storing between them is no costlier than one transfer,
    the server holds a copy throughout the gap; (c) the one-far-holder law:
    at each step ``i`` before the last, at most one server is both far at
    step ``i`` and holding a copy through ``[t_i, t_(i+1)]``. Server ``s`` is
    far at step ``i`` when ``rate_s * (next request at s after t_i - t_i) >
    transfer + TOL`` (``_far_sets``); rounding ties are near.

    The law holds for some optimal schedule. Of two far holders, drop at
    ``t_i`` the one whose copy ends first. The other survives at least as
    long, so it keeps the object alive and can act as a source. If the
    dropped copy would have lasted to its server's next request, serving that
    request by transfer costs one transfer and saves more than one transfer
    of storage; otherwise the drop only saves storage. The oracle prunes
    nothing by the law; ``repsim verify`` holds its schedules to it here.

    Sorted lookups keep it at O((m + copies + transfers) log + m n log) time.
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

    events = [(0.0, inst.initial_server)] + [(r.time, r.server) for r in inst.requests]
    for i, (t0, t1, far) in enumerate(zip(req_times, req_times[1:], _far_sets(inst, events).tolist())):
        if far & (far - 1):  # two or more servers are far
            held = [b + 1 for b in range(inst.n) if far >> b & 1 and _holds_through(spans[b + 1], lows[b + 1], t0, t1)]
            if len(held) > 1:
                message = f"far servers {', '.join(map(str, held))} each hold a copy through ({t0:g}, {t1:g})"
                out.append(Violation(t0, f"request {i}: {message} although one far holder suffices"))
    return out
