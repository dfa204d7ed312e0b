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
the step's result is ``F[s] = G[s | q]`` for requester ``q``. ``G`` is the
serve pass, over ``q``'s bit, and one creation pass per server strictly
cheaper than ``q``, and ``F`` copies the half with ``q`` into the half
without it. A copy created at a server ``b`` no cheaper than ``q`` gives way
to keeping ``q``'s served copy until ``b``'s would have ended, plus a
transfer to ``b`` at its first request in that span: no more transfers, no
more storage (less if ``b`` is dearer), the same sources, and holder changes
still at request instants, so some optimum never creates it. A step relaxes
at most n * 2^(n-1) entries and copies 2^(n-1); each run is charged that
worst case, (n + 1) * 2^(n-1) per step and transfer cost, and refused when
its charge per transfer cost exceeds ``WORK_BUDGET``, a fixed 5e9.

A step makes no reduction over the table. Its optimum is the requester's
singleton row ``G[{q}]``: a set that holds ``q`` costs at least ``S[{q}]``,
and one that lacks it pays at least one creation, ``S[0] + transfer``, so
``G[{q}]`` is the least entry, and the half copy keeps it so. Row 0 is
per-step scratch: storage adds 0 to it, and the next step overwrites it.

Two step loops run these steps with the same float operations in the same
order, so their optima and schedules agree bit for bit. For one transfer
cost and at most ``LIST_STEP_MAX_N`` servers the table is a Python list,
since numpy's cost per call outweighs the work on at most 32 entries; else
it is a numpy table with one column per transfer cost. Both put server 1 on
the table's top bit, server 2 on bit 0 and servers 3..n on bits n-2..1
(``_row_map``). Almost every step runs the passes toward the cheapest
servers, as a step from any dearer requester may create a copy there, and a
numpy call costs more on more strided views: so the pass over server 1 works
on the table's two halves, 1-D views, and the one over server 2 on its even
and odd rows, 1-D views for one column. Other passes work on 2-D views of
runs of rows, walked across the runs when runs have at most 4 entries.

For a schedule either loop records one move bit per creation pass and
entry it relaxes: set where the candidate from across the pass's bit is
strictly cheaper, the only entries the minimum changes. A step's n * 2^(n-1)
bits are packed into one row, and the step also keeps its cheapest singleton;
the half copy is unconditional and needs no bit. The numpy loop keeps both
for a block of ``_BLOCK`` steps and packs each block at once. The backtrack
walks the first cheapest final subset (in subset order, not row order) back
through each step's passes in reverse, one bit lookup per pass run over a
bit the subset holds (undoing pass ``b`` toggles bit ``b`` only), so on
exact ties the schedule is the first strictly cheaper path in pass order.
Undoing a step gives the holders before it, so the same walk emits the
schedule, step by step. This module holds the oracle only:
``model.validate_offline_structure`` checks the laws its schedules obey.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .model import (
    KIND_OFFLINE,
    PURPOSE_CREATE,
    PURPOSE_SERVE,
    CopyInterval,
    Instance,
    ReplicationSchedule,
    Transfer,
    _check_transfer_cost,
    validate_offline_structure,  # perfbench/spans.py wraps the validator by this name; goes with opt_restricted
)

WORK_BUDGET = 5_000_000_000  # the most entries a run may relax or copy per transfer cost
_BLOCK = 16  # steps whose move bits and singletons are packed at once
LIST_STEP_MAX_N = 5  # the most servers at which a list step beats a table step, with or without a schedule (2-core VM)


class BudgetExceeded(RuntimeError):
    """The requested oracle run exceeds the work budget or the server cap."""


@dataclass(frozen=True)
class DPSolution:
    """Optimal offline cost, one optimal schedule, and all prefix optima."""

    opt_cost: float
    schedule: ReplicationSchedule | None
    prefix_costs: tuple[float, ...]  # prefix_costs[i] = optimum for the first i requests


def _check_budget(instance: Instance) -> None:
    """Refuse a run whose work per transfer cost exceeds ``WORK_BUDGET``.

    The charge, (m + 1) * (n + 1) * 2^(n-1), counts the table entries each
    step relaxes or copies in the worst case, paid when every request comes
    from a server dearer than all others: n passes over half the table and
    one half copy. A pass over K transfer costs does K times this work;
    ``WORK_BUDGET`` bounds the work of each one.
    """
    n, m = instance.n, instance.m
    if n > 12:
        raise BudgetExceeded(f"oracle supports at most 12 servers, instance has {n}")
    work = (m + 1) * (n + 1) * (1 << (n - 1))
    if work > WORK_BUDGET:
        raise BudgetExceeded(
            f"estimated work {work:.4g} entries relaxed or copied per transfer cost exceeds budget {WORK_BUDGET:.4g}"
            f" (n={n}, m={m})"
        )


@functools.cache
def _row_map(n: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The table bit of each server bit, and the table row of each holder subset.

    Server 1 gets the top bit, server 2 bit 0 and servers 3..n bits n-2..1.
    """
    places = (n - 1, 0, *range(n - 2, 0, -1))[:n]
    rows = [0]
    for place in places:
        rows += [row | 1 << place for row in rows]
    return places, tuple(rows)


@functools.cache
def _pass_pairs(n: int) -> tuple[tuple[tuple[int, int], ...], ...]:
    """The list loop's passes: per server bit, each table row without its place paired with the row with it."""
    return tuple(tuple((s, s | 1 << place) for s in range(1 << n) if not s >> place & 1) for place in _row_map(n)[0])


def _rate_sums(instance: Instance) -> list[float]:
    """Each table row's rate sum, its holders' rates added in server order."""
    rows = _row_map(instance.n)[1]
    ratesum = [0.0] * len(rows)
    for b, server in enumerate(instance.servers):  # the subsets with bit b are those without it, plus b
        for row, with_b in zip(rows[: 1 << b], rows[1 << b : 2 << b]):
            ratesum[with_b] = ratesum[row] + server.rate
    return ratesum


def _runs(view: np.ndarray) -> tuple[np.ndarray, str]:
    """A ``(count, run)`` view as 1-D if either is 1, across the runs in C order if runs are short, else as is."""
    count, run = view.shape
    if count == 1 or run == 1:
        return view.reshape(-1), "K"
    return (view.T, "C") if run <= 4 else (view, "K")


def _pass_views(table: np.ndarray, place: int) -> tuple[np.ndarray, np.ndarray, str]:
    """Views of the rows of ``table`` lacking and having bit ``place``, paired entry by entry, and their ufunc order."""
    side = table.reshape(table.shape[0] >> (place + 1), 2, -1)
    (lo, order), (hi, _) = _runs(side[:, 0]), _runs(side[:, 1])
    return lo, hi, order


def _solve(
    instance: Instance,
    transfer_costs: Sequence[float],
    prefix: bool,
    reconstruct: bool,
) -> tuple[np.ndarray, ReplicationSchedule | None]:
    """Run the DP with one table column per transfer cost.

    Returns the optima, one column per transfer cost: one row per step with
    ``prefix``, else the final row only. With ``reconstruct`` (one transfer
    cost only) it also returns an optimal schedule. A step from server
    ``q + 1`` runs the passes over the bits ``allowed[q]``: its own and those
    of the servers strictly cheaper than it. The step loop is ``_list_steps``
    for one transfer cost and at most ``LIST_STEP_MAX_N`` servers, where
    numpy's cost per call outweighs the work, else ``_table_steps``. Both give
    the same optima and, for ``_reconstruct``, the same move bits of the
    passes run, cheapest singletons and final subset.
    """
    _check_budget(instance)
    events = [(0.0, instance.initial_server)] + [(r.time, r.server) for r in instance.requests]
    rates = [server.rate for server in instance.servers]
    allowed = [sum(1 << b for b in range(instance.n) if rates[b] < rate) | 1 << q for q, rate in enumerate(rates)]
    steps = _list_steps if len(transfer_costs) == 1 and instance.n <= LIST_STEP_MAX_N else _table_steps
    optima, moves = steps(instance, events, allowed, transfer_costs, prefix, reconstruct)
    return optima, None if moves is None else _reconstruct(instance, events, allowed, *moves)


def _table_steps(
    instance: Instance, events: list[tuple[float, int]], allowed: list[int], transfer_costs: Sequence[float],
    prefix: bool, reconstruct: bool,
) -> tuple[np.ndarray, tuple[np.ndarray, list[int], int] | None]:
    """The step loop over a numpy table, in place on views and temporaries that are all built before it.

    With ``reconstruct`` step ``i`` keeps its move bits and singletons in slot ``i % _BLOCK`` of a block.
    """
    n = instance.n
    size = 1 << n
    cols = len(transfer_costs)
    places, rows = _row_map(n)
    ratesum = np.repeat(np.array(_rate_sums(instance))[:, None], cols, axis=1)  # a full table keeps storage contiguous
    costs = np.tile(np.asarray(transfer_costs, dtype=float), (size, 1))
    singles = np.array([1 << place for place in places])
    dp = np.full((size, cols), math.inf)
    dp[singles[instance.initial_server - 1]] = 0.0
    halves = [_pass_views(dp, place) for place in places]
    storage = np.empty_like(dp)
    block = _BLOCK if reconstruct else 1
    singletons = np.empty((block, n, cols))  # gathered once per step
    gathered = list(singletons)
    optima = np.empty((len(events) if prefix else 1, cols))
    slots = [None]
    if reconstruct:
        moves = np.zeros((block, n, size >> 1), dtype=bool)  # pass b records its move bits in row b of a slot
        slots = [
            [_runs(moved[b].reshape(size >> (place + 1), 1 << place))[0] for b, place in enumerate(places)]
            for moved in moves
        ]
        record = np.empty((len(events), (moves[0].size + 7) // 8), dtype=np.uint8)
        cheapest = np.empty(len(events), dtype=np.uint8)
    # pass b creates a copy at server b + 1 for one transfer; sequential passes cover multi-copy
    # creations, and contiguous copies of the cost views keep the adds fast
    passes = [
        (lo, hi, order, np.ascontiguousarray(_pass_views(costs, place)[0]), np.empty_like(lo))
        for (lo, hi, order), place in zip(halves, places)
    ]
    step_passes = [[(*passes[b], b) for b in range(n) if mask >> b & 1] for mask in allowed]

    add, minimum, less, copyto, take = np.add, np.minimum, np.less, np.copyto, dp.take
    last = len(events) - 1
    prev_t = 0.0
    for i, (time, server) in enumerate(events):
        dp += np.multiply(ratesum, time - prev_t, out=storage)
        prev_t = time
        q = server - 1
        k = i % block
        moved = slots[k]
        # the closed form F[s] = G[s | q] of the module docstring: row 0 stands for
        # "serve from the cheapest sole holder, then drop it", and the creation
        # pass over bit q is the serve
        minimum.reduce(take(singles, axis=0, out=gathered[k], mode="clip"), axis=0, out=dp[0])
        for lo, hi, order, cost, spare, b in step_passes[q]:
            src = add(lo, cost, out=spare, order=order)
            if moved is not None:
                less(src, hi, out=moved[b], order=order)
            minimum(hi, src, out=hi, order=order)
        copyto(*halves[q][:2])  # dropping q is free; row 0 gets G[{q}], dead until the next step
        if prefix:
            optima[i] = dp[singles[q]]  # the least entry: the step's optimum
        if reconstruct and (k == block - 1 or i == last):
            record[i - k : i + 1] = np.packbits(moves[: k + 1].reshape(k + 1, -1), axis=1, bitorder="little")
            cheapest[i - k : i + 1] = singletons[: k + 1, :, 0].argmin(axis=1)
    if not prefix:
        optima[0] = dp[singles[q]]
    if not reconstruct:
        return optima, None
    dp[0] = math.inf
    return optima, (record, cheapest.tolist(), int(np.argmin(dp[rows, 0])))  # the first cheapest subset, not row


def _list_steps(
    instance: Instance, events: list[tuple[float, int]], allowed: list[int], transfer_costs: Sequence[float],
    prefix: bool, reconstruct: bool,
) -> tuple[np.ndarray, tuple[np.ndarray, list[int], int] | None]:
    """``_table_steps`` for one transfer cost over a list, with the table's row order and each float operation in order.

    Rows of the record for the passes a step skips stay 0; ``_reconstruct`` never reads them.
    """
    cost = float(transfer_costs[0])
    n = instance.n
    size, half = 1 << n, 1 << (n - 1)
    places, rows = _row_map(n)
    ratesum = _rate_sums(instance)
    singles = [1 << place for place in places]
    dp = [math.inf] * size
    dp[singles[instance.initial_server - 1]] = 0.0
    # pass b relaxes each row with bit places[b] from its partner without it; the j-th pair is move bit b * half + j
    pairs = _pass_pairs(n)
    step_passes = [[(b * half, pairs[b]) for b in range(n) if mask >> b & 1] for mask in allowed]
    nbytes = (n * half + 7) // 8
    optima, record, cheapest = [], [], []
    prev_t = 0.0
    for time, server in events:
        dt, prev_t = time - prev_t, time
        dp = [v + r * dt for v, r in zip(dp, ratesum)]
        q = server - 1
        singletons = [dp[row] for row in singles]
        dp[0] = least = min(singletons)
        moved = 0
        for first, pass_pairs in step_passes[q]:
            for j, (lo, hi) in enumerate(pass_pairs, first):
                src = dp[lo] + cost
                if src < dp[hi]:
                    dp[hi] = src
                    moved |= 1 << j
        for lo, hi in pairs[q]:  # the half copy
            dp[lo] = dp[hi]
        optima.append(dp[singles[q]])
        if reconstruct:
            cheapest.append(singletons.index(least))
            record.append(moved.to_bytes(nbytes, "little"))
    optima = np.array(optima if prefix else optima[-1:])[:, None]
    if not reconstruct:
        return optima, None
    dp[0] = math.inf
    final = [dp[row] for row in rows]
    record = np.frombuffer(b"".join(record), dtype=np.uint8).reshape(len(events), nbytes)
    return optima, (record, cheapest, final.index(min(final)))


def _reconstruct(
    instance: Instance,
    events: list[tuple[float, int]],
    allowed: list[int],
    record: np.ndarray,
    cheapest: list[int],
    final_state: int,
) -> ReplicationSchedule:
    """The schedule that walks ``final_state`` back through each step's recorded moves.

    ``record[i]`` packs step ``i``'s move bits little-endian, 2^(n-1) per
    creation pass in server order, each at its subset's table row with the
    pass's table bit removed. A subset with the pass's bit whose move bit is
    set came from its partner without it; a step from server ``q + 1`` ran
    only the passes over ``allowed[q]``. Each step ends with the requester's half
    copied into the half without it, and its row 0 is the singleton with bit
    ``cheapest[i]``. Undoing step ``i`` gives the holders before it, so the
    one backward walk emits the step's transfers and copies right there.
    """
    n = instance.n
    half = 1 << (n - 1)
    bits = memoryview(record.reshape(-1))
    row_bits = 8 * record.shape[1]
    offsets = [b * half for b in range(n)]
    places, rows = _row_map(n)
    tops = [1 << place for place in places]
    copies: list[CopyInterval] = []
    transfers: list[Transfer] = []
    ends = {b + 1: events[-1][0] for b in range(n) if final_state >> b & 1}  # copies whose start is still ahead
    after = final_state
    for i in range(len(events) - 1, -1, -1):
        time, server = events[i]
        qbit = 1 << (server - 1)
        state = after | qbit
        base = i * row_bits
        row = rows[state]
        held = state & allowed[server - 1]  # rows of the passes the step skipped are stale
        while held:  # undoing pass b toggles bit b only, so the lower set bits stay the passes to undo
            b = held.bit_length() - 1
            held ^= 1 << b
            top = tops[b]
            at = base + offsets[b] + ((row >> 1) & -top | row & (top - 1))
            if bits[at >> 3] >> (at & 7) & 1:
                state ^= 1 << b
                row ^= top
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


def _single(instance: Instance, reconstruct: bool) -> DPSolution:
    prefix, schedule = _solve(instance, (instance.transfer_cost,), True, reconstruct)
    costs = tuple(prefix[:, 0].tolist())
    return DPSolution(costs[-1], schedule, costs)


def opt_full(instance: Instance, reconstruct: bool = True) -> DPSolution:
    """Exact optimum with copies creatable at any server on request instants."""
    return _single(instance, reconstruct)


def opt_restricted(instance: Instance, reconstruct: bool = True) -> DPSolution:
    """The restricted optimum, over holder sets with at most one far server: the full one.

    The one-far-holder law makes the full optimum the restricted one, and
    check (c) of ``validate_offline_structure`` holds its schedule to the law.
    This name goes when a benchmark change moves ``trace-audit`` to ``opt_full``.
    """
    return _single(instance, reconstruct)


def opt_costs(instance: Instance, transfer_costs: Sequence[float]) -> tuple[float, ...]:
    """The optimum of ``instance`` under each transfer cost, from one full-oracle DP pass.

    The instance's own transfer cost is ignored. Each result equals
    ``opt_full`` of the instance with that transfer cost. ``WORK_BUDGET``
    bounds the work per transfer cost, which is the same for every cost, so
    the pass is refused for all or for none.
    """
    for cost in transfer_costs:
        _check_transfer_cost(float(cost))
    optima, _ = _solve(instance, transfer_costs, False, False)
    return tuple(optima[0].tolist())
