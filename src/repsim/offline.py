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
worst case, (n + 1) * 2^(n-1) per step and transfer cost.

A step makes no reduction over the table. Its optimum is the requester's
singleton row ``G[{q}]``: a set that holds ``q`` costs at least ``S[{q}]``,
and one that lacks it pays at least one creation, ``S[0] + transfer``, so
``G[{q}]`` is the least entry, and the half copy keeps it so. Row 0 is
per-step scratch: storage adds 0 to it, and the next step overwrites it.

Two step loops run these steps with the same float operations in the same
order, so their optima and schedules agree bit for bit. For one transfer
cost and at most ``LIST_STEP_MAX_N`` servers the table is a Python list,
since numpy's cost per call outweighs the work on at most 64 entries; else
it is a numpy table with one column per transfer cost.

For a schedule either loop records one move bit per creation pass and
entry it relaxes: set where the candidate from across the pass's bit is
strictly cheaper, the only entries the minimum changes. A step's n * 2^(n-1)
bits are packed into one row, and the step also keeps its cheapest singleton;
the half copy is unconditional and needs no bit. The backtrack walks the first
cheapest final subset back through each step's passes in reverse, one bit
lookup per pass run over a bit the subset holds (undoing pass ``b`` toggles
bit ``b`` only), so on exact ties the schedule is the first strictly cheaper
path in pass order. Undoing a step gives the holders before it, so the same
walk emits the schedule, step by step.
"""

from __future__ import annotations

import heapq
import math
from collections.abc import Sequence
from dataclasses import dataclass
from itertools import repeat

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
    _check_transfer_cost,
    _holding_spans,
    _unmatched,
    _walk_spans,
)

DEFAULT_BUDGET = 5_000_000_000
LIST_STEP_MAX_N = 6  # the most servers at which a reconstructing list step beats a table step (2-core VM)


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
    step relaxes or copies in the worst case, paid when every request comes
    from a server dearer than all others: n passes over half the table and
    one half copy. A pass over K transfer costs does K times this work; the
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
    cost only) it also returns an optimal schedule. A step from server
    ``q + 1`` runs the passes over the bits ``allowed[q]``: its own and those
    of the servers strictly cheaper than it. The step loop is ``_list_steps``
    for one transfer cost and at most ``LIST_STEP_MAX_N`` servers, where
    numpy's cost per call outweighs the work, else ``_table_steps``. Both give
    the same optima and, for ``_reconstruct``, the same move bits of the
    passes run, cheapest singletons and final subset.
    """
    _check_budget(instance, budget)
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
    """The step loop over a numpy table, in place on views and temporaries that are all built before it."""
    n = instance.n
    size = 1 << n
    cols = len(transfer_costs)
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
    step_passes = [[p for b, p in enumerate(passes) if mask >> b & 1] for mask in allowed]

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
        for lo, hi, cost, spare, moved in step_passes[q]:
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
    return optima, (record, cheapest.tolist(), int(np.argmin(dp[:, 0])))


def _list_steps(
    instance: Instance, events: list[tuple[float, int]], allowed: list[int], transfer_costs: Sequence[float],
    prefix: bool, reconstruct: bool,
) -> tuple[np.ndarray, tuple[np.ndarray, list[int], int] | None]:
    """``_table_steps`` for one transfer cost over a list, each float operation in the table loop's order.

    Rows of the record for the passes a step skips stay 0; ``_reconstruct`` never reads them.
    """
    cost = float(transfer_costs[0])
    n = instance.n
    size, half = 1 << n, 1 << (n - 1)
    ratesum = _rate_sums(instance).tolist()
    dp = [math.inf] * size
    dp[_bit(instance.initial_server)] = 0.0
    # pass b relaxes each subset with bit b from its partner without it; the j-th pair is move bit b * half + j
    pairs = [[(s, s | 1 << b) for s in range(size) if not s >> b & 1] for b in range(n)]
    step_passes = [[(b * half, pairs[b]) for b in range(n) if mask >> b & 1] for mask in allowed]
    nbytes = (n * half + 7) // 8
    optima, rows, cheapest = [], [], []
    prev_t = 0.0
    for time, server in events:
        dt, prev_t = time - prev_t, time
        dp = [v + r * dt for v, r in zip(dp, ratesum)]
        q = server - 1
        singletons = [dp[1 << b] for b in range(n)]
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
        optima.append(dp[1 << q])
        if reconstruct:
            cheapest.append(singletons.index(least))
            rows.append(moved.to_bytes(nbytes, "little"))
    optima = np.array(optima if prefix else optima[-1:])[:, None]
    if not reconstruct:
        return optima, None
    dp[0] = math.inf
    record = np.frombuffer(b"".join(rows), dtype=np.uint8).reshape(len(events), nbytes)
    return optima, (record, cheapest, dp.index(min(dp)))


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
    creation pass in bit order, each at its subset's index with the pass's
    bit removed. A subset with the pass's bit whose move bit is set came
    from its partner without it; a step from server ``q + 1`` ran only the
    passes over ``allowed[q]``. Each step ends with the requester's half
    copied into the half without it, and its row 0 is the singleton with bit
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
        held = state & allowed[server - 1]  # rows of the passes the step skipped are stale
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
    transfer + TOL`` (``inf`` without one); rounding ties are near.

    The law holds for some optimal schedule. Of two far holders, drop at
    ``t_i`` the one whose copy ends first. The other survives at least as
    long, so it keeps the object alive and can act as a source. If the
    dropped copy would have lasted to its server's next request, serving that
    request by transfer costs one transfer and saves more than one transfer
    of storage; otherwise the drop only saves storage. The oracle prunes
    nothing by the law; ``repsim verify`` holds its schedules to it here.

    Each check walks sorted records forward once: (a) one pointer into the
    request times, (b) one per server into its spans, (c) a sweep line that
    merges the spans by start and heaps them on ``end + TOL`` while they hold
    through a gap; it tests far-ness only for the live spans' servers, each
    against its next request, which one backward pass over the steps gives per
    step and the forward walk keeps per server. That is O(m n + transfers +
    spans log n + m * live) time.
    """
    inst = schedule.instance
    out: list[Violation] = []
    steps = [(0.0, inst.initial_server)] + [(r.time, r.server) for r in inst.requests]
    req_times = [t for t, _ in steps]
    for t in _unmatched(req_times, [tr.time for tr in schedule.transfers]):
        out.append(Violation(t, f"transfer at t={t:g} coincides with no request time"))

    spans = _holding_spans(schedule)
    walked = dict.fromkeys(spans, 0)  # per server, its spans that start by its previous request
    prev_at: dict[int, float] = {inst.initial_server: 0.0}
    for req in inst.requests:
        t_prev = prev_at.get(req.server)
        if t_prev is not None and inst.rate(req.server) * (req.time - t_prev) <= inst.transfer_cost + TOL:
            i = walked[req.server] = _walk_spans(spans[req.server], walked[req.server], t_prev)
            if not (i and req.time <= spans[req.server][i - 1][1] + TOL):
                message = f"request {req.index}: server {req.server} does not hold a copy through ({t_prev:g}, {req.time:g})"
                out.append(Violation(req.time, f"{message} although storing is no costlier than a transfer"))
        prev_at[req.server] = req.time

    upcoming = [math.inf] * (inst.n + 1)  # per server, its first request after the walked step
    after = []  # per step, last first, its requester's next request; the forward walk pops them
    for t, server in reversed(steps):
        after.append(upcoming[server])
        upcoming[server] = t
    rates = [0.0] + [server.rate for server in inst.servers]
    bar = inst.transfer_cost + TOL
    entering = heapq.merge(*(zip(spans[s], repeat(s)) for s in range(1, inst.n + 1)))  # ((start, end), server)
    (a, b), s = next(entering, ((math.inf, math.inf), 0))
    live: list[tuple[float, int]] = []  # (end + TOL, server) of the spans holding through [t0, t1]
    for i, ((t0, q), t1) in enumerate(zip(steps, req_times[1:])):
        upcoming[q] = after.pop()
        while a - TOL <= t0:
            heapq.heappush(live, (b + TOL, s))
            (a, b), s = next(entering, ((math.inf, math.inf), 0))
        while live and live[0][0] < t1:
            heapq.heappop(live)
        if len(live) > 1:
            # a set: two spans of one server can both hold through a gap inside the band between them
            held = {server for _, server in live if rates[server] * (upcoming[server] - t0) > bar}
            if len(held) > 1:
                message = f"request {i}: far servers {', '.join(map(str, sorted(held)))} each hold a copy"
                out.append(Violation(t0, f"{message} through ({t0:g}, {t1:g}) although one far holder suffices"))
    return out
