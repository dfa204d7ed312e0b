"""Reference oracles that the program's kernel must match bit for bit.

``full_prefix_optima`` is the full-oracle step with explicit serve, keep,
creation and drop passes: each step adds gap storage, charges subsets
without the requester one inward transfer, keeps the served copy for free,
runs one creation pass per server bit and then one drop pass per server bit.
The program's full oracle replaces the serve, keep and drop passes with a
closed form over a monotone table; tests require both to give equal prefix
optima, bit for bit.

``reference_schedule`` runs the program's closed-form step (plus, for the
restricted oracle, the mask of holder sets with two far servers) with an
int16 "came from" table: per step, the subset each subset was reached from,
moved only where a candidate is strictly cheaper. The backtrack follows
these origins from the first cheapest final subset. The program records one
move bit per pass instead; tests require both to give the same schedule, bit
for bit.

``far_sets`` finds the far servers of each step with a plain loop, apart
from the program's vectorised lookup.
"""

from __future__ import annotations

import math
from collections.abc import Sequence

import numpy as np

from repsim.model import (
    KIND_OFFLINE,
    PURPOSE_CREATE,
    PURPOSE_SERVE,
    TOL,
    CopyInterval,
    Instance,
    ReplicationSchedule,
    Transfer,
)
from repsim.offline import _bit, _halves, _rate_sums


def full_prefix_optima(instance: Instance, transfer_costs: Sequence[float]) -> np.ndarray:
    """The full oracle's optimum after each step, one column per transfer cost.

    Row ``i`` is the optimum over the first ``i`` requests (row 0 covers only
    the synthetic time-0 request at the initial server).
    """
    n = instance.n
    size = 1 << n
    cols = len(transfer_costs)
    events = [(0.0, instance.initial_server)] + [(r.time, r.server) for r in instance.requests]
    ratesum = np.repeat(_rate_sums(instance)[:, None], cols, axis=1)
    transfer = _halves(np.tile(np.asarray(transfer_costs, dtype=float), (size, 1)))
    dp = np.full((size, cols), math.inf)
    dp[_bit(instance.initial_server)] = 0.0
    halves = _halves(dp)

    def relax(b: int, into: int, cost: np.ndarray | None = None) -> None:
        dst, src = halves[b][into], halves[b][1 - into]
        if cost is not None:
            src = src + cost
        np.minimum(dst, src, out=dst)

    optima = np.empty((len(events), cols))
    prev_t = 0.0
    for i, (time, server) in enumerate(events):
        dp += ratesum * (time - prev_t)
        prev_t = time
        q = server - 1
        np.add(halves[q][0], transfer[q][0], out=halves[q][0])  # serve by inward transfer
        relax(q, 1)  # keeping the served copy is free
        for b in range(n):
            relax(b, 1, transfer[b][0])  # a copy anywhere costs one transfer
        for b in range(n):
            relax(b, 0)  # drops are free
        dp[0] = math.inf
        optima[i] = dp.min(axis=0)
    return optima


def far_sets(instance: Instance) -> list[int]:
    """Per step, the bits of the servers that are far under the instance's transfer cost.

    Server ``s`` is far at step ``i`` when ``rate_s * (next request at s
    after t_i - t_i) > transfer_cost + TOL``, with no next request counting
    as an infinite gap; rounding ties are near.
    """
    events = [(0.0, instance.initial_server)] + [(r.time, r.server) for r in instance.requests]
    following: dict[int, float] = {}
    out = [0] * len(events)
    for i in range(len(events) - 1, -1, -1):
        time, server = events[i]
        for b, srv in enumerate(instance.servers):
            if srv.rate * (following.get(b + 1, math.inf) - time) > instance.transfer_cost + TOL:
                out[i] |= 1 << b
        following[server] = time
    return out


def reference_schedule(instance: Instance, restricted: bool) -> tuple[float, ReplicationSchedule]:
    """The optimum and its schedule, from an int16 came-from table per step."""
    n = instance.n
    size = 1 << n
    events = [(0.0, instance.initial_server)] + [(r.time, r.server) for r in instance.requests]
    ratesum = _rate_sums(instance)[:, None]
    transfer = _halves(np.full((size, 1), instance.transfer_cost))
    far = far_sets(instance) if restricted else None
    singles = 1 << np.arange(n)
    dp = np.full((size, 1), math.inf)
    dp[_bit(instance.initial_server)] = 0.0
    halves = _halves(dp)
    came = np.empty((len(events), size), dtype=np.int16)
    origin = np.empty((size, 1), dtype=np.int16)
    identity = np.arange(size, dtype=np.int16)[:, None]
    origin_halves = _halves(origin)

    def relax(b: int, cost: np.ndarray) -> None:
        dst, src = halves[b][1], halves[b][0] + cost
        moved = src < dst
        np.copyto(dst, src, where=moved)
        np.copyto(origin_halves[b][1], origin_halves[b][0], where=moved)

    prev_t = 0.0
    for i, (time, server) in enumerate(events):
        dp += ratesum * (time - prev_t)
        prev_t = time
        np.copyto(origin, identity)
        q = server - 1
        dp[0] = dp[singles].min(axis=0)
        origin[0] = singles[np.argmin(dp[singles, 0])]
        for b in range(n):
            relax(b, transfer[b][0])
        np.copyto(halves[q][0], halves[q][1])
        np.copyto(origin_halves[q][0], origin_halves[q][1])
        dp[0] = math.inf
        if restricted:
            for s in range(size):
                if bin(s & far[i]).count("1") >= 2:
                    dp[s] = math.inf
        came[i] = origin[:, 0]

    holder_seq = [0] * len(events)
    holder_seq[-1] = int(np.argmin(dp[:, 0]))
    for i in range(len(events) - 1, 0, -1):
        holder_seq[i - 1] = int(came[i, holder_seq[i]])
    return float(dp.min()), _schedule(instance, events, holder_seq)


def _schedule(instance: Instance, events: list[tuple[float, int]], holder_seq: list[int]) -> ReplicationSchedule:
    """The schedule that holds ``holder_seq[i]`` after event ``i``."""
    n = instance.n
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
