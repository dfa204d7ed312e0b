"""Reference full-oracle step: the DP with explicit serve, keep, creation and drop passes.

Each step adds gap storage, charges subsets without the requester one
inward transfer, keeps the served copy for free, runs one creation pass per
server bit and then one drop pass per server bit. The program's full oracle
replaces the serve, keep and drop passes with a closed form over a monotone
table; tests require both to give equal prefix optima, bit for bit.
"""

from __future__ import annotations

import math
from collections.abc import Sequence

import numpy as np

from repsim.model import Instance
from repsim.offline import _bit, _halves, _subset_tables


def full_prefix_optima(instance: Instance, transfer_costs: Sequence[float]) -> np.ndarray:
    """The full oracle's optimum after each step, one column per transfer cost.

    Row ``i`` is the optimum over the first ``i`` requests (row 0 covers only
    the synthetic time-0 request at the initial server).
    """
    n = instance.n
    size = 1 << n
    cols = len(transfer_costs)
    events = [(0.0, instance.initial_server)] + [(r.time, r.server) for r in instance.requests]
    ratesum = np.repeat(_subset_tables(instance)[0][:, None], cols, axis=1)
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
