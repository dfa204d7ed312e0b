"""Shared helpers: reference scenarios and independent brute-force oracles."""

from __future__ import annotations

import math
from itertools import accumulate, product

from hypothesis import settings
from hypothesis import strategies as st

import repsim as R

# Property tests draw the same examples on every run, without a stored
# example database and without per-example deadlines on a slow machine.
settings.register_profile("repsim", derandomize=True, database=None, deadline=None, max_examples=150)
settings.load_profile("repsim")


@st.composite
def instances(draw, max_n: int = 4, max_m: int = 8) -> R.Instance:
    """Small random instances with equal rates, sorted free rates, or sorted rates from a pool of three."""
    n = draw(st.integers(1, max_n))
    rate = st.floats(0.25, 8.0)
    kind = draw(st.sampled_from(("equal", "free", "pool")))
    if kind == "equal":
        rates = [draw(rate)] * n
    else:  # a pool of three makes some rates tie and others differ
        pool = rate if kind == "free" else st.sampled_from((0.5, 1.0, 2.0))
        rates = sorted(draw(st.lists(pool, min_size=n, max_size=n)))
    lam = draw(st.floats(0.25, 4.0))
    times = list(accumulate(draw(st.lists(st.floats(0.01, 3.0), max_size=max_m))))
    servers = draw(st.lists(st.integers(1, n), min_size=len(times), max_size=len(times)))
    return R.Instance.build(rates, lam, draw(st.integers(1, n)), list(zip(times, servers)))


def fig3_instance() -> R.Instance:
    """Four-server scenario exercising all six request categories.

    Rates 1/2/4/5 with unit transfer cost and the initial copy at server 1.
    The run serves r1 locally from a retained sole copy, r2..r4 by transfers
    from holding windows, r5 from a resident retained copy, r6 from a copy
    relocated to server 1, r7 locally at server 1 from the relocated copy,
    and r8 locally from its own window.
    """
    return R.Instance.build(
        [1.0, 2.0, 4.0, 5.0],
        1.0,
        1,
        [(1.5, 1), (2.2, 2), (2.3, 3), (2.4, 4), (3.5, 3), (4.5, 4), (5.5, 1), (6.2, 1)],
    )


# Instance files the parser must reject: (JSON text, expected message part).
BAD_DOCUMENTS = {
    "nan-lambda": ('{"lambda": NaN, "initial_server": 1, "rates": [1], "requests": []}', "transfer cost"),
    "infinite-rate": ('{"lambda": 1, "initial_server": 1, "rates": [1, Infinity], "requests": []}', "rate of server 2"),
    "nan-time": (
        '{"lambda": 1, "initial_server": 1, "rates": [1, 2], "requests": [\n'
        '  {"t": 1.0, "s": 2},\n  {"t": NaN, "s": 2},\n  {"t": 0.5, "s": 1}\n]}',
        "line 3: requests[1]: time nan",
    ),
    "non-object-request": (
        '{"lambda": 1, "initial_server": 1, "rates": [1, 2], "requests": [\n'
        '  {"t": 1.0, "s": 2},\n  5,\n  {"t": 2.0, "s": 1}\n]}',
        "line 3: requests[1]: must be an object",
    ),
    "fractional-server": (
        '{"lambda": 1, "initial_server": 1, "rates": [1, 2], "requests": [{"t": 1.0, "s": 1.9}]}',
        "requests[0]: server 1.9",
    ),
    "fractional-initial-server": ('{"lambda": 1, "initial_server": 1.7, "rates": [1, 2], "requests": []}', "1.7"),
    "string-rate": ('{"lambda": 1, "initial_server": 1, "rates": [1, "2"], "requests": []}', "'rates'"),
    "huge-integer": ('{"lambda": 1%s, "initial_server": 1, "rates": [1], "requests": []}' % ("0" * 400), "too large"),
}


def dumb_schedule_cost(schedule: R.ReplicationSchedule, horizon: float) -> float:
    """Straight re-summation of a schedule's cost, independent of compute_cost."""
    total = 0.0
    for c in schedule.copies:
        lo = max(0.0, c.start)
        hi = min(horizon, c.end)
        if hi > lo:
            total += schedule.instance.rate(c.server) * (hi - lo)
    for t in schedule.transfers:
        if t.time <= horizon + 1e-9:
            total += schedule.instance.transfer_cost
    return total


def brute_force_optimum(instance: R.Instance) -> float:
    """Exhaustive minimum over all piecewise-constant holder sequences.

    Enumerates every assignment of a nonempty holder subset to each
    between-request gap, charging gap storage, a transfer when the requester
    holds nothing, and a transfer per extra created copy. Independent of the
    DP implementation; only usable for tiny instances.
    """
    n = instance.n
    lam = instance.transfer_cost
    subsets = [frozenset(i + 1 for i in range(n) if mask >> i & 1) for mask in range(1, 2**n)]
    events = [(0.0, instance.initial_server)] + [(r.time, r.server) for r in instance.requests]
    best = math.inf
    for seq in product(subsets, repeat=len(events)):
        cost = 0.0
        prev_holders = frozenset({instance.initial_server})
        prev_t = 0.0
        for (t, server), holders in zip(events, seq):
            cost += sum(instance.rate(x) for x in prev_holders) * (t - prev_t)
            if server not in prev_holders:
                cost += lam
            cost += lam * len(holders - (prev_holders | {server}))
            prev_holders = holders
            prev_t = t
            if cost >= best:
                break
        best = min(best, cost)
    return best
