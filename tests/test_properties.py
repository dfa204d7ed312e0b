"""Property tests of the offline oracle and the policies over small random instances.

Half the drawn instances give every server the same rate, so many schedules
tie exactly and the reconstruction's tie-breaking is exercised.
"""

from __future__ import annotations

from dataclasses import replace
from itertools import accumulate

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import repsim as R
from conftest import fig3_instance, instances
from reference_oracle import creation_passes, far_sets, full_prefix_optima, reference_schedule
from repsim.model import KIND_REGULAR, PURPOSE_CREATE
from repsim.offline import LIST_STEP_MAX_N, _list_steps, _reconstruct, _table_steps

TOL = 1e-9


@given(instances())
def test_full_and_restricted_oracles_agree(inst):
    # the one-far-holder law: masking the holder sets with two far servers keeps every prefix optimum
    full = R.opt_full(inst, reconstruct=False)
    for i, cost in enumerate(full.prefix_costs):
        restr, _ = reference_schedule(replace(inst, requests=inst.requests[:i]), restricted=True)
        assert abs(cost - restr) <= TOL, i


@given(instances())
def test_doubling_prices_doubles_the_optimum_exactly(inst):
    doubled = R.Instance.build(
        [2 * s.rate for s in inst.servers],
        2 * inst.transfer_cost,
        inst.initial_server,
        [(r.time, r.server) for r in inst.requests],
    )
    base = R.opt_full(inst, reconstruct=False)
    scaled = R.opt_full(doubled, reconstruct=False)
    assert scaled.opt_cost == 2 * base.opt_cost
    assert scaled.prefix_costs == tuple(2 * c for c in base.prefix_costs)


@st.composite
def transfer_cost_lists(draw) -> list[float]:
    """1 to 6 transfer costs with repeats; small ones make extra copies pay off,
    so the creation passes decide between schedules."""
    pool = draw(st.lists(st.floats(0.01, 20.0), min_size=1, max_size=4))
    return draw(st.lists(st.sampled_from(pool), min_size=1, max_size=6))


@given(instances(max_n=5), transfer_cost_lists())
def test_batched_optima_equal_single_cost_optima(inst, lams):
    expected = tuple(R.opt_full(replace(inst, transfer_cost=lam), reconstruct=False).opt_cost for lam in lams)
    assert R.opt_costs(inst, lams) == expected


@given(instances(max_n=5), transfer_cost_lists())
def test_full_oracle_equals_the_reference_step_bit_for_bit(inst, lams):
    expected = full_prefix_optima(inst, lams)
    assert R.opt_costs(inst, lams) == tuple(expected[-1].tolist())
    for lam, column in zip(lams, expected.T):
        assert R.opt_full(replace(inst, transfer_cost=lam)).prefix_costs == tuple(column.tolist())


@given(instances(max_n=5), transfer_cost_lists())
def test_the_creation_passes_a_step_skips_move_no_optimum(inst, lams):
    # the exchange argument, on draws whose rates often tie: the reference step with every
    # creation pass finds no prefix optimum below the oracle's, up to rounding
    every_pass = full_prefix_optima(inst, lams, all_passes=True)
    for lam, column in zip(lams, every_pass.T):
        strict = np.array(R.opt_full(replace(inst, transfer_cost=lam), reconstruct=False).prefix_costs)
        assert (np.abs(column - strict) <= 1e-12 * strict).all(), lam


@st.composite
def step_loop_instances(draw) -> R.Instance:
    """Up to one server past the list loop's limit, with equal, tied or grid rates and times offset up to 1e9.

    Grid rates, gaps and transfer costs are multiples of 1/4, so distinct schedules often cost exactly the same.
    """
    n = draw(st.integers(1, LIST_STEP_MAX_N + 1))
    quarters = st.integers(1, 32).map(lambda k: k / 4)
    kind = draw(st.sampled_from(("equal", "tied", "grid")))
    if kind == "equal":
        rates = [draw(st.floats(0.25, 8.0) | quarters)] * n
    else:
        pool = st.sampled_from((0.5, 1.0, 2.0)) if kind == "tied" else quarters
        rates = sorted(draw(st.lists(pool, min_size=n, max_size=n)))
    offset = draw(st.sampled_from((0.0, 6e5, 1e9)) | st.floats(0.0, 1e9))
    gaps = draw(st.lists(st.floats(0.01, 3.0) | quarters, max_size=12))
    servers = draw(st.lists(st.integers(1, n), min_size=len(gaps), max_size=len(gaps)))
    lam = draw(st.floats(0.25, 4.0) | quarters)
    requests = [(offset + t, s) for t, s in zip(accumulate(gaps), servers)]
    return R.Instance.build(rates, lam, draw(st.integers(1, n)), requests)


@given(step_loop_instances())
def test_list_and_table_step_loops_agree_bit_for_bit(inst):
    events = [(0.0, inst.initial_server)] + [(r.time, r.server) for r in inst.requests]
    allowed = [sum(1 << b for b in bits) for bits in creation_passes(inst)]  # the program's pass rule
    for prefix in (False, True):
        for reconstruct in (False, True):
            args = (inst, events, allowed, (inst.transfer_cost,), prefix, reconstruct)
            (lists, list_moves), (table, table_moves) = _list_steps(*args), _table_steps(*args)
            assert (lists.shape, lists.tobytes()) == (table.shape, table.tobytes()), (prefix, reconstruct)
            if reconstruct:  # the same cheapest singletons and final subset, and the same schedule from either record
                assert list_moves[1:] == table_moves[1:]
                schedules = [_reconstruct(inst, events, allowed, *moves) for moves in (list_moves, table_moves)]
                assert schedules[0] == schedules[1]
            else:
                assert list_moves is table_moves is None


@given(instances(max_n=LIST_STEP_MAX_N), st.floats(0.01, 20.0))
def test_one_cost_pass_equals_the_full_oracle(inst, lam):
    # both run the list loop; the pass keeps the final optimum only, the full oracle every prefix's
    assert R.opt_costs(inst, [lam]) == (R.opt_full(replace(inst, transfer_cost=lam)).opt_cost,)


@given(instances(max_n=5))
def test_reconstructed_schedules_are_valid_and_optimal(inst):
    # checks (a) to (c) of the structure validator, the one-far-holder law among them
    sol = R.opt_full(inst)
    assert R.validate_schedule(sol.schedule) == []
    assert R.validate_offline_structure(sol.schedule) == []
    assert abs(R.compute_cost(sol.schedule).total - sol.opt_cost) <= TOL


@given(instances(max_n=5))
def test_reconstructed_schedules_equal_the_came_from_reference(inst):
    sol = R.opt_full(inst)
    assert (sol.opt_cost, sol.schedule) == reference_schedule(inst, restricted=False)
    assert abs(reference_schedule(inst, restricted=True)[0] - sol.opt_cost) <= TOL


@given(instances(max_n=5))
def test_reconstructed_schedules_keep_at_most_one_far_holder(inst):
    # the one-far-holder law: between requests, at most one holder waits longer for its
    # next request than storing there until then is worth (rounding ties are near)
    times = [0.0] + [r.time for r in inst.requests]
    far = far_sets(inst)
    copies = R.opt_full(inst).schedule.copies
    for i, (start, end) in enumerate(zip(times, times[1:])):
        mid = (start + end) / 2
        holders = {c.server for c in copies if c.start < mid < c.end}
        assert len([s for s in holders if far[i] >> (s - 1) & 1]) <= 1, (i, holders)


@given(instances())
def test_optimum_bounds_every_policy(inst):
    opt = R.opt_full(inst, reconstruct=False).opt_cost
    for name in ("alg1", "wang", "simple"):
        _, cost = R.simulate(name, inst)
        assert cost.total >= opt - TOL, name
        if name == "alg1":
            assert cost.total <= R.competitive_bound(inst) * opt + TOL


@st.composite
def threshold_edge_instances(draw) -> R.Instance:
    """Two or three servers, the dearest rate within 2 TOL or 1e-12 relative of three times the cheapest.

    The cheapest rate is log-uniform in [1e-3, 1e4]; the transfer cost scales with it, so the
    windows keep the scale of the gaps between requests.
    """
    cheapest = 10.0 ** draw(st.floats(-3.0, 4.0))
    delta = draw(st.sampled_from((-2 * TOL, -TOL / 2, 0.0, TOL / 2, 2 * TOL, 1e-12 * cheapest, -1e-12 * cheapest)))
    dearest = 3.0 * cheapest + delta
    rates = [cheapest] + draw(st.lists(st.floats(cheapest, dearest), max_size=1)) + [dearest]
    times = list(accumulate(draw(st.lists(st.floats(0.01, 3.0), max_size=12))))
    servers = draw(st.lists(st.integers(1, len(rates)), min_size=len(times), max_size=len(times)))
    lam = cheapest * draw(st.floats(0.25, 4.0))
    return R.Instance.build(rates, lam, draw(st.integers(1, len(rates))), list(zip(times, servers)))


@given(threshold_edge_instances())
def test_threshold_checks_follow_the_policy_rule_at_every_scale(inst):
    run, _ = R.simulate("alg1", inst)
    assert R.special_copy_problems(run) == []
    assert R.typing_problems(run) == []


POLICY_NAMES = ("alg1", "wang", "simple")


def _rebuilt(inst: R.Instance, rate_factor: float, lam_factor: float, time_factor: float) -> R.Instance:
    return R.Instance.build(
        [rate_factor * s.rate for s in inst.servers],
        lam_factor * inst.transfer_cost,
        inst.initial_server,
        [(time_factor * r.time, r.server) for r in inst.requests],
    )


@given(instances(max_n=5, max_m=12))
def test_doubling_prices_doubles_every_policy_cost_exactly(inst):
    doubled = _rebuilt(inst, 2.0, 2.0, 1.0)
    for name in POLICY_NAMES:
        run, cost = R.simulate(name, inst)
        run2, cost2 = R.simulate(name, doubled)
        assert cost2.total == 2 * cost.total, name
        assert run2.event_log() == run.event_log(), name


@given(instances(max_n=5, max_m=12))
def test_doubling_times_at_half_the_rates_keeps_every_policy_cost(inst):
    stretched = _rebuilt(inst, 0.5, 1.0, 2.0)
    for name in POLICY_NAMES:
        run, cost = R.simulate(name, inst)
        run2, cost2 = R.simulate(name, stretched)
        assert cost2.total == cost.total, name
        assert [(c.server, c.start, c.end, c.kind) for c in run2.schedule.copies] == [
            (c.server, 2 * c.start, 2 * c.end, c.kind) for c in run.schedule.copies
        ], name
        assert [(t.time, t.src, t.dst) for t in run2.schedule.transfers] == [
            (2 * t.time, t.src, t.dst) for t in run.schedule.transfers
        ], name


def _prefixes_off_the_full_run(policy_for, inst: R.Instance) -> list[int]:
    """Each k in 0..m-1 whose run over the first k requests departs from the full run.

    The prefix law: an online policy's run up to a time depends only on the
    requests before it, so the prefix run serves its requests as the full run
    does and costs, bit for bit, what the full run costs up to the prefix's
    last request. ``policy_for(instance)`` makes a fresh policy for a run.
    """
    full, _ = R.simulate(policy_for(inst), inst)
    off = []
    for k in range(inst.m):
        prefix = replace(inst, requests=inst.requests[:k])
        run, cost = R.simulate(policy_for(prefix), prefix)
        if run.serve_rows != full.serve_rows[:k] or cost.total != R.compute_cost(full.schedule, prefix.horizon).total:
            off.append(k)
    return off


def _shifted(inst: R.Instance, offset: float) -> R.Instance:
    return replace(inst, requests=tuple(replace(r, time=r.time + offset) for r in inst.requests))


@given(instances(max_n=5, max_m=12), st.sampled_from((0.0, 1e3, 6e5, 1e6)))
def test_every_policy_is_online(inst, offset):
    shifted = _shifted(inst, offset)
    for name in POLICY_NAMES:
        assert _prefixes_off_the_full_run(lambda _: R.make_policy(name), shifted) == [], name


@given(instances(), st.sampled_from((0.0, 6e5)))
def test_every_transfer_serve_comes_from_the_lowest_numbered_holder(inst, offset):
    # the driver's one serve rule, whatever the policy: nothing happens at a
    # request's time before it is served, so its holders are the copies alive
    # just before it
    shifted = _shifted(inst, offset)
    for name in POLICY_NAMES:
        run, _ = R.simulate(name, shifted)
        copies = run.schedule.copies
        for rec in run.serves:
            if rec.mode == "transfer":
                assert rec.source == min(c.server for c in copies if c.start < rec.time <= c.end), (name, rec)


@given(instances(), st.sampled_from((0.0, 6e5)))
def test_every_special_serve_switch_time_is_its_copy_record_start(inst, offset):
    # a special copy turned special when its record started: at a mark, a
    # relocation or its creation; a regular copy has no switch time
    shifted = _shifted(inst, offset)
    for name in POLICY_NAMES:
        run, _ = R.simulate(name, shifted)
        copies = run.schedule.copies
        for rec in run.serves:
            if rec.copy_kind == KIND_REGULAR:
                assert rec.switch_time is None, (name, rec)
                continue
            provider = rec.server if rec.source is None else rec.source
            starts = [
                c.start for c in copies
                if c.server == provider and c.kind == rec.copy_kind and c.start <= rec.time <= c.end
            ]
            assert starts == [rec.switch_time], (name, rec)


class _ReadsTheRequests(R.ThresholdPolicy):
    """``alg1`` that looks the requests up on the simulation it is handed."""

    def start(self, sim: R.Simulation) -> None:
        self._future = sim.instance.requests
        super().start(sim)


def test_a_policy_cannot_read_the_requests_off_the_simulation():
    inst = fig3_instance()
    with pytest.raises(AttributeError):
        R.simulate(_ReadsTheRequests(), inst)
    sim = R.Simulation(R.make_policy("alg1"), inst)
    assert {name for name in vars(sim) if not name.startswith("_")} == {"prices", "holders"}
    assert {name for name in dir(R.Simulation) if not name.startswith("_")} == {"transfer", "drop", "mark", "hold", "run"}
    assert sim.prices == replace(inst, requests=())


class _Prefetching(R.ThresholdPolicy):
    """``alg1`` handed the requests of its run: each request also copies the object to the next requester."""

    def __init__(self, requests: tuple[R.Request, ...]):
        self._requests = requests

    def start(self, sim: R.Simulation) -> None:
        super().start(sim)
        self._next = iter(self._requests[1:])

    def on_request(self, sim: R.Simulation, time: float, server: int, source: int | None) -> None:
        super().on_request(sim, time, server, source)
        upcoming = next(self._next, None)
        if upcoming is not None and upcoming.server not in sim.holders:
            sim.transfer(server, upcoming.server, PURPOSE_CREATE)
            sim.hold(upcoming.server, upcoming.time)


def test_the_prefix_law_catches_a_policy_that_looks_ahead():
    inst = fig3_instance()
    run, _ = R.simulate(_Prefetching(inst.requests), inst)
    assert R.validate_schedule(run.schedule) == []  # a feasible run: only the law tells it apart
    assert _prefixes_off_the_full_run(lambda i: _Prefetching(i.requests), inst) != []
    assert _prefixes_off_the_full_run(lambda _: R.make_policy("alg1"), inst) == []
