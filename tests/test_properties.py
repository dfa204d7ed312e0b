"""Property tests of the offline oracle and the policies over small random instances.

Half the drawn instances give every server the same rate, so many schedules
tie exactly and the reconstruction's tie-breaking is exercised.
"""

from __future__ import annotations

from dataclasses import replace

from hypothesis import given
from hypothesis import strategies as st

import repsim as R
from conftest import instances
from reference_oracle import far_sets, full_prefix_optima, reference_schedule
from repsim.offline import _far_sets

TOL = 1e-9


@given(instances())
def test_full_and_restricted_oracles_agree(inst):
    full = R.opt_full(inst, reconstruct=False)
    restr = R.opt_restricted(inst, reconstruct=False)
    assert abs(full.opt_cost - restr.opt_cost) <= TOL
    for a, b in zip(full.prefix_costs, restr.prefix_costs, strict=True):
        assert abs(a - b) <= TOL


@given(instances())
def test_doubling_prices_doubles_the_optimum_exactly(inst):
    doubled = R.Instance.build(
        [2 * s.rate for s in inst.servers],
        2 * inst.transfer_cost,
        inst.initial_server,
        [(r.time, r.server) for r in inst.requests],
    )
    for solver in (R.opt_full, R.opt_restricted):
        base = solver(inst, reconstruct=False)
        scaled = solver(doubled, reconstruct=False)
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


@given(instances(max_n=5))
def test_reconstructed_schedules_are_valid_and_optimal(inst):
    for solver in (R.opt_full, R.opt_restricted):
        sol = solver(inst)
        assert R.validate_schedule(sol.schedule) == []
        assert R.validate_offline_structure(sol.schedule) == []
        assert abs(R.compute_cost(sol.schedule).total - sol.opt_cost) <= TOL


@given(instances(max_n=5))
def test_reconstructed_schedules_equal_the_came_from_reference(inst):
    for restricted, solver in ((False, R.opt_full), (True, R.opt_restricted)):
        sol = solver(inst)
        assert (sol.opt_cost, sol.schedule) == reference_schedule(inst, restricted), restricted


@given(instances(max_n=5))
def test_far_sets_equal_the_loop_reference(inst):
    events = [(0.0, inst.initial_server)] + [(r.time, r.server) for r in inst.requests]
    assert _far_sets(inst, events).tolist() == far_sets(inst)


@given(instances(max_n=5))
def test_reconstructed_schedules_keep_at_most_one_far_holder(inst):
    # the one-far-holder law: between requests, at most one holder waits longer for its
    # next request than storing there until then is worth (rounding ties are near)
    times = [0.0] + [r.time for r in inst.requests]
    far = far_sets(inst)
    for solver in (R.opt_full, R.opt_restricted):
        copies = solver(inst).schedule.copies
        for i, (start, end) in enumerate(zip(times, times[1:])):
            mid = (start + end) / 2
            holders = {c.server for c in copies if c.start < mid < c.end}
            assert len([s for s in holders if far[i] >> (s - 1) & 1]) <= 1, (solver.__name__, i, holders)


@given(instances())
def test_optimum_bounds_every_policy(inst):
    opt = R.opt_full(inst, reconstruct=False).opt_cost
    for name in ("alg1", "wang", "simple"):
        _, cost = R.simulate(name, inst)
        assert cost.total >= opt - TOL, name
        if name == "alg1":
            assert cost.total <= R.competitive_bound(inst) * opt + TOL


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
