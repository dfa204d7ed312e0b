"""Property tests of the offline oracle over small random instances.

Half the drawn instances give every server the same rate, so many schedules
tie exactly and the reconstruction's tie-breaking is exercised.
"""

from __future__ import annotations

from dataclasses import replace

from hypothesis import given
from hypothesis import strategies as st

import repsim as R
from conftest import instances

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
    so the restricted oracle's creation mask decides between schedules."""
    pool = draw(st.lists(st.floats(0.01, 20.0), min_size=1, max_size=4))
    return draw(st.lists(st.sampled_from(pool), min_size=1, max_size=6))


@given(instances(max_n=5), transfer_cost_lists())
def test_batched_optima_equal_single_cost_optima(inst, lams):
    for oracle, solver in (("full", R.opt_full), ("restricted", R.opt_restricted)):
        expected = tuple(solver(replace(inst, transfer_cost=lam), reconstruct=False).opt_cost for lam in lams)
        assert R.opt_costs(inst, lams, oracle) == expected


@given(instances(max_n=5))
def test_reconstructed_schedules_are_valid_and_optimal(inst):
    for solver in (R.opt_full, R.opt_restricted):
        sol = solver(inst)
        assert R.validate_schedule(sol.schedule) == []
        assert R.validate_offline_structure(sol.schedule) == []
        assert abs(R.compute_cost(sol.schedule).total - sol.opt_cost) <= TOL


@given(instances())
def test_optimum_bounds_every_policy(inst):
    opt = R.opt_full(inst, reconstruct=False).opt_cost
    for name in ("alg1", "wang", "simple"):
        _, cost = R.simulate(name, inst)
        assert cost.total >= opt - TOL, name
        if name == "alg1":
            assert cost.total <= R.competitive_bound(inst) * opt + TOL
