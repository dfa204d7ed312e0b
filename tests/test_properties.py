"""Property tests of the offline oracle over small random instances.

Half the drawn instances give every server the same rate, so many schedules
tie exactly and the reconstruction's tie-breaking is exercised.
"""

from __future__ import annotations

from hypothesis import given

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


@given(instances())
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
