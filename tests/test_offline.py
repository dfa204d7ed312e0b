"""Offline oracle: exactness, agreement with the masked reference, structural validators."""

from __future__ import annotations

import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

import repsim as R
from conftest import brute_force_optimum
from reference_oracle import full_prefix_optima, reference_schedule
from repsim import offline

TOL = 1e-9


def test_single_server_forced_hold():
    inst = R.Instance.build([2.0], 1.0, 1, [(7.0, 1)])
    sol = R.opt_full(inst)
    assert abs(sol.opt_cost - 14.0) <= TOL
    assert R.validate_schedule(sol.schedule) == []


def test_two_server_relocation_beats_holding():
    inst = R.Instance.build([1.0, 10.0], 1.0, 2, [(10.0, 2)])
    # hand enumeration of the four candidate strategies
    stay = 10.0 * 10.0
    relocate_and_back = 1.0 + 10.0 * 1.0 + 1.0
    hold_both = 1.0 + (1.0 + 10.0) * 10.0
    stay_then_drop = 10.0 * 10.0 + 1.0
    assert min(stay, relocate_and_back, hold_both, stay_then_drop) == 12.0
    sol = R.opt_full(inst)
    assert abs(sol.opt_cost - 12.0) <= TOL


def test_tight1_optimum():
    res = R.gen_tight(1, mu2=1.5, lam=1.0, epsilon=0.01)
    sol = R.opt_full(res.instance)
    assert abs(sol.opt_cost - 2.01) <= TOL


def test_fig1_optimum_matches_closed_form():
    res = R.gen_fig1(5, 1.0, 0.5, 0.1)
    assert abs(res.optimal_cost - 5.6) <= TOL
    assert abs(R.opt_full(res.instance).opt_cost - 5.6) <= TOL
    assert abs(reference_schedule(res.instance, restricted=True)[0] - 5.6) <= TOL


def test_restricted_agrees_on_tight_instances():
    cases = [
        R.gen_tight(1, mu2=1.5, lam=1.0, epsilon=0.01),
        R.gen_tight(2, mu2=2.5, lam=1.0, epsilon=0.01, tau=7.0),
        R.gen_tight(3, mu2=4.0, lam=1.0, epsilon=0.001),
    ]
    for res in cases:
        full = R.opt_full(res.instance)
        restr, _ = reference_schedule(res.instance, restricted=True)
        assert abs(full.opt_cost - restr) <= TOL
        assert abs(full.opt_cost - res.optimal_cost) <= TOL


def test_restricted_covers_early_prepositioning():
    # moving the copy to a cheaper server with an upcoming request at the
    # PREVIOUS request time beats holding the pricier server and transferring
    # later; a creation rule limited to the requester and server 1 misses it
    inst = R.Instance.build(
        [2.6723072151689973, 3.4620551299581575, 3.4804786660667517],
        0.6575353430972521,
        1,
        [
            (2.1357214913372466, 2),
            (2.7644265395465215, 1),
            (4.613050365635373, 1),
            (4.944585444622687, 1),
            (4.947219803354159, 2),
            (5.480305040663669, 3),
            (5.638978423081516, 3),
            (5.798704892323098, 3),
            (6.467893702606862, 3),
            (6.934264237387971, 3),
            (7.229986180492304, 2),
        ],
    )
    full = R.opt_full(inst)
    restr, _ = reference_schedule(inst, restricted=True)
    assert abs(full.opt_cost - restr) <= 1e-9
    # the winning schedule really does move the object to server 2 early
    assert any(t.dst == 2 and abs(t.time - 6.934264237387971) <= 1e-9 for t in full.schedule.transfers)


def test_oracle_matches_brute_force():
    for k in range(30):
        inst = R.gen_random(seed=2000 + k, n=1 + k % 3, m=k % 5)
        want = brute_force_optimum(inst)
        got = R.opt_full(inst).opt_cost
        assert abs(got - want) <= 1e-9, (k, got, want)


def test_restricted_equals_full_on_random_instances():
    for k in range(120):
        inst = R.gen_random(seed=100 + k, n=1 + k % 4, m=k % 13)
        full = R.opt_full(inst)
        restr = reference_schedule(inst, restricted=True)
        assert abs(full.opt_cost - restr[0]) <= 1e-9, k
        for opt, schedule in ((full.opt_cost, full.schedule), restr):
            assert R.validate_schedule(schedule) == []
            assert R.validate_offline_structure(schedule) == []
            assert abs(R.compute_cost(schedule).total - opt) <= 1e-9


def test_oracle_dominates_every_policy():
    for k in range(60):
        inst = R.gen_random(seed=4000 + k, n=1 + k % 4, m=k % 12)
        opt = R.opt_full(inst, reconstruct=False).opt_cost
        for name in ("alg1", "wang", "simple"):
            _, cost = R.simulate(name, inst)
            assert cost.total >= opt - 1e-9, (k, name)


def test_prefix_costs_nondecreasing():
    inst = R.gen_random(seed=77, n=4, m=20)
    sol = R.opt_full(inst, reconstruct=False)
    assert len(sol.prefix_costs) == inst.m + 1
    assert sol.prefix_costs[0] == 0.0
    for a, b in zip(sol.prefix_costs, sol.prefix_costs[1:]):
        assert b >= a - 1e-9


def test_budget_refusal_names_the_bound(monkeypatch):
    # (m + 1) * (n + 1) * 2^(n - 1) = 187,801 * 13 * 2,048 is just over 5e9
    inst = R.gen_random(seed=1, n=12, m=187_800, rate_range=(1.0, 2.0))
    with pytest.raises(R.BudgetExceeded) as err:
        R.opt_full(inst)
    assert "budget" in str(err.value)
    assert "5e+09" in str(err.value)
    # the charge fits a budget of exactly its size, and one less is refused
    work = (inst.m + 1) * 13 * 2_048
    monkeypatch.setattr(offline, "WORK_BUDGET", work)
    offline._check_budget(inst)
    monkeypatch.setattr(offline, "WORK_BUDGET", work - 1)
    with pytest.raises(R.BudgetExceeded):
        offline._check_budget(inst)
    monkeypatch.setattr(offline, "WORK_BUDGET", 1000)
    with pytest.raises(R.BudgetExceeded):
        R.opt_restricted(inst)
    with pytest.raises(R.BudgetExceeded) as err13:
        R.opt_full(R.gen_random(seed=1, n=13, m=1))
    assert "12" in str(err13.value)


def test_full_oracle_fits_the_default_budget_at_scale():
    # each step is charged the (n + 1) 2^(n - 1) entries it relaxes or copies,
    # and 10 servers are not refused
    inst = R.gen_random(seed=5, n=10, m=5_000, rate_range=(1.0, 4.0), horizon=5_000.0)
    full = R.opt_full(inst, reconstruct=False)
    assert len(full.prefix_costs) == inst.m + 1


def test_full_oracle_equals_the_reference_step_on_a_trace_prefix():
    times = R.gen_poisson_trace(42, 11_683, 50.0)[:2000]
    assigned = R.assign_servers(times, 10, 42)
    lams = [50.0, 400.0, 1200.0]
    for rate_set in ("set1", "set2", "set4"):  # set2 mixes one tie into distinct rates
        inst = R.Instance.build(R.RATE_SETS[rate_set], lams[0], 1, assigned)
        expected = full_prefix_optima(inst, lams)
        assert R.opt_costs(inst, lams) == tuple(expected[-1].tolist()), rate_set
        for lam, column in zip(lams, expected.T):
            for reconstruct in (False, True):  # the reconstructing step also records the cheapest singleton
                sol = R.opt_full(replace(inst, transfer_cost=lam), reconstruct=reconstruct)
                assert sol.prefix_costs == tuple(column.tolist()), (rate_set, lam, reconstruct)


def test_the_creation_passes_a_step_skips_move_no_optimum_on_a_trace_prefix():
    # the exchange argument: passes toward servers no cheaper than the requester find nothing
    # cheaper; run anyway, they take the sums in another order, so prefix optima may move by ulps
    lams = [50.0, 400.0, 1200.0]
    for rate_set in ("set1", "set2", "set4"):
        inst = _trace_prefix_instance(rate_set, lams[0], 2000)
        every_pass = full_prefix_optima(inst, lams, all_passes=True)
        for lam, column in zip(lams, every_pass.T):
            strict = np.array(R.opt_full(replace(inst, transfer_cost=lam), reconstruct=False).prefix_costs)
            assert (np.abs(column - strict) <= 1e-12 * strict).all(), (rate_set, lam)


def test_final_ties_walk_back_from_the_lowest_numbered_cheapest_set():
    # at 1e17 the transfer cost 4 is below half an ulp. With equal rates a step from server 2
    # runs no creation pass toward server 1, so only {2} ends finite; row 0, the per-step
    # scratch row, ends equal to it, and the walk never starts from row 0
    inst = R.Instance.build([1.0, 1.0], 4.0, 2, [(1.0000000000000003e17, 2)])
    sol = R.opt_full(inst)
    assert (sol.opt_cost, sol.schedule) == reference_schedule(inst, False)
    assert [copy.server for copy in sol.schedule.copies] == [2]
    assert sol.schedule.transfers == ()
    # with server 1 cheaper, {1}, {2} and {1, 2} tie, and the walk starts from {1}:
    # move the copy to server 1 at once and serve the request from there
    inst = R.Instance.build([1.0, 2.0], 4.0, 2, [(1.0000000000000003e17, 2)])
    sol = R.opt_full(inst)
    assert (sol.opt_cost, sol.schedule) == reference_schedule(inst, False)
    t = inst.requests[0].time
    assert sol.schedule.transfers == (R.Transfer(0.0, 2, 1, "create_copy"), R.Transfer(t, 1, 2, "serve_request"))


def _trace_prefix_instance(rate_set: str, lam: float, m: int) -> R.Instance:
    times = R.gen_poisson_trace(42, 11_683, 50.0)[:m]
    return R.Instance.build(R.RATE_SETS[rate_set], lam, 1, R.assign_servers(times, 10, 42))


def test_reconstructed_schedules_equal_the_came_from_reference_on_a_trace_prefix():
    for rate_set in ("set1", "set2", "set4"):  # set1 has equal rates, so ties abound; set2 has one tie
        for lam in (50.0, 1200.0):
            inst = _trace_prefix_instance(rate_set, lam, 800)
            sol = R.opt_full(inst)
            # the masked reference reaches the same schedule here, though the law only promises the optimum
            for restricted in (False, True):
                assert (sol.opt_cost, sol.schedule) == reference_schedule(inst, restricted), (rate_set, lam, restricted)


def _row_map_instances(n: int):
    """Seeded instances on ``n`` servers: equal, tied and distinct rates, every initial server, 1 to 8 requests.

    Gaps and transfer costs are multiples of 1/4, so distinct schedules often cost exactly the same.
    """
    rng = np.random.default_rng([n, 28])
    for kind in ("equal", "tied", "distinct"):
        if kind == "equal":
            rates = [1.5] * n
        elif kind == "tied":
            rates = sorted(rng.choice([0.5, 1.0, 2.0], n).tolist())
        else:
            rates = sorted(((rng.permutation(64)[:n] + 1) / 4).tolist())
        for initial in range(1, n + 1):
            m = int(rng.integers(1, 9))
            times = np.cumsum(rng.integers(1, 12, m) / 4).tolist()
            servers = rng.integers(1, n + 1, m).tolist()
            yield R.Instance.build(rates, int(rng.integers(1, 16)) / 4, initial, list(zip(times, servers)))


@pytest.mark.parametrize("n", range(1, 13))
def test_every_table_row_map_equals_the_plain_layout_references(n):
    # the table puts server 1 on its top bit and server 2 on bit 0; the references keep server b + 1 on bit b
    for inst in _row_map_instances(n):
        lams = [inst.transfer_cost, 0.25, 3.0, inst.transfer_cost * 2, 0.75]
        expected = full_prefix_optima(inst, lams)
        for cols in (1, 2, 5):
            assert R.opt_costs(inst, lams[:cols]) == tuple(expected[-1, :cols].tolist()), (inst, cols)
        sol = R.opt_full(inst)
        assert sol.prefix_costs == tuple(expected[:, 0].tolist()), inst
        assert (sol.opt_cost, sol.schedule) == reference_schedule(inst, restricted=False), inst


def test_reconstruction_memory_is_the_move_record_plus_a_fixed_slack():
    # per step, one move bit per creation pass and destination entry, n 2^(n - 1)
    # bits, and one byte for the cheapest singleton
    inst = _trace_prefix_instance("set4", 400.0, 2000)
    n = inst.n
    record = (inst.m + 1) * (n * 2 ** (n - 1) // 8 + 1)
    R.opt_full(inst)  # first-call allocations are not the oracle's
    tracemalloc.start()
    try:
        R.opt_full(inst)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= record + (1 << 20), (peak, record)


def test_full_oracle_serves_from_a_pricey_sole_holder_and_drops_it_at_once():
    # the sole copy sits at server 2 (twice the cheapest rate) when server 3
    # asks; moving it to server 3 earlier or keeping server 1 both cost more
    inst = R.Instance.build([1.0, 2.0, 8.0], 1.0, 1, [(0.4, 2), (0.8, 2), (1.2, 2), (1.4, 3), (1.5, 3)])
    sol = R.opt_full(inst)
    assert sol.opt_cost == brute_force_optimum(inst)
    assert R.validate_schedule(sol.schedule) == []
    assert R.validate_offline_structure(sol.schedule) == []
    assert abs(R.compute_cost(sol.schedule).total - sol.opt_cost) <= TOL
    assert R.Transfer(1.4, 2, 3, "serve_request") in sol.schedule.transfers
    assert [(c.start, c.end) for c in sol.schedule.copies if c.server == 2] == [(0.4, 1.4)]


def test_full_oracle_relocates_to_a_cheaper_server_at_a_dear_servers_request():
    # server 2 (rate 10) holds the sole copy and asks at 0.05; the only optimum, 0.5 + 1 + 10,
    # creates a copy at server 1 (rate 1) there and drops server 2. Relocating at time 0 costs
    # 1 + 10.05 + 1, and holding server 2 until server 1 asks costs 0.5 + 100 + 1
    inst = R.Instance.build([1.0, 10.0], 1.0, 2, [(0.05, 2), (10.05, 1)])
    sol = R.opt_full(inst)
    assert sol.opt_cost == brute_force_optimum(inst) == 11.5
    assert R.Transfer(0.05, 2, 1, "create_copy") in sol.schedule.transfers
    assert [(c.server, c.start, c.end) for c in sol.schedule.copies] == [(2, 0.0, 0.05), (1, 0.05, 10.05)]


def test_opt_costs_checks_its_arguments(monkeypatch):
    inst = R.gen_random(seed=3, n=3, m=6)
    assert R.opt_costs(inst, []) == ()
    assert R.opt_costs(inst, [inst.transfer_cost]) == (R.opt_full(inst).opt_cost,)
    with pytest.raises(TypeError):  # opt_costs takes two arguments, so a stale oracle name is never read
        R.opt_costs(inst, [1.0], "restricted")
    for bad in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(R.InstanceFormatError, match="transfer cost"):
            R.opt_costs(inst, [1.0, bad])
    # the budget bounds the work per transfer cost: one estimate fits, the pass's 3x does not
    per_cost = (inst.m + 1) * (inst.n + 1) * 2 ** (inst.n - 1)
    lams = [0.5, 1.0, 2.0]
    expected = tuple(R.opt_full(replace(inst, transfer_cost=lam), reconstruct=False).opt_cost for lam in lams)
    monkeypatch.setattr(offline, "WORK_BUDGET", per_cost)
    assert R.opt_costs(inst, lams) == expected
    monkeypatch.setattr(offline, "WORK_BUDGET", per_cost - 1)
    with pytest.raises(R.BudgetExceeded, match="per transfer cost"):
        R.opt_costs(inst, lams)


def test_reconstruction_is_deterministic():
    inst = R.gen_random(seed=8, n=3, m=10, rate_range=(1.0, 1.0))  # equal rates force ties
    a = R.opt_full(inst)
    b = R.opt_full(inst)
    assert a.schedule == b.schedule
    assert a.opt_cost == b.opt_cost


def test_structure_validator_flags_offschedule_transfer():
    inst = R.Instance.build([1.0, 1.0], 1.0, 1, [(4.0, 2)])
    sched = R.ReplicationSchedule(
        inst,
        (R.CopyInterval(1, 0.0, 4.0, "offline"), R.CopyInterval(2, 2.0, 4.0, "offline")),
        (R.Transfer(2.0, 1, 2, "create_copy"),),
    )
    violations = R.validate_offline_structure(sched)
    assert len(violations) == 1
    assert "coincides with no request" in violations[0].description


def test_structure_validator_flags_transfer_served_close_pair():
    # gap * rate < transfer cost, yet the server does not hold through the gap
    inst = R.Instance.build([1.0, 2.0], 1.0, 1, [(1.0, 2), (1.2, 2)])
    sched = R.ReplicationSchedule(
        inst,
        (
            R.CopyInterval(1, 0.0, 1.2, "offline"),
            R.CopyInterval(2, 1.0, 1.0, "offline"),
            R.CopyInterval(2, 1.2, 1.2, "offline"),
        ),
        (R.Transfer(1.0, 1, 2), R.Transfer(1.2, 1, 2)),
    )
    violations = R.validate_offline_structure(sched)
    assert len(violations) == 1
    assert "does not hold a copy through" in violations[0].description


def _far_pair_schedule(created: R.CopyInterval) -> R.ReplicationSchedule:
    """Equal rates, lambda 1, requests at server 2 (t=1) and server 3 (t=2); server 1 holds throughout.

    At step 0 servers 1 (no next request) and 3 (next request 2 away) are
    far and server 2 (1 away, a rounding tie) is near; at step 1 servers 1
    and 2 are far. ``created`` is the one copy made at t=0 or t=2.
    """
    inst = R.Instance.build([1.0, 1.0, 1.0], 1.0, 1, [(1.0, 2), (2.0, 3)])
    copies = [R.CopyInterval(1, 0.0, 2.0, "offline"), R.CopyInterval(2, 1.0, 1.0, "offline"), created]
    transfers = [R.Transfer(1.0, 1, 2), R.Transfer(created.start, 1, created.server, "create_copy")]
    if created.server != 3:
        copies.append(R.CopyInterval(3, 2.0, 2.0, "offline"))
        transfers.append(R.Transfer(2.0, 1, 3))
    schedule = R.ReplicationSchedule(inst, tuple(copies), tuple(transfers))
    assert R.validate_schedule(schedule) == []
    return schedule


def test_structure_validator_flags_two_far_holders_through_a_gap():
    # server 3 is created at 0 and kept until its request, next to the far copy at server 1
    violations = R.validate_offline_structure(_far_pair_schedule(R.CopyInterval(3, 0.0, 2.0, "offline")))
    message = "request 0: far servers 1, 3 each hold a copy through (0, 1) although one far holder suffices"
    assert violations == [R.Violation(0.0, message)]


def test_structure_validator_passes_one_far_holder_among_near_ones():
    # server 2 is near at step 0, so holding it next to the far server 1 keeps the law
    assert R.validate_offline_structure(_far_pair_schedule(R.CopyInterval(2, 0.0, 1.0, "offline"))) == []


def test_structure_validator_passes_two_far_holders_after_the_last_request():
    # servers 1 and 2 are both far and both hold at t=2, but no gap follows the last request
    assert R.validate_offline_structure(_far_pair_schedule(R.CopyInterval(2, 2.0, 2.0, "offline"))) == []


def test_zero_request_instance():
    inst = R.Instance.build([1.0, 2.0], 1.0, 2, [])
    sol = R.opt_full(inst)
    assert sol.opt_cost == 0.0
    assert R.validate_schedule(sol.schedule) == []


def test_reconstruction_when_initial_copy_dropped_at_time_zero():
    # relocating away from the initial server immediately is optimal here;
    # the momentary initial copy must still appear in the schedule
    inst = R.Instance.build([1.0, 10.0], 1.0, 2, [(10.0, 1)])
    sol = R.opt_full(inst)
    assert abs(sol.opt_cost - (1.0 + 10.0)) <= TOL
    assert R.validate_schedule(sol.schedule) == []
    initial = [c for c in sol.schedule.copies if c.server == 2]
    assert initial == [R.CopyInterval(2, 0.0, 0.0, "offline")]


def test_oracles_valid_across_initial_servers():
    for k in range(120):
        n = 2 + k % 4
        inst = R.gen_random(seed=880_000 + k, n=n, m=1 + k % 10, initial_server=1 + k % n)
        full = R.opt_full(inst)
        restr = reference_schedule(inst, restricted=True)
        assert abs(full.opt_cost - restr[0]) <= 1e-9, k
        for opt, schedule in ((full.opt_cost, full.schedule), restr):
            assert abs(R.compute_cost(schedule).total - opt) <= 1e-9, k
            assert R.validate_schedule(schedule) == [], k
            assert R.validate_offline_structure(schedule) == [], k
