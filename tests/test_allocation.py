"""Request typing and allocated-cost accounting."""

from __future__ import annotations

import pytest

import repsim as R
from conftest import fig3_instance

TOL = 1e-9


def _alg1_report(instance):
    run, cost = R.simulate("alg1", instance)
    return run, cost, R.classify_and_allocate(run)


def test_fig3_request_categories():
    _, _, report = _alg1_report(fig3_instance())
    categories = {req.index: typ.category for req, typ, _ in report.entries}
    assert categories == {1: 5, 2: 1, 3: 1, 4: 1, 5: 2, 6: 3, 7: 6, 8: 4}


def test_fig3_allocated_costs():
    _, cost, report = _alg1_report(fig3_instance())
    alloc = {req.index: a + report.surcharge_of(req.index) for req, _, a in report.entries}
    expected = {1: 1.5, 2: 2.0, 3: 2.0, 4: 2.0, 5: 3.6, 6: 3.75, 7: 2.8, 8: 0.7}
    for j, want in expected.items():
        assert abs(alloc[j] - want) <= 1e-9, j
    assert abs(report.total_allocated - cost.total) <= 1e-9
    assert abs(report.total_allocated - 18.35) <= 1e-9
    surcharged = {j for j, _ in report.first_request_surcharges}
    assert surcharged == {2, 3, 4}


def test_fig3_providers_and_switch_instants():
    _, _, report = _alg1_report(fig3_instance())
    byidx = {req.index: typ for req, typ, _ in report.entries}
    assert byidx[1].provider == 0 and byidx[1].switch_time == 1.0
    assert byidx[5].provider == 2 and abs(byidx[5].switch_time - 2.7) <= TOL
    assert byidx[6].provider == 5 and abs(byidx[6].switch_time - 3.75) <= TOL
    assert byidx[7].provider == 6 and abs(byidx[7].switch_time - 4.7) <= TOL
    assert byidx[8].provider == 7 and byidx[8].switch_time is None
    # switch instant is always one window after the providing request
    inst = fig3_instance()
    for req, typ, _ in report.entries:
        if typ.switch_time is not None:
            q = inst.all_requests[typ.provider]
            assert abs(typ.switch_time - (q.time + 1.0 / inst.rate(q.server))) <= TOL


def test_window_serve_allocation_row():
    # gap 0.3 at rate 2 allocates 0.6
    inst = R.Instance.build([1.0, 2.0], 1.0, 1, [(5.0, 2), (5.3, 2)])
    _, _, report = _alg1_report(inst)
    (req, typ, alloc) = report.entries[1]
    assert typ.category == 4
    assert abs(alloc - 0.6) <= TOL


def test_served_by_matches_category():
    _, _, report = _alg1_report(fig3_instance())
    for _, typ, _ in report.entries:
        if typ.category in (1, 2, 3):
            assert typ.served_by == "transfer"
        else:
            assert typ.served_by == "local"


def test_request_typings_are_immutable_hashable_rows():
    run, _, report = _alg1_report(fig3_instance())
    typing = report.entries[0][1]
    assert R.RequestTyping._fields == ("index", "category", "provider", "switch_time", "served_by")
    with pytest.raises(AttributeError):
        typing.category = 4
    assert typing == R.RequestTyping(*typing) and hash(typing) == hash(R.RequestTyping(*typing))
    assert len({typ for _, typ, _ in report.entries}) == len(report.entries)
    # each row restates its request's serve record
    for rec, (req, typ, _) in zip(run.serves, report.entries):
        assert req.index == typ.index == rec.index
        assert (typ.provider, typ.switch_time, typ.served_by) == (rec.provider, rec.switch_time, rec.mode)


def test_conservation_on_random_instances():
    for k in range(300):
        inst = R.gen_random(seed=5000 + k, n=1 + k % 5, m=1 + k % 30)
        run, cost = R.simulate("alg1", inst)
        report = R.classify_and_allocate(run)
        assert abs(report.total_allocated - cost.total) <= 1e-9, k
        assert len(report.entries) == inst.m  # every request typed exactly once


def test_dummy_request_not_allocated():
    inst = R.Instance.build([1.0, 2.0], 1.0, 1, [(4.0, 2)])
    _, _, report = _alg1_report(inst)
    assert all(req.index >= 1 for req, _, _ in report.entries)


def test_non_threshold_run_rejected():
    inst = R.Instance.build([1.0, 2.0], 1.0, 1, [(4.0, 2)])
    run, _ = R.simulate("wang", inst)
    with pytest.raises(ValueError):
        R.classify_and_allocate(run)


def test_csv_export_schema():
    _, _, report = _alg1_report(fig3_instance())
    lines = report.to_csv().splitlines()
    assert lines[0] == "j,type,q,t_prime,allocated_cost,surcharge"
    assert len(lines) == 9
    first = lines[1].split(",")
    assert first[0] == "1" and first[1] == "5" and first[2] == "0"


def test_surcharge_pairs_final_server_with_initial_server():
    # all requests at server 2, initial copy at server 1: the first request
    # at server 2 absorbs the trailing window of server 1
    inst = R.Instance.build([1.0, 2.0], 1.0, 1, [(5.0, 2), (9.0, 2)])
    run, cost = _alg1_report(inst)[:2]
    report = R.classify_and_allocate(run)
    assert [j for j, _ in report.first_request_surcharges] == [1]
    assert abs(report.first_request_surcharges[0][1] - 1.0) <= TOL  # full window of server 1
    assert abs(report.total_allocated - cost.total) <= 1e-9


def test_retained_copy_serve_conserves():
    # single remote request served from the initial server's retained copy:
    # allocation = serve transfer + retained storage + trailing-window surcharge
    inst = R.Instance.build([1.0, 5.0], 1.0, 1, [(10.0, 2)])
    run, cost, report = _alg1_report(inst)
    (req, typ, alloc) = report.entries[0]
    assert typ.category == 2
    assert abs(alloc - (2.0 + 9.0 - 1.0)) <= TOL  # serve + storage [1,10]
    assert abs(report.surcharge_of(1) - 1.0) <= TOL
    assert abs(report.total_allocated - 11.0) <= TOL
    assert abs(cost.total - 11.0) <= TOL


def test_first_request_served_locally_from_relocated_copy():
    # the object moves to the cheapest server before any request there; that
    # server's first request is served locally yet still carries a surcharge
    inst = R.Instance.build([1.0, 4.0], 1.0, 2, [(1.0, 1)])
    run, cost, report = _alg1_report(inst)
    (req, typ, alloc) = report.entries[0]
    assert typ.category == 6
    assert abs(alloc - (1.0 + 0.75)) <= TOL  # relocation transfer + storage [0.25, 1]
    assert abs(report.surcharge_of(1) - 1.0) <= TOL  # trailing window at server 2
    assert abs(cost.total - 2.75) <= TOL
    assert abs(report.total_allocated - cost.total) <= 1e-9


def test_surcharge_clipped_at_horizon():
    # server 1's window is still running at the horizon, so the surcharge is
    # the clipped storage, keeping conservation exact
    inst = R.Instance.build([1.0, 2.0], 1.0, 1, [(0.5, 2)])
    run, cost, report = _alg1_report(inst)
    assert [j for j, _ in report.first_request_surcharges] == [1]
    assert abs(report.first_request_surcharges[0][1] - 0.5) <= TOL
    assert abs(report.total_allocated - cost.total) <= 1e-9
