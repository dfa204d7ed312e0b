"""Core model: instance parsing, schedule validity, exact cost engine."""

from __future__ import annotations

import math
from dataclasses import replace

import pytest

import repsim as R
from conftest import BAD_DOCUMENTS, dumb_schedule_cost

TOL = 1e-9


def test_rate_ratio_all_equal():
    inst = R.Instance.build([1.0, 1.0, 1.0], 1.0, 1, [])
    assert R.max_min_rate_ratio(inst) == 1.0


def test_rate_ratio_set3():
    inst = R.Instance.build([1, 1.1, 1.2, 1.5, 1.6, 2.1, 2.3, 2.7, 3.1, 4], 1.0, 1, [])
    assert R.max_min_rate_ratio(inst) == 4.0


def test_rate_ratio_two_servers():
    inst = R.Instance.build([2.0, 5.0], 1.0, 1, [])
    assert R.max_min_rate_ratio(inst) == 2.5
    assert R.competitive_bound(inst) == 2.5


def test_compute_cost_single_interval():
    inst = R.Instance.build([1.0], 1.0, 1, [(10.0, 1)])
    sched = R.ReplicationSchedule(inst, (R.CopyInterval(1, 0.0, 10.0),), ())
    assert abs(R.compute_cost(sched, 10.0).total - 10.0) <= TOL


def test_compute_cost_tight1_optimal_schedule():
    # copy at server 1 over [0, 1.01] plus the one serving transfer: 2.01
    eps = 0.01
    t1 = (1 - 1 / 1.5) + eps
    inst = R.Instance.build([1.0, 1.5], 1.0, 1, [(t1, 2), (1 + eps, 1)])
    sched = R.ReplicationSchedule(
        inst,
        (R.CopyInterval(1, 0.0, 1 + eps), R.CopyInterval(2, t1, t1)),
        (R.Transfer(t1, 1, 2),),
    )
    cost = R.compute_cost(sched, 1 + eps)
    assert abs(cost.total - 2.01) <= TOL
    assert not R.validate_schedule(sched)


def test_compute_cost_against_independent_resum():
    inst = R.Instance.build([1.0, 10.0], 1.0, 2, [(10.0, 2)])
    sched = R.ReplicationSchedule(
        inst,
        (R.CopyInterval(2, 0.0, 10.0),),
        (R.Transfer(3.0, 2, 1), R.Transfer(5.0, 2, 1)),
    )
    got = R.compute_cost(sched, 10.0)
    assert abs(got.total - 102.0) <= TOL
    assert abs(got.total - dumb_schedule_cost(sched, 10.0)) <= TOL


def test_compute_cost_negative_horizon_rejected():
    inst = R.Instance.build([1.0], 1.0, 1, [])
    sched = R.ReplicationSchedule(inst, (R.CopyInterval(1, 0.0, 1.0),), ())
    with pytest.raises(ValueError):
        R.compute_cost(sched, -1.0)


def test_compute_cost_monotone_and_additive():
    res = R.gen_tight(2, mu2=2.5, lam=1.0, epsilon=0.01, tau=3.0)
    run, _ = R.simulate("alg1", res.instance)
    horizon = res.instance.horizon
    prev = -1.0
    for k in range(11):
        h = horizon * k / 10
        total = R.compute_cost(run.schedule, h).total
        assert total >= prev - TOL
        prev = total
    cost = R.compute_cost(run.schedule, horizon)
    per_server = sum(cost.per_server_storage.values())
    assert abs(cost.total - (per_server + res.instance.transfer_cost * cost.transfer_count)) <= TOL


def test_validate_trivially_feasible():
    inst = R.Instance.build([1.0], 1.0, 1, [(3.0, 1), (5.0, 1)])
    sched = R.ReplicationSchedule(inst, (R.CopyInterval(1, 0.0, 5.0),), ())
    assert R.validate_schedule(sched) == []


def test_validate_coverage_gap():
    inst = R.Instance.build([1.0, 1.0], 1.0, 1, [(8.0, 2)])
    sched = R.ReplicationSchedule(
        inst,
        (R.CopyInterval(1, 0.0, 5.0), R.CopyInterval(2, 7.0, 9.0)),
        (R.Transfer(7.0, 1, 2),),
    )
    violations = R.validate_schedule(sched)
    gaps = [v for v in violations if "coverage gap" in v.description]
    assert len(gaps) == 1
    assert "(5, 7)" in gaps[0].description
    # the transfer at t=7 is also unsourced since server 1 held nothing then,
    # but the request itself is served
    assert not any("unserved" in v.description for v in violations)


def test_validate_unsourced_copy():
    inst = R.Instance.build([1.0, 1.0], 1.0, 1, [(4.0, 2)])
    sched = R.ReplicationSchedule(
        inst,
        (R.CopyInterval(1, 0.0, 9.0), R.CopyInterval(2, 3.0, 9.0)),
        (),
    )
    violations = R.validate_schedule(sched)
    assert len(violations) == 1
    assert "unsourced copy" in violations[0].description


def test_validate_unserved_request():
    inst = R.Instance.build([1.0, 1.0], 1.0, 1, [(4.0, 2)])
    sched = R.ReplicationSchedule(inst, (R.CopyInterval(1, 0.0, 9.0),), ())
    violations = R.validate_schedule(sched)
    assert any("unserved" in v.description for v in violations)


def _bad_records(t: float):
    """(field, record, message): one faulty record at time ``t`` per check, with the schedule's message."""
    return [
        ("copies", R.CopyInterval(1, t, t - 0.1), f"interval end {t - 0.1} precedes start {t}"),
        ("copies", R.CopyInterval(1, t, t - 2 * TOL), f"interval end {t - 2 * TOL} precedes start {t}"),
        ("copies", R.CopyInterval(1, t, t + 1.0, "spare"), "unknown copy kind 'spare'"),
        ("transfers", R.Transfer(t, 2, 2), "transfer source and destination must differ"),
    ]


@pytest.mark.parametrize("first", [True, False], ids=["first", "last"])
def test_schedule_checks_its_record_fields(first):
    # valid records over [10, 20]; the faulty one comes first or last, as given and as stored
    inst = R.Instance.build([1.0, 2.0], 1.0, 1, [])
    good = {
        "copies": [R.CopyInterval(1, 10.0, 20.0), R.CopyInterval(2, 12.0, 15.0, "resident_special")],
        "transfers": [R.Transfer(12.0, 1, 2), R.Transfer(15.0, 2, 1, "create_copy")],
    }
    R.ReplicationSchedule(inst, **good)
    for field, record, message in _bad_records(1.0 if first else 30.0):
        records = dict(good, **{field: [record, *good[field]] if first else [*good[field], record]})
        with pytest.raises(ValueError) as err:
            R.ReplicationSchedule(inst, **records)
        assert str(err.value) == message
    # an end within TOL before the start is rounding, not an error
    sched = R.ReplicationSchedule(inst, [R.CopyInterval(1, 5.0, 5.0 - TOL / 2)], [])
    assert sched.copies[0].end == 5.0 - TOL / 2


def test_instance_rejects_bad_data():
    with pytest.raises(R.InstanceFormatError):
        R.Instance.build([2.0, 1.0], 1.0, 1, [])  # descending rates
    with pytest.raises(R.InstanceFormatError):
        R.Instance.build([1.0], 0.0, 1, [])  # nonpositive transfer cost
    with pytest.raises(R.InstanceFormatError):
        R.Instance.build([1.0], 1.0, 2, [])  # bad initial server
    with pytest.raises(R.InstanceFormatError):
        R.Instance.build([1.0], 1.0, 1, [(0.0, 1)])  # time 0 reserved
    with pytest.raises(R.InstanceFormatError):
        R.Instance.build([1.0], 1.0, 1, [(1.0, 1), (1.0, 1)])  # tied times
    nan, inf = math.nan, math.inf
    for rates, lam, initial, requests in (
        ([1.0, nan], 1.0, 1, []),
        ([1.0, inf], 1.0, 1, []),
        ([1.0], nan, 1, []),
        ([1.0], inf, 1, []),
        ([1.0], 1.0, 1, [(nan, 1)]),
        ([1.0], 1.0, 1, [(1.0, 1), (inf, 1)]),
        ([1.0, 2.0], 1.0, 1, [(1.0, 1.9)]),  # non-integer server, not truncated
        ([1.0, 2.0], 1.0, 1.7, []),
    ):
        with pytest.raises(R.InstanceFormatError):
            R.Instance.build(rates, lam, initial, requests)


def test_instance_build_keeps_integral_servers():
    inst = R.Instance.build([1.0, 2.0], 1.0, 2.0, [(1.0, 2.0)])
    assert inst.initial_server == 2 and type(inst.initial_server) is int
    assert inst.requests[0].server == 2 and type(inst.requests[0].server) is int


def test_with_transfer_cost_shares_the_checked_requests():
    inst = R.Instance.build([1.0, 2.0], 1.0, 2, [(1.0, 1), (2.5, 2)])
    moved = inst.with_transfer_cost(7.5)
    assert moved == replace(inst, transfer_cost=7.5)
    assert moved.requests is inst.requests and moved.servers is inst.servers
    assert inst.transfer_cost == 1.0
    for cost in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(R.InstanceFormatError) as built:
            R.Instance(inst.servers, cost, inst.initial_server, inst.requests)
        with pytest.raises(R.InstanceFormatError) as err:
            inst.with_transfer_cost(cost)
        assert str(err.value) == str(built.value) == f"transfer cost must be finite and strictly positive, got {cost}"


@pytest.mark.parametrize(
    "initial, requests, message",
    [
        (1, (R.Request(1, 0.5, True),), "requests[0]: server True is not an integer in 1..2"),
        (True, (), "initial server True is not an integer in 1..2"),
    ],
    ids=["request-server", "initial-server"],
)
def test_instance_rejects_a_bool_server(initial, requests, message):
    servers = R.Instance.build([1.0, 2.0], 1.0, 1).servers
    with pytest.raises(R.InstanceFormatError) as err:
        R.Instance(servers, 1.0, initial, requests)
    assert str(err.value) == message


TIED_OR_OUT_OF_ORDER = "(tied or out-of-order timestamps are rejected)"


@pytest.mark.parametrize(
    "requests, message",
    [
        ([(5.0, 2), (3.0, 2)], f"requests[1]: time 3.0 does not strictly increase past 5.0 {TIED_OR_OUT_OF_ORDER}"),
        ([(5.0, 1), (5.0, 1)], f"requests[1]: time 5.0 does not strictly increase past 5.0 {TIED_OR_OUT_OF_ORDER}"),
        ([(5.0, 1), (6.0, 3)], "requests[1]: server 3 is not an integer in 1..2"),
        ([(5.0, 1), (6.0, 2.0)], "requests[1]: server 2.0 is not an integer in 1..2"),
        ([(5.0, True)], "requests[0]: server True is not an integer in 1..2"),
    ],
    ids=["earlier", "tied", "no-such-server", "float-server", "bool-server"],
)
def test_instance_rejects_a_bad_request(requests, message):
    # the instance is the one check of a request: a simulation serves exactly
    # its instance's requests; ``Request`` is used directly, since ``build``
    # turns 2.0 and True into ints
    servers = R.Instance.build([1.0, 2.0], 1.0, 1).servers
    reqs = tuple(R.Request(j + 1, t, s) for j, (t, s) in enumerate(requests))
    with pytest.raises(R.InstanceFormatError) as err:
        R.Instance(servers, 1.0, 1, reqs)
    assert str(err.value) == message


@pytest.mark.parametrize(
    "servers, requests, message",
    [
        ((), (), "instance needs at least one server"),
        ((R.Server(2, 1.0),), (), "server indices must be 1..n in order, got 2 at position 1"),
        ((R.Server(1, 1.0),), (R.Request(2, 1.0, 1),), "requests[0]: index must be 1, got 2"),
    ],
    ids=["no-server", "server-index", "request-index"],
)
def test_instance_refuses_bad_indices_by_name(servers, requests, message):
    # ``build`` numbers servers and requests itself, so the records are passed directly
    with pytest.raises(R.InstanceFormatError) as err:
        R.Instance(servers, 1.0, 1, requests)
    assert str(err.value) == message


def test_json_round_trip():
    inst = R.Instance.build([1.0, 2.5], 0.75, 2, [(0.5, 1), (1.25, 2)])
    text = R.dumps_instance(inst)
    back = R.loads_instance(text)
    assert back == inst


def test_parser_reports_offending_request_line():
    inst = R.Instance.build([1.0, 2.0], 1.0, 1, [(1.0, 2), (2.0, 1)])
    text = R.dumps_instance(inst)
    bad = text.replace('{"t": 2.0, "s": 1}', '{"t": 0.5, "s": 1}')
    with pytest.raises(R.InstanceFormatError) as err:
        R.loads_instance(bad, path="inst.json")
    assert "requests[1]" in str(err.value)
    assert "inst.json:line 7" in str(err.value)


def test_parser_rejects_descending_rates_and_bad_json():
    with pytest.raises(R.InstanceFormatError) as err:
        R.loads_instance('{"lambda": 1, "initial_server": 1, "rates": [2, 1], "requests": []}')
    assert "ascending" in str(err.value)
    with pytest.raises(R.InstanceFormatError) as err:
        R.loads_instance('{"lambda": 1,,}', path="broken.json")
    assert "broken.json:line 1" in str(err.value)


@pytest.mark.parametrize("case", sorted(BAD_DOCUMENTS))
def test_parser_rejects_bad_values(case):
    text, expected = BAD_DOCUMENTS[case]
    with pytest.raises(R.InstanceFormatError) as err:
        R.loads_instance(text, path="bad.json")
    assert str(err.value).startswith("bad.json")
    assert expected in str(err.value)


def test_parser_locates_lines_only_on_error(monkeypatch):
    # the trace-scale instance: 11,683 Poisson requests over 10 servers
    times = R.gen_poisson_trace(42, 11_683, 50.0)
    inst = R.Instance.build(R.RATE_SETS["set3"], 200.0, 1, R.assign_servers(times, 10, 42))
    text = R.dumps_instance(inst)
    calls = []
    locate = R.model._request_line
    monkeypatch.setattr(R.model, "_request_line", lambda text, k: calls.append(k) or locate(text, k))
    assert R.loads_instance(text) == inst
    assert calls == []
    last = inst.requests[-1]
    bad = text.replace(f'{{"t": {last.time!r}, "s": {last.server}}}', f'{{"t": NaN, "s": {last.server}}}')
    with pytest.raises(R.InstanceFormatError) as err:
        R.loads_instance(bad, path="trace.json")
    assert calls == [11_682]
    line = bad.splitlines().index(f'    {{"t": NaN, "s": {last.server}}}') + 1
    assert f"trace.json:line {line}: requests[11682]: time nan" in str(err.value)


def test_dummy_request_materialized():
    inst = R.Instance.build([1.0, 2.0], 1.0, 2, [(1.0, 1)])
    assert inst.dummy.index == 0
    assert inst.dummy.time == 0.0
    assert inst.dummy.server == 2
    assert inst.horizon == 1.0
    assert R.Instance.build([1.0], 1.0, 1, []).horizon == 0.0
