"""The schedule validators against their quadratic references, from tiny to trace scale.

Every schedule here is checked twice: by the program's forward-walk
validators and by the direct scans kept in ``reference_validators``. The two
must return equal lists, in the same order. The mutations shift times by
fractions and multiples of TOL, also at trace-scale magnitudes (offset 6e5,
where TOL is a few ulps), so that the walks are exercised at the
tolerance's edges.
"""

from __future__ import annotations

import math
import random
from dataclasses import replace

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import reference_validators as ref
import repsim as R
from conftest import fig3_instance, instances
from reference_oracle import reference_schedule
from repsim.model import KIND_REGULAR, KIND_RELOCATED_SPECIAL, KIND_RESIDENT_SPECIAL, SPECIAL_KINDS, TOL, _holding_spans

# Each violation kind, by a phrase of its message.
KINDS = {
    "gap": "coverage gap",
    "unserved": "unserved",
    "unsourced": "unsourced copy",
    "off-request": "coincides with no request time",
    "not-held": "does not hold a copy through",
    "far-pair": "one far holder suffices",
}
SHIFTS = (TOL / 2, -TOL / 2, 3 * TOL, -3 * TOL)
POLICIES = ("alg1", "wang", "simple")


def _schedules(inst: R.Instance) -> list[R.ReplicationSchedule]:
    """Every policy's run, the oracle's reconstruction and the masked reference's schedule of ``inst``."""
    out = [R.simulate(name, inst)[0].schedule for name in POLICIES]
    return out + [R.opt_full(inst).schedule, reference_schedule(inst, restricted=True)[1]]


def _with(schedule, copies=None, transfers=None) -> R.ReplicationSchedule:
    return replace(
        schedule,
        copies=schedule.copies if copies is None else tuple(copies),
        transfers=schedule.transfers if transfers is None else tuple(transfers),
    )


def _mutations(schedule: R.ReplicationSchedule):
    """(label, schedule) for every single-element mutation of ``schedule``.

    A mutation that the schedule rejects (a copy ending before it starts) is skipped.
    """
    copies, transfers = list(schedule.copies), list(schedule.transfers)
    for k, tr in enumerate(transfers):
        yield "drop transfer", _with(schedule, transfers=transfers[:k] + transfers[k + 1 :])
        # 1e-3 is far beyond TOL: off every request time unless another lies that close
        moved = [("move transfer", 1e-3)] + [("shift transfer", d) for d in SHIFTS]
        for label, d in moved:
            yield label, _with(schedule, transfers=transfers[:k] + [tr._replace(time=tr.time + d)] + transfers[k + 1 :])
    for k, c in enumerate(copies):
        rest = copies[:k] + copies[k + 1 :]
        yield "drop copy", _with(schedule, copies=rest)
        changed = [("shorten copy", c.start, (c.start + c.end) / 2)]
        changed += [("shift end", c.start, c.end + d) for d in SHIFTS]
        changed += [("shift start", c.start + d, c.end) for d in SHIFTS]
        for label, start, end in changed:
            try:
                mutated = _with(schedule, copies=copies[:k] + [c._replace(start=start, end=end)] + copies[k + 1 :])
            except ValueError:
                continue
            yield label, mutated


def _kinds(violations: list[R.Violation]) -> set[str]:
    return {kind for kind, phrase in KINDS.items() if any(phrase in v.description for v in violations)}


def _check_against_reference(schedule: R.ReplicationSchedule) -> set[str]:
    """Assert the validators equal their references on ``schedule``; returns the violation kinds."""
    found = R.validate_schedule(schedule)
    assert found == ref.validate_schedule(schedule)
    structure = R.validate_offline_structure(schedule)
    assert structure == ref.validate_offline_structure(schedule)
    return _kinds(found + structure)


def _check_span_contract(schedule: R.ReplicationSchedule) -> None:
    spans = _holding_spans(schedule)
    assert {s.index for s in schedule.instance.servers} <= spans.keys()
    strict = all(c.end >= c.start for c in schedule.copies)
    for server, lst in spans.items():
        for (a0, b0), (a1, b1) in zip(lst, lst[1:]):
            assert a0 <= a1
            assert a1 > b0 + TOL
            assert b1 > b0 if strict else b1 >= b0
        for c in schedule.copies:
            if c.server == server:
                assert sum(a <= c.start and c.end <= b for a, b in lst) == 1


@given(instances(), st.sampled_from([0.0, 6e5]), st.randoms(use_true_random=False))
def test_validators_agree_with_reference_on_mutated_schedules(inst, offset, rnd):
    if offset:
        # near 6e5 TOL is a few ulps
        requests = [(r.time + offset, r.server) for r in inst.requests]
        inst = R.Instance.build([s.rate for s in inst.servers], inst.transfer_cost, inst.initial_server, requests)
    for schedule in _schedules(inst):
        assert R.validate_schedule(schedule) == []
        _check_against_reference(schedule)
        _check_span_contract(schedule)
        mutations = list(_mutations(schedule))
        for _label, mutated in rnd.sample(mutations, min(len(mutations), 30)):
            _check_against_reference(mutated)
            _check_span_contract(mutated)


def test_mutations_produce_every_violation_kind():
    seen: dict[str, set[str]] = {}
    cases = [fig3_instance()] + [R.gen_random(seed, n=1 + seed % 4, m=2 + seed % 9) for seed in range(30)]
    for inst in cases:
        for schedule in _schedules(inst):
            for label, mutated in _mutations(schedule):
                seen.setdefault(label, set()).update(_check_against_reference(mutated))
    assert {"unsourced"} <= seen["drop transfer"]
    assert {"off-request"} <= seen["move transfer"]
    assert {"gap", "unserved", "not-held"} <= seen["drop copy"]
    assert {"gap", "unserved", "not-held"} <= seen["shorten copy"]
    assert {"unsourced", "off-request"} <= seen["shift transfer"]
    assert set().union(*seen.values()) == set(KINDS)


def test_validators_at_tolerance_edges():
    # server 1 holds [0, 1] and again from 1.5 TOL later; the request at 1 + 0.8 TOL
    # is still served, and held through from 0.5, by the first span
    inst = R.Instance.build([1.0, 2.0], 10.0, 1, [(0.5, 1), (1 + 0.8 * TOL, 1), (3.0, 2)])
    copies = (R.CopyInterval(1, 0.0, 1.0), R.CopyInterval(1, 1 + 1.5 * TOL, 5.0), R.CopyInterval(2, 3.0, 5.0))
    transfers = (R.Transfer(1 + 1.5 * TOL, 2, 1), R.Transfer(3.0 - 0.8 * TOL, 1, 2))
    schedule = R.ReplicationSchedule(inst, copies, transfers)
    assert _check_against_reference(schedule) == {"gap"}
    assert [v.time for v in R.validate_schedule(schedule)] == [1.0]
    assert R.validate_offline_structure(schedule) == []


def _far_pair_steps(violations: list[R.Violation]) -> list[str]:
    """The "request i" that opens each one-far-holder violation."""
    return [v.description.split(":")[0] for v in violations if KINDS["far-pair"] in v.description]


def test_validators_at_exact_tolerance_edges():
    # the times are computed as the validators compute their bounds, so the span [2, 6] at
    # server 2 starts by t0 and lasts through t1 with equality at both edges
    t0, t1 = 2.0 - TOL, 6.0 + TOL
    inst = R.Instance.build([1.0, 2.0], 1.0, 1, [(t0, 2), (t1, 1)])
    copies = (R.CopyInterval(1, 0.0, 30.0), R.CopyInterval(2, 2.0, 6.0))
    schedule = R.ReplicationSchedule(inst, copies, (R.Transfer(2.0, 1, 2),))
    assert R.validate_schedule(schedule) == ref.validate_schedule(schedule) == []
    found = R.validate_offline_structure(schedule)
    assert found == ref.validate_offline_structure(schedule)
    # both servers are far at step 1 (no request at 2 follows; 1's comes after 4 time units)
    assert _far_pair_steps(found) == ["request 1"]


def test_far_holder_sweep_names_a_server_in_the_tol_band_once():
    # server 1 holds [0, 10] and again from 10 + 1.5 TOL; both spans hold through the step
    # from 10 + 0.6 TOL to 10 + 0.9 TOL, whose requests at server 3 lie inside that band
    t0, t1 = 10 + 0.6 * TOL, 10 + 0.9 * TOL
    inst = R.Instance.build([1.0, 2.0, 3.0], 1.0, 1, [(t0, 3), (t1, 3), (50.0, 2)])
    band = [R.CopyInterval(1, 0.0, 10.0), R.CopyInterval(1, 10 + 1.5 * TOL, 100.0), R.CopyInterval(3, t0, t1)]
    transfers = [R.Transfer(t0, 1, 3), R.Transfer(10 + 1.5 * TOL, 3, 1)]
    step = f"({t0:g}, {t1:g}) although one far holder suffices"
    # servers 1 and 2 are far there (no request at 1 follows, the next one at 2 comes at 50); 3 is near
    alone = R.ReplicationSchedule(inst, band, transfers)
    found = R.validate_offline_structure(alone)
    assert found == ref.validate_offline_structure(alone)
    assert not [v for v in found if step in v.description]
    # a second far holder through the gap: the violation names server 1 once
    paired = R.ReplicationSchedule(inst, band + [R.CopyInterval(2, 0.0, 100.0)], transfers + [R.Transfer(0.0, 1, 2)])
    found = R.validate_offline_structure(paired)
    assert found == ref.validate_offline_structure(paired)
    expected = f"request 1: far servers 1, 2 each hold a copy through {step}"
    assert [v.description for v in found if step in v.description] == [expected]


@pytest.mark.parametrize("requester", [1, 2])
def test_far_tie_is_near_and_one_ulp_above_is_far(requester):
    # server 1 holds through the gap from step 1 and is never requested again, so it is far;
    # server 2 holds through it too, and storing there until its next request costs exactly
    # the transfer plus TOL in floats (near), or one ulp of that request time more (far)
    rate, t0, bar = 1.5, 0.7, 1.0 + TOL  # the tying gap is one ulp off bar / rate
    tie = t0 + bar / rate
    while rate * (tie - t0) > bar:
        tie = math.nextafter(tie, -math.inf)
    while rate * (tie - t0) < bar:
        tie = math.nextafter(tie, math.inf)
    above = math.nextafter(tie, math.inf)
    assert rate * (tie - t0) == bar < rate * (above - t0)
    found = {}
    for label, t1 in (("tie", tie), ("above", above)):
        inst = R.Instance.build([1.0, rate], 1.0, 1, [(t0, requester), (t1, 2)])
        copies = (R.CopyInterval(1, 0.0, 10.0), R.CopyInterval(2, t0, 10.0))
        schedule = R.ReplicationSchedule(inst, copies, (R.Transfer(t0, 1, 2),))
        assert R.validate_schedule(schedule) == []
        found[label] = R.validate_offline_structure(schedule)
        assert found[label] == ref.validate_offline_structure(schedule)
    assert found["tie"] == []
    assert [v.description for v in found["above"]] == [
        f"request 1: far servers 1, 2 each hold a copy through ({t0:g}, {above:g}) although one far holder suffices"
    ]


def _run(schedule: R.ReplicationSchedule) -> R.AnnotatedRun:
    return R.AnnotatedRun(schedule, (), "alg1")


@st.composite
def threshold_instances(draw) -> R.Instance:
    """Ten servers with the rates of set3 or set4, so runs relocate copies."""
    rates = R.RATE_SETS[draw(st.sampled_from(["set3", "set4"]))]
    mean_gap = draw(st.sampled_from([0.5, 5.0]))
    times = R.gen_poisson_trace(draw(st.integers(0, 10_000)), draw(st.integers(1, 60)), mean_gap)
    lam = draw(st.sampled_from([1.0, 4.0, 20.0]))
    return R.Instance.build(rates, lam, draw(st.integers(1, 10)), R.assign_servers(times, 10, draw(st.integers(0, 99))))


@given(threshold_instances())
@example(R.Instance.build([1000.0, 3000.000000002], 1.0, 2, [(1.0, 2)]))  # relocates: 3000.000000002 > 3 x 1000 + TOL
def test_special_copy_check_agrees_with_reference(inst):
    run, _ = R.simulate("alg1", inst)
    assert R.special_copy_problems(run) == ref.special_copy_problems(run) == []
    copies = list(run.schedule.copies)
    for k, c in enumerate(copies):
        other = KIND_REGULAR if c.kind in SPECIAL_KINDS else KIND_RELOCATED_SPECIAL
        variants = [c._replace(kind=other), c._replace(end=c.end + 1.0)]
        variants += [c._replace(end=c.end + d) for d in SHIFTS if c.end + d >= c.start - TOL]
        for moved in variants:
            mutated = _run(_with(run.schedule, copies=copies[:k] + [moved] + copies[k + 1 :]))
            assert R.special_copy_problems(mutated) == ref.special_copy_problems(mutated)


def _shuffled(schedule: R.ReplicationSchedule, rnd: random.Random) -> R.ReplicationSchedule:
    """``schedule`` rebuilt from its records in a random order."""
    copies, transfers = list(schedule.copies), list(schedule.transfers)
    rnd.shuffle(copies)
    rnd.shuffle(transfers)
    return _with(schedule, copies, transfers)


@given(instances(), st.integers(0, 2**32))
def test_validators_are_independent_of_record_order(inst, seed):
    rnd = random.Random(seed)  # not st.randoms: Hypothesis would record every draw of every shuffle
    for schedule in _schedules(inst):
        assert _shuffled(schedule, rnd) == schedule
        mutations = [mutated for _label, mutated in _mutations(schedule)]
        for mutated in rnd.sample(mutations, min(len(mutations), 20)):
            shuffled = _shuffled(mutated, rnd)
            assert R.validate_schedule(shuffled) == R.validate_schedule(mutated)
            assert R.validate_offline_structure(shuffled) == R.validate_offline_structure(mutated)
            assert R.special_copy_problems(_run(shuffled)) == R.special_copy_problems(_run(mutated))


@given(threshold_instances(), st.integers(0, 2**32))
def test_special_copy_check_is_independent_of_record_order(inst, seed):
    rnd = random.Random(seed)
    schedule = R.simulate("alg1", inst)[0].schedule
    assert _shuffled(schedule, rnd) == schedule
    copies = list(schedule.copies)
    for k in rnd.sample(range(len(copies)), min(len(copies), 10)):
        c = copies[k]
        # a regular copy turned special, or a copy held 1 longer, overlaps its neighbours
        moved = c._replace(kind=KIND_RELOCATED_SPECIAL) if c.kind == KIND_REGULAR else c._replace(end=c.end + 1.0)
        mutated = _with(schedule, copies=copies[:k] + [moved] + copies[k + 1 :])
        assert R.special_copy_problems(_run(_shuffled(mutated, rnd))) == R.special_copy_problems(_run(mutated))


def test_special_copy_check_reports_overlaps_in_reference_order():
    inst = R.Instance.build([1.0, 2.0, 3.0], 1.0, 1, [(1.0, 2), (5.0, 3)])
    res = KIND_RESIDENT_SPECIAL
    rel = KIND_RELOCATED_SPECIAL
    copies = (
        R.CopyInterval(2, 0.0, 3.0),
        R.CopyInterval(1, 2.0, 4.0, res),
        R.CopyInterval(3, 1.0, 6.0),
        R.CopyInterval(1, 0.0, 2.5, rel),
        R.CopyInterval(2, 4.0 - TOL / 2, 5.0, res),  # touches the second copy within TOL: no overlap
        R.CopyInterval(1, 2.0, 4.0, res),  # equal to the second copy
        R.CopyInterval(3, 6.0, 6.0),
        R.CopyInterval(2, 7.0, 8.0, rel),
    )
    run = _run(R.ReplicationSchedule(inst, copies, ()))
    a, b, c, d, e, f, g, h = copies
    assert run.schedule.copies == (d, a, c, b, f, e, g, h)  # by (start, server, end), ties as given
    found = R.special_copy_problems(run)
    assert found == ref.special_copy_problems(run)
    # specials in stored order: d, b, f, e, h; regulars: a, c, g
    assert found == [
        f"special copies overlap: {d} and {b}",
        f"special copies overlap: {d} and {f}",
        f"special copy overlaps a regular copy: {d} and {a}",
        f"special copy overlaps a regular copy: {d} and {c}",
        f"special copies overlap: {b} and {f}",
        f"special copy overlaps a regular copy: {b} and {a}",
        f"special copy overlaps a regular copy: {b} and {c}",
        f"special copy overlaps a regular copy: {f} and {a}",
        f"special copy overlaps a regular copy: {f} and {c}",
        f"special copy overlaps a regular copy: {e} and {c}",
        "relocated copy at non-minimum-rate server 2",
        "relocated copy exists although no rate exceeds 3 x 1 + 1e-9",
    ]


@pytest.fixture(scope="module")
def trace_instance() -> R.Instance:
    """The trace-scale instance: 11,683 Poisson requests over 10 servers, set4, lambda 400."""
    times = R.gen_poisson_trace(42, 11_683, 50.0)
    return R.Instance.build(R.RATE_SETS["set4"], 400.0, 1, R.assign_servers(times, 10, 42))


def _drop_one_transfer(schedule):
    """Drop the first transfer that alone sources a span; returns (schedule, expected violation)."""
    spans = _holding_spans(schedule)
    for k, tr in enumerate(schedule.transfers):
        starts = [a for a, _ in spans[tr.dst] if a == tr.time]
        alone = sum(abs(t.time - tr.time) <= TOL for t in schedule.transfers if t.dst == tr.dst) == 1
        if starts and alone:
            kept = schedule.transfers[:k] + schedule.transfers[k + 1 :]
            message = f"unsourced copy: server {tr.dst} copy starting at t={tr.time:g} has no inbound transfer"
            return _with(schedule, transfers=kept), R.Violation(tr.time, message)
    raise AssertionError("no transfer sources a span on its own")


def _shorten_one_copy(schedule):
    """Cut the copy tail holding exactly one request, with other servers alive through the cut.

    Returns (schedule, expected violation).
    """
    inst = schedule.instance
    copies = list(schedule.copies)
    for k, c in enumerate(copies):
        inside = [r for r in inst.requests if r.server == c.server and c.start < r.time <= c.end]
        if len(inside) < 2:
            continue
        last = inside[-1]
        cut = (inside[-2].time + last.time) / 2
        same_server = [d for i, d in enumerate(copies) if i != k and d.server == c.server]
        clear = all(d.end < cut - TOL or d.start > c.end + TOL for d in same_server)
        covered = any(d.server != c.server and d.start <= cut and d.end >= c.end for d in copies)
        if clear and covered:
            message = f"request {last.index} at t={last.time:g} unserved: server {c.server} holds no copy"
            mutated = _with(schedule, copies=copies[:k] + [c._replace(end=cut)] + copies[k + 1 :])
            return mutated, R.Violation(last.time, message)
    raise AssertionError("no copy tail holds exactly one request")


def test_validators_at_trace_scale(trace_instance):
    for name in POLICIES:
        run, _ = R.simulate(name, trace_instance)
        assert R.validate_schedule(run.schedule) == [], name
    alg1 = R.simulate("alg1", trace_instance)[0].schedule
    no_transfer, unsourced = _drop_one_transfer(alg1)
    assert R.validate_schedule(no_transfer) == [unsourced]
    shortened, unserved = _shorten_one_copy(alg1)
    assert R.validate_schedule(shortened) == [unserved]
    both, _ = _drop_one_transfer(shortened)
    assert R.validate_schedule(both) == [unserved, unsourced]


def _far(inst: R.Instance, i: int) -> list[int]:
    """The servers far at step ``i``, as the reference finds them."""
    events = [(0.0, inst.initial_server)] + [(r.time, r.server) for r in inst.requests]
    t0 = events[i][0]
    nxt = {s.index: min((t for t, x in events[i + 1 :] if x == s.index), default=math.inf) for s in inst.servers}
    return [s.index for s in inst.servers if s.rate * (nxt[s.index] - t0) > inst.transfer_cost + TOL]


def _second_far_holder(schedule, start: int):
    """Add a copy at a second far server through the first gap from step ``start`` on with one far holder.

    The copy is sourced by a transfer from that holder at the gap's start. Returns (schedule, step).
    """
    inst = schedule.instance
    times = [0.0] + [r.time for r in inst.requests]
    spans = _holding_spans(schedule)
    for i in range(start, inst.m):
        far = _far(inst, i)
        holders = [s for s in far if any(a - TOL <= times[i] and times[i + 1] <= b + TOL for a, b in spans[s])]
        if len(holders) == 1 and len(far) > 1:
            other = next(s for s in far if s != holders[0])
            copies = schedule.copies + (R.CopyInterval(other, times[i], times[i + 1]),)
            return _with(schedule, copies, schedule.transfers + (R.Transfer(times[i], holders[0], other),)), i
    raise AssertionError("no gap with one far holder and a second far server")


def test_offline_structure_agrees_with_reference_on_a_trace_prefix(trace_instance):
    # the reference scans every later request per step and server, so a 300-request prefix
    requests = [(r.time, r.server) for r in trace_instance.requests[:300]]
    inst = R.Instance.build([s.rate for s in trace_instance.servers], trace_instance.transfer_cost, 1, requests)
    schedule = R.opt_full(inst).schedule
    assert R.validate_offline_structure(schedule) == ref.validate_offline_structure(schedule) == []
    paired, step = _second_far_holder(schedule, 150)
    found = R.validate_offline_structure(paired)
    assert found == ref.validate_offline_structure(paired)
    assert _far_pair_steps(found) == [f"request {step}"]
    k = len(schedule.transfers) // 2
    tr = schedule.transfers[k]
    moved = schedule.transfers[:k] + (tr._replace(time=tr.time + 1e-3),) + schedule.transfers[k + 1 :]
    both, _ = _second_far_holder(_with(schedule, transfers=moved), 150)
    for mutated in (_with(schedule, transfers=moved), both):
        found = R.validate_offline_structure(mutated)
        assert found == ref.validate_offline_structure(mutated)
        assert f"transfer at t={tr.time + 1e-3:g} coincides with no request time" in [v.description for v in found]
