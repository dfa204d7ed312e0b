"""Policy behavior: the three policies, the driver, and run invariants."""

from __future__ import annotations

import gc
import math
import weakref

import pytest
from hypothesis import given
from hypothesis import strategies as st

import repsim as R
from conftest import fig3_instance, instances
from repsim.model import KIND_REGULAR, KIND_RESIDENT_SPECIAL, PURPOSE_CREATE
from repsim.policies import Policy

TOL = 1e-9


# -- threshold policy -------------------------------------------------------


def test_threshold_tight1_cost():
    res = R.gen_tight(1, mu2=1.5, lam=1.0, epsilon=0.01)
    run, cost = R.simulate("alg1", res.instance)
    assert abs(cost.total - 4.0) <= TOL
    assert cost.transfer_count == 2
    assert all(s.mode == "transfer" for s in run.serves)


def test_threshold_tight3_cost():
    res = R.gen_tight(3, mu2=4.0, lam=1.0, epsilon=0.01)
    run, cost = R.simulate("alg1", res.instance)
    assert abs(cost.total - 3.01) <= TOL
    # one relocation plus the serving transfer
    assert cost.transfer_count == 2
    assert run.serves[0].copy_kind == "relocated_special"


def test_zero_request_instance_costs_nothing():
    inst = R.Instance.build([1.0, 2.0], 1.0, 1, [])
    for name in ("alg1", "wang", "simple"):
        _, cost = R.simulate(name, inst)
        assert cost.total == 0.0


def test_threshold_fig3_copy_kind_sequence():
    run, _ = R.simulate("alg1", fig3_instance())
    serves = {s.index: s for s in run.serves}
    assert serves[5].mode == "transfer" and serves[5].copy_kind == "resident_special"
    assert serves[6].mode == "transfer" and serves[6].copy_kind == "relocated_special"
    assert serves[6].source == 1
    assert serves[7].mode == "local" and serves[7].copy_kind == "relocated_special"
    assert serves[7].server == 1
    assert serves[8].mode == "local" and serves[8].copy_kind == "regular"
    kinds = {(c.server, c.kind) for c in run.schedule.copies}
    assert (2, "resident_special") in kinds
    assert (1, "relocated_special") in kinds


def test_threshold_close_successor_served_locally():
    inst = R.Instance.build([1.0, 2.0], 1.0, 1, [(1.0, 2), (1.4, 2)])
    run, cost = R.simulate("alg1", inst)
    assert run.serves[1].mode == "local"
    assert cost.transfer_count == 1  # only the first request transfers


def test_threshold_sole_copy_kept_forever():
    inst = R.Instance.build([1.0, 3.0], 1.0, 1, [])
    run, cost = R.simulate("alg1", inst)
    assert cost.transfer_count == 0
    specials = [c for c in run.schedule.copies if c.kind == "resident_special"]
    assert len(specials) == 1
    assert specials[0].server == 1
    assert math.isinf(specials[0].end)


def test_threshold_fig1_closed_form():
    for m in (3, 4, 6, 10):
        res = R.gen_fig1(m, 1.0, 0.5, 0.1)
        _, cost = R.simulate("alg1", res.instance)
        assert abs(cost.total - res.threshold_cost) <= 1e-9
        assert cost.total <= 2.0 * res.optimal_cost + 1e-9


def test_threshold_fig2_closed_form():
    for m in (3, 4, 8):
        res = R.gen_fig2(m, 1.0, 1.2, 0.01)
        _, cost = R.simulate("alg1", res.instance)
        assert abs(cost.total - res.threshold_cost) <= 1e-9


def test_request_at_exact_expiry_served_from_the_copy():
    # outward serve at the very instant the source window ends
    inst = R.Instance.build([1.0, 1.0], 1.0, 1, [(1.0, 2)])
    run, cost = R.simulate("alg1", inst)
    assert run.serves[0].mode == "transfer"
    assert run.serves[0].source == 1
    assert cost.transfer_count == 1
    s1_segments = [c for c in run.schedule.copies if c.server == 1]
    assert all(c.kind == "regular" for c in s1_segments)
    assert max(c.end for c in s1_segments) == 1.0
    # local serve at the very instant the local window ends
    inst2 = R.Instance.build([1.0, 2.0], 1.0, 1, [(1.0, 1)])
    run2, cost2 = R.simulate("alg1", inst2)
    assert run2.serves[0].mode == "local"
    assert cost2.transfer_count == 0


# -- rival policy -----------------------------------------------------------


def test_rival_fig1_total():
    res = R.gen_fig1(4, 1.0, 0.5, 0.1)
    _, cost = R.simulate("wang", res.instance)
    assert cost.total >= res.wang_lower_bound - TOL
    assert abs(cost.total - 7.1) <= TOL


def test_rival_fig2_total():
    res = R.gen_fig2(4, 1.0, 1.0, 0.01)
    _, cost = R.simulate("wang", res.instance)
    assert cost.total >= res.wang_lower_bound - TOL
    assert abs(cost.total - 11.01) <= TOL


def test_rival_single_request_within_window():
    inst = R.Instance.build([1.0, 2.0], 1.0, 2, [(0.3, 2)])
    run, cost = R.simulate("wang", inst)
    assert run.serves[0].mode == "local"
    assert abs(cost.total - 2.0 * 0.3) <= TOL


def test_rival_matches_pattern_at_scale():
    res = R.gen_fig2(300, 1.0, 1.4, 1e-4)
    _, cost = R.simulate("wang", res.instance)
    assert abs(cost.total - res.wang_lower_bound) <= 1e-6


def test_rival_winddown_relocates_after_one_renewal():
    # sole copy away from the cheapest server: one silent renewal, then the
    # object moves to the cheapest server and stays there
    inst = R.Instance.build([1.0, 2.0], 1.0, 2, [(0.1, 2)])
    run, _ = R.simulate("wang", inst)
    reloc = [t for t in run.schedule.transfers if t.purpose == "relocate"]
    assert len(reloc) == 1
    assert abs(reloc[0].time - (0.1 + 2 * 0.5)) <= TOL  # window plus one renewal
    assert reloc[0].src == 2 and reloc[0].dst == 1
    tail = [c for c in run.schedule.copies if c.server == 1]
    assert len(tail) == 1 and math.isinf(tail[0].end)


def test_rival_idle_copy_at_cheapest_server_waits_for_the_next_request():
    # the sole copy at server 1 renews about 6e5 times before the first request;
    # those renewals must not cost one expiry each, and the copy's window end
    # must still be the 600,001st renewal, where it is dropped
    class CountingAlarms(R.FixedRenewalPolicy):
        alarms = 0

        def expire(self, sim, time, server):
            self.alarms += 1
            super().expire(sim, time, server)

    policy = CountingAlarms()
    inst = R.Instance.build([1.0, 2.0], 1.0, 1, [(6e5 + 1, 2), (6e5 + 2, 1)])
    run, cost = R.simulate(policy, inst)
    assert 0 < policy.alarms < 10
    assert cost.total == 600_005.0
    first = [c for c in run.schedule.copies if c.server == 1][0]
    assert (first.start, first.end) == (0.0, 600_001.0)


# -- anchor policy ----------------------------------------------------------


def test_anchor_all_requests_at_cheapest():
    inst = R.Instance.build([1.0, 2.0], 1.0, 1, [(1.0, 1), (5.0, 1)])
    _, cost = R.simulate("simple", inst)
    assert abs(cost.total - 5.0) <= TOL
    inst2 = R.Instance.build([1.0, 2.0], 1.0, 2, [(1.0, 1), (5.0, 1)])
    _, cost2 = R.simulate("simple", inst2)
    assert abs(cost2.total - 6.0) <= TOL  # one extra transfer at time 0


def test_anchor_single_remote_request():
    T = 2.0
    inst = R.Instance.build([1.0, 2.0], 1.0, 1, [(T, 2)])
    _, cost = R.simulate("simple", inst)
    assert abs(cost.total - (T + 1.0)) <= TOL


def test_anchor_three_competitive_on_random_instances():
    for k in range(200):
        inst = R.gen_random(seed=900 + k, n=1 + k % 4, m=1 + k % 10)
        _, cost = R.simulate("simple", inst)
        opt = R.opt_full(inst, reconstruct=False).opt_cost
        assert cost.total <= 3.0 * opt + 1e-9


# -- driver invariants ------------------------------------------------------


def test_runs_are_deterministic():
    inst = R.gen_random(seed=5, n=4, m=15)
    logs = set()
    for _ in range(3):
        run, cost = R.simulate("alg1", inst)
        logs.add((run.event_log(), repr(cost.total)))
    assert len(logs) == 1


def test_all_policies_produce_valid_schedules():
    for k in range(40):
        inst = R.gen_random(seed=300 + k, n=1 + k % 5, m=k % 14)
        for name in ("alg1", "wang", "simple"):
            run, _ = R.simulate(name, inst)
            assert R.validate_schedule(run.schedule) == [], (name, k)


@given(instances(max_n=5), st.sampled_from(("alg1", "wang", "simple")))
def test_records_split_only_at_policy_actions(inst, name):
    # the driver adds no record boundary of its own: no copy is cut where
    # its server keeps holding the same kind, at the final request or anywhere
    run, _ = R.simulate(name, inst)
    copies = run.schedule.copies
    joined = [
        (a, b) for a in copies for b in copies if a is not b and (a.server, a.kind, a.end) == (b.server, b.kind, b.start)
    ]
    assert not joined, run.event_log()


def test_threshold_special_structure_on_random_instances():
    for k in range(60):
        inst = R.gen_random(seed=40 + k, n=1 + k % 5, m=k % 16)
        run, _ = R.simulate("alg1", inst)
        assert R.special_copy_problems(run) == []
        assert R.typing_problems(run) == []


def test_verify_accepts_a_relocation_just_over_the_threshold():
    # 3000.000000002 > 3 x 1000 + TOL, so the sole copy relocates, though the rate ratio is within TOL of 3
    inst = R.Instance.build([1000.0, 3000.000000002], 1.0, 2, [(1.0, 2)])
    run, _ = R.simulate("alg1", inst)
    assert {c.kind for c in run.schedule.copies if c.server == 1} == {"relocated_special"}
    assert R.verify_instance(inst) == []


def test_policies_sound_across_initial_servers():
    # competitive bound of the threshold policy holds from any start; the
    # anchor benchmark's 3x bound specifically assumes the copy starts at
    # the cheapest server and is checked elsewhere
    for k in range(80):
        n = 2 + k % 4
        inst = R.gen_random(seed=550_000 + k, n=n, m=1 + k % 10, initial_server=1 + k % n)
        opt = R.opt_full(inst, reconstruct=False).opt_cost
        for name in ("alg1", "wang", "simple"):
            run, cost = R.simulate(name, inst)
            assert R.validate_schedule(run.schedule) == [], (k, name)
            assert cost.total >= opt - 1e-9, (k, name)
        run, cost = R.simulate("alg1", inst)
        assert cost.total <= R.competitive_bound(inst) * opt + 1e-9, k
        assert R.special_copy_problems(run) == [], k
        report = R.classify_and_allocate(run)
        assert abs(report.total_allocated - cost.total) <= 1e-9, k


def test_window_rule_characterizes_local_regular_serves():
    for k in range(40):
        inst = R.gen_random(seed=700 + k, n=2 + k % 3, m=2 + k % 12)
        run, _ = R.simulate("alg1", inst)
        prev_at = {inst.initial_server: 0.0}
        for rec in run.serves:
            window = inst.transfer_cost / inst.rate(rec.server)
            t_prev = prev_at.get(rec.server)
            local_regular = rec.mode == "local" and rec.copy_kind == "regular"
            if t_prev is not None:
                assert local_regular == (rec.time - t_prev <= window + 1e-12), (k, rec)
            else:
                assert not local_regular
            prev_at[rec.server] = rec.time


class _TransferFromEmpty(R.ThresholdPolicy):
    def on_request(self, sim, time, server, source):
        sim.transfer(self._inst.n, server, "create_copy")


class _DropsNonHeld(R.ThresholdPolicy):
    def on_request(self, sim, time, server, source):
        super().on_request(sim, time, server, source)
        sim.drop(self._inst.n)


def test_policy_fault_on_bad_transfer():
    inst = R.Instance.build([1.0, 2.0, 3.0], 1.0, 1, [(1.0, 2)])
    with pytest.raises(R.PolicyFault) as err:
        R.simulate(_TransferFromEmpty(), inst)
    assert str(err.value) == "policy fault at t=1: transfer from server 3 which holds no copy"


def test_policy_fault_on_drop_of_non_held_copy():
    inst = R.Instance.build([1.0, 2.0, 3.0], 1.0, 1, [(0.1, 1)])
    with pytest.raises(R.PolicyFault) as err:
        R.simulate(_DropsNonHeld(), inst)
    assert str(err.value) == "policy fault at t=0.1: drop at server 3 which holds no copy"


class _CreatesOutside(R.ThresholdPolicy):
    """Serves as the threshold policy, then creates a copy at ``dst``, which the instance lacks."""

    def __init__(self, dst):
        super().__init__()
        self.dst = dst

    def on_request(self, sim, time, server, source):
        super().on_request(sim, time, server, source)
        sim.transfer(server, self.dst, "create_copy")


@pytest.mark.parametrize("dst", [3, 0, -1, 2.0])
def test_policy_fault_on_transfer_into_a_server_the_instance_lacks(dst):
    # such a copy used to fail later, as an IndexError or a KeyError far from the policy's action
    inst = R.Instance.build([1.0, 2.0], 1.0, 1, [(0.5, 1)])
    with pytest.raises(R.PolicyFault) as err:
        R.simulate(_CreatesOutside(dst), inst)
    assert str(err.value) == f"policy fault at t=0.5: transfer into server {dst}, which is not in 1..2"


SERVE_FAULT = "t={}: transfer for 'serve_request', not 'create_copy' or 'relocate'"
PURPOSE_FAULT = "t={}: transfer for 'prefetch', not 'create_copy' or 'relocate'"

# hook replaced in alg1, server of the one request at t=0.5, the replacement, the fault
DRIVER_CHECKS = {
    "transfer-from-non-holder": (
        "on_request", 2, lambda sim, t, s, src: sim.transfer(3, 1, "create_copy"),
        "t=0.5: transfer from server 3 which holds no copy",
    ),
    # the driver already served the request from server 1's copy
    "transfer-into-holder": (
        "on_request", 2, lambda sim, t, s, src: sim.transfer(src, s, "create_copy"),
        "t=0.5: transfer into server 2 which already holds a copy",
    ),
    # only the driver serves a request, so a policy's serve transfer is a fault wherever it is made
    "serve-at-start": ("start", 2, lambda sim: sim.transfer(1, 2, "serve_request"), SERVE_FAULT.format(0)),
    "serve-at-request": (
        "on_request", 1, lambda sim, t, s, src: sim.transfer(s, 3, "serve_request"), SERVE_FAULT.format(0.5)
    ),
    "serve-at-expiry": ("expire", 2, lambda sim, t, s: sim.transfer(s, 3, "serve_request"), SERVE_FAULT.format(1)),
    "unknown-purpose-at-start": ("start", 2, lambda sim: sim.transfer(1, 2, "prefetch"), PURPOSE_FAULT.format(0)),
    "unknown-purpose-at-request": (
        "on_request", 1, lambda sim, t, s, src: sim.transfer(s, 3, "prefetch"), PURPOSE_FAULT.format(0.5)
    ),
    "unknown-purpose-at-expiry": (
        "expire", 2, lambda sim, t, s: sim.transfer(s, 3, "prefetch"), PURPOSE_FAULT.format(1)
    ),
    "drop-at-non-holder": (
        "on_request", 1, lambda sim, t, s, src: sim.drop(3), "t=0.5: drop at server 3 which holds no copy"
    ),
    # both copies expire at t=1: server 1 is dropped, then server 2 holds the sole copy
    "drop-of-sole-copy": ("expire", 2, lambda sim, t, s: sim.drop(s), "t=1: drop of the sole copy at server 2"),
    "mark-at-non-holder": (
        "on_request", 1, lambda sim, t, s, src: sim.mark(3, "resident_special"),
        "t=0.5: kind change at server 3 which holds no copy",
    ),
    "hold-at-non-holder": (
        "on_request", 1, lambda sim, t, s, src: sim.hold(3, 9.0), "t=0.5: hold at server 3 which holds no copy"
    ),
    "hold-into-the-past": (
        "on_request", 1, lambda sim, t, s, src: sim.hold(s, 0.25),
        "t=0.5: hold at server 1 to t=0.25, before the current time",
    ),
    "hold-to-nan": (
        "on_request", 1, lambda sim, t, s, src: sim.hold(s, math.nan), "t=0.5: hold at server 1 to t=nan, not a time"
    ),
}


@pytest.mark.parametrize("case", sorted(DRIVER_CHECKS))
def test_driver_checks_every_action(case):
    hook, server, action, message = DRIVER_CHECKS[case]
    policy = R.ThresholdPolicy()
    setattr(policy, hook, action)
    inst = R.Instance.build([1.0, 2.0, 3.0], 1.0, 1, [(0.5, server)])
    with pytest.raises(R.PolicyFault) as err:
        R.simulate(policy, inst)
    assert str(err.value) == f"policy fault at {message}"


class _MarksAnUnknownKind(Policy):
    """Keeps the initial copy forever and marks it with a kind no schedule knows."""

    def start(self, sim):
        pass

    def on_request(self, sim, time, server, source):
        sim.mark(server, "spare")


def test_an_unknown_copy_kind_is_rejected_when_the_schedule_is_made():
    with pytest.raises(ValueError) as err:
        R.simulate(_MarksAnUnknownKind(), R.Instance.build([1.0, 2.0], 1.0, 1, [(0.5, 1)]))
    assert str(err.value) == "unknown copy kind 'spare'"


class _CreatesASpecialCopy(Policy):
    """Creates a resident special copy at server 2 at t=0 and keeps every copy forever."""

    def start(self, sim):
        sim.transfer(1, 2, PURPOSE_CREATE, KIND_RESIDENT_SPECIAL)

    def on_request(self, sim, time, server, source):
        pass


def test_a_created_special_copy_switched_at_its_start():
    run, _ = R.simulate(_CreatesASpecialCopy(), R.Instance.build([1.0, 2.0], 1.0, 1, [(1.0, 2)]))
    (serve,) = run.serves
    assert (serve.mode, serve.copy_kind, serve.switch_time) == ("local", KIND_RESIDENT_SPECIAL, 0.0)
    at_2 = [(c.start, c.end, c.kind) for c in run.schedule.copies if c.server == 2]
    assert at_2 == [(0.0, 1.0, KIND_RESIDENT_SPECIAL), (1.0, math.inf, KIND_REGULAR)]


def test_the_run_instance_is_the_given_instance():
    inst = R.Instance.build([1.0, 2.0], 1.0, 1, [(0.5, 2), (3.0, 1), (4.0, 2)])
    for name in R.POLICIES:
        assert R.simulate(name, inst)[0].schedule.instance is inst, name
    run, cost = R.simulate("alg1", inst)
    assert [row[:3] for row in run.serve_rows] == [(r.index, r.time, r.server) for r in inst.requests]
    assert R.validate_schedule(run.schedule) == []
    assert R.classify_and_allocate(run).total_allocated == pytest.approx(cost.total, abs=1e-9)  # conservation


def test_a_simulation_runs_once():
    sim = R.Simulation(R.make_policy("alg1"), fig3_instance())
    sim.run()
    with pytest.raises(RuntimeError):
        sim.run()


@pytest.mark.parametrize("mu", [5.0, 8.0, 20.0])
@pytest.mark.parametrize("name", sorted(R.POLICIES))
def test_an_adversary_outcome_is_a_plain_run_of_its_instance(name, mu):
    # the adversary decides on a plain run without requests, then simulates the
    # policy afresh on its instance; the decision shows in that run
    out = R.run_adversary(name, mu=mu)
    run, cost = R.simulate(name, out.instance)
    assert run.schedule.instance is out.instance
    assert cost.total == out.online_cost  # bit for bit
    initial = [c.end for c in run.schedule.copies if c.server == 2 and c.start == 0.0]
    if out.branch == 2:
        assert initial == [out.decision_time]  # the initial copy ends where it was abandoned
    else:
        assert out.decision_time == 1.0 / mu + 4.0 / mu**2  # the probe time
        assert len(initial) == 1 and initial[0] >= out.decision_time


class _HoldsBelowTheAlarm(Policy):
    """Holds the initial copy to t=10, then a new copy to t=3, earlier than the alarm already pending."""

    def __init__(self):
        self.log = []

    def start(self, sim):
        sim.hold(1, 10.0)

    def on_request(self, sim, time, server, source):
        self.log.append(("request", time, server))
        if source is not None:
            sim.hold(server, 3.0)

    def expire(self, sim, time, server):
        self.log.append(("expire", time, server))
        if len(sim.holders) > 1:
            sim.drop(server)
        else:
            sim.hold(server, math.inf)


def test_hold_below_the_cached_alarm_still_expires_in_time_order():
    policy = _HoldsBelowTheAlarm()
    run, _ = R.simulate(policy, R.Instance.build([1.0, 2.0], 1.0, 1, [(1.0, 2), (4.0, 1)]))
    assert policy.log == [("request", 1.0, 2), ("expire", 3.0, 2), ("request", 4.0, 1), ("expire", 10.0, 1)]
    assert [(c.server, c.start, c.end) for c in run.schedule.copies] == [(1, 0.0, math.inf), (2, 1.0, 3.0)]


class _TwoExpireAtOnce(Policy):
    """Copies at servers 3 and 2 (made in that order) both expire at t=2.

    With ``rehold`` the expiry of server 2 first holds server 3 on to t=4.
    """

    def __init__(self, rehold: bool):
        self.rehold = rehold
        self.log = []

    def start(self, sim):
        sim.hold(1, 5.0)

    def on_request(self, sim, time, server, source):
        if source is not None:
            sim.hold(server, 2.0)

    def expire(self, sim, time, server):
        self.log.append((time, server))
        if self.rehold and server == 2:
            sim.hold(3, 4.0)
        if len(sim.holders) > 1:
            sim.drop(server)
        else:
            sim.hold(server, math.inf)


@pytest.mark.parametrize("rehold, fired", [(False, [(2.0, 2), (2.0, 3)]), (True, [(2.0, 2), (4.0, 3)])])
def test_simultaneous_expiries_fire_in_server_order(rehold, fired):
    policy = _TwoExpireAtOnce(rehold)
    run, _ = R.simulate(policy, R.Instance.build([1.0, 2.0, 3.0], 1.0, 1, [(1.0, 3), (1.5, 2), (6.0, 1)]))
    assert policy.log == fired + [(5.0, 1)]
    assert [(c.server, c.end) for c in run.schedule.copies if c.server != 1] == [(3, fired[1][0]), (2, 2.0)]


class _HoldsToTheAlarmTime(_TwoExpireAtOnce):
    """As ``_TwoExpireAtOnce``, but the expiry of server 2 holds server 1 to that same time."""

    def expire(self, sim, time, server):
        if server == 2:
            sim.hold(1, time)
        super().expire(sim, time, server)


def test_a_hold_to_the_alarm_time_fires_after_the_copies_already_due():
    policy = _HoldsToTheAlarmTime(rehold=False)
    run, _ = R.simulate(policy, R.Instance.build([1.0, 2.0, 3.0], 1.0, 1, [(1.0, 3), (1.5, 2), (6.0, 1)]))
    assert policy.log == [(2.0, 2), (2.0, 3), (2.0, 1)]
    assert [(c.server, c.start, c.end) for c in run.schedule.copies] == [
        (1, 0.0, math.inf),
        (3, 1.0, 2.0),
        (2, 1.5, 2.0),
    ]


def test_serve_records_are_immutable_hashable_and_keep_their_fields():
    run, _ = R.simulate("alg1", fig3_instance())
    rec = run.serves[0]
    assert R.ServeRecord._fields == ("index", "time", "server", "source", "copy_kind", "provider", "switch_time")
    # the mode is no stored field: it is read off the source
    assert rec.mode == ("local" if rec.source is None else "transfer")
    with pytest.raises(AttributeError):
        rec.mode = "local"
    with pytest.raises(AttributeError):
        rec.source = None
    assert rec == R.ServeRecord(*rec) and hash(rec) == hash(R.ServeRecord(*rec))
    assert len(set(run.serves)) == len(run.serves)
    # the records are made once, from the driver's rows
    assert run.serves is run.serves
    assert run.serves == run.serve_rows and {type(r) for r in run.serves} == {R.ServeRecord}


def test_runs_free_their_simulation_without_the_cycle_collector(monkeypatch):
    # a policy that kept the simulation would form a cycle, so every run's
    # copy, transfer and serve lists would wait for the cyclic collector
    sims = []
    init = R.Simulation.__init__

    def spy(self, *args):
        sims.append(weakref.ref(self))
        init(self, *args)

    monkeypatch.setattr(R.Simulation, "__init__", spy)
    inst = R.gen_random(seed=11, n=3, m=12)
    enabled = gc.isenabled()
    gc.disable()
    try:
        for name in ("alg1", "wang", "simple"):
            R.simulate(name, inst)
            assert sims[-1]() is None, name
            R.run_adversary(name, mu=5.0)
            assert sims[-1]() is None, name
    finally:
        if enabled:
            gc.enable()
    assert len(sims) == 9  # each adversary run simulates twice: without requests, then on its instance


def test_event_log_format():
    res = R.gen_tight(1, mu2=1.5, lam=1.0, epsilon=0.01)
    run, _ = R.simulate("alg1", res.instance)
    lines = run.event_log().splitlines()
    assert any(line.startswith("COPY 1 0 ") for line in lines)
    assert any(line.startswith("XFER ") and line.endswith("serve_request") for line in lines)
    assert any(line.startswith("SERVE 1 ") for line in lines)


class _IgnoresItsAlarm(Policy):
    """Holds the initial copy to t=2; its ``expire`` does nothing."""

    def start(self, sim):
        sim.hold(1, 2.0)

    def on_request(self, sim, time, server, source):
        pass

    def expire(self, sim, time, server):
        pass


def test_an_expire_that_leaves_its_copy_due_is_a_policy_fault():
    inst = R.Instance.build([1.0], 1.0, 1, [(5.0, 1)])
    with pytest.raises(R.PolicyFault) as err:
        R.simulate(_IgnoresItsAlarm(), inst)
    assert str(err.value) == "policy fault at t=2: expire left the copy at server 1 due at t=2"
