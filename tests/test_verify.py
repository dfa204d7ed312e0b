"""The checks of ``repsim.verify``: each law and each failure branch fires on a doctored input."""

from __future__ import annotations

from dataclasses import replace

import pytest

import repsim as R
import repsim.verify as V
from conftest import fig3_instance


def _fig1():
    # two servers at rates 1 and 1.5, lambda 1: alg1 5.6, wang and simple 7.1, optimum 4.1, bound 2
    return R.gen_fig1(4, 1.0, 0.5, 0.1).instance


def _doctored(report: R.AllocationReport, index: int, **changes) -> R.AllocationReport:
    """The report with the typing of request ``index`` changed."""
    entries = tuple((req, typ._replace(**changes) if req.index == index else typ, a) for req, typ, a in report.entries)
    return replace(report, entries=entries)


@pytest.mark.parametrize(
    "make, index, changes, message",
    [
        # fig3: request 1 at server 1 comes 1.5 after time 0, past its window of 1
        (fig3_instance, 1, {"category": 4}, "request 1 served from its own window after 1.5 > 1"),
        # fig3: request 8 at server 1 comes 0.7 after request 7, inside its window
        (fig3_instance, 8, {"category": 1}, "request 8 not window-served although gap 0.7 <= 1"),
        # fig3: request 3 was at server 3, whose rate 4 relocates a sole copy
        (fig3_instance, 5, {"provider": 3}, "request 5 served from a retained copy at rate 4 > 3 x 1 + 1e-9"),
        # fig1: rates 1 and 1.5, so no copy is ever relocated
        (_fig1, 1, {"category": 3}, "request 1 is category 3 although no rate exceeds 3 x 1 + 1e-9"),
    ],
    ids=["own-window-past-gap", "transfer-within-window", "retained-at-relocating-rate", "relocated-without-rule"],
)
def test_each_typing_law_fires_on_a_doctored_report(make, index, changes, message):
    run, _ = R.simulate("alg1", make())
    report = R.classify_and_allocate(run)
    assert R.typing_problems(run, report) == []
    assert R.typing_problems(run, _doctored(report, index, **changes)) == [message]


def _simulate_with_total(policy: str, total: float):
    """``simulate`` with the cost total of ``policy``'s runs replaced."""

    def doctored(name, instance):
        run, cost = R.simulate(name, instance)
        return run, replace(cost, total=total) if name == policy else cost

    return doctored


def _opt_full_with(**changes):
    """``opt_full`` with fields of its solution replaced."""
    return lambda instance: replace(R.opt_full(instance), **changes)


def _allocate_with_surcharge(amount: float):
    """``classify_and_allocate`` with one more first-request surcharge."""

    def doctored(run):
        report = R.classify_and_allocate(run)
        return replace(report, first_request_surcharges=report.first_request_surcharges + ((1, amount),))

    return doctored


@pytest.mark.parametrize(
    "binding, doctored, message",
    [
        ("classify_and_allocate", _allocate_with_surcharge(0.5), "alg1: allocation conservation broken by 0.5"),
        ("opt_full", _opt_full_with(opt_cost=4.0), "oracle: reconstructed schedule cost differs from optimum"),
        ("opt_full", _opt_full_with(prefix_costs=(0.0, 1.1, 0.5, 4.1)), "prefix optimum decreases at request 2"),
        ("simulate", _simulate_with_total("wang", 4.0), "wang: cost 4 undercuts the optimum 4.1"),
        ("competitive_bound", lambda instance: 1.25, "alg1: cost 5.6 exceeds 1.25 x optimum 4.1"),
        ("simulate", _simulate_with_total("simple", 12.5), "simple: cost 12.5 exceeds 3 x optimum 4.1"),
    ],
    ids=["conservation", "oracle-cost", "prefix-decrease", "undercut", "alg1-bound", "simple-bound"],
)
def test_each_instance_check_fires_on_a_doctored_input(monkeypatch, binding, doctored, message):
    inst = _fig1()
    assert R.verify_instance(inst) == []
    monkeypatch.setattr(V, binding, doctored)
    assert R.verify_instance(inst) == [message]
