"""Independent reference checkers: the direct quadratic scans of each invariant.

``validate_schedule``, ``validate_offline_structure`` and
``special_copy_problems`` test every request against every span, every span
against every inbound transfer, every transfer against every request time
and every special copy against every other copy. The program's versions find
the same candidates by forward walks and sweeps over the sorted records; tests
require both to return equal results, in the same order.
"""

from __future__ import annotations

import math

from repsim.model import (
    KIND_REGULAR,
    SPECIAL_KINDS,
    TOL,
    ReplicationSchedule,
    Violation,
    _holding_spans,
)
from repsim.policies import AnnotatedRun


def validate_schedule(schedule: ReplicationSchedule) -> list[Violation]:
    """Check feasibility; returns every violation found (empty means valid).

    Checks the three schedule invariants: at least one copy at every time in
    [0, horizon], every request served by a local copy at its time, and every
    copy creation sourced by a transfer into that server at its start time
    (the initial copy at the initial server being the one exception).
    """
    inst = schedule.instance
    out: list[Violation] = []

    horizon = inst.horizon
    covered = 0.0
    for start, end in sorted((max(c.start, 0.0), c.end) for c in schedule.copies):
        if start > covered + TOL:
            gap_end = min(start, horizon)
            if gap_end > covered + TOL:
                out.append(Violation(covered, f"coverage gap ({covered:g}, {gap_end:g}): no copy alive"))
            covered = start
        covered = max(covered, end)
        if covered >= horizon - TOL:
            break
    if covered < horizon - TOL:
        out.append(Violation(covered, f"coverage gap ({covered:g}, {horizon:g}): no copy alive"))

    spans_by_server = _holding_spans(schedule)
    for req in inst.all_requests:
        spans = spans_by_server[req.server]
        if not any(a - TOL <= req.time <= b + TOL for a, b in spans):
            out.append(
                Violation(req.time, f"request {req.index} at t={req.time:g} unserved: server {req.server} holds no copy")
            )

    transfers_in: dict[int, list[float]] = {}
    for tr in schedule.transfers:
        transfers_in.setdefault(tr.dst, []).append(tr.time)
    for server, spans in spans_by_server.items():
        for start, _end in spans:
            if start <= TOL and server == inst.initial_server:
                continue
            times = transfers_in.get(server, [])
            if not any(abs(t - start) <= TOL for t in times):
                out.append(
                    Violation(start, f"unsourced copy: server {server} copy starting at t={start:g} has no inbound transfer")
                )
    return out


def validate_offline_structure(schedule: ReplicationSchedule) -> list[Violation]:
    """Check the structural laws every optimal schedule can be assumed to obey.

    (a) every transfer happens at some request time (the synthetic time-0
    request included); (b) when two consecutive requests at one server are
    close enough that storing between them is no costlier than one transfer,
    the server holds a copy throughout the gap; (c) at each step before the
    last, at most one server is both far (storing until its next request
    after the step costs more than a transfer plus TOL) and holding a copy
    until the next step.
    """
    inst = schedule.instance
    out: list[Violation] = []
    req_times = [0.0] + [r.time for r in inst.requests]
    for tr in schedule.transfers:
        if not any(abs(tr.time - t) <= TOL for t in req_times):
            out.append(Violation(tr.time, f"transfer at t={tr.time:g} coincides with no request time"))

    spans = _holding_spans(schedule)

    prev_at: dict[int, float] = {inst.initial_server: 0.0}
    for req in inst.requests:
        t_prev = prev_at.get(req.server)
        if t_prev is not None and inst.rate(req.server) * (req.time - t_prev) <= inst.transfer_cost + TOL:
            held = any(a - TOL <= t_prev and req.time <= b + TOL for a, b in spans[req.server])
            if not held:
                out.append(
                    Violation(
                        req.time,
                        f"request {req.index}: server {req.server} does not hold a copy through "
                        f"({t_prev:g}, {req.time:g}) although storing is no costlier than a transfer",
                    )
                )
        prev_at[req.server] = req.time

    events = [(0.0, inst.initial_server)] + [(r.time, r.server) for r in inst.requests]
    for i, ((t0, _), (t1, _)) in enumerate(zip(events, events[1:])):
        holders = []
        for srv in inst.servers:
            following = min((t for t, s in events[i + 1 :] if s == srv.index), default=math.inf)
            far = srv.rate * (following - t0) > inst.transfer_cost + TOL
            if far and any(a - TOL <= t0 and t1 <= b + TOL for a, b in spans[srv.index]):
                holders.append(srv.index)
        if len(holders) > 1:
            out.append(
                Violation(
                    t0,
                    f"request {i}: far servers {', '.join(map(str, holders))} each hold a copy through "
                    f"({t0:g}, {t1:g}) although one far holder suffices",
                )
            )
    return out


def special_copy_problems(run: AnnotatedRun) -> list[str]:
    """Violations of the special-copy structure in a threshold-policy run.

    No two special intervals may overlap, no special interval may overlap a
    regular one, relocated copies live only at a minimum-rate server, and
    relocated copies exist only when some rate exceeds three times the
    cheapest plus TOL, the threshold policy's absolute form of its rule.
    """
    inst = run.schedule.instance
    out: list[str] = []
    specials = [c for c in run.schedule.copies if c.kind in SPECIAL_KINDS]
    regulars = [c for c in run.schedule.copies if c.kind == KIND_REGULAR]
    for i, a in enumerate(specials):
        for b in specials[i + 1 :]:
            if a.start < b.end - TOL and b.start < a.end - TOL:
                out.append(f"special copies overlap: {a} and {b}")
        for b in regulars:
            if a.start < b.end - TOL and b.start < a.end - TOL:
                out.append(f"special copy overlaps a regular copy: {a} and {b}")
    min_rate = inst.rate(1)
    for c in specials:
        if c.kind == "relocated_special" and inst.rate(c.server) > min_rate + TOL:
            out.append(f"relocated copy at non-minimum-rate server {c.server}")
    if any(c.kind == "relocated_special" for c in run.schedule.copies) and all(
        s.rate <= 3.0 * min_rate + TOL for s in inst.servers
    ):
        out.append(f"relocated copy exists although no rate exceeds 3 x {min_rate:g} + 1e-9")
    return out
