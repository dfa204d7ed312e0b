"""Online policies and the event-driven simulation driver.

The driver owns the ground truth: which servers hold copies, when each copy
expires, and the recorded schedule. Its ``expiry`` map from server to expiry
time (``inf`` for a copy kept until further notice) is the only holder
table; its keys are the holders. A policy reads that map and acts on it
only through four checked driver methods: ``transfer``, ``drop``, ``mark``
(a kind change in place) and ``hold`` (a new expiry time). The driver aborts
with a policy fault when an action would break feasibility.

Three policies are provided, selectable by name:

* ``alg1``   - threshold policy: per-request holding windows, sole-copy
  retention at cheap servers, relocation to the cheapest server when the
  sole copy sits at a server more than three times as expensive.
* ``wang``   - fixed-renewal rival: per-request windows, one silent renewal
  for a sole copy, then an unconditional move to the cheapest server.
* ``simple`` - anchor benchmark: a permanent copy at the cheapest server plus
  per-request windows elsewhere.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property
from heapq import heappop, heappush
from typing import NamedTuple

from .model import (
    KIND_REGULAR,
    KIND_RELOCATED_SPECIAL,
    KIND_RESIDENT_SPECIAL,
    PURPOSE_CREATE,
    PURPOSE_RELOCATE,
    PURPOSE_SERVE,
    SPECIAL_KINDS,
    TOL,
    CopyInterval,
    CostBreakdown,
    Instance,
    InstanceFormatError,
    ReplicationSchedule,
    Request,
    Transfer,
    compute_cost,
    schedule_lines,
)

MODE_LOCAL = "local"
MODE_TRANSFER = "transfer"


class PolicyFault(RuntimeError):
    """A policy took an infeasible action or left a request unserved."""

    def __init__(self, time: float, message: str):
        super().__init__(f"policy fault at t={time:g}: {message}")
        self.time = time


class Policy:
    """Base class for online policies: the rules, with no copy state of their own.

    Each hook receives the running ``Simulation`` and acts through its
    ``transfer``, ``drop``, ``mark`` and ``hold`` methods. A hook must not keep
    the simulation beyond the call. A new copy expires at ``inf`` until the
    policy holds it to a finite time; the driver calls ``expire`` for each copy
    whose expiry time has come, also after the final request, until every
    expiry is ``inf``. Copies alive then are recorded as held forever, so a
    copy that would renew forever must hold an infinite expiry.
    """

    name = "abstract"

    def start(self, sim: "Simulation") -> None:
        """Begin a run at time 0: the initial copy holds one window."""
        self._begin(sim)
        g = self._inst.initial_server
        sim.hold(g, self._window[g])

    def _begin(self, sim: "Simulation") -> None:
        """Take the run's instance and each server's window, transfer cost / rate."""
        self._inst = inst = sim.instance
        self._window = {s.index: inst.transfer_cost / s.rate for s in inst.servers}

    def on_request(self, sim: "Simulation", time: float, server: int) -> None:
        """Serve a request at ``server``; it must hold a copy afterwards."""
        raise NotImplementedError

    def expire(self, sim: "Simulation", time: float, server: int) -> None:
        """The rule for the copy at ``server`` whose expiry time ``time`` has come.

        It runs both between requests and in the wind-down after the final
        request, so a subclass states each rule once, in this method.
        """
        raise NotImplementedError


def relocates(rate: float, cheapest: float) -> bool:
    """The threshold rule: a sole copy at ``rate`` moves to the cheapest server when ``rate > 3 * cheapest + TOL``."""
    return rate > 3.0 * cheapest + TOL


class ThresholdPolicy(Policy):
    """Per-request windows with sole-copy special handling.

    After each local request a server keeps the copy for window = transfer
    cost / its rate. On expiry a non-sole copy is dropped. A sole copy is
    kept indefinitely where its rate is at most three times the cheapest plus
    TOL (``relocates``), and otherwise moved to the cheapest server and kept there. A
    holder that has been silent at least one full window drops its copy
    right after serving an outward transfer.
    """

    name = "alg1"

    def start(self, sim: "Simulation") -> None:
        super().start(sim)
        self._last_request: dict[int, float] = {self._inst.initial_server: 0.0}

    def on_request(self, sim: "Simulation", time: float, server: int) -> None:
        if server not in sim.expiry:
            src = min(sim.expiry)
            sim.transfer(src, server)
            if time - self._last_request.get(src, -math.inf) >= self._window[src] - TOL:
                # outward transfer from a special (or just-expired) copy
                sim.drop(src)
        sim.hold(server, time + self._window[server])
        self._last_request[server] = time

    def expire(self, sim: "Simulation", time: float, server: int) -> None:
        if len(sim.expiry) > 1:
            sim.drop(server)
        elif not relocates(self._inst.rate(server), self._inst.rate(1)):
            sim.mark(server, KIND_RESIDENT_SPECIAL)
            sim.hold(server, math.inf)
        else:
            sim.transfer(server, 1, PURPOSE_RELOCATE, KIND_RELOCATED_SPECIAL)
            sim.drop(server)


class FixedRenewalPolicy(Policy):
    """Rival policy with fixed-length holds and renew-then-relocate fallback.

    Per-request windows as in the threshold policy. When a copy expires
    non-sole it is dropped. A sole copy at the cheapest server renews its
    window forever. A sole copy elsewhere renews once if the window just
    ended was started by a request, and after a second silent window the
    object is moved to the cheapest server and the local copy dropped.
    Holders never drop early on outward transfers.
    """

    name = "wang"

    def start(self, sim: "Simulation") -> None:
        super().start(sim)
        self._renewed: set[int] = set()
        self._idle_end = math.inf  # the first renewed window end of an idle sole copy at server 1

    def on_request(self, sim: "Simulation", time: float, server: int) -> None:
        if server not in sim.expiry:
            if sim.expiry.get(1) == math.inf:
                sim.hold(1, self._idle_expiry(time))
            sim.transfer(min(sim.expiry), server)
        sim.hold(server, time + self._window[server])
        self._renewed.discard(server)

    def _idle_expiry(self, time: float) -> float:
        """The window end an idle sole copy at server 1 has reached at ``time``.

        The copy renews one window per expiry, and expiries are handled
        strictly before a request, so this is the first end at or after
        ``time``. The same chain of additions as one expiry per window keeps
        every end bit for bit.
        """
        end, window = self._idle_end, self._window[1]
        while end < time:
            end += window
        return end

    def expire(self, sim: "Simulation", time: float, server: int) -> None:
        if len(sim.expiry) > 1:
            sim.drop(server)
            self._renewed.discard(server)
        elif server == 1:
            # a sole copy at the cheapest server renews forever without acting, so
            # it waits for the next request instead of expiring once per window
            self._idle_end = time + self._window[1]
            sim.hold(1, math.inf)
        elif server not in self._renewed:
            self._renewed.add(server)
            sim.hold(server, time + self._window[server])
        else:
            self._renewed.discard(server)
            sim.transfer(server, 1, PURPOSE_RELOCATE)
            sim.drop(server)
            sim.hold(1, time + self._window[1])


class AnchorPolicy(Policy):
    """Benchmark keeping a permanent copy at the cheapest server.

    Every other server holds a per-request window after each local request;
    requests at copyless servers are served by a transfer from the anchor.
    When the initial copy is elsewhere, the anchor is created by a transfer
    at time 0 and the initial copy dropped immediately.
    """

    name = "simple"

    def start(self, sim: "Simulation") -> None:
        self._begin(sim)
        g = self._inst.initial_server
        if g != 1:
            sim.transfer(g, 1, PURPOSE_CREATE)
            sim.drop(g)

    def on_request(self, sim: "Simulation", time: float, server: int) -> None:
        if server == 1:
            return
        if server not in sim.expiry:
            sim.transfer(1, server)
        sim.hold(server, time + self._window[server])

    def expire(self, sim: "Simulation", time: float, server: int) -> None:
        sim.drop(server)


POLICIES = {
    "alg1": ThresholdPolicy,
    "wang": FixedRenewalPolicy,
    "simple": AnchorPolicy,
}


def make_policy(name: str) -> Policy:
    try:
        return POLICIES[name]()
    except KeyError:
        raise ValueError(f"unknown policy {name!r}; expected one of {sorted(POLICIES)}") from None


# ---------------------------------------------------------------------------
# Driver


class ServeRecord(NamedTuple):
    """How one request was served: mode, source, and the providing copy."""

    index: int
    time: float
    server: int
    mode: str  # local | transfer
    source: int | None
    copy_kind: str
    provider: int  # index of the request whose retained copy served this one
    switch_time: float | None  # instant the providing copy turned special


@dataclass(frozen=True)
class AnnotatedRun:
    """A schedule plus per-request serving annotations from one policy run.

    ``serve_rows`` holds one plain tuple of ``ServeRecord`` fields per
    request, as the driver records them. ``serves`` makes the records on
    first use, so a run that is only costed, as in every sweep cell, never
    builds them.
    """

    schedule: ReplicationSchedule
    serve_rows: tuple[tuple, ...]
    policy_name: str

    @cached_property
    def serves(self) -> tuple[ServeRecord, ...]:
        return tuple(map(ServeRecord._make, self.serve_rows))

    def event_log(self) -> str:
        """Line-oriented export: COPY / XFER / SERVE records."""
        lines = schedule_lines(self.schedule)
        lines += [f"SERVE {s.index} {s.time:.10g} {s.server} {s.mode}" for s in self.serves]
        return "\n".join(lines) + ("\n" if lines else "")


@dataclass(slots=True)
class _LiveCopy:
    """The copy a server holds now, since ``start``."""

    start: float
    kind: str
    origin: int  # request index whose service created or last renewed the copy
    switch: float | None


class Simulation:
    """Stepwise driver; supports full-trace runs and adaptive request injection.

    ``expiry`` maps each holder to its copy's expiry time. Policies read it
    and change it only through ``transfer``, ``drop``, ``mark`` and ``hold``,
    which act at the current event's time. Each finite ``hold`` pushes
    ``(expiry, server)`` onto the alarm heap; an entry that no longer matches
    ``expiry`` (the copy was dropped or held again) is popped unfired.
    """

    def __init__(self, policy: Policy, instance: Instance):
        self._policy = policy
        self.instance = instance
        g = instance.initial_server
        self.expiry: dict[int, float] = {g: math.inf}
        self._alarms: list[tuple[float, int]] = []  # the alarm heap, stale entries included
        self._live: dict[int, _LiveCopy] = {g: _LiveCopy(0.0, KIND_REGULAR, 0, None)}
        self._segments: list[CopyInterval] = []
        self._transfers: list[Transfer] = []
        self._serves: list[tuple] = []  # a ServeRecord row per delivered request, so also the request log
        self._servers = frozenset(range(1, instance.n + 1))
        self._last = 0.0  # the previous request's time; the synthetic request is at 0
        self._finalized = False
        self._now = 0.0
        self._request: int | None = None  # index of the request being served
        self._record: tuple | None = None  # how that request was served so far, as a ServeRecord row
        policy.start(self)

    # -- policy actions -----------------------------------------------------

    def transfer(self, src: int, dst: int, purpose: str = PURPOSE_SERVE, kind: str = KIND_REGULAR) -> None:
        """Copy the object from ``src`` to ``dst``; the new copy expires at ``inf``."""
        time = self._now
        live = self._live
        copy = live.get(src)
        if copy is None:
            raise PolicyFault(time, f"transfer from server {src} which holds no copy")
        request = self._request
        if purpose == PURPOSE_SERVE and request is None:
            raise PolicyFault(time, "serve transfer outside a request event")
        if dst in live:
            raise PolicyFault(time, f"transfer into server {dst} which already holds a copy")
        if type(dst) is not int or dst not in self._servers:
            raise PolicyFault(time, f"transfer into server {dst!r}, which is not in 1..{self.instance.n}")
        if purpose == PURPOSE_SERVE:
            if self._record is not None:
                raise PolicyFault(time, f"request {request} served twice")
            self._record = (request, time, dst, MODE_TRANSFER, src, copy.kind, copy.origin, copy.switch)
        self._transfers.append(Transfer(time, src, dst, purpose))
        if purpose == PURPOSE_RELOCATE:
            live[dst] = _LiveCopy(time, kind, copy.origin, time if kind in SPECIAL_KINDS else None)
        else:
            live[dst] = _LiveCopy(time, kind, request or 0, None)
        self.expiry[dst] = math.inf

    def drop(self, server: int) -> None:
        if server not in self._live:
            raise PolicyFault(self._now, f"drop at server {server} which holds no copy")
        if len(self.expiry) == 1:
            raise PolicyFault(self._now, f"drop of the sole copy at server {server}")
        self._close_segment(server, self._now)
        del self.expiry[server]

    def mark(self, server: int, kind: str) -> None:
        """Switch the kind of the copy at ``server`` in place (regular to special)."""
        cur = self._live.get(server)
        if cur is None:
            raise PolicyFault(self._now, f"kind change at server {server} which holds no copy")
        self._close_segment(server, self._now)
        self._live[server] = _LiveCopy(self._now, kind, cur.origin, self._now)

    def hold(self, server: int, until: float) -> None:
        """Set the expiry time of the copy at ``server``."""
        expiry = self.expiry
        if server not in expiry:
            raise PolicyFault(self._now, f"hold at server {server} which holds no copy")
        if not until >= self._now:
            problem = "not a time" if until != until else "before the current time"
            raise PolicyFault(self._now, f"hold at server {server} to t={until:g}, {problem}")
        expiry[server] = until
        if until < math.inf:
            heappush(self._alarms, (until, server))

    # -- event processing ---------------------------------------------------

    def _close_segment(self, server: int, end: float) -> None:
        c = self._live.pop(server)
        self._segments.append(CopyInterval(server, c.start, end, c.kind))

    def run_alarms_before(self, limit: float) -> None:
        """Process all alarms strictly earlier than ``limit``."""
        while self.step_alarm(limit) is not None:
            pass

    def step_alarm(self, before: float = math.inf) -> float | None:
        """Expire the copies due next if their time falls strictly before ``before``.

        The policy's ``expire`` runs for each server due at that time, in
        server order, skipping one whose expiry an earlier call changed; a
        hold to that time made meanwhile fires in the next call. An
        ``expire`` that leaves its own copy due at the alarm time is a
        ``PolicyFault``. Returns the alarm's time, or None when no such alarm
        is pending.
        """
        heap, expiry = self._alarms, self.expiry
        while heap and expiry.get(heap[0][1]) != heap[0][0]:
            heappop(heap)
        if not heap or heap[0][0] >= before:
            return None
        alarm = self._now = heap[0][0]
        due = {}  # the servers with an entry at ``alarm``, in server order, each once
        while heap and heap[0][0] == alarm:
            due[heappop(heap)[1]] = None
        for server in due:
            if expiry.get(server) == alarm:
                self._policy.expire(self, alarm, server)
                if expiry.get(server) == alarm:
                    raise PolicyFault(alarm, f"expire left the copy at server {server} due at t={alarm:g}")
        return alarm

    def inject_request(self, time: float, server: int) -> None:
        """Deliver one request after draining earlier alarms.

        A request must come strictly after the previous one, at a finite
        time and at a server of the instance; otherwise it is rejected here,
        before any alarm runs.
        """
        index = len(self._serves) + 1
        if not self._last < time < math.inf or type(server) is not int or server not in self._servers:
            if type(server) is not int or server not in self._servers:
                problem = f"server is not an int in 1..{self.instance.n}"
            elif not time < math.inf:
                problem = "time is not finite"
            else:
                problem = "time does not strictly increase"
            raise InstanceFormatError(
                f"request {index} at t={time:g}, server {server!r} (previous request at t={self._last:g}): {problem}"
            )
        self._last = time
        if self._alarms and self._alarms[0][0] < time:
            self.run_alarms_before(time)
        self._now, self._request, self._record = time, index, None
        held = self._live.get(server)
        if held is not None:
            self._record = (index, time, server, MODE_LOCAL, None, held.kind, held.origin, held.switch)
            if held.kind != KIND_REGULAR:
                self._close_segment(server, time)
                self._live[server] = _LiveCopy(time, KIND_REGULAR, index, None)
            else:
                held.origin = index
        self._policy.on_request(self, time, server)
        record, self._request = self._record, None
        if record is None or record[2] != server:  # the row's server field
            raise PolicyFault(time, f"request {index} at server {server} left unserved")
        self._serves.append(record)

    def finalize(self) -> AnnotatedRun:
        """Expire copies until every expiry is ``inf``, then assemble the run.

        Copies alive at that point are recorded as held forever. No record is
        split or flagged: records start and end only at policy actions and kind
        changes, and ``compute_cost`` clips them at the final request. The run's
        instance is the one given when its requests are the delivered ones,
        and otherwise one built from the delivered requests.
        """
        if self._finalized:
            raise RuntimeError("simulation already finalized")
        self._finalized = True
        serves = self._serves
        self.run_alarms_before(math.inf)
        for server, c in self._live.items():
            self._segments.append(CopyInterval(server, c.start, math.inf, c.kind))
        self._live.clear()
        self.expiry.clear()
        instance = self.instance
        if len(instance.requests) != len(serves) or not all(
            r.time == row[1] and r.server == row[2] for r, row in zip(instance.requests, serves)
        ):
            instance = replace(instance, requests=tuple(Request(i, float(t), s) for i, t, s, *_ in serves))
        schedule = ReplicationSchedule(instance, self._segments, self._transfers)
        return AnnotatedRun(schedule, tuple(serves), self._policy.name)


def simulate(policy: "Policy | str", instance: Instance) -> tuple[AnnotatedRun, CostBreakdown]:
    """Run a policy over a full instance; cost is taken at the final request."""
    if isinstance(policy, str):
        policy = make_policy(policy)
    sim = Simulation(policy, instance)
    for req in instance.requests:
        sim.inject_request(req.time, req.server)
    run = sim.finalize()
    return run, compute_cost(run.schedule, instance.horizon)
