"""Online policies and the event-driven simulation driver.

The driver owns the ground truth. Its ``holders`` map is the one holder
table: each holder maps to one record of its live copy, with the record's
start, kind and origin request and the copy's expiry time (``inf`` until
held). The driver serves each request of its instance once: locally where the
requester holds a copy, else by a transfer from the lowest-numbered holder. A
policy keeps only its holding rules. It acts on the table only through four
checked methods: ``transfer`` (to create or relocate a copy), ``drop``,
``mark`` (a kind change in place) and ``hold`` (a new expiry time); an action
that would break feasibility is a policy fault. Policies are online by
construction: a policy sees prices and the past only.

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
from dataclasses import dataclass
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
    TOL,
    CopyInterval,
    CostBreakdown,
    Instance,
    ReplicationSchedule,
    Transfer,
    compute_cost,
    schedule_lines,
)

MODE_LOCAL = "local"
MODE_TRANSFER = "transfer"


class PolicyFault(RuntimeError):
    """A policy took an infeasible action."""

    def __init__(self, time: float, message: str):
        super().__init__(f"policy fault at t={time:g}: {message}")
        self.time = time


class Policy:
    """Base class for online policies: the rules, with no copy state of their own.

    Online by construction: a policy sees prices and the past only. Each hook
    gets the running ``Simulation``, reads its holder table ``holders`` and
    acts through its ``transfer``, ``drop``, ``mark`` and ``hold`` methods,
    keeping no simulation beyond the call. A new copy expires at ``inf`` until
    the policy holds it to a finite time; the driver calls ``expire`` for each
    copy whose expiry time has come, also after the final request, until every
    expiry is ``inf``. Copies alive then are recorded as held forever, so a
    copy that would renew forever must hold an infinite expiry.
    """

    name = "abstract"

    def start(self, sim: "Simulation") -> None:
        """Begin a fresh run at time 0 from ``sim.prices``, keeping no state of an earlier run: the initial
        copy holds one window. Online by construction: a policy sees prices and the past only.
        """
        self._begin(sim)
        g = self._inst.initial_server
        sim.hold(g, self._window[g])

    def _begin(self, sim: "Simulation") -> None:
        """Take the run's prices and each server's window, transfer cost / rate."""
        self._inst = inst = sim.prices
        self._window = {s.index: inst.transfer_cost / s.rate for s in inst.servers}

    def on_request(self, sim: "Simulation", time: float, server: int, source: int | None) -> None:
        """The rule after the driver served a request at ``server`` from holder ``source``, None if local."""
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

    def on_request(self, sim: "Simulation", time: float, server: int, source: int | None) -> None:
        if source is not None and time - self._last_request.get(source, -math.inf) >= self._window[source] - TOL:
            # outward transfer from a special (or just-expired) copy
            sim.drop(source)
        sim.hold(server, time + self._window[server])
        self._last_request[server] = time

    def expire(self, sim: "Simulation", time: float, server: int) -> None:
        if len(sim.holders) > 1:
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

    def on_request(self, sim: "Simulation", time: float, server: int, source: int | None) -> None:
        if source == 1 and sim.holders[1].expiry == math.inf:  # the idle copy was the source; a new copy at 1 also reads inf
            sim.hold(1, self._idle_expiry(time))
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
        if len(sim.holders) > 1:
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

    Every other server holds a per-request window after each of its requests;
    the driver serves one without a copy from the anchor at server 1.
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

    def on_request(self, sim: "Simulation", time: float, server: int, source: int | None) -> None:
        if server != 1:
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
    """The copy a server holds now: its record since ``start`` and its expiry time."""

    start: float  # also the instant a special copy turned special
    kind: str
    origin: int  # request index whose service created or last renewed the copy
    expiry: float = math.inf


_NO_COPY = _LiveCopy(math.nan, KIND_REGULAR, 0, math.nan)  # no alarm time equals its expiry


class Simulation:
    """The driver of one policy over one instance.

    ``run`` serves exactly the instance's requests, so the serve log lists them
    by construction.

    ``holders`` is the one holder table: it maps each holder to its live
    copy, one record with its start, kind and expiry time. Policies read it
    and change it only through ``transfer``, ``drop``, ``mark`` and ``hold``,
    which act at the current event's time. Each finite ``hold`` pushes
    ``(expiry, server)`` onto the alarm heap; an entry that no longer matches
    its holder's expiry (the copy was dropped or held again) is popped unfired.
    """

    def __init__(self, policy: Policy, instance: Instance):
        self._policy = policy
        self._instance = instance
        self.prices = instance._replaced(requests=())
        self.holders: dict[int, _LiveCopy] = {instance.initial_server: _LiveCopy(0.0, KIND_REGULAR, 0)}
        self._alarms: list[tuple[float, int]] = []  # the alarm heap, stale entries included
        self._segments: list[CopyInterval] = []
        self._transfers: list[Transfer] = []
        self._serves: list[tuple] = []  # a ServeRecord row per served request
        self._ran = False
        self._now = 0.0
        self._request = 0  # index of the request being handled; 0 outside a request
        policy.start(self)

    # -- policy actions -----------------------------------------------------

    def transfer(self, src: int, dst: int, purpose: str, kind: str = KIND_REGULAR) -> None:
        """Copy the object from ``src`` to ``dst`` for ``create_copy`` or ``relocate``; it expires at ``inf``."""
        time = self._now
        if purpose not in (PURPOSE_CREATE, PURPOSE_RELOCATE):
            raise PolicyFault(time, f"transfer for {purpose!r}, not {PURPOSE_CREATE!r} or {PURPOSE_RELOCATE!r}")
        holders = self.holders
        copy = holders.get(src)
        if copy is None:
            raise PolicyFault(time, f"transfer from server {src} which holds no copy")
        if dst in holders:
            raise PolicyFault(time, f"transfer into server {dst} which already holds a copy")
        if type(dst) is not int or not 1 <= dst <= self.prices.n:
            raise PolicyFault(time, f"transfer into server {dst!r}, which is not in 1..{self.prices.n}")
        self._transfers.append(Transfer(time, src, dst, purpose))
        holders[dst] = _LiveCopy(time, kind, copy.origin if purpose == PURPOSE_RELOCATE else self._request)

    def drop(self, server: int) -> None:
        holders = self.holders
        if server not in holders:
            raise PolicyFault(self._now, f"drop at server {server} which holds no copy")
        if len(holders) == 1:
            raise PolicyFault(self._now, f"drop of the sole copy at server {server}")
        c = holders.pop(server)
        self._segments.append(CopyInterval(server, c.start, self._now, c.kind))

    def mark(self, server: int, kind: str) -> None:
        """Change the kind of the copy at ``server`` in place: its record closes and a new one starts now."""
        c = self.holders.get(server)
        if c is None:
            raise PolicyFault(self._now, f"kind change at server {server} which holds no copy")
        self._segments.append(CopyInterval(server, c.start, self._now, c.kind))
        c.start, c.kind = self._now, kind

    def hold(self, server: int, until: float) -> None:
        """Set the expiry time of the copy at ``server``."""
        c = self.holders.get(server)
        if c is None:
            raise PolicyFault(self._now, f"hold at server {server} which holds no copy")
        if not until >= self._now:
            problem = "not a time" if until != until else "before the current time"
            raise PolicyFault(self._now, f"hold at server {server} to t={until:g}, {problem}")
        c.expiry = until
        if until < math.inf:
            heappush(self._alarms, (until, server))

    # -- event processing ---------------------------------------------------

    def _expire_before(self, time: float) -> None:
        """Expire the copies due strictly before ``time``, one alarm time at a time.

        At each alarm time the policy's ``expire`` runs for each server due
        then, in server order, skipping one whose expiry an earlier call
        changed; a hold to that time made meanwhile fires in the next group.
        An ``expire`` that leaves its own copy due at the alarm time is a
        ``PolicyFault``.
        """
        heap, holders, policy = self._alarms, self.holders, self._policy
        while True:
            while heap and holders.get(heap[0][1], _NO_COPY).expiry != heap[0][0]:
                heappop(heap)
            if not heap or heap[0][0] >= time:
                return
            alarm = self._now = heap[0][0]
            due = {}  # the servers with an entry at ``alarm``, in server order, each once
            while heap and heap[0][0] == alarm:
                due[heappop(heap)[1]] = None
            for server in due:
                if holders.get(server, _NO_COPY).expiry == alarm:
                    policy.expire(self, alarm, server)
                    if holders.get(server, _NO_COPY).expiry == alarm:
                        raise PolicyFault(alarm, f"expire left the copy at server {server} due at t={alarm:g}")

    def run(self) -> AnnotatedRun:
        """Serve the instance's requests in order, each after its earlier alarms, then wind down.

        A request at a server without a copy is served by a transfer from the
        lowest-numbered holder, which adds a regular copy there; ``on_request``
        then runs with that source, or None for a local serve. Copies then
        expire until every expiry is ``inf``, and those alive are recorded as
        held forever; ``compute_cost`` clips every record at the final request.
        The serve log lists exactly the instance's requests, and the run's
        instance is the one given. A simulation runs once.
        """
        if self._ran:
            raise RuntimeError("simulation already run")
        self._ran = True
        serves, holders, alarms, policy = self._serves, self.holders, self._alarms, self._policy
        for req in self._instance.requests:
            index, time, server = req.index, req.time, req.server
            if alarms and alarms[0][0] < time:
                self._expire_before(time)
            self._now, self._request = time, index
            held = holders.get(server)
            if held is None:
                source = min(holders)
                c = holders[source]
                switch = None if c.kind == KIND_REGULAR else c.start
                serves.append((index, time, server, MODE_TRANSFER, source, c.kind, c.origin, switch))
                self._transfers.append(Transfer(time, source, server, PURPOSE_SERVE))
                holders[server] = _LiveCopy(time, KIND_REGULAR, index)
            else:
                source = None
                switch = None if held.kind == KIND_REGULAR else held.start
                serves.append((index, time, server, MODE_LOCAL, None, held.kind, held.origin, switch))
                if held.kind != KIND_REGULAR:
                    self.mark(server, KIND_REGULAR)
                held.origin = index
            policy.on_request(self, time, server, source)
            self._request = 0
        self._expire_before(math.inf)
        for server, c in holders.items():
            self._segments.append(CopyInterval(server, c.start, math.inf, c.kind))
        holders.clear()
        schedule = ReplicationSchedule(self._instance, self._segments, self._transfers)
        return AnnotatedRun(schedule, tuple(serves), policy.name)


def simulate(policy: "Policy | str", instance: Instance) -> tuple[AnnotatedRun, CostBreakdown]:
    """Run a policy over a full instance; cost is taken at the final request."""
    if isinstance(policy, str):
        policy = make_policy(policy)
    run = Simulation(policy, instance).run()
    return run, compute_cost(run.schedule)
