"""Online policies and the event-driven simulation driver.

The driver owns the ground truth (which servers hold copies) and the recorded
schedule. A policy receives request and alarm events in time order and reacts
with transfer, drop, or kind-change actions. The driver
validates every action against the current holder set and aborts with a
policy fault when a policy would break feasibility.

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
    ReplicationSchedule,
    Transfer,
    compute_cost,
)

MODE_LOCAL = "local"
MODE_TRANSFER = "transfer"


class PolicyFault(RuntimeError):
    """A policy emitted an infeasible action or left a request unserved."""

    def __init__(self, time: float, message: str):
        super().__init__(f"policy fault at t={time:g}: {message}")
        self.time = time


@dataclass(frozen=True)
class TransferAction:
    src: int
    dst: int
    purpose: str = PURPOSE_SERVE
    kind: str = KIND_REGULAR


@dataclass(frozen=True)
class DropAction:
    server: int


@dataclass(frozen=True)
class MarkAction:
    """Switch the kind of a held copy in place (regular to special)."""

    server: int
    kind: str


class Policy:
    """Base class for online policies.

    A policy tracks one expiry time per held copy in ``_expiry`` (``inf`` for
    a copy kept indefinitely) and reacts to requests and to its own alarms,
    which fire at the earliest finite expiry. After the final request the
    driver keeps firing alarms until ``settled()``; copies still alive then
    are recorded as held forever.
    """

    name = "abstract"
    uses_copy_exclusions = False

    def reset(self, instance: Instance) -> None:
        """Start a run: the initial copy holds one window from time 0."""
        self._inst = instance
        self._lam = instance.transfer_cost
        g = instance.initial_server
        self._expiry: dict[int, float] = {g: self._window(g)}

    def _window(self, server: int) -> float:
        return self._lam / self._inst.rate(server)

    def setup_actions(self) -> list:
        """Actions applied at time 0, right after the initial copy is placed."""
        return []

    def on_request(self, time: float, server: int) -> list:
        """Actions serving a request at ``server``; they must leave it holding a copy."""
        raise NotImplementedError

    def on_alarm(self, time: float) -> list:
        """Actions for the copies expiring at ``time``: the policy's expiry rules.

        They run both between requests and in the wind-down after the final
        request, so a subclass states each rule once, in this method.
        """
        raise NotImplementedError

    def next_alarm(self) -> float | None:
        """Earliest finite expiry, or None when no alarm is pending."""
        alarm = min(self._expiry.values(), default=math.inf)
        return alarm if math.isfinite(alarm) else None

    def settled(self) -> bool:
        """True once further alarms would change nothing: none is pending.

        A policy whose alarms renew some copy forever must override this, or
        the wind-down after the final request never ends.
        """
        return self.next_alarm() is None


class ThresholdPolicy(Policy):
    """Per-request windows with sole-copy special handling.

    After each local request a server keeps the copy for window = transfer
    cost / its rate. On expiry a non-sole copy is dropped. A sole copy is
    kept indefinitely where the rate is at most three times the cheapest
    rate, and otherwise moved to the cheapest server and kept there. A
    holder that has been silent at least one full window drops its copy
    right after serving an outward transfer.
    """

    name = "alg1"
    uses_copy_exclusions = True

    def reset(self, instance: Instance) -> None:
        super().reset(instance)
        self._last_request: dict[int, float] = {instance.initial_server: 0.0}

    def on_request(self, time: float, server: int) -> list:
        acts: list = []
        if server in self._expiry:
            self._expiry[server] = time + self._window(server)
        else:
            src = min(self._expiry)
            acts.append(TransferAction(src, server, PURPOSE_SERVE))
            if time - self._last_request.get(src, -math.inf) >= self._window(src) - TOL:
                # outward transfer from a special (or just-expired) copy
                del self._expiry[src]
                acts.append(DropAction(src))
            self._expiry[server] = time + self._window(server)
        self._last_request[server] = time
        return acts

    def on_alarm(self, time: float) -> list:
        acts: list = []
        for server in sorted(s for s, e in self._expiry.items() if e == time):
            if self._expiry.get(server) != time:
                continue
            if len(self._expiry) > 1:
                del self._expiry[server]
                acts.append(DropAction(server))
            elif self._inst.rate(server) <= 3.0 * self._inst.rate(1) + TOL:
                self._expiry[server] = math.inf
                acts.append(MarkAction(server, KIND_RESIDENT_SPECIAL))
            else:
                del self._expiry[server]
                self._expiry[1] = math.inf
                acts.append(TransferAction(server, 1, PURPOSE_RELOCATE, kind=KIND_RELOCATED_SPECIAL))
                acts.append(DropAction(server))
        return acts


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

    def reset(self, instance: Instance) -> None:
        super().reset(instance)
        self._renewed: set[int] = set()

    def on_request(self, time: float, server: int) -> list:
        acts: list = []
        if server not in self._expiry:
            src = min(self._expiry)
            acts.append(TransferAction(src, server, PURPOSE_SERVE))
        self._expiry[server] = time + self._window(server)
        self._renewed.discard(server)
        return acts

    def on_alarm(self, time: float) -> list:
        acts: list = []
        for server in sorted(s for s, e in self._expiry.items() if e == time):
            if self._expiry.get(server) != time:
                continue
            if len(self._expiry) > 1:
                del self._expiry[server]
                self._renewed.discard(server)
                acts.append(DropAction(server))
            elif server == 1:
                self._expiry[server] = time + self._window(1)
            elif server not in self._renewed:
                self._renewed.add(server)
                self._expiry[server] = time + self._window(server)
            else:
                del self._expiry[server]
                self._renewed.discard(server)
                acts.append(TransferAction(server, 1, PURPOSE_RELOCATE))
                acts.append(DropAction(server))
                self._expiry[1] = time + self._window(1)
        return acts

    def settled(self) -> bool:
        """Also settled with the sole copy at the cheapest server, which renews forever."""
        return super().settled() or list(self._expiry) == [1]


class AnchorPolicy(Policy):
    """Benchmark keeping a permanent copy at the cheapest server.

    Every other server holds a per-request window after each local request;
    requests at copyless servers are served by a transfer from the anchor.
    When the initial copy is elsewhere, the anchor is created by a transfer
    at time 0 and the initial copy dropped immediately.
    """

    name = "simple"

    def reset(self, instance: Instance) -> None:
        super().reset(instance)
        self._expiry = {1: math.inf}

    def setup_actions(self) -> list:
        g = self._inst.initial_server
        if g == 1:
            return []
        return [TransferAction(g, 1, PURPOSE_CREATE), DropAction(g)]

    def on_request(self, time: float, server: int) -> list:
        acts: list = []
        if server == 1:
            return acts
        if server not in self._expiry:
            acts.append(TransferAction(1, server, PURPOSE_SERVE))
        self._expiry[server] = time + self._window(server)
        return acts

    def on_alarm(self, time: float) -> list:
        acts: list = []
        for server in sorted(s for s, e in self._expiry.items() if e == time and s != 1):
            del self._expiry[server]
            acts.append(DropAction(server))
        return acts


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


@dataclass(frozen=True)
class ServeRecord:
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
    """A schedule plus per-request serving annotations from one policy run."""

    schedule: ReplicationSchedule
    serves: tuple[ServeRecord, ...]
    policy_name: str

    def event_log(self) -> str:
        """Line-oriented export: COPY / XFER / SERVE records."""
        lines = []
        for c in sorted(self.schedule.copies, key=lambda c: (c.start, c.server, c.end)):
            lines.append(f"COPY {c.server} {c.start:.10g} {c.end:.10g} {c.kind}")
        for t in sorted(self.schedule.transfers, key=lambda t: (t.time, t.src, t.dst)):
            lines.append(f"XFER {t.time:.10g} {t.src} {t.dst} {t.purpose}")
        for s in self.serves:
            lines.append(f"SERVE {s.index} {s.time:.10g} {s.server} {s.mode}")
        return "\n".join(lines) + ("\n" if lines else "")


@dataclass
class _LiveCopy:
    server: int
    start: float
    kind: str
    origin: int  # request index whose service created or last renewed the copy
    switch: float | None
    excluded: bool = False


class Simulation:
    """Stepwise driver; supports full-trace runs and adaptive request injection."""

    def __init__(self, policy: Policy, instance: Instance):
        self._policy = policy
        self._inst = instance
        self._live: dict[int, _LiveCopy] = {}
        self._segments: list[CopyInterval] = []
        self._transfers: list[Transfer] = []
        self._serves: list[ServeRecord] = []
        self._injected: list[tuple[float, int]] = []
        self._finalized = False
        g = instance.initial_server
        self._live[g] = _LiveCopy(g, 0.0, KIND_REGULAR, 0, None)
        policy.reset(instance)
        for act in policy.setup_actions():
            self._apply(0.0, act, request_index=0)

    # -- state inspection ---------------------------------------------------

    def holders(self) -> set[int]:
        return set(self._live)

    # -- event processing ---------------------------------------------------

    def _close_segment(self, server: int, end: float) -> None:
        c = self._live.pop(server)
        self._segments.append(CopyInterval(c.server, c.start, end, c.kind, c.excluded))

    def _apply(self, time: float, act, request_index: int | None = None) -> ServeRecord | None:
        if isinstance(act, TransferAction):
            src = self._live.get(act.src)
            if src is None:
                raise PolicyFault(time, f"transfer from server {act.src} which holds no copy")
            record = None
            if act.purpose == PURPOSE_SERVE:
                if request_index is None:
                    raise PolicyFault(time, "serve transfer outside a request event")
                record = ServeRecord(
                    request_index, time, act.dst, MODE_TRANSFER, act.src, src.kind, src.origin, src.switch
                )
            if act.dst in self._live:
                raise PolicyFault(time, f"transfer into server {act.dst} which already holds a copy")
            self._transfers.append(Transfer(time, act.src, act.dst, act.purpose))
            if act.purpose == PURPOSE_RELOCATE:
                origin = src.origin
                switch = time if act.kind in SPECIAL_KINDS else None
            else:
                origin = request_index if request_index is not None else 0
                switch = None
            self._live[act.dst] = _LiveCopy(act.dst, time, act.kind, origin, switch)
            return record
        if isinstance(act, DropAction):
            if act.server not in self._live:
                raise PolicyFault(time, f"drop at server {act.server} which holds no copy")
            self._close_segment(act.server, time)
            return None
        if isinstance(act, MarkAction):
            cur = self._live.get(act.server)
            if cur is None:
                raise PolicyFault(time, f"kind change at server {act.server} which holds no copy")
            self._close_segment(act.server, time)
            self._live[act.server] = _LiveCopy(act.server, time, act.kind, cur.origin, time)
            return None
        raise PolicyFault(time, f"unknown action {act!r}")

    def run_alarms_before(self, limit: float) -> None:
        """Process all alarms strictly earlier than ``limit``."""
        while self.step_alarm(limit) is not None:
            pass

    def step_alarm(self, before: float = math.inf) -> float | None:
        """Process the next alarm batch if it falls strictly before ``before``.

        Returns the batch's time, or None when no such alarm is pending.
        """
        alarm = self._policy.next_alarm()
        if alarm is None or alarm >= before:
            return None
        for act in self._policy.on_alarm(alarm):
            self._apply(alarm, act)
        return alarm

    def inject_request(self, time: float, server: int) -> ServeRecord:
        """Deliver one request after draining earlier alarms."""
        self.run_alarms_before(time)
        index = len(self._injected) + 1
        self._injected.append((time, server))
        record: ServeRecord | None = None
        held = self._live.get(server)
        if held is not None:
            record = ServeRecord(index, time, server, MODE_LOCAL, None, held.kind, held.origin, held.switch)
            if held.kind != KIND_REGULAR:
                self._close_segment(server, time)
                self._live[server] = _LiveCopy(server, time, KIND_REGULAR, index, None)
            else:
                held.origin = index
        for act in self._policy.on_request(time, server):
            got = self._apply(time, act, request_index=index)
            if got is not None:
                if record is not None:
                    raise PolicyFault(time, f"request {index} served twice")
                record = got
        if record is None or record.server != server:
            raise PolicyFault(time, f"request {index} at server {server} left unserved")
        self._serves.append(record)
        return record

    def finalize(self) -> AnnotatedRun:
        """Fire the policy's alarms until it is settled, then assemble the run.

        Copies alive at that point are recorded as held forever.
        """
        if self._finalized:
            raise RuntimeError("simulation already finalized")
        self._finalized = True
        horizon, last_server = self._injected[-1] if self._injected else (0.0, self._inst.initial_server)
        if self._policy.uses_copy_exclusions:
            cur = self._live.get(last_server)
            if cur is not None and cur.kind == KIND_REGULAR:
                # split so the post-final window is a separate, excluded record
                if cur.start < horizon - TOL:
                    self._close_segment(last_server, horizon)
                    self._live[last_server] = _LiveCopy(
                        last_server, horizon, KIND_REGULAR, cur.origin, None, excluded=True
                    )
                else:
                    cur.excluded = True
        while not self._policy.settled():
            self.step_alarm()
        for server in sorted(self._live):
            c = self._live[server]
            excluded = c.excluded or (self._policy.uses_copy_exclusions and c.kind in SPECIAL_KINDS)
            self._segments.append(CopyInterval(c.server, c.start, math.inf, c.kind, excluded))
        self._live.clear()
        if self._inst.requests:
            instance = self._inst
        else:
            instance = Instance.build(
                [s.rate for s in self._inst.servers],
                self._inst.transfer_cost,
                self._inst.initial_server,
                self._injected,
            )
        schedule = ReplicationSchedule(
            instance,
            tuple(sorted(self._segments, key=lambda c: (c.start, c.server, c.end))),
            tuple(sorted(self._transfers, key=lambda t: (t.time, t.src, t.dst))),
        )
        return AnnotatedRun(schedule, tuple(self._serves), self._policy.name)


def simulate(policy: "Policy | str", instance: Instance) -> tuple[AnnotatedRun, CostBreakdown]:
    """Run a policy over a full instance; cost is taken at the final request."""
    if isinstance(policy, str):
        policy = make_policy(policy)
    sim = Simulation(policy, instance)
    for req in instance.requests:
        sim.inject_request(req.time, req.server)
    run = sim.finalize()
    return run, compute_cost(run.schedule, instance.horizon)
