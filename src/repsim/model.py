"""Core problem model: instances, replication schedules, both schedule validators, exact costs.

A problem instance consists of n servers with per-time-unit storage cost rates
(sorted ascending), a uniform object transfer cost, an initial copy location,
and a sequence of timestamped read requests. A schedule records which servers
hold object copies over which intervals and which transfers were performed.
Feasibility requires at least one live copy at every instant and every request
to be served from a copy at its server (possibly created by a transfer at that
exact time). Instances and schedules are immutable after construction.
``validate_schedule`` checks feasibility and ``validate_offline_structure`` the
laws some optimal schedule obeys; both walk the merged holding spans, a format
private to this module.
"""

from __future__ import annotations

import json
import math
import operator
import re
from bisect import bisect_left, bisect_right
from collections.abc import Iterator
from dataclasses import dataclass
from typing import NamedTuple

TOL = 1e-9

KIND_REGULAR = "regular"
KIND_RESIDENT_SPECIAL = "resident_special"
KIND_RELOCATED_SPECIAL = "relocated_special"
KIND_OFFLINE = "offline"
COPY_KINDS = (KIND_REGULAR, KIND_RESIDENT_SPECIAL, KIND_RELOCATED_SPECIAL, KIND_OFFLINE)
SPECIAL_KINDS = (KIND_RESIDENT_SPECIAL, KIND_RELOCATED_SPECIAL)

PURPOSE_SERVE = "serve_request"
PURPOSE_CREATE = "create_copy"
PURPOSE_RELOCATE = "relocate"


class InstanceFormatError(ValueError):
    """Malformed instance data; carries best-effort file/line context.

    ``request`` is the 0-based position of the offending entry in the
    request list, when one entry is at fault.
    """

    def __init__(
        self, message: str, *, path: str | None = None, line: int | None = None, request: int | None = None
    ):
        ctx = path or ""
        if line is not None:
            ctx += f":line {line}"
        text = message if request is None else f"requests[{request}]: {message}"
        super().__init__(f"{ctx}: {text}" if ctx else text)
        self.message = message
        self.request = request


def _exact_int(value):
    """``value`` as an int when that loses nothing, else unchanged for validation to reject."""
    if isinstance(value, float) and value.is_integer():
        return int(value)
    return operator.index(value) if hasattr(value, "__index__") else value


@dataclass(frozen=True)
class Server:
    """A storage server; index is 1-based, rate is cost per time unit."""

    index: int
    rate: float


@dataclass(frozen=True)
class Request:
    """A read request; index 0 is reserved for the synthetic initial request."""

    index: int
    time: float
    server: int


def _check_transfer_cost(cost: float) -> None:
    if not (math.isfinite(cost) and cost > 0):
        raise InstanceFormatError(f"transfer cost must be finite and strictly positive, got {cost}")


@dataclass(frozen=True)
class Instance:
    """An immutable problem instance.

    The synthetic request r0 (time 0, at the initial server) is materialized
    through ``dummy`` / ``all_requests`` and never receives allocated cost.
    """

    servers: tuple[Server, ...]
    transfer_cost: float
    initial_server: int
    requests: tuple[Request, ...]

    def __post_init__(self) -> None:
        n = len(self.servers)
        if not n:
            raise InstanceFormatError("instance needs at least one server")
        prev_rate = 0.0
        for k, srv in enumerate(self.servers, start=1):
            if srv.index != k:
                raise InstanceFormatError(f"server indices must be 1..n in order, got {srv.index} at position {k}")
            if not (math.isfinite(srv.rate) and srv.rate > 0):
                raise InstanceFormatError(
                    f"storage rate of server {k} must be finite and strictly positive, got {srv.rate}"
                )
            if srv.rate < prev_rate:
                raise InstanceFormatError(f"rates must be ascending: rates[{k}]={srv.rate} < rates[{k - 1}]={prev_rate}")
            prev_rate = srv.rate
        _check_transfer_cost(self.transfer_cost)
        if not (type(self.initial_server) is int and 1 <= self.initial_server <= n):
            raise InstanceFormatError(f"initial server {self.initial_server!r} is not an integer in 1..{n}")
        prev = 0.0
        for k, req in enumerate(self.requests):
            if req.index != k + 1:
                raise InstanceFormatError(f"index must be {k + 1}, got {req.index}", request=k)
            if not (type(req.server) is int and 1 <= req.server <= n):
                raise InstanceFormatError(f"server {req.server!r} is not an integer in 1..{n}", request=k)
            if not math.isfinite(req.time):
                raise InstanceFormatError(f"time {req.time} is not finite", request=k)
            if req.time <= 0:
                raise InstanceFormatError(f"time {req.time} must be > 0 (time 0 is reserved)", request=k)
            if req.time <= prev:
                raise InstanceFormatError(
                    f"time {req.time} does not strictly increase past {prev}"
                    " (tied or out-of-order timestamps are rejected)",
                    request=k,
                )
            prev = req.time

    def with_transfer_cost(self, cost: float) -> Instance:
        """This instance under transfer cost ``cost``, sharing its checked servers and requests."""
        _check_transfer_cost(cost)
        return self._replaced(transfer_cost=cost)

    def _replaced(self, **fields) -> Instance:
        """This instance with ``fields`` replaced and not checked again; the caller vouches for them."""
        new = object.__new__(type(self))
        new.__dict__.update(self.__dict__, **fields)
        return new

    @classmethod
    def build(
        cls,
        rates: "list[float] | tuple[float, ...]",
        transfer_cost: float,
        initial_server: int,
        requests: "list[tuple[float, int]] | tuple[tuple[float, int], ...]" = (),
    ) -> "Instance":
        """Instance from plain numbers; servers are 1-based indices, rates ascending."""
        servers = tuple(Server(i + 1, float(r)) for i, r in enumerate(rates))
        reqs = tuple(Request(j + 1, float(t), _exact_int(s)) for j, (t, s) in enumerate(requests))
        return cls(servers, float(transfer_cost), _exact_int(initial_server), reqs)

    @property
    def n(self) -> int:
        return len(self.servers)

    @property
    def m(self) -> int:
        return len(self.requests)

    def rate(self, server: int) -> float:
        return self.servers[server - 1].rate

    @property
    def dummy(self) -> Request:
        return Request(0, 0.0, self.initial_server)

    @property
    def all_requests(self) -> tuple[Request, ...]:
        return (self.dummy,) + self.requests

    @property
    def horizon(self) -> float:
        """Time of the final request; 0 when there are no real requests."""
        return self.requests[-1].time if self.requests else 0.0


def max_min_rate_ratio(instance: Instance) -> float:
    """Ratio of the largest to the smallest storage rate; 1.0 when all equal."""
    return instance.servers[-1].rate / instance.servers[0].rate


def competitive_bound(instance: Instance) -> float:
    """Worst-case guarantee of the threshold policy: max(2, min(ratio, 3))."""
    return max(2.0, min(max_min_rate_ratio(instance), 3.0))


class CopyInterval(NamedTuple):
    """A copy held at ``server`` over [start, end], with its copy kind; ``end`` is ``inf`` if held forever.

    ``compute_cost`` clips every record at its horizon, so no record is split at the final request.
    """

    server: int
    start: float
    end: float
    kind: str = KIND_REGULAR


class Transfer(NamedTuple):
    time: float
    src: int
    dst: int
    purpose: str = PURPOSE_SERVE


@dataclass(frozen=True)
class ReplicationSchedule:
    """Full record of one run: copy intervals plus transfers, in the one schedule order.

    Whatever order they come in, ``copies`` are stored sorted by (start, server,
    end) and ``transfers`` by (time, src, dst), ties as given; validators rely on it.
    This is the one check of the records' fields: no copy ends more than TOL
    before it starts or has an unknown kind, and no transfer is a self-loop.
    """

    instance: Instance
    copies: tuple[CopyInterval, ...]
    transfers: tuple[Transfer, ...]

    def __post_init__(self) -> None:
        copies = tuple(sorted(self.copies, key=operator.attrgetter("start", "server", "end")))
        transfers = tuple(sorted(self.transfers, key=operator.attrgetter("time", "src", "dst")))
        for _, start, end, kind in copies:
            if end < start - TOL:
                raise ValueError(f"interval end {end} precedes start {start}")
            if kind not in COPY_KINDS:
                raise ValueError(f"unknown copy kind {kind!r}")
        for _, src, dst, _ in transfers:
            if src == dst:
                raise ValueError("transfer source and destination must differ")
        object.__setattr__(self, "copies", copies)
        object.__setattr__(self, "transfers", transfers)


def schedule_lines(schedule: ReplicationSchedule) -> list[str]:
    """COPY then XFER records in stored order: copies by (start, server, end), transfers by (time, src, dst)."""
    copies = [f"COPY {c.server} {c.start:.10g} {c.end:.10g} {c.kind}" for c in schedule.copies]
    return copies + [f"XFER {t.time:.10g} {t.src} {t.dst} {t.purpose}" for t in schedule.transfers]


@dataclass(frozen=True)
class Violation:
    time: float
    description: str


def _holding_spans(schedule: ReplicationSchedule) -> dict[int, list[tuple[float, float]]]:
    """Each server's maximal contiguous holding spans, kind splits merged.

    Every server of the instance has an entry, empty when it never holds.
    It relies on the schedule's order, which lists each server's copies by
    (start, end). The validators' forward walks rely on this contract,
    per server: spans are sorted by start; each span starts more than TOL
    after the previous one ends (``start > prev_end + TOL`` as computed); so
    ends never decrease, and they strictly increase unless a copy ends before
    it starts (which the schedule allows within TOL).
    """
    spans: dict[int, list[tuple[float, float]]] = {s.index: [] for s in schedule.instance.servers}
    for c in schedule.copies:
        lst = spans.setdefault(c.server, [])
        if lst and c.start <= lst[-1][1] + TOL:
            lst[-1] = (lst[-1][0], max(lst[-1][1], c.end))
        else:
            lst.append((c.start, c.end))
    return spans


def _walk_spans(spans: list[tuple[float, float]], i: int, t: float) -> int:
    """The count of one server's spans with ``start - TOL <= t``, walked on from the count ``i`` for an earlier ``t``."""
    while i < len(spans) and spans[i][0] - TOL <= t:
        i += 1
    return i


def _unmatched(times: list[float], queries: list[float]) -> Iterator[float]:
    """The ascending ``queries`` with none of the ascending ``times`` within TOL (only their neighbours can be)."""
    j = 0
    for t in queries:
        while j < len(times) and times[j] < t:
            j += 1
        if not ((j > 0 and abs(times[j - 1] - t) <= TOL) or (j < len(times) and abs(times[j] - t) <= TOL)):
            yield t


def validate_schedule(schedule: ReplicationSchedule) -> list[Violation]:
    """Check feasibility; returns every violation found (empty means valid).

    Checks the three schedule invariants: at least one copy at every time in
    [0, horizon], every request served by a local copy at its time, and every
    copy creation sourced by a transfer into that server at its start time
    (the initial copy at the initial server being the one exception).
    Each check walks records in the schedule's order forward once, with one
    pointer per server into its spans or its inbound transfer times, which
    keeps it at O(m + copies + transfers) time.
    """
    inst = schedule.instance
    out: list[Violation] = []

    horizon = inst.horizon
    covered = 0.0
    for start, end in ((max(c.start, 0.0), c.end) for c in schedule.copies):  # in order of start
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
    walked = dict.fromkeys(spans_by_server, 0)  # per server, its spans that start by the latest request there
    for req in inst.all_requests:
        spans = spans_by_server[req.server]
        i = walked[req.server] = _walk_spans(spans, walked[req.server], req.time)
        if not (i and req.time <= spans[i - 1][1] + TOL):
            message = f"request {req.index} at t={req.time:g} unserved: server {req.server} holds no copy"
            out.append(Violation(req.time, message))

    transfers_in: dict[int, list[float]] = {}  # each destination's inbound times, ascending as stored
    for tr in schedule.transfers:
        transfers_in.setdefault(tr.dst, []).append(tr.time)
    for server, spans in spans_by_server.items():
        starts = [a for a, _ in spans if not (a <= TOL and server == inst.initial_server)]
        for start in _unmatched(transfers_in.get(server, []), starts):
            message = f"unsourced copy: server {server} copy starting at t={start:g} has no inbound transfer"
            out.append(Violation(start, message))
    return out


def validate_offline_structure(schedule: ReplicationSchedule) -> list[Violation]:
    """Check the structural laws every optimal schedule can be assumed to obey.

    (a) every transfer happens at some request time (the synthetic time-0
    request included); (b) when two consecutive requests at one server are
    close enough that storing between them is no costlier than one transfer,
    the server holds a copy throughout the gap; (c) the one-far-holder law:
    at each step ``i`` before the last, at most one server is both far at
    step ``i`` and holding a copy through ``[t_i, t_(i+1)]``. Server ``s`` is
    far at step ``i`` when ``rate_s * (next request at s after t_i - t_i) >
    transfer + TOL`` (``inf`` without one); rounding ties are near.

    The law holds for some optimal schedule. Of two far holders, drop at
    ``t_i`` the one whose copy ends first. The other survives at least as
    long, so it keeps the object alive and can act as a source. If the
    dropped copy would have lasted to its server's next request, serving that
    request by transfer costs one transfer and saves more than one transfer
    of storage; otherwise the drop only saves storage. The oracle prunes
    nothing by the law; ``repsim verify`` holds its schedules to it here.

    Each check walks sorted records forward once: (a) one pointer into the
    request times; (b) each server's consecutive steps, with one pointer into
    its spans; (c) each span the steps it holds through, from a bisection of
    the request times for its start, with a pointer into its server's steps
    for each step's next request there. That is O(m + transfers + spans log m
    + m * holders) time, plus sorting what (b) and (c) find by step.
    """
    inst = schedule.instance
    out: list[Violation] = []
    steps = [(0.0, inst.initial_server)] + [(r.time, r.server) for r in inst.requests]
    req_times = [t for t, _ in steps]
    for t in _unmatched(req_times, [tr.time for tr in schedule.transfers]):
        out.append(Violation(t, f"transfer at t={t:g} coincides with no request time"))

    spans = _holding_spans(schedule)
    own_steps: list[list[int]] = [[] for _ in range(inst.n + 1)]  # per server, its steps in order
    for i, (_, server) in enumerate(steps):
        own_steps[server].append(i)
    rates = [0.0] + [server.rate for server in inst.servers]
    bar = inst.transfer_cost + TOL
    unheld: dict[int, Violation] = {}  # by step
    for server in range(1, inst.n + 1):
        walked = 0  # the server's spans that start by its previous step
        for i, j in zip(own_steps[server], own_steps[server][1:]):
            t_prev, t = req_times[i], req_times[j]
            if rates[server] * (t - t_prev) <= bar:
                walked = _walk_spans(spans[server], walked, t_prev)
                if not (walked and t <= spans[server][walked - 1][1] + TOL):
                    message = f"request {j}: server {server} does not hold a copy through ({t_prev:g}, {t:g})"
                    unheld[j] = Violation(t, f"{message} although storing is no costlier than a transfer")
    out += [unheld[j] for j in sorted(unheld)]

    far_holders: dict[int, list[int]] = {}  # by step
    last = len(steps) - 1
    for server in range(1, inst.n + 1):
        rate, mine = rates[server], own_steps[server] + [last + 1]  # a sentinel past the last step
        ahead = [req_times[j] for j in mine[:-1]] + [math.inf]  # the time of each step of ``mine``
        for a, b in spans[server]:
            i, end = bisect_left(req_times, a - TOL), b + TOL
            k = bisect_right(mine, i)  # the server's next step after step i
            while i < last and req_times[i + 1] <= end:
                if rate * (ahead[k] - req_times[i]) > bar:
                    far_holders.setdefault(i, []).append(server)
                i += 1
                if mine[k] == i:
                    k += 1
    for i in sorted(far_holders):
        # a set: two spans of one server can both hold through a gap inside the TOL band between them
        if len(held := set(far_holders[i])) > 1:
            t0, t1 = req_times[i], req_times[i + 1]
            message = f"request {i}: far servers {', '.join(map(str, sorted(held)))} each hold a copy"
            out.append(Violation(t0, f"{message} through ({t0:g}, {t1:g}) although one far holder suffices"))
    return out


@dataclass(frozen=True)
class CostBreakdown:
    storage: float
    transfer: float
    total: float
    per_server_storage: dict[int, float]
    transfer_count: int


def compute_cost(schedule: ReplicationSchedule, horizon: float | None = None) -> CostBreakdown:
    """Exact cost of a schedule up to ``horizon``.

    Storage accrues only over [0, horizon] (intervals clipped); every transfer
    at time <= horizon costs the uniform transfer cost. Defaults to the time
    of the final request.
    """
    inst = schedule.instance
    if horizon is None:
        horizon = inst.horizon
    if horizon < 0:
        raise ValueError(f"horizon must be nonnegative, got {horizon}")
    rates = {s.index: s.rate for s in inst.servers}
    per_server = dict.fromkeys(rates, 0.0)
    for c in schedule.copies:
        # max(start, 0.0) and min(end, horizon), written out: the builtins double the loop's time
        lo = 0.0 if c.start < 0.0 else c.start
        end = c.end
        hi = horizon if horizon < end else end
        if hi > lo:
            per_server[c.server] += rates[c.server] * (hi - lo)
    storage = sum(per_server.values())
    count = sum(1 for t in schedule.transfers if t.time <= horizon + TOL)
    transfer = inst.transfer_cost * count
    return CostBreakdown(storage, transfer, storage + transfer, per_server, count)


# ---------------------------------------------------------------------------
# Instance file format (JSON)

def dumps_instance(instance: Instance) -> str:
    """Serialize to the toolkit's JSON instance format, one request per line."""
    rates = json.dumps([s.rate for s in instance.servers])
    body = ",\n".join(f'    {{"t": {r.time!r}, "s": {r.server}}}' for r in instance.requests)
    requests = f"[\n{body}\n  ]" if body else "[]"
    return (
        f'{{\n  "lambda": {instance.transfer_cost!r},\n  "initial_server": {instance.initial_server},\n'
        f'  "rates": {rates},\n  "requests": {requests}\n}}\n'
    )


def dump_instance(instance: Instance, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps_instance(instance))


_SEPARATORS = re.compile(r"[\s,:]*")


def _request_line(text: str, k: int) -> int:
    """Line number of the k-th (0-based) entry of the 'requests' array, whatever its type.

    ``text`` must hold a JSON object; the scan walks its top-level members as
    ``json.loads`` does, so the last 'requests' key wins.
    """
    decode = json.JSONDecoder().raw_decode
    pos = _SEPARATORS.match(text, text.index("{") + 1).end()
    start = pos
    while text[pos] != "}":
        key, pos = decode(text, pos)
        pos = _SEPARATORS.match(text, pos).end()
        if key == "requests":
            start = pos + 1  # past its '['
        pos = _SEPARATORS.match(text, decode(text, pos)[1]).end()
    pos = _SEPARATORS.match(text, start).end()
    for _ in range(k):
        pos = _SEPARATORS.match(text, decode(text, pos)[1]).end()
    return text.count("\n", 0, pos) + 1


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def loads_instance(text: str, path: str | None = None) -> Instance:
    """Parse the JSON instance format; ``Instance`` validates the values."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InstanceFormatError(f"invalid JSON: {exc.msg}", path=path, line=exc.lineno) from exc
    if not isinstance(doc, dict):
        raise InstanceFormatError("top-level value must be an object", path=path)
    for key in ("lambda", "initial_server", "rates", "requests"):
        if key not in doc:
            raise InstanceFormatError(f"missing key {key!r}", path=path)
    for key in ("lambda", "initial_server"):
        if not _is_number(doc[key]):
            raise InstanceFormatError(f"{key!r} must be a number, got {doc[key]!r}", path=path)
    rates = doc["rates"]
    if not isinstance(rates, list) or not all(map(_is_number, rates)):
        raise InstanceFormatError("'rates' must be an array of numbers", path=path)
    reqs = doc["requests"]
    if not isinstance(reqs, list):
        raise InstanceFormatError("'requests' must be an array", path=path)
    pairs: list[tuple[float, int]] = []
    for k, entry in enumerate(reqs):
        if not (isinstance(entry, dict) and _is_number(entry.get("t")) and _is_number(entry.get("s"))):
            raise InstanceFormatError(
                "must be an object with numbers 't' and 's'", path=path, line=_request_line(text, k), request=k
            )
        pairs.append((entry["t"], entry["s"]))
    try:
        return Instance.build(rates, doc["lambda"], doc["initial_server"], pairs)
    except InstanceFormatError as exc:
        line = None if exc.request is None else _request_line(text, exc.request)
        raise InstanceFormatError(exc.message, path=path, line=line, request=exc.request) from exc
    except OverflowError as exc:  # an integer beyond the float range
        raise InstanceFormatError(f"number too large: {exc}", path=path) from exc


def load_instance(path: str) -> Instance:
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    return loads_instance(text, path=path)
