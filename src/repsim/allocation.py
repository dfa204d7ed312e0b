"""Request typing and per-request cost allocation for threshold-policy runs.

Each served request is assigned one of six categories from how it was served
(transfer vs local copy) crossed with the kind of the providing copy (regular,
resident special, relocated special). The run's entire cost up to the final
request is then split across requests:

* the serving transfer goes to the request it serves,
* the relocation transfer behind a relocated copy goes to the request that
  copy serves,
* special-copy storage goes to the request the special copy serves,
* the holding window opened by a request goes to the next local request, and
* the windows left trailing after each server's last request (except the
  final request's server, whose trailing copies carry no horizon cost) are
  charged as surcharges to the first transfer-era request at each server.

The sum of all allocations equals the run's cost at the final-request horizon.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from typing import NamedTuple

from .model import (
    KIND_REGULAR,
    KIND_RELOCATED_SPECIAL,
    KIND_RESIDENT_SPECIAL,
    Request,
)
from .policies import MODE_LOCAL, MODE_TRANSFER, AnnotatedRun

_CATEGORY = {
    (MODE_TRANSFER, KIND_REGULAR): 1,
    (MODE_TRANSFER, KIND_RESIDENT_SPECIAL): 2,
    (MODE_TRANSFER, KIND_RELOCATED_SPECIAL): 3,
    (MODE_LOCAL, KIND_REGULAR): 4,
    (MODE_LOCAL, KIND_RESIDENT_SPECIAL): 5,
    (MODE_LOCAL, KIND_RELOCATED_SPECIAL): 6,
}


class RequestTyping(NamedTuple):
    index: int
    category: int  # 1..6
    provider: int  # index of the request whose retained copy served this one
    switch_time: float | None  # regular-to-special instant, categories 2/3/5/6
    served_by: str  # local | transfer


@dataclass(frozen=True)
class AllocationReport:
    entries: tuple[tuple[Request, RequestTyping, float], ...]
    first_request_surcharges: tuple[tuple[int, float], ...]  # (request index, amount)

    @property
    def total_allocated(self) -> float:
        return sum(a for _, _, a in self.entries) + sum(a for _, a in self.first_request_surcharges)

    def surcharge_of(self, index: int) -> float:
        for j, amount in self.first_request_surcharges:
            if j == index:
                return amount
        return 0.0

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["j", "type", "q", "t_prime", "allocated_cost", "surcharge"])
        for req, typing, alloc in self.entries:
            writer.writerow(
                [
                    req.index,
                    typing.category,
                    typing.provider,
                    "" if typing.switch_time is None else f"{typing.switch_time:.10g}",
                    f"{alloc:.10g}",
                    f"{self.surcharge_of(req.index):.10g}",
                ]
            )
        return buf.getvalue()


def classify_and_allocate(run: AnnotatedRun) -> AllocationReport:
    """Type every request of a threshold-policy run and split the run's cost.

    Only threshold-policy runs carry the copy-kind annotations the taxonomy
    needs; runs from other policies are rejected. One pass over the run's
    serve log does it all: the driver makes that log list exactly the
    requests of the schedule's instance, in order, by construction.
    """
    if run.policy_name != "alg1":
        raise ValueError(
            f"allocation needs copy-kind annotations from the threshold policy, got a {run.policy_name!r} run"
        )
    inst = run.schedule.instance
    lam = inst.transfer_cost
    all_reqs = inst.all_requests

    rates = [0.0] + [srv.rate for srv in inst.servers]  # by server index
    last_seen = {inst.initial_server: 0}  # each server's latest request so far, by index
    first_at: dict[int, int] = {}  # each requested server's first request, by index
    entries: list[tuple[Request, RequestTyping, float]] = []
    for index, time, server, mode, _source, copy_kind, provider, switch_time in run.serve_rows:
        category = _CATEGORY[mode, copy_kind]
        alloc = 0.0
        if category in (1, 2, 3):
            alloc += lam  # serving transfer
        if category in (3, 6):
            alloc += lam  # relocation transfer behind the providing copy
        if category in (2, 5):
            alloc += rates[all_reqs[provider].server] * (time - switch_time)
        elif category in (3, 6):
            alloc += rates[1] * (time - switch_time)
        p = last_seen.get(server)
        if category == 4:
            alloc += rates[server] * (time - all_reqs[p].time)
        elif p is not None:
            alloc += lam  # full window opened by the preceding local request
        last_seen[server] = index
        first_at.setdefault(server, index)
        entries.append((all_reqs[index], RequestTyping(index, category, provider, switch_time, mode), alloc))

    # Trailing windows after each server's last request, clipped at the
    # horizon, are charged to the first request at each server other than
    # the initial one. The final request's server self-pairs with the
    # initial server's trailing window.
    surcharges: list[tuple[int, float]] = []
    for server in sorted(first_at.keys() - {inst.initial_server}):
        pool_server = server if server != all_reqs[-1].server else inst.initial_server
        t_last = all_reqs[last_seen[pool_server]].time
        end = min(t_last + lam / rates[pool_server], inst.horizon)
        surcharges.append((first_at[server], rates[pool_server] * max(0.0, end - t_last)))
    return AllocationReport(tuple(entries), tuple(surcharges))
