"""Trace ingestion, request assignment, and transfer-cost sweep experiments.

The sweep mirrors the evaluation setup: 10 servers under one of four storage
rate sets, requests from a real or synthetic trace assigned uniformly at
random across servers, transfer costs swept over a grid, and every policy's
cost normalized by the exact offline optimum. All transfer costs of one rate
set share one pass of the full oracle (``opt_costs``).
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass, field
from operator import itemgetter

import numpy as np

from .model import Instance, _check_transfer_cost
from .offline import BudgetExceeded, opt_costs
from .policies import make_policy, simulate

RATE_SETS: dict[str, tuple[float, ...]] = {
    "set1": (1, 1, 1, 1, 1, 1, 1, 1, 1, 1),
    "set2": (1, 1.1, 1.2, 1.3, 1.3, 1.4, 1.5, 1.7, 2.1, 2.3),
    "set3": (1, 1.1, 1.2, 1.5, 1.6, 2.1, 2.3, 2.7, 3.1, 4),
    "set4": (1, 1.1, 1.2, 1.3, 1.5, 2.1, 3, 6, 10, 15),
}

DEFAULT_LAMBDA_VALUES: tuple[float, ...] = tuple(float(v) for v in range(50, 1201, 25))
DEFAULT_POLICIES: tuple[str, ...] = ("alg1", "wang", "simple")
READ_OPS = ("READ", "GET")  # a record is a read when its op contains one of these, in any case


def _reads(path: str, object_id: str, column_map: dict[str, "str | int"], delimiter: str):
    """Each read of ``object_id`` in a delimited trace as ``(line, time)``, in file order.

    ``column_map`` maps the keys ``timestamp``, ``op`` and ``object_id`` to
    column names (header row) or 0-based positions (no header assumed). Blank
    lines are skipped; a record that lacks a column or whose timestamp is not
    a finite number, and a line that is not UTF-8, are reported by file and
    line. Op and object fields are stripped of surrounding whitespace. One
    second of source time becomes one time unit, with t=0 at the first record.
    """
    keys = ("timestamp", "op", "object_id")
    for key in keys:
        if key not in column_map:
            raise ValueError(f"column_map is missing required key {key!r}")
    t0 = None
    try:
        with open(path, "r", encoding="utf-8") as fh:
            reader = csv.reader(fh, delimiter=delimiter)
            rows = ((reader.line_num, row) for row in reader)  # a quoted field may span lines
            if all(isinstance(v, int) for v in column_map.values()):
                cols = [column_map[key] for key in keys]
            else:
                _, header = next(rows, (0, None))
                if header is None:
                    raise ValueError(f"{path}: empty trace file")
                position = {name: i for i, name in enumerate(header)}  # a repeated name means its last column
                for key, col in column_map.items():
                    if col not in position:
                        raise ValueError(f"{path}: column {col!r} (for {key}) not found in header {header}")
                cols = [position[column_map[key]] for key in keys]
            t, op, obj = cols
            last = column_map[keys[cols.index(max(cols))]]  # the column a short record lacks
            for lineno, row in rows:
                if not row:
                    continue
                try:
                    text, op_text, obj_text = row[t], row[op], row[obj]
                except IndexError:
                    raise ValueError(f"{path}:line {lineno}: record has no column {last!r}") from None
                try:
                    stamp = float(text)
                except ValueError:
                    raise ValueError(f"{path}:line {lineno}: timestamp {text!r} is not a number") from None
                if not math.isfinite(stamp):
                    raise ValueError(f"{path}:line {lineno}: timestamp {text!r} is not finite")
                if t0 is None:
                    t0 = stamp
                if obj_text.strip() == object_id and any(tok in op_text.strip().upper() for tok in READ_OPS):
                    yield lineno, stamp - t0
    except UnicodeDecodeError as exc:  # text is decoded ahead in chunks, so the line is found in the bytes
        with open(path, "rb") as fh:  # no UTF-8 sequence holds a newline byte; a bad line changes under replacement
            lineno = next(n for n, raw in enumerate(fh, 1) if raw.decode("utf-8", "replace").encode() != raw)
        raise ValueError(f"{path}:line {lineno}: not UTF-8 ({exc.reason})") from None
    if t0 is None:
        raise ValueError(f"{path}: no records parsed")


def ingest_trace(
    path: str,
    object_id: str,
    column_map: dict[str, "str | int"],
    delimiter: str = ",",
) -> list[float]:
    """Extract read times of one object, rebased to the trace start.

    The reads are found by ``_reads``. Each time is bumped by 1e-6 times
    its 1-based position within its group of equal timestamps, which both
    breaks exact ties and shifts a read at the very start off the reserved
    t=0. A read whose bumped time does not pass the one before it is
    reported by file and line.
    """
    # the sort is stable, so reads with equal times keep their file order
    kept = sorted(_reads(path, object_id, column_map, delimiter), key=itemgetter(1))
    if not kept:
        raise ValueError(f"{path}: no read records for object {object_id!r}")
    out: list[float] = []
    group_start = 0
    for i, (lineno, t) in enumerate(kept):
        if t != kept[group_start][1]:
            group_start = i
        bumped = t + 1e-6 * (i - group_start + 1)
        if out and not bumped > out[-1]:
            raise ValueError(f"{path}:line {lineno}: tie-broken time {bumped!r} does not pass the previous {out[-1]!r}")
        out.append(bumped)
    return out


def assign_servers(times: "list[float]", n: int, seed: int) -> list[tuple[float, int]]:
    """Map each request time independently and uniformly to a server."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    rng = np.random.default_rng(seed)
    servers = rng.integers(1, n + 1, len(times))
    return list(zip(times, (int(s) for s in servers)))


def gen_poisson_trace(seed: int, total_requests: int = 11_683, mean_gap: float = 50.0) -> list[float]:
    """Synthetic arrival times with exponential gaps, drawn in order: a shorter trace prefixes a longer one."""
    if not (math.isfinite(mean_gap) and mean_gap > 0):
        raise ValueError(f"mean gap must be a finite number > 0, got {mean_gap}")
    if total_requests < 0:
        raise ValueError(f"request count must be >= 0, got {total_requests}")
    if total_requests == 0:
        return []
    rng = np.random.default_rng(seed)
    with np.errstate(over="ignore"):
        times = np.cumsum(rng.exponential(mean_gap, total_requests))
    if not np.isfinite(times[-1]):
        raise ValueError(f"mean gap {mean_gap} over {total_requests} requests overflows the arrival times")
    if not (times[0] > 0 and np.all(np.diff(times) > 0)):
        raise ValueError(f"mean gap {mean_gap} over {total_requests} requests gives tied arrival times")
    return [float(t) for t in times]


@dataclass(frozen=True)
class ExperimentSpec:
    """One sweep: rate sets x transfer costs x policies over a fixed trace; n is the rate sets' common length."""

    times: tuple[float, ...]
    rate_sets: dict[str, tuple[float, ...]] = field(default_factory=lambda: dict(RATE_SETS))
    lambda_values: tuple[float, ...] = DEFAULT_LAMBDA_VALUES
    seed: int = 0
    policies: tuple[str, ...] = DEFAULT_POLICIES
    prefix: int | None = None

    def __post_init__(self) -> None:
        for policy in self.policies:  # first, so a repeated unknown name is refused as unknown
            make_policy(policy)
        for name in ("rate_sets", "lambda_values", "policies"):
            values = list(getattr(self, name))
            if not values:
                raise ValueError(f"{name} must not be empty")
            if len(set(values)) < len(values):  # a repeat would simulate and write its rows twice
                raise ValueError(f"{name} repeats {next(v for i, v in enumerate(values) if v in values[:i])!r}")
        sizes = {name: len(rates) for name, rates in self.rate_sets.items()}
        if len(set(sizes.values())) > 1:
            raise ValueError(f"rate sets differ in length: {sizes}")
        if self.prefix is not None and self.prefix < 1:
            raise ValueError(f"prefix must be at least 1 request, got {self.prefix}")
        for rates in self.rate_sets.values():
            Instance.build(rates, self.lambda_values[0], 1)
        for lam in self.lambda_values[1:]:
            _check_transfer_cost(float(lam))


@dataclass(frozen=True)
class SweepRow:
    rate_set: str
    lam: float
    policy: str
    online_cost: float
    opt_cost: float | None
    ratio: float | None
    requests: int
    seed: int


def _run_group(args) -> list[SweepRow]:
    """One rate set over a run of transfer costs: one oracle pass, then every policy per cost."""
    set_name, rates, lams, policies, times, seed = args
    first = Instance.build(rates, lams[0], 1, assign_servers(times, len(rates), seed))
    try:
        optima = opt_costs(first, lams)
    except BudgetExceeded:
        optima = (None,) * len(lams)
    rows = []
    for lam, opt in zip(lams, optima):
        inst = first.with_transfer_cost(float(lam))
        for pol in policies:
            _, cost = simulate(pol, inst)
            ratio = cost.total / opt if opt else None
            rows.append(SweepRow(set_name, lam, pol, cost.total, opt, ratio, inst.m, seed))
    return rows


def _split(values: tuple[float, ...], parts: int) -> list[tuple[float, ...]]:
    """``values`` cut into at most ``parts`` contiguous, non-empty runs of near-equal length."""
    parts = min(parts, len(values))
    return [values[k * len(values) // parts : (k + 1) * len(values) // parts] for k in range(parts)]


def run_sweep(spec: ExperimentSpec, workers: int = 1) -> list[SweepRow]:
    """Simulate every (rate set, transfer cost, policy) cell and normalize by
    the full oracle; cells whose oracle run is refused (``BudgetExceeded``) report raw costs only.

    Cells are grouped by rate set, and each group runs one oracle pass over
    all of its transfer costs. With several workers each rate set's transfer
    costs are cut into ``workers`` contiguous runs, one process task each.
    """
    if workers < 1:
        raise ValueError(f"workers must be at least 1, got {workers}")
    times = spec.times[: spec.prefix]
    groups = [
        (name, spec.rate_sets[name], lams, spec.policies, times, spec.seed)
        for name in sorted(spec.rate_sets)
        for lams in _split(spec.lambda_values, workers)
    ]
    rows: list[SweepRow] = []
    processes = min(workers, len(groups))  # one task needs no pool
    if processes > 1:
        from concurrent.futures import ProcessPoolExecutor  # here, not at start-up: only a pool needs it

        with ProcessPoolExecutor(max_workers=processes) as pool:
            for batch in pool.map(_run_group, groups):
                rows.extend(batch)
    else:
        for group in groups:
            rows.extend(_run_group(group))
    rows.sort(key=lambda r: (r.rate_set, r.lam, r.policy))
    return rows


def sweep_csv(rows: "list[SweepRow]") -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["rate_set", "lambda", "policy", "online_cost", "opt_cost", "ratio", "requests", "seed"])
    for r in rows:
        writer.writerow(
            [
                r.rate_set,
                f"{r.lam:.10g}",
                r.policy,
                f"{r.online_cost:.10g}",
                "NA" if r.opt_cost is None else f"{r.opt_cost:.10g}",
                "NA" if r.ratio is None else f"{r.ratio:.10g}",
                r.requests,
                r.seed,
            ]
        )
    return buf.getvalue()
