"""Trace ingestion, request assignment, and transfer-cost sweep experiments.

The sweep mirrors the evaluation setup: 10 servers under one of four storage
rate sets, requests from a real or synthetic trace assigned uniformly at
random across servers, transfer costs swept over a grid, and every policy's
cost normalized by the offline optimum (restricted oracle at trace scale).
"""

from __future__ import annotations

import csv
import io
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .model import Instance
from .offline import BudgetExceeded, DEFAULT_BUDGET, opt_restricted, opt_full
from .policies import simulate

RATE_SETS: dict[str, tuple[float, ...]] = {
    "set1": (1, 1, 1, 1, 1, 1, 1, 1, 1, 1),
    "set2": (1, 1.1, 1.2, 1.3, 1.3, 1.4, 1.5, 1.7, 2.1, 2.3),
    "set3": (1, 1.1, 1.2, 1.5, 1.6, 2.1, 2.3, 2.7, 3.1, 4),
    "set4": (1, 1.1, 1.2, 1.3, 1.5, 2.1, 3, 6, 10, 15),
}

DEFAULT_LAMBDA_VALUES: tuple[float, ...] = tuple(float(v) for v in range(50, 1201, 25))
DEFAULT_POLICIES: tuple[str, ...] = ("alg1", "wang", "simple")


@dataclass(frozen=True)
class TraceRecord:
    timestamp: float
    op: str
    object_id: str


def read_trace(path: str, column_map: dict[str, "str | int"], delimiter: str = ",") -> list[TraceRecord]:
    """Parse a delimited text trace into records using a user-supplied column map.

    ``column_map`` maps the keys ``timestamp``, ``op`` and ``object_id`` to
    column names (header row) or 0-based positions (no header assumed).
    """
    for key in ("timestamp", "op", "object_id"):
        if key not in column_map:
            raise ValueError(f"column_map is missing required key {key!r}")
    positional = all(isinstance(v, int) for v in column_map.values())
    records: list[TraceRecord] = []
    with open(path, "r", encoding="utf-8") as fh:
        if positional:
            for lineno, row in enumerate(csv.reader(fh, delimiter=delimiter), start=1):
                if not row:
                    continue
                try:
                    picked = {k: row[v] for k, v in column_map.items()}
                except IndexError:
                    raise ValueError(f"{path}:line {lineno}: record has no column {max(column_map.values())}") from None
                records.append(TraceRecord(float(picked["timestamp"]), picked["op"].strip(), picked["object_id"].strip()))
        else:
            reader = csv.DictReader(fh, delimiter=delimiter)
            if reader.fieldnames is None:
                raise ValueError(f"{path}: empty trace file")
            for key, col in column_map.items():
                if col not in reader.fieldnames:
                    raise ValueError(f"{path}: column {col!r} (for {key}) not found in header {reader.fieldnames}")
            for row in reader:
                records.append(
                    TraceRecord(
                        float(row[column_map["timestamp"]]),
                        str(row[column_map["op"]]).strip(),
                        str(row[column_map["object_id"]]).strip(),
                    )
                )
    return records


def ingest_trace(
    path: str,
    object_id: str,
    column_map: dict[str, "str | int"],
    read_ops: tuple[str, ...] = ("READ", "GET"),
    delimiter: str = ",",
) -> list[float]:
    """Extract read times of one object, rebased to the trace start.

    One second of source time becomes one time unit, with t=0 at the first
    record of the file. Each retained time is bumped by 1e-6 times its
    1-based position within its group of equal timestamps, which both breaks
    exact ties and shifts a read at the very start off the reserved t=0.
    """
    records = read_trace(path, column_map, delimiter)
    if not records:
        raise ValueError(f"{path}: no records parsed")
    t0 = records[0].timestamp
    kept = [
        r.timestamp - t0
        for r in records
        if r.object_id == object_id and any(tok in r.op.upper() for tok in read_ops)
    ]
    if not kept:
        raise ValueError(f"{path}: no read records for object {object_id!r}")
    kept.sort()
    out: list[float] = []
    group_start = 0
    for i, t in enumerate(kept):
        if t != kept[group_start]:
            group_start = i
        out.append(t + 1e-6 * (i - group_start + 1))
    return out


def assign_servers(times: "list[float]", n: int, seed: int) -> list[tuple[float, int]]:
    """Map each request time independently and uniformly to a server."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    rng = np.random.default_rng(seed)
    servers = rng.integers(1, n + 1, len(times))
    return list(zip(times, (int(s) for s in servers)))


def gen_poisson_trace(seed: int, total_requests: int, mean_gap: float) -> list[float]:
    """Synthetic arrival times with exponential inter-request gaps."""
    if mean_gap <= 0:
        raise ValueError(f"mean_gap must be > 0, got {mean_gap}")
    if total_requests == 0:
        return []
    rng = np.random.default_rng(seed)
    gaps = rng.exponential(mean_gap, total_requests)
    times = np.cumsum(gaps)
    assert times[0] > 0 and np.all(np.diff(times) > 0)
    return [float(t) for t in times]


@dataclass(frozen=True)
class ExperimentSpec:
    """One sweep: rate sets x transfer costs x policies over a fixed trace."""

    times: tuple[float, ...]
    rate_sets: dict[str, tuple[float, ...]] = field(default_factory=lambda: dict(RATE_SETS))
    lambda_values: tuple[float, ...] = DEFAULT_LAMBDA_VALUES
    n_servers: int = 10
    seed: int = 0
    policies: tuple[str, ...] = DEFAULT_POLICIES
    oracle: str = "restricted"
    prefix: int | None = None
    budget: int = DEFAULT_BUDGET

    def __post_init__(self) -> None:
        for name, rates in self.rate_sets.items():
            if len(rates) != self.n_servers:
                raise ValueError(f"rate set {name!r} has {len(rates)} rates for {self.n_servers} servers")
            for lam in self.lambda_values:
                Instance.build(rates, lam, 1)  # rejects bad rates or lambdas before any cell runs
        if self.oracle not in ("full", "restricted"):
            raise ValueError(f"oracle must be 'full' or 'restricted', got {self.oracle!r}")


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


def _run_cell(args) -> list[SweepRow]:
    set_name, rates, lam, policies, assigned, seed, oracle, budget = args
    inst = Instance.build(rates, lam, 1, assigned)
    solver = opt_full if oracle == "full" else opt_restricted
    try:
        opt = solver(inst, budget=budget, reconstruct=False).opt_cost
    except BudgetExceeded:
        opt = None
    rows = []
    for pol in policies:
        _, cost = simulate(pol, inst)
        ratio = cost.total / opt if opt else None
        rows.append(SweepRow(set_name, lam, pol, cost.total, opt, ratio, inst.m, seed))
    return rows


def run_sweep(spec: ExperimentSpec, workers: int = 1) -> list[SweepRow]:
    """Simulate every (rate set, transfer cost, policy) cell and normalize by
    the oracle; cells whose oracle run exceeds the budget report raw costs only.
    """
    times = list(spec.times[: spec.prefix] if spec.prefix else spec.times)
    assigned = assign_servers(times, spec.n_servers, spec.seed)
    cells = [
        (name, spec.rate_sets[name], lam, spec.policies, assigned, spec.seed, spec.oracle, spec.budget)
        for name in sorted(spec.rate_sets)
        for lam in spec.lambda_values
    ]
    rows: list[SweepRow] = []
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            for batch in pool.map(_run_cell, cells):
                rows.extend(batch)
    else:
        for cell in cells:
            rows.extend(_run_cell(cell))
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
