"""Trace ingestion, server assignment, synthetic traces, and the sweep."""

from __future__ import annotations

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import repsim as R

CM = {"timestamp": "ts", "op": "op", "object_id": "obj"}


def _write(tmp_path, name, lines):
    path = tmp_path / name
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return str(path)


def test_ingest_simple_reads(tmp_path):
    path = _write(
        tmp_path,
        "trace.csv",
        ["ts,op,obj", "0,READ,X", "1,READ,X", "2,READ,X"],
    )
    times = R.ingest_trace(path, "X", CM)
    assert times == pytest.approx([1e-6, 1.000001, 2.000001], abs=1e-12)


def test_ingest_filters_objects_and_ops(tmp_path):
    path = _write(
        tmp_path,
        "trace.csv",
        ["ts,op,obj", "0,READ,Y", "1,READ,X", "2,WRITE,X", "3,GET,X"],
    )
    times = R.ingest_trace(path, "X", CM)
    assert times == pytest.approx([1 + 1e-6, 3 + 1e-6], abs=1e-12)


def test_ingest_breaks_ties(tmp_path):
    path = _write(
        tmp_path,
        "trace.csv",
        ["ts,op,obj", "0,READ,other", "5,READ,X", "5,READ,X", "5,READ,X"],
    )
    times = R.ingest_trace(path, "X", CM)
    assert times == pytest.approx([5 + 1e-6, 5 + 2e-6, 5 + 3e-6], abs=1e-12)
    assert all(b > a for a, b in zip(times, times[1:]))


def test_ingest_missing_column(tmp_path):
    path = _write(tmp_path, "trace.csv", ["ts,op,obj", "0,READ,X"])
    with pytest.raises(ValueError) as err:
        R.ingest_trace(path, "X", {"timestamp": "when", "op": "op", "object_id": "obj"})
    assert "when" in str(err.value)


def test_ingest_short_record_is_located(tmp_path):
    path = _write(tmp_path, "trace.csv", ["ts,op,obj", "0,READ,X", "", "1,READ"])
    with pytest.raises(ValueError, match=r"line 4: record has no column 'obj'"):
        R.ingest_trace(path, "X", CM)
    path = _write(tmp_path, "short.csv", ["0|READ|X", "4|READ"])
    with pytest.raises(ValueError, match=r"line 2: record has no column 2"):
        R.ingest_trace(path, "X", {"timestamp": 0, "op": 1, "object_id": 2}, delimiter="|")


def test_ingest_reads_quoted_fields_and_locates_a_bad_timestamp_by_file_line(tmp_path):
    # the first record's quoted op spans lines 2-3, so the next record is on line 4
    path = _write(tmp_path, "trace.csv", ["ts,op,obj", '1,"READ', '",X', "2, GET , Y"])
    assert R.ingest_trace(path, "X", CM) == [1e-6]
    assert R.ingest_trace(path, "Y", CM) == [1.0 + 1e-6]  # op and object stripped of spaces
    path = _write(tmp_path, "bad.csv", ["ts,op,obj", '1,"READ', '",X', "abc,READ,X"])
    with pytest.raises(ValueError, match=r"bad.csv:line 4: timestamp 'abc' is not a number"):
        R.ingest_trace(path, "X", CM)


def test_ingest_locates_a_read_that_tie_breaking_puts_out_of_order(tmp_path):
    # three reads tied at 100 are bumped to 1e-6..3e-6, past the fourth read's 2e-6 + 1e-6
    rows = ["ts,op,obj", "100.0,READ,X", "100.0,READ,X", "100.0,READ,X", "100.000002,READ,X"]
    path = _write(tmp_path, "near.csv", rows)
    problem = r"near.csv:line 5: tie-broken time 2.99999999\d*e-06 does not pass the previous 3e-06"
    with pytest.raises(ValueError, match=problem):
        R.ingest_trace(path, "X", CM)
    # the same reads a few 1e-6 further apart keep their order
    path = _write(tmp_path, "apart.csv", rows[:-1] + ["100.00001,READ,X"])
    times = R.ingest_trace(path, "X", CM)
    assert times == sorted(times) and len(set(times)) == 4


def test_ingest_no_matches(tmp_path):
    path = _write(tmp_path, "trace.csv", ["ts,op,obj", "0,READ,X"])
    with pytest.raises(ValueError) as err:
        R.ingest_trace(path, "Z", CM)
    assert "no read records" in str(err.value)


def test_ingest_positional_columns(tmp_path):
    path = _write(tmp_path, "trace.csv", ["0|READ|X", "4|READ|X"], )
    times = R.ingest_trace(path, "X", {"timestamp": 0, "op": 1, "object_id": 2}, delimiter="|")
    assert times == pytest.approx([1e-6, 4 + 1e-6], abs=1e-12)


@pytest.mark.parametrize(
    "text, make, message",
    [
        (
            "ts,op,obj\n0,READ,X\n",
            lambda path: R.ingest_trace(path, "X", {"timestamp": "ts", "op": "op"}),
            "column_map is missing required key 'object_id'",
        ),
        ("", lambda path: R.ingest_trace(path, "X", CM), "{path}: empty trace file"),
        ("ts,op,obj\n\n", lambda path: R.ingest_trace(path, "X", CM), "{path}: no records parsed"),
        ("", lambda path: R.assign_servers([1.0], 0, seed=0), "n must be >= 1, got 0"),
    ],
    ids=["column-map-key", "empty-file", "no-records", "no-servers"],
)
def test_input_refusals_name_their_fault(tmp_path, text, make, message):
    path = tmp_path / "trace.csv"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(ValueError) as err:
        make(str(path))
    assert str(err.value) == message.format(path=path)


def test_assign_servers_single_and_deterministic():
    times = [1.0, 2.0, 3.0]
    assert all(s == 1 for _, s in R.assign_servers(times, 1, seed=0))
    a = R.assign_servers(times, 10, seed=4)
    b = R.assign_servers(times, 10, seed=4)
    assert a == b


def test_assign_servers_balanced():
    times = list(range(1, 11684))
    assigned = R.assign_servers([float(t) for t in times], 10, seed=123)
    counts = np.bincount([s for _, s in assigned], minlength=11)[1:]
    expect = len(times) / 10
    sigma = math.sqrt(len(times) * 0.1 * 0.9)
    assert all(abs(c - expect) <= 5 * sigma for c in counts)


def test_poisson_trace_properties():
    assert R.gen_poisson_trace(seed=0, total_requests=0, mean_gap=50.0) == []
    a = R.gen_poisson_trace(seed=9, total_requests=100, mean_gap=50.0)
    assert a == R.gen_poisson_trace(seed=9, total_requests=100, mean_gap=50.0)
    big = R.gen_poisson_trace(seed=11, total_requests=10_000, mean_gap=50.0)
    gaps = np.diff([0.0] + big)
    assert abs(gaps.mean() - 50.0) <= 0.05 * 50.0
    # downstream per-server gap across 10 servers is ten times the global gap
    assert abs(gaps.mean() * 10 - 500.0) <= 0.05 * 500.0


@pytest.mark.parametrize(
    "count, gap, problem",
    [
        (10, math.nan, "mean gap must be a finite number > 0, got nan"),
        (10, math.inf, "mean gap must be a finite number > 0, got inf"),
        (10, 0.0, "mean gap must be a finite number > 0, got 0.0"),
        (-3, 50.0, "request count must be >= 0, got -3"),
        (50, 1e308, "mean gap 1e+308 over 50 requests overflows the arrival times"),
        (50, 5e-324, "mean gap 5e-324 over 50 requests gives tied arrival times"),
    ],
)
def test_poisson_trace_rejects_bad_parameters(count, gap, problem):
    with pytest.raises(ValueError) as err:
        R.gen_poisson_trace(seed=0, total_requests=count, mean_gap=gap)
    assert str(err.value) == problem


def test_sweep_rows_and_csv(tmp_path):
    times = R.gen_poisson_trace(seed=5, total_requests=150, mean_gap=10.0)
    spec = R.ExperimentSpec(
        times=tuple(times),
        rate_sets={"custom": (1.0, 1.5, 2.0)},
        lambda_values=(2.0, 5.0),
        seed=2,
    )
    rows = R.run_sweep(spec)
    assert len(rows) == 2 * 3
    assert [(r.rate_set, r.lam, r.policy) for r in rows] == sorted(
        (r.rate_set, r.lam, r.policy) for r in rows
    )
    for row in rows:
        assert row.ratio is not None and row.ratio >= 1.0 - 1e-9
        assert row.requests == 150
    csv_text = R.sweep_csv(rows)
    header, *body = csv_text.splitlines()
    assert header == "rate_set,lambda,policy,online_cost,opt_cost,ratio,requests,seed"
    assert len(body) == 6


def test_sweep_prefix_caps_requests():
    times = R.gen_poisson_trace(seed=5, total_requests=80, mean_gap=10.0)
    spec = R.ExperimentSpec(
        times=tuple(times),
        rate_sets={"custom": (1.0, 2.0)},
        lambda_values=(3.0,),
        prefix=25,
    )
    rows = R.run_sweep(spec)
    assert all(r.requests == 25 for r in rows)


def test_sweep_reports_na_on_budget_exhaustion():
    # every cell of a refused group reports NA, and the sweep goes on; 13 servers are past the oracle's cap
    times = R.gen_poisson_trace(seed=5, total_requests=60, mean_gap=10.0)
    spec = R.ExperimentSpec(
        times=tuple(times),
        rate_sets={"custom": (1.0,) * 12 + (2.0,), "flat": (1.0,) * 13},
        lambda_values=(3.0, 4.0, 9.0),
    )
    rows = R.run_sweep(spec)
    assert R.run_sweep(spec, workers=2) == rows
    assert len(rows) == 2 * 3 * 3
    assert all(r.opt_cost is None and r.ratio is None for r in rows)
    assert all(r.online_cost > 0 for r in rows)
    assert ",NA,NA," in R.sweep_csv(rows).splitlines()[1]


def test_sweep_worker_pool_matches_serial():
    times = R.gen_poisson_trace(seed=5, total_requests=120, mean_gap=10.0)
    spec = R.ExperimentSpec(
        times=tuple(times),
        rate_sets={"custom": (1.0, 1.5, 2.0)},
        lambda_values=(2.0, 5.0),
        seed=2,
    )
    serial = R.run_sweep(spec, workers=1)
    for workers in (2, 3):  # three workers get more chunks than there are transfer costs
        assert R.run_sweep(spec, workers=workers) == serial


class _SerialPool:
    """Stands in for ``ProcessPoolExecutor``: records each worker count and maps in this process."""

    worker_counts: list[int] = []

    def __init__(self, max_workers: int):
        self.worker_counts.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items):
        return map(fn, items)


@pytest.mark.parametrize(
    "rate_sets, lambda_values, workers, processes",
    [
        ({"set1": R.RATE_SETS["set1"]}, (50.0, 1200.0), 64, 2),  # repsim sweep --rates set1 --lambda-step 1150
        ({"custom": (1.0, 1.5, 2.0)}, (2.0, 5.0), 3, 2),  # 2 tasks
        ({"a": (1.0, 2.0), "b": (1.0, 3.0)}, (2.0, 5.0, 9.0), 2, 2),  # 4 tasks on 2 workers
        ({"custom": (1.0, 1.5, 2.0)}, (2.0,), 8, None),  # 1 task: no pool
    ],
)
def test_the_sweep_pool_starts_no_more_processes_than_tasks(monkeypatch, rate_sets, lambda_values, workers, processes):
    import concurrent.futures

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _SerialPool)
    monkeypatch.setattr(_SerialPool, "worker_counts", [])
    times = R.gen_poisson_trace(seed=5, total_requests=30, mean_gap=10.0)
    spec = R.ExperimentSpec(times=tuple(times), rate_sets=rate_sets, lambda_values=lambda_values)
    rows = R.run_sweep(spec, workers=workers)
    assert _SerialPool.worker_counts == ([] if processes is None else [processes])
    assert rows == R.run_sweep(spec, workers=1)


def test_import_leaves_the_process_pool_out():
    # the pool module is imported by a sweep with workers > 1, not at start-up
    probe = "import sys, repsim; print('concurrent.futures.process' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": str(Path(R.__file__).resolve().parents[1])}
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, env=env, check=True)
    assert proc.stdout == "False\n"


def test_spec_validation():
    with pytest.raises(ValueError):
        R.ExperimentSpec(times=(1.0,), rate_sets={"x": (2.0, 1.0)}, lambda_values=(1.0,))
    with pytest.raises(ValueError):
        R.ExperimentSpec(times=(1.0,), rate_sets={"x": (1.0, 2.0)}, lambda_values=(0.0,))
    with pytest.raises(ValueError, match=r"rate sets differ in length: \{'x': 1, 'y': 2\}"):
        R.ExperimentSpec(times=(1.0,), rate_sets={"x": (1.0,), "y": (1.0, 2.0)}, lambda_values=(1.0,))
    with pytest.raises(ValueError):
        R.ExperimentSpec(times=(1.0,), rate_sets={"x": (1.0, math.nan)}, lambda_values=(1.0,))
    with pytest.raises(ValueError):
        R.ExperimentSpec(times=(1.0,), rate_sets={"x": (1.0, 2.0)}, lambda_values=(math.inf,))


def test_spec_builds_one_instance_per_rate_set_and_checks_every_transfer_cost(monkeypatch):
    builds = []
    build = R.Instance.build.__func__
    monkeypatch.setattr(R.Instance, "build", classmethod(lambda cls, *args: builds.append(args) or build(cls, *args)))
    R.ExperimentSpec(times=(1.0,))
    assert len(builds) == len(R.RATE_SETS)
    with pytest.raises(ValueError, match="transfer cost must be finite and strictly positive, got 0.0"):
        R.ExperimentSpec(times=(1.0,), rate_sets={"x": (1.0, 2.0)}, lambda_values=(1.0, 0.0))


def test_sweep_server_count_is_the_rate_sets_length():
    times = (1.0, 2.0, 3.0)
    spec = R.ExperimentSpec(times=times, rate_sets={"one": (2.0,)}, lambda_values=(1.0,), policies=("simple",))
    [row] = R.run_sweep(spec)
    assert (row.online_cost, row.opt_cost) == (6.0, 6.0)  # the sole server stores through t=3, no transfer


@pytest.mark.parametrize("field, empty", [("rate_sets", {}), ("lambda_values", ()), ("policies", ())])
def test_spec_rejects_an_empty_field(field, empty):
    fields = {"rate_sets": {"x": (1.0, 2.0)}, "lambda_values": (1.0,), "policies": ("alg1",)}
    with pytest.raises(ValueError) as err:
        R.ExperimentSpec(times=(1.0,), **dict(fields, **{field: empty}))
    assert str(err.value) == f"{field} must not be empty"


@pytest.mark.parametrize(
    "field, values, repeated",
    [("lambda_values", (50.0, 1200.0, 50), "50"), ("policies", ("alg1", "wang", "alg1"), "'alg1'")],
)
def test_spec_rejects_a_repeated_entry(field, values, repeated):
    fields = {"rate_sets": {"x": (1.0, 2.0)}, "lambda_values": (1.0,), "policies": ("alg1",)}
    with pytest.raises(ValueError) as err:
        R.ExperimentSpec(times=(1.0,), **dict(fields, **{field: values}))
    assert str(err.value) == f"{field} repeats {repeated}"


def test_spec_rejects_an_unknown_policy_before_any_cell_runs():
    with pytest.raises(ValueError, match="unknown policy 'nosuch'"):
        R.ExperimentSpec(times=(1.0,), rate_sets={"x": (1.0, 2.0)}, lambda_values=(1.0,), policies=("alg1", "nosuch"))


def test_rate_sets_shapes():
    assert set(R.RATE_SETS) == {"set1", "set2", "set3", "set4"}
    for rates in R.RATE_SETS.values():
        assert len(rates) == 10
        assert list(rates) == sorted(rates)
    assert R.max_min_rate_ratio(R.Instance.build(R.RATE_SETS["set3"], 1.0, 1, [])) == 4.0
