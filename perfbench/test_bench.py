"""Self-tests of the benchmark: tiny runs of every workload emit every metric,
work counters repeat exactly, and the output checks fail corrupted results.

    python3 -m pytest -q perfbench/test_bench.py
"""

from __future__ import annotations

import hashlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads as W  # noqa: E402

SPEC = json.loads((W.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _tiny(workload: str, workdir: Path, seed: int = 4) -> tuple[dict, dict]:
    inputs = W.setup(workload, seed, workdir, W.TINY)
    return inputs, W.job(workload, inputs)


def _failed(workload: str, inputs: dict, output: dict, ref: dict | None = None) -> list[str]:
    outcomes, _digest = W.check(workload, inputs, output, ref)
    assert outcomes
    return [o.op for o in outcomes if not o.ok]


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("workload", W.WORKLOADS)
def test_tiny_run_emits_every_metric_with_its_unit(workload, trace):
    result, record = run.measure(workload, 3, 0.01, trace, W.TINY)
    assert list(result) == ["correct", "attempted", "failed", "metrics"]
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, record["failures"]
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: m["unit"] for k, m in result["metrics"].items()} == {m["name"]: m["unit"] for m in spec}
    env = record["environment"]
    assert env["seed"] == 3 and set(env["threads"].values()) == {"1"}
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_untraced_run_never_loads_the_recorder():
    code = (
        f"import sys; sys.path.insert(0, {str(HERE)!r}); import run, workloads as W; "
        "_, record = run.measure('small-verify', 1, 0.01, False, W.TINY); "
        "assert record['correct'] and not record['recorder_loaded'], record"
    )
    subprocess.run([sys.executable, "-c", code], check=True, timeout=300)


@pytest.mark.parametrize("workload", W.WORKLOADS)
def test_counters_repeat_exactly_across_runs(workload):
    first = run.measure(workload, 5, 0.01, True, W.TINY)
    second = run.measure(workload, 5, 0.01, True, W.TINY)
    assert first[0]["correct"] and second[0]["correct"]
    assert len(first[1]["traced_job_raw_s"]) >= 2  # the run also compares its own jobs
    assert any(first[1]["counters"].values())
    assert first[1]["counters"] == second[1]["counters"]


def test_sweep_check_fails_a_corrupted_row(tmp_path):
    inputs, output = _tiny("trace-sweep", tmp_path)
    assert _failed("trace-sweep", inputs, output) == []
    _code, path = output["set1"]
    lines = path.read_text(encoding="utf-8").splitlines()
    fields = lines[1].split(",")
    fields[3] = repr(float(fields[4]) / 2)  # online cost below the optimum
    lines[1] = ",".join(fields)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    assert _failed("trace-sweep", inputs, output) == [f"set1/{fields[1]}"]


def test_sweep_check_compares_the_csv_with_its_reference(tmp_path):
    inputs, output = _tiny("trace-sweep", tmp_path)
    ref = {rs: hashlib.sha256(path.read_bytes()).hexdigest() for rs, (_code, path) in output.items()}
    assert _failed("trace-sweep", inputs, output, ref) == []
    ref["set4"] = "0" * 64
    assert sorted(_failed("trace-sweep", inputs, output, ref)) == ["set4/1200", "set4/50"]


def test_sweep_check_fails_a_nonzero_exit(tmp_path):
    inputs, output = _tiny("trace-sweep", tmp_path)
    output["set1"] = (2, output["set1"][1])
    assert _failed("trace-sweep", inputs, output) == ["set1"]


def test_audit_check_fails_a_corrupted_cost(tmp_path):
    inputs, output = _tiny("trace-audit", tmp_path)
    assert _failed("trace-audit", inputs, output) == []
    bad = dict(output, alg1=output["opt"] / 2)
    assert _failed("trace-audit", inputs, bad) == ["alg1.allocation_conserved", "alg1.above_opt"]
    ref = {key: output[key] for key in ("opt",) + W.POLICIES}
    assert _failed("trace-audit", inputs, output, ref) == []
    ref["opt"] *= 1.001
    assert _failed("trace-audit", inputs, output, ref) == ["opt.reference"]


def test_verify_check_fails_problems_and_a_wrong_optimum(tmp_path):
    inputs, output = _tiny("small-verify", tmp_path)
    assert _failed("small-verify", inputs, output) == []
    wang, opt = output["fig2"]
    bad = dict(output, **{"random-3": ["injected problem"], "fig2": (wang, opt * 1.001)})
    assert _failed("small-verify", inputs, bad) == ["random-3", "fig2"]


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(W.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("results", "__pycache__"))
    cmd = [sys.executable, "perfbench/run.py", "--workload", "trace-sweep", "--seed", "1", "--seconds", "1"]
    proc = subprocess.run(cmd, cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
