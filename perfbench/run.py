"""Run one workload of the repsim benchmark and print its metrics.

    python3 perfbench/run.py --workload trace-sweep --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the program is imported from its ``src``.
With ``--trace 0`` the run reports the end-to-end metrics of BENCHMARK.json
(set-up time, job wall time, peak memory) with tracing off and the span
recorder never imported. With ``--trace 1`` it first times untraced jobs,
then imports the recorder, repeats set-up and jobs traced, and reports the
per-layer metrics and the tracing overhead.

Jobs repeat until the next one would end past ``--seconds`` (at least one
job, two when traced); each reported time is the median over jobs, or over
set-up runs, normalized to a reference speed (see ``calibrate``). Every
job's output is checked. The last line of standard output
is one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``. A result file with the environment record is written under
``perfbench/results/``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads as W  # noqa: E402  (pins threads and checks the program's location)

RESULTS = HERE / "results"
SETUP_RUNS = 5  # timed set-up runs, after one untimed run that warms the bytecode and file caches
CAL_REF_S = 0.5  # calibrate() at the reference speed: the unit of the normalized times


def calibrate() -> float:
    """Seconds for a fixed mix of interpreter-bound and small-array numpy work.

    On a shared host the CPU speed can drift by tens of percent within minutes.
    Each job and each set-up is timed between two calibrations; its normalized
    time ``raw * CAL_REF_S / mean(calibrations)`` is what it would take at the
    reference speed. The raw times are kept in the result file.
    """
    t0 = time.perf_counter()
    counts: dict[int, int] = {}
    for i in range(1_400_000):
        counts[i % 1009] = counts.get(i % 1009, 0) + i
    sorted((i * 7919) % 10007 for i in range(350_000))
    a = W.np.linspace(0.0, 1.0, 1024)
    b = a[::-1].copy()
    for _ in range(28_000):
        a = W.np.minimum(a + 1e-3, b)
    return time.perf_counter() - t0


def normalized(raw: list[float], cals: list[float]) -> list[float]:
    """``raw[i]`` at the reference speed; ``cals[i]`` and ``cals[i + 1]`` bracket it."""
    return [t * CAL_REF_S * 2 / (before + after) for t, before, after in zip(raw, cals, cals[1:])]


def measure_setup(workload: str, seed: int, workdir: Path, size: W.Size) -> tuple[list[float], list[float]]:
    """Seconds from process start to inputs ready in fresh interpreters, and calibrations."""
    samples, cals = [], []
    for k in range(SETUP_RUNS + 1):
        cmd = [sys.executable, str(HERE / "probe.py"), workload, str(seed), str(workdir / f"setup{k}"),
               "tiny" if size == W.TINY else "full"]
        if k:
            cals.append(calibrate())
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
        try:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - start
        finally:
            proc.stdout.close()
            code = proc.wait(timeout=120)
        if code != 0 or line.strip() != "ready":
            raise RuntimeError(f"set-up run {cmd} exited with code {code}")
        samples.append(elapsed)
    cals.append(calibrate())
    return samples[1:], cals


def run_jobs(workload: str, inputs: dict, ref: dict | None, budget: float, min_jobs: int, recorder=None) -> dict:
    """Repeat the job, checking each output; stop before overrunning ``budget``."""
    walls: list[float] = []
    outcomes: list[W.Outcome] = []
    digests: list[str] = []
    roots: list[int] = []
    start = time.perf_counter()
    cals = [calibrate()]
    while len(walls) < min_jobs or time.perf_counter() - start + walls[-1] + cals[-1] <= budget:
        phase = contextlib.nullcontext() if recorder is None else recorder.phase("job")
        mark = (lambda op: None) if recorder is None else recorder.mark
        t0 = time.perf_counter()
        error = None
        try:
            with phase as root:
                output = W.job(workload, inputs, mark)
        except Exception:  # a crashed job is a failed operation
            error = traceback.format_exc()
        walls.append(time.perf_counter() - t0)
        cals.append(calibrate())
        if recorder is not None:
            roots.append(root)
        if error is None:
            try:
                found, digest = W.check(workload, inputs, output, ref)
            except Exception:  # so is an output the check cannot read
                error = traceback.format_exc()
        if error is not None:
            outcomes.append(W.Outcome(f"job{len(walls)}", False, error))
            break
        del output
        outcomes += found
        digests.append(digest)
    if len(set(digests)) > 1:
        outcomes.append(W.Outcome("repeat", False, f"jobs on the same inputs gave different results: {digests}"))
    return {"walls": walls, "cals": cals, "outcomes": outcomes, "roots": roots}


def environment(seed: int) -> dict:
    git_sha = None
    if (W.ROOT / ".git").exists():
        try:
            proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=W.ROOT, capture_output=True, text=True, timeout=30)
            git_sha = proc.stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    src = hashlib.sha256()
    for path in sorted((W.ROOT / "src" / "repsim").rglob("*.py")):
        src.update(path.relative_to(W.ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "git_sha": git_sha,
        "src_sha256": src.hexdigest(),
        "python": platform.python_version(),
        "numpy": W.np.__version__,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "threads": {var: os.environ.get(var) for var in W.THREAD_VARS},
        "seed": seed,
    }


def metric_spec(trace: bool) -> list[dict]:
    with open(W.ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    return spec["per_layer" if trace else "end_to_end"]


def measure(workload: str, seed: int, seconds: float, trace: bool, size: W.Size = W.FULL) -> tuple[dict, dict]:
    """One benchmark run: the printed result and the full record behind it."""
    RESULTS.mkdir(exist_ok=True)
    ref = W.reference(workload, seed, size)
    record: dict = {"workload": workload, "trace": int(trace), "seconds": seconds}
    with tempfile.TemporaryDirectory(dir=RESULTS) as tmp:
        workdir = Path(tmp)
        if not trace:
            record["setup_raw_s"], record["setup_cal_s"] = measure_setup(workload, seed, workdir, size)
        inputs = W.setup(workload, seed, workdir / "main", size)
        budget = seconds / 2 if trace else seconds
        untraced = run_jobs(workload, inputs, ref, budget, min_jobs=1)
        del inputs
        outcomes = untraced["outcomes"]
        record["job_raw_s"], record["job_cal_s"] = untraced["walls"], untraced["cals"]
        if trace:
            import spans

            recorder = spans.Recorder()
            recorder.install()
            try:
                with recorder.phase("setup") as setup_root:
                    inputs = W.setup(workload, seed, workdir / "traced", size)
                traced = run_jobs(workload, inputs, ref, budget, min_jobs=2, recorder=recorder)
            finally:
                recorder.uninstall()
            del inputs
            outcomes += traced["outcomes"]
            record["traced_job_raw_s"], record["traced_job_cal_s"] = traced["walls"], traced["cals"]
            counters = [recorder.counters(root) for root in traced["roots"]]
            record["counters"] = counters[0] if counters else {}
            if any(c != counters[0] for c in counters):
                outcomes.append(W.Outcome("counters", False, f"work counters differ between jobs: {counters}"))
            values = recorder.metrics(setup_root, traced["roots"])
            untraced_s = statistics.median(normalized(untraced["walls"], untraced["cals"]))
            traced_s = statistics.median(normalized(traced["walls"], traced["cals"]))
            values["trace.overhead_frac"] = traced_s / untraced_s - 1.0
            values["raw.wall_s"] = statistics.median(untraced["walls"])
            values["raw.cal_s"] = statistics.median(untraced["cals"])
            recorder.write(RESULTS / f"spans-{workload}-seed{seed}.jsonl")
        else:
            values = {
                "setup_s": statistics.median(normalized(record["setup_raw_s"], record["setup_cal_s"])),
                "wall_s": statistics.median(normalized(untraced["walls"], untraced["cals"])),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            }
            record["recorder_loaded"] = "spans" in sys.modules

    metrics = {}
    for m in metric_spec(trace):
        value = values[m["name"]]
        metrics[m["name"]] = {"value": int(value) if m["unit"] == "count" else float(value), "unit": m["unit"]}
    failed = [o for o in outcomes if not o.ok]
    result = {"correct": not failed, "attempted": len(outcomes), "failed": len(failed), "metrics": metrics}
    record.update(result, environment=environment(seed), failures=[vars(o) for o in failed[:50]])
    return result, record


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=W.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    result, record = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (RESULTS / name).write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    for failure in record["failures"][:10]:
        print(f"FAILED {failure['op']}: {failure['detail']}")
    for key, m in result["metrics"].items():
        print(f"{args.workload} {key} {m['value']} {m['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
