"""Seeded inputs, fixed jobs and output checks of the repsim benchmark workloads.

Importing this module pins the BLAS/OpenMP thread pools to one thread and puts
the checkout's ``src`` first on ``sys.path``. It refuses any other copy of
``repsim``, so a directory without the program fails here.

Every workload has three parts:

* ``setup(workload, seed, workdir)`` makes the inputs from the seed alone;
* ``job(workload, inputs, mark)`` is the fixed, timed piece of work; ``mark``
  names the operation about to run (the traced run records it on its spans);
* ``check(workload, inputs, output, ref)`` turns the job's output into one
  ``Outcome`` per operation, plus a digest that must repeat across jobs.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import sys
import traceback
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)
for _var in THREAD_VARS:
    os.environ[_var] = "1"
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402  (after the thread pinning above)

import repsim  # noqa: E402
import repsim.cli  # noqa: E402

if Path(repsim.__file__).resolve().parent != ROOT / "src" / "repsim":
    raise ImportError(f"repsim was imported from {repsim.__file__}, not from {ROOT / 'src' / 'repsim'}")

WORKLOADS = ("trace-sweep", "trace-audit", "small-verify")
POLICIES = ("alg1", "wang", "simple")
TARGET = "obj-0"
REL = 1e-9  # relative tolerance of cost comparisons (costs reach ~1e7)
REFERENCES = HERE / "references.json"


MEAN_GAP = 50.0  # mean gap between the target object's reads (Poisson arrivals)
N_SERVERS = 10
SWEEP_RATE_SETS = ("set1", "set4")  # max/min rate ratio 1 and 15
SWEEP_LAMBDAS = (50, 1200)  # the two ends of the sweep's default transfer-cost grid
AUDIT_RATE_SET = "set4"  # ratio 15: alg1 relocates, so categories 3 and 6 occur
AUDIT_LAMBDA = 400.0


@dataclass(frozen=True)
class Size:
    """Input sizes; ``FULL`` is what the benchmark measures."""

    reads: int = 11_683  # reads of the target object in the trace
    noise_rows: int = 12_000  # rows of other objects and non-read ops
    sweep_prefix: int = 5_000  # reads the sweep keeps (its --prefix), so several jobs fit in a run
    random_instances: int = 2000
    fig_m: int = 2000


FULL = Size()
TINY = Size(reads=300, noise_rows=200, sweep_prefix=200, random_instances=12, fig_m=40)


@dataclass(frozen=True)
class Outcome:
    op: str
    ok: bool
    detail: str = ""


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=REL, abs_tol=REL)


def _at_most(a: float, b: float) -> bool:
    """a <= b up to the relative tolerance."""
    return a <= b + REL * max(1.0, abs(b))


def competitive_bound(rates) -> float:
    """The threshold policy's guarantee, max(2, min(max/min rate ratio, 3)).

    Computed here rather than by ``repsim.competitive_bound`` so that the check
    does not rest on the code it checks.
    """
    return max(2.0, min(rates[-1] / rates[0], 3.0))


# ---------------------------------------------------------------------------
# Inputs


def write_trace(path: Path, seed: int, size: Size) -> None:
    """A multi-object delimited trace; only the target's reads survive ingest.

    The target object's reads arrive as a Poisson process. Other objects and
    non-read operations (on the target too) are spread over the same span, so
    ingest has to filter them out.
    """
    rng = np.random.default_rng([seed, 1])
    gaps = np.maximum(rng.exponential(MEAN_GAP, size.reads), 1e-3)  # distinct at 6 decimals
    reads = np.cumsum(gaps)
    read_ops = rng.choice(["READ", "GET"], size.reads)
    noise_t = np.sort(rng.uniform(0.0, reads[-1], size.noise_rows))
    noise_obj = rng.choice([TARGET, "obj-1", "obj-2", "obj-3"], size.noise_rows)
    noise_ops = rng.choice(["PUT", "WRITE", "DELETE", "GET", "READ"], size.noise_rows)
    is_read = np.isin(noise_ops, ["GET", "READ"])
    noise_ops[is_read & (noise_obj == TARGET)] = "PUT"  # the target's reads are exactly ``reads``
    rows = [(t, op, TARGET) for t, op in zip(reads.tolist(), read_ops.tolist())]
    rows += list(zip(noise_t.tolist(), noise_ops.tolist(), noise_obj.tolist()))
    rows.sort()
    base = 1_600_000_000.0  # epoch-like timestamps; ingest rebases them to the first record
    sizes = rng.integers(1, 1 << 20, len(rows))
    lines = ["timestamp,op,object_id,bytes"]
    lines += [f"{base + t:.6f},{op},{obj},{b}" for (t, op, obj), b in zip(rows, sizes.tolist())]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def setup(workload: str, seed: int, workdir: Path, size: Size = FULL) -> dict:
    """Make the workload's inputs from ``seed``; files go under ``workdir``."""
    workdir.mkdir(parents=True, exist_ok=True)
    inputs: dict = {"workload": workload, "seed": seed, "size": size, "workdir": workdir}
    if workload in ("trace-sweep", "trace-audit"):
        trace = workdir / "trace.csv"
        write_trace(trace, seed, size)
        inputs["trace"] = trace
    if workload == "trace-audit":
        columns = {"timestamp": "timestamp", "op": "op", "object_id": "object_id"}
        times = repsim.ingest_trace(str(trace), TARGET, columns)
        assigned = repsim.assign_servers(times, N_SERVERS, seed)
        rates = repsim.RATE_SETS[AUDIT_RATE_SET]
        inputs["instance"] = repsim.Instance.build(rates, AUDIT_LAMBDA, 1, assigned)
    elif workload == "small-verify":
        rng = np.random.default_rng([seed, 2])
        seeds = rng.integers(0, 2**31, size.random_instances).tolist()
        ns = rng.integers(1, 5, size.random_instances).tolist()
        ms = rng.integers(1, 13, size.random_instances).tolist()
        inputs["instances"] = [
            (f"random-{k}", repsim.gen_random(s, n=n, m=m)) for k, (s, n, m) in enumerate(zip(seeds, ns, ms))
        ]
        inputs["fig1"] = repsim.gen_fig1(size.fig_m, 1.0, 1e-4, 1e-5)
        inputs["fig2"] = repsim.gen_fig2(size.fig_m, 1.0, 1.0, 1e-5)
    elif workload != "trace-sweep":
        raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")
    return inputs


# ---------------------------------------------------------------------------
# Jobs


def _sweep_job(inputs: dict, mark) -> dict:
    lo, hi = SWEEP_LAMBDAS
    out = {}
    for rate_set in SWEEP_RATE_SETS:
        mark(rate_set)
        csv_path = inputs["workdir"] / f"sweep-{rate_set}.csv"
        argv = [
            "sweep", "--trace", str(inputs["trace"]), "--object-id", TARGET, "--rates", rate_set,
            "--lambda-min", str(lo), "--lambda-max", str(hi), "--lambda-step", str(hi - lo),
            "--prefix", str(inputs["size"].sweep_prefix), "--seed", str(inputs["seed"]), "--workers", "1",
            "--out", str(csv_path),
        ]
        out[rate_set] = (repsim.cli.main(argv), csv_path)
    return out


def _audit_job(inputs: dict, mark) -> dict:
    inst = inputs["instance"]
    mark("audit")
    out: dict = {}
    for name in POLICIES:
        run, cost = repsim.simulate(name, inst)
        out[name] = cost.total
        out[f"{name}.validate_schedule"] = repsim.validate_schedule(run.schedule)
        if name == "alg1":
            out["alg1.special_copy_problems"] = repsim.special_copy_problems(run)
            out["alg1.typing_problems"] = repsim.typing_problems(run)
            out["alg1.allocated"] = repsim.classify_and_allocate(run).total_allocated
    sol = repsim.opt_restricted(inst, reconstruct=True)
    out["opt"] = sol.opt_cost
    out["opt.validate_schedule"] = repsim.validate_schedule(sol.schedule)
    out["opt.validate_offline_structure"] = repsim.validate_offline_structure(sol.schedule)
    out["opt.compute_cost"] = repsim.compute_cost(sol.schedule).total
    return out


def _verify_job(inputs: dict, mark) -> dict:
    out: dict = {}
    for op, inst in inputs["instances"]:
        mark(op)
        try:
            out[op] = repsim.verify_instance(inst)
        except Exception:  # one broken instance must not hide the others
            out[op] = [traceback.format_exc()]
    for name in ("fig1", "fig2"):
        mark(name)
        inst = inputs[name].instance
        out[name] = (repsim.simulate("wang", inst)[1].total, repsim.opt_full(inst, reconstruct=False).opt_cost)
    return out


_JOBS = {"trace-sweep": _sweep_job, "trace-audit": _audit_job, "small-verify": _verify_job}


def job(workload: str, inputs: dict, mark=lambda op: None) -> dict:
    """Run the workload's fixed job once; the caller times this call."""
    return _JOBS[workload](inputs, mark)


# ---------------------------------------------------------------------------
# Output checks


def reference(workload: str, seed: int, size: Size) -> dict | None:
    """Recorded outputs for this seed, if any (only at the full size)."""
    if size != FULL:
        return None
    with open(REFERENCES, encoding="utf-8") as fh:
        return json.load(fh).get(workload, {}).get(str(seed))


def check_sweep_csv(text: str, rate_set: str, inputs: dict) -> list[Outcome]:
    """One outcome per (rate set, lambda) cell of a sweep CSV."""
    size: Size = inputs["size"]
    rates = repsim.RATE_SETS[rate_set]
    bound = competitive_bound(rates)
    cells: dict[str, dict] = {}
    lines = text.splitlines()
    if not lines or lines[0] != "rate_set,lambda,policy,online_cost,opt_cost,ratio,requests,seed":
        return [Outcome(f"{rate_set}/header", False, "missing or altered CSV header")]
    for line in lines[1:]:
        fields = line.split(",")
        if len(fields) != 8:
            return [Outcome(f"{rate_set}/rows", False, f"malformed row {line!r}")]
        rs, lam, policy, online, opt, _ratio, requests, seed = fields
        cell = cells.setdefault(f"{rs}/{lam}", {"problems": []})
        cell[policy] = float(online)
        p = cell["problems"]
        if opt == "NA":
            p.append(f"{policy}: optimum is NA")
            continue
        opt_v = float(opt)
        cell["opt"] = opt_v
        if rs != rate_set or int(requests) != size.sweep_prefix or int(seed) != inputs["seed"]:
            p.append(f"{policy}: row {line!r} does not match the inputs")
        if not _at_most(opt_v, float(online)):
            p.append(f"{policy}: cost {online} undercuts the optimum {opt}")
        if policy == "alg1" and not _at_most(float(online), bound * opt_v):
            p.append(f"alg1: cost {online} exceeds {bound:g} x optimum {opt}")
        if policy == "simple" and not _at_most(float(online), 3.0 * opt_v):
            p.append(f"simple: cost {online} exceeds 3 x optimum {opt}")
    lo, hi = SWEEP_LAMBDAS
    expected = {f"{rate_set}/{lam:.10g}" for lam in (float(lo), float(hi))}
    out = []
    for key in sorted(expected | set(cells)):
        cell = cells.get(key)
        if cell is None:
            out.append(Outcome(key, False, "cell missing from the CSV"))
            continue
        problems = list(cell["problems"])
        problems += [f"{p}: row missing" for p in POLICIES if p not in cell]
        if key not in expected:
            problems.append("unexpected cell")
        out.append(Outcome(key, not problems, "; ".join(problems)))
    return out


def _check_sweep(inputs: dict, output: dict, ref: dict | None) -> tuple[list[Outcome], str]:
    outcomes: list[Outcome] = []
    digest = hashlib.sha256()
    for rate_set, (code, csv_path) in output.items():
        if code != 0:
            outcomes.append(Outcome(rate_set, False, f"sweep exited with code {code}"))
            continue
        data = csv_path.read_bytes()
        digest.update(data)
        cells = check_sweep_csv(data.decode("utf-8"), rate_set, inputs)
        sha = hashlib.sha256(data).hexdigest()
        if ref is not None and ref.get(rate_set) != sha:
            mismatch = f"CSV sha256 {sha} differs from the reference {ref.get(rate_set)}"
            cells = [Outcome(c.op, False, "; ".join(filter(None, (c.detail, mismatch)))) for c in cells]
        outcomes += cells
    return outcomes, digest.hexdigest()


def _check_audit(inputs: dict, output: dict, ref: dict | None) -> tuple[list[Outcome], str]:
    inst = inputs["instance"]
    opt = output["opt"]
    out = [
        Outcome(key, not output[key], "; ".join(str(v) for v in output[key][:3]))
        for key in (
            "alg1.validate_schedule", "wang.validate_schedule", "simple.validate_schedule",
            "alg1.special_copy_problems", "alg1.typing_problems",
            "opt.validate_schedule", "opt.validate_offline_structure",
        )
    ]
    out.append(Outcome("alg1.allocation_conserved", _close(output["alg1.allocated"], output["alg1"]),
                       f"allocated {output['alg1.allocated']!r} vs cost {output['alg1']!r}"))
    out.append(Outcome("opt.compute_cost", _close(output["opt.compute_cost"], opt),
                       f"schedule cost {output['opt.compute_cost']!r} vs optimum {opt!r}"))
    for name in POLICIES:
        out.append(Outcome(f"{name}.above_opt", _at_most(opt, output[name]), f"{output[name]!r} vs {opt!r}"))
    bound = competitive_bound([s.rate for s in inst.servers])
    out.append(Outcome("alg1.bound", _at_most(output["alg1"], bound * opt), f"bound {bound:g}"))
    out.append(Outcome("simple.bound", _at_most(output["simple"], 3.0 * opt), "bound 3"))
    if ref is not None:
        for key in ("opt",) + POLICIES:
            out.append(Outcome(f"{key}.reference", _close(output[key], ref[key]),
                               f"{output[key]!r} vs reference {ref[key]!r}"))
    digest = repr([output[k] for k in ("opt",) + POLICIES])
    return out, digest


def _check_verify(inputs: dict, output: dict, ref: dict | None) -> tuple[list[Outcome], str]:
    out = []
    for op, _inst in inputs["instances"]:
        problems = output[op]
        out.append(Outcome(op, not problems, "; ".join(problems[:3])))
    for name in ("fig1", "fig2"):
        res = inputs[name]
        wang, opt = output[name]
        problems = []
        if not _close(opt, res.optimal_cost):
            problems.append(f"optimum {opt!r} differs from the closed form {res.optimal_cost!r}")
        if not _at_most(res.wang_lower_bound, wang):
            problems.append(f"wang cost {wang!r} is below its lower bound {res.wang_lower_bound!r}")
        out.append(Outcome(name, not problems, "; ".join(problems)))
    digest = repr((sum(len(output[op]) for op, _ in inputs["instances"]), output["fig1"], output["fig2"]))
    return out, digest


_CHECKS = {"trace-sweep": _check_sweep, "trace-audit": _check_audit, "small-verify": _check_verify}


def check(workload: str, inputs: dict, output: dict, ref: dict | None = None) -> tuple[list[Outcome], str]:
    """Outcomes of every operation of one job, and a digest of its results.

    ``ref`` holds recorded outputs for the seed (see ``reference``); without
    one only the invariants are checked.
    """
    return _CHECKS[workload](inputs, output, ref)
