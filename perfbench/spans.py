"""Span recorder for the traced benchmark run.

Only ``run.py --trace 1`` imports this module, after its untraced jobs. It
wraps, from outside the program, the public functions of each repsim module
(plus the oracle's schedule backtrack ``offline._reconstruct``): every binding
of a wrapped function in every loaded ``repsim`` module is replaced, so calls
made through ``repsim.experiments``, ``repsim.verify`` or the CLI are seen.

A span holds name, start, end, parent span and the operation id (the cell or
instance). Spans are recorded only inside a phase (``setup`` or ``job``) and
stay in memory until ``write``. Exact work counters are kept per phase next to
the timings.
"""

from __future__ import annotations

import functools
import json
import statistics
import sys
import time
from collections import Counter
from contextlib import contextmanager
from pathlib import Path

from repsim.model import Instance
from repsim.offline import BudgetExceeded

POLICIES = ("alg1", "wang", "simple")
VALIDATORS = ("model.validate", "offline.structure", "verify.special_copy", "verify.typing")
COUNTERS = (
    "offline.dp_calls", "offline.dp_steps", "offline.dp_states", "offline.budget_exceeded",
    "offline.structure_calls", "model.validate_calls", "model.validate_intervals", "model.build_calls",
    "verify.problems", "allocation.requests", "generators.gen_calls", "experiments.cells",
    *(f"allocation.cat{k}" for k in range(1, 7)),
    *(f"policies.{p}.{c}" for p in POLICIES for c in ("transfers", "copies", "requests")),
)


def _instance_of(args) -> Instance | None:
    for a in args:
        if isinstance(a, Instance):
            return a
        inst = getattr(getattr(a, "schedule", a), "instance", None)
        if isinstance(inst, Instance):
            return inst
    return None


# Counters: each hook gets (counts, args, result) after a call that returned.


def _count_dp(c: Counter, args, sol) -> None:
    inst = args[0]
    c["offline.dp_calls"] += 1
    c["offline.dp_steps"] += inst.m + 1
    c["offline.dp_states"] += (inst.m + 1) << inst.n


def _count_sim(c: Counter, args, result) -> None:
    run, _cost = result
    name = run.policy_name
    c[f"policies.{name}.transfers"] += len(run.schedule.transfers)
    c[f"policies.{name}.copies"] += len(run.schedule.copies)
    c[f"policies.{name}.requests"] += run.schedule.instance.m


def _count_validate(c: Counter, args, result) -> None:
    c["model.validate_calls"] += 1
    c["model.validate_intervals"] += len(args[0].copies)


def _count_alloc(c: Counter, args, report) -> None:
    c["allocation.requests"] += len(report.entries)
    for _req, typing, _amount in report.entries:
        c[f"allocation.cat{typing.category}"] += 1


def _counter(key: str):
    def hook(c: Counter, args, result) -> None:
        c[key] += 1
    return hook


def _count_cells(c: Counter, args, rows) -> None:
    c["experiments.cells"] += len({(r.rate_set, r.lam) for r in rows})


def _count_problems(c: Counter, args, problems) -> None:
    c["verify.problems"] += len(problems)


# (span name, module, attribute, counter hook)
TARGETS = (
    ("cli.main", "repsim.cli", "main", None),
    ("experiments.ingest", "repsim.experiments", "ingest_trace", None),
    ("experiments.run_sweep", "repsim.experiments", "run_sweep", _count_cells),
    ("experiments.csv", "repsim.experiments", "sweep_csv", None),
    ("offline.dp", "repsim.offline", "opt_full", _count_dp),
    ("offline.dp", "repsim.offline", "opt_restricted", _count_dp),
    ("offline.reconstruct", "repsim.offline", "_reconstruct", None),
    ("offline.structure", "repsim.offline", "validate_offline_structure", _counter("offline.structure_calls")),
    ("model.validate", "repsim.model", "validate_schedule", _count_validate),
    ("model.cost", "repsim.model", "compute_cost", None),
    ("policies.simulate", "repsim.policies", "simulate", _count_sim),
    ("allocation.alloc", "repsim.allocation", "classify_and_allocate", _count_alloc),
    ("verify.special_copy", "repsim.verify", "special_copy_problems", None),
    ("verify.typing", "repsim.verify", "typing_problems", None),
    ("verify.instance", "repsim.verify", "verify_instance", _count_problems),
    ("generators.gen", "repsim.generators", "gen_random", _counter("generators.gen_calls")),
    ("generators.gen", "repsim.generators", "gen_fig1", _counter("generators.gen_calls")),
    ("generators.gen", "repsim.generators", "gen_fig2", _counter("generators.gen_calls")),
)


class Recorder:
    """In-memory spans and counters of one traced run."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent, op]
        self.stack: list[int] = []
        self.counts: dict[int, Counter] = {}  # phase span index -> counters
        self.op = ""
        self._patches: list[tuple[object, str, object]] = []

    # -- spans ----------------------------------------------------------------

    def _open(self, name: str, op: str) -> int:
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, self.stack[-1] if self.stack else -1, op])
        self.stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self.stack.pop()

    @contextmanager
    def phase(self, kind: str):
        """A root span (``setup`` or ``job``); calls are recorded only inside one."""
        idx = self._open(f"bench.{kind}", "")
        self.counts[idx] = Counter()
        try:
            yield idx
        finally:
            self._close(idx)

    def mark(self, op: str) -> None:
        self.op = op

    def _wrap(self, name: str, fn, hook):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.stack:
                return fn(*args, **kwargs)
            span_name = name
            if name == "policies.simulate":
                policy = args[0] if isinstance(args[0], str) else args[0].name
                span_name = f"policies.{policy}"
            inst = _instance_of(args)
            op = self.op if inst is None else f"{self.op}@lam={inst.transfer_cost:g}"
            counts = self.counts[self.stack[0]]
            idx = self._open(span_name, op)
            try:
                result = fn(*args, **kwargs)
            except BudgetExceeded:
                counts["offline.budget_exceeded"] += 1
                raise
            finally:
                self._close(idx)
            if hook is not None:
                hook(counts, args, result)
            return result

        return wrapper

    # -- patching -------------------------------------------------------------

    def install(self) -> None:
        modules = [m for key, m in sys.modules.items() if key == "repsim" or key.startswith("repsim.")]
        for name, module_name, attr, hook in TARGETS:
            original = getattr(sys.modules[module_name], attr, None)
            if original is None:  # gone from the program: its span reads 0, its time stays in the caller
                continue
            wrapped = self._wrap(name, original, hook)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patches.append((module, key, value))
                        setattr(module, key, wrapped)
        build = Instance.__dict__["build"]
        self._patches.append((Instance, "build", build))
        Instance.build = classmethod(self._wrap("model.build", build.__func__, _counter("model.build_calls")))

    def uninstall(self) -> None:
        for target, key, value in reversed(self._patches):
            setattr(target, key, value)
        self._patches.clear()

    # -- results --------------------------------------------------------------

    def _aggregate(self, root: int) -> tuple[Counter, Counter]:
        """Inclusive and self seconds per span name under one phase."""
        incl, child = Counter(), Counter()
        names: dict[int, str] = {}
        for idx in range(root + 1, len(self.spans)):
            name, start, end, parent, _op = self.spans[idx]
            if parent == -1:
                break
            names[idx] = name
            incl[name] += end - start
            if parent != root:
                child[parent] += end - start
        selfs = Counter()
        for idx, name in names.items():
            s = self.spans[idx]
            selfs[name] += (s[2] - s[1]) - child[idx]
        return incl, selfs

    def phase_values(self, root: int) -> dict[str, float]:
        """Additive per-layer values (seconds and counts) of one phase."""
        incl, selfs = self._aggregate(root)
        v: dict[str, float] = {k: float(self.counts[root][k]) for k in COUNTERS}
        v["offline.dp_s"] = selfs["offline.dp"]
        v["offline.reconstruct_s"] = incl["offline.reconstruct"]
        v["offline.structure_s"] = incl["offline.structure"]
        v["model.validate_s"] = incl["model.validate"]
        v["model.build_s"] = incl["model.build"]
        v["model.cost_s"] = incl["model.cost"]
        v["verify.special_copy_s"] = incl["verify.special_copy"]
        v["verify.typing_s"] = incl["verify.typing"]
        v["verify.instance_self_s"] = selfs["verify.instance"]
        for p in POLICIES:
            v[f"policies.{p}.sim_s"] = incl[f"policies.{p}"]
        v["allocation.alloc_s"] = incl["allocation.alloc"]
        v["generators.gen_s"] = incl["generators.gen"]
        v["experiments.ingest_s"] = incl["experiments.ingest"]
        v["experiments.csv_s"] = incl["experiments.csv"]
        v["cli.self_s"] = selfs["cli.main"]
        wall = self.spans[root][2] - self.spans[root][1]
        v["share.dp"] = incl["offline.dp"] / wall
        v["share.policies"] = sum(incl[f"policies.{p}"] for p in POLICIES) / wall
        v["share.validators"] = sum(selfs[k] for k in VALIDATORS) / wall
        return v

    def metrics(self, setup_root: int, job_roots: list[int]) -> dict[str, float]:
        """Per-layer metrics: the set-up phase plus the median traced job."""
        setup = self.phase_values(setup_root)
        jobs = [self.phase_values(r) for r in job_roots]
        m = {k: setup[k] + statistics.median(j[k] for j in jobs) for k in setup}
        for k in ("share.dp", "share.policies", "share.validators"):
            m[k] = statistics.median(j[k] for j in jobs)

        def per(num: str, den: str, scale: float) -> float:
            return m[num] / m[den] * scale if m[den] else 0.0

        m["offline.dp_us_per_step"] = per("offline.dp_s", "offline.dp_steps", 1e6)
        m["offline.dp_ns_per_state"] = per("offline.dp_s", "offline.dp_states", 1e9)
        m["model.validate_us_per_interval"] = per("model.validate_s", "model.validate_intervals", 1e6)
        m["allocation.us_per_req"] = per("allocation.alloc_s", "allocation.requests", 1e6)
        for p in POLICIES:
            m[f"policies.{p}.us_per_req"] = per(f"policies.{p}.sim_s", f"policies.{p}.requests", 1e6)
        return m

    def counters(self, root: int) -> dict[str, int]:
        return {k: self.counts[root][k] for k in COUNTERS}

    def write(self, path: Path) -> None:
        """Write every span as one JSON array per line."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(["name", "start", "end", "parent", "op"]) + "\n")
            for s in self.spans:
                fh.write(json.dumps(s) + "\n")

