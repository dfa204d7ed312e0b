"""Golden outputs: CLI results pinned byte for byte by sha256 digest.

The digests cover the event logs of all three policies, the allocation CSV,
a small trace sweep, the adaptive adversary (through the CLI and on a seeded
grid of its parameters), the three policies' event logs
and exact costs on a trace-scale instance, and the oracle's optimal
schedules: through the CLI on every golden instance, and with every bit of
the optimum and the prefix optima on the trace-scale instance. A change that only
restructures code must leave every digest unchanged; a change that means to
alter behaviour re-records them and says why.
"""

from __future__ import annotations

import contextlib
import hashlib
import io

import numpy as np
import pytest

import repsim as R
import repsim.cli as cli

POLICY_NAMES = ("alg1", "wang", "simple")

GOLDEN = {
    "simulate.alg1": "d716e4605ecebf4d4dd5432ccf3150e3a5d22f7b6be73fdef5afb62ed5024b9a",
    "simulate.wang": "8fbb1ff33e5a90019c0bfa668b4c9eb6ed009090484d81dca67f1836bf956775",
    "simulate.simple": "ca45cac114350ee0fb1350ee47242dfe58acf32936c9d3adf814e99c591a7f28",
    "allocate": "b768d1dbc026ddd30ec7fccbc817408e379d415e2b391e8936380f24937eed90",
    "adversary": "66020ad66b2d507d2c9497d97c178705b0de23494230b81d6a217b4cd7bf3b3a",
    "adversary.grid": "f846a13893981922d5efdd8b3f6a6c13e875bdefa92e352b9e446c80eb217b08",
    "sweep": "6f0eb1aa2cea573ab0ce8b70cd1251d775b260a46c18b0848600c1a2f64c5403",
    "sweep.default_grid": "edd76c310bb1ecddfbcffc0b38c9890c52f567fa4f5cc819c8638b8614ba40df",
    "simulate.trace": "d6d2aae57c3c5b94f2ab58f81145d97f30c0b891f984b5e987cb12b3cd48cf0b",
    "opt.full": "6a5b8311130ff3c0bb5c6c339b457baac32528e51d946e88b6eafb5d316e9a93",
    "opt.trace": "5d6efc01b1820b7f810f6d27a78409a3642072edb59edeb6d2ffac8e34406881",
}
DEFAULT_GRID_PREFIX = ["sweep", "--prefix", "300"]  # every rate set x the default lambda grid


def _named_instances() -> dict[str, R.Instance]:
    return {
        "fig1": R.gen_fig1(50, 1.0, 0.5, 0.1).instance,
        "fig2": R.gen_fig2(8, 1.0, 1.2, 0.01).instance,
        "tight1": R.gen_tight(1, mu2=1.5, lam=1.0, epsilon=0.01).instance,
        "tight2": R.gen_tight(2, mu2=2.5, lam=1.0, epsilon=0.01, tau=3.0).instance,
        "tight3": R.gen_tight(3, mu2=4.0, lam=1.0, epsilon=0.01).instance,
    }


def _random_instances() -> dict[str, R.Instance]:
    # every start server and both sides of the 3x rate-spread threshold, so
    # relocation, renew-then-relocate and anchor creation all occur
    out = {}
    for k in range(200):
        n = 1 + k % 5
        rate_range = (1.0, 19.0) if k % 2 else (1.0, 2.5)
        initial = 1 + (k // 10) % n
        out[f"random-{k}"] = R.gen_random(20_000 + k, n=n, m=k % 15, rate_range=rate_range, initial_server=initial)
    return out


def _cli(argv: list[str]) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


def _ok(argv: list[str]) -> str:
    code, out = _cli(argv)
    assert code == 0, argv
    return out


def _copies(log: str) -> list[list[str]]:
    return [line.split() for line in log.splitlines() if line.startswith("COPY ")]


def _sha(outputs: list[str]) -> str:
    return hashlib.sha256("\x00".join(outputs).encode()).hexdigest()


@pytest.fixture(scope="module")
def instance_files(tmp_path_factory) -> list[str]:
    root = tmp_path_factory.mktemp("golden")
    paths = []
    for name, inst in {**_named_instances(), **_random_instances()}.items():
        path = str(root / f"{name}.json")
        R.dump_instance(inst, path)
        paths.append(path)
    return paths


@pytest.fixture(scope="module")
def event_logs(instance_files) -> dict[str, list[str]]:
    return {
        name: [_ok(["simulate", "--policy", name, "--instance", p, "--events"]) for p in instance_files]
        for name in POLICY_NAMES
    }


def test_golden_inputs_reach_every_policy_rule(event_logs):
    alg1, wang, simple = ("".join(event_logs[name]) for name in POLICY_NAMES)
    assert "resident_special" in alg1 and "relocated_special" in alg1
    assert " relocate\n" in wang
    # wang runs that end with the sole copy renewing forever at the cheapest
    # server after copies elsewhere
    assert any(
        len(copies) > 1 and any(c[1] == "1" and c[3] == "inf" for c in copies)
        for copies in map(_copies, event_logs["wang"])
    )
    assert " create_copy\n" in simple


@pytest.mark.parametrize("name", POLICY_NAMES)
def test_golden_event_logs(event_logs, name):
    assert _sha(event_logs[name]) == GOLDEN[f"simulate.{name}"]


def test_golden_allocation_csv(instance_files):
    assert _sha([_ok(["allocate", "--instance", p]) for p in instance_files]) == GOLDEN["allocate"]


def test_golden_adversary():
    outputs = [
        "%d %s" % _cli(["adversary", "--policy", name, "--mu", mu]) for name in POLICY_NAMES for mu in ("5", "8", "20")
    ]
    assert _sha(outputs) == GOLDEN["adversary"]


def test_golden_adversary_grid():
    # 200 seeded draws per policy: mu uniform in (4, 64), lambda log-uniform in
    # (0.01, 50), epsilon log-uniform in (1e-7, 1e-2); repr keeps every bit
    rng = np.random.default_rng(12)
    draws = [
        (float(rng.uniform(4.0, 64.0)), float(np.exp(rng.uniform(np.log(0.01), np.log(50.0)))),
         float(np.exp(rng.uniform(np.log(1e-7), np.log(1e-2)))))
        for _ in range(200)
    ]
    outputs, branches = [], set()
    for name in POLICY_NAMES:
        for mu, lam, epsilon in draws:
            out = R.run_adversary(name, mu, lam, epsilon)
            run, _ = R.simulate(name, out.instance)
            outputs += [
                repr((out.branch, out.decision_time, out.online_cost, out.offline_cost)),
                R.dumps_instance(out.instance),
                run.event_log(),
            ]
            branches.add(out.branch)
    assert branches == {1, 2}
    assert _sha(outputs) == GOLDEN["adversary.grid"]


@pytest.fixture(scope="module")
def trace_instance() -> R.Instance:
    # 2,000 requests of the seeded Poisson trace on 10 servers (set4, lambda 400)
    times = R.gen_poisson_trace(42, 11_683, 50.0)[:2000]
    return R.Instance.build(R.RATE_SETS["set4"], 400.0, 1, R.assign_servers(times, 10, 42))


def test_golden_trace_scale_runs(trace_instance):
    # repr keeps every bit of each total, which the CLI outputs round to .10g
    outputs = []
    for name in POLICY_NAMES:
        run, cost = R.simulate(name, trace_instance)
        outputs += [run.event_log(), repr(cost.total)]
    assert _sha(outputs) == GOLDEN["simulate.trace"]


def test_golden_optimal_schedules(instance_files):
    outputs = [_ok(["opt", "--instance", p, "--events"]) for p in instance_files]
    assert _sha(outputs) == GOLDEN["opt.full"]


def test_golden_trace_scale_optima(trace_instance):
    # recorded over both public oracle names, which now run the same oracle
    outputs = []
    for solver in (R.opt_full, R.opt_restricted):
        sol = solver(trace_instance)
        outputs += [repr(sol.opt_cost), repr(sol.prefix_costs), repr(sol.schedule.copies), repr(sol.schedule.transfers)]
    assert _sha(outputs) == GOLDEN["opt.trace"]


def test_golden_sweep_csv():
    out = _ok(
        [
            "sweep", "--poisson-requests", "300", "--rates", "set4",
            "--lambda-min", "50", "--lambda-max", "1200", "--lambda-step", "575",
        ]
    )
    assert len(out.splitlines()) == 1 + 3 * 3
    assert _sha([out]) == GOLDEN["sweep"]


@pytest.fixture(scope="module")
def default_grid_csv() -> str:
    return _ok(DEFAULT_GRID_PREFIX)


def test_golden_default_grid_sweep(default_grid_csv):
    assert len(default_grid_csv.splitlines()) == 1 + 4 * 47 * 3
    assert _sha([default_grid_csv]) == GOLDEN["sweep.default_grid"]


def test_sweep_workers_give_the_same_bytes(default_grid_csv):
    assert _ok(DEFAULT_GRID_PREFIX + ["--workers", "2"]) == default_grid_csv
    header, *rows = default_grid_csv.splitlines(keepends=True)
    set4 = header + "".join(r for r in rows if r.startswith("set4,"))
    assert _ok(DEFAULT_GRID_PREFIX + ["--rates", "set4", "--workers", "2"]) == set4
