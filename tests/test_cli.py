"""Command-line interface: subcommands, exit codes, output determinism."""

from __future__ import annotations

import re
import subprocess
import sys

import pytest

import repsim
import repsim.cli as cli
from conftest import BAD_DOCUMENTS


def _run(argv, capsys):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_simulate_tight1_prints_total(tmp_path, capsys):
    out_file = str(tmp_path / "tight1.json")
    code, _, _ = _run(["gen", "tight1", "--mu2", "1.5", "--epsilon", "0.01", "--out", out_file], capsys)
    assert code == 0
    code, out, _ = _run(["simulate", "--policy", "alg1", "--instance", out_file], capsys)
    assert code == 0
    assert "total 4 " in out
    code, out, _ = _run(["opt", "--instance", out_file], capsys)
    assert code == 0
    assert out == "oracle full optimum 2.01\n"


def test_simulate_event_log(tmp_path, capsys):
    out_file = str(tmp_path / "i.json")
    _run(["gen", "fig1", "--m", "3", "--delta", "0.5", "--epsilon", "0.1", "--out", out_file], capsys)
    code, out, _ = _run(["simulate", "--policy", "wang", "--instance", out_file, "--events"], capsys)
    assert code == 0
    assert any(line.startswith("COPY ") for line in out.splitlines())
    assert any(line.startswith("SERVE ") for line in out.splitlines())


def test_allocate_csv(tmp_path, capsys):
    out_file = str(tmp_path / "i.json")
    _run(["gen", "tight3", "--mu2", "4", "--epsilon", "0.01", "--out", out_file], capsys)
    code, out, _ = _run(["allocate", "--instance", out_file], capsys)
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "j,type,q,t_prime,allocated_cost,surcharge"
    assert lines[1].startswith("1,3,0,")  # the lone request is category 3


def test_verify_random_exit_zero(capsys):
    code, out, _ = _run(["verify", "--random", "--seed", "1", "--count", "500"], capsys)
    assert code == 0
    assert "0 violation(s)" in out


def test_opt_events_prints_schedule(tmp_path, capsys):
    out_file = str(tmp_path / "i.json")
    _run(["gen", "tight3", "--mu2", "4", "--epsilon", "0.01", "--out", out_file], capsys)
    code, out, _ = _run(["opt", "--instance", out_file, "--events"], capsys)
    assert code == 0
    assert any(line.startswith("COPY ") for line in out.splitlines())
    assert "optimum 1.04" in out


def test_verify_single_instance(tmp_path, capsys):
    out_file = str(tmp_path / "i.json")
    _run(["gen", "fig1", "--m", "4", "--delta", "0.5", "--epsilon", "0.1", "--out", out_file], capsys)
    code, out, _ = _run(["verify", "--instance", out_file], capsys)
    assert code == 0
    assert "0 violation(s)" in out


def test_verify_instance_allocates_the_alg1_run_once(monkeypatch):
    calls, typings = [], []
    allocate, typing = repsim.verify.classify_and_allocate, repsim.verify.typing_problems
    monkeypatch.setattr(repsim.verify, "classify_and_allocate", lambda run: calls.append(run) or allocate(run))
    # the public check, which a wrapper of the module's binding sees, with the allocation already made
    monkeypatch.setattr(repsim.verify, "typing_problems", lambda *args: typings.append(args) or typing(*args))
    assert repsim.verify_instance(repsim.gen_fig1(4, 1.0, 0.5, 0.1).instance) == []
    assert len(calls) == 1
    assert len(typings) == 1


def test_the_structure_validator_is_one_function_under_every_name():
    # repsim.offline keeps the name bound for the benchmark's span recorder, which wraps it there
    v = repsim.offline.validate_offline_structure
    assert v is repsim.model.validate_offline_structure is repsim.validate_offline_structure


def _verify_trace_prefix(tmp_path, capsys, prefix: int) -> None:
    # a prefix of the trace-scale instance: 10 servers, set4, lambda 400
    times = repsim.gen_poisson_trace(42, 11_683, 50.0)
    requests = repsim.assign_servers(times, 10, 42)[:prefix]
    out_file = str(tmp_path / "trace.json")
    repsim.dump_instance(repsim.Instance.build(repsim.RATE_SETS["set4"], 400.0, 1, requests), out_file)
    code, out, _ = _run(["verify", "--instance", out_file], capsys)
    assert code == 0
    assert "verify: 0 violation(s)" in out


def test_verify_trace_prefix_instance(tmp_path, capsys):
    _verify_trace_prefix(tmp_path, capsys, 3000)


def test_verify_compares_trace_scale_costs_relatively(tmp_path, capsys):
    # from 3,132 requests on, the optimum and its schedule's cost, summed in
    # another order, differ by more than an absolute 1e-9
    _verify_trace_prefix(tmp_path, capsys, 3132)


def test_verify_requires_a_source(capsys):
    code, _, err = _run(["verify"], capsys)
    assert code == 2
    assert "--instance or --random" in err


def test_verify_rejects_both_sources(capsys):
    code, out, err = _run(["verify", "--instance", "/nonexistent.json", "--random", "--count", "1"], capsys)
    assert code == 2
    assert out == ""
    assert "exactly one of --instance or --random" in err


def test_verify_exit_one_on_violations(capsys, monkeypatch):
    monkeypatch.setattr(cli, "verify_random_batch", lambda seed, count: ["stub problem"])
    code, out, _ = _run(["verify", "--random", "--seed", "1", "--count", "1"], capsys)
    assert code == 1
    assert "VIOLATION stub problem" in out


@pytest.mark.parametrize("count", ["-3", "0"])
def test_verify_random_rejects_a_count_below_one(capsys, count):
    code, out, err = _run(["verify", "--random", "--seed", "1", "--count", count], capsys)
    assert (code, out) == (2, "")
    assert err == f"error: count must be at least 1 instance, got {count}\n"


def test_verify_random_honours_the_budget(capsys, monkeypatch):
    monkeypatch.setattr(repsim.offline, "WORK_BUDGET", 1)
    code, out, _ = _run(["verify", "--random", "--seed", "1", "--count", "2"], capsys)
    assert code == 1
    assert out.count("oracle skipped") == 2
    assert out.endswith("verify: 2 violation(s)\n")


def test_the_work_budget_is_no_option(capsys):
    # the oracle's bound is the constant offline.WORK_BUDGET: no function, field or flag carries it
    import dataclasses
    import inspect

    from repsim import experiments, offline, verify

    functions = (
        offline.opt_full, offline.opt_restricted, offline.opt_costs, offline._single, offline._solve,
        verify.verify_instance, verify.verify_random_batch,
    )
    for fn in functions:
        assert "budget" not in inspect.signature(fn).parameters, fn.__name__
    assert "budget" not in {f.name for f in dataclasses.fields(experiments.ExperimentSpec)}
    for argv in (["opt", "--instance", "x.json"], ["verify", "--random"], ["sweep"]):
        with pytest.raises(SystemExit) as err:
            cli.main([*argv, "--budget", "1"])
        assert err.value.code == 2
        assert "unrecognized arguments: --budget 1" in capsys.readouterr().err


def test_usage_error_exit_two():
    with pytest.raises(SystemExit) as err:
        cli.main(["simulate", "--policy", "nope", "--instance", "x.json"])
    assert err.value.code == 2


def test_missing_instance_file_exit_two(capsys):
    code, _, err = _run(["simulate", "--policy", "alg1", "--instance", "/nonexistent.json"], capsys)
    assert code == 2
    assert "error:" in err


def test_malformed_instance_reports_context(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"lambda": 1, "initial_server": 1, "rates": [2, 1], "requests": []}')
    code, _, err = _run(["simulate", "--policy", "alg1", "--instance", str(bad)], capsys)
    assert code == 2
    assert "ascending" in err


@pytest.mark.parametrize("case", sorted(BAD_DOCUMENTS))
def test_bad_instance_values_exit_two(tmp_path, capsys, case):
    bad = tmp_path / "bad.json"
    bad.write_text(BAD_DOCUMENTS[case][0])
    code, out, err = _run(["simulate", "--policy", "alg1", "--instance", str(bad)], capsys)
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: {bad}")


def test_adversary_command(capsys):
    code, out, _ = _run(["adversary", "--policy", "wang", "--mu", "5", "--epsilon", "1e-4"], capsys)
    assert code == 0
    assert "branch 1" in out
    assert "ratio 2.058823529" in out


def test_gen_outputs_parseable_instances(capsys, tmp_path):
    for argv in (
        ["gen", "fig2", "--m", "4", "--mu2", "1.0", "--epsilon", "0.01"],
        ["gen", "random", "--seed", "3", "--n", "3", "--m", "5"],
        ["gen", "adversary", "--policy", "alg1", "--mu", "5"],
    ):
        code, out, _ = _run(argv, capsys)
        assert code == 0
        inst = repsim.loads_instance(out)
        assert inst.n >= 2 or argv[1] == "random"


@pytest.mark.parametrize("kind", ["tight2", "tight3"])
def test_gen_tight_without_mu2_uses_a_default_inside_its_bracket(kind, tmp_path, capsys):
    out_file = str(tmp_path / f"{kind}.json")
    code, _, err = _run(["gen", kind, "--out", out_file], capsys)
    assert (code, err.startswith("# expected online ")) == (0, True)
    code, out, _ = _run(["verify", "--instance", out_file], capsys)
    assert (code, out) == (0, "verify: 0 violation(s)\n")


@pytest.mark.parametrize(
    "argv",
    [
        ["gen", "random", "--seed", "-1"],
        ["verify", "--random", "--seed", "-5"],
        ["sweep", "--rates", "1,2", "--poisson-requests", "5", "--seed", "-1"],
    ],
    ids=["gen", "verify", "sweep"],
)
def test_a_negative_seed_is_refused_by_name(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    captured = capsys.readouterr()
    assert (exc.value.code, captured.out) == (2, "")
    seed = argv[argv.index("--seed") + 1]
    assert captured.err.endswith(f"error: argument --seed: must be a non-negative integer, got {seed}\n")


def test_sweep_rates_from_file(tmp_path, capsys):
    rates_file = tmp_path / "rates.txt"
    rates_file.write_text("1.0, 1.5\n2.0\n")
    code, out, _ = _run(
        [
            "sweep", "--rates", str(rates_file),
            "--lambda-min", "2", "--lambda-max", "2", "--lambda-step", "1",
            "--poisson-requests", "50", "--poisson-gap", "5", "--seed", "4",
        ],
        capsys,
    )
    assert code == 0
    assert out.splitlines()[1].startswith("rates.txt,2,")


def test_sweep_command_csv(capsys):
    code, out, _ = _run(
        [
            "sweep",
            "--rates", "1,1.5,2",
            "--lambda-min", "2", "--lambda-max", "4", "--lambda-step", "2",
            "--poisson-requests", "120", "--poisson-gap", "10",
            "--seed", "3",
        ],
        capsys,
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "rate_set,lambda,policy,online_cost,opt_cost,ratio,requests,seed"
    assert len(lines) == 1 + 2 * 3


def test_sweep_exits_one_on_a_policy_fault(monkeypatch, capsys):
    # an alg1 whose expiry drops even a sole copy breaks the run's invariant, not the input
    monkeypatch.setattr(repsim.policies.ThresholdPolicy, "expire", lambda self, sim, time, server: sim.drop(server))
    argv = ["sweep", "--rates", "1,1.5,2", "--poisson-requests", "50", "--poisson-gap", "10", "--policies", "alg1"]
    code, out, err = _run(argv, capsys)
    assert code == 1
    assert out == ""
    assert re.fullmatch(r"error: policy fault at t=[0-9.e+]+: drop of the sole copy at server [123]\n", err), err


@pytest.mark.parametrize(
    "bounds, want",
    [
        (("2.5", "4.5", "1"), ["2.5", "3.5", "4.5"]),  # fractional bounds are not truncated
        (("2.7", "4", "1"), ["2.7", "3.7"]),
        (("2", "3", "0.5"), ["2", "2.5", "3"]),  # a fractional step
        (("0.1", "0.3", "0.1"), ["0.1", "0.2", "0.3"]),  # a rounded upper end stays on the grid
    ],
)
def test_sweep_lambda_grid(capsys, bounds, want):
    lo, hi, step = bounds
    code, out, _ = _run(
        [
            "sweep", "--rates", "1,2", "--lambda-min", lo, "--lambda-max", hi, "--lambda-step", step,
            "--poisson-requests", "30", "--poisson-gap", "5", "--policies", "alg1",
        ],
        capsys,
    )
    assert code == 0
    assert sorted({line.split(",")[1] for line in out.splitlines()[1:]}, key=float) == want


@pytest.mark.parametrize(
    "bounds, flag",
    [
        (("2", "4", "0"), "--lambda-step"),
        (("2", "4", "-1"), "--lambda-step"),
        (("2", "4", "nan"), "--lambda-step"),
        (("5", "4", "1"), "--lambda-min"),
        (("-5", "2", "1"), "--lambda-min"),
        (("0", "2", "1"), "--lambda-min"),
    ],
)
def test_sweep_rejects_bad_lambda_grid(capsys, bounds, flag):
    lo, hi, step = bounds
    code, out, err = _run(
        ["sweep", "--rates", "1,2", "--lambda-min", lo, "--lambda-max", hi, "--lambda-step", step], capsys
    )
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and flag in err


def test_sweep_rejects_a_grid_over_the_point_limit(capsys):
    cap = cli.MAX_LAMBDA_POINTS
    assert len(cli._lambda_grid(1.0, float(cap), 1.0)) == cap
    for hi, step, count in ((str(cap + 1), "1", str(cap + 1)), ("1200", "5e-324", "inf")):
        argv = ["sweep", "--rates", "1,2", "--poisson-requests", "2", "--lambda-min", "1", "--lambda-max", hi]
        code, out, err = _run(argv + ["--lambda-step", step], capsys)
        assert code == 2
        assert out == ""
        assert err == f"error: the --lambda-step grid has {count} points, over the limit of {cap}\n"


def test_sweep_rejects_a_step_below_an_ulp_of_the_grid(capsys):
    # at 1e16 an ulp is 2, so 1e16 + 1 rounds back to 1e16
    argv = ["sweep", "--rates", "1,2", "--poisson-requests", "3", "--lambda-min", "1e16"]
    code, out, err = _run(argv + ["--lambda-max", "10000000000000002", "--lambda-step", "1"], capsys)
    assert (code, out) == (2, "")
    assert err == "error: --lambda-step 1 is below an ulp of the grid from --lambda-min 1e+16: it repeats 1e+16\n"


SMALL_SWEEP = [
    "sweep", "--rates", "1,2", "--lambda-min", "2", "--lambda-max", "2", "--lambda-step", "1",
    "--poisson-requests", "50", "--poisson-gap", "5", "--policies", "alg1",
]


@pytest.mark.parametrize(
    "flags, problem",
    [
        (["--prefix", "-45"], "prefix must be at least 1 request, got -45"),
        (["--prefix", "0"], "prefix must be at least 1 request, got 0"),
        (["--workers", "0"], "workers must be at least 1, got 0"),
        (["--poisson-gap", "nan"], "mean gap must be a finite number > 0, got nan"),
        (["--poisson-gap", "inf"], "mean gap must be a finite number > 0, got inf"),
        (["--poisson-requests", "-3"], "request count must be >= 0, got -3"),
        (["--poisson-gap", "1e308"], "mean gap 1e+308 over 50 requests overflows the arrival times"),
        (["--poisson-gap", "5e-324"], "mean gap 5e-324 over 50 requests gives tied arrival times"),
    ],
)
def test_sweep_rejects_bad_sizes(capsys, flags, problem):
    code, out, err = _run(SMALL_SWEEP + flags, capsys)
    assert (code, out) == (2, "")
    assert err == f"error: {problem}\n"


@pytest.mark.parametrize(
    "rates, problem",
    [
        ("set5", "--rates, read as a comma list: 'set5' is not a number"),
        ("1,x", "--rates, read as a comma list: 'x' is not a number"),
        ("", "--rates, read as a comma list: '' is not a number"),
        ("1,,2", "--rates, read as a comma list: '' is not a number"),
        ("file", "rates file {path}: 'abc' is not a number"),
    ],
    ids=["unknown-set", "bad-token", "empty", "empty-token", "file"],
)
def test_sweep_names_the_source_of_a_bad_rate(tmp_path, capsys, rates, problem):
    path = tmp_path / "rates.txt"
    path.write_text("1.5 abc\n")
    code, out, err = _run(SMALL_SWEEP + ["--rates", str(path) if rates == "file" else rates], capsys)
    assert (code, out) == (2, "")
    assert err == f"error: {problem.format(path=path)}\n"


def test_sweep_prefix_keeps_the_first_requests(capsys):
    code, out, _ = _run(SMALL_SWEEP + ["--prefix", "5"], capsys)
    assert code == 0
    assert out.splitlines()[1].split(",")[6] == "5"  # the requests column


@pytest.mark.parametrize(
    "stamp, problem",
    [
        ("abc", "timestamp 'abc' is not a number"),
        ("", "timestamp '' is not a number"),
        ("nan", "timestamp 'nan' is not finite"),
        ("-inf", "timestamp '-inf' is not finite"),
    ],
)
def test_sweep_locates_a_bad_trace_timestamp(tmp_path, capsys, stamp, problem):
    # the bad record is another object's, between two good reads of the target
    trace = tmp_path / "trace.csv"
    trace.write_text(f"timestamp,op,object_id\n1,READ,X\n\n{stamp},PUT,Y\n3,READ,X\n", encoding="utf-8")
    code, out, err = _run(
        [
            "sweep", "--trace", str(trace), "--object-id", "X", "--rates", "1,2",
            "--lambda-min", "2", "--lambda-max", "2", "--lambda-step", "1",
        ],
        capsys,
    )
    assert code == 2
    assert out == ""
    assert err == f"error: {trace}:line 4: {problem}\n"


def test_sweep_rejects_an_unknown_policy_before_the_oracle_runs(monkeypatch, capsys):
    calls = []
    monkeypatch.setattr(repsim.experiments, "opt_costs", lambda *args, **kwargs: calls.append(args))
    argv = ["sweep", "--rates", "1,2", "--poisson-requests", "30", "--poisson-gap", "5", "--policies", "alg1,nosuch"]
    for workers in ("1", "2"):
        code, out, err = _run(argv + ["--workers", workers], capsys)
        assert (code, out) == (2, "")
        assert err == "error: unknown policy 'nosuch'; expected one of ['alg1', 'simple', 'wang']\n"
    assert calls == []


def test_sweep_rejects_a_repeated_policy_before_the_oracle_runs(monkeypatch, capsys):
    calls = []
    monkeypatch.setattr(repsim.experiments, "opt_costs", lambda *args, **kwargs: calls.append(args))
    argv = ["sweep", "--poisson-requests", "5", "--rates", "set1", "--policies", "alg1,alg1", "--lambda-step", "1150"]
    code, out, err = _run(argv, capsys)
    assert (code, out, err) == (2, "", "error: policies repeats 'alg1'\n")
    assert calls == []


def test_sweep_optima_over_the_table_loop_equal_single_cost_optima_over_the_list_loop(capsys):
    # several transfer costs at n = 3 take the oracle's numpy table loop, one cost its list loop
    argv = ["sweep", "--rates", "1,2,3", "--poisson-requests", "40", "--poisson-gap", "5", "--seed", "3"]
    code, out, _ = _run(argv + ["--policies", "simple"], capsys)
    assert code == 0
    times = repsim.gen_poisson_trace(3, 40, 5.0)
    requests = repsim.assign_servers(times, 3, 3)
    rows = [line.split(",") for line in out.splitlines()[1:]]
    assert [float(row[1]) for row in rows] == list(repsim.experiments.DEFAULT_LAMBDA_VALUES)
    for row in rows:
        opt = repsim.opt_full(repsim.Instance.build((1.0, 2.0, 3.0), float(row[1]), 1, requests)).opt_cost
        assert row[4] == f"{opt:.10g}", row
    spec = repsim.ExperimentSpec(tuple(times), {"custom": (1.0, 2.0, 3.0)}, seed=3, policies=("simple",))
    for row in repsim.run_sweep(spec):  # and bit for bit, before the CSV rounds them
        assert row.opt_cost == repsim.opt_full(repsim.Instance.build((1.0, 2.0, 3.0), row.lam, 1, requests)).opt_cost


def test_identical_argv_byte_identical_output(capsys):
    argv = [
        "sweep", "--rates", "1,2", "--lambda-min", "2", "--lambda-max", "2",
        "--lambda-step", "1", "--poisson-requests", "60", "--poisson-gap", "5",
        "--seed", "9",
    ]
    _, out1, _ = _run(argv, capsys)
    _, out2, _ = _run(argv, capsys)
    assert out1 == out2


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "repsim.cli", "adversary", "--policy", "alg1", "--mu", "5"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "ratio" in proc.stdout
