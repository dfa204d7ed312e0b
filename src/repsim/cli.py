"""Command-line entry point.

Subcommands: simulate, opt, allocate, verify, gen, adversary, sweep.
Exit codes: 0 success, 1 violated invariant, 2 usage or input error.
"""

from __future__ import annotations

import argparse
import math
import os
import sys

from . import experiments
from .allocation import classify_and_allocate
from .generators import (
    ParameterError,
    gen_fig1,
    gen_fig2,
    gen_random,
    gen_tight,
    run_adversary,
)
from .model import InstanceFormatError, dump_instance, dumps_instance, load_instance, schedule_lines
from .offline import BudgetExceeded, DEFAULT_BUDGET, opt_full
from .policies import POLICIES, PolicyFault, simulate
from .verify import verify_instance, verify_random_batch

BUDGET_HELP = "oracle work bound per transfer cost, in table entries relaxed or copied, (m+1)(n+1)2^(n-1) (default %(default)s)"


def _fmt(x: float) -> str:
    return f"{x:.10g}"


def _cmd_simulate(args) -> int:
    instance = load_instance(args.instance)
    run, cost = simulate(args.policy, instance)
    print(f"policy {args.policy} total {_fmt(cost.total)} storage {_fmt(cost.storage)} "
          f"transfer {_fmt(cost.transfer)} transfers {cost.transfer_count}")
    if args.events:
        sys.stdout.write(run.event_log())
    return 0


def _cmd_opt(args) -> int:
    instance = load_instance(args.instance)
    sol = opt_full(instance, budget=args.budget, reconstruct=args.events)
    print(f"oracle full optimum {_fmt(sol.opt_cost)}")
    if args.events and sol.schedule is not None:
        sys.stdout.writelines(line + "\n" for line in schedule_lines(sol.schedule))
    return 0


def _cmd_allocate(args) -> int:
    instance = load_instance(args.instance)
    run, _ = simulate("alg1", instance)
    sys.stdout.write(classify_and_allocate(run).to_csv())
    return 0


def _cmd_verify(args) -> int:
    if args.random == bool(args.instance):
        print("verify: give exactly one of --instance or --random", file=sys.stderr)
        return 2
    if args.random:
        problems = verify_random_batch(args.seed, args.count, budget=args.budget)
    else:
        problems = verify_instance(load_instance(args.instance), budget=args.budget)
    for p in problems:
        print(f"VIOLATION {p}")
    print(f"verify: {len(problems)} violation(s)")
    return 1 if problems else 0


def _emit_instance(instance, out: str | None) -> None:
    if out:
        dump_instance(instance, out)
    else:
        sys.stdout.write(dumps_instance(instance))


def _cmd_gen(args) -> int:
    kind = args.kind
    if kind == "fig1":
        res = gen_fig1(args.m, args.lam, args.delta, args.epsilon)
        print(f"# rival lower bound {_fmt(res.wang_lower_bound)} optimum {_fmt(res.optimal_cost)}", file=sys.stderr)
        _emit_instance(res.instance, args.out)
    elif kind == "fig2":
        res = gen_fig2(args.m, args.lam, args.mu2, args.epsilon)
        print(f"# rival lower bound {_fmt(res.wang_lower_bound)} optimum {_fmt(res.optimal_cost)}", file=sys.stderr)
        _emit_instance(res.instance, args.out)
    elif kind in ("tight1", "tight2", "tight3"):
        res = gen_tight(int(kind[-1]), args.mu2, args.lam, args.epsilon, args.tau)
        print(f"# expected online {_fmt(res.online_cost)} optimum {_fmt(res.optimal_cost)} "
              f"ratio {_fmt(res.ratio)}", file=sys.stderr)
        _emit_instance(res.instance, args.out)
    elif kind == "random":
        _emit_instance(gen_random(args.seed, args.n, args.m), args.out)
    elif kind == "adversary":
        outcome = run_adversary(args.policy, args.mu, args.lam, args.epsilon)
        print(f"# realized branch {outcome.branch} ratio {_fmt(outcome.ratio)}", file=sys.stderr)
        _emit_instance(outcome.instance, args.out)
    return 0


def _cmd_adversary(args) -> int:
    outcome = run_adversary(args.policy, args.mu, args.lam, args.epsilon)
    print(
        f"policy {args.policy} branch {outcome.branch} decision_time {_fmt(outcome.decision_time)} "
        f"online {_fmt(outcome.online_cost)} offline {_fmt(outcome.offline_cost)} ratio {_fmt(outcome.ratio)}"
    )
    return 0 if outcome.ratio > 2.0 else 1


MAX_LAMBDA_POINTS = 2_000  # an oracle pass holds about 115 KB per grid point at n=10, so about 230 MB


def _lambda_grid(lo: float, hi: float, step: float) -> tuple[float, ...]:
    """lo, lo + step, lo + 2*step, ... up to hi, which is included when on the grid."""
    if not (math.isfinite(step) and step > 0):
        raise ValueError(f"--lambda-step must be a positive number, got {step:g}")
    if not (math.isfinite(lo) and math.isfinite(hi) and lo <= hi):
        raise ValueError(f"--lambda-min {lo:g} must not exceed --lambda-max {hi:g}")
    steps = (hi - lo) / step + 1e-9  # the slack keeps a rounded hi on the grid; a tiny step makes it inf
    if not steps < MAX_LAMBDA_POINTS:
        count = math.floor(steps) + 1 if math.isfinite(steps) else steps
        raise ValueError(f"the --lambda-step grid has {count} points, over the limit of {MAX_LAMBDA_POINTS}")
    return tuple(min(lo + k * step, hi) for k in range(math.floor(steps) + 1))


def _cmd_sweep(args) -> int:
    if args.trace:
        column_map = {"timestamp": args.col_timestamp, "op": args.col_op, "object_id": args.col_object}
        times = experiments.ingest_trace(args.trace, args.object_id, column_map)
    else:
        times = experiments.gen_poisson_trace(args.seed, args.poisson_requests, args.poisson_gap)
    if args.rates in experiments.RATE_SETS:
        rate_sets = {args.rates: experiments.RATE_SETS[args.rates]}
    elif args.rates == "all":
        rate_sets = dict(experiments.RATE_SETS)
    elif os.path.exists(args.rates):
        with open(args.rates, "r", encoding="utf-8") as fh:
            rates = tuple(float(v) for v in fh.read().replace(",", " ").split())
        rate_sets = {os.path.basename(args.rates): rates}
    else:
        rates = tuple(float(v) for v in args.rates.split(","))
        rate_sets = {"custom": rates}
    lambdas = _lambda_grid(args.lambda_min, args.lambda_max, args.lambda_step)
    spec = experiments.ExperimentSpec(
        times=tuple(times),
        rate_sets=rate_sets,
        lambda_values=lambdas,
        seed=args.seed,
        policies=tuple(args.policies.split(",")),
        prefix=args.prefix,
        budget=args.budget,
    )
    rows = experiments.run_sweep(spec, workers=args.workers)
    csv_text = experiments.sweep_csv(rows)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(csv_text)
    else:
        sys.stdout.write(csv_text)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repsim",
        description="Online dynamic replication: simulation, allocation, exact offline oracle, experiments.",
        epilog=(
            "Instance files are JSON objects with keys 'lambda' (finite number), 'initial_server' "
            "(1-based integer), 'rates' (ascending array of finite numbers), and 'requests' (array of "
            "{'t', 's'} with strictly increasing positive finite times and integer servers)."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="run a named policy over an instance file")
    p.add_argument("--policy", required=True, choices=sorted(POLICIES))
    p.add_argument("--instance", required=True)
    p.add_argument("--events", action="store_true", help="print the COPY/XFER/SERVE event log")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("opt", help="compute the exact offline optimum")
    p.add_argument("--instance", required=True)
    p.add_argument("--budget", type=int, default=DEFAULT_BUDGET, help=BUDGET_HELP)
    p.add_argument("--events", action="store_true", help="print the optimal schedule")
    p.set_defaults(func=_cmd_opt)

    p = sub.add_parser("allocate", help="per-request allocation CSV for a threshold-policy run")
    p.add_argument("--instance", required=True)
    p.set_defaults(func=_cmd_allocate)

    p = sub.add_parser("verify", help="run the invariant suites")
    p.add_argument("--instance")
    p.add_argument("--random", action="store_true")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--count", type=int, default=100)
    p.add_argument("--budget", type=int, default=DEFAULT_BUDGET, help=BUDGET_HELP)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("gen", help="emit a generated instance file")
    p.add_argument("kind", choices=("fig1", "fig2", "tight1", "tight2", "tight3", "random", "adversary"))
    p.add_argument("--m", type=int, default=4)
    p.add_argument("--lam", type=float, default=1.0)
    p.add_argument("--delta", type=float, default=0.5)
    p.add_argument("--epsilon", type=float, default=1e-2)
    p.add_argument("--mu2", type=float, default=1.5)
    p.add_argument("--tau", type=float, default=1.0)
    p.add_argument("--mu", type=float, default=5.0)
    p.add_argument("--policy", default="alg1", choices=sorted(POLICIES))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--n", type=int, default=3)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("adversary", help="run the adaptive lower-bound adversary against a policy")
    p.add_argument("--policy", required=True, choices=sorted(POLICIES))
    p.add_argument("--mu", type=float, default=5.0)
    p.add_argument("--lam", type=float, default=1.0)
    p.add_argument("--epsilon", type=float, default=1e-4)
    p.set_defaults(func=_cmd_adversary)

    p = sub.add_parser("sweep", help="trace-driven cost sweep over transfer costs and rate sets")
    p.add_argument("--rates", default="all", help="set1|set2|set3|set4|all, a comma list of rates, or a file of rates")
    p.add_argument("--lambda-min", type=float, default=50)
    p.add_argument("--lambda-max", type=float, default=1200)
    p.add_argument("--lambda-step", type=float, default=25)
    p.add_argument("--trace", help="delimited trace file; otherwise a synthetic trace is used")
    p.add_argument("--object-id", default="")
    p.add_argument("--col-timestamp", default="timestamp")
    p.add_argument("--col-op", default="op")
    p.add_argument("--col-object", default="object_id")
    p.add_argument("--poisson-requests", type=int, default=11683)
    p.add_argument("--poisson-gap", type=float, default=50.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--policies", default="alg1,wang,simple")
    p.add_argument("--prefix", type=int)
    p.add_argument("--budget", type=int, default=DEFAULT_BUDGET, help=BUDGET_HELP)
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_sweep)
    return parser


def main(argv: "list[str] | None" = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (InstanceFormatError, ParameterError, BudgetExceeded, PolicyFault, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1 if isinstance(exc, PolicyFault) else 2  # a policy fault is a violated invariant


if __name__ == "__main__":
    sys.exit(main())
