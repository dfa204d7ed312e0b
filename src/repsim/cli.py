"""Command-line entry point.

Subcommands: simulate, opt, allocate, verify, gen, adversary, sweep.
Exit codes: 0 success, 1 violated invariant, 2 usage or input error.
"""

from __future__ import annotations

import argparse
import math
import sys
from functools import partial

from . import experiments
from .allocation import classify_and_allocate
from .generators import CounterexampleResult, TightResult, gen_fig1, gen_fig2, gen_random, gen_tight, run_adversary
from .model import dumps_instance, load_instance, schedule_lines
from .offline import BudgetExceeded, opt_full
from .policies import POLICIES, PolicyFault, simulate
from .verify import verify_instance, verify_random_batch


def _fmt(x: float) -> str:
    return f"{x:.10g}"


def _write(text: str, path: "str | None") -> None:
    """Send ``text`` to the ``--out`` file ``path``, or to stdout without one."""
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


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
    sol = opt_full(instance, reconstruct=args.events)
    print(f"oracle full optimum {_fmt(sol.opt_cost)}")
    if args.events:
        sys.stdout.writelines(line + "\n" for line in schedule_lines(sol.schedule))
    return 0


def _cmd_allocate(args) -> int:
    instance = load_instance(args.instance)
    run, _ = simulate("alg1", instance)
    sys.stdout.write(classify_and_allocate(run).to_csv())
    return 0


def _cmd_verify(args) -> int:
    problems = verify_random_batch(*args.random) if args.random else verify_instance(load_instance(args.instance))
    sys.stdout.writelines(f"VIOLATION {p}\n" for p in problems)
    print(f"verify: {len(problems)} violation(s)")
    return 1 if problems else 0


GEN_KINDS = {  # kind: (generator, {option: default}); each --mu2 default lies inside its kind's range
    "fig1": (gen_fig1, {"m": 4, "lam": 1.0, "delta": 0.5, "epsilon": 1e-2}),
    "fig2": (gen_fig2, {"m": 4, "lam": 1.0, "mu2": 1.5, "epsilon": 1e-2}),
    "tight1": (partial(gen_tight, 1), {"mu2": 1.5, "lam": 1.0, "epsilon": 1e-2}),
    "tight2": (partial(gen_tight, 2), {"mu2": 2.5, "lam": 1.0, "epsilon": 1e-2, "tau": 1.0}),
    "tight3": (partial(gen_tight, 3), {"mu2": 4.0, "lam": 1.0, "epsilon": 1e-2}),
    "random": (gen_random, {"seed": 0, "n": 3, "m": 4}),
}


def _cmd_gen(args) -> int:
    make, defaults = GEN_KINDS[args.kind]
    res = make(**{name: getattr(args, name) for name in defaults})
    if isinstance(res, TightResult):
        print(f"# expected online {_fmt(res.online_cost)} optimum {_fmt(res.optimal_cost)} ratio {_fmt(res.ratio)}", file=sys.stderr)
    elif isinstance(res, CounterexampleResult):
        print(f"# rival lower bound {_fmt(res.wang_lower_bound)} optimum {_fmt(res.optimal_cost)}", file=sys.stderr)
    _write(dumps_instance(getattr(res, "instance", res)), args.out)
    return 0


def _cmd_adversary(args) -> int:
    outcome = run_adversary(args.policy, args.mu, args.lam, args.epsilon)
    if args.out:
        _write(dumps_instance(outcome.instance), args.out)
    print(
        f"policy {args.policy} branch {outcome.branch} decision_time {_fmt(outcome.decision_time)} "
        f"online {_fmt(outcome.online_cost)} offline {_fmt(outcome.offline_cost)} ratio {_fmt(outcome.ratio)}"
    )
    return 0 if outcome.ratio > 2.0 else 1


MAX_LAMBDA_POINTS = 2_000  # an oracle pass holds about 115 KB per grid point at n=10, so about 230 MB


def non_negative_int(text: str) -> int:
    """A seed or count: numpy's generators take only a non-negative seed."""
    if (value := int(text)) < 0:
        raise argparse.ArgumentTypeError(f"must be a non-negative integer, got {value}")
    return value


def _lambda_grid(lo: float, hi: float, step: float) -> tuple[float, ...]:
    """lo, lo + step, lo + 2*step, ... up to hi, which is included when on the grid."""
    if not (math.isfinite(step) and step > 0):
        raise ValueError(f"--lambda-step must be a positive number, got {step:g}")
    if not (math.isfinite(lo) and math.isfinite(hi) and 0 < lo <= hi):
        raise ValueError(f"--lambda-min {lo:g} and --lambda-max {hi:g} must satisfy 0 < min <= max < inf")
    steps = (hi - lo) / step + 1e-9  # the slack keeps a rounded hi on the grid; a tiny step makes it inf
    if not steps < MAX_LAMBDA_POINTS:
        count = math.floor(steps) + 1 if math.isfinite(steps) else steps
        raise ValueError(f"the --lambda-step grid has {count} points, over the limit of {MAX_LAMBDA_POINTS}")
    grid = tuple(min(lo + k * step, hi) for k in range(math.floor(steps) + 1))
    if len(set(grid)) < len(grid):  # rounding made neighbours equal
        point = next(v for v, w in zip(grid, grid[1:]) if v == w)
        raise ValueError(f"--lambda-step {step:g} is below an ulp of the grid from --lambda-min {lo:g}: it repeats {point:g}")
    return grid


def _cmd_sweep(args) -> int:
    if args.trace is None:
        for dest in ("object_id", "col_timestamp", "col_op", "col_object"):
            if getattr(args, dest) is not None:
                raise ValueError(f"--{dest.replace('_', '-')} needs --trace")
        times = experiments.gen_poisson_trace(args.seed)
    elif args.object_id is None:
        raise ValueError("--trace needs --object-id")
    else:  # a column not named is read under its key's own header name
        names = {"timestamp": args.col_timestamp, "op": args.col_op, "object_id": args.col_object}
        column_map = {key: key if name is None else name for key, name in names.items()}
        times = experiments.ingest_trace(args.trace, args.object_id, column_map)
    if args.rates in experiments.RATE_SETS:
        rate_sets = {args.rates: experiments.RATE_SETS[args.rates]}
    elif args.rates == "all":
        rate_sets = dict(experiments.RATE_SETS)
    else:
        rates = []
        for token in args.rates.split(","):
            try:
                rates.append(float(token))
            except ValueError:
                raise ValueError(f"--rates, read as a comma list: {token!r} is not a number") from None
        rate_sets = {"custom": tuple(rates)}
    lambdas = _lambda_grid(args.lambda_min, args.lambda_max, args.lambda_step)
    spec = experiments.ExperimentSpec(
        times=tuple(times),
        rate_sets=rate_sets,
        lambda_values=lambdas,
        seed=args.seed,
        policies=tuple(args.policies.split(",")),
        prefix=args.prefix,
    )
    rows = experiments.run_sweep(spec, workers=args.workers)
    _write(experiments.sweep_csv(rows), args.out)
    return 0


_Parser = partial(argparse.ArgumentParser, allow_abbrev=False)  # an option is taken only as spelled in full


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="repsim",
        description="Online dynamic replication: simulation, allocation, exact offline oracle, experiments.",
        epilog=(
            "Instance files are JSON objects with keys 'lambda' (finite number), 'initial_server' "
            "(1-based integer), 'rates' (ascending array of finite numbers), and 'requests' (array of "
            "{'t', 's'} with strictly increasing positive finite times and integer servers)."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("simulate", help="run a named policy over an instance file")
    p.add_argument("--policy", required=True, choices=sorted(POLICIES))
    p.add_argument("--instance", required=True)
    p.add_argument("--events", action="store_true", help="print the COPY/XFER/SERVE event log")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("opt", help="compute the exact offline optimum")
    p.add_argument("--instance", required=True)
    p.add_argument("--events", action="store_true", help="print the optimal schedule")
    p.set_defaults(func=_cmd_opt)

    p = sub.add_parser("allocate", help="per-request allocation CSV for a threshold-policy run")
    p.add_argument("--instance", required=True)
    p.set_defaults(func=_cmd_allocate)

    p = sub.add_parser("verify", help="run the invariant suites")
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--instance")
    source.add_argument("--random", nargs=2, type=non_negative_int, metavar=("SEED", "COUNT"))
    p.set_defaults(func=_cmd_verify)

    kinds = sub.add_parser("gen", help="emit a generated instance file").add_subparsers(
        dest="kind", required=True, parser_class=_Parser)
    for kind, (_, defaults) in GEN_KINDS.items():
        p = kinds.add_parser(kind)
        for name, default in defaults.items():
            p.add_argument(f"--{name}", type=non_negative_int if name == "seed" else type(default), default=default)
        p.add_argument("--out")
        p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("adversary", help="run the adaptive lower-bound adversary against a policy")
    p.add_argument("--policy", required=True, choices=sorted(POLICIES))
    p.add_argument("--mu", type=float, default=5.0)
    p.add_argument("--lam", type=float, default=1.0)
    p.add_argument("--epsilon", type=float, default=1e-4)
    p.add_argument("--out", help="also write the realized instance file")
    p.set_defaults(func=_cmd_adversary)

    p = sub.add_parser("sweep", help="trace-driven cost sweep over transfer costs and rate sets")
    p.add_argument("--rates", default="all", help="set1|set2|set3|set4|all, or a comma list of rates")
    p.add_argument("--lambda-min", type=float, default=50)
    p.add_argument("--lambda-max", type=float, default=1200)
    p.add_argument("--lambda-step", type=float, default=25)
    p.add_argument("--trace", help="CSV trace with a header row; needs --object-id; default: the synthetic trace")
    p.add_argument("--object-id")
    p.add_argument("--col-timestamp")
    p.add_argument("--col-op")
    p.add_argument("--col-object")
    p.add_argument("--seed", type=non_negative_int, default=0)
    p.add_argument("--policies", default="alg1,wang,simple")
    p.add_argument("--prefix", type=int, metavar="K", help="sweep only the first K requests of the trace")
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_sweep)
    return parser


def main(argv: "list[str] | None" = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (BudgetExceeded, PolicyFault, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1 if isinstance(exc, PolicyFault) else 2  # a policy fault is a violated invariant


if __name__ == "__main__":
    sys.exit(main())
