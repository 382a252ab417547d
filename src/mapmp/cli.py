"""Command-line interface.

Subcommands: ``gen`` (random instance to the native format), ``convert``
(UAI MARKOV to native), ``solve`` (one algorithm, prints final values),
``bench`` (multi-trial benchmark to CSV), and ``oracle`` (exhaustive / tree /
LP references).  Exit codes: 0 success, 2 validation error, 3 oracle guard
refusal.
"""

from __future__ import annotations

import argparse
import sys

from . import bench as bench_mod
from .errors import OracleGuardError, ValidationError
from .formats import emit_model, load_model, parse_uai, read_text
from .model import Model, default_edge_prob, erdos_renyi_potts, map_value
from .objective import dual_and_slack, primal_objective, recover_primal, slack_score
from .oracle import brute_force_map, lp_solve_l2, tree_map
from .projection import proj, vertex_round
from .schedulers import eta_for_epsilon


def _write(path: str, text: str) -> None:
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    except OSError as exc:
        raise ValidationError(f"cannot write {path}: {exc}") from None


def _load_any(path: str) -> Model:
    text = read_text(path)
    if text.lstrip().startswith("MARKOV"):
        return parse_uai(text)
    return load_model(text)


def _resolve_eta(args, model: Model) -> float:
    if args.epsilon is not None:
        return eta_for_epsilon(model.m, model.n, model.d, args.epsilon)
    if args.eta is None:
        raise ValidationError("provide --eta or --epsilon")
    if not args.eta > 0:
        raise ValidationError(f"eta must be positive, got {args.eta}")
    return args.eta


def _cmd_gen(args) -> int:
    edge_prob = args.edge_prob
    if edge_prob is None:
        edge_prob = default_edge_prob(args.n)
    model = erdos_renyi_potts(args.n, edge_prob, args.d, args.seed)
    text = emit_model(model)
    if args.out:
        _write(args.out, text)
        print(f"wrote {args.out}: n={model.n} m={model.m} d={model.d}")
    else:
        sys.stdout.write(text)
    return 0


def _cmd_convert(args) -> int:
    model = parse_uai(read_text(args.input))
    text = emit_model(model)
    if args.out:
        _write(args.out, text)
        print(f"wrote {args.out}: n={model.n} m={model.m} d={model.d}")
    else:
        sys.stdout.write(text)
    return 0


def _cmd_solve(args) -> int:
    model = _load_any(args.input)
    eta = _resolve_eta(args, model)
    trace = bench_mod.solve(args.algo, model, eta, args.iters, args.seed, stride=args.stride)
    dual, nu = dual_and_slack(model, trace.solution, eta)
    mu_hat = proj(model, recover_primal(model, trace.solution, eta))
    primal = primal_objective(model, mu_hat)
    assignment = vertex_round(mu_hat)
    print(f"algorithm          {args.algo}")
    print(f"eta                {eta}")
    print(f"iterations         {int(trace.iterations[-1])}")
    print(f"dual_value         {dual}")
    print(f"slack_score        {slack_score(nu)}")
    print(f"projected_primal   {primal}")
    print(f"rounded_assignment {' '.join(str(x) for x in assignment)}")
    print(f"rounded_value      {map_value(model, assignment)}")
    return 0


def _cmd_bench(args) -> int:
    opt_value = None
    if args.opt_file:
        raw = read_text(args.opt_file).strip()
        try:
            opt_value = float(raw)
        except ValueError:
            raise ValidationError(
                f"{args.opt_file} must contain one float, got {raw!r}"
            ) from None
    config = bench_mod.BenchConfig(
        algorithm=args.algo,
        eta=args.eta,
        iters=args.iters,
        trials=args.trials,
        seed=args.seed,
        stride=args.stride,
        model_file=args.model,
        n=args.n,
        d=args.d,
        edge_prob=args.edge_prob,
        ratio=args.ratio,
        opt_value=opt_value,
        timing=args.timing,
    )
    if args.epsilon is not None:
        model = bench_mod.resolve_model(config)
        config.eta = eta_for_epsilon(model.m, model.n, model.d, args.epsilon)
    result = bench_mod.run_bench(config)
    _write(args.out, bench_mod.metrics_csv(result))
    summary_path = args.out + ".summary.csv"
    _write(summary_path, bench_mod.summary_csv(result))
    print(f"wrote {args.out} and {summary_path}")
    if config.ratio:
        ratio_path = args.out + ".ratio.csv"
        _write(ratio_path, bench_mod.ratio_csv(result))
        print(f"wrote {ratio_path}")
    if result.opt_value is not None:
        print(f"reference_optimum {result.opt_value}")
    else:
        print("reference_optimum unavailable (no LP value; gap columns empty)")
    return 0


def _cmd_oracle(args) -> int:
    model = _load_any(args.input)
    if args.method == "brute":
        res = brute_force_map(model)
        print(f"value      {res.value}")
        print(f"assignment {' '.join(str(x) for x in res.assignment)}")
        print(f"unique     {res.unique}")
    elif args.method == "tree":
        res = tree_map(model)
        print(f"value      {res.value}")
        print(f"assignment {' '.join(str(x) for x in res.assignment)}")
    else:
        res = lp_solve_l2(model)
        print(f"value      {res.value}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mapmp",
        description="Entropy-regularized MAP inference: solvers, oracles, benchmarks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a random instance in the native format")
    p.add_argument("--n", type=int, required=True, help="number of vertices")
    p.add_argument("--d", type=int, required=True, help="labels per vertex")
    p.add_argument(
        "--edge-prob",
        type=float,
        default=None,
        help="edge probability (default 1.1 log(n) / n)",
    )
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None, help="output path (default stdout)")
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("convert", help="convert a UAI MARKOV file to the native format")
    p.add_argument("input")
    p.add_argument("--out", default=None, help="output path (default stdout)")
    p.set_defaults(func=_cmd_convert)

    p = sub.add_parser("solve", help="run one algorithm and print final values")
    p.add_argument("input", help="native or UAI model file")
    p.add_argument("--algo", choices=bench_mod.ALGORITHMS, default="accel-emp")
    p.add_argument("--eta", type=float, default=None)
    p.add_argument(
        "--epsilon",
        type=float,
        default=None,
        help="derive eta = 4 (m + n) log(d) / epsilon from the instance",
    )
    p.add_argument("--iters", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--stride", type=int, default=1)
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("bench", help="multi-trial benchmark, CSV output")
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--model", default=None, help="native model file")
    src.add_argument("--n", type=int, default=None, help="generate: vertices")
    p.add_argument("--d", type=int, default=None, help="generate: labels per vertex")
    p.add_argument("--edge-prob", type=float, default=None)
    p.add_argument("--algo", choices=bench_mod.ALGORITHMS, default="emp")
    p.add_argument(
        "--ratio",
        action="store_true",
        help="also run the accelerated variant and emit log-competitive ratios",
    )
    p.add_argument("--eta", type=float, default=1000.0)
    p.add_argument("--epsilon", type=float, default=None, help="derive eta from epsilon")
    p.add_argument("--iters", type=int, required=True)
    p.add_argument("--trials", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--stride", type=int, default=1)
    p.add_argument("--opt-file", default=None, help="file holding a precomputed optimal value")
    p.add_argument(
        "--timing",
        action="store_true",
        help="record solver wall-clock ms, recording left out (makes the CSV non-reproducible)",
    )
    p.add_argument("--out", required=True, help="metrics CSV path")
    p.set_defaults(func=_cmd_bench)

    p = sub.add_parser("oracle", help="exact references on a model file")
    p.add_argument("input")
    p.add_argument("--method", choices=("brute", "tree", "lp"), required=True)
    p.set_defaults(func=_cmd_oracle)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if getattr(args, "seed", 0) < 0:
            raise ValidationError(f"seed must be >= 0, got {args.seed}")
        return args.func(args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OracleGuardError as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
