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
from dataclasses import fields

from . import bench as bench_mod
from .errors import OracleGuardError, ValidationError, integer, real
from .formats import emit_model, parse_uai, read_model, read_text
from .model import Model, map_value
from .objective import primal_objective
from .oracle import brute_force_map, lp_solve_l2, tree_map
from .projection import proj, vertex_round
from .schedulers import eta_for_epsilon


def _write(path: str, text: str) -> None:
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    except OSError as exc:
        raise ValidationError(f"cannot write {path}: {exc}") from None


def _resolve_eta(args, model: Model) -> float:
    if args.epsilon is not None:
        return eta_for_epsilon(model.m, model.n, model.d, args.epsilon)
    return args.eta


def _emit(model: Model, out: str | None) -> int:
    """Write ``model`` in the native format to ``out``, or to stdout."""
    text = emit_model(model)
    if out:
        _write(out, text)
        print(f"wrote {out}: n={model.n} m={model.m} d={model.d}")
    else:
        sys.stdout.write(text)
    return 0


def _cmd_gen(args) -> int:
    return _emit(bench_mod.resolve_model(args), args.out)


def _cmd_convert(args) -> int:
    return _emit(parse_uai(read_text(args.input)), args.out)


def _cmd_solve(args) -> int:
    model = read_model(args.input)
    eta = _resolve_eta(args, model)
    candidates = []  # of iterate 0 and the last, the returned one, each from its record's pass
    trace = bench_mod.solve(args.algo, model, eta, args.iters, args.seed, stride=max(args.iters, 1),
                            observer=lambda k, lam, mu: candidates.append(mu))
    mu_hat = proj(model, candidates[-1])
    primal = primal_objective(model, mu_hat)
    assignment = vertex_round(mu_hat)
    print(f"algorithm          {args.algo}")
    print(f"eta                {eta}")
    print(f"iterations         {int(trace.iterations[-1])}")
    print(f"dual_value         {trace.dual_values[-1]}")
    print(f"slack_score        {trace.slack_scores[-1]}")
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
            raise ValidationError(f"{args.opt_file} must contain one float, got {raw!r}") from None
    flags = {f.name: getattr(args, f.name) for f in fields(bench_mod.BenchConfig) if f.name != "opt_value"}
    config = bench_mod.BenchConfig(**flags, opt_value=opt_value)
    config.validate()  # before the instance is read or generated
    model = bench_mod.resolve_model(config)
    config.eta = _resolve_eta(args, model)
    result = bench_mod.run_bench(config, model)
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


_ORACLES = {"brute": brute_force_map, "tree": tree_map, "lp": lp_solve_l2}


def _cmd_oracle(args) -> int:
    model = read_model(args.input)
    res = _ORACLES[args.method](model)
    print(f"value      {res.value}")
    if args.method != "lp":
        print(f"assignment {' '.join(str(x) for x in res.assignment)}")
    if args.method == "brute":
        print(f"unique     {res.unique}")
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
    p.set_defaults(func=_cmd_gen, model_file=None)

    p = sub.add_parser("convert", help="convert a UAI MARKOV file to the native format")
    p.add_argument("input")
    p.add_argument("--out", default=None, help="output path (default stdout)")
    p.set_defaults(func=_cmd_convert)

    p = sub.add_parser("solve", help="run one algorithm and print final values")
    p.add_argument("input", help="native or UAI model file")
    p.add_argument("--algo", choices=bench_mod.ALGORITHMS, default="accel-emp")
    scale = p.add_mutually_exclusive_group(required=True)
    scale.add_argument("--eta", type=float, default=None)
    scale.add_argument(
        "--epsilon",
        type=float,
        default=None,
        help="derive eta = 4 (m + n) log(d) / epsilon from the instance",
    )
    p.add_argument("--iters", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("bench", help="multi-trial benchmark, CSV output")
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--model", dest="model_file", metavar="MODEL", help="native or UAI model file")
    src.add_argument("--n", type=int, default=None, help="generate: vertices")
    p.add_argument("--d", type=int, default=None, help="generate: labels per vertex")
    p.add_argument("--edge-prob", type=float, default=None)
    p.add_argument("--algo", dest="algorithm", choices=bench_mod.ALGORITHMS, default="emp")
    p.add_argument(
        "--ratio",
        action="store_true",
        help="also run the accelerated variant and emit log-competitive ratios",
    )
    scale = p.add_mutually_exclusive_group()
    scale.add_argument("--eta", type=float, default=1000.0)
    scale.add_argument("--epsilon", type=float, default=None, help="derive eta from epsilon")
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
    p.add_argument("--method", choices=_ORACLES, required=True)
    p.set_defaults(func=_cmd_oracle)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        integer("seed", getattr(args, "seed", 0), 0)
        if getattr(args, "epsilon", None) is not None:
            real("epsilon", args.epsilon)  # before any model is read or generated
        return args.func(args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OracleGuardError as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
