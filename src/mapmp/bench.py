"""Benchmark harness: seeded multi-trial solves with per-iteration metrics,
CSV emission, and the standard-vs-accelerated competitive-ratio protocol.

One run solves a single instance (loaded from a file or generated) with one
algorithm, or with a standard/accelerated pair in ratio mode, over several
trials.  The instance is fixed across trials; only the solvers' sampling
streams vary, derived per (algorithm, trial) from the run seed via NumPy
``SeedSequence([seed, algorithm_index, trial])``.  Trials are independent
and rows are emitted in deterministic (algorithm, trial, iteration) order,
so a fixed config yields byte-identical CSV output.  For that reason the
``elapsed_ms`` column is 0 unless wall-clock timing is explicitly enabled,
which gives up reproducibility of that column.

Per recorded iteration the metrics are the dual value, the primal value of
the projected candidate <C, Proj(mu^lam, 0)>, its gap to a reference optimum
(the exact LP value when the instance is small enough or a supplied value;
empty otherwise), and the slack score.  The ratio summary reports, per
recorded iteration, the mean and standard deviation over trials of
log(standard gap / accelerated gap); trials where either gap is zero within
floating-point noise are left out, and the row is empty if none remain.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import OracleGuardError, ValidationError
from .formats import read_model
from .model import Model, default_edge_prob, erdos_renyi_potts
# recover_primal stays bound, uncalled: benchmarks/workloads.py wraps it by name.
from .objective import Marginals, _check_eta, primal_objective, recover_primal
from .oracle import lp_solve_l2
from .projection import proj
from .schedulers import SolveTrace, accel_block_grad, accel_emp, accel_smp, standard_mp

ALGORITHMS = ("emp", "smp", "bcd", "accel-emp", "accel-smp", "accel-bcd")
RATIO_PAIR = {"emp": "accel-emp", "smp": "accel-smp", "bcd": "accel-bcd"}
METRIC_HEADER = (
    "trial",
    "iter",
    "algorithm",
    "dual_value",
    "projected_primal",
    "primal_gap",
    "slack_score",
    "elapsed_ms",
)
SUMMARY_HEADER = (
    "algorithm",
    "iter",
    "primal_mean",
    "primal_std",
    "gap_mean",
    "gap_std",
)
RATIO_HEADER = ("iter", "log_ratio_mean", "log_ratio_std", "trials_used")

_GAP_FLOOR = 1e-12


def _check_algorithm(name: str) -> None:
    if name not in ALGORITHMS:
        raise ValidationError(f"unknown algorithm {name!r}, expected one of {ALGORITHMS}")


@dataclass
class BenchConfig:
    """One benchmark run. Provide either ``model_file`` or generation
    parameters (``n``, ``d``, optional ``edge_prob`` defaulting to the
    1.1 log(n) / n sparse regime)."""

    algorithm: str
    eta: float
    iters: int
    trials: int
    seed: int
    stride: int = 1
    model_file: str | None = None
    n: int | None = None
    d: int | None = None
    edge_prob: float | None = None
    ratio: bool = False
    opt_value: float | None = None
    timing: bool = False

    def validate(self) -> None:
        _check_algorithm(self.algorithm)
        if self.ratio and self.algorithm not in RATIO_PAIR:
            raise ValidationError(
                "ratio mode pairs a standard algorithm with its accelerated "
                f"variant; got {self.algorithm!r}"
            )
        _check_eta(self.eta)
        if self.trials < 1:
            raise ValidationError(f"trials must be >= 1, got {self.trials}")
        if self.iters < 0:
            raise ValidationError(f"iters must be >= 0, got {self.iters}")
        if self.stride < 1:
            raise ValidationError(f"stride must be >= 1, got {self.stride}")
        if self.seed < 0:
            raise ValidationError(f"seed must be >= 0, got {self.seed}")
        if self.opt_value is not None and not math.isfinite(self.opt_value):
            raise ValidationError(f"opt_value must be finite, got {self.opt_value}")
        has_file = self.model_file is not None
        has_gen = self.n is not None or self.d is not None
        if has_file == has_gen:
            raise ValidationError(
                "provide exactly one instance source: a model file or (n, d)"
            )
        if has_gen and (self.n is None or self.d is None):
            raise ValidationError("generated instances need both n and d")


@dataclass
class MetricRow:
    trial: int
    iteration: int
    algorithm: str
    dual_value: float
    projected_primal: float
    primal_gap: float | None
    slack_score: float
    elapsed_ms: float


@dataclass
class SummaryRow:
    algorithm: str
    iteration: int
    primal_mean: float
    primal_std: float
    gap_mean: float | None
    gap_std: float | None


@dataclass
class RatioRow:
    iteration: int
    log_ratio_mean: float | None
    log_ratio_std: float | None
    trials_used: int


@dataclass
class BenchResult:
    config: BenchConfig
    model: Model
    opt_value: float | None
    rows: list = field(default_factory=list)
    summary: list = field(default_factory=list)
    ratio_rows: list = field(default_factory=list)


def resolve_model(config: BenchConfig) -> Model:
    """The run's instance: read from ``model_file`` (native or UAI) or
    generated from (n, d, edge_prob) with the run seed."""
    if config.model_file is not None:
        return read_model(config.model_file)
    edge_prob = config.edge_prob
    if edge_prob is None:
        edge_prob = default_edge_prob(config.n)
    return erdos_renyi_potts(config.n, edge_prob, config.d, config.seed)


def _resolve_opt_value(config: BenchConfig, model: Model) -> float | None:
    if config.opt_value is not None:
        return float(config.opt_value)
    try:
        return lp_solve_l2(model).value
    except OracleGuardError:
        return None


def solve(algorithm: str, model: Model, eta: float, iters: int, seed, **options) -> SolveTrace:
    """Run the solver named ``algorithm`` (one of ``ALGORITHMS``) from
    lam = 0; ``options`` are that solver's keyword options.  The solver
    functions are looked up in this module at each call."""
    _check_algorithm(algorithm)
    accelerated = {"accel-emp": accel_emp, "accel-smp": accel_smp, "accel-bcd": accel_block_grad}
    if algorithm in accelerated:
        return accelerated[algorithm](model, eta, iters, seed, **options)
    return standard_mp(model, algorithm, eta, iters, seed, **options)


def _mean_std(values) -> tuple:
    """(mean, std) of ``values``, or (None, None) when it is empty."""
    if not values:
        return None, None
    return float(np.mean(values)), float(np.std(values))


def run_bench(config: BenchConfig, model: Model | None = None) -> BenchResult:
    """Execute a benchmark run; see the module docstring for the protocol.
    ``model``, when given, is ``resolve_model(config)`` already built."""
    config.validate()
    model = resolve_model(config) if model is None else model
    opt_value = _resolve_opt_value(config, model)
    algorithms = [config.algorithm]
    if config.ratio:
        algorithms.append(RATIO_PAIR[config.algorithm])

    result = BenchResult(config=config, model=model, opt_value=opt_value)
    columns = []  # per algorithm, per record: the projected primal of each trial
    for alg in algorithms:
        primals_per_trial = []
        for trial in range(config.trials):
            seed = np.random.SeedSequence([config.seed, ALGORITHMS.index(alg), trial])
            primals: list[float] = []

            def observe(k: int, lam: np.ndarray, mu: Marginals) -> None:
                primals.append(primal_objective(model, proj(model, mu)))

            trace = solve(
                alg, model, config.eta, config.iters, seed, stride=config.stride, observer=observe
            )
            elapsed = trace.elapsed_ms if config.timing else np.zeros(len(primals))
            records = zip(
                trace.iterations.tolist(), primals, trace.dual_values.tolist(),
                trace.slack_scores.tolist(), elapsed.tolist(),
            )
            for k, primal, dual, score, ms in records:
                gap = None if opt_value is None else primal - opt_value
                result.rows.append(MetricRow(trial, k, alg, dual, primal, gap, score, ms))
            primals_per_trial.append(primals)

        # Every trial records the same iterations: same iters and stride, no stop rule.
        iterations = trace.iterations.tolist()
        columns.append(list(zip(*primals_per_trial)))
        for k, column in zip(iterations, columns[-1]):
            gaps = [] if opt_value is None else [p - opt_value for p in column]
            result.summary.append(SummaryRow(alg, k, *_mean_std(column), *_mean_std(gaps)))

    if config.ratio and opt_value is not None:
        floor = _GAP_FLOOR * (1.0 + abs(opt_value))
        for k, standard, accel in zip(iterations, *columns):
            gaps = [(ps - opt_value, pa - opt_value) for ps, pa in zip(standard, accel)]
            ratios = [math.log(gs / ga) for gs, ga in gaps if gs > floor and ga > floor]
            result.ratio_rows.append(RatioRow(k, *_mean_std(ratios), len(ratios)))
    return result


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _csv(header: tuple, rows: list) -> str:
    """One line per row dataclass, its fields in declaration order (the
    order of ``header``)."""
    lines = [",".join(header)]
    lines += [",".join(_cell(v) for v in vars(r).values()) for r in rows]
    return "\n".join(lines) + "\n"


def metrics_csv(result: BenchResult) -> str:
    return _csv(METRIC_HEADER, result.rows)


def summary_csv(result: BenchResult) -> str:
    return _csv(SUMMARY_HEADER, result.summary)


def ratio_csv(result: BenchResult) -> str:
    return _csv(RATIO_HEADER, result.ratio_rows)


def parse_metrics_csv(text: str) -> list[MetricRow]:
    """Parse a metrics CSV back into rows (inverse of :func:`metrics_csv`)."""
    lines = text.strip().splitlines()
    if not lines or tuple(lines[0].split(",")) != METRIC_HEADER:
        raise ValidationError("unexpected metrics CSV header")
    rows = []
    for line in lines[1:]:
        cells = line.split(",")
        if len(cells) != len(METRIC_HEADER):
            raise ValidationError(f"metrics CSV row has {len(cells)} cells")
        rows.append(
            MetricRow(
                trial=int(cells[0]),
                iteration=int(cells[1]),
                algorithm=cells[2],
                dual_value=float(cells[3]),
                projected_primal=float(cells[4]),
                primal_gap=None if cells[5] == "" else float(cells[5]),
                slack_score=float(cells[6]),
                elapsed_ms=float(cells[7]),
            )
        )
    return rows
