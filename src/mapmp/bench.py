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
from dataclasses import dataclass, field, fields

import numpy as np

from .errors import OracleGuardError, ValidationError, integer, real
from .formats import read_model
from .model import Model, default_edge_prob, erdos_renyi_potts
# recover_primal stays bound, uncalled: benchmarks/workloads.py wraps it by name.
from .objective import Marginals, primal_objective, recover_primal
from .oracle import lp_solve_l2
from .projection import proj
from .schedulers import STANDARD_UPDATE_KINDS, SolveTrace, accel_block_grad, accel_emp, accel_smp, standard_mp

RATIO_PAIR = {kind: "accel-" + kind for kind in STANDARD_UPDATE_KINDS}
ALGORITHMS = STANDARD_UPDATE_KINDS + tuple(RATIO_PAIR.values())

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
        real("eta", self.eta)
        for name, least in (("iters", 0), ("trials", 1), ("stride", 1), ("seed", 0)):
            integer(name, getattr(self, name), least)
        for name in ("n", "d"):
            if getattr(self, name) is not None:
                integer(name, getattr(self, name))
        if self.opt_value is not None:
            real("opt_value", self.opt_value, "finite")
        has_file = self.model_file is not None
        has_gen = any(v is not None for v in (self.n, self.d, self.edge_prob))
        if has_file == has_gen:
            raise ValidationError("provide exactly one instance source: a model file or (n, d, edge_prob)")
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


def _columns(row_type) -> tuple:
    """The CSV columns of a row dataclass: its field names in declaration
    order, with ``iteration`` written as ``iter``."""
    return tuple("iter" if f.name == "iteration" else f.name for f in fields(row_type))


METRIC_HEADER = _columns(MetricRow)
SUMMARY_HEADER = _columns(SummaryRow)
RATIO_HEADER = _columns(RatioRow)


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
    generated from (n, d, edge_prob) with the run seed.  Reads only
    ``model_file``, ``n``, ``d``, ``edge_prob`` and ``seed``, of a
    ``BenchConfig`` or of the ``mapmp gen`` namespace."""
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
    """Parse a metrics CSV back into rows (inverse of :func:`metrics_csv`).
    A bad row is a ``ValidationError`` naming its line in ``text`` and, for
    a bad cell, its column."""
    lines = text.strip().splitlines()
    if not lines or tuple(lines[0].split(",")) != METRIC_HEADER:
        raise ValidationError("unexpected metrics CSV header")
    # the header's line: one more than the line breaks that strip() dropped in front
    header_no = len((text[: len(text) - len(text.lstrip())] + ",").splitlines())
    # one per METRIC_HEADER column; an empty primal_gap is None
    converters = (int, int, str, float, float, lambda cell: float(cell) if cell else None, float, float)
    rows = []
    for no, line in enumerate(lines[1:], start=header_no + 1):
        cells = line.split(",")
        if len(cells) != len(METRIC_HEADER):
            raise ValidationError(
                f"line {no}: metrics CSV row has {len(cells)} cells, expected {len(METRIC_HEADER)}"
            )
        values = []
        for name, convert, cell in zip(METRIC_HEADER, converters, cells):
            try:
                values.append(convert(cell))
            except ValueError:
                raise ValidationError(f"line {no}: bad {name} cell {cell!r}") from None
        rows.append(MetricRow(*values))
    return rows
