"""Solver loops over the smoothed dual: randomized standard message passing,
Nesterov-style accelerated variants, gradient baselines, and the eta /
iteration budgeting formulas.

Both loops start from lam = 0 and draw one seeded sample stream per solve
(NumPy PCG64 via ``default_rng``).  Block sampling is pinned so that
independent re-implementations can reproduce a run exactly:

* (edge, endpoint) pairs are enumerated in canonical edge order with the
  smaller endpoint first, i.e. pair index p maps to edge p // 2, slot p % 2,
  and the stream of one ``rng.integers(2 m)`` draw per iteration selects
  the pairs;
* vertices are drawn degree-proportionally by inverting the cumulative
  distribution at the stream of one ``rng.random()`` draw per iteration.

Both streams are drawn in chunks of ``_SAMPLE_CHUNK`` values
(``rng.integers(2 m, size=k)``, ``rng.random(k)``), which yield exactly
the scalar draws in sequence; an early stop leaves the rest of a chunk
unused.

Two loops run every solver, a standard and an accelerated one, each given a
block update (``emp_update``, ``smp_update`` or ``block_grad_step``) and a
sampling scheme.  Per iteration a scheme yields the sampled vertex, ``at``
and the update's arguments after (model, lam, eta).  ``at`` holds the flat
positions in ``lam.ravel()`` of the blocks the update returns, in its
order: (2 edge + slot) d + arange(d), shape (d,), with ``(edge, vertex)``
for pair sampling; ``model.incident_blocks[v]``, shape (deg, d), with
``(v,)`` for star sampling.  The loops read and write lam, y and v through
flat views, as one 1-D index costs a fraction of (edge, slot) indexing.

The standard loop installs the update at the current iterate and returns the
best recorded iterate: the one with the smallest slack score (sum of squared
block l1 norms) among those recorded, so ``--stride`` can change what
emp/smp/bcd return.  The accelerated loop maintains the extrapolation point
y = theta * v + (1 - theta) * lam, installs the update evaluated at y,
pushes a scaled slack step into v, and returns the final iterate.  One
update call per iteration, with ``with_slack=True``, returns both the
block(s) and the slack at y from one evaluation of the local log-marginals.
The v-step uses the literal constants 1 / (2 m eta theta) for pair sampling
and min_deg / (2 p_i theta eta N) for star sampling; ``v_step_scale``
rescales them (0.5 gives the estimate-sequence constants derived in the
convergence analysis, which differ by a factor of 2).

The accelerated loop forms y only on the rows (edges) incident to the
sampled vertex, so an iteration costs O(deg d^2) rather than O(m d).  This is
exact: the update and slack at (edge, vertex) or at a star read y only on the
edges incident to that vertex (the vertex's incident blocks and both blocks
of each incident edge), and y is formed there with the same elementwise
operations as over the whole vector, so every row read carries the same
bits.  Rows of the persistent y buffer elsewhere are stale and never read.
"""

from __future__ import annotations

import math
import operator
import time
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import ValidationError
from .model import Model, _check_labels
from .objective import Marginals, _check_eta, _dual_and_slack, _log_marginals, _marginals
# dual_and_slack, block_slack and star_slack are not called here; they stay
# bound because benchmarks/workloads.py wraps these names of this module.
from .objective import dual_and_slack, slack_score, zero_dual
from .updates import block_grad_step, block_slack, emp_update, smp_update, star_slack

STANDARD_UPDATE_KINDS = ("emp", "smp", "bcd")
# Samples drawn per rng call: memory stays O(1) in the iteration count.
_SAMPLE_CHUNK = 4096


def theta_next(theta_prev: float) -> float:
    """Next extrapolation weight: the positive root of
    theta^2 = (1 - theta) * theta_prev^2.

    Evaluated in the cancellation-free form
    2 theta_prev / (theta_prev + sqrt(theta_prev^2 + 4)) so the defining
    identity holds to ~1e-15 even after 1e4 steps.  theta_prev = 1 gives the
    golden-ratio conjugate (sqrt(5) - 1) / 2.
    """
    tp = float(theta_prev)
    if not (0.0 < tp <= 1.0):
        raise ValidationError(f"theta_prev must lie in (0, 1], got {theta_prev}")
    return 2.0 * tp / (tp + math.sqrt(tp * tp + 4.0))


@dataclass
class ThetaState:
    """Running theta sequence with its decay product.

    ``delta`` is the product of (1 - theta_j) over all advances so far; after
    s advances it is bounded by 4 / (s + 2)^2 and is non-increasing.
    """

    theta_prev: float = 1.0
    delta: float = 1.0

    def advance(self) -> float:
        theta = theta_next(self.theta_prev)
        self.theta_prev = theta
        self.delta *= 1.0 - theta
        return theta


def eta_for_epsilon(m: int, n: int, d: int, epsilon: float) -> float:
    """Regularization strength making the smoothed problem epsilon-faithful:
    eta = 4 (m + n) log(d) / epsilon."""
    _check_labels(d)
    if not (epsilon > 0 and math.isfinite(epsilon)):
        raise ValidationError(f"epsilon must be a positive finite number, got {epsilon}")
    return 4.0 * (m + n) * math.log(d) / epsilon


def eta_for_rounding(m: int, n: int, d: int, gap: float) -> float:
    """Regularization strength for exact rounding when the relaxation is
    tight with a unique optimum and suboptimality gap ``gap``:
    eta = 16 (m + n) (log(m + n) + log(d)) / gap."""
    _check_labels(d)
    if not (gap > 0 and math.isfinite(gap)):
        raise ValidationError(f"gap must be a positive finite number, got {gap}")
    return 16.0 * (m + n) * (math.log(m + n) + math.log(d)) / gap


def dual_gap_constant(m: int, n: int, d: int, eta: float, cost_inf: float) -> float:
    """G(eta) = 24 m d (m + n) (sqrt(eta) ||C||_inf + log(d) / sqrt(eta)),
    the constant in the accelerated dual-gap bound G(eta)^2 / (k + 2)^2.
    Minimized over eta at eta = log(d) / ||C||_inf."""
    _check_labels(d)
    eta = _check_eta(eta)
    if not (cost_inf >= 0 and math.isfinite(cost_inf)):
        raise ValidationError(
            f"cost_inf must be a nonnegative finite number, got {cost_inf}"
        )
    root = math.sqrt(eta)
    return 24.0 * m * d * (m + n) * (root * cost_inf + math.log(d) / root)


def iteration_budget(
    m: int, n: int, d: int, eta: float, cost_inf: float, eps_prime: float
) -> int:
    """Iterations sufficient to drive expected block slack norms below
    ``eps_prime``: ceil(sqrt(4 eta) G(eta) / eps_prime)."""
    if not (eps_prime > 0 and math.isfinite(eps_prime)):
        raise ValidationError(
            f"eps_prime must be a positive finite number, got {eps_prime}"
        )
    g = dual_gap_constant(m, n, d, eta, cost_inf)
    budget = math.sqrt(4.0 * eta) * g / eps_prime
    if not math.isfinite(budget):
        raise ValidationError(
            f"iteration budget overflows for eta={eta}, eps_prime={eps_prime}"
        )
    return int(math.ceil(budget))


@dataclass
class SolveTrace:
    """Result of one solve.

    Parallel arrays hold one entry per recorded iterate (iterate 0 and the
    final iterate are always recorded; in between, every ``stride``-th).
    ``solution`` is what the algorithm returns: for the standard loops the
    recorded iterate minimizing the slack score (``best_iteration``,
    ``best_score``), for the accelerated ones the final iterate.
    ``elapsed_ms`` is solver time up to each record; ``instrumentation_ms``
    is the time spent in record passes (one log-marginal pass each, read
    for the dual value, the slack and, with an observer, the primal
    candidate) and observer calls up to and including that record, which
    ``elapsed_ms`` leaves out.
    """

    iterations: np.ndarray
    dual_values: np.ndarray
    slack_scores: np.ndarray
    elapsed_ms: np.ndarray
    instrumentation_ms: np.ndarray
    final_lambda: np.ndarray
    best_iteration: int
    best_score: float
    solution: np.ndarray = field(repr=False, default=None)


def _integer(name: str, value) -> int:
    """``value`` as an int; a float, even a whole one, is a
    ``ValidationError`` rather than a silent truncation."""
    try:
        return operator.index(value)
    except TypeError:
        raise ValidationError(f"{name} must be an integer, got {value}") from None


class _Recorder:
    """Stride-based trace recording over ``iters`` iterations, with
    running-minimum best tracking and the slack-score stop test."""

    def __init__(self, model, eta, iters, stride, stop_slack_score, observer, keep_best):
        self.total = _integer("iteration count", iters)
        if self.total < 0:
            raise ValidationError(f"iteration count must be >= 0, got {self.total}")
        self.stride = _integer("stride", stride)
        if self.stride < 1:
            raise ValidationError(f"stride must be >= 1, got {stride}")
        self.model = model
        self.eta = _check_eta(eta)
        self.stop_slack_score = stop_slack_score
        self.observer = observer
        self.keep_best = keep_best  # copy the best iterate: the loop returns it
        self.iters: list[int] = []
        self.duals: list[float] = []
        self.scores: list[float] = []
        self.ms: list[float] = []
        self.instrumentation_ms: list[float] = []
        self.instrumentation_s = 0.0
        self.best_score = math.inf
        self.best = None
        self.best_iteration = -1
        self.t0 = time.perf_counter()

    def record(self, k: int, lam: np.ndarray) -> bool:
        """Record iterate ``k`` if it is due (0, the last, or a multiple of
        the stride); True when its slack score reaches the stop threshold."""
        if k != self.total and k % self.stride:
            return False
        start = time.perf_counter()
        logs = _log_marginals(self.model, lam, self.eta)
        dual, nu = _dual_and_slack(self.model, logs)
        score = slack_score(nu)
        self.iters.append(k)
        self.duals.append(dual)
        self.scores.append(score)
        self.ms.append((start - self.t0 - self.instrumentation_s) * 1e3)
        if score < self.best_score:
            self.best_score = score
            self.best = lam.copy() if self.keep_best else None
            self.best_iteration = k
        if self.observer is not None:
            self.observer(k, lam.copy(), _marginals(logs))
        self.instrumentation_s += time.perf_counter() - start
        self.instrumentation_ms.append(self.instrumentation_s * 1e3)
        return self.stop_slack_score is not None and score <= self.stop_slack_score

    def finish(self, lam: np.ndarray) -> SolveTrace:
        return SolveTrace(
            iterations=np.array(self.iters, dtype=np.int64),
            dual_values=np.array(self.duals),
            slack_scores=np.array(self.scores),
            elapsed_ms=np.array(self.ms),
            instrumentation_ms=np.array(self.instrumentation_ms),
            final_lambda=lam.copy(),
            best_iteration=self.best_iteration,
            best_score=self.best_score,
            solution=self.best if self.keep_best else lam.copy(),
        )


def _pair_stream(rng, model: Model, iters: int):
    """For each of ``iters`` iterations, the sampled vertex, the flat lam
    positions of its block (edge, slot), shape (d,), and the update
    arguments ``(edge, vertex)``: uniform pair indices of ``rng.integers(2 m)``
    draws, drawn ``_SAMPLE_CHUNK`` at a time."""
    edges = model.edges
    blocks = np.arange(model.dual_dim).reshape(-1, model.d)
    for start in range(0, iters, _SAMPLE_CHUNK):
        for pair in rng.integers(2 * model.m, size=min(_SAMPLE_CHUNK, iters - start)).tolist():
            edge = pair // 2
            vertex = edges.item(edge, pair % 2)
            yield vertex, blocks[pair], (edge, vertex)


def _vertex_stream(rng, model: Model, iters: int):
    """For each of ``iters`` iterations, the sampled vertex, the flat lam
    positions of its star ``incident_blocks[v]``, shape (deg, d), and the
    update arguments ``(vertex,)``: the degree CDF inverted at
    ``rng.random()`` draws, drawn ``_SAMPLE_CHUNK`` at a time."""
    cdf = np.cumsum(model.degrees / model.degrees.sum())
    blocks = model.incident_blocks
    last = len(cdf) - 1
    for start in range(0, iters, _SAMPLE_CHUNK):
        u = rng.random(min(_SAMPLE_CHUNK, iters - start))
        for vertex in np.minimum(np.searchsorted(cdf, u, side="right"), last).tolist():
            yield vertex, blocks[vertex], (vertex,)


def _samples(model: Model, iters: int, seed, star: bool):
    """The solve's star or pair stream from ``default_rng(seed)``; a negative
    integer seed is a ``ValidationError``, not NumPy's bare ``ValueError``."""
    if isinstance(seed, (int, np.integer)) and seed < 0:
        raise ValidationError(f"seed must be >= 0, got {seed}")
    return (_vertex_stream if star else _pair_stream)(np.random.default_rng(seed), model, iters)


def _standard_loop(model, eta, iters, seed, update, star, stride, stop_slack_score, observer):
    """Install ``update`` at the current iterate, one sampled block (pair,
    or star if ``star``) per iteration; returns the best recorded iterate."""
    rec = _Recorder(model, eta, iters, stride, stop_slack_score, observer, keep_best=True)
    samples = _samples(model, rec.total, seed, star)
    lam = zero_dual(model)
    flat = lam.ravel()
    if not rec.record(0, lam):
        for k, (_, at, args) in enumerate(samples, 1):
            flat[at] = update(model, lam, eta, *args)
            if rec.record(k, lam):
                break
    return rec.finish(lam)


def _accelerated_loop(
    model, eta, iters, seed, update, star, stride, stop_slack_score, observer, v_step_scale
):
    """Extrapolate y on the sampled vertex's incident edges (all that
    ``update`` may read), install ``update`` at y into lam and push its
    scaled slack at y into v; returns the final iterate."""
    if not (v_step_scale > 0 and math.isfinite(v_step_scale)):
        raise ValidationError(f"v_step_scale must be a positive finite number, got {v_step_scale}")
    rec = _Recorder(model, eta, iters, stride, stop_slack_score, observer, keep_best=False)
    samples = _samples(model, rec.total, seed, star)
    if star:
        n_total = float(model.degrees.sum())
        numerator = v_step_scale * float(model.degrees.min())
        two_p = [2.0 * (deg / n_total) for deg in model.degrees.tolist()]  # 2 p_i

        def v_coef(vertex, theta):
            return numerator / (two_p[vertex] * theta * eta * n_total)

    else:
        scale = 2.0 * model.m * eta  # keeps the association ((2 m) eta) theta

        def v_coef(vertex, theta):
            return v_step_scale / (scale * theta)

    lam = zero_dual(model)
    y = zero_dual(model)
    lam_flat, v, y_flat = lam.ravel(), zero_dual(model).ravel(), y.ravel()
    theta_state = ThetaState()
    if not rec.record(0, lam):
        for k, (vertex, at, args) in enumerate(samples, 1):
            theta = theta_state.advance()
            # y = theta v + (1 - theta) lam on the incident rows only: each
            # entry is the same two products and one sum as in the
            # whole-vector expression.
            rows = model.incident_rows[vertex]
            rows_y = v[rows]
            rows_y *= theta
            rows_lam = lam_flat[rows]
            rows_lam *= 1.0 - theta
            rows_y += rows_lam
            y_flat[rows] = rows_y
            lam_flat[at], nu = update(model, y, eta, *args, True)  # with_slack
            nu *= v_coef(vertex, theta)
            v[at] += nu
            if rec.record(k, lam):
                break
    return rec.finish(lam)


def standard_mp(
    model: Model,
    update_kind: str,
    eta: float,
    iters: int,
    seed,
    *,
    stride: int = 1,
    stop_slack_score: float | None = None,
    observer: Callable[[int, np.ndarray, Marginals], None] | None = None,
) -> SolveTrace:
    """Randomized block-minimization loop from lam = 0.

    ``update_kind``: "emp" installs the edge-block minimizer at a uniformly
    sampled (edge, endpoint) pair; "smp" installs the star minimizer at a
    degree-proportionally sampled vertex; "bcd" takes a 1/eta gradient step
    on a uniformly sampled pair.  Returns the best recorded iterate, the one
    with the smallest recorded slack score (ties keep the earliest), so
    ``--stride`` can change what emp/smp/bcd return.

    ``iters`` and ``stride`` are integers.  ``observer(k, lam, mu)``, if
    given, is called at every record with the iteration, a copy of the
    iterate and its primal candidate, the bytes of
    ``recover_primal(model, lam, eta)`` read from the record's own pass.
    The accelerated solvers take the same options.
    """
    if update_kind not in STANDARD_UPDATE_KINDS:
        raise ValidationError(
            f"unknown update kind {update_kind!r}, expected one of {STANDARD_UPDATE_KINDS}"
        )
    update = {"emp": emp_update, "smp": smp_update, "bcd": block_grad_step}[update_kind]
    return _standard_loop(
        model, eta, iters, seed, update, update_kind == "smp", stride, stop_slack_score, observer
    )


def accel_emp(
    model: Model,
    eta: float,
    iters: int,
    seed,
    *,
    stride: int = 1,
    stop_slack_score: float | None = None,
    observer=None,
    v_step_scale: float = 1.0,
) -> SolveTrace:
    """Accelerated edge message passing: per iteration, extrapolate
    y = theta v + (1 - theta) lam, install the edge-block minimizer of y at
    a uniformly sampled pair into lam, and add the pair's slack at y, scaled
    by 1 / (2 m eta theta), into v.  Returns the final iterate.

    y is formed only on the edges incident to the sampled vertex: the
    minimizer and the slack at (edge, vertex) read nothing else, so the
    iterates are those of the whole-vector extrapolation, bit for bit."""
    return _accelerated_loop(
        model, eta, iters, seed, emp_update, False, stride, stop_slack_score, observer, v_step_scale
    )


def accel_block_grad(
    model: Model,
    eta: float,
    iters: int,
    seed,
    *,
    stride: int = 1,
    stop_slack_score: float | None = None,
    observer=None,
    v_step_scale: float = 1.0,
) -> SolveTrace:
    """Accelerated gradient baseline: the edge-message skeleton with the
    block minimizer replaced by a 1/eta gradient step at y.  As in
    ``accel_emp``, y is formed only on the sampled vertex's incident edges,
    the only rows the step and the slack read."""
    return _accelerated_loop(
        model, eta, iters, seed, block_grad_step, False, stride, stop_slack_score, observer,
        v_step_scale,
    )


def accel_smp(
    model: Model,
    eta: float,
    iters: int,
    seed,
    *,
    stride: int = 1,
    stop_slack_score: float | None = None,
    observer=None,
    v_step_scale: float = 1.0,
) -> SolveTrace:
    """Accelerated star message passing.

    Samples a vertex with probability degree / (2 m), installs the star
    minimizer of y at that vertex into lam, and adds each incident slack
    block at y, scaled by min_deg / (2 p_i theta eta N) with N = 2 m, into v.
    Returns the final iterate.

    y is formed only on the vertex's incident edges: the star minimizer and
    the star slack read the vertex's incident blocks and both blocks of each
    incident edge, nothing else, so the iterates are those of the
    whole-vector extrapolation, bit for bit.
    """
    return _accelerated_loop(
        model, eta, iters, seed, smp_update, True, stride, stop_slack_score, observer, v_step_scale
    )
