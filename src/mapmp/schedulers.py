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
sampling scheme.  Per iteration a scheme yields the sampled vertex, the lam
index the update writes and the update's arguments after (model, lam, eta):
``(edge, slot)`` and ``(edge, vertex)`` for pair sampling,
``(incident_edges[v], incident_slots[v])`` and ``(v,)`` for star sampling.

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
import time
from dataclasses import dataclass, field
from functools import partial
from typing import Callable

import numpy as np

from .errors import ValidationError
from .model import Model
from .objective import _check_eta, dual_and_slack, slack_score, zero_dual
# block_slack and star_slack are not called here; they stay bound because
# benchmarks/workloads.py wraps the kernel names of this module.
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
    steps: int = 0

    def advance(self) -> float:
        theta = theta_next(self.theta_prev)
        self.theta_prev = theta
        self.delta *= 1.0 - theta
        self.steps += 1
        return theta


def eta_for_epsilon(m: int, n: int, d: int, epsilon: float) -> float:
    """Regularization strength making the smoothed problem epsilon-faithful:
    eta = 4 (m + n) log(d) / epsilon."""
    if not (epsilon > 0 and math.isfinite(epsilon)):
        raise ValidationError(f"epsilon must be a positive finite number, got {epsilon}")
    return 4.0 * (m + n) * math.log(d) / epsilon


def eta_for_rounding(m: int, n: int, d: int, gap: float) -> float:
    """Regularization strength for exact rounding when the relaxation is
    tight with a unique optimum and suboptimality gap ``gap``:
    eta = 16 (m + n) (log(m + n) + log(d)) / gap."""
    if not (gap > 0 and math.isfinite(gap)):
        raise ValidationError(f"gap must be a positive finite number, got {gap}")
    return 16.0 * (m + n) * (math.log(m + n) + math.log(d)) / gap


def dual_gap_constant(m: int, n: int, d: int, eta: float, cost_inf: float) -> float:
    """G(eta) = 24 m d (m + n) (sqrt(eta) ||C||_inf + log(d) / sqrt(eta)),
    the constant in the accelerated dual-gap bound G(eta)^2 / (k + 2)^2.
    Minimized over eta at eta = log(d) / ||C||_inf."""
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
    ``best_lambda`` is the recorded iterate minimizing the slack score;
    ``solution`` is what the algorithm returns: the best iterate for the
    standard loops, the final iterate for the accelerated ones.
    ``elapsed_ms`` is solver time up to each record; ``instrumentation_ms``
    is the time spent in record passes and observer calls up to and
    including that record, which ``elapsed_ms`` leaves out.
    """

    iterations: np.ndarray
    dual_values: np.ndarray
    slack_scores: np.ndarray
    elapsed_ms: np.ndarray
    instrumentation_ms: np.ndarray
    final_lambda: np.ndarray
    best_lambda: np.ndarray
    best_iteration: int
    best_score: float
    solution: np.ndarray = field(repr=False, default=None)


class _Recorder:
    """Stride-based trace recording over ``iters`` iterations, with
    running-minimum best tracking and the slack-score stop test."""

    def __init__(self, model, eta, iters, stride, stop_slack_score, observer):
        self.total = int(iters)
        if self.total < 0:
            raise ValidationError(f"iteration count must be >= 0, got {self.total}")
        if stride < 1:
            raise ValidationError(f"stride must be >= 1, got {stride}")
        self.model = model
        self.eta = eta
        self.stride = stride
        self.stop_slack_score = stop_slack_score
        self.observer = observer
        self.iters: list[int] = []
        self.duals: list[float] = []
        self.scores: list[float] = []
        self.ms: list[float] = []
        self.instrumentation_ms: list[float] = []
        self.instrumentation_s = 0.0
        self.best_score = math.inf
        self.best_lambda = None
        self.best_iteration = -1
        self.t0 = time.perf_counter()

    def record(self, k: int, lam: np.ndarray) -> bool:
        """Record iterate ``k`` if it is due (0, the last, or a multiple of
        the stride); True when its slack score reaches the stop threshold."""
        if k != self.total and k % self.stride:
            return False
        start = time.perf_counter()
        dual, nu = dual_and_slack(self.model, lam, self.eta)
        score = slack_score(nu)
        self.iters.append(k)
        self.duals.append(dual)
        self.scores.append(score)
        self.ms.append((start - self.t0 - self.instrumentation_s) * 1e3)
        if score < self.best_score:
            self.best_score = score
            self.best_lambda = lam.copy()
            self.best_iteration = k
        if self.observer is not None:
            self.observer(k, lam.copy())
        self.instrumentation_s += time.perf_counter() - start
        self.instrumentation_ms.append(self.instrumentation_s * 1e3)
        return self.stop_slack_score is not None and score <= self.stop_slack_score

    def finish(self, lam: np.ndarray, return_best: bool) -> SolveTrace:
        return SolveTrace(
            iterations=np.array(self.iters, dtype=np.int64),
            dual_values=np.array(self.duals),
            slack_scores=np.array(self.scores),
            elapsed_ms=np.array(self.ms),
            instrumentation_ms=np.array(self.instrumentation_ms),
            final_lambda=lam.copy(),
            best_lambda=self.best_lambda.copy(),
            best_iteration=self.best_iteration,
            best_score=self.best_score,
            solution=(self.best_lambda if return_best else lam).copy(),
        )


def _pair_stream(rng, model: Model, iters: int):
    """For each of ``iters`` iterations, the sampled vertex, the lam index
    of its block ``(edge, slot)`` and the update arguments ``(edge, vertex)``:
    uniform pair indices of ``rng.integers(2 m)`` draws, drawn
    ``_SAMPLE_CHUNK`` at a time."""
    edges = model.edges
    for start in range(0, iters, _SAMPLE_CHUNK):
        for pair in rng.integers(2 * model.m, size=min(_SAMPLE_CHUNK, iters - start)).tolist():
            edge, slot = pair // 2, pair % 2
            vertex = edges.item(edge, slot)
            yield vertex, (edge, slot), (edge, vertex)


def _vertex_stream(rng, model: Model, iters: int):
    """For each of ``iters`` iterations, the sampled vertex, the lam index
    of its star ``(incident_edges[v], incident_slots[v])`` and the update
    arguments ``(vertex,)``: the degree CDF inverted at ``rng.random()``
    draws, drawn ``_SAMPLE_CHUNK`` at a time."""
    cdf = np.cumsum(model.degrees / model.degrees.sum())
    incident, slots = model.incident_edges, model.incident_slots
    last = len(cdf) - 1
    for start in range(0, iters, _SAMPLE_CHUNK):
        u = rng.random(min(_SAMPLE_CHUNK, iters - start))
        for vertex in np.minimum(np.searchsorted(cdf, u, side="right"), last).tolist():
            yield vertex, (incident[vertex], slots[vertex]), (vertex,)


def _standard_loop(model, eta, iters, seed, update, star, stride, stop_slack_score, observer):
    """Install ``update`` at the current iterate, one sampled block (pair,
    or star if ``star``) per iteration; returns the best recorded iterate."""
    rec = _Recorder(model, eta, iters, stride, stop_slack_score, observer)
    stream = _vertex_stream if star else _pair_stream
    samples = stream(np.random.default_rng(seed), model, rec.total)
    lam = zero_dual(model)
    if not rec.record(0, lam):
        for k, (_, at, args) in enumerate(samples, 1):
            lam[at] = update(model, lam, eta, *args)
            if rec.record(k, lam):
                break
    return rec.finish(lam, return_best=True)


def _accelerated_loop(
    model, eta, iters, seed, update, star, stride, stop_slack_score, observer, v_step_scale
):
    """Extrapolate y on the sampled vertex's incident edges (all that
    ``update`` may read), install ``update`` at y into lam and push its
    scaled slack at y into v; returns the final iterate."""
    rec = _Recorder(model, eta, iters, stride, stop_slack_score, observer)
    stream = _vertex_stream if star else _pair_stream
    samples = stream(np.random.default_rng(seed), model, rec.total)
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
    v = zero_dual(model)
    y = zero_dual(model)
    theta_state = ThetaState()
    if not rec.record(0, lam):
        for k, (vertex, at, args) in enumerate(samples, 1):
            theta = theta_state.advance()
            # y = theta v + (1 - theta) lam on the incident rows only; ``take``
            # gathers faster than fancy indexing, and each entry is the same
            # two products and one sum as in the whole-vector expression.
            rows = model.incident_edges[vertex]
            rows_y = v.take(rows, axis=0)
            rows_y *= theta
            rows_lam = lam.take(rows, axis=0)
            rows_lam *= 1.0 - theta
            rows_y += rows_lam
            y[rows] = rows_y
            lam[at], nu = update(model, y, eta, *args, with_slack=True)
            nu *= v_coef(vertex, theta)
            v[at] += nu
            if rec.record(k, lam):
                break
    return rec.finish(lam, return_best=False)


def standard_mp(
    model: Model,
    update_kind: str,
    eta: float,
    iters: int,
    seed,
    *,
    stride: int = 1,
    stop_slack_score: float | None = None,
    observer: Callable[[int, np.ndarray], None] | None = None,
) -> SolveTrace:
    """Randomized block-minimization loop from lam = 0.

    ``update_kind``: "emp" installs the edge-block minimizer at a uniformly
    sampled (edge, endpoint) pair; "smp" installs the star minimizer at a
    degree-proportionally sampled vertex; "bcd" takes a 1/eta gradient step
    on a uniformly sampled pair.  Returns the best recorded iterate, the one
    with the smallest recorded slack score (ties keep the earliest), so
    ``--stride`` can change what emp/smp/bcd return.
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
    step: float | None = None,
) -> SolveTrace:
    """Accelerated gradient baseline: the edge-message skeleton with the
    block minimizer replaced by a gradient step at y (default step 1/eta).
    As in ``accel_emp``, y is formed only on the sampled vertex's incident
    edges, the only rows the step and the slack read."""
    update = partial(block_grad_step, step=step)
    return _accelerated_loop(
        model, eta, iters, seed, update, False, stride, stop_slack_score, observer, v_step_scale
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
