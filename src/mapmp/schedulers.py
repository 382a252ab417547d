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

Two drivers, a standard and an accelerated one, run every solver and
differ only in their step.  Each looks up the block update of its kind
(``emp_update``, ``smp_update`` or ``block_grad_step``) at call time and
samples stars for "smp", pairs otherwise.  Both take the record schedule
from ``_Recorder.run``: record iterate 0, then per iteration yield a sample
and, after the driver's step, record every ``stride``-th iterate and the
last; stop at the first record whose slack score is at most
``stop_slack_score``.  Every solver returns the iterate of its last record,
however often it records.  A sample is the sampled vertex, ``at`` and the
update's arguments after (model, lam, eta).  ``at`` holds the flat positions
in ``lam.ravel()`` of the blocks the update returns, in its order (the layout
of ``model.pair_blocks``): its row 2 edge + slot, with ``(edge, vertex)``, for
pair sampling; ``model.incident_blocks[v]``, with ``(v,)``, for star sampling.
The drivers read and write lam, y and v through flat views, as one 1-D index
costs a fraction of (edge, slot) indexing.

The standard loop installs the update at the current iterate.  The
accelerated loop maintains the extrapolation point
y = theta * v + (1 - theta) * lam, installs the update evaluated at y and
pushes a scaled slack step into v.  One update call per iteration, with
``with_slack=True``, returns both the block(s) and the slack at y from one
evaluation of the local log-marginals.
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

import functools
import math
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ValidationError, integer, label_count, real
from .model import Model
# Bound, not called: benchmarks/workloads.py wraps dual_and_slack, block_slack and star_slack here.
from .objective import Marginals, dual_and_slack, record_pass, slack_score, zero_dual
from .updates import block_grad_step, block_slack, emp_update, smp_update, star_slack

STANDARD_UPDATE_KINDS = ("emp", "smp", "bcd")
_add, _mul = np.add, np.multiply  # positional outputs, as in ``updates``
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
    tp = real("theta_prev", theta_prev)
    if tp > 1.0:
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


def _sizes(m, n, d) -> tuple:
    """(m, n, d) as integers, m >= 0, n >= 1 and d >= 2, checked in that order."""
    return integer("m", m, 0), integer("n", n, 1), label_count(d)


def _finite(formula):
    """``formula`` under one rule: a result that is not finite, or an int past
    a double on the way, is a ``ValidationError`` naming formula and inputs."""
    @functools.wraps(formula)
    def checked(*args, **kwargs):
        try:
            value = formula(*args, **kwargs)
        except OverflowError:
            value = math.inf
        if math.isfinite(value):
            return value
        inputs = {**dict(zip(formula.__code__.co_varnames, args)), **kwargs}
        text = ", ".join(f"{k}={v}" for k, v in inputs.items())
        raise ValidationError(f"{formula.__name__.replace('_', ' ')} overflows for {text}")
    return checked


@_finite
def eta_for_epsilon(m: int, n: int, d: int, epsilon: float) -> float:
    """Regularization strength making the smoothed problem epsilon-faithful:
    eta = 4 (m + n) log(d) / epsilon."""
    m, n, d = _sizes(m, n, d)
    return 4.0 * (m + n) * math.log(d) / real("epsilon", epsilon)


@_finite
def eta_for_rounding(m: int, n: int, d: int, gap: float) -> float:
    """Regularization strength for exact rounding when the relaxation is
    tight with a unique optimum and suboptimality gap ``gap``:
    eta = 16 (m + n) (log(m + n) + log(d)) / gap."""
    m, n, d = _sizes(m, n, d)
    return 16.0 * (m + n) * (math.log(m + n) + math.log(d)) / real("gap", gap)


@_finite
def dual_gap_constant(m: int, n: int, d: int, eta: float, cost_inf: float) -> float:
    """G(eta) = 24 m d (m + n) (sqrt(eta) ||C||_inf + log(d) / sqrt(eta)),
    the constant in the accelerated dual-gap bound G(eta)^2 / (k + 2)^2.
    Minimized over eta at eta = log(d) / ||C||_inf."""
    m, n, d = _sizes(m, n, d)
    eta = real("eta", eta)
    cost_inf = real("cost_inf", cost_inf, "nonnegative")
    root = math.sqrt(eta)
    return 24.0 * m * d * (m + n) * (root * cost_inf + math.log(d) / root)


@_finite
def iteration_budget(
    m: int, n: int, d: int, eta: float, cost_inf: float, eps_prime: float
) -> int:
    """Iterations sufficient to drive expected block slack norms below
    ``eps_prime``: ceil(sqrt(4 eta) G(eta) / eps_prime)."""
    g = dual_gap_constant(m, n, d, eta, cost_inf)
    return math.ceil(math.sqrt(4.0 * eta) * g / real("eps_prime", eps_prime))


@dataclass
class SolveTrace:
    """Result of one solve.

    Parallel arrays hold one entry per recorded iterate, on the schedule of
    the module docstring; ``final_lambda`` is what the algorithm returns,
    the iterate of the last record.  ``elapsed_ms`` is solver time up to
    each record; ``instrumentation_ms`` is the time spent in record passes
    (one log-marginal pass each, read for the dual value, the slack and,
    with an observer, the primal candidate) and observer calls up to and
    including that record, which ``elapsed_ms`` leaves out.
    """

    iterations: np.ndarray
    dual_values: np.ndarray
    slack_scores: np.ndarray
    elapsed_ms: np.ndarray
    instrumentation_ms: np.ndarray
    final_lambda: np.ndarray


class _Recorder:
    """One solve's sample stream, record schedule and stop test, and its
    records, each keyed by ``SolveTrace``'s field names.  It only observes lam."""

    def __init__(self, model, eta, iters, seed, star, stride, stop_slack_score, observer):
        self.total = integer("iters", iters, 0)
        self.stride = integer("stride", stride, 1)
        self.model = model
        self.eta = real("eta", eta)
        if stop_slack_score is not None:
            real("stop_slack_score", stop_slack_score, "nonnegative")
        self.stop_slack_score = stop_slack_score
        self.observer = observer
        self.samples = _samples(model, self.total, seed, star)
        self.rows: list[dict] = []
        self.instrumentation_s = 0.0
        self.t0 = time.perf_counter()

    def run(self, lam: np.ndarray):
        """Record iterate 0, then yield each sample; after the caller's step
        on ``lam``, record it when due.  Returns at the first record that
        meets the stop threshold."""
        if self._record(0, lam):
            return
        stride, total = self.stride, self.total
        for k, sample in enumerate(self.samples, 1):
            yield sample
            if (k % stride == 0 or k == total) and self._record(k, lam):
                return

    def _record(self, k: int, lam: np.ndarray) -> bool:
        """Record iterate ``k``; True when its slack score reaches the stop threshold."""
        start = time.perf_counter()
        with np.errstate(over="ignore", invalid="ignore"):  # a non-finite record raises below
            value = record_pass(self.model, lam, self.eta)
            dual, score = value.dual, slack_score(value.slack())
        if not (math.isfinite(dual) and math.isfinite(score)):
            raise ValidationError(f"record at k={k} is not finite (dual {dual}, slack score "
                                  f"{score}) at eta={self.eta}")
        ms = (start - self.t0 - self.instrumentation_s) * 1e3
        if self.observer is not None:
            self.observer(k, lam.copy(), value.marginals())
        self.instrumentation_s += time.perf_counter() - start
        self.rows.append(dict(iterations=np.int64(k), dual_values=dual, slack_scores=score,
                              elapsed_ms=ms, instrumentation_ms=self.instrumentation_s * 1e3))
        return self.stop_slack_score is not None and score <= self.stop_slack_score

    def finish(self, lam: np.ndarray) -> SolveTrace:
        """The trace, handing over ``lam`` itself: the solver never touches it again."""
        columns = {name: np.array([row[name] for row in self.rows]) for name in self.rows[0]}
        return SolveTrace(**columns, final_lambda=lam)


def _pair_stream(rng, model: Model, iters: int):
    """For each of ``iters`` iterations, the sampled vertex, the flat lam
    positions of its block (edge, slot), shape (d,), and the update
    arguments ``(edge, vertex)``: uniform pair indices of ``rng.integers(2 m)``
    draws, drawn ``_SAMPLE_CHUNK`` at a time."""
    edges, blocks = model.edges, model.pair_blocks
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
    """The solve's star or pair stream from ``default_rng(seed)``.  A seed
    NumPy cannot take (negative, a float, a string) is a ``ValidationError``
    naming it, raised before any draw, not NumPy's bare ``ValueError`` or
    ``TypeError``."""
    if isinstance(seed, (int, np.integer)):
        integer("seed", seed, 0)
    try:
        rng = np.random.default_rng(seed)
    except (TypeError, ValueError):
        raise ValidationError(
            f"seed must be a non-negative integer, a sequence of them, a SeedSequence "
            f"or None, got {seed!r}"
        ) from None
    return (_vertex_stream if star else _pair_stream)(rng, model, iters)


def _update(kind: str) -> tuple:
    """The marked update of ``kind`` ("emp", "smp" or "bcd"), looked up in
    this module at each call, and whether that kind samples stars."""
    updates = {"emp": (emp_update, False), "smp": (smp_update, True), "bcd": (block_grad_step, False)}
    if kind in updates:
        return updates[kind]
    raise ValidationError(f"unknown update kind {kind!r}, expected one of {STANDARD_UPDATE_KINDS}")


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
    on a uniformly sampled pair.  Returns the final iterate; an EMP or SMP
    step is an exact block minimization, so the dual never rises along it.

    ``iters`` and ``stride`` are integers and ``stop_slack_score``, if
    given, a nonnegative number.  ``observer(k, lam, mu)``, if given, is
    called at every record with the iteration, a copy of the iterate and
    its primal candidate, the bytes of ``recover_primal(model, lam, eta)``
    read from the record's own pass.  The accelerated solvers take the same options,
    plus ``v_step_scale``.
    """
    update, star = _update(update_kind)
    rec = _Recorder(model, eta, iters, seed, star, stride, stop_slack_score, observer)
    lam = zero_dual(model)
    flat = lam.ravel()
    for _, at, args in rec.run(lam):
        flat[at] = update(model, lam, eta, *args)
    return rec.finish(lam)


def _accelerated(
    model: Model,
    update_kind: str,
    eta: float,
    iters: int,
    seed,
    *,
    stride: int = 1,
    stop_slack_score: float | None = None,
    observer: Callable[[int, np.ndarray, Marginals], None] | None = None,
    v_step_scale: float = 1.0,
) -> SolveTrace:
    """The accelerated solvers, ``update_kind`` as in ``standard_mp``:
    extrapolate y on the sampled vertex's incident edges (all that the
    update may read), install the update at y into lam and push its scaled
    slack at y into v; returns the final iterate."""
    update, star = _update(update_kind)
    real("v_step_scale", v_step_scale)
    rec = _Recorder(model, eta, iters, seed, star, stride, stop_slack_score, observer)
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
    theta = 1.0
    for vertex, at, args in rec.run(lam):
        theta = theta_next(theta)
        # y = theta v + (1 - theta) lam on the incident rows only, each entry
        # by the same two products and one sum as over the whole vector
        rows = model.incident_rows[vertex]
        rows_y, rows_lam = v[rows], lam_flat[rows]
        _mul(rows_y, theta, rows_y)
        _mul(rows_lam, 1.0 - theta, rows_lam)
        y_flat[rows] = _add(rows_y, rows_lam, rows_y)
        lam_flat[at], nu = update(model, y, eta, *args, True)  # with_slack
        _mul(nu, v_coef(vertex, theta), nu)
        v[at] = _add(v[at], nu, nu)
    return rec.finish(lam)


def accel_emp(model: Model, eta: float, iters: int, seed, **options) -> SolveTrace:
    """Accelerated edge message passing: per iteration, extrapolate
    y = theta v + (1 - theta) lam, install the edge-block minimizer of y at
    a uniformly sampled pair into lam, and add the pair's slack at y, scaled
    by 1 / (2 m eta theta), into v.  Returns the final iterate.

    y is formed only on the edges incident to the sampled vertex: the
    minimizer and the slack at (edge, vertex) read nothing else, so the
    iterates are those of the whole-vector extrapolation, bit for bit."""
    return _accelerated(model, "emp", eta, iters, seed, **options)


def accel_block_grad(model: Model, eta: float, iters: int, seed, **options) -> SolveTrace:
    """Accelerated gradient baseline: the edge-message skeleton with the
    block minimizer replaced by a 1/eta gradient step at y.  As in
    ``accel_emp``, y is formed only on the sampled vertex's incident edges,
    the only rows the step and the slack read."""
    return _accelerated(model, "bcd", eta, iters, seed, **options)


def accel_smp(model: Model, eta: float, iters: int, seed, **options) -> SolveTrace:
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
    return _accelerated(model, "smp", eta, iters, seed, **options)
