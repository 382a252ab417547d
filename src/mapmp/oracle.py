"""Exact small-scale references: exhaustive MAP, tree dynamic programming,
the exact linear program over the local polytope, and the integral
suboptimality gap.

These are test-tier oracles: dense arithmetic, clarity over speed, hard size
guards instead of approximation, and a ``ValidationError`` where an
assignment value overflows a double.  Enumeration is chunked but its result
is independent of the chunking.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .errors import OracleGuardError, ValidationError
from .model import Model
from .objective import Marginals, in_local_polytope

MAX_BRUTE_STATES = 10**7
MAX_LP_PRIMAL_DIM = 5000
_CHUNK = 200_000
_OVERFLOW = "assignment values are not finite: the costs overflow a double"


class BruteForceResult(NamedTuple):
    assignment: np.ndarray
    value: float
    unique: bool


class TreeMapResult(NamedTuple):
    assignment: np.ndarray
    value: float


class LpResult(NamedTuple):
    marginals: Marginals
    value: float


def _labels(model: Model, index):
    """Per vertex, the label(s) of the assignment(s) with lexicographic
    index ``index``; vertex 0 is the most significant digit."""
    return np.unravel_index(index, (model.d,) * model.n)


def _chunk_values(model: Model, start: int, stop: int) -> np.ndarray:
    """Objective values of assignments with lexicographic indices
    start..stop-1."""
    labels = _labels(model, np.arange(start, stop, dtype=np.int64))
    values = np.zeros(stop - start)
    for i in range(model.n):
        values += model.vertex_costs[i, labels[i]]
    for e in range(model.m):
        i, j = model.edges[e]
        values += model.edge_costs[e, labels[i], labels[j]]
    return values


def _scan(model: Model):
    """One pass over all d^n assignments: the lexicographically first
    minimizer's index, the minimum, how many assignments attain it, and the
    smallest value above it (inf if none)."""
    total = model.d**model.n
    if total > MAX_BRUTE_STATES:
        raise OracleGuardError(
            f"d^n = {total} states exceeds the exhaustive-search guard {MAX_BRUTE_STATES}"
        )
    best, best_index, best_count, second = np.inf, -1, 0, np.inf
    for start in range(0, total, _CHUNK):
        with np.errstate(over="ignore", invalid="ignore"):  # an overflow is reported below
            values = _chunk_values(model, start, min(start + _CHUNK, total))
        if not np.isfinite(values).all():
            raise ValidationError(_OVERFLOW)
        chunk_min = values.min()
        if chunk_min < best:
            # the old minimum is now the smallest value above the new one
            best, best_index, best_count, second = (
                chunk_min, start + int(np.argmax(values == chunk_min)), 0, best)
        best_count += int((values == best).sum())
        second = values.min(where=values > best, initial=second)
    return best_index, best, best_count, second


def brute_force_map(model: Model) -> BruteForceResult:
    """Exhaustive minimum over all d^n assignments.

    Ties break toward the lexicographically smallest assignment, and
    ``unique`` reports whether exactly one assignment attains the optimum.
    Guarded at d^n <= 1e7.
    """
    index, value, count, _ = _scan(model)
    return BruteForceResult(np.array(_labels(model, index)), float(value), count == 1)


def gap_estimate(model: Model) -> float:
    """Suboptimality gap surrogate: second-best integral assignment value
    minus the optimum, valid where the relaxation is tight and integral
    vertices dominate (e.g. the tree test family).  Requires a unique
    optimum; scales linearly with the costs.
    """
    _, best, best_count, second = _scan(model)
    if best_count != 1:
        raise ValidationError(
            f"suboptimality gap undefined: optimum is not unique "
            f"(attained by {best_count} assignments)"
        )
    return float(second - best)


def _oriented_bfs(model: Model):
    """Per connected component, its root and, in BFS order, one (vertex,
    parent, edge costs indexed by (vertex label, parent label)) triple per
    other vertex; raises if the graph has a cycle."""
    neighbors: list[list] = [[] for _ in range(model.n)]
    for (i, j), cost in zip(model.edges.tolist(), model.edge_costs):
        neighbors[i].append((j, cost.T))
        neighbors[j].append((i, cost))
    seen = [False] * model.n
    components = []
    for root in range(model.n):
        if seen[root]:
            continue
        seen[root] = True
        order, steps = [root], []
        for u in order:
            for w, pair in neighbors[u]:
                if not seen[w]:
                    seen[w] = True
                    order.append(w)
                    steps.append((w, u, pair))
        components.append((root, steps))
    if sum(len(steps) for _, steps in components) != model.m:
        raise ValidationError("graph has a cycle; the tree oracle requires a forest")
    return components


def tree_map(model: Model) -> TreeMapResult:
    """Exact MAP on a forest by min-sum dynamic programming.

    Matches the exhaustive optimum value on any forest; label ties break
    toward smaller indices during backtracking.
    """
    belief = model.vertex_costs.copy()
    assignment = np.zeros(model.n, dtype=np.int64)
    value = 0.0
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is reported below
        for root, steps in _oriented_bfs(model):
            for u, p, pair in reversed(steps):
                belief[p] += (pair + belief[u][:, None]).min(axis=0)
            assignment[root] = np.argmin(belief[root])
            value += float(belief[root].min())
            for u, p, pair in steps:
                assignment[u] = np.argmin(pair[:, assignment[p]] + belief[u])
    if not np.isfinite(value):
        raise ValidationError(_OVERFLOW)
    return TreeMapResult(assignment, value)


def linprog(*args, **kwargs):
    """``scipy.optimize.linprog``, imported when an LP has passed the guard:
    importing mapmp, or an LP the guard refuses, loads no SciPy."""
    from scipy.optimize import linprog

    return linprog(*args, **kwargs)


def lp_solve_l2(model: Model) -> LpResult:
    """Exact solution of the local-polytope linear program
    min <C, mu> s.t. mu in L2, via the HiGHS simplex/dual-simplex solver.

    The returned point is certificate-checked: primal feasibility within
    1e-8 and a weak-duality match between the primal value and the
    equality multipliers within 1e-6.  Numerical failure raises instead of
    silently approximating.  Guarded at n d + m d^2 <= 5000.
    """
    if model.primal_dim > MAX_LP_PRIMAL_DIM:
        raise OracleGuardError(
            f"primal dimension {model.primal_dim} exceeds the LP guard {MAX_LP_PRIMAL_DIM}"
        )
    from scipy import sparse

    n, m, d = model.n, model.m, model.d
    nv = n * d
    cost = np.concatenate([model.vertex_costs.ravel(), model.edge_costs.ravel()])

    # Rows: sum_x mu_i(x) = 1 per vertex, then per edge d rows
    # sum_xj mu_e(xi, xj) - mu_i(xi) = 0 and d rows sum_xi mu_e(xi, xj) - mu_j(xj) = 0,
    # each edge row listing its d joint entries and then its vertex entry.
    labels = np.arange(d)
    joint = nv + np.arange(m)[:, None, None] * d * d + labels[:, None] * d + labels
    cols = np.empty((m, 2, d, d + 1), dtype=np.int64)
    cols[:, 0, :, :d] = joint
    cols[:, 1, :, :d] = joint.transpose(0, 2, 1)
    cols[:, :, :, d] = model.edges[:, :, None] * d + labels
    cols = np.concatenate([np.arange(nv), cols.ravel()])
    rows = np.concatenate([np.repeat(np.arange(n), d), np.repeat(np.arange(n, n + 2 * m * d), d + 1)])
    vals = np.ones(cols.size)
    vals[nv + d :: d + 1] = -1.0
    a_eq = sparse.coo_matrix((vals, (rows, cols)), shape=(n + 2 * m * d, nv + m * d * d))
    b_eq = np.concatenate([np.ones(n), np.zeros(2 * m * d)])

    res = linprog(cost, A_eq=a_eq.tocsr(), b_eq=b_eq, bounds=(0, None), method="highs")
    if res.status != 0:
        raise ValidationError(f"LP oracle failed: {res.message}")
    mu = Marginals(
        res.x[:nv].reshape(n, d).copy(),
        res.x[nv:].reshape(m, d, d).copy(),
    )
    if not in_local_polytope(model, mu, tol=1e-8):
        raise ValidationError("LP oracle returned an infeasible point")
    dual_from_multipliers = float(b_eq @ res.eqlin.marginals)
    scale = 1.0 + abs(res.fun)
    if abs(dual_from_multipliers - res.fun) > 1e-6 * scale:
        raise ValidationError(
            f"LP duality check failed: primal {res.fun} vs dual {dual_from_multipliers}"
        )
    return LpResult(mu, float(res.fun))
