"""Entropy-regularized primal and dual objectives over the local polytope.

Pseudo-marginals ("marginal vectors") hold one simplex block per vertex and
one d x d joint block per edge.  The regularized primal is

    minimize  <C, mu> - H(mu) / eta   over the local polytope,

with the sign-flipped entropy H(p) = -sum_x p(x) (log p(x) - 1).  The dual is
an unconstrained log-sum-exp problem in one length-d block lam[e, i] per
(edge, endpoint) pair, and the primal candidate is recovered blockwise:

    mu_i(x)      propto exp(-eta C_i(x)  + eta sum_{e in N_i} lam[e, i](x))
    mu_e(xi, xj) propto exp(-eta C_e(xi, xj) - eta (lam[e, i](xi) + lam[e, j](xj)))

The dual variable enters every exponent scaled by eta, consistently with the
recovery formulas above (an equivalent parameterization sometimes written
without the scaling differs only by lam -> lam/eta and moves no argmin).
The gradient of the dual value L(lam) in block (e, i) is mu_i - S_{e,i},
where S_{e,i} marginalizes the edge block onto endpoint i; its negative is
the "slack" nu, the amount by which mu violates local consistency.

Everything is computed in the log domain with max-subtracted log-sum-exp;
probabilities are materialized only on demand, so eta up to ~1e4 is safe.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy.special import xlogy

from .errors import ValidationError
from .model import Model

# Probabilities are clamped here before any explicit log of a materialized
# probability (log-domain code paths never need it).
_TINY = 1e-300


@dataclass(frozen=True)
class Marginals:
    """Pseudo-marginal vector: vertex blocks (n, d) and edge blocks (m, d, d)."""

    vertex: np.ndarray
    edge: np.ndarray

    def copy(self) -> "Marginals":
        return Marginals(self.vertex.copy(), self.edge.copy())


def zero_dual(model: Model) -> np.ndarray:
    """All-zero dual vector of shape (m, 2, d): block [e, s] belongs to the
    endpoint of edge e in slot s (0 = smaller vertex id, 1 = larger)."""
    return np.zeros((model.m, 2, model.d))


def _lse(a: np.ndarray, axis):
    """Stabilized log-sum-exp along ``axis`` (int or tuple).

    Calls the ufunc reductions behind ``np.max`` and ``ndarray.sum``
    directly and works in place; every step is the same floating-point
    operation as log(sum(exp(a - max))) + max, so results are bit-identical
    to that formula."""
    amax = np.maximum.reduce(a, axis=axis, keepdims=True)
    shifted = a - amax
    np.exp(shifted, out=shifted)
    out = np.add.reduce(shifted, axis=axis, keepdims=True)
    np.log(out, out=out)
    out += amax
    return out.squeeze(axis)


def _lse_all(a: np.ndarray):
    """``_lse`` over every axis of one block, by the same six steps as full
    ``axis=None`` reductions returning NumPy scalars; bit-identical to it."""
    amax = np.maximum.reduce(a, axis=None)
    shifted = a - amax
    np.exp(shifted, out=shifted)
    return np.log(np.add.reduce(shifted, axis=None)) + amax


def _check_marginal_shapes(model: Model, mu: Marginals) -> None:
    if mu.vertex.shape != (model.n, model.d):
        raise ValidationError(
            f"vertex blocks have shape {mu.vertex.shape}, expected {(model.n, model.d)}"
        )
    if mu.edge.shape != (model.m, model.d, model.d):
        raise ValidationError(
            f"edge blocks have shape {mu.edge.shape}, expected {(model.m, model.d, model.d)}"
        )


class _DualState(NamedTuple):
    dual_value: float
    log_mu_vertex: np.ndarray  # (n, d)
    log_mu_edge: np.ndarray  # (m, d, d)
    log_edge_marginal: np.ndarray  # (m, 2, d): edge block summed onto each endpoint


def _lambda_aggregate(model: Model, lam: np.ndarray) -> np.ndarray:
    """Per-vertex sum of incident dual blocks, shape (n, d)."""
    agg = np.zeros((model.n, model.d))
    if model.m:
        np.add.at(agg, model.edges[:, 0], lam[:, 0])
        np.add.at(agg, model.edges[:, 1], lam[:, 1])
    return agg


def _dual_state(model: Model, lam: np.ndarray, eta: float) -> _DualState:
    """All log-domain quantities for one dual point, in a single pass."""
    vertex_logits = eta * (_lambda_aggregate(model, lam) - model.vertex_costs)
    edge_logits = -eta * (
        model.edge_costs + lam[:, 0, :, None] + lam[:, 1, None, :]
    )
    lse_v = _lse(vertex_logits, axis=1)
    lse_e = _lse(edge_logits, axis=(1, 2))
    log_mu_v = vertex_logits - lse_v[:, None]
    log_mu_e = edge_logits - lse_e[:, None, None]
    log_s = np.stack([_lse(log_mu_e, axis=2), _lse(log_mu_e, axis=1)], axis=1)
    dual = float((lse_v.sum() + lse_e.sum()) / eta)
    return _DualState(dual, log_mu_v, log_mu_e, log_s)


def _check_eta(eta: float) -> float:
    eta = float(eta)
    if not (eta > 0.0 and math.isfinite(eta)):
        raise ValidationError(f"eta must be a positive finite number, got {eta}")
    return eta


def dual_objective(model: Model, lam: np.ndarray, eta: float) -> float:
    """Value of the smoothed dual L(lam): the sum of per-vertex and per-edge
    log partition functions, divided by eta."""
    eta = _check_eta(eta)
    return _dual_state(model, lam, eta).dual_value


def recover_primal(model: Model, lam: np.ndarray, eta: float) -> Marginals:
    """Blockwise-normalized primal candidate for a dual point.

    Every vertex and edge block is an exact softmax of its (finite) logits,
    so all entries are strictly positive and each block sums to 1.
    """
    eta = _check_eta(eta)
    state = _dual_state(model, lam, eta)
    mu_v = np.exp(state.log_mu_vertex)
    mu_v /= mu_v.sum(axis=1, keepdims=True)
    mu_e = np.exp(state.log_mu_edge)
    if model.m:
        mu_e /= mu_e.sum(axis=(1, 2), keepdims=True)
    return Marginals(mu_v, mu_e)


def slack(model: Model, lam: np.ndarray, eta: float) -> np.ndarray:
    """Slack vector nu, shape (m, 2, d).

    nu[e, s](x) = S_{e,i}(x) - mu_i(x) for the endpoint i of edge e in slot
    s, where S_{e,i} sums the edge block over the opposite endpoint's label.
    The dual gradient is the negative of this vector.  Each block sums to 0
    because both S and mu_i are normalized.
    """
    eta = _check_eta(eta)
    return _slack_from_state(model, _dual_state(model, lam, eta))


def _slack_from_state(model: Model, state: _DualState) -> np.ndarray:
    mu_v = np.exp(state.log_mu_vertex)
    s = np.exp(state.log_edge_marginal)
    nu = np.empty_like(s)
    if model.m:
        nu[:, 0] = s[:, 0] - mu_v[model.edges[:, 0]]
        nu[:, 1] = s[:, 1] - mu_v[model.edges[:, 1]]
    return nu


def dual_and_slack(model: Model, lam: np.ndarray, eta: float):
    """(L(lam), slack vector) from one pass over the log-domain state."""
    eta = _check_eta(eta)
    state = _dual_state(model, lam, eta)
    return state.dual_value, _slack_from_state(model, state)


def slack_score(nu: np.ndarray) -> float:
    """Sum over (edge, endpoint) blocks of the squared l1 norms of nu."""
    if nu.size == 0:
        return 0.0
    return float((np.abs(nu).sum(axis=2) ** 2).sum())


def primal_objective(model: Model, mu: Marginals) -> float:
    """Inner product <C, mu> over all vertex and edge blocks."""
    _check_marginal_shapes(model, mu)
    value = float((model.vertex_costs * mu.vertex).sum())
    if model.m:
        value += float((model.edge_costs * mu.edge).sum())
    return value


def entropy(mu: Marginals) -> float:
    """Sign-flipped entropy H(mu) = -sum mu (log mu - 1), blockwise additive.

    Uses the convention 0 * (log 0 - 1) = 0 and rejects negative and NaN
    entries.
    """
    total = 0.0
    for block in (mu.vertex, mu.edge):
        if block.size == 0:
            continue
        if not block.min() >= 0.0:  # the min of a block holding NaN is NaN
            raise ValidationError("entropy requires nonnegative, non-NaN entries")
        total += float(block.sum() - xlogy(block, np.maximum(block, _TINY)).sum())
    return total


def in_local_polytope(model: Model, mu: Marginals, tol: float = 1e-8) -> bool:
    """True iff every vertex block is a distribution and every edge block's
    row/column sums match its endpoint blocks, all within ``tol``."""
    return in_slack_polytope(model, mu, np.zeros((model.m, 2, model.d)), tol)


def in_slack_polytope(
    model: Model, mu: Marginals, nu: np.ndarray, tol: float = 1e-8
) -> bool:
    """Local-polytope membership with consistency targets offset by nu:
    edge block e must have row sums mu_i + nu[e, 0] and column sums
    mu_j + nu[e, 1], within ``tol`` entrywise."""
    _check_marginal_shapes(model, mu)
    if tol < 0:
        raise ValidationError("tol must be nonnegative")
    if mu.vertex.min(initial=0.0) < -tol:
        return False
    if np.abs(mu.vertex.sum(axis=1) - 1.0).max(initial=0.0) > tol:
        return False
    if model.m == 0:
        return True
    if mu.edge.min() < -tol:
        return False
    rows = mu.edge.sum(axis=2)
    cols = mu.edge.sum(axis=1)
    row_targets = mu.vertex[model.edges[:, 0]] + nu[:, 0]
    col_targets = mu.vertex[model.edges[:, 1]] + nu[:, 1]
    return bool(
        np.abs(rows - row_targets).max() <= tol
        and np.abs(cols - col_targets).max() <= tol
    )
