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

Everything is computed in the log domain with max-subtracted log-sum-exp and
probabilities are materialized only on demand; the tests check finite
iterates and outputs at eta up to 1e9 with costs or lam up to 1e6.  Large
exps mask the entries that underflow (``_exp``), bit-identical to ``np.exp``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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


# ``_lse`` folds only arrays of at least this many entries.  Summing one axis
# of a 3 x 3 block takes about 2 us reduced and 5-7 us folded, of a
# (265, 3, 3) stack 21-33 us reduced and 9-17 us folded (timeit minima on a
# 2-core x86-64 host, NumPy 2.4.6).
_FOLD_MIN_SIZE = 512


def _fold(ufunc, a: np.ndarray, axis, keepdims: bool = False) -> np.ndarray:
    """``ufunc.reduce(a, axis=axis, keepdims=keepdims)`` for ``np.add``,
    ``np.maximum`` or ``np.minimum``, as a left fold of elementwise calls on
    slices when ``axis`` is one int axis of 2 to 7 entries.

    Over fewer than 8 entries NumPy's add reduction sums left to right, on
    a contiguous axis as on a strided one, so the fold gives the same bits
    at a fraction of the per-call cost of a reduction over a short axis of
    a large array.  From 8 entries on, a contiguous axis switches to
    pairwise summation, so the reduction itself runs there, as it does for
    a tuple of axes."""
    k = a.shape[axis] if isinstance(axis, int) else 0
    if not 2 <= k < 8:
        return ufunc.reduce(a, axis=axis, keepdims=keepdims)
    head = (slice(None),) * axis
    at = [head + ((slice(j, j + 1) if keepdims else j),) for j in range(k)]
    out = ufunc(a[at[0]], a[at[1]])
    for j in range(2, k):
        ufunc(out, a[at[j]], out=out)
    return out


def _exp(a: np.ndarray, out=None) -> np.ndarray:
    """The bytes of ``np.exp(a, out=out)``, from ``_FOLD_MIN_SIZE`` entries
    on without feeding exp an entry whose result underflows.

    NumPy's SIMD exp leaves its fast path for every such entry (about 10x
    slower each).  Every float64 below about -745.13 has exp = +0.0, so
    entries below -750 are replaced by -0.0 before the exp and their
    results by +0.0 after it, by multiplying with the keep mask: a masked
    ``where`` would branch on every entry.  NaN, +-inf and +-0 come out
    as from ``np.exp``."""
    if a.size < _FOLD_MIN_SIZE:
        return np.exp(a, out=out)
    keep = a >= -750.0
    y = np.maximum(a, -750.0, out=out)
    y *= keep
    np.exp(y, out=y)
    y *= keep
    return y


def _lse(a: np.ndarray, axis):
    """Stabilized log-sum-exp along ``axis`` (int or tuple).

    Reduces through ``_fold`` from ``_FOLD_MIN_SIZE`` entries on and by one
    ufunc reduction below; both give the bits of the reductions behind
    ``np.max`` and ``ndarray.sum``.  The exp runs through ``_exp``, whose
    underflow mask gives the bits of ``np.exp``.  Works in place; every step
    is the same floating-point operation as log(sum(exp(a - max))) + max, so
    results are bit-identical to that formula."""
    fold = a.size >= _FOLD_MIN_SIZE
    amax = (_fold(np.maximum, a, axis, True) if fold
            else np.maximum.reduce(a, axis=axis, keepdims=True))
    shifted = a - amax
    _exp(shifted, out=shifted)
    out = (_fold(np.add, shifted, axis, True) if fold
           else np.add.reduce(shifted, axis=axis, keepdims=True))
    np.log(out, out=out)
    out += amax
    return out.squeeze(axis)


def _check_marginal_shapes(model: Model, mu: Marginals, nu: np.ndarray | None = None) -> None:
    if mu.vertex.shape != (model.n, model.d):
        raise ValidationError(
            f"vertex blocks have shape {mu.vertex.shape}, expected {(model.n, model.d)}"
        )
    if mu.edge.shape != (model.m, model.d, model.d):
        raise ValidationError(
            f"edge blocks have shape {mu.edge.shape}, expected {(model.m, model.d, model.d)}"
        )
    if nu is not None and nu.shape != (model.m, 2, model.d):
        raise ValidationError(
            f"slack offset has shape {nu.shape}, expected {(model.m, 2, model.d)}"
        )


def _lambda_aggregate(model: Model, lam: np.ndarray) -> np.ndarray:
    """Per-vertex sum of incident dual blocks, shape (n, d): every slot-0
    block in edge order, then every slot-1 block, onto a zero start."""
    n, d = model.n, model.d
    if not model.m:
        return np.zeros((n, d))
    cells = (model.edges.T[:, :, None] * d + np.arange(d)).ravel()
    return np.bincount(cells, lam.transpose(1, 0, 2).ravel(), n * d).reshape(n, d)


def _log_marginals(model: Model, lam: np.ndarray, eta: float):
    """Normalized vertex (n, d) and edge (m, d, d) log-marginals and L(lam),
    the sum of the log partition functions they were normalized by, over eta."""
    log_mu_v = _lambda_aggregate(model, lam)
    log_mu_v -= model.vertex_costs
    log_mu_v *= eta
    log_mu_e = model.edge_costs + lam[:, 0, :, None]
    log_mu_e += lam[:, 1, None, :]
    log_mu_e *= -eta
    lse_v, lse_e = _lse(log_mu_v, 1), _lse(log_mu_e, axis=(1, 2))
    log_mu_v -= lse_v[:, None]
    log_mu_e -= lse_e[:, None, None]
    return log_mu_v, log_mu_e, float((lse_v.sum() + lse_e.sum()) / eta)


def _dual_and_slack(model: Model, logs):
    """(L(lam), slack vector) from ``_log_marginals``' output, left unchanged."""
    log_mu_v, log_mu_e, dual = logs
    nu = np.empty((model.m, 2, model.d))
    nu[:, 0] = _lse(log_mu_e, 2)
    nu[:, 1] = _lse(log_mu_e, 1)
    _exp(nu, out=nu)
    nu -= _exp(log_mu_v)[model.edges]
    return dual, nu


def _marginals(logs) -> Marginals:
    """The primal candidate, built in place from ``_log_marginals``' output."""
    mu_v, mu_e, _ = logs
    _exp(mu_v, out=mu_v)
    mu_v /= _fold(np.add, mu_v, 1)[:, None]
    _exp(mu_e, out=mu_e)
    mu_e /= np.add.reduce(mu_e, axis=(1, 2), keepdims=True)
    return Marginals(mu_v, mu_e)


def _check_eta(eta: float) -> float:
    eta = float(eta)
    if not (eta > 0.0 and math.isfinite(eta)):
        raise ValidationError(f"eta must be a positive finite number, got {eta}")
    return eta


def dual_objective(model: Model, lam: np.ndarray, eta: float) -> float:
    """Value of the smoothed dual L(lam): the sum of per-vertex and per-edge
    log partition functions, divided by eta."""
    return _log_marginals(model, lam, _check_eta(eta))[2]


def recover_primal(model: Model, lam: np.ndarray, eta: float) -> Marginals:
    """Blockwise-normalized primal candidate for a dual point.

    Every vertex and edge block is an exact softmax of its (finite) logits,
    so all entries are strictly positive and each block sums to 1.
    """
    return _marginals(_log_marginals(model, lam, _check_eta(eta)))


def slack(model: Model, lam: np.ndarray, eta: float) -> np.ndarray:
    """Slack vector nu, shape (m, 2, d).

    nu[e, s](x) = S_{e,i}(x) - mu_i(x) for the endpoint i of edge e in slot
    s, where S_{e,i} sums the edge block over the opposite endpoint's label.
    The dual gradient is the negative of this vector.  Each block sums to 0
    because both S and mu_i are normalized.
    """
    return dual_and_slack(model, lam, eta)[1]


def dual_and_slack(model: Model, lam: np.ndarray, eta: float):
    """(L(lam), slack vector) from one pass over the log-domain state."""
    return _dual_and_slack(model, _log_marginals(model, lam, _check_eta(eta)))


def slack_score(nu: np.ndarray) -> float:
    """Sum over (edge, endpoint) blocks of the squared l1 norms of nu."""
    if nu.size == 0:
        return 0.0
    norms = _fold(np.add, np.abs(nu), 2)
    return float(np.square(norms, out=norms).sum())


def primal_objective(model: Model, mu: Marginals) -> float:
    """Inner product <C, mu> over all vertex and edge blocks, which must be finite."""
    _check_marginal_shapes(model, mu)
    if not (np.isfinite(mu.vertex).all() and np.isfinite(mu.edge).all()):
        raise ValidationError("primal_objective requires finite entries")
    value = float((model.vertex_costs * mu.vertex).sum())
    if model.m:
        value += float((model.edge_costs * mu.edge).sum())
    return value


def entropy(mu: Marginals) -> float:
    """Sign-flipped entropy H(mu) = -sum mu (log mu - 1), blockwise additive.

    Uses the convention 0 * (log 0 - 1) = 0 and rejects negative and
    non-finite entries.
    """
    total = 0.0
    for block in (mu.vertex, mu.edge):
        if block.size == 0:
            continue
        if not (block.min() >= 0.0 and block.max() < np.inf):  # False on NaN
            raise ValidationError("entropy requires finite, nonnegative entries")
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
    _check_marginal_shapes(model, mu, nu)
    if not tol >= 0:  # NaN too
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
