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
iterates and outputs at eta up to 1e9 with costs or lam up to 1e6.  Every
exp masks the entries that underflow (``_exp``), bit-identical to ``np.exp``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError, array, check_marginal_shapes, real, real_axes
from .model import Model

# Probabilities are clamped here before any explicit log of a materialized
# probability (log-domain code paths never need it).
_TINY = 1e-300


@dataclass(frozen=True)
class Marginals:
    """Pseudo-marginal vector: vertex blocks (n, d) and edge blocks (m, d, d)."""

    vertex: np.ndarray
    edge: np.ndarray


def zero_dual(model: Model) -> np.ndarray:
    """All-zero dual vector of shape (m, 2, d): block [e, s] belongs to the
    endpoint of edge e in slot s (0 = smaller vertex id, 1 = larger)."""
    return np.zeros(model.dual_shape)


def fold(ufunc, a: np.ndarray, axis, keepdims: bool = False) -> np.ndarray:
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
    """The bytes of ``np.exp(a, out=out)``, without feeding exp an entry
    whose result underflows.

    NumPy's SIMD exp leaves its fast path for every such entry (about 10x
    slower each).  Every float64 below about -745.13 has exp = +0.0, so
    entries below -750 are replaced by -0.0 before the exp and their
    results by +0.0 after it, by multiplying with the keep mask: a masked
    ``where`` would branch on every entry.  NaN, +-inf and +-0 come out
    as from ``np.exp``."""
    keep = a >= -750.0
    y = np.maximum(a, -750.0, out=out)
    y *= keep
    np.exp(y, out=y)
    y *= keep
    return y


def _lse(a: np.ndarray, axis):
    """Stabilized log-sum-exp along ``axis`` (int or tuple).

    Reduces through ``fold``, which gives the bits of the reductions behind
    ``np.max`` and ``ndarray.sum``.  The exp runs through ``_exp``, whose
    underflow mask gives the bits of ``np.exp``.  Works in place; every step
    is the same floating-point operation as log(sum(exp(a - max))) + max, so
    results are bit-identical to that formula."""
    amax = fold(np.maximum, a, axis, True)
    shifted = a - amax
    _exp(shifted, out=shifted)
    out = fold(np.add, shifted, axis, True)
    np.log(out, out=out)
    out += amax
    return out.squeeze(axis)


@dataclass(frozen=True)
class RecordPass:
    """One log-domain pass at a dual point: the normalized vertex (n, d) and
    edge (m, d, d) log-marginals, and ``dual`` = L(lam), the sum of the log
    partition functions they were normalized by, over eta.  ``marginals()``
    exps the logs in place, so it is read last."""

    model: Model
    log_vertex: np.ndarray
    log_edge: np.ndarray
    dual: float

    def slack(self) -> np.ndarray:
        """The slack vector of ``slack``."""
        nu = np.empty(self.model.dual_shape)
        nu[:, 0] = _lse(self.log_edge, 2)
        nu[:, 1] = _lse(self.log_edge, 1)
        _exp(nu, out=nu)
        nu -= _exp(self.log_vertex).take(self.model.edges, 0)
        return nu

    def marginals(self) -> Marginals:
        """The primal candidate of ``recover_primal``, written over the logs."""
        mu_v, mu_e = _exp(self.log_vertex, self.log_vertex), _exp(self.log_edge, self.log_edge)
        mu_v /= fold(np.add, mu_v, 1)[:, None]
        mu_e /= np.add.reduce(mu_e, axis=(1, 2), keepdims=True)
        return Marginals(mu_v, mu_e)


def record_pass(model: Model, lam: np.ndarray, eta: float) -> RecordPass:
    """The ``RecordPass`` of ``lam``, the one place a dual function converts
    lam.  A vertex sums its blocks onto +0.0 in incidence order, the order in
    which the kernels sum them, so the blocks of ``slack()`` equal the bytes
    of ``block_slack`` and ``star_slack``."""
    eta = real("eta", eta)
    lam = array("lam", lam, np.float64, model.dual_shape, copy=None)
    log_v = np.bincount(model.dual_cells, lam.ravel(), model.vertex_costs.size).reshape(model.n, -1)
    log_v -= model.vertex_costs
    log_v *= eta
    log_e = model.edge_costs + lam[:, 0, :, None]
    log_e += lam[:, 1, None, :]
    log_e *= -eta
    lse_v, lse_e = _lse(log_v, 1), _lse(log_e, axis=(1, 2))
    log_v -= lse_v[:, None]
    log_e -= lse_e[:, None, None]
    return RecordPass(model, log_v, log_e, float((lse_v.sum() + lse_e.sum()) / eta))


def dual_objective(model: Model, lam: np.ndarray, eta: float) -> float:
    """Value of the smoothed dual L(lam): the sum of per-vertex and per-edge
    log partition functions, divided by eta."""
    return record_pass(model, lam, eta).dual


def recover_primal(model: Model, lam: np.ndarray, eta: float) -> Marginals:
    """Blockwise-normalized primal candidate for a dual point.

    Every vertex and edge block is an exact softmax of its (finite) logits,
    so all entries are strictly positive and each block sums to 1.
    """
    return record_pass(model, lam, eta).marginals()


def slack(model: Model, lam: np.ndarray, eta: float) -> np.ndarray:
    """Slack vector nu, shape (m, 2, d).

    nu[e, s](x) = S_{e,i}(x) - mu_i(x) for the endpoint i of edge e in slot
    s, where S_{e,i} sums the edge block over the opposite endpoint's label.
    The dual gradient is the negative of this vector.  Each block sums to 0
    because both S and mu_i are normalized.
    """
    return record_pass(model, lam, eta).slack()


def dual_and_slack(model: Model, lam: np.ndarray, eta: float):
    """(L(lam), slack vector) from one pass over the log-domain state."""
    value = record_pass(model, lam, eta)
    return value.dual, value.slack()


def slack_score(nu: np.ndarray) -> float:
    """Sum over (edge, endpoint) blocks of the squared l1 norms of nu."""
    norms = fold(np.add, np.abs(real_axes("nu", nu, ("m", "2", "d"))), 2)
    return float(np.square(norms, out=norms).sum())


def primal_objective(model: Model, mu: Marginals) -> float:
    """Inner product <C, mu> over all vertex and edge blocks, which must be finite."""
    vertex, edge, _ = check_marginal_shapes(model, mu)
    if not (np.isfinite(vertex).all() and np.isfinite(edge).all()):
        raise ValidationError("primal_objective requires finite entries")
    value = float((model.vertex_costs * vertex).sum())
    return value + float((model.edge_costs * edge).sum())


def entropy(mu: Marginals) -> float:
    """Sign-flipped entropy H(mu) = -sum mu (log mu - 1), blockwise additive.

    Uses the convention 0 * (log 0 - 1) = 0 (a zero entry's log is taken
    at ``_TINY``) and rejects negative and non-finite entries.
    """
    total = 0.0
    vertex = real_axes("mu.vertex", mu.vertex, ("n", "d"))
    for block in (vertex, real_axes("mu.edge", mu.edge, ("m", "d", "d"))):
        if not (block.min(initial=0.0) >= 0.0 and block.max(initial=0.0) < np.inf):  # False on NaN
            raise ValidationError("entropy requires finite, nonnegative entries")
        total += float(block.sum() - (block * np.log(np.maximum(block, _TINY))).sum())
    return total


def in_local_polytope(model: Model, mu: Marginals, tol: float = 1e-8) -> bool:
    """True iff every vertex block is a distribution and every edge block's
    row/column sums match its endpoint blocks, all within ``tol``."""
    return in_slack_polytope(model, mu, None, tol)


def in_slack_polytope(
    model: Model, mu: Marginals, nu: np.ndarray | None, tol: float = 1e-8
) -> bool:
    """Local-polytope membership with consistency targets offset by nu (None
    for no offset, as in ``proj``): edge block e must have row sums
    mu_i + nu[e, 0] and column sums mu_j + nu[e, 1], within ``tol`` entrywise."""
    vertex, edge, nu = check_marginal_shapes(model, mu, nu)
    tol = real("tol", tol, "nonnegative")
    if vertex.min() < -tol:
        return False
    if np.abs(vertex.sum(axis=1) - 1.0).max() > tol:
        return False
    if edge.min() < -tol:
        return False
    targets = vertex.take(model.edges, 0) if nu is None else vertex.take(model.edges, 0) + nu
    return bool(np.abs(edge.sum(axis=2) - targets[:, 0]).max() <= tol
                and np.abs(edge.sum(axis=1) - targets[:, 1]).max() <= tol)
