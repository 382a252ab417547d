"""Repair of pseudo-marginals into the local polytope (or a slack polytope)
by per-edge transportation rounding, plus integral rounding of vertex blocks.

The per-edge primitive takes a nonnegative d x d matrix of unit mass and
target row/column sums of unit mass, and moves it into the transportation
polytope of those targets in three steps: scale down overfull rows, scale
down overfull columns, then spread the missing mass as a rank-one
nonnegative correction.  The total l1 movement is at most twice the initial
row-sum error plus twice the initial column-sum error, so near-consistent
inputs are barely disturbed.  A (k, d, d) stack is rounded in one vectorized
pass, so projecting all m edge blocks is a single call.
"""

from __future__ import annotations

import numpy as np

from .errors import ValidationError
from .model import Model
from .objective import Marginals, _check_marginal_shapes, _fold

_MASS_TOL = 1e-10
_SKIP_CORRECTION = 1e-14


def round_to_transport(matrix, row_targets, col_targets) -> np.ndarray:
    """Move unit-mass nonnegative matrices into the transportation polytopes
    of the given row and column sums.

    Takes one (d, d) matrix with (d,) targets, or a (k, d, d) stack with
    (k, d) targets that is rounded matrix by matrix, bit for bit as k
    separate calls.  Requires finite inputs, every matrix and target to have
    total mass 1 within 1e-10 and the targets to be nonnegative; the output
    then matches the targets to ~1e-15 and stays entrywise nonnegative.
    """
    p = np.array(matrix, dtype=np.float64)
    r = np.asarray(row_targets, dtype=np.float64)
    c = np.asarray(col_targets, dtype=np.float64)
    single = p.ndim == 2
    if single:
        p, r, c = p[None], r[None], c[None]
    if p.ndim != 3 or p.shape[1] != p.shape[2] or r.shape != p.shape[:2] or c.shape != r.shape:
        raise ValidationError(
            f"expected square matrices with matching targets, got {p.shape}, {r.shape}, {c.shape}"
        )
    if not (np.isfinite(r).all() and np.isfinite(c).all()):
        raise ValidationError("matrices and targets must not have non-finite entries")
    if (r < -_MASS_TOL).any() or (c < -_MASS_TOL).any():
        raise ValidationError("row/column targets must be nonnegative")
    _check_mass("row targets", _fold(np.add, r, 1))
    _check_mass("column targets", _fold(np.add, c, 1))
    p = _transport(p, r, c)
    return p[0] if single else p


def _check_mass(name: str, mass: np.ndarray) -> None:
    bad = np.flatnonzero(np.abs(mass - 1.0) > _MASS_TOL)
    if bad.size:
        raise ValidationError(
            f"{name} mass {mass[bad[0]]} (block {bad[0]}) differs from 1 beyond {_MASS_TOL}"
        )


def _transport(p: np.ndarray, r: np.ndarray, c: np.ndarray) -> np.ndarray:
    """The rounding of ``round_to_transport`` on a (k, d, d) stack ``p``,
    which it overwrites, for (k, d) targets the caller has checked; checks
    only that the matrices are finite and of unit mass."""
    if not np.isfinite(p).all():
        raise ValidationError("matrices and targets must not have non-finite entries")
    _check_mass("matrix", p.sum(axis=(1, 2)))
    r = np.maximum(r, 0.0)
    c = np.maximum(c, 0.0)

    row_sums = _fold(np.add, p, 2)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        scale = np.where(row_sums > 0.0, np.minimum(1.0, r / row_sums), 1.0)
    p *= scale[:, :, None]
    col_sums = _fold(np.add, p, 1)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        scale = np.where(col_sums > 0.0, np.minimum(1.0, c / col_sums), 1.0)
    p *= scale[:, None, :]

    # Scaling never overshoots the targets, so both errors are nonnegative up
    # to roundoff; clamping keeps the rank-one correction sign-safe.
    err_r = np.maximum(r - _fold(np.add, p, 2), 0.0)
    err_c = np.maximum(c - _fold(np.add, p, 1), 0.0)
    missing = _fold(np.add, err_r, 1)
    # Rows below the threshold add -0.0, which leaves every entry's bits as they are.
    fix = missing > _SKIP_CORRECTION
    with np.errstate(invalid="ignore"):
        correction = err_r[:, :, None] * err_c[:, None, :] / missing[:, None, None]
    p += np.where(fix[:, None, None], correction, -0.0)
    return p


def proj(model: Model, mu: Marginals, nu: np.ndarray | None = None) -> Marginals:
    """Project pseudo-marginals onto the local polytope (nu = None or 0) or
    onto the polytope whose per-edge consistency targets are offset by nu.

    Vertex blocks are returned untouched; each edge block is independently
    rounded to the transportation polytope of (mu_i + nu[e, 0],
    mu_j + nu[e, 1]) by the ``round_to_transport`` rounding, all edges in one
    stacked pass.  Every offset target must be a finite distribution within
    1e-10 (automatic for recovered marginals with nu = 0); checked here once,
    with the first offending edge named.  With nu = 0 the
    output lies in the local polytope, and when mu was recovered from a dual
    point the total edge movement is at most twice the summed slack norms.
    """
    _check_marginal_shapes(model, mu, nu)
    targets = mu.vertex[model.edges]
    if nu is not None:
        targets = targets + nu
    inside = (_fold(np.minimum, targets, 2) >= -_MASS_TOL) & (
        np.abs(_fold(np.add, targets, 2) - 1.0) <= _MASS_TOL
    )
    if not inside.all():
        e, s = np.argwhere(~inside)[0]
        raise ValidationError(
            f"edge {e}: offset {('row', 'column')[s]} targets leave the simplex beyond {_MASS_TOL}"
        )
    edge = _transport(np.array(mu.edge, dtype=np.float64), targets[:, 0], targets[:, 1])
    return Marginals(mu.vertex.copy(), edge)


def vertex_round(mu: Marginals) -> np.ndarray:
    """Integral assignment from vertex blocks: per-vertex argmax with ties
    broken toward the smallest label index; rejects non-finite entries."""
    if not np.isfinite(mu.vertex).all():
        raise ValidationError("vertex_round requires finite entries")
    return np.argmax(mu.vertex, axis=1).astype(np.int64)
