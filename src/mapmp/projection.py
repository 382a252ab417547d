"""Repair of pseudo-marginals into the local polytope (or a slack polytope)
by per-edge transportation rounding, plus integral rounding of vertex blocks.

The per-edge primitive takes a nonnegative d x d matrix of unit mass and
target row/column sums of unit mass, and moves it into the transportation
polytope of those targets in three steps: scale down overfull rows, scale
down overfull columns, then spread the missing mass as a rank-one
nonnegative correction.  The total l1 movement is at most twice the initial
row-sum error plus twice the initial column-sum error, so near-consistent
inputs are barely disturbed.  A (k, d, d) stack is rounded in one vectorized
pass, so projecting all m edge blocks is a single call.  The pass writes
only buffers it owns, never a caller's array, and besides its output
allocates one float (k, d, d) buffer: ``proj`` on the n = 5000, m = 23526
instance (a 1.69 MB edge stack) peaks at 8.0 MB traced, its output included.
"""

from __future__ import annotations

import numpy as np

from .errors import ValidationError, array, check_marginal_shapes, real_axes
from .model import Model
from .objective import Marginals, fold

_MASS_TOL = 1e-10
_SKIP_CORRECTION = 1e-14


def round_to_transport(matrix, row_targets, col_targets) -> np.ndarray:
    """Move unit-mass nonnegative matrices into the transportation polytopes
    of the given row and column sums.

    Takes one (d, d) matrix with (d,) targets, or a (k, d, d) stack with
    (k, d) targets, rounded bit for bit as k separate calls.  Every target
    must be a distribution within 1e-10, NaN and infinities failing (the
    first bad matrix k and side, rows first, is named), then every matrix
    finite, then none with a negative entry, then each of mass 1 within
    1e-10.  The output matches the targets to ~1e-15 and is nonnegative.
    """
    p = array("matrix", matrix, np.float64)
    r = array("row_targets", row_targets, np.float64, copy=None)
    c = array("col_targets", col_targets, np.float64, copy=None)
    single = p.ndim == 2
    if single:
        p, r, c = p[None], r[None], c[None]
    if p.ndim != 3 or not 0 < p.shape[1] == p.shape[2] or r.shape != p.shape[:2] or c.shape != r.shape:
        raise ValidationError(
            f"expected nonempty square matrices with matching targets, got {p.shape}, {r.shape}, {c.shape}"
        )
    inside = np.stack([(fold(np.minimum, t, 1) >= -_MASS_TOL)
                       & (np.abs(fold(np.add, t, 1) - 1.0) <= _MASS_TOL) for t in (r, c)], axis=1)
    if not inside.all():
        k, s = np.argwhere(~inside)[0]
        raise ValidationError(
            f"matrix {k}: {('row', 'column')[s]} targets leave the simplex beyond {_MASS_TOL}"
        )
    if not np.isfinite(p).all():
        raise ValidationError("matrices must not have non-finite entries")
    if p.min(initial=0.0) < 0.0:  # -0.0 passes, unclamped, so its sign bit is kept
        k = np.flatnonzero((p < 0.0).any(axis=(1, 2)))[0]
        raise ValidationError(f"matrix {k}: negative entry {p[k].min()}")
    mass = p.sum(axis=(1, 2))
    bad = np.flatnonzero(np.abs(mass - 1.0) > _MASS_TOL)
    if bad.size:
        raise ValidationError(f"matrix {bad[0]}: mass {mass[bad[0]]} differs from 1 beyond {_MASS_TOL}")

    r = np.maximum(r, 0.0)
    c = np.maximum(c, 0.0)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        row_sums = fold(np.add, p, 2)
        scale = np.where(row_sums > 0.0, np.minimum(1.0, r / row_sums), 1.0)
        p *= scale[:, :, None]
        col_sums = fold(np.add, p, 1)
        scale = np.where(col_sums > 0.0, np.minimum(1.0, c / col_sums), 1.0)
        p *= scale[:, None, :]

        # Scaling never overshoots the targets, so both errors are nonnegative
        # up to roundoff; clamping keeps the rank-one correction sign-safe.
        # r and c are the clamped copies, so the errors can overwrite them.
        err_r = np.maximum(np.subtract(r, fold(np.add, p, 2), out=r), 0.0, out=r)
        err_c = np.maximum(np.subtract(c, fold(np.add, p, 1), out=c), 0.0, out=c)
        missing = fold(np.add, err_r, 1)
        fix = missing > _SKIP_CORRECTION
        correction = err_r[:, :, None] * err_c[:, None, :]
        correction /= missing[:, None, None]
        np.add(p, correction, out=p, where=fix[:, None, None])
    return p[0] if single else p


def proj(model: Model, mu: Marginals, nu: np.ndarray | None = None) -> Marginals:
    """Project pseudo-marginals onto the local polytope (nu = None or 0) or
    onto the polytope whose per-edge consistency targets are offset by nu.

    Vertex blocks are returned untouched; the edge blocks go through one
    stacked ``round_to_transport`` call with targets (mu_i + nu[e, 0],
    mu_j + nu[e, 1]), so its checks and messages apply, and its matrix e is
    edge e.  With nu = 0 the output lies in the local polytope, and when mu
    was recovered from a dual point the total edge movement is at most twice
    the summed slack norms.
    """
    vertex, edge, nu = check_marginal_shapes(model, mu, nu)
    targets = vertex.take(model.edges, 0) if nu is None else vertex.take(model.edges, 0) + nu
    return Marginals(vertex.copy(), round_to_transport(edge, targets[:, 0], targets[:, 1]))


def vertex_round(mu: Marginals) -> np.ndarray:
    """Integral assignment from vertex blocks: per-vertex argmax with ties
    broken toward the smallest label index; rejects non-finite entries."""
    vertex = real_axes("mu.vertex", mu.vertex, ("n", "d"))
    if vertex.shape[1] == 0:
        raise ValidationError(f"mu.vertex has shape {vertex.shape}, expected at least one label")
    if not np.isfinite(vertex).all():
        raise ValidationError("vertex_round requires finite entries")
    return np.argmax(vertex, axis=1).astype(np.int64)
