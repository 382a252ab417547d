"""Closed-form block minimizers of the smoothed dual, plus a gradient step.

Each function evaluates the dual state only locally (the vertex's incident
blocks and the touched edge joints), returns freshly allocated block values,
and never mutates its input.  Schedulers exploit this: the accelerated loops
evaluate an update at an extrapolated point y and install the result into a
different iterate.  They also need the slack at y; ``with_slack=True`` makes
an update return it alongside the block(s), formed from the log-marginals the
update has already computed with the same operations as ``block_slack`` and
``star_slack``, so the local state is evaluated once and the bits match.

Edge message passing (EMP) minimizes the dual exactly over the single block
(e, i); the minimizer moves the block by log(S / mu_i) / (2 eta), after which
the refreshed marginal S_{e,i} equals mu_i on that block.  Star message
passing (SMP) minimizes jointly over all blocks incident to one vertex; its
closed form shifts block (e, i) by

    log S_{e,i} / eta  -  log(mu_i * prod_{e'} S_{e',i}) / (eta (deg_i + 1)),

which for deg_i = 1 reduces to the EMP move.  Log ratios are always formed
as differences of log-domain accumulators, never as quotients of
materialized probabilities.

For d < 8 a star's log S_{e,i} come from one gather (``Model.star_orientation``)
that puts the other endpoint's label on axis 1 of every joint, and one
log-sum-exp over that axis, with the bits of per-slot reductions; from d = 8
on NumPy sums a contiguous axis pairwise, so slot-0 joints keep their axis.
"""

from __future__ import annotations

import numpy as np

from .errors import ValidationError
from .model import Model
from .objective import _check_eta, _lse, _lse_all


def _slot_of(model: Model, edge: int, vertex: int) -> int:
    edge = int(edge)
    if not (0 <= edge < model.m):
        raise ValidationError(f"edge index {edge} outside 0..{model.m - 1}")
    ends = model.edges[edge].tolist()
    if vertex not in ends:
        raise ValidationError(f"vertex {vertex} is not an endpoint of edge {edge}")
    return ends.index(vertex)


def _vertex_log_marginal(model: Model, lam: np.ndarray, eta: float, vertex: int):
    """(the vertex's incident blocks, log mu_i)."""
    own = lam.take(model.incident_blocks[vertex])
    logits = np.add.reduce(own, axis=0)
    logits -= model.vertex_costs[vertex]
    logits *= eta
    logits -= _lse_all(logits)
    return own, logits


def _pair_log_marginals(model: Model, lam: np.ndarray, eta: float, edge: int, vertex: int):
    """(slot, log S_{e,i}, log mu_i) for one (edge, vertex) pair, ``eta``
    already checked; S_{e,i} sums the normalized edge joint onto the slot."""
    slot = _slot_of(model, edge, vertex)
    logits = model.edge_costs[edge] + lam[edge, 0, :, None]
    logits += lam[edge, 1]
    logits *= -eta
    logits -= _lse_all(logits)
    return slot, _lse(logits, axis=1 - slot), _vertex_log_marginal(model, lam, eta, vertex)[1]


def _star_log_marginals(model: Model, lam: np.ndarray, eta: float, vertex: int):
    """log S_{e,i} for every edge incident to ``vertex``, shape (deg, d); the
    steps of ``_pair_log_marginals`` in its order, so each row has its bits.
    For d >= 8 (see the module docstring): the incidence lists edges in
    ascending order, so those in slot 1 (to smaller vertices) come first and
    reduce over axis 1, those in slot 0 over axis 2."""
    ev = model.incident_edges[vertex]
    blocks = lam.take(ev, axis=0)
    logits = model.edge_costs.take(ev, axis=0) + blocks[:, 0, :, None]
    logits += blocks[:, 1, None, :]
    logits *= -eta
    logits -= _lse(logits, axis=(1, 2))[:, None, None]
    if model.d < 8:
        return _lse(logits.take(model.star_orientation[vertex]), axis=1)
    k = np.count_nonzero(model.incident_slots[vertex])
    return np.concatenate((_lse(logits[:k], axis=1), _lse(logits[k:], axis=2)))


def block_slack(model: Model, lam: np.ndarray, eta: float, edge: int, vertex: int):
    """Slack block nu_{e,i} = S_{e,i} - mu_i computed from local state only."""
    _, log_s, log_mu = _pair_log_marginals(model, lam, _check_eta(eta), edge, vertex)
    return np.exp(log_s) - np.exp(log_mu)


def star_slack(model: Model, lam: np.ndarray, eta: float, vertex: int):
    """Slack blocks for every edge incident to ``vertex``, shape (deg, d),
    ordered like ``model.incident_edges[vertex]``."""
    eta = _check_eta(eta)
    log_s = _star_log_marginals(model, lam, eta, vertex)
    return np.exp(log_s) - np.exp(_vertex_log_marginal(model, lam, eta, vertex)[1])


def emp_update(
    model: Model,
    lam: np.ndarray,
    eta: float,
    edge: int,
    vertex: int,
    *,
    with_slack: bool = False,
):
    """Exact minimizer of the dual over block (edge, vertex), as a new block:

        lam'[x] = lam[x] + (log S_{e,i}(x) - log mu_i(x)) / (2 eta)

    With ``with_slack`` returns ``(block, nu)`` where ``nu`` is the slack
    block at ``lam``, equal bit for bit to ``block_slack`` at the same
    arguments.
    """
    eta = _check_eta(eta)
    slot, log_s, log_mu = _pair_log_marginals(model, lam, eta, edge, vertex)
    block = log_s - log_mu
    block /= 2.0 * eta
    block += lam[edge, slot]
    if with_slack:
        return block, np.exp(log_s) - np.exp(log_mu)
    return block


def smp_update(
    model: Model, lam: np.ndarray, eta: float, vertex: int, *, with_slack: bool = False
):
    """Exact joint minimizer over all blocks incident to ``vertex``.

    Returns an array of shape (deg, d) ordered like
    ``model.incident_edges[vertex]``; after installing all rows, every
    incident slack block vanishes simultaneously.  With ``with_slack``
    returns ``(blocks, nu)`` where ``nu`` holds the incident slack blocks at
    ``lam`` in the same order, equal bit for bit to ``star_slack``.
    """
    eta = _check_eta(eta)
    own, log_mu = _vertex_log_marginal(model, lam, eta, vertex)
    log_s = _star_log_marginals(model, lam, eta, vertex)
    shared = np.add.reduce(log_s, axis=0)
    shared += log_mu
    shared /= eta * (len(log_s) + 1)
    blocks = log_s / eta
    blocks += own
    blocks -= shared
    if with_slack:
        return blocks, np.exp(log_s) - np.exp(log_mu)
    return blocks


def block_grad_step(
    model: Model,
    lam: np.ndarray,
    eta: float,
    edge: int,
    vertex: int,
    *,
    with_slack: bool = False,
):
    """Gradient step of 1/eta on block (edge, vertex): lam' = lam + (1 / eta) nu.

    The dual gradient on the block is -nu, so this descends.  With
    ``with_slack`` returns ``(block, nu)``, the step's own slack block.
    """
    eta = _check_eta(eta)
    slot, log_s, log_mu = _pair_log_marginals(model, lam, eta, edge, vertex)
    nu = np.exp(log_s) - np.exp(log_mu)
    block = (1.0 / eta) * nu
    block += lam[edge, slot]
    if with_slack:
        return block, nu
    return block
