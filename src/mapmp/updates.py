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

A star's log-marginals come from one pass of 1-D NumPy calls over the
``Model.star_tables`` of its (degree, k slot-1 edges): the joint and vertex
logits share one buffer, so one max, exp and log serve both, and joints are
gathered as [edge, own label, other label], so each log S sums a row.  Every
entry sees the operations of ``_pair_log_marginals`` in their order, and no
sum uses ``reduceat``: NumPy sums a row of fewer than 8 entries left to
right, as a strided axis, but a longer one pairwise, so for d >= 8 the k
slot-1 rows, strided in the pair kernel, are accumulated left to right.
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
    """log mu_i, from the vertex's incident blocks."""
    logits = np.add.reduce(lam.take(model.incident_blocks[vertex]), axis=0)
    logits -= model.vertex_costs[vertex]
    logits *= eta
    logits -= _lse_all(logits)
    return logits


def _pair_log_marginals(model: Model, lam: np.ndarray, eta: float, edge: int, vertex: int):
    """(slot, log S_{e,i}, log mu_i) for one (edge, vertex) pair, ``eta``
    already checked; S_{e,i} sums the normalized edge joint onto the slot."""
    slot = _slot_of(model, edge, vertex)
    logits = model.edge_costs[edge] + lam[edge, 0, :, None]
    logits += lam[edge, 1]
    logits *= -eta
    logits -= _lse_all(logits)
    return slot, _lse(logits, axis=1 - slot), _vertex_log_marginal(model, lam, eta, vertex)


def _star_pass(model: Model, lam: np.ndarray, eta: float, vertex: int):
    """(own blocks (deg, d), log-marginals (deg + 1, d)) of one star, ``eta``
    already checked: log S_{e,i} for each incident edge in incidence order,
    then log mu_i, by the steps of ``_pair_log_marginals`` (module docstring)."""
    t, d = model.star_tables[vertex], model.d
    size = len(t.orient)
    terms = lam.take(model.incident_rows[vertex]).take(t.expand)
    own = terms[2 * size:].reshape(-1, d)
    stack = np.empty(size + d)  # the joint logits [p, a, b], then the vertex logits
    logits, log_mu = stack[:size], stack[size:]
    costs = model.edge_costs.take(model.incident_edges[vertex], axis=0)
    np.add(costs.ravel(), terms[:size], out=logits)
    logits += terms[size:2 * size]
    logits *= -eta
    np.add.reduce(own, axis=0, out=log_mu)
    log_mu -= model.vertex_costs[vertex]
    log_mu *= eta
    amax = np.maximum.reduceat(stack, t.starts)
    shifted = stack - amax.repeat(d * d)[:size + d]
    np.exp(shifted, out=shifted)
    lse = np.empty_like(amax)
    np.add.reduce(shifted[:size].reshape(-1, d * d), axis=1, out=lse[:-1])
    np.add.reduce(shifted[size:], keepdims=True, out=lse[-1:])
    np.log(lse, out=lse)
    lse += amax
    stack -= lse.repeat(d * d)[:size + d]
    joints = logits.take(t.orient)
    amax = np.maximum.reduceat(joints, t.row_starts)
    joints -= amax.repeat(d)
    np.exp(joints, out=joints)
    joints = joints.reshape(-1, d)
    log_s = stack[size - len(joints):size]  # joints is a copy: log S goes next to log mu
    np.add.reduce(joints, axis=1, out=log_s)
    if d >= 8:
        log_s[:t.k * d] = np.add.accumulate(joints[:t.k * d], axis=1)[:, -1]
    np.log(log_s, out=log_s)
    log_s += amax
    return own, stack[size - len(joints):].reshape(-1, d)


def block_slack(model: Model, lam: np.ndarray, eta: float, edge: int, vertex: int):
    """Slack block nu_{e,i} = S_{e,i} - mu_i computed from local state only."""
    _, log_s, log_mu = _pair_log_marginals(model, lam, _check_eta(eta), edge, vertex)
    return np.exp(log_s) - np.exp(log_mu)


def star_slack(model: Model, lam: np.ndarray, eta: float, vertex: int):
    """Slack blocks for every edge incident to ``vertex``, shape (deg, d),
    ordered like ``model.incident_edges[vertex]``."""
    marginals = np.exp(_star_pass(model, lam, _check_eta(eta), vertex)[1])
    return marginals[:-1] - marginals[-1]


def emp_update(
    model: Model, lam: np.ndarray, eta: float, edge: int, vertex: int, with_slack: bool = False
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


def smp_update(model: Model, lam: np.ndarray, eta: float, vertex: int, with_slack: bool = False):
    """Exact joint minimizer over all blocks incident to ``vertex``.

    Returns an array of shape (deg, d) ordered like
    ``model.incident_edges[vertex]``; after installing all rows, every
    incident slack block vanishes simultaneously.  With ``with_slack``
    returns ``(blocks, nu)`` where ``nu`` holds the incident slack blocks at
    ``lam`` in the same order, equal bit for bit to ``star_slack``.
    """
    eta = _check_eta(eta)
    own, logs = _star_pass(model, lam, eta, vertex)
    shared = np.add.reduce(logs, axis=0)  # the log S rows in order, then log mu
    shared /= eta * len(logs)
    blocks = logs[:-1] / eta
    blocks += own
    blocks -= shared
    if with_slack:
        marginals = np.exp(logs)
        return blocks, marginals[:-1] - marginals[-1]
    return blocks


def block_grad_step(
    model: Model, lam: np.ndarray, eta: float, edge: int, vertex: int, with_slack: bool = False
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
