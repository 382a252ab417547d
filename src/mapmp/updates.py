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

Every update reads log S_{e,i} and log mu_i from one pass of 1-D NumPy
calls over a star's ``Model.star_tables`` entry (per degree and k slot-1
edges) or a pair's one-edge ``Model.pair_tables`` entry; only the closed
forms differ.  The joint and vertex logits share one buffer, so one max,
exp and log serve both, and joints are gathered as [edge, own label, other
label], so each log S sums a row.  Each entry sees the operations of a
log-sum-exp over the (d, d) joint, then over its rows or columns, in their
order, and no sum uses ``reduceat``: NumPy sums a row of fewer than 8
entries left to right, as a strided axis, but a longer one pairwise, so for
d >= 8 the k slot-1 rows, a strided axis of the joint, are accumulated left
to right.
"""

from __future__ import annotations

import numpy as np

from .errors import ValidationError
from .model import Model
from .objective import _check_eta


def _log_marginal_pass(t, d: int, terms, own, costs, vertex_cost, eta: float):
    """log S_{e,i} for each edge of table ``t`` in incidence order, then log
    mu_i, as (deg + 1, d) rows, ``eta`` already checked: from lam[e, 0, a],
    then lam[e, 1, b], for every joint entry [p, a, b] (``terms``, which may
    run on), the vertex's own blocks (deg_i, d) and the edge costs."""
    size = len(t.orient)
    stack = np.empty(size + d)  # the joint logits [p, a, b], then the vertex logits
    logits, log_mu = stack[:size], stack[size:]
    np.add(costs.ravel(), terms[:size], out=logits)
    logits += terms[size:2 * size]
    logits *= -eta
    np.add.reduce(own, axis=0, out=log_mu)
    log_mu -= vertex_cost
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
    return stack[size - len(joints):].reshape(-1, d)


def _pair_pass(model: Model, lam: np.ndarray, eta: float, edge: int, vertex: int):
    """(slot, [log S_{e,i}, log mu_i]) for one (edge, vertex) pair."""
    edge = int(edge)
    if not (0 <= edge < model.m):
        raise ValidationError(f"edge index {edge} outside 0..{model.m - 1}")
    ends = model.edges[edge].tolist()
    if vertex not in ends:
        raise ValidationError(f"vertex {vertex} is not an endpoint of edge {edge}")
    slot = ends.index(vertex)
    t = model.pair_tables[slot]
    return slot, _log_marginal_pass(
        t, model.d, lam[edge].take(t.expand), lam.take(model.incident_blocks[vertex]),
        model.edge_costs[edge], model.vertex_costs[vertex], eta)


def _star_pass(model: Model, lam: np.ndarray, eta: float, vertex: int):
    """(own blocks (deg, d), log-marginals (deg + 1, d)) of one star."""
    t = model.star_tables[vertex]
    terms = lam.take(model.incident_rows[vertex]).take(t.expand)
    own = terms[2 * len(t.orient):].reshape(-1, model.d)
    costs = model.edge_costs.take(model.incident_edges[vertex], axis=0)
    return own, _log_marginal_pass(t, model.d, terms, own, costs, model.vertex_costs[vertex], eta)


def block_slack(model: Model, lam: np.ndarray, eta: float, edge: int, vertex: int):
    """Slack block nu_{e,i} = S_{e,i} - mu_i computed from local state only."""
    logs = _pair_pass(model, lam, _check_eta(eta), edge, vertex)[1]
    return np.exp(logs[0]) - np.exp(logs[1])


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
    slot, logs = _pair_pass(model, lam, eta, edge, vertex)
    block = logs[0] - logs[1]
    block /= 2.0 * eta
    block += lam[edge, slot]
    if with_slack:
        return block, np.exp(logs[0]) - np.exp(logs[1])
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
    slot, logs = _pair_pass(model, lam, eta, edge, vertex)
    nu = np.exp(logs[0]) - np.exp(logs[1])
    block = (1.0 / eta) * nu
    block += lam[edge, slot]
    if with_slack:
        return block, nu
    return block
