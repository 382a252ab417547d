"""Closed-form block minimizers of the smoothed dual, plus a gradient step.

Each function evaluates the dual state only locally (the vertex's incident
blocks and the touched edge joints), returns freshly allocated block values,
and never mutates its input.  Schedulers exploit this: the accelerated loops
evaluate an update at an extrapolated point y and install the result into a
different iterate.  They also need the slack at y; ``with_slack=True`` makes
an update return it alongside the block(s), formed from the log-marginals the
update has already computed, so the local state is evaluated once.  One
helper forms every slack, there and in ``block_slack`` and ``star_slack``.

Edge message passing (EMP) minimizes the dual exactly over the single block
(e, i); the minimizer moves the block by log(S / mu_i) / (2 eta), after which
the refreshed marginal S_{e,i} equals mu_i on that block.  Star message
passing (SMP) minimizes jointly over all blocks incident to one vertex; its
closed form shifts block (e, i) by

    log S_{e,i} / eta  -  log(mu_i * prod_{e'} S_{e',i}) / (eta (deg_i + 1)),

which for deg_i = 1 reduces to the EMP move.  Log ratios are always formed
as differences of log-domain accumulators, never as quotients of
materialized probabilities.

Every update reads log S_{e,i} and log mu_i from one local pass, the only
code here that converts lam, checks the vertex (and edge) and gathers: 1-D
NumPy calls over a star's ``Model.star_tables`` entry (per degree and k
slot-1 edges) or a pair's one-edge ``Model.pair_tables`` entry; only the
closed forms differ.  The joint and vertex logits share one buffer, so one
max, exp and log serve both, and joints are gathered as [edge, own label,
other label], so each log S sums a row.  Each entry sees the operations of
a log-sum-exp over the (d, d) joint, then over its rows or columns, in their
order, and no sum uses ``reduceat``: NumPy sums a row of fewer than 8
entries left to right, as a strided axis, but a longer one pairwise, so for
d >= 8 the k slot-1 rows, a strided axis of the joint, are accumulated left
to right.  The pass allocates no buffer: a ``threading.local`` cache holds,
per joint-logit count and d, its buffers and every view it takes of them,
built on a thread's first pass of those sizes.  So the log rows it returns
are the calling thread's scratch, valid until that thread's next pass, and
every public function here turns them into fresh arrays before it returns.

Every call on this per-iteration path takes its cheapest form with the same
bits.  A per-group value (the max or log-sum-exp of a joint or of the
vertex logits, the max of an oriented row) reaches its group's entries by
one gather through the table's ``groups`` or ``row_groups`` index, not by
``repeat``.  Ufuncs and reductions take their output positionally through
the module-level names ``_add``, ``_sub``, ``_mul``, ``_div``, ``_exp``,
``_log``, ``_sum`` and ``_max_at`` (``_add(a, b, a)``,
``_sum(a, axis, None, out)``), never through ``out=`` or ``a op= b``,
which give the same result at a higher cost per call; gathers from 1-D
data index (``a[idx]``), and row gathers from 2-D or 3-D data ``take``.
"""

from __future__ import annotations

import threading

import numpy as np

from .errors import ValidationError, array, integer, real
from .model import Model

_add, _sub, _mul, _div, _exp, _log = np.add, np.subtract, np.multiply, np.divide, np.exp, np.log
_sum, _max_at = np.add.reduce, np.maximum.reduceat
_F64 = np.dtype(np.float64)  # the kernels take a float64 lam of the dual shape unconverted


class _Scratch(threading.local):
    def __init__(self):
        self.by_size = {}  # (joint-logit count, d) -> the pass's buffers and its views of them


_scratch = _Scratch()


def _local_pass(model: Model, lam: np.ndarray, eta: float, vertex: int, edge: int | None = None):
    """(moved blocks, log rows) of the star of ``vertex``, or with ``edge``
    of the pair (edge, vertex), ``eta`` already checked.  The moved blocks
    are the star's own (deg, d) or the pair's lam[e, i]; the rows are log
    S_{e,i} for each edge of the table ``t`` in incidence order, then log
    mu_i, from lam[e, 0, a], then lam[e, 1, b], for every joint entry
    [p, a, b] (``terms``, which may run on), the vertex's own blocks
    ``own`` and the edge ``costs``.  The rows are the calling thread's
    scratch, valid until its next pass."""
    if getattr(lam, "dtype", None) is not _F64 or lam.shape != model.dual_shape:
        lam = array("lam", lam, np.float64, model.dual_shape, copy=None)
    d = model.d
    if edge is None:
        vertex = integer("vertex", vertex)
        if not 0 <= vertex < model.n:
            raise ValidationError(f"vertex index {vertex} outside 0..{model.n - 1}")
        t = model.star_tables[vertex]
        terms = lam.ravel()[model.incident_rows[vertex]][t.expand]
        own = moved = terms[2 * len(t.orient):].reshape(-1, d)
        costs = model.edge_costs.take(model.incident_edges[vertex], 0)
    else:
        edge, vertex, edges = integer("edge", edge), integer("vertex", vertex), model.edges
        if not 0 <= edge < len(edges):
            raise ValidationError(f"edge index {edge} outside 0..{model.m - 1}")
        slot = 0 if edges.item(edge, 0) == vertex else 1
        if edges.item(edge, slot) != vertex:
            raise ValidationError(f"vertex {vertex} is not an endpoint of edge {edge}")
        t = model.pair_tables[slot]
        terms, moved = lam[edge].ravel()[t.expand], lam[edge, slot]
        own, costs = lam.ravel()[model.incident_blocks[vertex]], model.edge_costs[edge]
    size = len(t.orient)
    views = _scratch.by_size.get((size, d))
    if views is None:  # the joint logits [p, a, b], then the vertex logits; log S, then log mu
        stack, shifted, lse = np.empty(size + d), np.empty(size + d), np.empty(size // (d * d) + 1)
        rows = stack[size - size // d:]
        views = _scratch.by_size[size, d] = (
            stack, stack[:size], stack[size:], shifted, shifted[:size].reshape(-1, d * d), shifted[size:],
            lse, lse[:-1], lse[-1:], rows[:-d], rows.reshape(-1, d))
    stack, logits, log_mu, shifted, shifted_joints, shifted_vertex, lse, lse_joints, lse_vertex, log_s, rows = views
    _add(costs.ravel(), terms[:size], logits)
    _add(logits, terms[size:2 * size], logits)
    _mul(logits, -eta, logits)
    _sum(own, 0, None, log_mu)
    _sub(log_mu, model.vertex_costs[vertex], log_mu)
    _mul(log_mu, eta, log_mu)
    amax = _max_at(stack, t.starts)
    _sub(stack, amax[t.groups], shifted)
    _exp(shifted, shifted)
    _sum(shifted_joints, 1, None, lse_joints)
    _sum(shifted_vertex, 0, None, lse_vertex, True)
    _log(lse, lse)
    _add(lse, amax, lse)
    _sub(stack, lse[t.groups], stack)
    joints = logits[t.orient]
    amax = _max_at(joints, t.row_starts)
    _sub(joints, amax[t.row_groups], joints)
    _exp(joints, joints)
    joints = joints.reshape(-1, d)
    _sum(joints, 1, None, log_s)  # joints is a copy: log S goes next to log mu
    if d >= 8:
        log_s[:t.k * d] = np.add.accumulate(joints[:t.k * d], 1)[:, -1]
    _log(log_s, log_s)
    _add(log_s, amax, log_s)
    return moved, rows


def _slack(logs):
    """nu = S - mu from a pass's (rows, d) log rows: exp of each log S row minus exp of log mu."""
    marginals = _exp(logs)
    return _sub(marginals[:-1], marginals[-1:])  # (1, d) last row: no broadcast for a pair


def block_slack(model: Model, lam: np.ndarray, eta: float, edge: int, vertex: int):
    """Slack block nu_{e,i} = S_{e,i} - mu_i computed from local state only."""
    return _slack(_local_pass(model, lam, real("eta", eta), vertex, edge)[1])[0]


def star_slack(model: Model, lam: np.ndarray, eta: float, vertex: int):
    """Slack blocks for every edge incident to ``vertex``, shape (deg, d),
    ordered like ``model.incident_edges[vertex]``."""
    return _slack(_local_pass(model, lam, real("eta", eta), vertex)[1])


def emp_update(
    model: Model, lam: np.ndarray, eta: float, edge: int, vertex: int, with_slack: bool = False
):
    """Exact minimizer of the dual over block (edge, vertex), as a new block:

        lam'[x] = lam[x] + (log S_{e,i}(x) - log mu_i(x)) / (2 eta)

    With ``with_slack`` returns ``(block, nu)`` where ``nu`` is the slack
    block at ``lam``, equal bit for bit to ``block_slack`` at the same
    arguments.
    """
    eta = real("eta", eta)
    own, logs = _local_pass(model, lam, eta, vertex, edge)
    block = _sub(logs[0], logs[1])
    _div(block, 2.0 * eta, block)
    _add(block, own, block)
    return (block, _slack(logs)[0]) if with_slack else block


def smp_update(model: Model, lam: np.ndarray, eta: float, vertex: int, with_slack: bool = False):
    """Exact joint minimizer over all blocks incident to ``vertex``.

    Returns an array of shape (deg, d) ordered like
    ``model.incident_edges[vertex]``; after installing all rows, every
    incident slack block vanishes simultaneously.  With ``with_slack``
    returns ``(blocks, nu)`` where ``nu`` holds the incident slack blocks at
    ``lam`` in the same order, equal bit for bit to ``star_slack``.
    """
    eta = real("eta", eta)
    own, logs = _local_pass(model, lam, eta, vertex)
    shared = _sum(logs, 0)  # the log S rows in order, then log mu
    _div(shared, eta * len(logs), shared)
    blocks = _div(logs[:-1], eta)
    _add(blocks, own, blocks)
    _sub(blocks, shared, blocks)
    return (blocks, _slack(logs)) if with_slack else blocks


def block_grad_step(
    model: Model, lam: np.ndarray, eta: float, edge: int, vertex: int, with_slack: bool = False
):
    """Gradient step of 1/eta on block (edge, vertex): lam' = lam + (1 / eta) nu.

    The dual gradient on the block is -nu, so this descends.  With
    ``with_slack`` returns ``(block, nu)``, the step's own slack block.
    """
    eta = real("eta", eta)
    own, logs = _local_pass(model, lam, eta, vertex, edge)
    nu = _slack(logs)[0]
    block = _mul(1.0 / eta, nu)
    _add(block, own, block)
    return (block, nu) if with_slack else block
