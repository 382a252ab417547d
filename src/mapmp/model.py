"""Pairwise MRF instances: validation, assignment costs, random benchmark models.

An instance is an undirected graph on vertices 0..n-1 with d labels per
vertex, a length-d cost vector per vertex, and a d x d cost matrix per edge.
Edges are stored canonically as (i, j) with i < j, sorted lexicographically,
and edge cost matrices are indexed (label of i, label of j).  That single
orientation is relied on everywhere else: endpoint "slot" 0 always means the
smaller endpoint and slot 1 the larger one.  The dual's length-d block (e, s)
sits at (2 e + s) d + arange(d) of ``lam.ravel()``: ``Model.pair_blocks``.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ValidationError, array, check_assignment, integer, label_count, real


@dataclass(frozen=True)
class Model:
    """Validated instance. Immutable after construction; all arrays are
    read-only, so a model can be shared freely across threads.  Every vertex
    has an incident edge, so n >= 2 and m >= 1.

    Use :func:`build_model` instead of instantiating directly.
    """

    n: int
    d: int
    edges: np.ndarray  # (m, 2) int64, rows (i, j) with i < j, sorted
    vertex_costs: np.ndarray  # (n, d) float64
    edge_costs: np.ndarray  # (m, d, d) float64, entry [e, x_i, x_j]
    degrees: np.ndarray  # (n,) int64, number of incident edges
    incident_edges: tuple  # per vertex: int64 array of incident edge indices
    incident_slots: tuple  # per vertex: int64 array of endpoint slots (0 or 1)

    @cached_property
    def pair_blocks(self) -> np.ndarray:
        """(2m, d), read-only: row 2 e + s holds block (e, s)'s positions in ``lam.ravel()``."""
        return _readonly(np.arange(self.dual_dim).reshape(2 * self.m, self.d))

    @cached_property
    def dual_cells(self) -> np.ndarray:
        """(2m d,), read-only: the (vertex, label) cell v d + x of each entry of ``lam.ravel()``."""
        return _readonly((self.edges.reshape(-1, 1) * self.d + np.arange(self.d)).ravel())

    @cached_property
    def incident_blocks(self) -> tuple:
        """Per vertex, its rows of ``pair_blocks`` in incidence order, read-only views of one array."""
        pairs = 2 * np.concatenate(self.incident_edges) + np.concatenate(self.incident_slots)
        return _split(self.pair_blocks[pairs], self.degrees)

    @cached_property
    def incident_rows(self) -> tuple:
        """Per vertex, the raveled rows of the (m, 2 d) view of ``pair_blocks`` at its edges; likewise."""
        rows = self.pair_blocks.reshape(self.m, 2 * self.d)[np.concatenate(self.incident_edges)]
        return _split(rows.ravel(), self.degrees * 2 * self.d)

    @cached_property
    def star_tables(self) -> tuple:
        """Per vertex, the ``StarTable`` of its star's flat log-marginal pass
        (``updates._local_pass``).  Slot-1 edges come first in
        incidence order, so vertices with the same degree and number k of
        them share one."""
        slot_one = np.bincount(self.edges[:, 1], minlength=self.n)
        keys = list(zip(self.degrees.tolist(), slot_one.tolist()))
        tables = {key: _star_table(self.d, *key) for key in set(keys)}
        return tuple(tables[key] for key in keys)

    @cached_property
    def pair_tables(self) -> tuple:
        """The one-edge ``StarTable`` of a pair's vertex in slot 0, then in slot 1."""
        return _star_table(self.d, 1, 0), _star_table(self.d, 1, 1)

    @cached_property
    def dual_shape(self) -> tuple:  # (m, 2, d), held for the update kernels' check
        return (self.m, 2, self.d)

    @property
    def m(self) -> int:
        return int(self.edges.shape[0])

    @property
    def primal_dim(self) -> int:
        """Number of marginal coordinates: n*d + m*d^2."""
        return self.n * self.d + self.m * self.d * self.d

    @property
    def dual_dim(self) -> int:
        """Number of dual coordinates: one length-d block per (edge, endpoint)."""
        return 2 * self.m * self.d

    @property
    def cost_inf_norm(self) -> float:
        vmax = float(np.abs(self.vertex_costs).max())
        emax = float(np.abs(self.edge_costs).max())
        return max(vmax, emax)


# Read-only positions for the flat pass over a star of deg edges, k of them
# in slot 1; [p, a, b] is entry (a, b) of the p-th joint, a the label of its
# slot-0 endpoint.  ``expand`` picks from the star's rows ``lam[ev].ravel()``
# lam[e, 0, a] for every [p, a, b], then lam[e, 1, b], then the own (deg, d)
# blocks; ``orient`` gathers the joints as [p, own label, other label];
# ``starts`` begin the deg joints and the d vertex logits after them, and
# ``row_starts`` the deg d rows of the oriented joints; ``groups`` is the
# joint (deg for the vertex) of each of those deg d^2 + d entries, and
# ``row_groups`` the row of each oriented joint entry.
StarTable = namedtuple("StarTable", "k expand orient starts row_starts groups row_groups")


def _star_table(d: int, deg: int, k: int) -> StarTable:
    p, own, other = np.arange(deg)[:, None, None], np.arange(d)[:, None], np.arange(d)
    row, zero = 2 * d * p, np.zeros((deg, d, d), dtype=np.int64)
    expand = (zero + row + own, zero + row + d + other, row[:, 0] + d * (p[:, 0] < k) + other)
    orient = p * d * d + np.where(p < k, other * d + own, own * d + other)
    return StarTable(k, *map(_readonly, (
        np.concatenate([a.ravel() for a in expand]), orient.ravel(),
        np.arange(deg + 1) * d * d, np.arange(deg * d) * d,
        np.arange(deg * d * d + d) // (d * d), np.arange(deg * d * d) // d,
    )))


def _readonly(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def _split(a: np.ndarray, sizes) -> tuple:
    """Read-only views of ``a``'s consecutive runs of ``sizes`` rows: the
    pieces of ``np.split`` without its per-piece overhead."""
    _readonly(a)
    ends = np.cumsum(sizes).tolist()
    return tuple(a[start:end] for start, end in zip([0] + ends, ends))


def build_model(n, edges, d, vertex_costs, edge_costs) -> Model:
    """Validate inputs and assemble an immutable :class:`Model`.

    ``edges`` is a sequence of (i, j) pairs or an (m, 2) integer array.
    Edges may be supplied in either orientation; a pair given as (j, i) with
    j > i is flipped and its cost matrix transposed.  The edge list is then
    sorted lexicographically with the cost matrices permuted alongside.

    Rejects: d < 2, self-loops, duplicate edges, out-of-range endpoints,
    vertices without any incident edge, non-finite costs, and shape
    mismatches.  ``n``, ``d`` and every endpoint must be integers."""
    n, d = integer("n", n, 1), label_count(d)

    vc = array("vertex_costs", vertex_costs, np.float64, (n, d), order="C")

    canon = array("edges", edges, order="C")
    if canon.size == 0:
        canon = canon.reshape(0, 2)
    if canon.ndim != 2 or canon.shape[1] != 2 or canon.size and canon.dtype.kind not in "iu":
        raise ValidationError(
            f"edges must be (i, j) pairs of integers, got {canon.dtype} of shape {canon.shape}")
    m = canon.shape[0]
    ec = array("edge_costs", edge_costs, np.float64, (m, d, d), copy=None, order="C")

    outside = ((canon < 0) | (canon >= n)).any(axis=1)
    bad = np.flatnonzero(outside | (canon[:, 0] == canon[:, 1]))
    if bad.size:
        i, j = canon[bad[0]]
        if outside[bad[0]]:
            raise ValidationError(f"edge ({i}, {j}) has an endpoint outside 0..{n - 1}")
        raise ValidationError(f"self-loop at vertex {i}")
    canon = canon.astype(np.int64, copy=False)  # after the range check, so no endpoint wraps

    flip = canon[:, 0] > canon[:, 1]
    canon[flip] = canon[flip, ::-1]
    order = np.lexsort((canon[:, 1], canon[:, 0]))
    canon = canon[order]
    ec_canon = ec[order]
    flip = flip[order]
    ec_canon[flip] = ec_canon[flip].transpose(0, 2, 1)
    dup = np.flatnonzero((canon[1:] == canon[:-1]).all(axis=1))
    if dup.size:
        i, j = canon[dup[0] + 1]
        raise ValidationError(f"duplicate edge ({i}, {j})")

    if not np.isfinite(vc).all() or not np.isfinite(ec_canon).all():
        raise ValidationError("costs must be finite")

    # Endpoint k of the flattened edge list is slot k % 2 of edge k // 2; a
    # stable sort by vertex keeps each vertex's edges in ascending order.
    endpoints = canon.ravel()
    degrees = np.bincount(endpoints, minlength=n)
    isolated = np.flatnonzero(degrees == 0)
    if isolated.size:
        raise ValidationError(f"isolated vertex {int(isolated[0])} has no incident edge")
    by_vertex = np.argsort(endpoints, kind="stable")
    incident_edges = _split(by_vertex // 2, degrees)
    incident_slots = _split(by_vertex % 2, degrees)
    return Model(
        n=n,
        d=d,
        edges=_readonly(canon),
        vertex_costs=_readonly(vc),
        edge_costs=_readonly(ec_canon),
        degrees=_readonly(degrees),
        incident_edges=incident_edges,
        incident_slots=incident_slots,
    )


def map_value(model: Model, assignment) -> float:
    """Total cost of an integral assignment: vertex costs plus edge costs."""
    labels = check_assignment(model, assignment)
    value = model.vertex_costs[np.arange(model.n), labels].sum()
    xi = labels[model.edges[:, 0]]
    xj = labels[model.edges[:, 1]]
    return float(value + model.edge_costs[np.arange(model.m), xi, xj].sum())


def degree_stats(model: Model):
    """Per-vertex incident-edge counts, the maximum degree, and their sum N.

    N always equals 2m (each edge is counted at both endpoints).
    """
    degrees = model.degrees.copy()
    return degrees, int(degrees.max()), int(degrees.sum())


def default_edge_prob(n: int) -> float:
    """Edge probability 1.1 log(n) / n: the sparse regime just above the
    log(n) / n connectivity threshold, used when none is given."""
    n = integer("n", n, 2)
    return 1.1 * math.log(n) / n


_PAIR_BLOCK = 1 << 18


def erdos_renyi_potts(n: int, edge_prob: float, d: int, seed: int) -> Model:
    """Random Erdos-Renyi instance with multi-label Potts-style costs.

    Each unordered pair becomes an edge independently with probability
    ``edge_prob``.  Vertex costs are drawn uniformly from [-0.01, 0.01] and
    each edge cost entry uniformly from {-1.0, +1.0}.  Any vertex left
    isolated by the draw is repaired by attaching it to a uniformly random
    other vertex; repairs are part of the seeded stream, so the whole model
    is a deterministic function of (n, edge_prob, d, seed).

    Stream layout (PCG64 via ``numpy.random.default_rng``, documented so
    golden files stay portable): one uniform per vertex pair in
    lexicographic order, then one integer draw per repaired vertex in
    ascending order, then the (n, d) vertex-cost uniforms, then the
    (m, d, d) edge-sign uniforms with edges in canonical sorted order.  The
    pair uniforms are drawn in blocks of ``_PAIR_BLOCK`` that may span rows
    (``random(k)`` is exactly the stream of k scalar draws), in O(block + m)
    memory; one ``searchsorted`` on the row ends maps hits back to (i, j).
    ``n``, ``d``, ``seed`` and ``edge_prob`` are checked before any draw.
    """
    n, d, seed = integer("n", n, 2), label_count(d), integer("seed", seed, 0)
    if real("edge_prob", edge_prob) > 1.0:
        raise ValidationError(f"edge_prob must lie in (0, 1], got {edge_prob}")

    rng = np.random.default_rng(seed)
    row_ends = np.cumsum(np.arange(n - 1, -1, -1))  # pair index one past row i
    pairs = int(row_ends[-1])
    hits = np.concatenate([
        np.flatnonzero(rng.random(min(_PAIR_BLOCK, pairs - start)) < edge_prob) + start
        for start in range(0, pairs, _PAIR_BLOCK)
    ])
    first = np.searchsorted(row_ends, hits, side="right")
    second = hits - row_ends[first] + n
    covered = np.zeros(n, dtype=bool)
    covered[first] = covered[second] = True
    repairs = []
    for v in range(n):
        if not covered[v]:
            u = int(rng.integers(n - 1))
            if u >= v:
                u += 1
            repairs.append((min(u, v), max(u, v)))
            covered[u] = covered[v] = True

    edges = np.concatenate(
        [np.stack([first, second], axis=1), np.array(repairs, dtype=np.int64).reshape(-1, 2)]
    )
    edges = edges[np.lexsort((edges[:, 1], edges[:, 0]))]
    vc = rng.uniform(-0.01, 0.01, size=(n, d))
    ec = np.where(rng.random((len(edges), d, d)) < 0.5, -1.0, 1.0)
    return build_model(n, edges, d, vc, ec)
