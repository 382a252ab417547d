"""Shared test utilities: random instances and independent reference oracles.

The reference implementations here are deliberately naive (pure-Python loops,
plain softmax) so they share no code with the package's vectorized log-domain
kernels.
"""

from __future__ import annotations

import heapq
import math

import numpy as np
from scipy import sparse

from mapmp import ValidationError, build_model
from mapmp.bench import (
    _GAP_FLOOR,
    ALGORITHMS,
    RATIO_PAIR,
    BenchConfig,
    BenchResult,
    MetricRow,
    RatioRow,
    SummaryRow,
    _resolve_opt_value,
    primal_objective,
    proj,
    recover_primal,
    resolve_model,
    solve,
)
from mapmp.model import Model


def random_model(rng: np.random.Generator, n: int, d: int, extra_edge_prob: float = 0.5) -> Model:
    """Connected-ish random instance with standard-normal costs: a random
    spanning tree plus extra edges, so every vertex is covered."""
    edges = set()
    perm = rng.permutation(n)
    for a, b in zip(perm[:-1], perm[1:]):
        edges.add((min(a, b), max(a, b)))
    for i in range(n):
        for j in range(i + 1, n):
            if (i, j) not in edges and rng.random() < extra_edge_prob:
                edges.add((i, j))
    edge_list = sorted(edges)
    vc = rng.normal(size=(n, d))
    ec = rng.normal(size=(len(edge_list), d, d))
    return build_model(n, edge_list, d, vc, ec)


def random_cyclic_model(rng: np.random.Generator, n: int, d: int) -> Model:
    """Random instance guaranteed to contain a cycle."""
    while True:
        model = random_model(rng, n, d, extra_edge_prob=0.7)
        if model.m > model.n - 1:
            return model


def random_tree_edges(rng: np.random.Generator, n: int) -> list[tuple[int, int]]:
    """Uniform random labeled tree from a Prufer sequence."""
    if n == 2:
        return [(0, 1)]
    prufer = [int(rng.integers(0, n)) for _ in range(n - 2)]
    degree = [1] * n
    for v in prufer:
        degree[v] += 1
    leaves = [v for v in range(n) if degree[v] == 1]
    heapq.heapify(leaves)
    edges = []
    for v in prufer:
        leaf = heapq.heappop(leaves)
        edges.append((min(leaf, v), max(leaf, v)))
        degree[v] -= 1
        if degree[v] == 1:
            heapq.heappush(leaves, v)
    u, w = sorted(leaves)[:2]
    edges.append((min(u, w), max(u, w)))
    return edges


def random_tree_potts(n: int, d: int, seed) -> Model:
    """Random tree with the benchmark cost distribution: tiny uniform vertex
    costs, +-1 edge costs."""
    rng = np.random.default_rng(seed)
    edges = random_tree_edges(rng, n)
    vc = rng.uniform(-0.01, 0.01, size=(n, d))
    ec = np.where(rng.random((len(edges), d, d)) < 0.5, -1.0, 1.0)
    return build_model(n, edges, d, vc, ec)


def random_tree_model(rng: np.random.Generator, n: int, d: int) -> Model:
    """Random tree with standard-normal costs."""
    edges = random_tree_edges(rng, n)
    return build_model(
        n, edges, d, rng.normal(size=(n, d)), rng.normal(size=(len(edges), d, d))
    )


# ---------------------------------------------------------------------------
# Scalar references for instance set-up: the documented generator stream, the
# list-built incidence and the one-value-at-a-time native writer.
# ---------------------------------------------------------------------------


def reference_erdos_renyi_stream(n: int, edge_prob: float, d: int, seed: int):
    """The documented ``erdos_renyi_potts`` stream, one scalar draw at a time:
    a uniform per pair (i, j > i) in lexicographic order, an integer per
    still-uncovered vertex in ascending order, then vertex-cost uniforms and
    edge-sign uniforms.  Returns (sorted edge list, vertex costs, edge costs)."""
    rng = np.random.default_rng(seed)
    edges = set()
    covered = [False] * n
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < edge_prob:
                edges.add((i, j))
                covered[i] = covered[j] = True
    for v in range(n):
        if not covered[v]:
            u = int(rng.integers(n - 1))
            if u >= v:
                u += 1
            edges.add((min(u, v), max(u, v)))
            covered[u] = covered[v] = True
    edge_list = sorted(edges)
    vc = rng.uniform(-0.01, 0.01, size=(n, d))
    ec = np.where(rng.random((len(edge_list), d, d)) < 0.5, -1.0, 1.0)
    return edge_list, vc, ec


def reference_incidence(n: int, edge_list):
    """Degrees and per-vertex (incident edge, slot) lists of a canonical,
    sorted edge list, built by appending edge by edge."""
    degrees = [0] * n
    inc_edges = [[] for _ in range(n)]
    inc_slots = [[] for _ in range(n)]
    for k, (i, j) in enumerate(edge_list):
        for slot, v in enumerate((i, j)):
            degrees[v] += 1
            inc_edges[v].append(k)
            inc_slots[v].append(slot)
    return degrees, inc_edges, inc_slots


def reference_emit_model(model: Model) -> str:
    """The native writer one value at a time with ``format(x, ".17g")``."""
    def fmt(values):
        return " ".join(format(float(x), ".17g") for x in values)

    lines = [f"mapmp v1 {model.n} {model.m} {model.d}"]
    for i in range(model.n):
        lines.append(f"v {i} {fmt(model.vertex_costs[i])}")
    for e in range(model.m):
        i, j = model.edges[e]
        lines.append(f"e {i} {j} {fmt(model.edge_costs[e].ravel())}")
    return "\n".join(lines) + "\n"


# Verbatim copies of the list-building set-up code the streaming versions
# replaced: the row-by-row generator, the one-list emitter and the token-list
# loader.  The package must keep producing exactly their models, bytes and
# error messages.


def row_by_row_erdos_renyi_potts(n: int, edge_prob: float, d: int, seed: int) -> Model:
    """``erdos_renyi_potts`` drawing the pair uniforms one row at a time."""
    rng = np.random.default_rng(seed)
    later = [np.flatnonzero(rng.random(n - i - 1) < edge_prob) + (i + 1) for i in range(n)]
    first = np.repeat(np.arange(n), [js.size for js in later])
    second = np.concatenate(later)
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


def line_list_emit_model(model: Model) -> str:
    """The native writer holding one list of every line."""
    d = model.d
    v_line = "v %d" + " %.17g" * d
    e_line = "e %d %d" + " %.17g" * (d * d)
    lines = [f"mapmp v1 {model.n} {model.m} {d}"]
    lines += [v_line % (i, *row) for i, row in enumerate(model.vertex_costs.tolist())]
    costs = model.edge_costs.reshape(model.m, d * d).tolist()
    lines += [e_line % (*edge, *row) for edge, row in zip(model.edges.tolist(), costs)]
    return "\n".join(lines) + "\n"


def _token_list_floats(tokens, count, lineno, what):
    if len(tokens) != count:
        raise ValidationError(
            f"line {lineno}: expected {count} {what} values, got {len(tokens)}"
        )
    try:
        return list(map(float, tokens))
    except ValueError as exc:
        raise ValidationError(f"line {lineno}: bad float in {what}: {exc}") from None


def token_list_load_model(text: str) -> Model:
    """The native reader holding every line's tokens and one float list."""
    lines = [
        (no, line.split())
        for no, line in enumerate(text.splitlines(), start=1)
        if line.strip()
    ]
    if not lines:
        raise ValidationError("empty model file")
    header_no, header = lines[0]
    if len(header) != 5 or header[0] != "mapmp":
        raise ValidationError(f"line {header_no}: expected header 'mapmp v1 n m d'")
    if header[1] != "v1":
        raise ValidationError(
            f"line {header_no}: unsupported format version {header[1]!r}, expected 'v1'"
        )
    try:
        n, m, d = (int(t) for t in header[2:])
    except ValueError:
        raise ValidationError(f"line {header_no}: header sizes must be integers") from None

    for name, value, least in (("n", n, 1), ("m", m, 0), ("d", d, 2)):
        if value < least:
            raise ValidationError(f"line {header_no}: header needs {name} >= {least}, got {value}")
    records = lines[1:]
    if n > len(records):
        raise ValidationError(
            f"line {header_no}: header declares {n} vertices but the file has {len(records)} records"
        )

    vertex_rows = [None] * n
    edges = []
    edge_values = []
    for no, tokens in records:
        kind = tokens[0]
        if kind == "v":
            if len(tokens) < 2:
                raise ValidationError(f"line {no}: vertex line needs an index")
            try:
                i = int(tokens[1])
            except ValueError:
                raise ValidationError(f"line {no}: bad vertex index {tokens[1]!r}") from None
            if not 0 <= i < n:
                raise ValidationError(f"line {no}: vertex index {i} outside 0..{n - 1}")
            if vertex_rows[i] is not None:
                raise ValidationError(f"line {no}: duplicate vertex line for {i}")
            vertex_rows[i] = _token_list_floats(tokens[2:], d, no, "vertex cost")
        elif kind == "e":
            if len(tokens) < 3:
                raise ValidationError(f"line {no}: edge line needs two endpoints")
            try:
                i, j = int(tokens[1]), int(tokens[2])
            except ValueError:
                raise ValidationError(f"line {no}: bad edge endpoints") from None
            if not i < j:
                raise ValidationError(
                    f"line {no}: edge ({i}, {j}) violates the canonical i < j orientation"
                )
            edges.append((i, j))
            edge_values += _token_list_floats(tokens[3:], d * d, no, "edge cost")
        else:
            raise ValidationError(f"line {no}: unknown record kind {kind!r}")
    if None in vertex_rows:
        raise ValidationError(f"missing vertex line for {vertex_rows.index(None)}")
    if len(edges) != m:
        raise ValidationError(f"header declares {m} edges but file has {len(edges)}")
    return build_model(
        n, edges, d, np.array(vertex_rows), np.array(edge_values).reshape(m, d, d)
    )


# Verbatim copies of the UAI reader and writer that held a (token, line)
# tuple per token and formatted one entry at a time.
def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _tokenize_with_lines(text: str):
    return [
        (token, no)
        for no, line in enumerate(text.splitlines(), start=1)
        for token in line.split()
    ]


class _TokenReader:
    def __init__(self, text: str):
        self.tokens = _tokenize_with_lines(text)
        self.pos = 0

    def take(self, what: str) -> tuple[str, int]:
        if self.pos >= len(self.tokens):
            raise ValidationError(
                f"line {self.tokens[-1][1] if self.tokens else 1}: unexpected end of file, expected {what}"
            )
        token = self.tokens[self.pos]
        self.pos += 1
        return token

    def take_int(self, what: str) -> tuple[int, int]:
        token, no = self.take(what)
        try:
            return int(token), no
        except ValueError:
            raise ValidationError(f"line {no}: expected {what}, got {token!r}") from None

    def take_float(self, what: str) -> tuple[float, int]:
        token, no = self.take(what)
        try:
            return float(token), no
        except ValueError:
            raise ValidationError(f"line {no}: expected {what}, got {token!r}") from None

    def remaining(self) -> int:
        return len(self.tokens) - self.pos


def token_reader_parse_uai(text: str) -> Model:
    """Parse a UAI MARKOV file into a model, converting potentials to costs."""
    reader = _TokenReader(text)
    preamble, no = reader.take("preamble")
    if preamble != "MARKOV":
        raise ValidationError(f"line {no}: expected MARKOV preamble, got {preamble!r}")
    n, no = reader.take_int("variable count")
    if n < 1:
        raise ValidationError(f"line {no}: variable count must be positive")
    cards = []
    for k in range(n):
        card, cno = reader.take_int(f"cardinality of variable {k}")
        if card < 2:
            raise ValidationError(f"line {cno}: cardinality of variable {k} must be >= 2, got {card}")
        cards.append((card, cno))
    d = cards[0][0]
    for card, cno in cards:
        if card != d:
            raise ValidationError(
                f"line {cno}: mixed cardinalities ({card} vs {d}) are not supported"
            )
    n_funcs, no = reader.take_int("function count")
    if n_funcs < 0:
        raise ValidationError(f"line {no}: function count must be >= 0")
    scopes = []
    for f in range(n_funcs):
        arity, ano = reader.take_int(f"arity of function {f}")
        if arity not in (1, 2):
            raise ValidationError(f"line {ano}: unsupported arity {arity}")
        scope = []
        for _ in range(arity):
            var, vno = reader.take_int("scope variable")
            if not 0 <= var < n:
                raise ValidationError(f"line {vno}: scope variable {var} outside 0..{n - 1}")
            scope.append(var)
        if arity == 2 and scope[0] == scope[1]:
            raise ValidationError(f"line {ano}: pairwise scope repeats variable {scope[0]}")
        scopes.append((scope, ano))

    table_tokens = reader.remaining()
    unary = []
    edge_costs: dict[tuple[int, int], np.ndarray] = {}
    for scope, _ in scopes:
        size, sno = reader.take_int("table size")
        expected = d ** len(scope)
        if size != expected:
            raise ValidationError(
                f"line {sno}: table for scope {tuple(scope)} has {size} entries, expected {expected}"
            )
        if size > reader.remaining():
            raise ValidationError(
                f"line {sno}: table of {size} entries runs past the end of file "
                f"({reader.remaining()} tokens left)"
            )
        entries = np.empty(size)
        for k in range(size):
            value, vno = reader.take_float("table entry")
            if not (value > 0.0) or not math.isfinite(value):
                raise ValidationError(
                    f"line {vno}: potential entries must be strictly positive, got {value}"
                )
            entries[k] = value
        cost = -np.log(entries)
        if len(scope) == 1:
            unary.append((scope[0], cost))
        else:
            a, b = scope
            table = cost.reshape(d, d)  # first scope variable indexes rows
            if a > b:
                a, b = b, a
                table = table.T
            if (a, b) in edge_costs:
                edge_costs[(a, b)] += table
            else:
                edge_costs[(a, b)] = table
    if reader.remaining():
        token, no = reader.take("end of file")
        raise ValidationError(f"line {no}: unexpected trailing token {token!r}")
    # Every vertex is in a pairwise table of d^2 >= 2 d entries: a valid file has n d.
    if n * d > table_tokens:
        raise ValidationError(
            f"{n} variables of cardinality {d} need at least {n * d} table entries, "
            f"the file has {table_tokens} table tokens"
        )
    vertex_costs = np.zeros((n, d))
    for var, cost in unary:
        vertex_costs[var] += cost

    edge_list = sorted(edge_costs)
    ec = np.array([edge_costs[e] for e in edge_list]).reshape(len(edge_list), d, d)
    return build_model(n, edge_list, d, vertex_costs, ec)


def entry_loop_emit_uai(model: Model) -> str:
    """Write a model as a UAI MARKOV file with potentials exp(-C).

    Representable when all |C| are small enough that exp(-C) stays positive
    and finite (|C| below ~700); parsing the result recovers the costs to
    ~1e-12 per entry.
    """
    lines = ["MARKOV", str(model.n), " ".join([str(model.d)] * model.n)]
    lines.append(str(model.n + model.m))
    for i in range(model.n):
        lines.append(f"1 {i}")
    for e in range(model.m):
        lines.append(f"2 {model.edges[e, 0]} {model.edges[e, 1]}")
    for i in range(model.n):
        lines.append(str(model.d))
        lines.append(" ".join(_fmt(math.exp(-c)) for c in model.vertex_costs[i]))
    for e in range(model.m):
        lines.append(str(model.d * model.d))
        lines.append(" ".join(_fmt(math.exp(-c)) for c in model.edge_costs[e].ravel()))
    return "\n".join(lines) + "\n"


def loop_lp_constraints(model: Model):
    """Verbatim copy of the loop builder of ``lp_solve_l2``'s equality
    constraints: (A_eq as CSR, b_eq)."""
    n, m, d = model.n, model.m, model.d
    nv = n * d

    rows, cols, vals = [], [], []
    b = []
    row = 0
    for i in range(n):  # sum_x mu_i(x) = 1
        for x in range(d):
            rows.append(row)
            cols.append(i * d + x)
            vals.append(1.0)
        b.append(1.0)
        row += 1
    for e in range(m):
        i, j = map(int, model.edges[e])
        base = nv + e * d * d
        for xi in range(d):  # sum_xj mu_e(xi, xj) - mu_i(xi) = 0
            for xj in range(d):
                rows.append(row)
                cols.append(base + xi * d + xj)
                vals.append(1.0)
            rows.append(row)
            cols.append(i * d + xi)
            vals.append(-1.0)
            b.append(0.0)
            row += 1
        for xj in range(d):  # sum_xi mu_e(xi, xj) - mu_j(xj) = 0
            for xi in range(d):
                rows.append(row)
                cols.append(base + xi * d + xj)
                vals.append(1.0)
            rows.append(row)
            cols.append(j * d + xj)
            vals.append(-1.0)
            b.append(0.0)
            row += 1
    a_eq = sparse.coo_matrix((vals, (rows, cols)), shape=(row, nv + m * d * d))
    b_eq = np.array(b)
    return a_eq.tocsr(), b_eq


def fd_gradient(model: Model, lam: np.ndarray, eta: float) -> np.ndarray:
    """Central finite differences of the dual objective, coordinate by
    coordinate, at step 1e-6 * (1 + |coordinate|)."""
    from mapmp import dual_objective

    grad = np.zeros_like(lam)
    for idx in np.ndindex(lam.shape):
        h = 1e-6 * (1.0 + abs(lam[idx]))
        plus = lam.copy()
        plus[idx] += h
        minus = lam.copy()
        minus[idx] -= h
        grad[idx] = (dual_objective(model, plus, eta) - dual_objective(model, minus, eta)) / (
            2.0 * h
        )
    return grad


# ---------------------------------------------------------------------------
# Naive reference: marginals, dual value, and slacks from first principles.
# ---------------------------------------------------------------------------


def naive_vertex_marginal(model: Model, lam, eta: float, i: int) -> list[float]:
    weights = []
    for x in range(model.d):
        expo = -eta * model.vertex_costs[i, x]
        for e in range(model.m):
            for slot in range(2):
                if model.edges[e, slot] == i:
                    expo += eta * lam[e, slot, x]
        weights.append(math.exp(expo))
    z = sum(weights)
    return [w / z for w in weights]


def naive_edge_joint(model: Model, lam, eta: float, e: int) -> list[list[float]]:
    weights = [
        [
            math.exp(
                -eta
                * (model.edge_costs[e, xi, xj] + lam[e, 0, xi] + lam[e, 1, xj])
            )
            for xj in range(model.d)
        ]
        for xi in range(model.d)
    ]
    z = sum(sum(row) for row in weights)
    return [[w / z for w in row] for row in weights]


def naive_dual(model: Model, lam, eta: float) -> float:
    total = 0.0
    for i in range(model.n):
        z = 0.0
        for x in range(model.d):
            expo = -eta * model.vertex_costs[i, x]
            for e in range(model.m):
                for slot in range(2):
                    if model.edges[e, slot] == i:
                        expo += eta * lam[e, slot, x]
            z += math.exp(expo)
        total += math.log(z)
    for e in range(model.m):
        z = 0.0
        for xi in range(model.d):
            for xj in range(model.d):
                z += math.exp(
                    -eta
                    * (model.edge_costs[e, xi, xj] + lam[e, 0, xi] + lam[e, 1, xj])
                )
        total += math.log(z)
    return total / eta


def naive_slack(model: Model, lam, eta: float) -> np.ndarray:
    nu = np.zeros((model.m, 2, model.d))
    for e in range(model.m):
        joint = naive_edge_joint(model, lam, eta, e)
        for slot in range(2):
            i = int(model.edges[e, slot])
            mu_i = naive_vertex_marginal(model, lam, eta, i)
            for x in range(model.d):
                if slot == 0:
                    s = sum(joint[x][xj] for xj in range(model.d))
                else:
                    s = sum(joint[xi][x] for xi in range(model.d))
                nu[e, slot, x] = s - mu_i[x]
    return nu


def naive_emp_block(model: Model, lam, eta: float, e: int, slot: int) -> np.ndarray:
    i = int(model.edges[e, slot])
    mu_i = naive_vertex_marginal(model, lam, eta, i)
    joint = naive_edge_joint(model, lam, eta, e)
    out = np.zeros(model.d)
    for x in range(model.d):
        if slot == 0:
            s = sum(joint[x][xj] for xj in range(model.d))
        else:
            s = sum(joint[xi][x] for xi in range(model.d))
        out[x] = lam[e, slot, x] + math.log(s / mu_i[x]) / (2.0 * eta)
    return out


def naive_smp_blocks(model: Model, lam, eta: float, i: int):
    """New blocks for every (edge, slot) incident to vertex i, as a dict."""
    mu_i = naive_vertex_marginal(model, lam, eta, i)
    incident = [
        (e, slot)
        for e in range(model.m)
        for slot in range(2)
        if model.edges[e, slot] == i
    ]
    s_values = {}
    for e, slot in incident:
        joint = naive_edge_joint(model, lam, eta, e)
        s_values[(e, slot)] = [
            sum(joint[x][xj] for xj in range(model.d))
            if slot == 0
            else sum(joint[xi][x] for xi in range(model.d))
            for x in range(model.d)
        ]
    deg = len(incident)
    blocks = {}
    for e, slot in incident:
        block = np.zeros(model.d)
        for x in range(model.d):
            log_prod = math.log(mu_i[x]) + sum(
                math.log(s_values[key][x]) for key in incident
            )
            block[x] = (
                lam[e, slot, x]
                + math.log(s_values[(e, slot)][x]) / eta
                - log_prod / (eta * (deg + 1))
            )
        blocks[(e, slot)] = block
    return blocks


# ---------------------------------------------------------------------------
# The local kernels as first written, in NumPy only: one call per step, no
# in-place reuse.  The package's kernels make fewer NumPy calls but must
# perform the same floating-point operations, so they match these bit for bit.
# ---------------------------------------------------------------------------


def reference_lse(a: np.ndarray, axis):
    amax = np.maximum.reduce(a, axis=axis, keepdims=True)
    shifted = a - amax
    np.exp(shifted, out=shifted)
    out = np.add.reduce(shifted, axis=axis, keepdims=True)
    np.log(out, out=out)
    out += amax
    return out.squeeze(axis)


def reference_vertex_log_marginal(model: Model, lam, eta: float, vertex: int):
    ev = model.incident_edges[vertex]
    sv = model.incident_slots[vertex]
    logits = eta * (lam[ev, sv].sum(axis=0) - model.vertex_costs[vertex])
    return logits - reference_lse(logits, axis=0)


def reference_edge_log_marginal(model: Model, lam, eta: float, edge: int, slot: int):
    logits = -eta * (
        model.edge_costs[edge] + lam[edge, 0][:, None] + lam[edge, 1][None, :]
    )
    joint = logits - reference_lse(logits, axis=(0, 1))
    return reference_lse(joint, axis=1 - slot)


def reference_star_log_marginals(model: Model, lam, eta: float, edges, slots):
    blocks = lam[edges]
    logits = model.edge_costs[edges] + blocks[:, 0, :, None]
    logits += blocks[:, 1, None, :]
    logits *= -eta
    logits -= reference_lse(logits, axis=(1, 2))[:, None, None]
    return np.where(
        slots[:, None] == 0, reference_lse(logits, axis=2), reference_lse(logits, axis=1)
    )


def reference_emp_update(model: Model, lam, eta: float, edge: int, vertex: int):
    """(EMP block, slack block nu_{e,i}) at ``lam``."""
    slot = 0 if vertex == model.edges[edge, 0] else 1
    log_s = reference_edge_log_marginal(model, lam, eta, edge, slot)
    log_mu = reference_vertex_log_marginal(model, lam, eta, vertex)
    block = lam[edge, slot] + (log_s - log_mu) / (2.0 * eta)
    return block, np.exp(log_s) - np.exp(log_mu)


def reference_block_grad_step(model: Model, lam, eta: float, edge: int, vertex: int, step):
    """(lam + step * nu on the block, nu)."""
    slot = 0 if vertex == model.edges[edge, 0] else 1
    _, nu = reference_emp_update(model, lam, eta, edge, vertex)
    return lam[edge, slot] + step * nu, nu


def reference_smp_update(model: Model, lam, eta: float, vertex: int):
    """(star blocks, star slack blocks) at ``lam``, in incidence order."""
    ev = model.incident_edges[vertex]
    sv = model.incident_slots[vertex]
    deg = len(ev)
    log_mu = reference_vertex_log_marginal(model, lam, eta, vertex)
    log_s = reference_star_log_marginals(model, lam, eta, ev, sv)
    shared = (log_mu + log_s.sum(axis=0)) / (eta * (deg + 1))
    blocks = lam[ev, sv] + log_s / eta - shared[None, :]
    return blocks, np.exp(log_s) - np.exp(log_mu)[None, :]


# ---------------------------------------------------------------------------
# The record path as first written, in NumPy only: full-axis reductions,
# np.add.at aggregation and a zero slack offset.  The package folds short
# axes by hand and skips the discarded work, so it must match these bit for
# bit.  Input checks are left out; they only raise.
# ---------------------------------------------------------------------------


def reference_lambda_aggregate(model: Model, lam) -> np.ndarray:
    agg = np.zeros((model.n, model.d))
    if model.m:
        np.add.at(agg, model.edges[:, 0], lam[:, 0])
        np.add.at(agg, model.edges[:, 1], lam[:, 1])
    return agg


def reference_dual_state(model: Model, lam, eta: float):
    """(dual value, log mu vertex, log mu edge, log S) at ``lam``."""
    vertex_logits = eta * (reference_lambda_aggregate(model, lam) - model.vertex_costs)
    edge_logits = -eta * (
        model.edge_costs + lam[:, 0, :, None] + lam[:, 1, None, :]
    )
    lse_v = reference_lse(vertex_logits, axis=1)
    lse_e = reference_lse(edge_logits, axis=(1, 2))
    log_mu_v = vertex_logits - lse_v[:, None]
    log_mu_e = edge_logits - lse_e[:, None, None]
    log_s = np.stack([reference_lse(log_mu_e, axis=2), reference_lse(log_mu_e, axis=1)], axis=1)
    dual = float((lse_v.sum() + lse_e.sum()) / eta)
    return dual, log_mu_v, log_mu_e, log_s


def reference_dual_and_slack(model: Model, lam, eta: float):
    dual, log_mu_v, _, log_s = reference_dual_state(model, lam, eta)
    mu_v = np.exp(log_mu_v)
    s = np.exp(log_s)
    nu = np.empty_like(s)
    if model.m:
        nu[:, 0] = s[:, 0] - mu_v[model.edges[:, 0]]
        nu[:, 1] = s[:, 1] - mu_v[model.edges[:, 1]]
    return dual, nu


def reference_recover_primal(model: Model, lam, eta: float):
    """(vertex blocks, edge blocks) at ``lam``."""
    _, log_mu_v, log_mu_e, _ = reference_dual_state(model, lam, eta)
    mu_v = np.exp(log_mu_v)
    mu_v /= mu_v.sum(axis=1, keepdims=True)
    mu_e = np.exp(log_mu_e)
    if model.m:
        mu_e /= mu_e.sum(axis=(1, 2), keepdims=True)
    return mu_v, mu_e


def reference_slack_score(nu) -> float:
    if nu.size == 0:
        return 0.0
    return float((np.abs(nu).sum(axis=2) ** 2).sum())


def reference_round_to_transport(matrix, row_targets, col_targets) -> np.ndarray:
    p = np.array(matrix, dtype=np.float64)
    r = np.asarray(row_targets, dtype=np.float64)
    c = np.asarray(col_targets, dtype=np.float64)
    single = p.ndim == 2
    if single:
        p, r, c = p[None], r[None], c[None]
    r = np.maximum(r, 0.0)
    c = np.maximum(c, 0.0)
    row_sums = p.sum(axis=2)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        scale = np.where(row_sums > 0.0, np.minimum(1.0, r / row_sums), 1.0)
    p *= scale[:, :, None]
    col_sums = p.sum(axis=1)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        scale = np.where(col_sums > 0.0, np.minimum(1.0, c / col_sums), 1.0)
    p *= scale[:, None, :]
    err_r = np.maximum(r - p.sum(axis=2), 0.0)
    err_c = np.maximum(c - p.sum(axis=1), 0.0)
    missing = err_r.sum(axis=1)
    fix = missing > 1e-14
    p[fix] += err_r[fix, :, None] * err_c[fix, None, :] / missing[fix, None, None]
    return p[0] if single else p


# A verbatim copy of the rounding arithmetic that built the rank-one
# correction as a quotient and added it through an np.where temporary, with
# ``fold`` written as the NumPy reduction whose bits it gives and the input
# checks left out.
def temporary_building_round_to_transport(matrix, row_targets, col_targets) -> np.ndarray:
    p = np.array(matrix, dtype=np.float64)
    r = np.asarray(row_targets, dtype=np.float64)
    c = np.asarray(col_targets, dtype=np.float64)
    single = p.ndim == 2
    if single:
        p, r, c = p[None], r[None], c[None]
    r = np.maximum(r, 0.0)
    c = np.maximum(c, 0.0)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        row_sums = np.add.reduce(p, axis=2)
        scale = np.where(row_sums > 0.0, np.minimum(1.0, r / row_sums), 1.0)
        p *= scale[:, :, None]
        col_sums = np.add.reduce(p, axis=1)
        scale = np.where(col_sums > 0.0, np.minimum(1.0, c / col_sums), 1.0)
        p *= scale[:, None, :]

        # Scaling never overshoots the targets, so both errors are nonnegative
        # up to roundoff; clamping keeps the rank-one correction sign-safe.
        err_r = np.maximum(r - np.add.reduce(p, axis=2), 0.0)
        err_c = np.maximum(c - np.add.reduce(p, axis=1), 0.0)
        missing = np.add.reduce(err_r, axis=1)
        # Rows below the threshold add -0.0, which leaves every entry's bits as they are.
        fix = missing > 1e-14
        correction = err_r[:, :, None] * err_c[:, None, :] / missing[:, None, None]
        p += np.where(fix[:, None, None], correction, -0.0)
    return p[0] if single else p


def reference_proj(model: Model, mu_vertex, mu_edge, nu=None):
    """(vertex blocks, edge blocks) of the projection."""
    if nu is None:
        nu = np.zeros((model.m, 2, model.d))
    targets = mu_vertex[model.edges] + nu
    return mu_vertex.copy(), reference_round_to_transport(mu_edge, targets[:, 0], targets[:, 1])


# ---------------------------------------------------------------------------
# Straight-line transliterations of the accelerated loops.
# ---------------------------------------------------------------------------


def reference_accel_emp(model: Model, eta: float, iters: int, seed) -> tuple:
    """Independent re-implementation of the accelerated edge-message loop,
    sharing only the pinned sampling protocol (one integers(2m) draw per
    iteration)."""
    rng = np.random.default_rng(seed)
    lam = np.zeros((model.m, 2, model.d))
    v = np.zeros_like(lam)
    theta_prev = 1.0
    for _ in range(iters):
        theta = (-theta_prev**2 + math.sqrt(theta_prev**4 + 4 * theta_prev**2)) / 2.0
        y = theta * v + (1.0 - theta) * lam
        pair = int(rng.integers(2 * model.m))
        e, slot = pair // 2, pair % 2
        i = int(model.edges[e, slot])
        new_lam = lam.copy()
        new_lam[e, slot] = naive_emp_block(model, y, eta, e, slot)
        nu_block = naive_slack(model, y, eta)[e, slot]
        new_v = v.copy()
        new_v[e, slot] = v[e, slot] + nu_block / (2.0 * model.m * eta * theta)
        lam, v, theta_prev = new_lam, new_v, theta
    return lam, v


def reference_accel_smp(model: Model, eta: float, iters: int, seed) -> tuple:
    """Independent re-implementation of the accelerated star-message loop,
    sharing only the pinned sampling protocol (one random() draw inverted
    through the degree CDF per iteration)."""
    rng = np.random.default_rng(seed)
    lam = np.zeros((model.m, 2, model.d))
    v = np.zeros_like(lam)
    theta_prev = 1.0
    degrees = [0] * model.n
    for e in range(model.m):
        degrees[int(model.edges[e, 0])] += 1
        degrees[int(model.edges[e, 1])] += 1
    n_total = sum(degrees)
    min_deg = min(degrees)
    for _ in range(iters):
        theta = (-theta_prev**2 + math.sqrt(theta_prev**4 + 4 * theta_prev**2)) / 2.0
        y = theta * v + (1.0 - theta) * lam
        u = rng.random()
        acc = 0.0
        vertex = model.n - 1
        for i in range(model.n):
            acc += degrees[i] / n_total
            if u < acc:
                vertex = i
                break
        p_i = degrees[vertex] / n_total
        blocks = naive_smp_blocks(model, y, eta, vertex)
        nu_y = naive_slack(model, y, eta)
        new_lam = lam.copy()
        new_v = v.copy()
        for (e, slot), block in blocks.items():
            new_lam[e, slot] = block
            new_v[e, slot] = v[e, slot] + nu_y[e, slot] * (
                min_deg / (2.0 * p_i * theta * eta * n_total)
            )
        lam, v, theta_prev = new_lam, new_v, theta
    return lam, v


def shift_toward_uniform(mu_vertex: np.ndarray, delta: float, d: int) -> np.ndarray:
    """Analysis device used only in tests: mix vertex blocks with the uniform
    distribution, theta = d * delta, so that any slack offset of block l1
    norm at most delta keeps every target inside the simplex."""
    theta = d * delta
    return (1.0 - theta) * mu_vertex + theta / d


def minimize_block_coordinatewise(
    model: Model, lam: np.ndarray, eta: float, e: int, slot: int, sweeps: int = 60
) -> np.ndarray:
    """1-D coordinate-wise numeric minimization of the dual over one block,
    via scalar Brent searches; independent of the closed-form update."""
    from scipy.optimize import minimize_scalar

    from mapmp import dual_objective

    work = lam.copy()
    for _ in range(sweeps):
        for x in range(model.d):
            def f(t, x=x):
                work[e, slot, x] = t
                return dual_objective(model, work, eta)

            res = minimize_scalar(
                f, bracket=(work[e, slot, x] - 1.0, work[e, slot, x] + 1.0), method="brent"
            )
            work[e, slot, x] = res.x
    return work[e, slot].copy()


# ---------------------------------------------------------------------------
# The benchmark protocol as first written.  The package's ``run_bench`` builds
# its rows in one pass from the solver trace; it must emit the same CSV bytes.
# ---------------------------------------------------------------------------


def two_phase_run_bench(config: BenchConfig, model: Model | None = None) -> BenchResult:
    """``bench.run_bench`` as first written, verbatim: each row is filled in
    two phases (primal values in the observer, then the trace's columns),
    and the summary and ratio rows are regrouped from the rows."""
    config.validate()
    model = resolve_model(config) if model is None else model
    opt_value = _resolve_opt_value(config, model)
    algorithms = [config.algorithm]
    if config.ratio:
        algorithms.append(RATIO_PAIR[config.algorithm])

    result = BenchResult(config=config, model=model, opt_value=opt_value)
    per_alg_gaps: dict[str, list[list[float]]] = {}
    recorded_grid: dict[str, list[int]] = {}
    for alg in algorithms:
        alg_rows_by_trial = []
        for trial in range(config.trials):
            seed = np.random.SeedSequence(
                [config.seed, ALGORITHMS.index(alg), trial]
            )
            trial_rows: list[MetricRow] = []

            def observe(k: int, lam: np.ndarray, mu) -> None:
                mu_hat = proj(model, recover_primal(model, lam, config.eta))
                primal = primal_objective(model, mu_hat)
                gap = None if opt_value is None else primal - opt_value
                trial_rows.append(
                    MetricRow(trial, k, alg, 0.0, primal, gap, 0.0, 0.0)
                )

            trace = solve(
                alg, model, config.eta, config.iters, seed, stride=config.stride, observer=observe
            )
            for idx, row in enumerate(trial_rows):
                row.dual_value = float(trace.dual_values[idx])
                row.slack_score = float(trace.slack_scores[idx])
                row.elapsed_ms = float(trace.elapsed_ms[idx]) if config.timing else 0.0
            result.rows.extend(trial_rows)
            alg_rows_by_trial.append(trial_rows)

        iterations = [row.iteration for row in alg_rows_by_trial[0]]
        gaps_by_iter: list[list[float]] = [[] for _ in iterations]
        for pos, iteration in enumerate(iterations):
            primals = [rows[pos].projected_primal for rows in alg_rows_by_trial]
            gaps = [rows[pos].primal_gap for rows in alg_rows_by_trial]
            have_gaps = opt_value is not None
            result.summary.append(
                SummaryRow(
                    alg,
                    iteration,
                    float(np.mean(primals)),
                    float(np.std(primals)),
                    float(np.mean(gaps)) if have_gaps else None,
                    float(np.std(gaps)) if have_gaps else None,
                )
            )
            if have_gaps:
                gaps_by_iter[pos] = gaps
        per_alg_gaps[alg] = gaps_by_iter
        recorded_grid[alg] = iterations

    if config.ratio and opt_value is not None:
        standard, accel = algorithms
        if recorded_grid[standard] != recorded_grid[accel]:
            raise ValidationError("paired algorithms recorded different iteration grids")
        floor = _GAP_FLOOR * (1.0 + abs(opt_value))
        for pos, iteration in enumerate(recorded_grid[standard]):
            ratios = [
                math.log(gs / ga)
                for gs, ga in zip(per_alg_gaps[standard][pos], per_alg_gaps[accel][pos])
                if gs > floor and ga > floor
            ]
            if ratios:
                result.ratio_rows.append(
                    RatioRow(
                        iteration,
                        float(np.mean(ratios)),
                        float(np.std(ratios)),
                        len(ratios),
                    )
                )
            else:
                result.ratio_rows.append(RatioRow(iteration, None, None, 0))
    return result
