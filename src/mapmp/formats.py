"""Model serialization: the native text format and UAI MARKOV files.

Native format, line oriented::

    mapmp v1 <n> <m> <d>
    v <i> <c_0> ... <c_{d-1}>          one line per vertex, i ascending
    e <i> <j> <c_00> <c_01> ... <c_{d-1,d-1}>   one line per edge, i < j,
                                                 row-major in (x_i, x_j)

Floats are written with 17 significant digits, so ``load_model(emit_model(M))``
reproduces M bit for bit.  Loading rejects version mismatches, wrong edge
orientation, duplicate or missing vertex lines, and malformed lines, each
with its line number.  Both directions take O(file) time.  The writer holds
O(line) working memory beyond the model: it joins 1024 lines at a time.  The
reader takes the file's lines from ``_lines``, one piece of the text at a
time, and holds no list of them; it walks them three times: to find the
header, to count the records against the header's n, and to parse them into
flat ``array`` buffers.  At n = 5000, m = 23526 (1.17 MB) that is about
0.09 s and 2.4 MB traced to write, 0.11 s and 7.4 MB with the model to read
(single-threaded, 2-core x86-64 host).

UAI MARKOV files are accepted when all variables share one cardinality and
every function scope has arity 1 or 2.  Potentials convert to costs
C = -log(phi), so every table entry must be strictly positive; the costs of
a repeated scope add in file order, onto +0.0 (unary) or -0.0 (pairwise),
and a scope (j, i) with j > i is transposed onto (i, j).  ``emit_uai``
rejects a cost whose exp(-C) is 0 or overflows.  The reader takes one
stream of tokens over the lines and holds one table's tokens at a time, so
the first fault in file order is the one reported: the n = 5000 file
(4.79 MB) parses in about 0.25 s and 14.2 MB traced with the model, and is
written in 0.27 s and 13 MB.
"""

from __future__ import annotations

import math
from array import array
from itertools import chain, islice

import numpy as np

from .errors import ValidationError
from .model import Model, build_model

_NATIVE_MAGIC = "mapmp"
_NATIVE_VERSION = "v1"
_EMIT_CHUNK = 1024  # lines formatted per joined piece of the output
_LINE_CHUNK = 1 << 16  # characters per piece of text split into lines


def read_text(path: str) -> str:
    """The UTF-8 text of ``path``; an unreadable file is a validation error."""
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ValidationError(f"cannot read {path}: {exc}") from None


def _chunked_lines(fmt, ids, values):
    """``fmt % (*ids[k], *values[k])`` plus a newline for every row k, joined
    in pieces of ``_EMIT_CHUNK`` rows: no list of all lines or values is held."""
    fmt += "\n"
    for s in range(0, len(values), _EMIT_CHUNK):
        rows = zip(ids[s : s + _EMIT_CHUNK].tolist(), values[s : s + _EMIT_CHUNK].tolist())
        yield "".join([fmt % (*k, *row) for k, row in rows])


def emit_model(model: Model) -> str:
    # "%.17g" on Python floats writes the same digits as format(x, ".17g").
    n, m, d = model.n, model.m, model.d
    vertex_lines = _chunked_lines("v %d" + " %.17g" * d, np.arange(n)[:, None], model.vertex_costs)
    edge_costs = model.edge_costs.reshape(m, d * d)
    edge_lines = _chunked_lines("e %d %d" + " %.17g" * d * d, model.edges, edge_costs)
    return "".join([f"{_NATIVE_MAGIC} {_NATIVE_VERSION} {n} {m} {d}\n", *vertex_lines, *edge_lines])


def _parse_floats(out, tokens, count, lineno, what):
    if len(tokens) != count:
        raise ValidationError(
            f"line {lineno}: expected {count} {what} values, got {len(tokens)}"
        )
    try:
        out.fromlist(list(map(float, tokens)))
    except ValueError as exc:
        raise ValidationError(f"line {lineno}: bad float in {what}: {exc}") from None


def load_model(text: str) -> Model:
    first = next(((no, line) for no, line in enumerate(_lines(text), start=1) if line.strip()), None)
    if first is None:
        raise ValidationError("empty model file")
    header_no, header = first[0], first[1].split()
    if len(header) != 5 or header[0] != _NATIVE_MAGIC:
        raise ValidationError(f"line {header_no}: expected header '{_NATIVE_MAGIC} {_NATIVE_VERSION} n m d'")
    if header[1] != _NATIVE_VERSION:
        raise ValidationError(
            f"line {header_no}: unsupported format version {header[1]!r}, expected {_NATIVE_VERSION!r}"
        )
    try:
        n, m, d = (int(t) for t in header[2:])
    except ValueError:
        raise ValidationError(f"line {header_no}: header sizes must be integers") from None

    for name, value, least in (("n", n, 1), ("m", m, 0), ("d", d, 2)):
        if value < least:
            raise ValidationError(f"line {header_no}: header needs {name} >= {least}, got {value}")
    records = sum(map(bool, map(str.strip, islice(_lines(text), header_no, None))))
    if n > records:
        raise ValidationError(
            f"line {header_no}: header declares {n} vertices but the file has {records} records"
        )

    # Only n-sized state is allocated up front (n <= records); rows are
    # checked against d per line and parsed straight into flat buffers.
    seen, order, edges = bytearray(n), array("q"), array("q")
    vertex_values, edge_values = array("d"), array("d")
    for no, line in enumerate(islice(_lines(text), header_no, None), start=header_no + 1):
        tokens = line.split()
        if not tokens:
            continue
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
            if seen[i]:
                raise ValidationError(f"line {no}: duplicate vertex line for {i}")
            seen[i] = 1
            order.append(i)
            _parse_floats(vertex_values, tokens[2:], d, no, "vertex cost")
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
            try:
                edges.extend((i, j))
            except OverflowError:  # beyond int64, so outside 0..n-1 as well
                raise ValidationError(f"edge ({i}, {j}) has an endpoint outside 0..{n - 1}") from None
            _parse_floats(edge_values, tokens[3:], d * d, no, "edge cost")
        else:
            raise ValidationError(f"line {no}: unknown record kind {kind!r}")
    if len(order) < n:
        raise ValidationError(f"missing vertex line for {seen.index(0)}")
    if len(edges) != 2 * m:
        raise ValidationError(f"header declares {m} edges but file has {len(edges) // 2}")
    vertex_costs = np.empty((n, d))
    vertex_costs[np.frombuffer(order, dtype=np.int64)] = np.frombuffer(vertex_values).reshape(n, d)
    edge_array = np.frombuffer(edges, dtype=np.int64).reshape(m, 2)
    return build_model(n, edge_array, d, vertex_costs, np.frombuffer(edge_values).reshape(m, d, d))


def read_model(path: str) -> Model:
    """The model in the file at ``path``: UAI MARKOV when its text starts
    with ``MARKOV``, the native format otherwise."""
    text = read_text(path)
    return parse_uai(text) if text.lstrip().startswith("MARKOV") else load_model(text)


def _lines(text: str):
    """The lines of ``text.splitlines()`` in order, split from pieces of
    about ``_LINE_CHUNK`` characters that end after a newline, so no list of
    all lines is held (a two-character break, CR LF, ends at its LF)."""
    start = 0
    while start < len(text):
        stop = text.find("\n", start + _LINE_CHUNK) + 1 or len(text)
        yield from text[start:stop].splitlines()
        start = stop


def parse_uai(text: str) -> Model:
    """Parse a UAI MARKOV file into a model, converting potentials to costs."""
    tokens = chain.from_iterable(map(str.split, _lines(text)))
    pos = 0  # the number of tokens taken so far

    def fail(k: int, message: str):
        no = 0  # the line of token k, line 1 for k < 0: found by a rescan, on error paths only
        for no, line in enumerate(_lines(text), start=1):
            k -= len(line.split())
            if k < 0:
                break
        raise ValidationError(f"line {max(no, 1)}: {message}")

    def take(what: str, kind=str):
        nonlocal pos
        token = next(tokens, None)
        if token is None:
            fail(pos - 1, f"unexpected end of file, expected {what}")
        pos += 1
        try:
            return kind(token)
        except ValueError:
            fail(pos - 1, f"expected {what}, got {token!r}")

    preamble = take("preamble")
    if preamble != "MARKOV":
        fail(0, f"expected MARKOV preamble, got {preamble!r}")
    n = take("variable count", int)
    if n < 1:
        fail(1, "variable count must be positive")
    cards = []
    for k in range(n):
        cards.append(take(f"cardinality of variable {k}", int))
        if cards[k] < 2:
            fail(pos - 1, f"cardinality of variable {k} must be >= 2, got {cards[k]}")
    d = cards[0]
    for k, card in enumerate(cards):
        if card != d:
            fail(2 + k, f"mixed cardinalities ({card} vs {d}) are not supported")
    n_funcs = take("function count", int)
    if n_funcs < 0:
        fail(pos - 1, "function count must be >= 0")
    arities, variables = array("b"), array("q")  # each function's arity; its scope variables
    for f in range(n_funcs):
        arity = take(f"arity of function {f}", int)
        if arity not in (1, 2):
            fail(pos - 1, f"unsupported arity {arity}")
        for _ in range(arity):
            var = take("scope variable", int)
            if not 0 <= var < n:
                fail(pos - 1, f"scope variable {var} outside 0..{n - 1}")
            variables.append(var)
        if arity == 2 and variables[-1] == variables[-2]:
            fail(pos - 3, f"pairwise scope repeats variable {variables[-1]}")  # at the arity
        arities.append(arity)

    # One table at a time, in file order, so the first fault in the file wins.
    first, at, entries = pos, 0, array("d")  # at: the scope's first variable
    for arity in arities:
        size, expected = take("table size", int), d ** arity
        if size != expected:
            fail(pos - 1, f"table for scope {tuple(variables[at:at + arity])} "
                          f"has {size} entries, expected {expected}")
        table = list(islice(tokens, min(size, len(text))))  # no more tokens than characters
        if len(table) < size:
            fail(pos - 1, f"table of {size} entries runs past the end of file ({len(table)} tokens left)")
        for k, token in enumerate(table, pos):
            try:
                value = float(token)
            except ValueError:
                fail(k, f"expected table entry, got {token!r}")
            if not 0.0 < value < math.inf:
                fail(k, f"potential entries must be strictly positive, got {value}")
            entries.append(value)
        pos, at = pos + size, at + arity
    token = next(tokens, None)
    if token is not None:
        fail(pos, f"unexpected trailing token {token!r}")
    # Every vertex is in a pairwise table of d^2 >= 2 d entries: a valid file has n d.
    if n * d > pos - first:
        raise ValidationError(
            f"{n} variables of cardinality {d} need at least {n * d} table entries, "
            f"the file has {pos - first} table tokens"
        )
    cost = -np.log(np.frombuffer(entries))
    arity = np.frombuffer(arities, dtype=np.int8)
    is_pair = arity == 2
    pair = np.repeat(is_pair, np.where(is_pair, d * d, d))
    scope_starts = np.cumsum(arity) - arity
    scope_vars = np.frombuffer(variables, dtype=np.int64)
    vertex_costs = np.zeros((n, d))  # unary costs add onto +0.0 in file order
    np.add.at(vertex_costs, scope_vars[scope_starts[~is_pair]], cost[~pair].reshape(-1, d))
    tables = cost[pair].reshape(-1, d, d)  # first scope variable indexes rows
    ij = scope_vars[scope_starts[is_pair, None] + np.arange(2)]
    flip = ij[:, 0] > ij[:, 1]
    tables[flip] = tables[flip].transpose(0, 2, 1)
    ij.sort(axis=1)
    edges, which = np.unique(ij, axis=0, return_inverse=True)
    edge_costs = np.full((len(edges), d, d), -0.0)  # pairwise costs add onto -0.0 in file order
    np.add.at(edge_costs, which.ravel(), tables)
    return build_model(n, edges, d, vertex_costs, edge_costs)


def _potential(cost: float) -> float:
    """exp(-cost), inf where ``math.exp`` overflows."""
    try:
        return math.exp(-cost)
    except OverflowError:
        return math.inf


def emit_uai(model: Model) -> str:
    """Write a model as a UAI MARKOV file with potentials exp(-C).

    Every potential must be positive and finite, so every cost must lie in
    about [-709.78, 745.13]; the first cost outside that range, in file
    order, raises ``ValidationError``.  Parsing the result recovers the
    costs to ~1e-12 per entry.
    """
    n, m, d = model.n, model.m, model.d
    costs = np.concatenate([model.vertex_costs.ravel(), model.edge_costs.ravel()])
    phi = np.fromiter(map(_potential, costs.tolist()), np.float64, costs.size)
    bad = np.flatnonzero(~((phi > 0.0) & (phi < np.inf)))
    if bad.size:
        k = int(bad[0])
        e, x = divmod(k - n * d, d * d)
        where = (f"vertex {k // d} label {k % d}" if k < n * d
                 else f"edge {tuple(model.edges[e].tolist())} labels {divmod(x, d)}")
        raise ValidationError(f"{where}: cost {float(costs[k])} has no positive finite potential exp(-cost)")
    none = np.empty((n + m, 0))  # rows with no ids or no values
    return "".join([
        f"MARKOV\n{n}\n{' '.join([str(d)] * n)}\n{n + m}\n",
        *_chunked_lines("1 %d", np.arange(n)[:, None], none[:n]),
        *_chunked_lines("2 %d %d", model.edges, none[:m]),
        *_chunked_lines(f"{d}\n" + " ".join(["%.17g"] * d), none[:n], phi[: n * d].reshape(n, d)),
        *_chunked_lines(f"{d * d}\n" + " ".join(["%.17g"] * d * d), none[:m], phi[n * d :].reshape(m, d * d)),
    ])
