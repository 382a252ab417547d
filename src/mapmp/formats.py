"""Model serialization: the native text format and UAI MARKOV files.

Native format, line oriented::

    mapmp v1 <n> <m> <d>
    v <i> <c_0> ... <c_{d-1}>          one line per vertex, i ascending
    e <i> <j> <c_00> <c_01> ... <c_{d-1,d-1}>   one line per edge, i < j,
                                                 row-major in (x_i, x_j)

Floats are written with 17 significant digits, so ``load_model(emit_model(M))``
reproduces M bit for bit.  Loading rejects version mismatches, wrong edge
orientation, duplicate or missing vertex lines, and malformed lines, each
with its line number.

UAI MARKOV files are accepted when all variables share one cardinality and
every function scope has arity 1 or 2.  Potential tables convert to costs as
C = -log(phi), so every table entry must be strictly positive; tables on a
repeated scope multiply, i.e. their costs add.  A pairwise scope listed as
(j, i) with j > i is transposed onto the canonical (i, j) orientation.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ValidationError
from .model import Model, build_model

_NATIVE_MAGIC = "mapmp"
_NATIVE_VERSION = "v1"


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def emit_model(model: Model) -> str:
    # "%.17g" on Python floats writes the same digits as format(x, ".17g").
    d = model.d
    v_line = "v %d" + " %.17g" * d
    e_line = "e %d %d" + " %.17g" * (d * d)
    lines = [f"{_NATIVE_MAGIC} {_NATIVE_VERSION} {model.n} {model.m} {d}"]
    lines += [v_line % (i, *row) for i, row in enumerate(model.vertex_costs.tolist())]
    costs = model.edge_costs.reshape(model.m, d * d).tolist()
    lines += [e_line % (*edge, *row) for edge, row in zip(model.edges.tolist(), costs)]
    return "\n".join(lines) + "\n"


def _parse_floats(tokens, count, lineno, what):
    if len(tokens) != count:
        raise ValidationError(
            f"line {lineno}: expected {count} {what} values, got {len(tokens)}"
        )
    try:
        return list(map(float, tokens))
    except ValueError as exc:
        raise ValidationError(f"line {lineno}: bad float in {what}: {exc}") from None


def load_model(text: str) -> Model:
    lines = [
        (no, line.split())
        for no, line in enumerate(text.splitlines(), start=1)
        if line.strip()
    ]
    if not lines:
        raise ValidationError("empty model file")
    header_no, header = lines[0]
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
    records = lines[1:]
    if n > len(records):
        raise ValidationError(
            f"line {header_no}: header declares {n} vertices but the file has {len(records)} records"
        )

    # No array is sized by the header: rows are checked against d per line.
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
            vertex_rows[i] = _parse_floats(tokens[2:], d, no, "vertex cost")
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
            edge_values += _parse_floats(tokens[3:], d * d, no, "edge cost")
        else:
            raise ValidationError(f"line {no}: unknown record kind {kind!r}")
    if None in vertex_rows:
        raise ValidationError(f"missing vertex line for {vertex_rows.index(None)}")
    if len(edges) != m:
        raise ValidationError(f"header declares {m} edges but file has {len(edges)}")
    return build_model(
        n, edges, d, np.array(vertex_rows), np.array(edge_values).reshape(m, d, d)
    )


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


def parse_uai(text: str) -> Model:
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


def emit_uai(model: Model) -> str:
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
