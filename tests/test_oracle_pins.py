"""Exact answers of the exhaustive and tree oracles, tie-breaking included.

Sixty seeded models: integer-cost trees and forests and integer-cost cyclic
graphs, whose costs in {-1, 0, 1} tie often, and real-cost trees, all with
n <= 10 and d in {2, 3}.  Each pins ``brute_force_map`` (value, assignment,
``unique``), ``gap_estimate`` (value, or its message) and ``tree_map``
(value and assignment, or the cycle message).  The oracles only add and
take minima, so every float is compared with ``==`` on any host.  Models
with at most ``SMALL`` states also run at chunk sizes 13 and 17, which
split the enumeration at many places.

Regenerate the fixture only for an intended change of behaviour, and
record why:

    PYTHONPATH=src:tests python -c "import test_oracle_pins as p; p.write_fixture()"
"""

from __future__ import annotations

import json
from functools import cache
from pathlib import Path

import numpy as np
import pytest

from helpers import random_cyclic_model, random_tree_edges, random_tree_model
from mapmp import ValidationError, brute_force_map, build_model, gap_estimate, oracle, tree_map

PIN_FILE = Path(__file__).with_name("oracle_pins.json")
SMALL = 5000
CHUNKS = (13, 17)


def _integer_costs(rng, n, d, m):
    return (rng.integers(-1, 2, size=(n, d)).astype(float),
            rng.integers(-1, 2, size=(m, d, d)).astype(float))


def models() -> dict:
    """Twenty models of each family; every fourth integer tree is a forest
    of two trees."""
    built = {}
    for k in range(20):
        rng = np.random.default_rng([1, k])
        forest = k % 4 == 3
        n, d = int(rng.integers(4 if forest else 2, 11)), 2 + k % 2
        if forest:  # two trees, their vertices interleaved
            n1 = int(rng.integers(2, n - 1))
            second = [(i + n1, j + n1) for i, j in random_tree_edges(rng, n - n1)]
            perm = rng.permutation(n).tolist()
            edges = sorted(tuple(sorted((perm[i], perm[j])))
                           for i, j in random_tree_edges(rng, n1) + second)
        else:
            edges = random_tree_edges(rng, n)
        built[f"int-tree-{k}"] = build_model(n, edges, d, *_integer_costs(rng, n, d, len(edges)))
    for k in range(20):
        rng = np.random.default_rng([2, k])
        n, d = int(rng.integers(3, 9)), 2 + k % 2
        edges = random_cyclic_model(rng, n, d).edges
        built[f"int-cyclic-{k}"] = build_model(n, edges, d, *_integer_costs(rng, n, d, len(edges)))
    for k in range(20):
        rng = np.random.default_rng([3, k])
        built[f"real-tree-{k}"] = random_tree_model(rng, int(rng.integers(2, 11)), 2 + k % 2)
    return built


def _answer(oracle_fn, model):
    """The oracle's result as JSON values, or its ``ValidationError`` message."""
    try:
        result = oracle_fn(model)
    except ValidationError as err:
        return str(err)
    if isinstance(result, float):
        return result
    assert result.assignment.dtype == np.int64
    return [result.value, result.assignment.tolist(), *result[2:]]


def exhaustive_answers(model) -> dict:
    return {"brute": _answer(brute_force_map, model), "gap": _answer(gap_estimate, model)}


def capture() -> dict:
    return {name: {**exhaustive_answers(model), "tree": _answer(tree_map, model)}
            for name, model in models().items()}


def write_fixture() -> None:
    lines = [f" {json.dumps(name)}: {json.dumps(value)}" for name, value in capture().items()]
    PIN_FILE.write_text("{\n" + ",\n".join(lines) + "}\n")


@cache
def pins() -> dict:
    return json.loads(PIN_FILE.read_text())


MODELS = models()


def test_fixture_covers_every_family():
    assert sorted(pins()) == sorted(MODELS)
    answers = pins().values()
    assert sum(not a["brute"][2] for a in answers) >= 10  # tied optima
    assert sum(isinstance(a["tree"], str) for a in answers) == 20  # cycles
    assert sum(m.m < m.n - 1 for m in MODELS.values()) == 5  # forests
    assert max(m.n for m in MODELS.values()) == 10


@pytest.mark.parametrize("name", sorted(MODELS))
def test_oracle_answers_pinned(name, monkeypatch):
    model, pinned = MODELS[name], pins()[name]
    assert _answer(tree_map, model) == pinned["tree"]
    assert exhaustive_answers(model) == {"brute": pinned["brute"], "gap": pinned["gap"]}
    if model.d**model.n <= SMALL:
        for chunk in CHUNKS:
            monkeypatch.setattr(oracle, "_CHUNK", chunk)
            answers = exhaustive_answers(model)
            assert answers == {"brute": pinned["brute"], "gap": pinned["gap"]}, chunk
