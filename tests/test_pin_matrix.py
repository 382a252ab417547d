"""Cross-version pin matrix: six algorithms x four models x strides {1, 7,
iters} x stop rule off and on, held across versions and hosts.

The models cover ER d=3, ER d=9 (d >= 8: slot-1 rows summed by
``np.add.accumulate``), a d=5 tree, and a triangle-and-path model whose
degree-1 leaves sit in slot 0 and slot 1 and whose costs hold -0.0 and
+0.0.  Each run pins its record grid, stop iteration and the rounded labels
``vertex_round(proj(mu))`` of every record exactly; its float output (dual
values, slack scores and the returned final iterate) by sha256 on a host
with the pins' numerics signature, and to a relative 1e-9 elsewhere
(``pins.py``).  The stop rule's threshold is the
stride-1 run's slack score at iteration ``ITERS // 2``.

The matrix also pins the metrics, summary and ratio CSVs of ``run_bench``
in ratio mode for emp, smp and bcd at trials 1, 2 and 10 (``BENCH``), and
of ``BENCH_VARIANTS``: accel-emp alone at trials 1 and 3, and a ratio run
past the LP guard, whose gap columns are empty and which has no ratio rows.
They are pinned the same way: sha256 or, elsewhere, exact integer columns
and float columns to a relative 1e-9.

Regenerate the fixture only for an intended change of behaviour, and
record why:

    PYTHONPATH=src:tests python -c "import test_pin_matrix as p; p.write_fixture()"
"""

from __future__ import annotations

import hashlib
import json
import platform
import tempfile
from pathlib import Path

import numpy as np
import pytest
import scipy

import pins
from helpers import random_tree_model
from mapmp import build_model, erdos_renyi_potts, proj, vertex_round
from mapmp.bench import ALGORITHMS, BenchConfig, metrics_csv, ratio_csv, run_bench, solve, summary_csv
from mapmp.cli import main

ITERS = 30
STRIDES = (1, 7, ITERS)
SEED = 11
ETAS = {"er-d3": 20.0, "er-d9": 6.0, "tree-d5": 10.0, "leaves-signed-zero": 30.0}
BENCH = {"eta": 20.0, "iters": 40, "seed": 5, "stride": 8, "n": 8, "d": 3, "edge_prob": 0.4}
BENCH_CASES = [(alg, trials) for alg in ("emp", "smp", "bcd") for trials in (1, 2, 10)]
# BENCH with these overrides; n=200 at the default edge probability is past the LP guard.
BENCH_VARIANTS = {
    "accel-emp/trials=1/alone": {"algorithm": "accel-emp", "trials": 1},
    "accel-emp/trials=3/alone": {"algorithm": "accel-emp", "trials": 3},
    "smp/trials=2/past-lp-guard": {"algorithm": "smp", "ratio": True, "trials": 2, "n": 200,
                                   "edge_prob": None},
}


def _leaves_model():
    """A triangle (1, 2, 3) with leaf 0 in slot 0 of (0, 2) and leaf 4 in
    slot 1 of (3, 4); Potts costs of alternating sign with signed-zero
    off-diagonals and signed-zero vertex costs."""
    d = 3
    edges = [(0, 2), (1, 2), (1, 3), (2, 3), (3, 4)]
    sign = np.array([1.0, -1.0, 1.0, -1.0, 1.0])[:, None, None]
    ec = np.where(np.eye(d, dtype=bool), -1.0, 0.0) * sign
    vc = np.array([[-0.0, 0.0, 0.25], [0.0, -0.0, -0.5], [0.1, -0.0, 0.0],
                   [-0.0, -0.0, 0.3], [0.0, 0.2, -0.0]])
    return build_model(5, edges, d, vc, ec)


def models() -> dict:
    return {
        "er-d3": erdos_renyi_potts(8, 0.4, 3, 1),
        "er-d9": erdos_renyi_potts(5, 0.5, 9, 2),
        "tree-d5": random_tree_model(np.random.default_rng(3), 7, 5),
        "leaves-signed-zero": _leaves_model(),
    }


def run(model, alg, eta, stride, stop) -> dict:
    labels = []

    def observe(k, lam, mu):
        labels.append("".join(map(str, vertex_round(proj(model, mu)).tolist())))

    trace = solve(alg, model, eta, ITERS, SEED, stride=stride, stop_slack_score=stop, observer=observe)
    floats = {
        "dual_values": trace.dual_values,
        "slack_scores": trace.slack_scores,
        "final_lambda": trace.final_lambda.ravel(),
    }
    last = int(trace.iterations[-1])
    return {
        "iterations": trace.iterations.tolist(),
        "stop_iteration": last if stop is not None and last < ITERS else None,
        "labels": labels,
        "sha256": pins.digest(floats.values()),
        "floats": _rounded(floats),
    }


def _rounded(floats: dict) -> dict:
    """The fallback's values: 12 significant digits, far below ``pins.REL``."""
    return {key: [float(f"{x:.12g}") for x in np.ravel(value).tolist()]
            for key, value in floats.items()}


def _cases():
    for name in ETAS:
        for alg in ALGORITHMS:
            for stop in (False, True):
                for stride in STRIDES:
                    yield name, alg, stride, stop


def _key(name, alg, stride, stop) -> str:
    return f"{name}/{alg}/stride={stride}/stop={'on' if stop else 'off'}"


def capture() -> dict:
    built, thresholds, runs = models(), {}, {}
    for name, alg, stride, stop in _cases():
        threshold = None
        if stop:
            if (name, alg) not in thresholds:
                scores = runs[_key(name, alg, 1, False)]["floats"]["slack_scores"]
                thresholds[name, alg] = scores[ITERS // 2]
            threshold = thresholds[name, alg]
        runs[_key(name, alg, stride, stop)] = dict(
            run(built[name], alg, ETAS[name], stride, threshold), stop_threshold=threshold)
    return runs


def bench_pin(key) -> tuple:
    """The bytes of the three CSVs of the ``run_bench`` pinned under ``key``,
    and their integer and float columns."""
    from test_bench import csv_parts

    result = run_bench(BenchConfig(**_bench_configs()[key]))
    texts = {"metrics": metrics_csv(result), "summary": summary_csv(result),
             "ratio": ratio_csv(result)}
    ints, floats = {}, {}
    for kind, text in texts.items():
        parts = csv_parts(text)
        ints.update({f"{kind}.{key}": cells for key, cells in parts[0].items()})
        floats.update({f"{kind}.{key}": cells for key, cells in parts[1].items()})
    return "".join(texts.values()).encode(), ints, floats


def _bench_key(alg, trials) -> str:
    return f"{alg}/trials={trials}"


def _bench_configs() -> dict:
    """Per pinned ``run_bench``, its ``BenchConfig`` arguments."""
    configs = {_bench_key(alg, trials): dict(BENCH, algorithm=alg, ratio=True, trials=trials)
               for alg, trials in BENCH_CASES}
    configs.update({key: dict(BENCH, **overrides) for key, overrides in BENCH_VARIANTS.items()})
    return configs


def capture_digest_values() -> dict:
    """The integer and float parts of the bytes behind the host-bound
    digests of ``test_schedulers``, ``test_bench`` and the ``run_bench``
    CSVs, for the fallback."""
    import test_bench
    import test_schedulers

    values = {}
    for key in _bench_configs():
        ints, floats = bench_pin(key)[1:]
        values[f"bench-{key}"] = {"ints": ints, "floats": floats}
    for name in test_schedulers.TRACE_PINS:
        ints, floats = test_schedulers.trace_pin(name)[2:]
        values[f"trace-{name}"] = {"ints": ints, "floats": floats}
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "m.csv"
        assert main(test_bench.EPSILON_ARGV + ["--out", str(out)]) == 0
        ints, floats = test_bench.csv_parts(out.read_text())
    values["bench-epsilon-csv"] = {"ints": ints, "floats": floats}
    return {name: {"ints": v["ints"], "floats": _rounded(v["floats"])}
            for name, v in values.items()}


def write_fixture() -> None:
    """Write ``pin_matrix.json``: the header, every run of the matrix, the
    digests of the ``run_bench`` CSVs, and the fallback values of the
    host-bound digests."""
    digest_values = capture_digest_values()
    header = {
        "signature": pins.numerics_signature(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "python": platform.python_version(),
        "iters": ITERS,
        "strides": list(STRIDES),
        "seed": SEED,
        "etas": ETAS,
        "bench": BENCH,
    }
    bench = {key: hashlib.sha256(bench_pin(key)[0]).hexdigest() for key in _bench_configs()}
    lines = [f" {json.dumps(key)}: {json.dumps(value)}" for key, value in capture().items()]
    values = [f" {json.dumps(key)}: {json.dumps(value)}" for key, value in digest_values.items()]
    pins.PIN_FILE.write_text(
        f'{{"header": {json.dumps(header)},\n"runs": {{\n' + ",\n".join(lines)
        + f'}},\n"bench": {json.dumps(bench)}'
        + ',\n"digest_values": {\n' + ",\n".join(values) + "}}\n")


@pytest.fixture(scope="module")
def built():
    return models()


def test_header_matches_matrix():
    header = pins.pins()["header"]
    assert (header["iters"], header["strides"], header["seed"], header["etas"]) == (
        ITERS, list(STRIDES), SEED, ETAS)
    assert sorted(pins.pins()["runs"]) == sorted(_key(*case) for case in _cases())
    assert header["bench"] == BENCH
    assert sorted(pins.pins()["bench"]) == sorted(_bench_configs())


@pytest.mark.parametrize("name", list(ETAS))
@pytest.mark.parametrize("alg", ALGORITHMS)
def test_pin_matrix(built, name, alg):
    for stop in (False, True):
        for stride in STRIDES:
            where = f"{_key(name, alg, stride, stop)} ({pins.mode()})"
            old = pins.pins()["runs"][_key(name, alg, stride, stop)]
            new = run(built[name], alg, ETAS[name], stride, old["stop_threshold"])
            for key in ("iterations", "stop_iteration", "labels"):
                assert new[key] == old[key], f"{where}: {key}"
            if pins.exact():
                assert new["sha256"] == old["sha256"], where
            else:
                pins.assert_close(new["floats"], old["floats"], where)


@pytest.mark.parametrize(("alg", "trials"), BENCH_CASES)
def test_run_bench_csvs_pinned(alg, trials):
    _assert_bench_pinned(_bench_key(alg, trials))


@pytest.mark.parametrize("key", BENCH_VARIANTS)
def test_run_bench_variant_csvs_pinned(key):
    _assert_bench_pinned(key)


def _assert_bench_pinned(key) -> None:
    data, ints, floats = bench_pin(key)
    pins.assert_pinned(pins.pins()["bench"][key], data, f"bench-{key}", ints, floats)


def test_stop_rule_fires_in_the_matrix():
    # the stop-on runs exercise the rule: most stop before the end
    runs = pins.pins()["runs"].values()
    stopped = [r for r in runs if r["stop_iteration"] is not None]
    assert len(stopped) >= len(runs) // 4
