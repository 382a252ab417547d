"""Golden pin of the benchmark protocol, held across versions.

``golden_run_bench.json`` holds one ``run_bench`` configuration (n=20, d=3,
eta=50, 500 iterations, a record every 50, 2 trials) in ratio mode for emp,
smp and bcd, which covers all six algorithms.  Every version must reproduce
the record grid and the rounded labels ``vertex_round(proj(recover_primal(lam)))``
at each record exactly, and the dual value, projected primal value and slack
score to a relative 1e-9.  A rerun of the same code cannot catch a refactor
that drifts; this fixture can.

The labels are captured by an observer on direct solves seeded like the
bench trials, ``SeedSequence([seed, algorithm_index, trial])``.  Regenerate
the fixture only for an intended change of behaviour, and record why:

    PYTHONPATH=src:tests python -c "import test_golden as g; g.write_fixture()"
"""

import json
from pathlib import Path

import numpy as np

import mapmp
from mapmp.bench import ALGORITHMS, RATIO_PAIR, solve

FIXTURE = Path(__file__).with_name("golden_run_bench.json")
CONFIG = dict(n=20, d=3, eta=50.0, iters=500, stride=50, trials=2, seed=0)
REL = 1e-9


def _labels(model, alg, trial):
    """Rounded labels of the projected candidate at every record, as digit
    strings."""
    out = []

    def observe(k, lam, mu):
        mu = mapmp.proj(model, mapmp.recover_primal(model, lam, CONFIG["eta"]))
        out.append("".join(str(x) for x in mapmp.vertex_round(mu)))

    seed = np.random.SeedSequence([CONFIG["seed"], ALGORITHMS.index(alg), trial])
    solve(alg, model, CONFIG["eta"], CONFIG["iters"], seed, stride=CONFIG["stride"], observer=observe)
    return out


def capture():
    runs = []
    for standard in RATIO_PAIR:
        result = mapmp.run_bench(mapmp.BenchConfig(algorithm=standard, ratio=True, **CONFIG))
        for alg in (standard, RATIO_PAIR[standard]):
            for trial in range(CONFIG["trials"]):
                rows = [r for r in result.rows if (r.algorithm, r.trial) == (alg, trial)]
                runs.append({
                    "algorithm": alg,
                    "trial": trial,
                    "iterations": [r.iteration for r in rows],
                    "labels": _labels(result.model, alg, trial),
                    "dual_value": [r.dual_value for r in rows],
                    "projected_primal": [r.projected_primal for r in rows],
                    "slack_score": [r.slack_score for r in rows],
                })
    return {"config": CONFIG, "runs": runs}


def write_fixture():
    FIXTURE.write_text(json.dumps(capture(), indent=1) + "\n")


def test_golden_run_bench_trajectories():
    golden = json.loads(FIXTURE.read_text())
    assert golden["config"] == CONFIG
    got = capture()["runs"]
    assert [(r["algorithm"], r["trial"]) for r in got] == [
        (r["algorithm"], r["trial"]) for r in golden["runs"]
    ]
    assert {r["algorithm"] for r in got} == set(ALGORITHMS)
    for new, old in zip(got, golden["runs"]):
        where = f"{old['algorithm']} trial {old['trial']}"
        assert new["iterations"] == old["iterations"], where
        assert new["labels"] == old["labels"], where
        for key in ("dual_value", "projected_primal", "slack_score"):
            np.testing.assert_allclose(new[key], old[key], rtol=REL, atol=0, err_msg=f"{where}: {key}")
