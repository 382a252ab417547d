"""Per-iteration cost of smp and accel-smp at growing n (ROADMAP aim 1).

Run from the repository root:

    python tools/scale_ladder.py [--n 1000 5000] [--iters 20000]

For each ``--n`` it generates an Erdős–Rényi Potts instance (d=3, seed 0,
the default edge probability), builds the model's lazy index tables, and
solves it from lam = 0 at eta=1000 for ``--iters`` iterations with stride
= iters, so each solve records iterate 0 and its last iterate, and a
solver's cost per iteration includes those two records.  On the smp solve's
last iterate it then times one record pass (the pass, the slack score and
the marginals) and one projection of those marginals priced by <C, .>.
Every time but the tables' is the median of three calls.  The peak traced
memory (``tracemalloc``, MB) of building the tables, of one record pass and
of one projection each comes from one more, untimed call, the tables' on a
second copy of the instance.  It prints one JSON line per n.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time
import tracemalloc
from functools import cached_property
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from mapmp import Model, accel_smp, erdos_renyi_potts, primal_objective, proj, slack_score, standard_mp  # noqa: E402
from mapmp.model import default_edge_prob  # noqa: E402
from mapmp.objective import record_pass  # noqa: E402

ETA, D, SEED, RUNS = 1000.0, 3, 0, 3


def _timed(call, runs: int = RUNS):
    """(median seconds over ``runs`` calls of ``call()``, the last call's value)."""
    seconds = []
    for _ in range(runs):
        start = time.perf_counter()
        value = call()
        seconds.append(time.perf_counter() - start)
    return statistics.median(seconds), value


def _peak_mb(call) -> float:
    """Peak memory traced by ``tracemalloc`` during one call of ``call()``, in MB."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()


def _record(model, lam):
    value = record_pass(model, lam, ETA)
    slack_score(value.slack())
    return value.marginals()


def rung(n: int, iters: int) -> dict:
    def generate():
        return erdos_renyi_potts(n, default_edge_prob(n), D, SEED)

    generate_s, model = _timed(generate)
    tables = [name for name, attr in vars(Model).items() if isinstance(attr, cached_property)]
    tables_s, _ = _timed(lambda: [getattr(model, name) for name in tables], runs=1)  # built once
    fresh = generate()
    tables_peak_mb = _peak_mb(lambda: [getattr(fresh, name) for name in tables])
    del fresh
    smp_s, trace = _timed(lambda: standard_mp(model, "smp", ETA, iters, SEED, stride=iters))
    accel_s, _ = _timed(lambda: accel_smp(model, ETA, iters, SEED, stride=iters))
    record_s, mu = _timed(lambda: _record(model, trace.final_lambda))
    proj_s, _ = _timed(lambda: primal_objective(model, proj(model, mu)))
    record_peak_mb = _peak_mb(lambda: _record(model, trace.final_lambda))
    proj_peak_mb = _peak_mb(lambda: primal_objective(model, proj(model, mu)))
    return {"n": n, "m": model.m, "d": D, "eta": ETA, "iters": iters,
            "generate_s": generate_s, "tables_s": tables_s,
            "smp_us_per_iter": smp_s * 1e6 / iters, "accel_smp_us_per_iter": accel_s * 1e6 / iters,
            "record_ms": record_s * 1e3, "proj_ms": proj_s * 1e3, "tables_peak_mb": tables_peak_mb,
            "record_peak_mb": record_peak_mb, "proj_peak_mb": proj_peak_mb}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--n", type=int, nargs="+", default=[1000, 5000])
    parser.add_argument("--iters", type=int, default=20_000)
    args = parser.parse_args(argv)
    if args.iters < 1:
        parser.error("--iters must be at least 1")
    if min(args.n) < 2:
        parser.error("--n must be at least 2")
    for n in args.n:
        print(json.dumps(rung(n, args.iters)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
