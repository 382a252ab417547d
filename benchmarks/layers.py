"""Per-layer metrics of a traced run, named ``<module>.<function>.<stat>``
after the package module whose binding was wrapped.  Every name is reported
by every workload; a layer a workload never calls reads 0."""

from __future__ import annotations

from tracer import child_seconds
from workloads import ALGORITHMS, UPDATES

TIMED = ("objective.dual_and_slack", "objective.recover_primal", "objective.primal_objective",
         "oracle.lp_solve_l2", "oracle.tree_map")
SECONDS_ONLY = ("bench.run_bench", "bench.observer", "model.erdos_renyi_potts",
                "model.build_model", "formats.emit_model", "formats.load_model")


def layer_metrics(tracer, solves, instances, run_s: float, traced_run_s: float) -> dict:
    """``solves`` are the captured solves of the traced phase; ``run_s``
    and ``traced_run_s`` time the plain and the traced timed phase."""
    stats = tracer.stats()
    probe_s = child_seconds(tracer.spans, "reference")

    def get(name):
        entry = stats.get(name)
        return (entry.calls, entry.total_s, entry.self_s) if entry else (0, 0.0, 0.0)

    out = {}
    calls, total, _ = get("projection.proj")
    out["projection.proj.calls"] = (calls, "count")
    out["projection.proj.s"] = (total, "s")
    out["projection.proj.us_per_call"] = (1e6 * total / calls if calls else 0.0, "us")
    out["projection.round_to_transport.calls"] = (tracer.counts["projection.round_to_transport"], "count")
    for name in TIMED:
        calls, total, _ = get(name)
        out[f"{name}.calls"] = (calls, "count")
        out[f"{name}.s"] = (total, "s")
    for name in SECONDS_ONLY:
        out[f"{name}.s"] = (get(name)[1], "s")
    bench_s = get("bench.run_bench")[1]
    out["bench.instrumentation_share"] = (get("bench.observer")[1] / bench_s if bench_s else 0.0, "ratio")
    for alg in ALGORITHMS:
        iters = sum(int(s.trace.iterations[-1]) for s in solves if s.alg == alg)
        _, total, self_s = get(f"schedulers.{alg}")
        total -= probe_s.get(f"schedulers.{alg}", 0.0)
        out[f"schedulers.{alg}.us_per_iter"] = (1e6 * total / iters if iters else 0.0, "us")
        out[f"schedulers.{alg}.self_us_per_iter"] = (1e6 * self_s / iters if iters else 0.0, "us")
    out["schedulers.records"] = (sum(len(s.trace.iterations) for s in solves), "count")
    out["schedulers.iters"] = (sum(int(s.trace.iterations[-1]) for s in solves), "count")
    for fn in UPDATES:
        calls, total, _ = get(f"updates.{fn}")
        out[f"updates.{fn}.calls"] = (calls, "count")
        out[f"updates.{fn}.us_per_call"] = (1e6 * total / calls if calls else 0.0, "us")
    out["formats.bytes"] = (sum(inst.text_bytes for inst in instances), "B")
    out["trace.plain_run_s"] = (run_s, "s")
    out["trace.traced_run_s"] = (traced_run_s, "s")
    out["trace.overhead_s"] = (traced_run_s - run_s, "s")
    return out
