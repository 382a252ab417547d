"""The three benchmark workloads and the bindings a run instruments.

Each workload builds its inputs from the seed (``setup``), runs a timed phase
that calls the package's public functions (``run``) and then checks every
solve (``check``).  Work is sized from the run length with fixed per-unit
estimates, never from a measurement, so a given (seed, seconds) pair always
does the same work and every call count repeats exactly.

Why each workload exists:

* ``headline`` is the paper protocol through ``run_bench`` (smp with its
  accelerated pair, n=100, d=3, eta=1000, 5000 iterations, a record every
  50).  About half its time is recording: the bench observer's
  ``recover_primal`` + ``proj`` and the recorder's ``dual_and_slack``.
* ``large_sparse`` is one n=5000 instance (m about 23.5k) solved by all six
  algorithms with no records in between.  Per-iteration O(m) work dominates;
  recording, projection and the LP oracle are absent.
* ``tree_eps`` is a family of 8-vertex trees (m=7) solved by long accel-emp
  runs at the eta that makes the smoothed problem 0.2-faithful.  Fixed
  per-call Python overhead is nearly all of its cost.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

import mapmp
from checks import gate, same_model, sha256
from reference import PERIOD_S, Probe, slowdown
from tracer import Tracer

STANDARD = ("emp", "smp", "bcd")
ACCELERATED = {"accel-emp": "accel_emp", "accel-smp": "accel_smp", "accel-bcd": "accel_block_grad"}
ALGORITHMS = STANDARD + tuple(ACCELERATED)
# The updates of which each iteration calls exactly one.
MARKED = ("emp_update", "smp_update", "block_grad_step")
UPDATES = MARKED + ("block_slack", "star_slack")


def solve(alg, model, eta, iters, seed, stride):
    """Run one solver through the ``mapmp.schedulers`` bindings, so that a
    traced run sees the call."""
    s = mapmp.schedulers
    if alg in STANDARD:
        return s.standard_mp(model, alg, eta, iters, seed, stride=stride)
    return getattr(s, ACCELERATED[alg])(model, eta, iters, seed, stride=stride)


def _solver_name(fn_name):
    if fn_name == "standard_mp":
        return lambda model, kind, *rest: kind
    alg = next(a for a, f in ACCELERATED.items() if f == fn_name)
    return lambda *args: alg


@dataclass
class Solve:
    """One captured solve: its algorithm and trace, the update calls it made
    (one per iteration), its wall time less the probe's (``busy_s``) and
    the probe samples taken during it."""

    alg: str
    trace: object
    calls: int = 0
    busy_s: float = 0.0
    samples: list = field(default_factory=list)


class Capture:
    """Solver and update wrappers installed in every timed phase.

    Every solve is kept.  The update each iteration calls (``emp_update``,
    ``smp_update`` or ``block_grad_step``) is wrapped to count the calls and,
    at the first call of a solve and then every ``PERIOD_S`` of wall time,
    to sample the probe first; a traced run spans the probe as
    ``reference``.
    """

    def __init__(self, tracer: Tracer | None = None):
        self.tracer = tracer
        self.probe = Probe()
        self._sample = self.probe.sample if tracer is None else tracer.wrap("reference", self.probe.sample)
        self.solves: list[Solve] = []
        self._current = Solve("", None)
        self._last = -math.inf

    def update(self, fn):
        def marked(*args, **kwargs):
            self._current.calls += 1
            if time.perf_counter() - self._last >= PERIOD_S:
                self._sample()
                self._last = time.perf_counter()
            return fn(*args, **kwargs)

        return marked

    def solver(self, fn_name, fn, observed: bool):
        """``observed``: span the observer as the bench's (headline only)."""
        name_of = _solver_name(fn_name)
        tracer = self.tracer

        def solver(*args, observer=None, **kwargs):
            run = fn
            if tracer is not None:
                run = tracer.wrap(lambda *a: f"schedulers.{name_of(*a)}", fn)
                if observed and observer is not None:
                    observer = tracer.wrap("bench.observer", observer)
            current = self._current = Solve(name_of(*args), None)
            self._last = -math.inf
            first, spent = len(self.probe.samples), self.probe.spent_s
            start = time.perf_counter()
            current.trace = run(*args, observer=observer, **kwargs)
            current.busy_s = time.perf_counter() - start - (self.probe.spent_s - spent)
            current.samples = self.probe.samples[first:]
            self.solves.append(current)
            return current.trace

        return solver


def full_speed_run_s(busy_s: float, solves, samples) -> float:
    """Duration of a timed phase at the host's full speed.

    ``busy_s`` is the phase's wall time less the probe's.  Each solve's
    ``busy_s`` is divided by the slowdown its own probe samples show, so a
    slow stretch that covers one solve is corrected by what was measured
    during it; the rest of the phase (outside any solve) by the slowdown of
    all ``samples``.
    """
    inside = sum(s.busy_s for s in solves)
    return sum(s.busy_s / slowdown(s.samples) for s in solves) + (busy_s - inside) / slowdown(samples)


def miscounted(solves) -> list[str]:
    """Solves that did not make one wrapped update call per iteration.  The
    probe is sampled in that call, so without it ``full_speed_run_s`` would
    not measure what it claims."""
    return [
        f"solve {k} ({s.alg}): {s.calls} update calls for {int(s.trace.iterations[-1])} iterations"
        for k, s in enumerate(solves)
        if s.calls != int(s.trace.iterations[-1])
    ]


def instrument(capture: Capture):
    """Bindings to replace for one timed phase: the capture wrappers always,
    and with a tracer a span (or, for the per-edge rounding, a counter) at
    every layer boundary."""
    s, b = mapmp.schedulers, mapmp.bench
    tracer = capture.tracer
    out = []
    for fn_name in ("standard_mp",) + tuple(ACCELERATED.values()):
        for module in (s, b):
            out.append((module, fn_name, capture.solver(fn_name, getattr(module, fn_name), module is b)))
    spans = [] if tracer is None else [
        (s, "block_slack", "updates.block_slack"),
        (s, "star_slack", "updates.star_slack"),
        (mapmp.updates, "block_slack", "updates.block_slack"),
        (s, "dual_and_slack", "objective.dual_and_slack"),
        (b, "recover_primal", "objective.recover_primal"),
        (b, "primal_objective", "objective.primal_objective"),
        (b, "proj", "projection.proj"),
        (b, "run_bench", "bench.run_bench"),
        (b, "erdos_renyi_potts", "model.erdos_renyi_potts"),
        (mapmp.model, "erdos_renyi_potts", "model.erdos_renyi_potts"),
        (mapmp.model, "build_model", "model.build_model"),
        (mapmp.formats, "build_model", "model.build_model"),
        (mapmp.formats, "emit_model", "formats.emit_model"),
        (mapmp.formats, "load_model", "formats.load_model"),
        (mapmp.oracle, "lp_solve_l2", "oracle.lp_solve_l2"),
        (mapmp.oracle, "tree_map", "oracle.tree_map"),
    ]
    out += [(m, f, tracer.wrap(name, getattr(m, f))) for m, f, name in spans]
    for fn_name in MARKED:
        fn = getattr(s, fn_name)
        if tracer is not None:
            fn = tracer.wrap(f"updates.{fn_name}", fn)
        out.append((s, fn_name, capture.update(fn)))
    if tracer is not None:
        rtt = mapmp.projection
        out.append((rtt, "round_to_transport", tracer.count("projection.round_to_transport", rtt.round_to_transport)))
    return out


@dataclass
class Instance:
    model: object
    seed: int
    text_bytes: int
    round_trip_ok: bool
    lp: float | None = None
    tree_map: float | None = None


@dataclass
class Report:
    """What ``check`` found: per-solve verdicts, failures not tied to one
    solve, quality metrics, fingerprints and report lines."""

    verdicts: list = field(default_factory=list)
    failures: list = field(default_factory=list)
    quality: dict = field(default_factory=dict)
    fingerprints: list = field(default_factory=list)


def _round_trip(model, seed) -> Instance:
    text = mapmp.formats.emit_model(model)
    loaded = mapmp.formats.load_model(text)
    return Instance(loaded, seed, len(text), same_model(model, loaded))


def _lp(model) -> float:
    return mapmp.oracle.lp_solve_l2(model).value


def _sparse_edge_prob(n: int) -> float:
    return 1.1 * math.log(n) / n


def _gate_solves(report, solves, instances_of, eta_of):
    for k, solve in enumerate(solves):
        alg, trace = solve.alg, solve.trace
        inst = instances_of(k)
        verdict = gate(inst.model, trace.final_lambda, eta_of(inst), inst.lp)
        report.verdicts.append((alg, verdict))
        report.fingerprints.append((f"lambda[{k}:{alg}]", sha256(trace.final_lambda)))
        if verdict.dual != trace.dual_values[-1]:
            report.failures.append(f"solve {k}: final dual {verdict.dual} != recorded {trace.dual_values[-1]}")
    report.quality["certified_gap"] = _mean([v.certified_gap for _, v in report.verdicts])


def _mean(values):
    return float(np.mean(values)) if values else math.nan


def _final_gaps(report, instances_of):
    """<C, Proj mu(lam_final)> - LP* per solve."""
    return [v.primal - instances_of(k).lp for k, (_, v) in enumerate(report.verdicts)]


class Headline:
    name = "headline"
    N, D, ETA, ITERS, STRIDE = 100, 3, 1000.0, 5000, 50
    UNIT_S = 5.0  # one instance, one smp / accel-smp trial pair
    SETUP_REPEATS = 9  # set-up takes about 0.05 s per instance

    def __init__(self, seed: int, seconds: float):
        count = max(1, round(seconds / self.UNIT_S))
        self.seeds = [seed * 1000 + k for k in range(count)]

    def iterations(self) -> int:
        return 2 * self.ITERS * len(self.seeds)

    def setup(self):
        out = []
        for s in self.seeds:
            model = mapmp.model.erdos_renyi_potts(self.N, _sparse_edge_prob(self.N), self.D, s)
            inst = _round_trip(model, s)
            inst.lp = _lp(inst.model)
            out.append(inst)
        return out

    def config(self, inst):
        return mapmp.BenchConfig(
            algorithm="smp", ratio=True, eta=self.ETA, iters=self.ITERS, trials=1,
            seed=inst.seed, stride=self.STRIDE, n=self.N, d=self.D, opt_value=inst.lp,
        )

    def run(self, instances):
        return [mapmp.bench.run_bench(self.config(inst)) for inst in instances]

    def check(self, instances, results, solves) -> Report:
        report = Report()
        per_instance = len(solves) // max(1, len(instances))
        _gate_solves(report, solves, lambda k: instances[k // per_instance], lambda i: self.ETA)
        records = self.ITERS // self.STRIDE + 1
        ratios = []
        for idx, (inst, result) in enumerate(zip(instances, results)):
            csv = mapmp.bench.metrics_csv(result)
            report.fingerprints.append((f"metrics_csv[{idx}]", sha256(csv)))
            if not same_model(result.model, inst.model):
                report.failures.append(f"instance {idx}: run_bench built another instance")
            if mapmp.bench.parse_metrics_csv(csv) != result.rows:
                report.failures.append(f"instance {idx}: metrics CSV does not round-trip")
            if len(result.ratio_rows) != records or len(result.rows) != 2 * records:
                report.failures.append(f"instance {idx}: unexpected record grid")
            for pos, alg in enumerate(("smp", "accel-smp")):
                last = result.rows[(pos + 1) * records - 1]
                _, verdict = report.verdicts[idx * per_instance + pos]
                if (last.algorithm, last.iteration) != (alg, self.ITERS) or (
                    last.projected_primal != verdict.primal or last.dual_value != verdict.dual
                ):
                    report.failures.append(f"instance {idx}: {alg} final record disagrees with its solve")
            if result.ratio_rows and result.ratio_rows[-1].log_ratio_mean is not None:
                ratios.append(result.ratio_rows[-1].log_ratio_mean)
        final = _final_gaps(report, lambda k: instances[k // per_instance])
        report.quality["final_gap"] = _mean(final)
        report.quality["log_ratio_final"] = _mean(ratios)
        return report


class LargeSparse:
    name = "large_sparse"
    N, D, ETA = 5000, 3, 1000.0
    ITERS_PER_S = 470.0  # of each of the six solvers: about 2.1 ms per round
    SETUP_REPEATS = 3  # set-up takes about 8 s

    def __init__(self, seed: int, seconds: float):
        self.seed = seed
        self.iters = max(100, round(seconds * self.ITERS_PER_S / 100) * 100)

    def iterations(self) -> int:
        return self.iters * len(ALGORITHMS)

    def setup(self):
        model = mapmp.model.erdos_renyi_potts(self.N, _sparse_edge_prob(self.N), self.D, self.seed)
        return [_round_trip(model, self.seed)]

    def run(self, instances):
        model = instances[0].model
        for k, alg in enumerate(ALGORITHMS):
            solve(alg, model, self.ETA, self.iters, np.random.SeedSequence([self.seed, k]), self.iters)
        return []

    def check(self, instances, results, solves) -> Report:
        report = Report()
        _gate_solves(report, solves, lambda k: instances[0], lambda i: self.ETA)
        return report


class TreeEps:
    name = "tree_eps"
    N, D, EPS, ITERS, STRIDE = 8, 3, 0.2, 20_000, 2000
    UNIT_S = 2.5  # one 20k-iteration accel-emp solve
    SETUP_REPEATS = 25  # set-up takes about 4 ms per tree

    def __init__(self, seed: int, seconds: float):
        self.seed = seed
        self.count = max(1, round(seconds / self.UNIT_S))

    def iterations(self) -> int:
        return self.ITERS * self.count

    def eta(self, inst) -> float:
        m = inst.model
        return mapmp.eta_for_epsilon(m.m, m.n, m.d, self.EPS)

    def setup(self):
        out = []
        for k in range(self.count):
            rng = np.random.default_rng([self.seed, k])
            edges = [(int(rng.integers(v)), v) for v in range(1, self.N)]
            vc = rng.uniform(-0.01, 0.01, size=(self.N, self.D))
            ec = np.where(rng.random((len(edges), self.D, self.D)) < 0.5, -1.0, 1.0)
            model = mapmp.model.build_model(self.N, edges, self.D, vc, ec)
            inst = _round_trip(model, k)
            inst.lp = _lp(inst.model)
            inst.tree_map = mapmp.oracle.tree_map(inst.model).value
            out.append(inst)
        return out

    def run(self, instances):
        for inst in instances:
            seed = np.random.SeedSequence([self.seed, inst.seed, 1])
            mapmp.schedulers.accel_emp(inst.model, self.eta(inst), self.ITERS, seed, stride=self.STRIDE)
        return []

    def check(self, instances, results, solves) -> Report:
        report = Report()
        _gate_solves(report, solves, lambda k: instances[k], self.eta)
        for k, inst in enumerate(instances):
            # The local polytope is tight on trees, so LP* equals the tree MAP.
            if abs(inst.tree_map - inst.lp) > 1e-6 * (1.0 + abs(inst.lp)):
                report.failures.append(f"tree {k}: tree_map {inst.tree_map} != LP* {inst.lp}")
        final = _final_gaps(report, lambda k: instances[k])
        report.quality["final_gap"] = _mean(final)
        report.quality["within_eps_frac"] = _mean([float(g <= self.EPS) for g in final])
        return report


WORKLOADS = {w.name: w for w in (Headline, LargeSparse, TreeEps)}
