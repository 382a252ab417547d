"""mapmp benchmark: one workload per process, every metric by name and unit.

Run from the repository root:

    python3 benchmarks/run.py --workload headline --seed 0 --seconds 12 --trace 0

It builds the workload's inputs from the seed, times the phase that calls
the package, checks every solve, and prints report lines followed by one
JSON object as the last line of standard output.  ``--trace 0`` reports
the end-to-end metrics; ``--trace 1`` reports the per-layer metrics of a
traced run, together with the tracing overhead.  See benchmarks/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or not args.seconds > 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def _import_package(root: Path):
    """Import mapmp from ``root/src`` and nowhere else."""
    src = root / "src"
    if not (src / "mapmp" / "__init__.py").is_file():
        raise SystemExit(f"benchmark: no package at {src / 'mapmp'}; run from the repository root")
    sys.path[:0] = [str(src), str(HERE)]
    import mapmp

    if Path(mapmp.__file__).resolve().parent != (src / "mapmp").resolve():
        raise SystemExit(f"benchmark: mapmp was imported from {mapmp.__file__}, not {src}")
    return mapmp


def _git_sha(root: Path):
    """HEAD of a git checkout, read from the files; None elsewhere."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _cache_sizes():
    caches = {}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(base.glob("index*")):
        try:
            level, kind, size = ((index / f).read_text().strip() for f in ("level", "type", "size"))
        except OSError:
            continue
        caches[f"L{level}{'' if kind == 'Unified' else kind[0].lower()}"] = size
    return caches


def header(root: Path, mapmp, checks) -> dict:
    import numpy
    import scipy

    src = sorted((root / "src" / "mapmp").glob("*.py"))
    return {
        "git_sha": _git_sha(root),
        "src_sha256": checks.sha256(b"".join(p.name.encode() + p.read_bytes() for p in src)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "mapmp": mapmp.__version__,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "threads": {k: os.environ.get(k) for k in THREAD_VARS},
        "caches": _cache_sizes(),
    }


def timed(fn, *args):
    start = time.perf_counter()
    out = fn(*args)
    return out, time.perf_counter() - start


def execute(workload, trace: bool):
    """Set up, run the timed phase (twice when traced: plain, then traced)
    and check.  Returns (metrics, correct, attempted, failed, lines)."""
    from reference import slowdown
    from tracer import Tracer, patched
    from workloads import Capture, full_speed_run_s, instrument, miscounted

    tracer = Tracer() if trace else None
    setup_times = []
    for _ in range(1 if trace else workload.SETUP_REPEATS):
        with patched(instrument(Capture(tracer)) if trace else []):
            instances, seconds = timed(workload.setup)
        setup_times.append(seconds)
    lines = [f"set-up: {setup_times!r} s"]
    failures = [f"instance {k}: model file round trip changed the model"
                for k, inst in enumerate(instances) if not inst.round_trip_ok]

    def phase(with_tracer):
        """Timed phase; returns its results, its solves, and its duration
        at the host's full speed."""
        capture = Capture(with_tracer)
        with patched(instrument(capture)):
            results, wall_s = timed(workload.run, instances)
        probe = capture.probe
        run_s = full_speed_run_s(wall_s - probe.spent_s, capture.solves, probe.samples)
        lines.append(
            f"timed phase{' (traced)' if with_tracer else ''}: wall {wall_s!r} s, "
            f"probe {probe.spent_s!r} s in {len(probe.samples)} samples, "
            f"host slowdown {slowdown(probe.samples)!r}, run_s {run_s!r} s"
        )
        failures.extend(miscounted(capture.solves))
        return results, capture.solves, run_s

    results, solves, run_s = phase(None)
    if trace:
        results, traced_solves, traced_run_s = phase(tracer)
        if [s.trace.final_lambda.tobytes() for s in traced_solves] != [
            s.trace.final_lambda.tobytes() for s in solves
        ]:
            failures.append("the traced run returned other iterates than the plain run")
        solves = traced_solves

    report = workload.check(instances, results, solves)
    failures += report.failures
    failed = sum(1 for _, v in report.verdicts if v.failures)
    attempted = len(report.verdicts)
    for k, (alg, verdict) in enumerate(report.verdicts):
        lines += [f"FAIL solve {k} ({alg}): {msg}" for msg in verdict.failures]
    lines += [f"FAIL {msg}" for msg in failures]
    lines += [f"fingerprint {name} sha256={digest}" for name, digest in report.fingerprints]
    quality = dict(report.quality, failed_frac=failed / attempted if attempted else 1.0)
    lines += [f"quality {name} = {value!r}" for name, value in quality.items()]

    if trace:
        from layers import layer_metrics

        metrics = layer_metrics(tracer, solves, instances, run_s, traced_run_s)
    else:
        metrics = {
            "setup_s": (statistics.median(setup_times), "s"),
            "run_s": (run_s, "s"),
            "iters_per_s": (workload.iterations() / run_s, "1/s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
    correct = attempted > 0 and failed == 0 and not failures
    return metrics, correct, attempted, failed, lines


def main(argv=None) -> int:
    args = _parse(argv)
    for var in THREAD_VARS:
        os.environ[var] = "1"
    root = Path.cwd()
    mapmp = _import_package(root)
    import checks
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        raise SystemExit(f"benchmark: unknown workload {args.workload!r}, expected one of {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload](args.seed, args.seconds)
    print("header " + json.dumps(header(root, mapmp, checks), sort_keys=True))
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds:g} trace {args.trace}")
    metrics, correct, attempted, failed, lines = execute(workload, bool(args.trace))
    for line in lines:
        print(line)
    for name, (value, unit) in metrics.items():
        print(f"metric {name} = {value!r} {unit}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
