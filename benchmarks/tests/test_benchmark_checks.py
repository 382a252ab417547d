import json
import types
from pathlib import Path

import numpy as np
import pytest

import mapmp
import reference
import run
from checks import gate
from workloads import Headline, LargeSparse, Solve, TreeEps, full_speed_run_s, miscounted

SPEC = json.loads((Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def solved():
    rng = np.random.default_rng(5)
    model = mapmp.build_model(
        5, [(0, 1), (1, 2), (1, 3), (3, 4)], 3, rng.uniform(-1, 1, (5, 3)), rng.uniform(-1, 1, (4, 3, 3))
    )
    eta = 50.0
    trace = mapmp.accel_emp(model, eta, 2000, seed=1, stride=2000)
    return model, eta, trace.final_lambda, mapmp.lp_solve_l2(model).value


def test_gate_accepts_a_real_solve(solved):
    model, eta, lam, lp = solved
    verdict = gate(model, lam, eta, lp)
    assert verdict.failures == []
    assert verdict.certified_gap >= verdict.primal - lp >= 0.0
    assert gate(model, lam, eta).failures == []


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_gate_flags_a_corrupted_lambda(solved, bad):
    model, eta, lam, lp = solved
    corrupted = lam.copy()
    corrupted[2, 1, 0] = bad
    assert gate(model, corrupted, eta, lp).failures


@pytest.mark.parametrize("shift", [-10.0, 10.0])
def test_gate_flags_a_broken_bracket(solved, shift):
    model, eta, lam, lp = solved
    assert gate(model, lam, eta, lp + shift).failures


def test_full_speed_run_s_divides_each_solve_by_its_own_slowdown():
    full = reference.FULL_SPEED_S
    slow = Solve("emp", None, busy_s=8.0, samples=[3 * full, 5 * full])  # host at a quarter of full speed
    fast = Solve("bcd", None, busy_s=2.0, samples=[full])
    # 1 s outside the solves, priced by all samples: mean 3 x full.
    assert full_speed_run_s(11.0, [slow, fast], [3 * full, 5 * full, full]) == pytest.approx(2.0 + 2.0 + 1.0 / 3.0)


def test_full_speed_run_s_keeps_every_second_of_work():
    full = reference.FULL_SPEED_S
    even = Solve("emp", None, busy_s=5.0, samples=[full] * 10)
    # One slow iteration doubles the solve's time; the probe saw full speed.
    spiked = Solve("emp", None, busy_s=10.0, samples=[full] * 10)
    assert full_speed_run_s(10.0, [spiked], [full]) == pytest.approx(2 * full_speed_run_s(5.0, [even], [full]))


def test_miscounted_flags_a_solve_that_bypassed_the_wrapped_update():
    trace = types.SimpleNamespace(iterations=np.array([0, 50, 100]))
    assert miscounted([Solve("emp", trace, calls=100)]) == []
    assert miscounted([Solve("smp", trace, calls=0)]) == ["solve 0 (smp): 0 update calls for 100 iterations"]


class TinyHeadline(Headline):
    N, ITERS, STRIDE = 20, 100, 50


class TinyLarge(LargeSparse):
    N = 40


class TinyTree(TreeEps):
    ITERS, STRIDE = 400, 100


@pytest.mark.parametrize("workload", [TinyHeadline, TinyLarge, TinyTree])
def test_metrics_match_the_spec_and_traced_counts_repeat(workload):
    plain, correct, attempted, failed, _ = run.execute(workload(0, 1.0), False)
    assert correct and attempted > 0 and failed == 0
    assert list(plain) == [m["name"] for m in SPEC["end_to_end"]]

    counts = []
    for _ in range(2):
        layers, correct, _, _, _ = run.execute(workload(0, 1.0), True)
        assert correct
        assert list(layers) == [m["name"] for m in SPEC["per_layer"]]
        counts.append({k: v for k, (v, unit) in layers.items() if unit in ("count", "B")})
    assert counts[0] == counts[1]
    assert counts[0]["schedulers.iters"] > 0 and counts[0]["formats.bytes"] > 0
