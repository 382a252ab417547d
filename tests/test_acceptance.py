"""End-to-end acceptance suite.

Each test checks one numbered criterion at its stated tolerance and prints a
single PASS/FAIL line (run with ``pytest tests/test_acceptance.py -v -s`` to
see them as they complete).
"""

import math
import time

import numpy as np
import pytest

from helpers import install_star, random_cyclic_model, random_model, random_tree_potts

import mapmp
from mapmp import (
    ThetaState,
    accel_emp,
    brute_force_map,
    build_model,
    dual_and_slack,
    dual_objective,
    emit_model,
    emit_uai,
    eta_for_epsilon,
    eta_for_rounding,
    gap_estimate,
    in_local_polytope,
    load_model,
    lp_solve_l2,
    map_value,
    parse_uai,
    primal_objective,
    proj,
    recover_primal,
    slack,
    slack_score,
    standard_mp,
    tree_map,
    vertex_round,
    zero_dual,
)
from mapmp.bench import BenchConfig, metrics_csv, ratio_csv, run_bench, summary_csv
from mapmp.updates import emp_update, smp_update


def report(number: int, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[acceptance {number:2d}] {status} {detail}")
    assert ok, f"criterion {number}: {detail}"


def install_block(model, lam, edge, slot, block):
    out = lam.copy()
    out[edge, slot] = block
    return out


def test_criterion_1_gradient_identity():
    start = time.time()
    rng = np.random.default_rng(101)
    etas = [1.0, 10.0, 100.0]
    worst = 0.0
    for trial in range(50):
        model = random_model(rng, int(rng.integers(2, 6)), int(rng.integers(2, 4)))
        eta = etas[trial % 3]
        for _ in range(20):
            lam = rng.normal(size=(model.m, 2, model.d)) * rng.uniform(0.1, 1.0)
            nu = slack(model, lam, eta)
            grad = np.zeros_like(lam)
            for idx in np.ndindex(lam.shape):
                h = 1e-6 * (1.0 + abs(lam[idx]))
                plus = lam.copy()
                plus[idx] += h
                minus = lam.copy()
                minus[idx] -= h
                grad[idx] = (
                    dual_objective(model, plus, eta)
                    - dual_objective(model, minus, eta)
                ) / (2.0 * h)
            # relative error with an absolute fallback: at large eta the
            # marginals saturate and the true gradient can vanish, where a
            # pure ratio would compare rounding noise to rounding noise
            rel = np.linalg.norm(grad + nu) / max(np.linalg.norm(grad), 1.0)
            worst = max(worst, rel)
    elapsed = time.time() - start
    report(
        1,
        worst <= 1e-5 and elapsed < 30.0,
        f"max_rel_err={worst:.3e} (tol 1e-5) runtime={elapsed:.1f}s (budget 30s)",
    )


def test_criterion_2_improvement_lemmas():
    start = time.time()
    rng = np.random.default_rng(202)
    violations = 0
    worst_margin = math.inf
    triples = 0
    for _ in range(250):
        model = random_model(rng, int(rng.integers(3, 6)), int(rng.integers(2, 4)))
        for _ in range(40):
            triples += 1
            lam = rng.normal(size=(model.m, 2, model.d)) * rng.uniform(0.2, 1.5)
            eta = float(rng.choice([1.0, 5.0, 25.0]))
            before, nu = dual_and_slack(model, lam, eta)

            edge = int(rng.integers(model.m))
            slot = int(rng.integers(2))
            vertex = int(model.edges[edge, slot])
            new = install_block(
                model, lam, edge, slot, emp_update(model, lam, eta, edge, vertex)
            )
            gain = before - dual_objective(model, new, eta)
            bound = np.abs(nu[edge, slot]).sum() ** 2 / (4.0 * eta)
            worst_margin = min(worst_margin, gain - bound)
            if gain < bound - 1e-9:
                violations += 1

            center = int(rng.integers(model.n))
            starred = install_star(
                model, lam, center, smp_update(model, lam, eta, center)
            )
            gain = before - dual_objective(model, starred, eta)
            bound = sum(
                np.abs(nu[e, s]).sum() ** 2
                for e, s in zip(
                    model.incident_edges[center], model.incident_slots[center]
                )
            ) / (8.0 * model.degrees[center] * eta)
            worst_margin = min(worst_margin, gain - bound)
            if gain < bound - 1e-9:
                violations += 1
    elapsed = time.time() - start
    report(
        2,
        violations == 0 and triples == 10_000 and elapsed < 60.0,
        f"violations={violations}/10000 worst_margin={worst_margin:.3e} "
        f"runtime={elapsed:.1f}s (budget 60s)",
    )


def test_criterion_3_fixed_point_contracts():
    rng = np.random.default_rng(303)
    worst_emp = 0.0
    worst_smp = 0.0
    for _ in range(1000):
        model = random_model(rng, int(rng.integers(3, 6)), int(rng.integers(2, 4)))
        lam = rng.normal(size=(model.m, 2, model.d)) * rng.uniform(0.2, 2.0)
        eta = float(rng.choice([1.0, 10.0, 100.0]))

        edge = int(rng.integers(model.m))
        slot = int(rng.integers(2))
        vertex = int(model.edges[edge, slot])
        new = install_block(
            model, lam, edge, slot, emp_update(model, lam, eta, edge, vertex)
        )
        worst_emp = max(worst_emp, np.abs(slack(model, new, eta)[edge, slot]).sum())

        center = int(rng.integers(model.n))
        starred = install_star(model, lam, center, smp_update(model, lam, eta, center))
        nu = slack(model, starred, eta)
        for e, s in zip(model.incident_edges[center], model.incident_slots[center]):
            worst_smp = max(worst_smp, np.abs(nu[e, s]).sum())
    report(
        3,
        worst_emp <= 1e-8 and worst_smp <= 1e-6,
        f"worst_post_emp_l1={worst_emp:.3e} (tol 1e-8) "
        f"worst_post_smp_l1={worst_smp:.3e} (tol 1e-6), 1000 trials each",
    )


def test_criterion_4_projection():
    rng = np.random.default_rng(404)
    feasible = True
    worst_excess = -math.inf
    for _ in range(1000):
        model = random_model(rng, int(rng.integers(3, 6)), int(rng.integers(2, 4)))
        lam = rng.normal(size=(model.m, 2, model.d)) * rng.uniform(0.2, 2.0)
        eta = float(rng.choice([1.0, 10.0, 100.0]))
        mu = recover_primal(model, lam, eta)
        out = proj(model, mu)
        feasible = feasible and in_local_polytope(model, out, 1e-8)
        movement = np.abs(out.edge - mu.edge).sum()
        allowance = 2.0 * np.abs(slack(model, lam, eta)).sum() + 1e-8
        worst_excess = max(worst_excess, movement - allowance)
    report(
        4,
        feasible and worst_excess <= 0.0,
        f"all_in_polytope={feasible} worst_movement_excess={worst_excess:.3e} "
        f"(<= 0 means the 2x slack bound held), 1000 trials",
    )


def test_criterion_5_theta_sequence():
    state = ThetaState()
    worst_residual = 0.0
    bound_ok = True
    for s in range(1, 10_001):
        prev = state.theta_prev
        theta = state.advance()
        worst_residual = max(worst_residual, abs(theta**2 - (1.0 - theta) * prev**2))
        # pinned offset: after s advances the running product obeys 4/(s+2)^2
        if state.delta > 4.0 / (s + 2.0) ** 2:
            bound_ok = False
    report(
        5,
        worst_residual <= 1e-14 and bound_ok,
        f"max_identity_residual={worst_residual:.3e} (tol 1e-14) "
        f"delta<=4/(s+2)^2 for 1e4 steps: {bound_ok}",
    )


def test_criterion_6_epsilon_optimality():
    start = time.time()
    epsilon = 0.2
    gaps = []
    for s in range(20):
        model = random_tree_potts(8, 3, 6000 + s)
        eta = eta_for_epsilon(model.m, model.n, model.d, epsilon)
        trace = accel_emp(model, eta, 20_000, seed=6100 + s, stride=2000)
        mu_hat = proj(model, recover_primal(model, trace.final_lambda, eta))
        gaps.append(primal_objective(model, mu_hat) - lp_solve_l2(model).value)
    median_gap = float(np.median(gaps))
    elapsed = time.time() - start
    report(
        6,
        median_gap <= epsilon and elapsed < 300.0,
        f"median_gap={median_gap:.4f} (tol {epsilon}) worst={max(gaps):.4f} "
        f"runtime={elapsed:.1f}s (budget 300s)",
    )


def test_criterion_7_rounding_recovery():
    start = time.time()
    hits = 0
    count = 0
    seed = 0
    while count < 20:
        model = random_tree_potts(8, 3, 7000 + seed)
        seed += 1
        reference = brute_force_map(model)
        if not reference.unique:
            continue
        count += 1
        eta = eta_for_rounding(model.m, model.n, model.d, gap_estimate(model))
        trace = accel_emp(
            model, eta, 100_000, seed=7100 + count, stride=50, stop_slack_score=1e-6
        )
        mu_hat = proj(model, recover_primal(model, trace.final_lambda, eta))
        if np.array_equal(vertex_round(mu_hat), reference.assignment):
            hits += 1
    elapsed = time.time() - start
    report(
        7,
        hits >= 18,
        f"recovered={hits}/20 (need >= 18) runtime={elapsed:.1f}s",
    )


def test_criterion_8_acceleration_ordering():
    start = time.time()
    config = BenchConfig(
        algorithm="smp",
        eta=1000.0,
        iters=1000,
        trials=10,
        seed=4,
        stride=200,
        n=36,
        d=3,
        ratio=True,
    )
    result = run_bench(config)
    checked = [r for r in result.ratio_rows if r.iteration > 100]
    ok = all(r.log_ratio_mean is not None and r.log_ratio_mean >= 0.0 for r in checked)
    worst = min(
        (r.log_ratio_mean for r in checked if r.log_ratio_mean is not None),
        default=-math.inf,
    )
    elapsed = time.time() - start
    report(
        8,
        ok and elapsed < 300.0,
        f"min_mean_log_ratio={worst:.4f} over {len(checked)} recorded iterations "
        f"after burn-in runtime={elapsed:.1f}s (budget 300s)",
    )


def test_criterion_9_monotone_descent():
    worst_increase = -math.inf
    rng = np.random.default_rng(909)
    for seed in range(100):
        model = random_model(rng, int(rng.integers(4, 8)), int(rng.integers(2, 4)))
        for kind in ("emp", "smp"):
            trace = standard_mp(model, kind, 25.0, 100, seed=seed)
            worst_increase = max(worst_increase, float(np.diff(trace.dual_values).max()))
    report(
        9,
        worst_increase <= 1e-10,
        f"worst_per_step_increase={worst_increase:.3e} (tol 1e-10), "
        f"100 seeds x 100 iterations, EMP and SMP",
    )


def test_criterion_10_oracle_consistency():
    rng = np.random.default_rng(1010)
    tree_ok = True
    lp_tree_ok = True
    for _ in range(100):
        n = int(rng.integers(3, 11))
        d = int(rng.integers(2, 4))
        from helpers import random_tree_model

        model = random_tree_model(rng, n, d)
        dp_value = tree_map(model).value
        tree_ok = tree_ok and abs(dp_value - brute_force_map(model).value) <= 1e-9
        lp_tree_ok = lp_tree_ok and abs(lp_solve_l2(model).value - dp_value) <= 1e-6
    relaxation_ok = True
    for _ in range(50):
        model = random_cyclic_model(rng, int(rng.integers(4, 7)), int(rng.integers(2, 4)))
        relaxation_ok = (
            relaxation_ok
            and lp_solve_l2(model).value <= brute_force_map(model).value + 1e-7
        )
    report(
        10,
        tree_ok and lp_tree_ok and relaxation_ok,
        f"tree==brute on 100 trees: {tree_ok}; lp==tree (1e-6): {lp_tree_ok}; "
        f"lp<=brute on 50 cyclic: {relaxation_ok}",
    )


def test_criterion_11_determinism_and_round_trips():
    config = BenchConfig(
        algorithm="smp",
        eta=40.0,
        iters=30,
        trials=2,
        seed=11,
        stride=10,
        n=7,
        d=2,
        edge_prob=0.5,
        ratio=True,
    )
    first = run_bench(config)
    second = run_bench(config)
    csv_ok = (
        metrics_csv(first) == metrics_csv(second)
        and summary_csv(first) == summary_csv(second)
        and ratio_csv(first) == ratio_csv(second)
    )

    rng = np.random.default_rng(1111)
    native_ok = True
    for _ in range(500):
        model = random_model(
            rng, int(rng.integers(2, 8)), int(rng.integers(2, 4)), extra_edge_prob=0.3
        )
        back = load_model(emit_model(model))
        native_ok = native_ok and (
            back.n == model.n
            and back.d == model.d
            and np.array_equal(back.edges, model.edges)
            and np.array_equal(back.vertex_costs, model.vertex_costs)
            and np.array_equal(back.edge_costs, model.edge_costs)
        )
    uai_ok = True
    for _ in range(500):
        model = random_model(
            rng, int(rng.integers(2, 7)), int(rng.integers(2, 4)), extra_edge_prob=0.3
        )
        back = parse_uai(emit_uai(model))
        uai_ok = uai_ok and (
            np.array_equal(back.edges, model.edges)
            and np.abs(back.vertex_costs - model.vertex_costs).max() <= 1e-12
            and np.abs(back.edge_costs - model.edge_costs).max() <= 1e-12
        )
    report(
        11,
        csv_ok and native_ok and uai_ok,
        f"byte_identical_csvs={csv_ok} native_round_trip_500={native_ok} "
        f"uai_round_trip_500={uai_ok}",
    )
