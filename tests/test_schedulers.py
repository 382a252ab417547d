import hashlib
import math
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import random_model, reference_accel_emp, reference_accel_smp

import mapmp
from mapmp import (
    Marginals,
    ThetaState,
    ValidationError,
    accel_block_grad,
    accel_emp,
    accel_smp,
    block_grad_step,
    block_slack,
    build_model,
    dual_and_slack,
    dual_gap_constant,
    emp_update,
    erdos_renyi_potts,
    eta_for_epsilon,
    eta_for_rounding,
    iteration_budget,
    recover_primal,
    slack_score,
    smp_update,
    standard_mp,
    star_slack,
    theta_next,
    zero_dual,
)
from mapmp import objective, schedulers
from mapmp.bench import ALGORITHMS, solve


def zeros_model(n, edges, d):
    return build_model(n, edges, d, np.zeros((n, d)), np.zeros((len(edges), d, d)))


class TestThetaSequence:
    def test_golden_ratio_start(self):
        assert theta_next(1.0) == pytest.approx((math.sqrt(5.0) - 1.0) / 2.0, abs=1e-15)

    @given(st.floats(min_value=1e-6, max_value=1.0))
    @settings(max_examples=200)
    def test_defining_identity(self, theta_prev):
        theta = theta_next(theta_prev)
        assert 0.0 < theta < 1.0
        assert abs(theta**2 - (1.0 - theta) * theta_prev**2) <= 1e-14

    def test_identity_along_the_actual_sequence(self):
        state = ThetaState()
        for _ in range(10_000):
            prev = state.theta_prev
            theta = state.advance()
            assert abs(theta**2 - (1.0 - theta) * prev**2) <= 1e-14

    def test_delta_product_bound(self):
        # after s advances the product of (1 - theta_j) obeys 4 / (s + 2)^2
        state = ThetaState()
        previous_delta = state.delta
        for s in range(1, 10_001):
            state.advance()
            assert state.delta <= 4.0 / (s + 2.0) ** 2
            assert state.delta <= previous_delta
            previous_delta = state.delta

    def test_domain_validation(self):
        with pytest.raises(ValidationError):
            theta_next(0.0)
        with pytest.raises(ValidationError):
            theta_next(1.5)


class TestEtaFormulas:
    def test_eta_for_epsilon_value(self):
        assert eta_for_epsilon(1, 2, 2, 1.0) == pytest.approx(12 * math.log(2), rel=1e-15)

    def test_eta_for_epsilon_scaling(self):
        assert eta_for_epsilon(3, 5, 4, 2.0) == pytest.approx(
            eta_for_epsilon(3, 5, 4, 1.0) / 2.0, rel=1e-15
        )

    def test_eta_for_epsilon_benchmark_scale(self):
        assert eta_for_epsilon(253, 100, 3, 0.1) == pytest.approx(
            4 * 353 * math.log(3) / 0.1, rel=1e-12
        )
        assert eta_for_epsilon(253, 100, 3, 0.1) == pytest.approx(15512.41, abs=0.01)

    def test_eta_for_rounding_value(self):
        assert eta_for_rounding(1, 2, 2, 1.0) == pytest.approx(
            48.0 * (math.log(3.0) + math.log(2.0)), rel=1e-12
        )

    def test_eta_for_rounding_scaling_and_positivity(self):
        base = eta_for_rounding(4, 7, 3, 0.5)
        assert eta_for_rounding(4, 7, 3, 1.0) == pytest.approx(base / 2.0, rel=1e-15)
        for m, n, d, gap in [(1, 2, 2, 10.0), (50, 20, 5, 1e-3)]:
            assert eta_for_rounding(m, n, d, gap) > 0

    @pytest.mark.parametrize("bad", [math.inf, math.nan, 0.0, -1.0])
    def test_eta_for_epsilon_rejects_nonpositive_and_nonfinite(self, bad):
        with pytest.raises(ValidationError, match="epsilon must be a positive finite number"):
            eta_for_epsilon(3, 4, 2, bad)

    @pytest.mark.parametrize("bad", [math.inf, math.nan, 0.0, -1.0])
    def test_eta_for_rounding_rejects_nonpositive_and_nonfinite(self, bad):
        with pytest.raises(ValidationError, match="gap must be a positive finite number"):
            eta_for_rounding(3, 4, 2, bad)

    def test_iteration_budget_value(self):
        assert iteration_budget(1, 2, 2, 1.0, 1.0, 1.0) == 488

    def test_iteration_budget_scaling(self):
        # halving eps_prime doubles the budget, up to the final ceil
        doubled = iteration_budget(2, 3, 3, 2.0, 1.0, 0.5)
        assert abs(doubled - 2 * iteration_budget(2, 3, 3, 2.0, 1.0, 1.0)) <= 1

    @pytest.mark.parametrize(
        "eta, cost_inf, match",
        [
            (math.nan, 1.0, "eta must be a positive finite number"),
            (math.inf, 1.0, "eta must be a positive finite number"),
            (0.0, 1.0, "eta must be a positive finite number"),
            (-1.0, 1.0, "eta must be a positive finite number"),
            (1.0, -1.0, "cost_inf must be a nonnegative finite number"),
            (1.0, math.nan, "cost_inf must be a nonnegative finite number"),
            (1.0, math.inf, "cost_inf must be a nonnegative finite number"),
        ],
    )
    def test_budget_formulas_reject_bad_eta_and_cost(self, eta, cost_inf, match):
        with pytest.raises(ValidationError, match=match):
            dual_gap_constant(3, 4, 2, eta, cost_inf)
        with pytest.raises(ValidationError, match=match):
            iteration_budget(3, 4, 2, eta, cost_inf, 1.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, 0.0, -1.0])
    def test_iteration_budget_rejects_bad_eps_prime(self, bad):
        with pytest.raises(ValidationError, match="eps_prime must be a positive finite number"):
            iteration_budget(1, 2, 2, 1.0, 1.0, bad)

    @pytest.mark.parametrize("d", [-1, 0, 1, math.nan])
    @pytest.mark.parametrize(
        "formula",
        [
            lambda d: eta_for_epsilon(3, 4, d, 0.5),
            lambda d: eta_for_rounding(3, 4, d, 0.5),
            lambda d: dual_gap_constant(3, 4, d, 1.0, 1.0),
            lambda d: iteration_budget(3, 4, d, 1.0, 1.0, 1.0),
        ],
        ids=["eta_for_epsilon", "eta_for_rounding", "dual_gap_constant", "iteration_budget"],
    )
    def test_budget_formulas_reject_too_few_labels(self, formula, d):
        # unchecked, log(1) = 0 gives eta 0.0, d <= 0 a math domain error and NaN a NaN
        message = f"^need at least two labels per vertex, got d={d}$"
        with pytest.raises(ValidationError, match=message):
            formula(d)

    def test_iteration_budget_rejects_overflow(self):
        # 488 / 1e-310 is beyond the largest double
        with pytest.raises(ValidationError, match="iteration budget overflows"):
            iteration_budget(1, 2, 2, 1.0, 1.0, 1e-310)

    def test_zero_cost_is_a_valid_gap_constant(self):
        assert dual_gap_constant(1, 2, 2, 1.0, 0.0) == pytest.approx(24.0 * 2 * 3 * math.log(2))

    def test_gap_constant_minimized_at_logd_over_cost(self):
        m, n, d, c = 3, 5, 4, 0.7
        etas = np.geomspace(1e-3, 1e3, 4001)
        values = [dual_gap_constant(m, n, d, e, c) for e in etas]
        numeric_argmin = etas[int(np.argmin(values))]
        assert numeric_argmin == pytest.approx(math.log(d) / c, rel=1e-2)


class TestStandardMp:
    def test_zero_iterations_returns_initial_point(self):
        m = zeros_model(2, [(0, 1)], 2)
        trace = standard_mp(m, "emp", 1.0, 0, seed=0)
        assert np.array_equal(trace.solution, zero_dual(m))
        assert trace.iterations.tolist() == [0]
        assert trace.dual_values[0] == pytest.approx(4 * math.log(2), abs=1e-14)

    def test_zero_costs_stay_at_zero(self):
        m = zeros_model(3, [(0, 1), (1, 2)], 3)
        for kind in ("emp", "smp", "bcd"):
            trace = standard_mp(m, kind, 1.0, 50, seed=1)
            np.testing.assert_allclose(trace.final_lambda, 0.0, atol=1e-12)
            np.testing.assert_allclose(np.diff(trace.dual_values), 0.0, atol=1e-12)

    @pytest.mark.parametrize("kind", ["emp", "smp"])
    def test_monotone_descent_and_improvement_bound(self, kind):
        # each step lowers the dual by at least |nu|_1^2 / (4 eta) (EMP) or
        # sum_e |nu_e|_1^2 / (8 deg eta) (SMP), nu the slack before the step
        eta, iters = 20.0, 100
        rng = np.random.default_rng(2)
        for _ in range(5):
            m = random_model(rng, 6, 3)
            seed = int(rng.integers(2**31))
            iterates = []
            trace = standard_mp(
                m, kind, eta, iters, seed=seed, observer=lambda k, lam, mu: iterates.append(lam)
            )
            assert np.all(np.diff(trace.dual_values) <= 1e-10)
            stream = schedulers._vertex_stream if kind == "smp" else schedulers._pair_stream
            samples = stream(np.random.default_rng(seed), m, iters)
            for k, (vertex, _, args) in enumerate(samples):
                if kind == "smp":
                    nu = star_slack(m, iterates[k], eta, vertex)
                    bound = (np.abs(nu).sum(axis=1) ** 2).sum() / (8.0 * m.degrees[vertex] * eta)
                else:
                    bound = np.abs(block_slack(m, iterates[k], eta, *args)).sum() ** 2 / (4.0 * eta)
                drop = trace.dual_values[k] - trace.dual_values[k + 1]
                assert drop >= bound - 1e-9, f"iteration {k}: {drop} < {bound}"

    def test_best_iterate_is_running_minimum(self):
        rng = np.random.default_rng(3)
        m = random_model(rng, 5, 3)
        trace = standard_mp(m, "emp", 10.0, 200, seed=4)
        assert trace.best_score == trace.slack_scores.min()
        assert trace.best_iteration == int(
            trace.iterations[int(np.argmin(trace.slack_scores))]
        )
        # the returned solution is the best iterate for standard loops
        _, nu = mapmp.dual_and_slack(m, trace.solution, 10.0)
        assert mapmp.slack_score(nu) == pytest.approx(trace.best_score, rel=1e-12)

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(5)
        m = random_model(rng, 5, 3)
        a = standard_mp(m, "smp", 5.0, 100, seed=42)
        b = standard_mp(m, "smp", 5.0, 100, seed=42)
        assert np.array_equal(a.final_lambda, b.final_lambda)
        assert np.array_equal(a.dual_values, b.dual_values)
        assert np.array_equal(a.slack_scores, b.slack_scores)

    def test_stride_records_expected_iterations(self):
        rng = np.random.default_rng(6)
        m = random_model(rng, 4, 2)
        trace = standard_mp(m, "emp", 5.0, 10, seed=0, stride=4)
        assert trace.iterations.tolist() == [0, 4, 8, 10]

    def test_stop_on_slack_score(self):
        rng = np.random.default_rng(7)
        m = random_model(rng, 4, 2)
        trace = standard_mp(m, "emp", 5.0, 100_000, seed=0, stop_slack_score=1e-10)
        assert trace.slack_scores[-1] <= 1e-10
        assert trace.iterations[-1] < 100_000

    def test_unknown_kind_rejected(self):
        m = zeros_model(2, [(0, 1)], 2)
        with pytest.raises(ValidationError):
            standard_mp(m, "nope", 1.0, 1, seed=0)

    @pytest.mark.parametrize(
        "solve",
        [
            lambda m, seed: standard_mp(m, "emp", 1.0, 5, seed),
            lambda m, seed: standard_mp(m, "smp", 1.0, 5, seed),
            lambda m, seed: accel_emp(m, 1.0, 5, seed),
            lambda m, seed: accel_smp(m, 1.0, 5, seed),
            lambda m, seed: accel_block_grad(m, 1.0, 5, seed),
        ],
        ids=["standard_mp-emp", "standard_mp-smp", "accel_emp", "accel_smp", "accel_block_grad"],
    )
    @pytest.mark.parametrize("seed", [-1, np.int64(-7)])
    def test_negative_seed_rejected(self, solve, seed):
        m = zeros_model(3, [(0, 1), (1, 2)], 2)
        with pytest.raises(ValidationError, match="seed must be >= 0"):
            solve(m, seed)


class TestSolverOptions:
    """Options that are not whole numbers, or a step scale that is not a
    positive finite number, are rejected before any iteration."""

    @pytest.fixture
    def model(self):
        return zeros_model(3, [(0, 1), (1, 2)], 2)

    @pytest.mark.parametrize("alg", ALGORITHMS)
    def test_nan_stride_rejected(self, model, alg):
        # unchecked, k % nan is NaN for every k, so only the last iterate is recorded
        with pytest.raises(ValidationError, match="^stride must be an integer, got nan$"):
            solve(alg, model, 1.0, 20, 0, stride=math.nan)

    @pytest.mark.parametrize("alg", ALGORITHMS)
    def test_fractional_stride_rejected(self, model, alg):
        with pytest.raises(ValidationError, match="^stride must be an integer, got 2.5$"):
            solve(alg, model, 1.0, 20, 0, stride=2.5)

    @pytest.mark.parametrize("alg", ALGORITHMS)
    def test_fractional_iteration_count_rejected(self, model, alg):
        with pytest.raises(ValidationError, match="^iteration count must be an integer, got 20.7$"):
            solve(alg, model, 1.0, 20.7, 0)

    @pytest.mark.parametrize("scale", [math.nan, math.inf, 0.0, -1.0])
    @pytest.mark.parametrize("solver", [accel_emp, accel_smp, accel_block_grad])
    def test_bad_v_step_scale_rejected(self, model, solver, scale):
        with pytest.raises(ValidationError, match="^v_step_scale must be a positive finite number"):
            solver(model, 1.0, 20, 0, v_step_scale=scale)


class TestAcceleratedLoops:
    def test_zero_iterations(self):
        m = zeros_model(2, [(0, 1)], 2)
        for solver in (accel_emp, accel_smp, accel_block_grad):
            trace = solver(m, 1.0, 0, seed=0)
            assert np.array_equal(trace.solution, zero_dual(m))

    def test_zero_costs_stay_at_zero(self):
        m = zeros_model(3, [(0, 1), (1, 2), (0, 2)], 2)
        for solver in (accel_emp, accel_smp, accel_block_grad):
            trace = solver(m, 1.0, 40, seed=3)
            np.testing.assert_allclose(trace.final_lambda, 0.0, atol=1e-12)

    def test_accel_emp_matches_transliteration(self):
        rng = np.random.default_rng(8)
        m = random_model(rng, 4, 3)
        for iters, atol in ((1, 1e-12), (5, 1e-10)):
            trace = accel_emp(m, 7.0, iters, seed=123, stride=iters)
            ref_lam, _ = reference_accel_emp(m, 7.0, iters, seed=123)
            np.testing.assert_allclose(trace.final_lambda, ref_lam, atol=atol)

    def test_accel_smp_matches_transliteration(self):
        rng = np.random.default_rng(9)
        m = random_model(rng, 4, 3)
        for iters, atol in ((1, 1e-12), (5, 1e-10)):
            trace = accel_smp(m, 7.0, iters, seed=321, stride=iters)
            ref_lam, _ = reference_accel_smp(m, 7.0, iters, seed=321)
            np.testing.assert_allclose(trace.final_lambda, ref_lam, atol=atol)

    def test_smp_sampling_on_regular_graph_is_uniform(self):
        # all degrees equal: the degree CDF inverts to a uniform choice
        m = zeros_model(4, [(0, 1), (1, 2), (2, 3), (0, 3)], 2)
        cdf = np.cumsum(m.degrees / m.degrees.sum())
        np.testing.assert_allclose(cdf, [0.25, 0.5, 0.75, 1.0], atol=1e-15)

    def test_accel_block_grad_skeleton_reproduces_accel_emp(self, monkeypatch):
        # with the gradient step swapped for the EMP minimizer, the gradient
        # baseline runs the same loop as accel_emp, bit for bit
        rng = np.random.default_rng(10)
        m = random_model(rng, 5, 3)

        def emp_as_step(model, lam, eta, edge, vertex, with_slack=False):
            return emp_update(model, lam, eta, edge, vertex, with_slack=with_slack)

        native = accel_emp(m, 6.0, 50, 77)
        monkeypatch.setattr(schedulers, "block_grad_step", emp_as_step)
        swapped = accel_block_grad(m, 6.0, 50, 77)
        np.testing.assert_array_equal(swapped.final_lambda, native.final_lambda)
        np.testing.assert_array_equal(swapped.dual_values, native.dual_values)

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(11)
        m = random_model(rng, 5, 3)
        for solver in (accel_emp, accel_smp, accel_block_grad):
            a = solver(m, 9.0, 80, seed=5)
            b = solver(m, 9.0, 80, seed=5)
            assert np.array_equal(a.final_lambda, b.final_lambda)
            assert np.array_equal(a.dual_values, b.dual_values)

    def test_v_step_scale_changes_trajectory(self):
        rng = np.random.default_rng(12)
        m = random_model(rng, 5, 3)
        a = accel_emp(m, 9.0, 50, seed=5)
        b = accel_emp(m, 9.0, 50, seed=5, v_step_scale=0.5)
        assert not np.array_equal(a.final_lambda, b.final_lambda)

    def test_expected_descent_ordering_vs_standard(self):
        # stochastic ordering at a desk-scale transient: medians over 20
        # seeds on a fixed n=10 instance, not a per-seed claim
        m = erdos_renyi_potts(10, 1.1 * math.log(10) / 10, 3, 12)
        eta, iters = 2000.0, 500
        accel = [
            accel_emp(m, eta, iters, seed=(12, 1, t), stride=iters).dual_values[-1]
            for t in range(20)
        ]
        standard = [
            standard_mp(m, "emp", eta, iters, seed=(12, 0, t), stride=iters).dual_values[-1]
            for t in range(20)
        ]
        assert np.median(accel) <= np.median(standard)


class TestTraceInvariants:
    def test_scores_nonnegative_and_best_consistent(self):
        rng = np.random.default_rng(13)
        m = random_model(rng, 5, 3)
        for solver in (
            lambda: standard_mp(m, "emp", 8.0, 60, seed=1),
            lambda: accel_emp(m, 8.0, 60, seed=1),
            lambda: accel_smp(m, 8.0, 60, seed=1),
        ):
            trace = solver()
            assert (trace.slack_scores >= 0).all()
            assert trace.best_score == trace.slack_scores.min()

    @pytest.mark.parametrize("solve, digest", [
        (lambda m: accel_smp(m, 50.0, 600, 3, stride=20),
         "54b5d156621ab99464a9429011c8afcdd8e644feded7a93d3c69c20ed988c2fc"),
        (lambda m: standard_mp(m, "smp", 50.0, 600, 3, stride=20),
         "411492c12de87c5ad5260171b6e562638cba945b49a34a5c97abb5348e8e429e"),
    ], ids=["accel-smp", "smp"])
    def test_trace_pinned_while_best_copied_only_when_returned(self, solve, digest):
        # The accelerated loop tracks the best score without copying lam at
        # each improving record; both traces keep the bits they had when it
        # did (sha256 of the arrays in this order, then the best pair).
        trace = solve(erdos_renyi_potts(40, 0.15, 3, 5))
        h = hashlib.sha256()
        for a in (trace.iterations, trace.dual_values, trace.slack_scores, trace.final_lambda,
                  trace.solution):
            h.update(a.tobytes())
        h.update(repr((trace.best_iteration, trace.best_score)).encode())
        assert h.hexdigest() == digest
        assert trace.solution is not trace.final_lambda

    def test_observer_sees_every_recorded_iterate(self):
        rng = np.random.default_rng(14)
        m = random_model(rng, 4, 2)
        seen = []
        trace = standard_mp(
            m, "emp", 5.0, 20, seed=2, stride=5, observer=lambda k, lam, mu: seen.append(k)
        )
        assert seen == trace.iterations.tolist()

    def test_elapsed_ms_excludes_recording_and_observer_time(self):
        rng = np.random.default_rng(16)
        m = random_model(rng, 5, 3)
        trace = standard_mp(
            m, "smp", 5.0, 10, seed=3, stride=5, observer=lambda k, lam, mu: time.sleep(0.05)
        )
        assert trace.iterations.tolist() == [0, 5, 10]
        assert trace.elapsed_ms[-1] < 50.0
        assert trace.instrumentation_ms[-1] >= 100.0
        assert (np.diff(trace.elapsed_ms) >= 0).all()
        assert (np.diff(trace.instrumentation_ms) >= 50.0).all()


def full_extrapolation_reference(model, kind, eta, iters, seed, stride, v_step_scale):
    """The accelerated loops with y formed over every block each iteration,
    so the package's update and slack functions read a fully current y.
    Returns (final lam, duals, scores) on the solvers' record grid."""
    rng = np.random.default_rng(seed)
    lam = zero_dual(model)
    v = zero_dual(model)
    theta_state = ThetaState()
    cdf = np.cumsum(model.degrees / model.degrees.sum())
    n_total = float(model.degrees.sum())
    min_deg = float(model.degrees.min())
    duals, scores = [], []

    def record():
        dual, nu = dual_and_slack(model, lam, eta)
        duals.append(dual)
        scores.append(slack_score(nu))

    record()
    for k in range(iters):
        theta = theta_state.advance()
        y = theta * v + (1.0 - theta) * lam
        if kind == "smp":
            vertex = min(int(np.searchsorted(cdf, rng.random(), side="right")), model.n - 1)
            p_i = model.degrees[vertex] / n_total
            blocks = smp_update(model, y, eta, vertex)
            nu_star = star_slack(model, y, eta, vertex)
            ev = model.incident_edges[vertex]
            sv = model.incident_slots[vertex]
            lam[ev, sv] = blocks
            v[ev, sv] += (
                v_step_scale * min_deg / (2.0 * p_i * theta * eta * n_total)
            ) * nu_star
        else:
            pair = int(rng.integers(2 * model.m))
            edge, slot = pair // 2, pair % 2
            vertex = int(model.edges[edge, slot])
            if kind == "emp":
                lam[edge, slot] = emp_update(model, y, eta, edge, vertex)
            else:
                lam[edge, slot] = block_grad_step(model, y, eta, edge, vertex)
            nu_block = block_slack(model, y, eta, edge, vertex)
            v[edge, slot] += (v_step_scale / (2.0 * model.m * eta * theta)) * nu_block
        if (k + 1) % stride == 0 or k + 1 == iters:
            record()
    return lam, np.array(duals), np.array(scores)


class TestLocalExtrapolation:
    """The accelerated loops form y only on the sampled vertex's incident
    edges; every other block of y is stale.  The trajectories must equal the
    full-extrapolation loop bit for bit."""

    # degrees 4, 2, 4, 2, 2, 3, 1 (vertex 6 is a leaf)
    EDGES = [(0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (2, 3), (2, 5), (4, 5), (5, 6)]

    @pytest.fixture(scope="class")
    def model(self):
        rng = np.random.default_rng(17)
        n, d = 7, 3
        model = build_model(
            n, self.EDGES, d, rng.normal(size=(n, d)), rng.normal(size=(len(self.EDGES), d, d))
        )
        assert model.degrees.min() == 1 and model.degrees.max() >= 4
        return model

    @pytest.mark.parametrize("v_step_scale", [1.0, 0.5])
    @pytest.mark.parametrize(
        "kind, solver", [("emp", accel_emp), ("smp", accel_smp), ("bcd", accel_block_grad)]
    )
    def test_bit_identical_to_full_extrapolation(self, model, kind, solver, v_step_scale):
        eta, iters, seed, stride = 8.0, 1200, 29, 100
        trace = solver(model, eta, iters, seed, stride=stride, v_step_scale=v_step_scale)
        lam, duals, scores = full_extrapolation_reference(
            model, kind, eta, iters, seed, stride, v_step_scale
        )
        assert trace.iterations.tolist() == [0, *range(stride, iters + 1, stride)]
        assert np.array_equal(trace.final_lambda, lam)
        assert np.array_equal(trace.dual_values, duals)
        assert np.array_equal(trace.slack_scores, scores)


class TestSampleStream:
    """The sample streams are drawn in chunks and must yield exactly the
    scalar-draw sequence, whatever the chunk size.  Each sample's ``at``
    holds the flat positions in ``lam.ravel()`` of the blocks the update
    writes."""

    def test_pair_stream_matches_scalar_draws_across_chunks(self):
        model, seed = erdos_renyi_potts(100, 0.05, 2, 1), 3
        lam = np.random.default_rng(8).normal(size=(model.m, 2, model.d))
        iters = 2 * schedulers._SAMPLE_CHUNK + 5
        rng = np.random.default_rng(seed)
        expected = []
        for _ in range(iters):
            pair = int(rng.integers(2 * model.m))
            edge, slot = pair // 2, pair % 2
            vertex = int(model.edges[edge, slot])
            expected.append((vertex, (edge, slot), (edge, vertex)))
        got = list(schedulers._pair_stream(np.random.default_rng(seed), model, iters))
        assert len(got) == iters
        for (vertex, at, args), (want_vertex, (edge, slot), want_args) in zip(got, expected):
            assert (vertex, args) == (want_vertex, want_args)
            assert at.shape == (model.d,)
            assert np.array_equal(lam.ravel()[at], lam[edge, slot])

    def test_vertex_stream_matches_scalar_draws_across_chunks(self):
        model = erdos_renyi_potts(40, 0.1, 2, 4)
        lam = np.random.default_rng(9).normal(size=(model.m, 2, model.d))
        cdf = np.cumsum(model.degrees / model.degrees.sum())
        iters = 2 * schedulers._SAMPLE_CHUNK + 5
        rng = np.random.default_rng(5)
        expected = [
            min(int(np.searchsorted(cdf, rng.random(), side="right")), model.n - 1)
            for _ in range(iters)
        ]
        got = list(schedulers._vertex_stream(np.random.default_rng(5), model, iters))
        assert [vertex for vertex, _, _ in got] == expected
        for vertex, at, args in got:
            star = lam[model.incident_edges[vertex], model.incident_slots[vertex]]
            assert np.array_equal(lam.ravel()[at], star)
            assert args == (vertex,)

    def test_streams_draw_nothing_for_zero_iterations(self):
        model = zeros_model(2, [(0, 1)], 2)
        rng = np.random.default_rng(6)
        state = rng.bit_generator.state
        assert list(schedulers._pair_stream(rng, model, 0)) == []
        assert list(schedulers._vertex_stream(rng, model, 0)) == []
        assert rng.bit_generator.state == state

    ACCELERATED = {"accel-emp": accel_emp, "accel-smp": accel_smp, "accel-bcd": accel_block_grad}

    @pytest.mark.parametrize("early_stop", [False, True])
    @pytest.mark.parametrize("name", ["emp", "smp", "bcd", *ACCELERATED])
    def test_solvers_independent_of_chunk_size(self, monkeypatch, name, early_stop):
        model = random_model(np.random.default_rng(18), 6, 3)
        eta, iters, seed = 5.0, 200, 31

        def solve(stop=None):
            if name in self.ACCELERATED:
                return self.ACCELERATED[name](model, eta, iters, seed, stop_slack_score=stop)
            return standard_mp(model, name, eta, iters, seed, stop_slack_score=stop)

        stop = float(np.median(solve().slack_scores)) if early_stop else None
        reference = solve(stop)
        monkeypatch.setattr(schedulers, "_SAMPLE_CHUNK", 3)
        chunked = solve(stop)
        if early_stop:
            assert reference.iterations[-1] < iters
        assert np.array_equal(chunked.iterations, reference.iterations)
        assert np.array_equal(chunked.final_lambda, reference.final_lambda)
        assert np.array_equal(chunked.dual_values, reference.dual_values)
        assert np.array_equal(chunked.slack_scores, reference.slack_scores)


class TestOneRecordPass:
    """Each record makes one log-marginal pass, and an observer receives the
    primal candidate read from it, byte for byte that of ``recover_primal``."""

    ITERS, ETA = 30, 1000.0

    @pytest.fixture(scope="class", params=[3, 9], ids=["d3", "d9"])
    def model(self, request):
        # m d^2 is 396 at d = 3 and 3564 at d = 9: both sides of the size
        # at which the record path folds its reductions and masks its exps
        return erdos_renyi_potts(14, 0.35, request.param, 11)

    @pytest.mark.parametrize("stride", [1, 7, ITERS])
    @pytest.mark.parametrize("alg", ALGORITHMS)
    def test_observer_mu_is_recover_primal(self, model, alg, stride):
        seen = []

        def observe(k, lam, mu):
            ref = recover_primal(model, lam, self.ETA)
            assert isinstance(mu, Marginals)
            for got, want in ((mu.vertex, ref.vertex), (mu.edge, ref.edge)):
                assert got.dtype == want.dtype and got.shape == want.shape
                assert got.tobytes() == want.tobytes(), f"record {k}"
            seen.append(k)

        trace = solve(alg, model, self.ETA, self.ITERS, 5, stride=stride, observer=observe)
        assert seen == trace.iterations.tolist()

    @pytest.mark.parametrize("observed", [False, True], ids=["unobserved", "observed"])
    @pytest.mark.parametrize("alg", ALGORITHMS)
    def test_one_log_marginal_pass_per_record(self, monkeypatch, model, alg, observed):
        calls = []
        original = objective._log_marginals

        def counted(*args):
            calls.append(args)
            return original(*args)

        # both bindings, so a second pass through the public functions counts too
        monkeypatch.setattr(objective, "_log_marginals", counted)
        monkeypatch.setattr(schedulers, "_log_marginals", counted)
        observer = (lambda k, lam, mu: None) if observed else None
        trace = solve(alg, model, self.ETA, self.ITERS, 5, stride=7, observer=observer)
        assert trace.iterations.tolist() == [0, 7, 14, 21, 28, 30]
        assert len(calls) == len(trace.iterations)
