import math
import re
from dataclasses import fields
import sys
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pins
from helpers import random_model, reference_accel_emp, reference_accel_smp, zeros_model

from mapmp import (
    Marginals,
    SolveTrace,
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
        # unchecked, log(1) = 0 gives eta 0.0, d <= 0 a math domain error and NaN a NaN;
        # a NaN is named as a non-integer first, as the model builders name it
        message = (f"^d must be an integer, got {d}$" if math.isnan(d)
                   else f"^need at least two labels per vertex, got d={d}$")
        with pytest.raises(ValidationError, match=message):
            formula(d)

    def test_iteration_budget_rejects_overflow(self):
        # 488 / 1e-310 is beyond the largest double
        with pytest.raises(ValidationError, match="iteration budget overflows"):
            iteration_budget(1, 2, 2, 1.0, 1.0, 1e-310)

    @pytest.mark.parametrize(
        "formula, args, shown",
        [
            (eta_for_epsilon, (100, 100, 3, 1e-320), "eta for epsilon overflows for m=100, n=100, d=3, "
             "epsilon=1e-320"),
            (eta_for_rounding, (100, 100, 3, 1e-320), "eta for rounding overflows for m=100, n=100, d=3, "
             "gap=1e-320"),
            (dual_gap_constant, (100, 100, 3, 1e300, 1e300), "dual gap constant overflows for m=100, "
             "n=100, d=3, eta=1e+300, cost_inf=1e+300"),
            (iteration_budget, (1, 2, 2, 1.0, 1.0, 1e-310), "iteration budget overflows for m=1, n=2, "
             "d=2, eta=1.0, cost_inf=1.0, eps_prime=1e-310"),
        ],
        ids=["eta_for_epsilon", "eta_for_rounding", "dual_gap_constant", "iteration_budget"],
    )
    def test_non_finite_result_is_named(self, formula, args, shown):
        # unchecked, the first three returned inf
        with pytest.raises(ValidationError, match=f"^{re.escape(shown)}$"):
            formula(*args)

    @pytest.mark.parametrize(
        "formula, extra",
        [(eta_for_epsilon, (1.0,)), (eta_for_rounding, (1.0,)), (dual_gap_constant, (1.0, 1.0)),
         (iteration_budget, (1.0, 1.0, 1.0))],
        ids=["eta_for_epsilon", "eta_for_rounding", "dual_gap_constant", "iteration_budget"],
    )
    def test_size_past_a_double_is_named(self, formula, extra):
        # unchecked, m = 10**400 raised OverflowError: int too large to convert to float
        # (iteration_budget reaches it through dual_gap_constant, which names itself)
        name = "dual gap constant" if formula is iteration_budget else formula.__name__.replace("_", " ")
        with pytest.raises(ValidationError, match=f"^{name} overflows for m={10**400}, n=100, d=3, "):
            formula(10**400, 100, 3, *extra)

    def test_keyword_inputs_are_named(self):
        with pytest.raises(ValidationError, match=r"^iteration budget overflows for .*, eps_prime=1e-310$"):
            iteration_budget(1, 2, 2, eta=1.0, cost_inf=1.0, eps_prime=1e-310)
        assert iteration_budget(m=1, n=2, d=2, eta=1.0, cost_inf=1.0, eps_prime=1.0) == 488

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
        assert np.array_equal(trace.final_lambda, zero_dual(m))
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

    @pytest.mark.parametrize("kind", ["emp", "smp", "bcd"])
    def test_returns_the_last_iterate_not_the_best(self, kind):
        m = random_model(np.random.default_rng(3), 5, 3)
        trace = standard_mp(m, kind, 10.0, 200, seed=4)
        # an earlier record scores better, so a best-iterate pick would differ
        assert trace.slack_scores.min() < trace.slack_scores[-1]
        dual, nu = dual_and_slack(m, trace.final_lambda, 10.0)
        assert dual == trace.dual_values[-1]
        assert slack_score(nu) == trace.slack_scores[-1]

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(5)
        m = random_model(rng, 5, 3)
        a = standard_mp(m, "smp", 5.0, 100, seed=42)
        b = standard_mp(m, "smp", 5.0, 100, seed=42)
        assert np.array_equal(a.final_lambda, b.final_lambda)
        assert np.array_equal(a.dual_values, b.dual_values)
        assert np.array_equal(a.slack_scores, b.slack_scores)

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

    every_solver = pytest.mark.parametrize(
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

    @every_solver
    @pytest.mark.parametrize("seed", [-1, np.int64(-7)])
    def test_negative_seed_rejected(self, solve, seed):
        m = zeros_model(3, [(0, 1), (1, 2)], 2)
        with pytest.raises(ValidationError, match="seed must be >= 0"):
            solve(m, seed)

    @every_solver
    @pytest.mark.parametrize("seed", [1.5, 10.0, "emp", np.float64(2.0), [1, -2]],
                             ids=["1.5", "10.0", "str", "float64", "negative-in-list"])
    def test_seed_numpy_cannot_take_names_the_seed_before_any_draw(self, solve, seed, monkeypatch):
        def no_stream(*args):
            raise AssertionError("sampled before checking the seed")

        monkeypatch.setattr(schedulers, "_pair_stream", no_stream)
        monkeypatch.setattr(schedulers, "_vertex_stream", no_stream)
        m = zeros_model(3, [(0, 1), (1, 2)], 2)
        with pytest.raises(ValidationError, match=f"^seed must be .*, got {re.escape(repr(seed))}$"):
            solve(m, seed)

    @every_solver
    def test_integer_and_seed_sequence_seeds_keep_their_streams(self, solve):
        m = erdos_renyi_potts(8, 0.5, 3, 2)
        want = solve(m, 3).final_lambda.tobytes()
        for seed in (np.int64(3), np.uint8(3), np.random.SeedSequence(3)):
            assert solve(m, seed).final_lambda.tobytes() == want
        assert np.isfinite(solve(m, None).final_lambda).all()


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
        with pytest.raises(ValidationError, match="^iters must be an integer, got 20.7$"):
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
            assert np.array_equal(trace.final_lambda, zero_dual(m))

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


TRACE_PINS = {
    "accel-smp": (lambda m: accel_smp(m, 50.0, 600, 3, stride=20),
                  "d1ef9fa9482df703e59ff312961620a9d6bbe585517a3b0a4ebe86a83e64a573"),
    "smp": (lambda m: standard_mp(m, "smp", 50.0, 600, 3, stride=20),
            "c315ea1c70c44e9a14f0e1c1f3075a802017b52f8a1ac0a7f23ddf89e3fd962f"),
}


def trace_pin(name):
    """The trace of pin ``name``, its pinned bytes (the arrays in this
    order), and the integer and float parts of those bytes."""
    trace = TRACE_PINS[name][0](erdos_renyi_potts(40, 0.15, 3, 5))
    arrays = (trace.iterations, trace.dual_values, trace.slack_scores, trace.final_lambda)
    data = b"".join(a.tobytes() for a in arrays)
    ints = {"iterations": trace.iterations.tolist()}
    floats = {"dual_values": trace.dual_values, "slack_scores": trace.slack_scores,
              "final_lambda": trace.final_lambda.ravel()}
    return trace, data, ints, floats


class TestRecordSchedule:
    """Every algorithm records iterate 0, every ``stride``-th iterate and the
    last, and stops at the first record that meets the stop threshold."""

    MODEL, ITERS = erdos_renyi_potts(8, 0.5, 3, 1), 23

    @pytest.mark.parametrize("stride", [1, 7, ITERS, ITERS + 5])
    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_stride_records_expected_iterations(self, algorithm, stride):
        trace = solve(algorithm, self.MODEL, 5.0, self.ITERS, 0, stride=stride)
        assert trace.iterations.tolist() == [*range(0, self.ITERS, stride), self.ITERS]

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_threshold_met_at_record_zero_draws_and_steps_nothing(self, monkeypatch, algorithm):
        def no_draws(*args):
            raise AssertionError("drew a sample")
            yield

        def no_step(*args):
            raise AssertionError("took a step")

        for name in ("_pair_stream", "_vertex_stream"):
            monkeypatch.setattr(schedulers, name, no_draws)
        for name in ("emp_update", "smp_update", "block_grad_step"):
            monkeypatch.setattr(schedulers, name, no_step)
        trace = solve(algorithm, self.MODEL, 5.0, self.ITERS, 0, stop_slack_score=1e300)
        assert trace.iterations.tolist() == [0]
        assert not trace.final_lambda.any()


class TestTraceInvariants:
    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    @pytest.mark.parametrize("stride", [1, 12])
    def test_column_dtypes(self, algorithm, stride):
        # iterations is int64 on every platform, not NumPy's default int
        trace = solve(algorithm, random_model(np.random.default_rng(15), 5, 3), 8.0, 12, 4,
                      stride=stride)
        dtypes = {f.name: getattr(trace, f.name).dtype for f in fields(SolveTrace)}
        assert dtypes.pop("iterations") == np.int64
        assert set(dtypes.values()) == {np.dtype(np.float64)}
        assert len(trace.iterations) == (13 if stride == 1 else 2)

    def test_scores_nonnegative(self):
        rng = np.random.default_rng(13)
        m = random_model(rng, 5, 3)
        for solver in (
            lambda: standard_mp(m, "emp", 8.0, 60, seed=1),
            lambda: accel_emp(m, 8.0, 60, seed=1),
            lambda: accel_smp(m, 8.0, 60, seed=1),
        ):
            trace = solver()
            assert (trace.slack_scores >= 0).all()

    @pytest.mark.parametrize("name", list(TRACE_PINS))
    def test_trace_pinned(self, name):
        # sha256 of the arrays in ``trace_pin``'s order
        _, data, ints, floats = trace_pin(name)
        pins.assert_pinned(TRACE_PINS[name][1], data, f"trace-{name}", ints, floats)

    def test_observer_sees_every_recorded_iterate(self):
        rng = np.random.default_rng(14)
        m = random_model(rng, 4, 2)
        seen = []
        trace = standard_mp(
            m, "emp", 5.0, 20, seed=2, stride=5, observer=lambda k, lam, mu: seen.append(k)
        )
        assert seen == trace.iterations.tolist()

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_observation_never_changes_the_result(self, algorithm):
        # The observer never changes the returned bytes, nor does the stride
        # without a stop rule; runs agree on the records they share; the
        # last record holds the returned iterate's dual value and slack score.
        model, eta, iters = erdos_renyi_potts(8, 0.4, 3, 1), 20.0, 30

        def run(stride, observe, stop):
            observer = (lambda k, lam, mu: None) if observe else None
            return solve(algorithm, model, eta, iters, 11, stride=stride, observer=observer,
                         stop_slack_score=stop)

        plain = run(1, False, None)
        for stop in (None, float(plain.slack_scores[iters // 2])):
            reference = run(1, False, stop)
            for stride in (1, 7, iters):
                traces = [run(stride, observe, stop) for observe in (False, True)]
                returned = traces[0].final_lambda.tobytes()
                assert traces[1].final_lambda.tobytes() == returned
                if stop is None:
                    assert returned == plain.final_lambda.tobytes()
                for trace in traces:
                    _, ref_at, at = np.intersect1d(reference.iterations, trace.iterations,
                                                   return_indices=True)
                    assert trace.dual_values[at].tobytes() == reference.dual_values[ref_at].tobytes()
                    assert (trace.slack_scores[at].tobytes()
                            == reference.slack_scores[ref_at].tobytes())
                    dual, nu = dual_and_slack(model, trace.final_lambda, eta)
                    assert (np.array([trace.dual_values[-1], trace.slack_scores[-1]]).tobytes()
                            == np.array([dual, slack_score(nu)]).tobytes())

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

    @pytest.mark.parametrize("early_stop", [False, True])
    @pytest.mark.parametrize("name", ALGORITHMS)
    def test_solvers_independent_of_chunk_size(self, monkeypatch, name, early_stop):
        model = random_model(np.random.default_rng(18), 6, 3)
        eta, iters, seed = 5.0, 200, 31

        def run(stop=None):
            return solve(name, model, eta, iters, seed, stop_slack_score=stop)

        stop = float(np.median(run().slack_scores)) if early_stop else None
        reference = run(stop)
        monkeypatch.setattr(schedulers, "_SAMPLE_CHUNK", 3)
        chunked = run(stop)
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
        original = objective.record_pass

        def counted(*args):
            calls.append(args)
            return original(*args)

        # both bindings, so a second pass through the public functions counts too
        monkeypatch.setattr(objective, "record_pass", counted)
        monkeypatch.setattr(schedulers, "record_pass", counted)
        observer = (lambda k, lam, mu: None) if observed else None
        trace = solve(alg, model, self.ETA, self.ITERS, 5, stride=7, observer=observer)
        assert trace.iterations.tolist() == [0, 7, 14, 21, 28, 30]
        assert len(calls) == len(trace.iterations)


class TestNonFiniteRecord:
    """At eta = 1e308 the zero dual's log-marginals overflow: record 0 has
    dual inf and slack score nan.  That is a ``ValidationError`` naming the
    iteration and eta, for every algorithm, rather than a trace with no best
    iterate or a NaN final lambda."""

    MODEL = erdos_renyi_potts(6, 0.6, 2, 0)

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_overflowing_eta_is_a_validation_error(self, algorithm):
        with np.errstate(all="ignore"):
            with pytest.raises(ValidationError, match=r"^record at k=0 is not finite "
                                                      r"\(dual inf, slack score nan\) at eta=1e\+308$"):
                solve(algorithm, self.MODEL, 1e308, 3, 0)

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_largest_finite_eta_records_finite_values(self, algorithm):
        with np.errstate(all="ignore"):
            trace = solve(algorithm, self.MODEL, 1e307, 3, 0)
        assert np.isfinite(trace.dual_values).all() and np.isfinite(trace.slack_scores).all()
        assert np.isfinite(trace.final_lambda).all()


class TestConcurrentSolves:
    """A ``Model`` is shareable across threads, and the update kernels keep
    per-thread scratch: solves of all six algorithms run concurrently on one
    model give the bytes of the same solves run one after another."""

    def test_threads_give_the_sequential_bytes(self):
        model = erdos_renyi_potts(12, 0.3, 3, seed=5)
        jobs = [(algorithm, seed) for seed in range(2) for algorithm in ALGORITHMS]

        def run(algorithm, seed):
            trace = solve(algorithm, model, 50.0, 1500, seed, stride=100)
            return trace.final_lambda.tobytes(), trace.dual_values.tobytes(), trace.slack_scores.tobytes()

        want = [run(*job) for job in jobs]
        got = [None] * len(jobs)
        start = threading.Barrier(len(jobs))

        def worker(i):
            start.wait(timeout=60)
            got[i] = run(*jobs[i])

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(len(jobs))]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads between almost any two NumPy calls
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        for job, g, w in zip(jobs, got, want):
            assert g == w, job
