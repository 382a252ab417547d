import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import random_model, shift_toward_uniform

import mapmp
from mapmp import (
    Marginals,
    ValidationError,
    in_local_polytope,
    proj,
    recover_primal,
    round_to_transport,
    slack,
    vertex_round,
    zero_dual,
)


def random_transport_case(rng, d):
    p = rng.random((d, d)) + 1e-3
    p /= p.sum()
    r = rng.random(d) + 1e-3
    r /= r.sum()
    c = rng.random(d) + 1e-3
    c /= c.sum()
    return p, r, c


class TestRoundToTransport:
    def test_already_consistent_is_unchanged(self):
        rng = np.random.default_rng(0)
        p, r, c = random_transport_case(rng, 3)
        out = round_to_transport(p, p.sum(axis=1), p.sum(axis=0))
        np.testing.assert_allclose(out, p, atol=1e-14)

    def test_hand_executed_example(self):
        out = round_to_transport(
            [[1.0, 0.0], [0.0, 0.0]], [0.5, 0.5], [0.5, 0.5]
        )
        np.testing.assert_allclose(out, [[0.5, 0.0], [0.0, 0.5]], atol=1e-15)

    def test_property_run(self):
        rng = np.random.default_rng(1)
        for _ in range(1000):
            d = int(rng.integers(2, 6))
            p, r, c = random_transport_case(rng, d)
            out = round_to_transport(p, r, c)
            np.testing.assert_allclose(out.sum(axis=1), r, atol=1e-10)
            np.testing.assert_allclose(out.sum(axis=0), c, atol=1e-10)
            assert out.min() >= -1e-12
            movement = np.abs(out - p).sum()
            bound = 2.0 * (
                np.abs(r - p.sum(axis=1)).sum() + np.abs(c - p.sum(axis=0)).sum()
            )
            assert movement <= bound + 1e-10

    @given(st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=100, deadline=None)
    def test_property_hypothesis_seeds(self, seed):
        rng = np.random.default_rng(seed)
        p, r, c = random_transport_case(rng, 3)
        out = round_to_transport(p, r, c)
        np.testing.assert_allclose(out.sum(axis=1), r, atol=1e-10)
        np.testing.assert_allclose(out.sum(axis=0), c, atol=1e-10)
        assert out.min() >= -1e-12

    def test_mass_mismatch_rejected(self):
        with pytest.raises(ValidationError, match="mass"):
            round_to_transport(np.full((2, 2), 0.3), [0.5, 0.5], [0.5, 0.5])
        with pytest.raises(ValidationError, match="mass"):
            round_to_transport(np.full((2, 2), 0.25), [0.7, 0.5], [0.5, 0.5])

    def test_negative_targets_rejected(self):
        with pytest.raises(ValidationError, match="nonnegative"):
            round_to_transport(np.full((2, 2), 0.25), [1.2, -0.2], [0.5, 0.5])

    @pytest.mark.parametrize("d", [2, 3, 5])
    def test_stack_equals_per_matrix_calls(self, d):
        rng = np.random.default_rng(d)
        cases = [random_transport_case(rng, d) for _ in range(20)]
        zero_row, r, c = random_transport_case(rng, d)
        zero_row[1] = 0.0
        cases.append((zero_row / zero_row.sum(), r, c))
        zero_col, r, c = random_transport_case(rng, d)
        zero_col[:, 0] = 0.0
        cases.append((zero_col / zero_col.sum(), r, c))
        p, _, _ = random_transport_case(rng, d)
        cases.append((p, p.sum(axis=1), p.sum(axis=0)))  # no rank-one correction
        p, r, c = (np.array(x) for x in zip(*cases))
        stacked = round_to_transport(p, r, c)
        singles = np.array([round_to_transport(*case) for case in cases])
        assert np.array_equal(stacked, singles)
        np.testing.assert_array_equal(p, np.array([case[0] for case in cases]))

    def test_non_finite_inputs_rejected(self):
        half = [0.5, 0.5]
        with pytest.raises(ValidationError, match="non-finite"):
            round_to_transport(np.full((2, 2), np.nan), half, half)
        with pytest.raises(ValidationError, match="non-finite"):
            round_to_transport(np.full((2, 2), 0.25), [np.inf, 0.5], half)
        with pytest.raises(ValidationError, match="non-finite"):
            round_to_transport(np.full((3, 2, 2), 0.25), np.full((3, 2), 0.5),
                               [half, half, [np.nan, 0.5]])

    def test_stack_shape_mismatch_rejected(self):
        with pytest.raises(ValidationError, match="square"):
            round_to_transport(np.full((3, 2, 2), 0.25), np.full((2, 2), 0.5), np.full((3, 2), 0.5))


class TestProj:
    def test_consistent_point_unchanged(self):
        rng = np.random.default_rng(2)
        m = random_model(rng, 4, 3)
        mu = recover_primal(m, zero_dual(m), 1.0)
        mu_uniform = Marginals(
            np.full((m.n, m.d), 1.0 / m.d), np.full((m.m, m.d, m.d), 1.0 / m.d**2)
        )
        out = proj(m, mu_uniform)
        np.testing.assert_allclose(out.vertex, mu_uniform.vertex, atol=1e-14)
        np.testing.assert_allclose(out.edge, mu_uniform.edge, atol=1e-14)

    def test_recovered_point_lands_in_polytope_with_movement_bound(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            m = random_model(rng, 5, 3)
            lam = rng.normal(size=(m.m, 2, m.d))
            eta = float(rng.choice([1.0, 10.0, 100.0]))
            mu = recover_primal(m, lam, eta)
            out = proj(m, mu)
            assert in_local_polytope(m, out, 1e-8)
            np.testing.assert_array_equal(out.vertex, mu.vertex)
            movement = np.abs(out.edge - mu.edge).sum()
            bound = 2.0 * np.abs(slack(m, lam, eta)).sum()
            assert movement <= bound + 1e-8

    def test_projection_into_own_slack_polytope_is_identity(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            m = random_model(rng, 4, 3)
            lam = rng.normal(size=(m.m, 2, m.d))
            mu = recover_primal(m, lam, 5.0)
            out = proj(m, mu, slack(m, lam, 5.0))
            np.testing.assert_allclose(out.edge, mu.edge, atol=1e-10)

    def test_idempotent(self):
        rng = np.random.default_rng(5)
        m = random_model(rng, 4, 3)
        lam = rng.normal(size=(m.m, 2, m.d))
        once = proj(m, recover_primal(m, lam, 10.0))
        twice = proj(m, once)
        np.testing.assert_allclose(twice.edge, once.edge, atol=1e-10)
        np.testing.assert_allclose(twice.vertex, once.vertex, atol=1e-15)

    def test_uniform_shift_enters_slack_polytope_with_distance_bound(self):
        # chain used by the approximation analysis: mix any feasible point's
        # vertex blocks toward uniform by theta = d * delta, project with the
        # slack offset, and land in the slack polytope while moving at most
        # 16 (m + n) d delta + 2 * sum of slack norms in l1
        rng = np.random.default_rng(8)
        checked = 0
        attempts = 0
        while checked < 20 and attempts < 200:
            attempts += 1
            m = random_model(rng, 5, 3)
            eta = 10.0
            warm = mapmp.standard_mp(
                m, "emp", eta, int(rng.integers(50, 400)), seed=attempts
            )
            lam = warm.final_lambda
            nu = slack(m, lam, eta)
            delta = float(np.abs(nu).sum(axis=2).max())
            if not 0 < delta <= 1.0 / (2.0 * m.d):
                continue
            checked += 1
            base = Marginals(
                np.full((m.n, m.d), 1.0 / m.d), np.full((m.m, m.d, m.d), 1.0 / m.d**2)
            )
            shifted = Marginals(
                shift_toward_uniform(base.vertex, delta, m.d), base.edge.copy()
            )
            out = proj(m, shifted, nu)
            assert mapmp.in_slack_polytope(m, out, nu, 1e-8)
            distance = (
                np.abs(out.vertex - base.vertex).sum()
                + np.abs(out.edge - base.edge).sum()
            )
            bound = 16.0 * (m.m + m.n) * m.d * delta + 2.0 * np.abs(nu).sum()
            assert distance <= bound + 1e-8
        assert checked == 20

    def test_bad_targets_rejected(self):
        rng = np.random.default_rng(6)
        m = random_model(rng, 3, 2)
        mu = recover_primal(m, zero_dual(m), 1.0)
        nu = np.full((m.m, 2, m.d), 0.7)  # pushes targets far outside the simplex
        with pytest.raises(ValidationError, match="simplex"):
            proj(m, mu, nu)

    def test_first_offending_edge_is_named(self):
        rng = np.random.default_rng(6)
        m = random_model(rng, 4, 2)
        mu = recover_primal(m, zero_dual(m), 1.0)
        nu = np.zeros((m.m, 2, m.d))
        nu[2, 1] = [0.4, -0.4 - mu.vertex[m.edges[2, 1], 1] - 0.1]
        nu[3, 0] = 5.0
        with pytest.raises(ValidationError, match="edge 2: offset column targets"):
            proj(m, mu, nu)

    def test_non_finite_vertex_entry_rejected(self):
        rng = np.random.default_rng(9)
        m = random_model(rng, 4, 3)
        mu = recover_primal(m, zero_dual(m), 1.0)
        mu.vertex[1, 2] = np.nan
        with pytest.raises(ValidationError, match="simplex"):
            proj(m, mu)


class TestVertexRound:
    def test_plain_argmax(self):
        mu = Marginals(np.array([[0.7, 0.3]]), np.zeros((0, 2, 2)))
        assert vertex_round(mu).tolist() == [0]

    def test_tie_breaks_to_smallest_label(self):
        mu = Marginals(np.array([[0.5, 0.5], [0.2, 0.2]]), np.zeros((0, 2, 2)))
        assert vertex_round(mu).tolist() == [0, 0]

    def test_idempotent_on_integral_marginals(self):
        labels = np.array([2, 0, 1])
        vertex = np.zeros((3, 3))
        vertex[np.arange(3), labels] = 1.0
        mu = Marginals(vertex, np.zeros((0, 3, 3)))
        assert vertex_round(mu).tolist() == labels.tolist()

    def test_invariant_under_positive_scaling(self):
        rng = np.random.default_rng(7)
        vertex = rng.random((6, 4))
        mu = Marginals(vertex, np.zeros((0, 4, 4)))
        scaled = Marginals(vertex * rng.uniform(0.1, 9.0, size=(6, 1)), np.zeros((0, 4, 4)))
        assert vertex_round(mu).tolist() == vertex_round(scaled).tolist()

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_entries_rejected(self, value):
        m = mapmp.erdos_renyi_potts(6, 0.5, 3, 0)
        mu = recover_primal(m, zero_dual(m), 1.0)
        mu.vertex[0, 0] = value
        with pytest.raises(ValidationError, match="^vertex_round requires finite entries$"):
            vertex_round(mu)
