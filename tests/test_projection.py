import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import random_model, shift_toward_uniform, temporary_building_round_to_transport

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
        with pytest.raises(ValidationError, match="^matrix 0: row targets leave the simplex"):
            round_to_transport(np.full((2, 2), 0.25), [0.7, 0.5], [0.5, 0.5])

    def test_negative_targets_rejected(self):
        with pytest.raises(ValidationError, match="^matrix 0: row targets leave the simplex"):
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
        with pytest.raises(ValidationError, match="^matrix 0: row targets leave the simplex"):
            round_to_transport(np.full((2, 2), 0.25), [np.inf, 0.5], half)
        with pytest.raises(ValidationError, match="^matrix 2: column targets leave the simplex"):
            round_to_transport(np.full((3, 2, 2), 0.25), np.full((3, 2), 0.5),
                               [half, half, [np.nan, 0.5]])

    def test_stack_shape_mismatch_rejected(self):
        with pytest.raises(ValidationError, match="square"):
            round_to_transport(np.full((3, 2, 2), 0.25), np.full((2, 2), 0.5), np.full((3, 2), 0.5))


def half_stack(k, d=2):
    """k uniform (d, d) matrices with uniform row and column targets."""
    return np.full((k, d, d), 1.0 / d**2), np.full((k, d), 1.0 / d), np.full((k, d), 1.0 / d)


class TestOneCheckOrder:
    """Both entries check in one order, with one message style: shapes, then
    one simplex mask over the row and column targets naming the first bad
    (matrix, side) in matrix-major order, then matrix finiteness, then no
    negative matrix entry, naming the first such matrix, then matrix mass."""

    FAULTS = {
        "negative": [1.2, -0.2],
        "mass": [0.5, 0.5 + 2e-10],
        "nan": [np.nan, 0.5],
        "inf": [np.inf, 0.5],
    }

    @pytest.mark.parametrize("fault", FAULTS)
    @pytest.mark.parametrize("side", [0, 1])
    def test_single_matrix_target_fault(self, fault, side):
        p, r, c = half_stack(1)
        (r, c)[side][0] = self.FAULTS[fault]
        message = f"^matrix 0: {('row', 'column')[side]} targets leave the simplex beyond 1e-10$"
        with pytest.raises(ValidationError, match=message):
            round_to_transport(p[0], r[0], c[0])

    @pytest.mark.parametrize("fault", FAULTS)
    @pytest.mark.parametrize("side", [0, 1])
    def test_stacked_target_fault(self, fault, side):
        p, r, c = half_stack(4)
        (r, c)[side][2] = self.FAULTS[fault]
        message = f"^matrix 2: {('row', 'column')[side]} targets leave the simplex beyond 1e-10$"
        with pytest.raises(ValidationError, match=message):
            round_to_transport(p, r, c)

    def test_a_target_within_the_tolerance_passes(self):
        p, r, c = half_stack(1)
        r[0] = [0.5 + 5e-11, 0.5]
        c[0] = [1.0 + 5e-11, -5e-11]
        out = round_to_transport(p, r, c)
        assert np.isfinite(out).all() and out.min() >= 0.0

    @pytest.mark.parametrize(
        "faults, named",
        [
            ([(3, 0), (1, 1)], "matrix 1: column"),  # matrix before side
            ([(1, 1), (1, 0)], "matrix 1: row"),  # row before column in one matrix
            ([(2, 0), (0, 1), (0, 0)], "matrix 0: row"),
        ],
    )
    def test_first_fault_in_matrix_major_order_is_named(self, faults, named):
        p, r, c = half_stack(4)
        for k, side in faults:
            (r, c)[side][k] = [0.7, 0.5]
        with pytest.raises(ValidationError, match=f"^{named} targets leave the simplex"):
            round_to_transport(p, r, c)

    def test_target_fault_is_named_before_a_bad_matrix(self):
        p, r, c = half_stack(3)
        p[0] = np.nan
        c[1] = [-1.0, 2.0]
        with pytest.raises(ValidationError, match="^matrix 1: column targets leave the simplex"):
            round_to_transport(p, r, c)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_matrix_with_valid_targets(self, value):
        p, r, c = half_stack(3)
        p[1, 0, 1] = value
        with pytest.raises(ValidationError, match="^matrices must not have non-finite entries$"):
            round_to_transport(p, r, c)
        with pytest.raises(ValidationError, match="^matrices must not have non-finite entries$"):
            round_to_transport(p[1], r[1], c[1])

    def test_first_matrix_of_wrong_mass_is_named(self):
        p, r, c = half_stack(3)
        p[1] *= 1.2
        p[2] *= 0.5
        with pytest.raises(ValidationError, match=r"^matrix 1: mass 1\.2 differs from 1 beyond 1e-10$"):
            round_to_transport(p, r, c)
        with pytest.raises(ValidationError, match=r"^matrix 0: mass 0\.5 differs from 1 beyond 1e-10$"):
            round_to_transport(p[2], r[2], c[2])

    def test_negative_entry_is_named_in_a_single_matrix_and_a_stack(self):
        # unchecked, the rounding returned points outside the transportation polytope
        p, r, c = half_stack(4)
        p[2, 0] = [-0.1, 0.6]
        with pytest.raises(ValidationError, match=r"^matrix 2: negative entry -0\.1$"):
            round_to_transport(p, r, c)
        with pytest.raises(ValidationError, match=r"^matrix 0: negative entry -0\.1$"):
            round_to_transport(p[2], r[2], c[2])

    def test_non_finite_matrix_is_named_before_a_negative_one(self):
        p, r, c = half_stack(3)
        p[0, 0, 0] = np.nan
        p[1, 0] = [-0.1, 0.6]
        with pytest.raises(ValidationError, match="^matrices must not have non-finite entries$"):
            round_to_transport(p, r, c)

    def test_negative_entry_is_named_before_a_wrong_mass(self):
        p, r, c = half_stack(3)
        p[0] *= 1.2
        p[1, 0] = [-0.1, 0.6]
        with pytest.raises(ValidationError, match=r"^matrix 1: negative entry -0\.1$"):
            round_to_transport(p, r, c)

    def test_negative_zero_entry_passes(self):
        p, r, c = half_stack(1)
        p[0, 0] = [0.5, -0.0]
        out = round_to_transport(p, r, c)
        assert out.min() >= 0.0
        np.testing.assert_allclose(out.sum(axis=2), r, atol=1e-15)
        np.testing.assert_allclose(out.sum(axis=1), c, atol=1e-15)

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_empty_stack_returns_an_empty_stack(self, d):
        # the negative-entry check once reduced the empty stack with a bare p.min()
        out = round_to_transport(np.zeros((0, d, d)), np.zeros((0, d)), np.zeros((0, d)))
        assert out.shape == (0, d, d) and out.dtype == np.float64

    def test_empty_matrices_rejected(self):
        with pytest.raises(ValidationError, match="^expected nonempty square matrices"):
            round_to_transport(np.zeros((2, 0, 0)), np.zeros((2, 0)), np.zeros((2, 0)))

    @pytest.mark.parametrize("with_nu", [False, True])
    def test_proj_is_one_round_to_transport_call(self, with_nu):
        rng = np.random.default_rng(11)
        m = random_model(rng, 6, 3)
        lam = rng.normal(size=(m.m, 2, m.d))
        mu = recover_primal(m, lam, 5.0)
        nu = slack(m, lam, 5.0) if with_nu else None
        targets = mu.vertex[m.edges] + (nu if with_nu else 0.0)
        out = proj(m, mu, nu)
        expected = round_to_transport(mu.edge, targets[:, 0], targets[:, 1])
        assert out.edge.tobytes() == expected.tobytes()
        assert out.vertex.tobytes() == mu.vertex.tobytes() and out.vertex is not mu.vertex

    def test_proj_names_an_edge_as_its_matrix(self):
        rng = np.random.default_rng(12)
        m = random_model(rng, 5, 3)
        mu = recover_primal(m, zero_dual(m), 1.0)
        nu = np.zeros((m.m, 2, m.d))
        nu[m.m - 1, 0, 0] = np.nan
        with pytest.raises(ValidationError, match=f"^matrix {m.m - 1}: row targets leave the simplex"):
            proj(m, mu, nu)
        edge = mu.edge.copy()
        edge[0, 0, 0] = np.inf
        with pytest.raises(ValidationError, match="^matrices must not have non-finite entries$"):
            proj(m, Marginals(mu.vertex, edge))
        edge = mu.edge.copy()
        edge[m.m - 1, 0, 0] = -0.1
        with pytest.raises(ValidationError, match=rf"^matrix {m.m - 1}: negative entry -0\.1$"):
            proj(m, Marginals(mu.vertex, edge))


def rounding_case(rng, d, kind):
    """One (matrix, row targets, column targets) of unit mass: random, heavy
    tailed, with a zero row or column, with zero target entries, or with
    the matrix's own sums as targets (no row takes the correction)."""
    p = rng.pareto(0.5, (d, d)) if kind == "heavy" else rng.random((d, d)) + 1e-3
    r, c = rng.random(d) + 1e-3, rng.random(d) + 1e-3
    if kind == "zero row":
        p[rng.integers(d)] = 0.0
    elif kind == "zero column":
        p[:, rng.integers(d)] = 0.0
    elif kind == "zero targets":
        r[rng.integers(d)] = c[rng.integers(d)] = 0.0
    p /= p.sum()
    if kind == "consistent":
        return p, p.sum(axis=1), p.sum(axis=0)
    return p, r / r.sum(), c / c.sum()


ROUNDING_KINDS = ("random", "heavy", "zero row", "zero column", "zero targets", "consistent")


class TestInPlaceRounding:
    """The rounding that works on the buffers it owns gives the bytes of the
    one that built a quotient and an np.where temporary, and never writes
    into a caller's array."""

    @pytest.mark.parametrize("d", [2, 3, 5, 8, 9])
    @pytest.mark.parametrize("k", [1, 2, 40])
    @pytest.mark.parametrize("kinds", [ROUNDING_KINDS, ("consistent",)], ids=["mixed", "consistent"])
    def test_bytes_match_the_temporary_building_rounding(self, d, k, kinds):
        rng = np.random.default_rng([d, k, len(kinds)])
        for _ in range(5):
            cases = [rounding_case(rng, d, kinds[int(rng.integers(len(kinds)))]) for _ in range(k)]
            p, r, c = (np.array(x) for x in zip(*cases))
            got = round_to_transport(p, r, c)
            assert got.tobytes() == temporary_building_round_to_transport(p, r, c).tobytes()
            for case in cases:
                single = round_to_transport(*case)
                assert single.shape == (d, d)
                assert single.tobytes() == temporary_building_round_to_transport(*case).tobytes()

    @pytest.mark.parametrize("d", [2, 3, 9])
    def test_rounding_leaves_its_arguments_unchanged(self, d):
        rng = np.random.default_rng(d)
        cases = [rounding_case(rng, d, kind) for kind in ROUNDING_KINDS * 3]
        p, r, c = (np.array(x) for x in zip(*cases))
        rc = np.stack([r, c], axis=1)  # strided targets, as proj passes them
        for args in ((p, r, c), (p, rc[:, 0], rc[:, 1]), cases[0], cases[1]):
            before = [a.tobytes() for a in args]
            round_to_transport(*args)
            assert [a.tobytes() for a in args] == before

    @pytest.mark.parametrize("with_nu", [False, True])
    def test_proj_leaves_its_arguments_unchanged(self, with_nu):
        rng = np.random.default_rng(13)
        m = random_model(rng, 7, 3)
        lam = rng.normal(size=(m.m, 2, m.d))
        mu = recover_primal(m, lam, 5.0)
        nu = slack(m, lam, 5.0) if with_nu else None
        args = (m.vertex_costs, m.edge_costs, mu.vertex, mu.edge) + ((nu,) if with_nu else ())
        before = [a.tobytes() for a in args]
        out = proj(m, mu, nu)
        assert not np.array_equal(out.edge, mu.edge)  # the rounding moved mass
        assert [a.tobytes() for a in args] == before

    def test_transient_memory_of_proj_at_n5000(self):
        # n = 5000, m = 23526, d = 3: the edge stack is 1.69 MB.  Peak
        # measured with Python 3.11 / NumPy 2.4 at a solved dual point:
        # 8.04 MB including the returned blocks (10.8 MB when the correction
        # was a quotient added through an np.where temporary).  The bound
        # leaves 1.1x headroom: one more stack-sized temporary crosses it.
        model = mapmp.erdos_renyi_potts(5000, 1.1 * np.log(5000) / 5000, 3, 0)
        trace = mapmp.standard_mp(model, "smp", 1000.0, 5000, 0, stride=5000)
        mu = recover_primal(model, trace.final_lambda, 1000.0)
        tracemalloc.start()
        try:
            out = proj(model, mu)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert in_local_polytope(model, out, 1e-8)
        assert peak < 9_000_000


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
        with pytest.raises(ValidationError, match="^matrix 2: column targets leave the simplex"):
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
