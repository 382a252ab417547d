import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import fd_gradient, naive_dual, naive_slack, random_model, zeros_model

import mapmp
from mapmp import (
    Marginals,
    ValidationError,
    build_model,
    dual_and_slack,
    dual_objective,
    entropy,
    erdos_renyi_potts,
    in_local_polytope,
    in_slack_polytope,
    map_value,
    primal_objective,
    recover_primal,
    slack,
    zero_dual,
)
from mapmp.model import Model
from mapmp.objective import _exp, _lse, fold

LOG2 = np.log(2.0)


@pytest.fixture
def two_node():
    return zeros_model(2, [(0, 1)], 2)


class TestPrimalObjective:
    def test_zero_costs(self, two_node):
        mu = recover_primal(two_node, zero_dual(two_node), 1.0)
        assert primal_objective(two_node, mu) == 0.0

    def test_uniform_marginals_give_mean_costs(self):
        rng = np.random.default_rng(0)
        m = random_model(rng, 4, 3)
        mu = Marginals(
            np.full((m.n, m.d), 1.0 / m.d), np.full((m.m, m.d, m.d), 1.0 / m.d**2)
        )
        expected = m.vertex_costs.mean(axis=1).sum() + m.edge_costs.mean(axis=(1, 2)).sum()
        assert primal_objective(m, mu) == pytest.approx(expected, rel=1e-12)

    def test_indicator_marginals_match_map_value(self):
        m = build_model(
            2, [(0, 1)], 2, [[0.0, 0.1], [0.0, 0.0]], [[[0.0, 1.0], [1.0, 0.0]]]
        )
        mu = Marginals(np.array([[1.0, 0.0], [1.0, 0.0]]), np.zeros((1, 2, 2)))
        mu.edge[0, 0, 0] = 1.0
        assert primal_objective(m, mu) == pytest.approx(map_value(m, [0, 0]), abs=1e-15)

    def test_shape_mismatch_rejected(self, two_node):
        with pytest.raises(ValidationError):
            primal_objective(two_node, Marginals(np.zeros((3, 2)), np.zeros((1, 2, 2))))

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_entries_rejected(self, value):
        m = erdos_renyi_potts(6, 0.5, 3, 0)
        for block in ("vertex", "edge"):
            mu = recover_primal(m, zero_dual(m), 1.0)
            getattr(mu, block).flat[0] = value
            with pytest.raises(ValidationError, match="^primal_objective requires finite entries$"):
                primal_objective(m, mu)


class TestEntropy:
    def test_uniform_single_block(self):
        mu = Marginals(np.array([[0.5, 0.5]]), np.zeros((0, 2, 2)))
        assert entropy(mu) == pytest.approx(LOG2 + 1.0, abs=1e-14)

    def test_point_mass_block(self):
        mu = Marginals(np.array([[1.0, 0.0]]), np.zeros((0, 2, 2)))
        assert entropy(mu) == pytest.approx(1.0, abs=0)

    def test_uniform_two_node_model(self, two_node):
        mu = recover_primal(two_node, zero_dual(two_node), 1.0)
        expected = 2.0 * (LOG2 + 1.0) + (np.log(4.0) + 1.0)
        assert entropy(mu) == pytest.approx(expected, abs=1e-12)

    def test_nan_entries_rejected(self):
        mu = Marginals(np.array([[np.nan, 0.5]]), np.zeros((0, 2, 2)))
        with pytest.raises(ValidationError):
            entropy(mu)
        mu = Marginals(np.full((2, 2), 0.5), np.array([[[0.25, np.nan], [0.25, 0.25]]]))
        with pytest.raises(ValidationError):
            entropy(mu)

    @pytest.mark.parametrize("value", [np.inf, -np.inf])
    def test_infinite_entries_rejected(self, value):
        mu = Marginals(np.array([[value, 0.5]]), np.zeros((0, 2, 2)))
        with pytest.raises(ValidationError, match="^entropy requires finite, nonnegative entries$"):
            entropy(mu)
        mu = Marginals(np.full((2, 2), 0.5), np.array([[[0.25, value], [0.25, 0.25]]]))
        with pytest.raises(ValidationError, match="^entropy requires finite, nonnegative entries$"):
            entropy(mu)

    def test_negative_entries_rejected(self):
        mu = Marginals(np.array([[1.1, -0.1]]), np.zeros((0, 2, 2)))
        with pytest.raises(ValidationError):
            entropy(mu)

    def test_recovered_entropy_in_stated_range(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            m = random_model(rng, 4, 3)
            lam = rng.normal(size=(m.m, 2, m.d))
            mu = recover_primal(m, lam, 5.0)
            h = entropy(mu)
            lo = m.n + m.m
            hi = m.n * (1 + np.log(m.d)) + m.m * (1 + 2 * np.log(m.d))
            assert lo - 1e-9 <= h <= hi + 1e-9


class TestRecoverPrimal:
    def test_zero_everything_is_uniform(self, two_node):
        mu = recover_primal(two_node, zero_dual(two_node), 1.0)
        np.testing.assert_allclose(mu.vertex, 0.5, atol=1e-15)
        np.testing.assert_allclose(mu.edge, 0.25, atol=1e-15)

    def test_hand_softmax(self):
        m = build_model(
            2, [(0, 1)], 2, [[0.0, np.log(3.0)], [0.0, 0.0]], np.zeros((1, 2, 2))
        )
        mu = recover_primal(m, zero_dual(m), 1.0)
        np.testing.assert_allclose(mu.vertex[0], [0.75, 0.25], atol=1e-15)

    def test_blocks_normalized(self):
        rng = np.random.default_rng(2)
        for eta in (1.0, 10.0, 1e4):
            m = random_model(rng, 5, 3)
            lam = rng.normal(size=(m.m, 2, m.d)) * 3.0
            mu = recover_primal(m, lam, eta)
            np.testing.assert_allclose(mu.vertex.sum(axis=1), 1.0, atol=1e-12)
            np.testing.assert_allclose(mu.edge.sum(axis=(1, 2)), 1.0, atol=1e-12)
            assert mu.vertex.min() >= 0 and mu.edge.min() >= 0


class TestDualObjective:
    def test_zero_model_value(self, two_node):
        assert dual_objective(two_node, zero_dual(two_node), 1.0) == pytest.approx(
            4.0 * LOG2, abs=1e-14
        )

    def test_initial_value_bound(self):
        rng = np.random.default_rng(3)
        for eta in (0.5, 1.0, 100.0):
            m = random_model(rng, 5, 3)
            value = dual_objective(m, zero_dual(m), eta)
            c_inf = m.cost_inf_norm
            bound = (m.n + m.m) * c_inf + (m.n + 2 * m.m) * np.log(m.d) / eta
            assert value <= bound + 1e-9

    def test_matches_naive_recomputation(self):
        rng = np.random.default_rng(4)
        m = random_model(rng, 4, 2)
        lam = rng.normal(size=(m.m, 2, m.d))
        assert dual_objective(m, lam, 3.0) == pytest.approx(
            naive_dual(m, lam, 3.0), abs=1e-12
        )

    def test_block_shift_changes_value_as_recomputed(self):
        # shifting one block moves the vertex and edge terms by +c and -c;
        # verify against full recomputation rather than trusting the algebra
        rng = np.random.default_rng(5)
        m = random_model(rng, 4, 3)
        lam = rng.normal(size=(m.m, 2, m.d))
        base = dual_objective(m, lam, 2.0)
        shifted = lam.copy()
        shifted[1, 0] += 0.37
        again = dual_objective(m, shifted, 2.0)
        assert again == pytest.approx(naive_dual(m, shifted, 2.0), abs=1e-12)
        assert again == pytest.approx(base, abs=1e-10)  # per-block gauge freedom

    def test_convex_along_segments(self):
        rng = np.random.default_rng(6)
        m = random_model(rng, 4, 3)
        for _ in range(20):
            a = rng.normal(size=(m.m, 2, m.d))
            b = rng.normal(size=(m.m, 2, m.d))
            alpha = rng.random()
            mixed = dual_objective(m, alpha * a + (1 - alpha) * b, 4.0)
            bound = alpha * dual_objective(m, a, 4.0) + (1 - alpha) * dual_objective(
                m, b, 4.0
            )
            assert mixed <= bound + 1e-10

    def test_eta_rejected_when_not_positive(self, two_node):
        with pytest.raises(ValidationError):
            dual_objective(two_node, zero_dual(two_node), 0.0)


class TestSlack:
    def test_zero_at_uniform(self, two_node):
        nu = slack(two_node, zero_dual(two_node), 1.0)
        assert np.abs(nu).max() == 0.0

    def test_blocks_sum_to_zero(self):
        rng = np.random.default_rng(7)
        m = random_model(rng, 5, 3)
        lam = rng.normal(size=(m.m, 2, m.d))
        nu = slack(m, lam, 10.0)
        np.testing.assert_allclose(nu.sum(axis=2), 0.0, atol=1e-12)

    def test_matches_naive_and_finite_differences(self):
        rng = np.random.default_rng(8)
        m = random_model(rng, 4, 3)
        lam = rng.normal(size=(m.m, 2, m.d)) * 0.5
        nu = slack(m, lam, 5.0)
        np.testing.assert_allclose(nu, naive_slack(m, lam, 5.0), atol=1e-12)
        grad = fd_gradient(m, lam, 5.0)
        err = np.linalg.norm(grad + nu) / max(np.linalg.norm(grad), 1e-10)
        assert err <= 1e-5

    def test_dual_and_slack_consistent(self):
        rng = np.random.default_rng(9)
        m = random_model(rng, 4, 2)
        lam = rng.normal(size=(m.m, 2, m.d))
        dual, nu = dual_and_slack(m, lam, 2.0)
        assert dual == dual_objective(m, lam, 2.0)
        np.testing.assert_array_equal(nu, slack(m, lam, 2.0))


class TestPolytopeMembership:
    def test_uniform_in_local_polytope_at_zero_tol(self, two_node):
        mu = recover_primal(two_node, zero_dual(two_node), 1.0)
        assert in_local_polytope(two_node, mu, tol=0.0)

    def test_perturbed_edge_entry_fails(self, two_node):
        mu = recover_primal(two_node, zero_dual(two_node), 1.0)
        bad = Marginals(mu.vertex.copy(), mu.edge.copy())
        bad.edge[0, 0, 0] += 1e-3
        assert not in_local_polytope(two_node, bad, tol=1e-6)

    def test_negative_vertex_entry_fails(self, two_node):
        mu = recover_primal(two_node, zero_dual(two_node), 1.0)
        bad = Marginals(mu.vertex.copy(), mu.edge.copy())
        bad.vertex[0] = [1.5, -0.5]  # still sums to one
        assert not in_local_polytope(two_node, bad, tol=1e-6)

    def test_negative_edge_entry_fails(self, two_node):
        mu = recover_primal(two_node, zero_dual(two_node), 1.0)
        bad = Marginals(mu.vertex.copy(), mu.edge.copy())
        bad.edge[0] += [[0.5, -0.5], [-0.5, 0.5]]  # row and column sums unchanged
        assert bad.edge.min() == -0.25
        assert not in_local_polytope(two_node, bad, tol=1e-6)

    def test_slack_polytope_reduces_to_local_at_zero(self):
        rng = np.random.default_rng(10)
        for _ in range(10):
            m = random_model(rng, 4, 3)
            lam = rng.normal(size=(m.m, 2, m.d)) * rng.choice([0.0, 0.5])
            mu = recover_primal(m, lam, 1.0)
            zeros = np.zeros((m.m, 2, m.d))
            assert in_slack_polytope(m, mu, zeros, 1e-8) == in_local_polytope(
                m, mu, 1e-8
            )

    def test_recovered_point_lies_in_own_slack_polytope(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            m = random_model(rng, 5, 3)
            lam = rng.normal(size=(m.m, 2, m.d))
            mu = recover_primal(m, lam, 7.0)
            nu = slack(m, lam, 7.0)
            assert in_slack_polytope(m, mu, nu, 1e-10)

    def test_nonzero_block_sum_offsets_fail(self):
        rng = np.random.default_rng(12)
        m = random_model(rng, 4, 2)
        mu = recover_primal(m, zero_dual(m), 1.0)
        nu = np.zeros((m.m, 2, m.d))
        nu[0, 0, :] = 0.01  # block sums to 0.02, mass cannot balance
        assert not in_slack_polytope(m, mu, nu, 1e-6)

    def test_nan_tol_rejected_by_local_polytope(self):
        n, d = 3, 2
        empty = np.zeros(0, dtype=np.int64)
        edgeless = Model(n=n, d=d, edges=np.zeros((0, 2), dtype=np.int64),
                         vertex_costs=np.zeros((n, d)), edge_costs=np.zeros((0, d, d)),
                         degrees=np.zeros(n, dtype=np.int64),
                         incident_edges=(empty,) * n, incident_slots=(empty,) * n)
        garbage = Marginals(np.full((n, d), 7.0), np.zeros((0, d, d)))
        assert not in_local_polytope(edgeless, garbage, 0.5)
        with pytest.raises(ValidationError, match="^tol must be a nonnegative finite number, got nan$"):
            in_local_polytope(edgeless, garbage, tol=float("nan"))

    def test_nan_tol_rejected_by_slack_polytope(self):
        m = erdos_renyi_potts(20, 0.3, 3, 5)
        lam = np.random.default_rng(14).normal(size=(m.m, 2, m.d))
        mu, nu = recover_primal(m, lam, 4.0), slack(m, lam, 4.0)
        assert in_slack_polytope(m, mu, nu, 1e-10)
        with pytest.raises(ValidationError, match="^tol must be a nonnegative finite number, got nan$"):
            in_slack_polytope(m, mu, nu, float("nan"))

    def test_wrongly_shaped_slack_rejected_like_proj(self):
        m = random_model(np.random.default_rng(13), 4, 3)
        mu = recover_primal(m, zero_dual(m), 1.0)
        for shape in ((m.m, 2, 2), (m.m + 1, 2, 3), (3,)):
            message = re.escape(f"slack offset has shape {shape}, expected {(m.m, 2, 3)}")
            for check in (in_slack_polytope, mapmp.proj):
                with pytest.raises(ValidationError, match=f"^{message}$"):
                    check(m, mu, np.zeros(shape))


def lse_reference(a, axis):
    """Log-sum-exp through the ``np.max`` and ``ndarray.sum`` wrappers;
    ``_lse`` must agree with it bit for bit."""
    amax = np.max(a, axis=axis, keepdims=True)
    out = np.log(np.exp(a - amax).sum(axis=axis, keepdims=True)) + amax
    return out.squeeze(axis)


class TestLogSumExp:
    @pytest.mark.parametrize(
        "shape, axis",
        [((5,), 0), ((7, 3), 1), ((7, 3), 0), ((4, 3, 3), (1, 2)), ((4, 3, 3), 2),
         ((4, 3, 3), 1), ((0, 3, 3), (1, 2))],
    )
    def test_matches_the_numpy_wrapper_formula_exactly(self, shape, axis):
        rng = np.random.default_rng(21)
        for scale in (1.0, 1e3, 1e9):
            a = rng.normal(size=shape) * scale
            np.testing.assert_array_equal(_lse(a, axis), lse_reference(a, axis))

    def test_rows_with_minus_infinity(self):
        a = np.array([[0.5, -np.inf, 2.0], [-np.inf, -np.inf, -1.0], [-np.inf] * 3])
        with np.errstate(invalid="ignore"):  # the all -inf row gives -inf - -inf
            for axis in (1, (1,)):
                got = _lse(a, axis)
                np.testing.assert_array_equal(got, lse_reference(a, axis))
                assert got[1] == -1.0 and np.isnan(got[2])
            blocks = np.stack([a, a.T])
            np.testing.assert_array_equal(_lse(blocks, (1, 2)), lse_reference(blocks, (1, 2)))

    def test_input_left_untouched(self):
        a = np.random.default_rng(22).normal(size=(3, 4))
        before = a.copy()
        _lse(a, 1)
        assert np.array_equal(a, before)


class TestFold:
    @pytest.mark.parametrize("d", [2, 3, 5, 7, 8, 9])
    @pytest.mark.parametrize("rows", [1, 4, 20])
    def test_matches_ufunc_reduce(self, d, rows):
        # the Fortran and transposed layouts fold along strided axes
        rng = np.random.default_rng([47, d, rows])
        base = rng.normal(size=(rows, d, d)) * 10.0 ** rng.integers(-3, 4, size=(rows, d, d))
        for a in (base, np.asfortranarray(base), base.transpose(0, 2, 1)):
            for ufunc in (np.add, np.maximum, np.minimum):
                for axis in (0, 1, 2, (1, 2)):
                    for keepdims in (False, True):
                        got = fold(ufunc, a, axis, keepdims)
                        ref = ufunc.reduce(a, axis=axis, keepdims=keepdims)
                        assert got.shape == ref.shape
                        assert got.tobytes() == ref.tobytes()

    def test_lse_over_a_folded_axis_matches_the_wrapper_formula(self):
        rng = np.random.default_rng(53)
        for shape, axis in (((300, 3), 1), ((60, 3, 3), 1), ((60, 3, 3), 2)):
            a = rng.normal(size=shape) * 1e3
            np.testing.assert_array_equal(_lse(a, axis), lse_reference(a, axis))


# Values on every side of the underflow mask: NaN, +-inf, +-0.0, the band
# whose exps are subnormal, values below -750 and the float neighbours of
# -750, plus any float.
EXP_VALUES = st.one_of(
    st.sampled_from([np.nan, -np.nan, np.inf, -np.inf, 0.0, -0.0, -750.0,
                     np.nextafter(-750.0, -np.inf), np.nextafter(-750.0, 0.0)]),
    st.floats(-745.2, -708.4, exclude_min=True, exclude_max=True),
    st.floats(max_value=-750.0, allow_infinity=False),
    st.floats(),
)


class TestMaskedExp:
    @given(
        st.lists(EXP_VALUES, min_size=1, max_size=40),
        st.integers(1, 1536),
        st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=300, deadline=None)
    def test_same_bytes_as_numpy_exp(self, values, size, seed):
        # 1 to 1536 entries; values shuffled over the array
        a = np.random.default_rng(seed).permutation(np.resize(np.array(values), size))
        before = a.tobytes()
        with np.errstate(all="ignore"):
            ref = np.exp(a)
            got = _exp(a)
            assert a.tobytes() == before
            assert got.tobytes() == ref.tobytes()
            out = a.copy()
            assert _exp(out, out=out) is out
            assert out.tobytes() == ref.tobytes()

    def test_below_the_mask_numpy_exp_is_positive_zero(self):
        # the premise of the mask: exp of every float below -750 is +0.0
        grid = np.concatenate([
            np.linspace(-1e4, -750.0, 1_000_001),
            -np.logspace(np.log10(750.0), 308.0, 100_001),
            [np.nextafter(-750.0, -np.inf), -np.finfo(np.float64).max],
        ])
        assert grid.max() <= -750.0
        got = np.exp(grid)
        assert not got.any() and not np.signbit(got).any()
