"""The record path (dual value, slack, primal recovery, slack score and
projection) equals its first-written NumPy form in ``helpers`` bit for bit,
on both sides of the 8-entry threshold where NumPy's add reduction switches
from a left-to-right sum to pairwise summation, and where the exps mask
their underflowing entries.  Its slack blocks equal the update kernels'
local slack byte for byte."""

import numpy as np
import pytest

from helpers import (
    random_model,
    random_tree_model,
    reference_dual_and_slack,
    reference_dual_state,
    reference_proj,
    reference_recover_primal,
    reference_round_to_transport,
    reference_slack_score,
)

from mapmp import (
    Marginals,
    accel_smp,
    block_slack,
    build_model,
    dual_and_slack,
    dual_objective,
    erdos_renyi_potts,
    proj,
    recover_primal,
    round_to_transport,
    slack,
    slack_score,
    standard_mp,
    star_slack,
    zero_dual,
)
from mapmp.model import default_edge_prob
from mapmp.objective import record_pass

DS = [2, 3, 5, 7, 8, 9]
ETAS = [1.0, 1e3, 1e9]


def assert_same_bits(got, ref):
    got, ref = np.asarray(got), np.asarray(ref)
    assert got.dtype == ref.dtype and got.shape == ref.shape
    assert got.tobytes() == ref.tobytes()


def assert_record_path_matches(model, lam, eta):
    # the vertex logs hold the aggregate, summed in the reference's order
    value = record_pass(model, lam, eta)
    _, ref_log_v, ref_log_e, _ = reference_dual_state(model, lam, eta)
    assert_same_bits(value.log_vertex, ref_log_v)
    assert_same_bits(value.log_edge, ref_log_e)
    ref_dual, ref_nu = reference_dual_and_slack(model, lam, eta)
    dual, nu = dual_and_slack(model, lam, eta)
    assert_same_bits(dual, ref_dual)
    assert_same_bits(nu, ref_nu)
    assert_same_bits(dual_objective(model, lam, eta), ref_dual)
    assert_same_bits(slack(model, lam, eta), ref_nu)
    assert_same_bits(slack_score(nu), reference_slack_score(ref_nu))
    mu = recover_primal(model, lam, eta)
    ref_v, ref_e = reference_recover_primal(model, lam, eta)
    assert_same_bits(mu.vertex, ref_v)
    assert_same_bits(mu.edge, ref_e)
    # onto the local polytope, and onto the slack polytope of nu
    for offset, ref_offset in ((None, None), (nu, ref_nu)):
        got = proj(model, mu, offset)
        ref = reference_proj(model, ref_v, ref_e, ref_offset)
        assert_same_bits(got.vertex, ref[0])
        assert_same_bits(got.edge, ref[1])


def unit_mass_blocks(rng, shape, zero_frac):
    """Nonnegative blocks of unit mass over their last axes, with about
    ``zero_frac`` of the entries exactly 0 (never a whole block)."""
    blocks = rng.random(shape)
    blocks[rng.random(shape) < zero_frac] = 0.0
    axes = tuple(range(1, len(shape)))
    flat = blocks.reshape(shape[0], -1)
    flat[flat.sum(axis=1) == 0.0, 0] = 1.0
    return blocks / blocks.sum(axis=axes, keepdims=True)


class TestRecordPathBitIdentity:
    @pytest.mark.parametrize("eta", ETAS)
    @pytest.mark.parametrize("d", DS)
    def test_solver_iterates(self, d, eta):
        rng = np.random.default_rng([29, d])
        base = random_model(rng, 9, d, extra_edge_prob=0.4)
        for scale in (1.0, 1e6):
            model = build_model(
                base.n, base.edges, d, scale * base.vertex_costs, scale * base.edge_costs
            )
            iterate = accel_smp(model, eta, 200, seed=[d, 1], stride=200).final_lambda
            for lam in (zero_dual(model), iterate, -iterate, 1e6 * iterate):
                assert_record_path_matches(model, lam, eta)

    @pytest.mark.parametrize("eta", ETAS)
    @pytest.mark.parametrize("d", DS)
    def test_zero_costs_at_zero_lam(self, d, eta):
        # every edge logit is -eta * 0.0 = -0.0
        rng = np.random.default_rng([31, d])
        base = random_model(rng, 7, d)
        model = build_model(base.n, base.edges, d, np.zeros((base.n, d)), np.zeros((base.m, d, d)))
        assert_record_path_matches(model, zero_dual(model), eta)


class TestUnderflowRegime:
    @pytest.mark.parametrize("iters", [0, 3000])
    def test_large_eta_on_a_sparse_instance(self, iters):
        # At eta = 1000 on +-1 Potts costs most non-maximal joint entries lie
        # far below exp's underflow point, so the record path's exps mask a
        # large share of the entries.
        eta = 1000.0
        model = erdos_renyi_potts(2000, default_edge_prob(2000), 3, 7)
        lam = (standard_mp(model, "smp", eta, iters, 7, stride=iters).final_lambda
               if iters else zero_dual(model))
        log_mu_e = record_pass(model, lam, eta).log_edge
        assert np.mean(log_mu_e < -750.0) > 0.3
        assert_record_path_matches(model, lam, eta)


class TestKernelsAgreeWithRecords:
    """``star_slack`` and ``block_slack`` equal the blocks of ``slack()``
    byte for byte: the record pass sums a vertex's blocks in incidence
    order, as the kernels do, including degree-1 vertices, degrees of 8 or
    more, and -0.0 blocks, where the kernels start from the first block and
    the record pass from +0.0."""

    @pytest.mark.parametrize("eta", ETAS)
    @pytest.mark.parametrize("d", [2, 3, 8, 9])
    def test_local_slack_is_the_record_slack(self, d, eta):
        rng = np.random.default_rng([53, d])
        dense, tree = random_model(rng, 14, d, extra_edge_prob=0.5), random_tree_model(rng, 9, d)
        assert dense.degrees.max() >= 8 and tree.degrees.min() == 1
        for model in (dense, tree):
            signed_zero = zero_dual(model)
            signed_zero[rng.random((model.m, 2)) < 0.5] = -0.0
            iterate = accel_smp(model, eta, 200, seed=[d, 2], stride=200).final_lambda
            for lam in (signed_zero, iterate, 1e6 * iterate):
                nu = slack(model, lam, eta)
                for v in range(model.n):
                    edges, slots = model.incident_edges[v], model.incident_slots[v]
                    assert_same_bits(star_slack(model, lam, eta, v), nu[edges, slots])
                    for e, s in zip(edges.tolist(), slots.tolist()):
                        assert_same_bits(block_slack(model, lam, eta, e, v), nu[e, s])


class TestProjectionBitIdentity:
    @pytest.mark.parametrize("d", DS)
    def test_no_offset_equals_zero_offset(self, d):
        rng = np.random.default_rng([41, d])
        model = random_model(rng, 8, d)
        vertex = unit_mass_blocks(rng, (model.n, d), 0.3)
        vertex[vertex == 0.0] = -0.0
        assert np.signbit(vertex).any()
        mu = Marginals(vertex, unit_mass_blocks(rng, (model.m, d, d), 0.3))
        plain = proj(model, mu)
        zero = proj(model, mu, np.zeros((model.m, 2, d)))
        ref = reference_proj(model, vertex, mu.edge)
        for got in (plain, zero):
            assert_same_bits(got.vertex, ref[0])
            assert_same_bits(got.edge, ref[1])

    @pytest.mark.parametrize("d", DS)
    def test_round_to_transport_with_zero_rows_and_targets(self, d):
        rng = np.random.default_rng([43, d])
        for zero_frac in (0.0, 0.5, 0.9):
            p = unit_mass_blocks(rng, (20, d, d), zero_frac)
            r = unit_mass_blocks(rng, (20, d), zero_frac)
            c = unit_mass_blocks(rng, (20, d), zero_frac)
            # consistent blocks skip the rank-one correction; -0.0 entries
            # must come through it with their sign
            p[:5] = r[:5, :, None] * c[:5, None, :]
            p[p == 0.0] = -0.0
            assert_same_bits(round_to_transport(p, r, c), reference_round_to_transport(p, r, c))
            assert_same_bits(
                round_to_transport(p[0], r[0], c[0]),
                reference_round_to_transport(p[0], r[0], c[0]),
            )
            # a Fortran-ordered stack reduces along strided axes
            pf = np.asfortranarray(p)
            assert_same_bits(round_to_transport(pf, r, c), reference_round_to_transport(pf, r, c))
