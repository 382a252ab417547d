import re

import numpy as np
import pytest

from helpers import (
    install_star,
    minimize_block_coordinatewise,
    naive_emp_block,
    naive_smp_blocks,
    random_model,
    reference_block_grad_step,
    reference_emp_update,
    reference_smp_update,
    zeros_model,
)

import mapmp
from mapmp import updates
from mapmp import (
    block_grad_step,
    block_slack,
    build_model,
    dual_objective,
    emp_update,
    slack,
    smp_update,
    star_slack,
    zero_dual,
)
from mapmp.errors import ValidationError


def install_block(model, lam, edge, vertex, block):
    out = lam.copy()
    slot = 0 if model.edges[edge, 0] == vertex else 1
    out[edge, slot] = block
    return out


class TestEmpUpdate:
    def test_fixed_point_at_uniform(self):
        m = zeros_model(2, [(0, 1)], 2)
        lam = zero_dual(m)
        np.testing.assert_allclose(emp_update(m, lam, 1.0, 0, 0), 0.0, atol=1e-12)

    def test_post_update_block_slack_vanishes(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            m = random_model(rng, 5, 3)
            lam = rng.normal(size=(m.m, 2, m.d))
            eta = float(rng.choice([1.0, 10.0, 100.0]))
            edge = int(rng.integers(m.m))
            vertex = int(m.edges[edge, rng.integers(2)])
            new = install_block(m, lam, edge, vertex, emp_update(m, lam, eta, edge, vertex))
            slot = 0 if m.edges[edge, 0] == vertex else 1
            assert np.abs(slack(m, new, eta)[edge, slot]).sum() <= 1e-8

    def test_matches_naive_formula(self):
        rng = np.random.default_rng(1)
        m = random_model(rng, 4, 3)
        lam = rng.normal(size=(m.m, 2, m.d)) * 0.5
        np.testing.assert_allclose(
            emp_update(m, lam, 3.0, 2, int(m.edges[2, 1])),
            naive_emp_block(m, lam, 3.0, 2, 1),
            atol=1e-12,
        )

    def test_matches_numeric_block_minimizer_up_to_gauge(self):
        # the dual is invariant to adding a constant to one block, so a
        # numeric minimizer can land anywhere on that line; compare centered
        rng = np.random.default_rng(2)
        m = random_model(rng, 2, 2, extra_edge_prob=0.0)
        lam = rng.normal(size=(m.m, 2, m.d)) * 0.3
        eta = 2.0
        closed = emp_update(m, lam, eta, 0, 0)
        numeric = minimize_block_coordinatewise(m, lam, eta, 0, 0, sweeps=40)
        np.testing.assert_allclose(
            closed - closed.mean(), numeric - numeric.mean(), atol=1e-6
        )
        installed = install_block(m, lam, 0, 0, closed)
        assert dual_objective(m, installed, eta) <= dual_objective(
            m, install_block(m, lam, 0, 0, numeric), eta
        ) + 1e-10

    def test_improvement_bound(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            m = random_model(rng, 4, 3)
            lam = rng.normal(size=(m.m, 2, m.d))
            eta = float(rng.choice([1.0, 10.0]))
            edge = int(rng.integers(m.m))
            slot = int(rng.integers(2))
            vertex = int(m.edges[edge, slot])
            before = dual_objective(m, lam, eta)
            after = dual_objective(
                m,
                install_block(m, lam, edge, vertex, emp_update(m, lam, eta, edge, vertex)),
                eta,
            )
            bound = np.abs(slack(m, lam, eta)[edge, slot]).sum() ** 2 / (4.0 * eta)
            assert before - after >= bound - 1e-9

    def test_first_order_optimality_probe(self):
        rng = np.random.default_rng(4)
        m = random_model(rng, 4, 2)
        lam = rng.normal(size=(m.m, 2, m.d))
        eta = 5.0
        new = install_block(m, lam, 1, int(m.edges[1, 0]), emp_update(m, lam, eta, 1, int(m.edges[1, 0])))
        base = dual_objective(m, new, eta)
        for x in range(m.d):
            for sign in (1.0, -1.0):
                probe = new.copy()
                probe[1, 0, x] += sign * 1e-3
                assert dual_objective(m, probe, eta) >= base - 1e-12

    def test_fixed_point_of_all_blocks_is_primal_feasible(self):
        # dual optimality means the recovered point satisfies every local
        # consistency constraint
        rng = np.random.default_rng(40)
        m = random_model(rng, 5, 3)
        trace = mapmp.standard_mp(
            m, "emp", 10.0, 200_000, seed=0, stride=100, stop_slack_score=1e-20
        )
        assert trace.slack_scores[-1] <= 1e-20
        mu = mapmp.recover_primal(m, trace.final_lambda, 10.0)
        assert mapmp.in_local_polytope(m, mu, 1e-8)

    def test_rejects_non_endpoint(self):
        m = zeros_model(3, [(0, 1), (1, 2)], 2)
        with pytest.raises(ValidationError):
            emp_update(m, zero_dual(m), 1.0, 0, 2)

    @pytest.mark.parametrize("pair_function", [emp_update, block_grad_step, block_slack])
    @pytest.mark.parametrize("edge, vertex, message", [
        (-1, 0, "edge index -1 outside 0..1"),
        (2, 1, "edge index 2 outside 0..1"),
        (np.int64(7), 1, "edge index 7 outside 0..1"),
        (0, 2, "vertex 2 is not an endpoint of edge 0"),
        (np.int64(1), np.int64(0), "vertex 0 is not an endpoint of edge 1"),
    ])
    def test_pair_checks_name_the_edge_or_the_vertex(self, pair_function, edge, vertex, message):
        m = zeros_model(3, [(0, 1), (1, 2)], 2)
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            pair_function(m, zero_dual(m), 1.0, edge, vertex)

    def test_numpy_integer_pair_gives_the_same_block(self):
        m = random_model(np.random.default_rng(6), 5, 3)
        lam = np.random.default_rng(7).normal(size=(m.m, 2, 3))
        for edge, (i, j) in enumerate(m.edges.tolist()):
            for vertex in (i, j):
                want = emp_update(m, lam, 2.0, edge, vertex).tobytes()
                assert emp_update(m, lam, 2.0, np.int64(edge), np.int32(vertex)).tobytes() == want


class TestSmpUpdate:
    def test_fixed_point_at_uniform(self):
        m = zeros_model(3, [(0, 1), (1, 2)], 2)
        lam = zero_dual(m)
        blocks = smp_update(m, lam, 1.0, 1)
        np.testing.assert_allclose(blocks, lam[m.incident_edges[1], m.incident_slots[1]], atol=1e-12)

    def test_degree_one_reduces_to_emp(self):
        rng = np.random.default_rng(5)
        m = random_model(rng, 4, 3, extra_edge_prob=0.0)  # a tree: leaves exist
        leaf = int(np.flatnonzero(m.degrees == 1)[0])
        lam = rng.normal(size=(m.m, 2, m.d))
        edge = int(m.incident_edges[leaf][0])
        blocks = smp_update(m, lam, 4.0, leaf)
        np.testing.assert_allclose(
            blocks[0], emp_update(m, lam, 4.0, edge, leaf), atol=1e-10
        )

    def test_star_fixed_point_on_random_stars(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            center_degree = 3
            edges = [(0, k + 1) for k in range(center_degree)]
            m = build_model(
                center_degree + 1,
                edges,
                3,
                rng.normal(size=(center_degree + 1, 3)),
                rng.normal(size=(center_degree, 3, 3)),
            )
            lam = rng.normal(size=(m.m, 2, m.d))
            eta = float(rng.choice([1.0, 10.0, 100.0]))
            new = install_star(m, lam, 0, smp_update(m, lam, eta, 0))
            nu = slack(m, new, eta)
            for e, s in zip(m.incident_edges[0], m.incident_slots[0]):
                assert np.abs(nu[e, s]).sum() <= 1e-6

    def test_matches_naive_formula(self):
        rng = np.random.default_rng(7)
        m = random_model(rng, 4, 2)
        lam = rng.normal(size=(m.m, 2, m.d)) * 0.3
        vertex = 1
        blocks = smp_update(m, lam, 2.0, vertex)
        naive = naive_smp_blocks(m, lam, 2.0, vertex)
        for t, (e, s) in enumerate(zip(m.incident_edges[vertex], m.incident_slots[vertex])):
            np.testing.assert_allclose(blocks[t], naive[(int(e), int(s))], atol=1e-12)

    def test_improvement_bound(self):
        rng = np.random.default_rng(8)
        for _ in range(100):
            m = random_model(rng, 4, 3)
            lam = rng.normal(size=(m.m, 2, m.d))
            eta = float(rng.choice([1.0, 10.0]))
            vertex = int(rng.integers(m.n))
            before = dual_objective(m, lam, eta)
            after = dual_objective(
                m, install_star(m, lam, vertex, smp_update(m, lam, eta, vertex)), eta
            )
            nu = slack(m, lam, eta)
            total = sum(
                np.abs(nu[e, s]).sum() ** 2
                for e, s in zip(m.incident_edges[vertex], m.incident_slots[vertex])
            )
            bound = total / (8.0 * m.degrees[vertex] * eta)
            assert before - after >= bound - 1e-9

    def test_first_order_optimality_probe(self):
        rng = np.random.default_rng(80)
        m = random_model(rng, 4, 3)
        lam = rng.normal(size=(m.m, 2, m.d))
        eta = 5.0
        vertex = 2
        new = install_star(m, lam, vertex, smp_update(m, lam, eta, vertex))
        base = dual_objective(m, new, eta)
        for e, s in zip(m.incident_edges[vertex], m.incident_slots[vertex]):
            for x in range(m.d):
                for sign in (1.0, -1.0):
                    probe = new.copy()
                    probe[e, s, x] += sign * 1e-3
                    assert dual_objective(m, probe, eta) >= base - 1e-12


class TestBlockGradStep:
    def test_zero_slack_is_identity(self):
        m = zeros_model(2, [(0, 1)], 2)
        lam = zero_dual(m)
        np.testing.assert_allclose(block_grad_step(m, lam, 1.0, 0, 0), 0.0, atol=1e-15)

    def test_default_step_never_increases_dual(self):
        rng = np.random.default_rng(10)
        for _ in range(100):
            m = random_model(rng, 4, 3)
            lam = rng.normal(size=(m.m, 2, m.d))
            eta = float(rng.choice([1.0, 10.0, 100.0]))
            edge = int(rng.integers(m.m))
            vertex = int(m.edges[edge, rng.integers(2)])
            stepped = install_block(
                m, lam, edge, vertex, block_grad_step(m, lam, eta, edge, vertex)
            )
            assert dual_objective(m, stepped, eta) <= dual_objective(m, lam, eta) + 1e-12


class TestLocality:
    def test_updates_touch_only_their_blocks(self):
        rng = np.random.default_rng(11)
        m = random_model(rng, 5, 3)
        lam = rng.normal(size=(m.m, 2, m.d))
        frozen = lam.copy()
        emp_update(m, lam, 2.0, 0, int(m.edges[0, 0]))
        smp_update(m, lam, 2.0, 3)
        block_grad_step(m, lam, 2.0, 1, int(m.edges[1, 1]))
        block_slack(m, lam, 2.0, 0, int(m.edges[0, 0]))
        star_slack(m, lam, 2.0, 2)
        np.testing.assert_array_equal(lam, frozen)

    def test_local_and_full_state_paths_agree(self):
        rng = np.random.default_rng(12)
        for _ in range(20):
            m = random_model(rng, 5, 3)
            lam = rng.normal(size=(m.m, 2, m.d))
            eta = float(rng.choice([1.0, 50.0]))
            nu_full = slack(m, lam, eta)
            edge = int(rng.integers(m.m))
            for slot in range(2):
                vertex = int(m.edges[edge, slot])
                np.testing.assert_allclose(
                    block_slack(m, lam, eta, edge, vertex), nu_full[edge, slot], atol=1e-12
                )
            vertex = int(rng.integers(m.n))
            local = star_slack(m, lam, eta, vertex)
            for t, (e, s) in enumerate(
                zip(m.incident_edges[vertex], m.incident_slots[vertex])
            ):
                np.testing.assert_allclose(local[t], nu_full[e, s], atol=1e-12)

    def test_star_slack_rows_equal_block_slack(self):
        rng = np.random.default_rng(15)
        for d in (2, 3, 5):
            m = random_model(rng, 6, d)
            lam = rng.normal(size=(m.m, 2, m.d))
            for eta in (1.0, 50.0, 1e4):
                for vertex in range(m.n):
                    star = star_slack(m, lam, eta, vertex)
                    for t, e in enumerate(m.incident_edges[vertex]):
                        block = block_slack(m, lam, eta, int(e), vertex)
                        assert np.array_equal(star[t], block)


class TestWithSlack:
    """An update called with ``with_slack=True`` returns its block(s) and the
    slack at the same point, each equal bit for bit to the separate calls."""

    # degrees 4, 2, 4, 2, 2, 3, 1 (vertex 6 is a leaf)
    EDGES = [(0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (2, 3), (2, 5), (4, 5), (5, 6)]

    @pytest.mark.parametrize("cost_scale", [1.0, 1e3, 1e6])
    @pytest.mark.parametrize("eta", [1.0, 1e3, 1e9])
    def test_fused_equals_separate_calls(self, eta, cost_scale):
        rng = np.random.default_rng(16)
        n, d = 7, 3
        m = build_model(
            n,
            self.EDGES,
            d,
            cost_scale * rng.normal(size=(n, d)),
            cost_scale * rng.normal(size=(len(self.EDGES), d, d)),
        )
        assert sorted(set(m.degrees.tolist())) == [1, 2, 3, 4]
        lam = cost_scale * rng.normal(size=(m.m, 2, d))
        for edge in range(m.m):
            for vertex in m.edges[edge].tolist():
                nu = block_slack(m, lam, eta, edge, vertex)
                block, fused_nu = emp_update(m, lam, eta, edge, vertex, with_slack=True)
                assert np.array_equal(block, emp_update(m, lam, eta, edge, vertex))
                assert np.array_equal(fused_nu, nu)
                block, fused_nu = block_grad_step(m, lam, eta, edge, vertex, with_slack=True)
                assert np.array_equal(block, block_grad_step(m, lam, eta, edge, vertex))
                assert np.array_equal(fused_nu, nu)
        for vertex in range(n):
            blocks, fused_nu = smp_update(m, lam, eta, vertex, with_slack=True)
            assert np.isfinite(blocks).all() and np.isfinite(fused_nu).all()
            assert np.array_equal(blocks, smp_update(m, lam, eta, vertex))
            assert np.array_equal(fused_nu, star_slack(m, lam, eta, vertex))


class TestBitIdentity:
    """Every kernel equals the reference formulas in ``helpers`` bit for bit,
    whatever NumPy calls it saves."""

    # degrees 5, 3, 4, 6, 4, 3, 2, 1: vertex 0 holds only slot 0, vertices 5
    # and 7 only slot 1, the others both (vertex 3: three of each)
    EDGES = [(0, 3), (1, 3), (2, 3), (3, 4), (3, 5), (3, 6), (0, 1), (0, 2),
             (0, 4), (0, 5), (1, 2), (2, 4), (4, 5), (6, 7)]

    def assert_kernels_match(self, m, lam, eta):
        for edge in range(m.m):
            for vertex in m.edges[edge].tolist():
                block, nu = reference_emp_update(m, lam, eta, edge, vertex)
                assert np.array_equal(emp_update(m, lam, eta, edge, vertex), block)
                fused = emp_update(m, lam, eta, edge, vertex, with_slack=True)
                assert np.array_equal(fused[0], block) and np.array_equal(fused[1], nu)
                assert np.array_equal(block_slack(m, lam, eta, edge, vertex), nu)
                ref = reference_block_grad_step(m, lam, eta, edge, vertex, 1.0 / eta)
                assert np.array_equal(block_grad_step(m, lam, eta, edge, vertex), ref[0])
                fused = block_grad_step(m, lam, eta, edge, vertex, with_slack=True)
                assert np.array_equal(fused[0], ref[0]) and np.array_equal(fused[1], ref[1])
        for vertex in range(m.n):
            blocks, nu = reference_smp_update(m, lam, eta, vertex)
            assert np.array_equal(smp_update(m, lam, eta, vertex), blocks)
            fused = smp_update(m, lam, eta, vertex, with_slack=True)
            assert np.array_equal(fused[0], blocks) and np.array_equal(fused[1], nu)
            assert np.array_equal(star_slack(m, lam, eta, vertex), nu)

    @pytest.mark.parametrize("eta", [1.0, 1e3, 1e9])
    @pytest.mark.parametrize("d", [2, 3, 5, 8, 9])
    def test_all_kernels_match_the_reference_formulas(self, d, eta):
        rng = np.random.default_rng([17, d])
        n = 8
        for scale in (1.0, 1e3, 1e6):
            m = build_model(
                n,
                self.EDGES,
                d,
                scale * rng.normal(size=(n, d)),
                scale * rng.normal(size=(len(self.EDGES), d, d)),
            )
            assert sorted(set(m.degrees.tolist())) == [1, 2, 3, 4, 5, 6]
            lam = scale * rng.normal(size=(m.m, 2, d))
            self.assert_kernels_match(m, lam, eta)
            # random instances, and lam scaled apart from the costs
            r = random_model(rng, 6, d, extra_edge_prob=0.4)
            for lam_scale in (1.0, 1e3, 1e6):
                self.assert_kernels_match(r, lam_scale * rng.normal(size=(r.m, 2, d)), eta)

    # vertex 4 is a hub of degree 11, in slot 1 towards 0-3 and slot 0
    # towards 5-11; vertex 0 holds only slot 0 (k = 0), vertex 11 only slot 1
    # (k = deg), so the star's shared sum runs over 11 rows
    HUB_EDGES = [(i, 4) for i in range(4)] + [(4, j) for j in range(5, 12)] + [
        (0, 1), (0, 2), (0, 3), (5, 6), (5, 11), (6, 11), (7, 8), (8, 9), (9, 10), (10, 11)]

    @pytest.mark.parametrize("eta", [1.0, 1e3, 1e9])
    @pytest.mark.parametrize("d", [2, 3, 5, 7, 8, 9])
    def test_hub_vertex_matches_the_reference_formulas(self, d, eta):
        rng = np.random.default_rng([19, d])
        n = 12
        for scale in (1.0, 1e3, 1e6):
            m = build_model(
                n,
                self.HUB_EDGES,
                d,
                scale * rng.normal(size=(n, d)),
                scale * rng.normal(size=(len(self.HUB_EDGES), d, d)),
            )
            assert m.degrees[4] == 11 and np.count_nonzero(m.incident_slots[4]) == 4
            assert not m.incident_slots[0].any() and m.incident_slots[11].all()
            self.assert_kernels_match(m, scale * rng.normal(size=(m.m, 2, d)), eta)


def assert_same_bits(got, want):
    """Equal values with equal sign bits, so -0.0 and 0.0 count as different."""
    assert got.shape == want.shape and np.isfinite(got).all()
    assert np.array_equal(got, want) and np.array_equal(np.signbit(got), np.signbit(want))


class TestFlatStarPass:
    """Every update runs one flat pass: ``smp_update``, its fused slack and
    ``star_slack`` over shared (degree, k) index tables, ``emp_update``,
    ``block_grad_step`` and ``block_slack`` over the one-edge table of their
    slot.  Every output equals the reference formulas in ``helpers`` bit for
    bit, signs of zero included, on leaves, hubs and stars wholly in one
    slot, at every label count either side of NumPy's switch to pairwise
    sums (d = 8)."""

    # vertex 0: degree 9, all slot 0; vertex 11: degree 9, all slot 1;
    # vertex 5: degree 8, three in slot 1; leaves 10 (slot 0) and 12 (slot 1)
    EDGES = [(0, j) for j in range(1, 10)] + [(i, 11) for i in range(2, 11)] + [
        (3, 12), (1, 5), (4, 5), (5, 6), (5, 7), (5, 8), (5, 9)]

    def model(self, d, vertex_costs, edge_costs):
        m = build_model(13, self.EDGES, d, vertex_costs, edge_costs)
        assert m.degrees.tolist()[:6:5] == [9, 8] and m.degrees[11] == 9
        assert m.degrees[10] == m.degrees[12] == 1
        assert [m.star_tables[v].k for v in (0, 5, 10, 11, 12)] == [0, 3, 0, 9, 1]
        return m

    def assert_updates_match(self, m, lam, eta):
        for vertex in range(m.n):
            blocks, nu = reference_smp_update(m, lam, eta, vertex)
            assert_same_bits(smp_update(m, lam, eta, vertex), blocks)
            for fused in (smp_update(m, lam, eta, vertex, True),
                          smp_update(m, lam, eta, vertex, with_slack=True)):
                assert_same_bits(fused[0], blocks)
                assert_same_bits(fused[1], nu)
            assert_same_bits(star_slack(m, lam, eta, vertex), nu)
        for edge in range(m.m):
            for vertex in m.edges[edge].tolist():
                block, nu = reference_emp_update(m, lam, eta, edge, vertex)
                step = reference_block_grad_step(m, lam, eta, edge, vertex, 1.0 / eta)[0]
                assert_same_bits(block_slack(m, lam, eta, edge, vertex), nu)
                for update, want in ((emp_update, block), (block_grad_step, step)):
                    assert_same_bits(update(m, lam, eta, edge, vertex), want)
                    for fused in (update(m, lam, eta, edge, vertex, True),
                                  update(m, lam, eta, edge, vertex, with_slack=True)):
                        assert_same_bits(fused[0], want)
                        assert_same_bits(fused[1], nu)

    @pytest.mark.parametrize("eta", [1.0, 1e3, 1e9])
    @pytest.mark.parametrize("d", [2, 3, 5, 7, 8, 9])
    def test_random_costs_and_duals(self, d, eta):
        rng = np.random.default_rng([23, d])
        for scale in (1.0, 1e6):
            m = self.model(d, scale * rng.normal(size=(13, d)),
                           scale * rng.normal(size=(len(self.EDGES), d, d)))
            self.assert_updates_match(m, scale * rng.normal(size=(m.m, 2, d)), eta)

    @pytest.mark.parametrize("eta", [1.0, 1e3, 1e9])
    @pytest.mark.parametrize("d", [2, 3, 5, 7, 8, 9])
    def test_first_iteration_on_potts_costs(self, d, eta):
        # At lam = 0 every joint's maximum is tied; with signed zeros in the
        # costs and in lam the tied maxima mix 0.0 and -0.0.
        rng = np.random.default_rng([29, d])
        potts = np.broadcast_to(1.0 - np.eye(d), (len(self.EDGES), d, d))
        negative_zero = np.eye(d, dtype=bool) & (rng.random(potts.shape) < 0.5)
        for edge_costs in (potts, np.where(negative_zero, -0.0, potts)):
            m = self.model(d, np.where(rng.random((13, d)) < 0.5, 0.0, -0.0), edge_costs)
            self.assert_updates_match(m, zero_dual(m), eta)
            self.assert_updates_match(m, np.where(rng.random((m.m, 2, d)) < 0.5, 0.0, -0.0), eta)


class TestInputsAndOutputs:
    """The kernels write only into arrays they allocate: none of the five
    functions writes to its ``lam``, no returned array shares memory with
    ``lam``, a ``Model`` table or the thread's scratch, so a later call
    leaves it as it was, and a non-contiguous ``lam`` gives the bytes of its
    contiguous copy."""

    EDGES = TestFlatStarPass.EDGES

    def model(self, d, rng):
        return build_model(13, self.EDGES, d, rng.normal(size=(13, d)),
                           rng.normal(size=(len(self.EDGES), d, d)))

    @staticmethod
    def outputs(m, lam, eta):
        """Every array the five functions return, with and without slack."""
        out = []
        for edge in range(m.m):
            for vertex in m.edges[edge].tolist():
                out.append(block_slack(m, lam, eta, edge, vertex))
                for update in (emp_update, block_grad_step):
                    out.append(update(m, lam, eta, edge, vertex))
                    out.extend(update(m, lam, eta, edge, vertex, with_slack=True))
        for vertex in range(m.n):
            out.append(star_slack(m, lam, eta, vertex))
            out.append(smp_update(m, lam, eta, vertex))
            out.extend(smp_update(m, lam, eta, vertex, with_slack=True))
        return out

    @staticmethod
    def tables(m):
        arrays = [m.edges, m.vertex_costs, m.edge_costs, m.degrees]
        for group in (m.incident_edges, m.incident_slots, m.incident_blocks, m.incident_rows):
            arrays.extend(group)
        for table in m.star_tables + m.pair_tables:
            arrays.extend(a for a in table if isinstance(a, np.ndarray))
        return arrays

    @pytest.mark.parametrize("d", [3, 9])
    def test_lam_is_never_written(self, d):
        rng = np.random.default_rng([31, d])
        m = self.model(d, rng)
        lam = rng.normal(size=(m.m, 2, d))
        before = lam.tobytes()
        self.outputs(m, lam, 5.0)
        assert lam.tobytes() == before
        lam.setflags(write=False)  # a write now raises
        self.outputs(m, lam, 5.0)

    @pytest.mark.parametrize("d", [3, 9])
    def test_outputs_share_no_memory_with_lam_or_the_model(self, d):
        rng = np.random.default_rng([37, d])
        m = self.model(d, rng)
        lam = rng.normal(size=(m.m, 2, d))
        tables = self.tables(m)
        assert len(tables) > 4 * m.n
        outputs = self.outputs(m, lam, 5.0)
        # the buffers behind this thread's scratch views, one set per pass size
        scratch = [a for views in updates._scratch.by_size.values() for a in views if a.base is None]
        assert len(scratch) >= 3 * len({len(m.incident_edges[v]) for v in range(m.n)})
        for out in outputs:
            assert not np.shares_memory(out, lam)
            assert not any(np.shares_memory(out, table) for table in tables)
            assert not any(np.shares_memory(out, buffer) for buffer in scratch)

    @pytest.mark.parametrize("d", [3, 9])
    def test_outputs_keep_their_bytes_after_a_call_at_another_lam(self, d):
        rng = np.random.default_rng([43, d])
        m = self.model(d, rng)
        lam, other = rng.normal(size=(2, m.m, 2, d))
        first = self.outputs(m, lam, 5.0)
        before = [out.tobytes() for out in first]
        second = self.outputs(m, other, 5.0)  # every call again: the same sizes, in the same order
        assert all(a.tobytes() != b.tobytes() for a, b in zip(first, second))
        assert [out.tobytes() for out in first] == before

    @pytest.mark.parametrize("d", [3, 9])
    def test_non_contiguous_lam_gives_the_same_bytes(self, d):
        rng = np.random.default_rng([41, d])
        m = self.model(d, rng)
        wide = rng.normal(size=(m.m, 2, 2 * d))
        for lam in (wide[:, :, ::2], np.asfortranarray(wide[:, :, :d])):
            assert not lam.flags.c_contiguous
            got = self.outputs(m, lam, 5.0)
            want = self.outputs(m, np.ascontiguousarray(lam), 5.0)
            assert len(got) == len(want)
            for a, b in zip(got, want):
                assert_same_bits(a, b)
