import numpy as np
import pytest

import mapmp
from mapmp import ValidationError, build_model, degree_stats, erdos_renyi_potts, map_value


def zeros_model(n, edges, d):
    return build_model(n, edges, d, np.zeros((n, d)), np.zeros((len(edges), d, d)))


class TestBuildModel:
    def test_smallest_legal_instance(self):
        m = zeros_model(2, [(0, 1)], 2)
        assert m.m == 1
        assert m.dual_dim == 4

    def test_isolated_vertex_rejected(self):
        with pytest.raises(ValidationError, match="isolated vertex"):
            build_model(2, [], 2, np.zeros((2, 2)), np.zeros((0, 2, 2)))

    def test_triangle_dimensions(self):
        m = zeros_model(3, [(0, 1), (1, 2), (0, 2)], 3)
        assert m.primal_dim == 9 + 27

    def test_self_loop_rejected(self):
        with pytest.raises(ValidationError, match="self-loop"):
            zeros_model(2, [(0, 1), (1, 1)], 2)

    def test_duplicate_edge_rejected(self):
        with pytest.raises(ValidationError, match="duplicate"):
            zeros_model(2, [(0, 1), (1, 0)], 2)

    def test_d_below_two_rejected(self):
        with pytest.raises(ValidationError, match="labels"):
            zeros_model(2, [(0, 1)], 1)

    def test_nonfinite_costs_rejected(self):
        vc = np.zeros((2, 2))
        vc[0, 0] = np.inf
        with pytest.raises(ValidationError, match="finite"):
            build_model(2, [(0, 1)], 2, vc, np.zeros((1, 2, 2)))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValidationError, match="shape"):
            build_model(2, [(0, 1)], 2, np.zeros((2, 3)), np.zeros((1, 2, 2)))

    def test_reversed_edge_is_canonicalized_with_transpose(self):
        cost = np.arange(4.0).reshape(1, 2, 2)
        flipped = build_model(2, [(1, 0)], 2, np.zeros((2, 2)), cost)
        straight = build_model(2, [(0, 1)], 2, np.zeros((2, 2)), cost.transpose(0, 2, 1))
        assert np.array_equal(flipped.edges, [[0, 1]])
        assert np.array_equal(flipped.edge_costs, straight.edge_costs)

    def test_edges_sorted_with_costs_permuted(self):
        ec = np.stack([np.full((2, 2), 7.0), np.full((2, 2), 5.0)])
        m = build_model(3, [(1, 2), (0, 1)], 2, np.zeros((3, 2)), ec)
        assert np.array_equal(m.edges, [[0, 1], [1, 2]])
        assert m.edge_costs[0, 0, 0] == 5.0
        assert m.edge_costs[1, 0, 0] == 7.0

    def test_model_arrays_read_only(self):
        m = zeros_model(2, [(0, 1)], 2)
        with pytest.raises(ValueError):
            m.vertex_costs[0, 0] = 1.0


class TestMapValue:
    def test_zero_costs(self):
        m = zeros_model(3, [(0, 1), (1, 2)], 2)
        assert map_value(m, [1, 0, 1]) == 0.0

    def test_two_node_lookups(self):
        m = build_model(
            2, [(0, 1)], 2, [[0.0, 0.1], [0.0, 0.0]], [[[0.0, 1.0], [1.0, 0.0]]]
        )
        assert map_value(m, [0, 0]) == pytest.approx(0.0, abs=0)
        assert map_value(m, [1, 0]) == pytest.approx(1.1, abs=1e-15)

    def test_invalid_assignment_rejected(self):
        m = zeros_model(2, [(0, 1)], 2)
        with pytest.raises(ValidationError):
            map_value(m, [0, 2])
        with pytest.raises(ValidationError):
            map_value(m, [0])


class TestDegreeStats:
    def test_single_edge(self):
        degrees, max_degree, total = degree_stats(zeros_model(2, [(0, 1)], 2))
        assert list(degrees) == [1, 1]
        assert max_degree == 1
        assert total == 2

    def test_triangle(self):
        degrees, max_degree, total = degree_stats(
            zeros_model(3, [(0, 1), (1, 2), (0, 2)], 2)
        )
        assert list(degrees) == [2, 2, 2]
        assert total == 6

    def test_star_handshake(self):
        m = zeros_model(4, [(0, 1), (0, 2), (0, 3)], 2)
        degrees, max_degree, total = degree_stats(m)
        assert max_degree == 3
        assert total == 2 * m.m

    def test_handshake_on_random_models(self):
        for seed in range(20):
            m = erdos_renyi_potts(12, 0.3, 3, seed)
            degrees, _, total = degree_stats(m)
            assert total == 2 * m.m
            assert degrees.sum() == total


class TestErdosRenyiPotts:
    def test_sparse_regime_edge_count(self):
        p = 1.1 * np.log(100) / 100
        m = erdos_renyi_potts(100, p, 3, 0)
        # mean ~ 250.8, sigma ~ 15.4; allow five sigma
        assert 174 <= m.m <= 328

    def test_full_probability_gives_complete_graph(self):
        m = erdos_renyi_potts(3, 1.0, 2, 5)
        assert np.array_equal(m.edges, [[0, 1], [0, 2], [1, 2]])

    def test_deterministic_given_seed(self):
        a = erdos_renyi_potts(20, 0.2, 3, 123)
        b = erdos_renyi_potts(20, 0.2, 3, 123)
        assert np.array_equal(a.edges, b.edges)
        assert np.array_equal(a.vertex_costs, b.vertex_costs)
        assert np.array_equal(a.edge_costs, b.edge_costs)
        c = erdos_renyi_potts(20, 0.2, 3, 124)
        assert not (
            np.array_equal(a.edges, c.edges)
            and np.array_equal(a.vertex_costs, c.vertex_costs)
        )

    def test_cost_distributions(self):
        m = erdos_renyi_potts(30, 0.3, 3, 7)
        assert np.abs(m.vertex_costs).max() <= 0.01
        assert set(np.unique(m.edge_costs)) <= {-1.0, 1.0}

    def test_no_isolated_vertices_even_when_sparse(self):
        for seed in range(30):
            m = erdos_renyi_potts(12, 0.01, 3, seed)
            assert m.degrees.min() >= 1

    def test_edge_count_matches_binomial_mean(self):
        n, p = 30, 0.2
        pairs = n * (n - 1) // 2
        counts = [erdos_renyi_potts(n, p, 2, seed).m for seed in range(200)]
        mean = np.mean(counts)
        sigma_of_mean = np.sqrt(pairs * p * (1 - p) / len(counts))
        # isolation repair adds a vanishing number of edges at this density
        assert abs(mean - pairs * p) <= 5 * sigma_of_mean

    def test_bad_parameters_rejected(self):
        with pytest.raises(ValidationError):
            erdos_renyi_potts(1, 0.5, 2, 0)
        with pytest.raises(ValidationError):
            erdos_renyi_potts(5, 0.0, 2, 0)
        with pytest.raises(ValidationError):
            erdos_renyi_potts(5, 1.5, 2, 0)

    def test_negative_seed_rejected(self):
        with pytest.raises(ValidationError, match="seed must be >= 0, got -1"):
            erdos_renyi_potts(10, 0.3, 3, -1)
