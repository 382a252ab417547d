import math
import re

import numpy as np
import pytest

from helpers import (
    random_model,
    reference_erdos_renyi_stream,
    reference_incidence,
    reference_lambda_aggregate,
    row_by_row_erdos_renyi_potts,
    zeros_model,
)

import mapmp
from mapmp import ValidationError, build_model, degree_stats, erdos_renyi_potts, map_value
from mapmp.formats import emit_model, load_model
from mapmp.model import Model, default_edge_prob


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

    @pytest.mark.parametrize("n, d, shown", [(2.7, 3, "n=2.7"), (2, math.nan, "d=nan"),
                                              (2, 2.5, "d=2.5")], ids=["n-2.7", "d-nan", "d-2.5"])
    def test_non_integer_n_or_d_rejected(self, n, d, shown):
        # a truncated n or d would fit costs shaped for another model
        name, value = shown.split("=")
        with pytest.raises(ValidationError, match=f"^{name} must be an integer, got {value}$"):
            build_model(n, [(0, 1)], d, np.zeros((2, 3)), np.zeros((1, 3, 3)))

    def test_nonfinite_costs_rejected(self):
        vc = np.zeros((2, 2))
        vc[0, 0] = np.inf
        with pytest.raises(ValidationError, match="finite"):
            build_model(2, [(0, 1)], 2, vc, np.zeros((1, 2, 2)))

    def test_caller_vertex_costs_are_copied_not_frozen(self):
        vc = np.zeros((2, 2))
        ec = np.zeros((1, 2, 2))
        m = build_model(2, [(0, 1)], 2, vc, ec)
        assert vc.flags.writeable and ec.flags.writeable
        assert m.vertex_costs is not vc and not m.vertex_costs.flags.writeable
        vc[0, 0] = 5.0
        assert m.vertex_costs[0, 0] == 0.0
        fortran = build_model(2, [(0, 1)], 2, np.asfortranarray(np.eye(2)), ec)
        assert fortran.vertex_costs.flags.c_contiguous

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

    def test_incidence_arrays_read_only(self):
        m = zeros_model(3, [(0, 1), (1, 2)], 2)
        for arrays in (m.incident_edges, m.incident_slots):
            with pytest.raises(ValueError):
                arrays[1][0] = 5

    @pytest.mark.parametrize("seed", range(8))
    def test_shuffled_and_reversed_edges_give_the_same_model(self, seed):
        rng = np.random.default_rng(seed)
        base = random_model(rng, int(rng.integers(2, 12)), int(rng.integers(2, 5)), 0.4)
        perm = rng.permutation(base.m)
        flip = rng.random(base.m) < 0.5
        edges = base.edges[perm].copy()
        edges[flip] = edges[flip, ::-1]
        costs = base.edge_costs[perm].copy()
        costs[flip] = costs[flip].transpose(0, 2, 1)
        given_costs = costs.copy()
        degrees, inc_edges, inc_slots = reference_incidence(base.n, base.edges.tolist())
        for given in (edges, [tuple(e) for e in edges.tolist()], edges.astype(np.int32)):
            m = build_model(base.n, given, base.d, base.vertex_costs, costs)
            assert np.array_equal(m.edges, base.edges)
            assert np.array_equal(m.edge_costs, base.edge_costs)
            assert np.array_equal(m.vertex_costs, base.vertex_costs)
            assert m.degrees.dtype == np.int64 and m.degrees.tolist() == degrees
            assert [a.tolist() for a in m.incident_edges] == inc_edges
            assert [a.tolist() for a in m.incident_slots] == inc_slots
            for ss in inc_slots:  # slot-1 edges (to smaller vertices) come first
                assert ss == sorted(ss, reverse=True)
            assert all(a.dtype == np.int64 for a in m.incident_edges + m.incident_slots)
        assert np.array_equal(costs, given_costs)

    @pytest.mark.parametrize(
        "edges, message",
        [
            ([(0, 1), (2, 2), (0, 9), (1, 1)], "self-loop at vertex 2"),
            ([(0, 1), (5, 0), (1, 1)], "edge (5, 0) has an endpoint outside 0..2"),
            ([(0, 1), (-1, 2), (5, 5)], "edge (-1, 2) has an endpoint outside 0..2"),
            ([(0, 1), (3, 3), (2, 2)], "edge (3, 3) has an endpoint outside 0..2"),
            ([(1, 2), (2, 1), (0, 1), (1, 0)], "duplicate edge (0, 1)"),
            ([(0, 1), (1, 0), (1, 2), (2, 2)], "self-loop at vertex 2"),
        ],
    )
    def test_first_bad_edge_is_named(self, edges, message):
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            zeros_model(3, edges, 2)

    def test_edges_must_be_pairs(self):
        with pytest.raises(ValidationError, match="pairs"):
            zeros_model(3, [(0, 1, 2)], 2)

    @pytest.mark.parametrize(
        "edges, dtype",
        [
            ([(0.5, 1)], "float64"),  # truncated to (0, 1) when edges went through int64
            (np.array([[0.9, 1.2]]), "float64"),
            ([(0.0, 1.0)], "float64"),  # a whole float is no integer either
            ([("0", "1")], "<U1"),
            ([(True, False)], "bool"),
            (None, "object"),
            ([(0, 10**30)], "object"),  # an OverflowError on the way to int64
        ],
    )
    def test_non_integer_endpoints_rejected(self, edges, dtype):
        message = f"^edges must be \\(i, j\\) pairs of integers, got {re.escape(dtype)} of shape"
        with pytest.raises(ValidationError, match=message):
            build_model(2, edges, 2, np.zeros((2, 2)), np.zeros((1, 2, 2)))

    def test_ragged_edges_rejected(self):
        with pytest.raises(ValidationError, match="^edges is not a numeric array: "):
            build_model(3, [(0, 1), (1,)], 2, np.zeros((3, 2)), np.zeros((2, 2, 2)))

    @pytest.mark.parametrize("endpoint", [2**63, 2**64 - 1])
    def test_uint64_endpoint_is_named_as_given(self, endpoint):
        # cast to int64 before the range check, 2**63 was named as -9223372036854775808
        edges = np.array([[0, endpoint]], dtype=np.uint64)
        message = re.escape(f"edge (0, {endpoint}) has an endpoint outside 0..1")
        with pytest.raises(ValidationError, match=f"^{message}$"):
            build_model(2, edges, 2, np.zeros((2, 2)), np.zeros((1, 2, 2)))

    @pytest.mark.parametrize("dtype", [np.int32, np.uint8, np.uint64])
    def test_any_integer_dtype_is_taken(self, dtype):
        m = zeros_model(3, np.array([(1, 0), (2, 1)], dtype=dtype), 2)
        assert m.edges.dtype == np.int64 and m.edges.tolist() == [[0, 1], [1, 2]]

    @pytest.mark.parametrize("edges", [[], np.zeros((0, 2)), np.zeros(0, dtype=np.float32)])
    def test_empty_edge_list_reaches_the_isolated_vertex_check(self, edges):
        with pytest.raises(ValidationError, match="^isolated vertex 0 has no incident edge$"):
            build_model(2, edges, 2, np.zeros((2, 2)), np.zeros((0, 2, 2)))

    @pytest.mark.parametrize("name", ["vertex_costs", "edge_costs"])
    @pytest.mark.parametrize("bad", ["strings", "ragged", "dict"])
    def test_unconvertible_costs_rejected(self, name, bad):
        costs = {"vertex_costs": np.zeros((2, 2)), "edge_costs": np.zeros((1, 2, 2))}
        costs[name] = {
            "strings": [["a", "b"]] * 2 if name == "vertex_costs" else [[["a", "b"], [0, 0]]],
            "ragged": [[0, 0], [0]] if name == "vertex_costs" else [[[0, 0], [0]]],
            "dict": {0: 1.0},
        }[bad]
        with pytest.raises(ValidationError, match=f"^{name} is not a numeric array: "):
            build_model(2, [(0, 1)], 2, **costs)


class TestFlatIndices:
    """``incident_blocks``, ``incident_rows``, the ``star_tables`` and the
    ``pair_tables`` address exactly each vertex's blocks, rows, joint terms,
    oriented joints and segments in the flattened arrays, and nobody can
    write through them."""

    @staticmethod
    def assert_table_addresses(table, lam, joints, ev, sv):
        """``table`` addresses the star of the edges ``ev`` in slots ``sv``."""
        deg, d = len(ev), lam.shape[2]
        assert table.k == np.count_nonzero(sv)
        terms = [np.broadcast_to(lam[ev, 0, :, None], (deg, d, d)),
                 np.broadcast_to(lam[ev, 1, None, :], (deg, d, d)), lam[ev, sv]]
        want = np.concatenate([t.ravel() for t in terms])
        assert np.array_equal(lam[ev].ravel()[table.expand], want)
        # [p, own, other]: the joint as stored in slot 0, transposed in slot 1
        oriented = joints[ev].ravel()[table.orient]
        want = [joints[e].T if s else joints[e] for e, s in zip(ev.tolist(), sv.tolist())]
        assert np.array_equal(oriented, np.array(want).reshape(-1))
        # deg joints of d d entries, then d vertex logits; deg d rows of d
        assert np.array_equal(table.starts, np.arange(deg + 1) * d * d)
        assert np.array_equal(table.row_starts, np.arange(deg * d) * d)
        for index in table[1:]:
            assert index.dtype == np.int64 and not index.flags.writeable
            with pytest.raises(ValueError):
                index[...] = 0

    def assert_indices_match(self, model):
        rng = np.random.default_rng(model.n)
        lam = rng.normal(size=(model.m, 2, model.d))
        joints = rng.normal(size=(model.m, model.d, model.d))
        blocks, rows = model.incident_blocks, model.incident_rows
        assert len(blocks) == len(rows) == len(model.star_tables) == model.n
        for v in range(model.n):
            ev, sv = model.incident_edges[v], model.incident_slots[v]
            deg, d = len(ev), model.d
            assert blocks[v].shape == (deg, d)
            assert np.array_equal(lam.ravel()[blocks[v]], lam[ev, sv])
            assert rows[v].shape == (deg * 2 * d,)
            assert np.array_equal(lam.ravel()[rows[v]], lam[ev].ravel())
            self.assert_table_addresses(model.star_tables[v], lam, joints, ev, sv)
            for index in (blocks[v], rows[v]):
                assert index.dtype == np.int64 and not index.flags.writeable
                with pytest.raises(ValueError):
                    index[...] = 0
        # a single (edge, vertex) pair: the one-edge table of the vertex's slot
        assert [t.k for t in model.pair_tables] == [0, 1]
        for e in range(model.m):
            for s in (0, 1):
                self.assert_table_addresses(model.pair_tables[s], lam, joints,
                                            np.array([e]), np.array([s]))
        # every block of lam is some vertex's, exactly once
        every = np.sort(np.concatenate([b.ravel() for b in blocks] + [np.zeros(0, np.int64)]))
        assert np.array_equal(every, np.arange(model.dual_dim))
        # the layout's own tables: block (e, s) is row 2 e + s, and each entry's vertex cell
        pair_blocks, cells = model.pair_blocks, model.dual_cells
        assert pair_blocks.shape == (2 * model.m, model.d) and cells.shape == (model.dual_dim,)
        for e in range(model.m):
            for s in (0, 1):
                assert np.array_equal(lam.ravel()[pair_blocks[2 * e + s]], lam[e, s])
        aggregate = np.bincount(cells, lam.ravel(), model.n * model.d).reshape(model.n, model.d)
        assert aggregate.tobytes() == reference_lambda_aggregate(model, lam).tobytes()
        for index in (pair_blocks, cells):
            assert index.dtype == np.int64 and not index.flags.writeable
            with pytest.raises(ValueError):
                index[...] = 0

    @pytest.mark.parametrize("d", [2, 3, 8])
    def test_random_models(self, d):
        rng = np.random.default_rng(d)
        for n in (2, 5, 9):
            self.assert_indices_match(random_model(rng, n, d))
        self.assert_indices_match(erdos_renyi_potts(60, 0.1, d, d))

    def test_views_of_one_array_built_once(self):
        model = erdos_renyi_potts(30, 0.2, 3, 1)
        for index in (model.incident_blocks, model.incident_rows):
            assert all(view.base is index[0].base for view in index)
        assert model.incident_blocks is model.incident_blocks
        assert model.pair_blocks is model.pair_blocks and model.dual_cells is model.dual_cells
        assert model.star_tables is model.star_tables
        assert model.pair_tables is model.pair_tables

    def test_star_tables_shared_per_pattern(self):
        # vertex 0 holds only slot 0, vertex 3 only slot 1, vertices 1 and 2 both
        model = zeros_model(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)], 3)
        tables = model.star_tables
        assert len({id(t) for t in tables}) == 4
        assert [t.k for t in tables] == [0, 1, 2, 3]
        model = zeros_model(4, [(0, 1), (1, 2), (2, 3), (0, 3)], 2)  # a 4-cycle
        tables = model.star_tables
        assert tables[1] is tables[2] and tables[0] is not tables[3]

    def test_edgeless_model(self):
        empty = np.zeros(0, dtype=np.int64)
        n, d = 3, 2
        model = Model(n=n, d=d, edges=np.zeros((0, 2), dtype=np.int64),
                      vertex_costs=np.zeros((n, d)), edge_costs=np.zeros((0, d, d)),
                      degrees=np.zeros(n, dtype=np.int64),
                      incident_edges=(empty,) * n, incident_slots=(empty,) * n)
        assert [b.shape for b in model.incident_blocks] == [(0, d)] * n
        assert [r.shape for r in model.incident_rows] == [(0,)] * n
        assert [t.orient.shape for t in model.star_tables] == [(0,)] * n
        assert [t.starts.tolist() for t in model.star_tables] == [[0]] * n
        self.assert_indices_match(model)

    def test_after_text_round_trip(self):
        model = erdos_renyi_potts(25, 0.2, 3, 2)
        loaded = load_model(emit_model(model))
        self.assert_indices_match(loaded)
        for mine, theirs in zip(model.incident_blocks, loaded.incident_blocks):
            assert np.array_equal(mine, theirs)
        for mine, theirs in zip(model.incident_rows, loaded.incident_rows):
            assert np.array_equal(mine, theirs)


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
        with pytest.raises(ValidationError, match="^assignment labels must be integers$"):
            map_value(m, [0.5, 0.5])


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

    @pytest.mark.parametrize("d", [-1, 0, 1])
    def test_too_few_labels_rejected_before_any_draw(self, d, monkeypatch):
        def no_draws(seed):
            raise AssertionError("drew before checking d")

        monkeypatch.setattr(np.random, "default_rng", no_draws)
        with pytest.raises(ValidationError,
                           match=f"^need at least two labels per vertex, got d={d}$"):
            erdos_renyi_potts(10, 0.3, d, 0)

    @pytest.mark.parametrize("n, d, shown", [(5, 2.5, "d=2.5"), (5, math.nan, "d=nan"),
                                              (5.0, 3, "n=5.0"), (2.7, 3, "n=2.7")],
                             ids=["d-2.5", "d-nan", "n-5.0", "n-2.7"])
    def test_non_integer_n_or_d_rejected_before_any_draw(self, n, d, shown, monkeypatch):
        def no_draws(seed):
            raise AssertionError("drew before checking n and d")

        monkeypatch.setattr(np.random, "default_rng", no_draws)
        name, value = shown.split("=")
        with pytest.raises(ValidationError, match=f"^{name} must be an integer, got {value}$"):
            erdos_renyi_potts(n, 0.5, d, 0)

    def test_negative_seed_rejected(self):
        with pytest.raises(ValidationError, match="seed must be >= 0, got -1"):
            erdos_renyi_potts(10, 0.3, 3, -1)

    @pytest.mark.parametrize("seed", [1.5, 3.0, "0", None, np.random.SeedSequence(0)],
                             ids=["1.5", "3.0", "str", "None", "SeedSequence"])
    def test_non_integer_seed_rejected_before_any_draw(self, seed, monkeypatch):
        def no_draws(seed):
            raise AssertionError("drew before checking the seed")

        monkeypatch.setattr(np.random, "default_rng", no_draws)
        with pytest.raises(ValidationError, match=f"^seed must be an integer, got {re.escape(str(seed))}$"):
            erdos_renyi_potts(10, 0.3, 3, seed)

    def test_numpy_integer_seed_gives_the_int_seeds_model(self):
        want = erdos_renyi_potts(30, 0.2, 3, 9)
        for seed in (np.int64(9), np.uint16(9), True + 8):
            got = erdos_renyi_potts(30, 0.2, 3, seed)
            assert got.edges.tobytes() == want.edges.tobytes()
            assert got.vertex_costs.tobytes() == want.vertex_costs.tobytes()
            assert got.edge_costs.tobytes() == want.edge_costs.tobytes()

    @pytest.mark.parametrize(
        "n, edge_prob, seed",
        [
            (2, 0.5, 0),
            (3, 1.0, 5),
            (12, 0.01, 0),  # nearly every vertex is repaired
            (12, 0.01, 7),
            (25, 1.0, 1),
            (40, 0.2, 101),
            (100, default_edge_prob(100), 3),
            (400, default_edge_prob(400), 7),
            (400, 0.001, 11),
        ],
    )
    def test_matches_the_documented_scalar_stream(self, n, edge_prob, seed):
        edge_list, vc, ec = reference_erdos_renyi_stream(n, edge_prob, 3, seed)
        m = erdos_renyi_potts(n, edge_prob, 3, seed)
        assert np.array_equal(m.edges, np.array(edge_list).reshape(-1, 2))
        assert np.array_equal(m.vertex_costs, vc)
        assert np.array_equal(m.edge_costs, ec)
        degrees, inc_edges, inc_slots = reference_incidence(n, edge_list)
        assert np.array_equal(m.degrees, degrees)
        assert [a.tolist() for a in m.incident_edges] == inc_edges
        assert [a.tolist() for a in m.incident_slots] == inc_slots


class TestBlockDrawnPairs:
    """The pair uniforms drawn in blocks that span rows give exactly the
    models of the row-by-row draws, including at block boundaries that fall
    inside a row."""

    def assert_same_as_row_by_row(self, n, edge_prob, d, seed):
        m = erdos_renyi_potts(n, edge_prob, d, seed)
        ref = row_by_row_erdos_renyi_potts(n, edge_prob, d, seed)
        assert np.array_equal(m.edges, ref.edges) and m.edges.dtype == ref.edges.dtype
        assert np.array_equal(m.vertex_costs, ref.vertex_costs)
        assert np.array_equal(m.edge_costs, ref.edge_costs)
        assert np.array_equal(m.degrees, ref.degrees)
        for mine, theirs in zip(m.incident_edges + m.incident_slots, ref.incident_edges + ref.incident_slots):
            assert np.array_equal(mine, theirs)
        return m

    @staticmethod
    def boundaries_inside_rows(n, block):
        pairs = n * (n - 1) // 2
        row_ends = set(np.cumsum(np.arange(n - 1, 0, -1)).tolist())
        return [b for b in range(block, pairs, block) if b not in row_ends]

    @pytest.mark.parametrize(
        "n, edge_prob, d, seed",
        [
            (725, 0.01, 3, 4),  # 262450 pairs: the one boundary falls inside a row
            (800, default_edge_prob(800), 2, 9),
            (760, 1.0, 2, 1),
        ],
    )
    def test_default_block(self, n, edge_prob, d, seed):
        assert self.boundaries_inside_rows(n, mapmp.model._PAIR_BLOCK)
        self.assert_same_as_row_by_row(n, edge_prob, d, seed)

    @pytest.mark.parametrize("block", [1, 2, 5, 64, 1000])
    def test_small_blocks(self, monkeypatch, block):
        monkeypatch.setattr(mapmp.model, "_PAIR_BLOCK", block)
        inside = 0
        for n, edge_prob, d, seed in [
            (2, 0.5, 2, 0),
            (3, 1.0, 2, 5),
            (12, 0.01, 3, 0),  # nearly every vertex is repaired
            (25, 1.0, 4, 1),
            (47, 0.2, 3, 101),
            (90, default_edge_prob(90), 5, 3),
        ]:
            inside += len(self.boundaries_inside_rows(n, block))
            m = self.assert_same_as_row_by_row(n, edge_prob, d, seed)
            if edge_prob == 1.0:
                assert m.m == n * (n - 1) // 2
        assert inside

    def test_repairs_follow_the_block_draws(self):
        # p small enough that most vertices need a repair draw after the pairs
        m = self.assert_same_as_row_by_row(300, 0.0005, 3, 2)
        assert m.m >= 150


class TestSplit:
    @pytest.mark.parametrize(
        "sizes, width",
        [([3, 1, 4, 1, 5], 1), ([0, 2, 0, 0, 3], 2), ([7], 3), ([0, 0, 0], 1)],
    )
    def test_matches_np_split(self, sizes, width):
        base = np.arange(sum(sizes) * width).reshape(-1, width).copy()
        want = np.split(base.copy(), np.cumsum(sizes)[:-1])
        got = mapmp.model._split(base, np.array(sizes))
        assert isinstance(got, tuple) and len(got) == len(want)
        for mine, theirs in zip(got, want):
            assert mine.shape == theirs.shape and np.array_equal(mine, theirs)
            assert mine.base is base and not mine.flags.writeable
        assert not base.flags.writeable

    def test_model_incidence_is_views_of_one_array(self):
        m = erdos_renyi_potts(40, 0.1, 3, 6)
        for views in (m.incident_edges, m.incident_slots):
            assert all(v.base is views[0].base and not v.flags.writeable for v in views)
        bounds = np.cumsum(m.degrees)[:-1]
        assert all(np.array_equal(a, b) for a, b in zip(
            m.incident_edges, np.split(np.concatenate(m.incident_edges), bounds)))


class TestDefaultEdgeProb:
    def test_sparse_regime_formula(self):
        assert default_edge_prob(100) == 1.1 * math.log(100) / 100
        assert default_edge_prob(2) == 1.1 * math.log(2) / 2

    @pytest.mark.parametrize("n", [1, 0, -3])
    def test_too_few_vertices_rejected(self, n):
        with pytest.raises(ValidationError, match=f"^n must be >= 2, got {n}$"):
            default_edge_prob(n)
