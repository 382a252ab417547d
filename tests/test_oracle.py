import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from scipy.optimize import linprog

from helpers import loop_lp_constraints, random_model, random_tree_model, random_tree_potts

import mapmp
from mapmp import (
    OracleGuardError,
    ValidationError,
    brute_force_map,
    build_model,
    gap_estimate,
    in_local_polytope,
    lp_solve_l2,
    map_value,
    oracle,
    tree_map,
)
from mapmp.cli import main

SRC = Path(__file__).resolve().parents[1] / "src"

def two_node_gap_model():
    return build_model(
        2, [(0, 1)], 2, [[0.0, 0.1], [0.0, 0.0]], [[[0.0, 1.0], [1.0, 0.0]]]
    )


class TestBruteForce:
    def test_zero_costs(self):
        m = build_model(3, [(0, 1), (1, 2)], 2, np.zeros((3, 2)), np.zeros((2, 2, 2)))
        res = brute_force_map(m)
        assert res.value == 0.0
        assert res.assignment.tolist() == [0, 0, 0]
        assert not res.unique

    def test_two_node_example(self):
        res = brute_force_map(two_node_gap_model())
        assert res.assignment.tolist() == [0, 0]
        assert res.value == pytest.approx(0.0, abs=0)
        assert res.unique

    def test_value_matches_map_value_of_assignment(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            m = random_model(rng, 5, 3)
            res = brute_force_map(m)
            assert res.value == pytest.approx(map_value(m, res.assignment), abs=1e-12)

    def test_invariant_under_vertex_relabeling(self):
        rng = np.random.default_rng(1)
        m = random_model(rng, 5, 2)
        perm = rng.permutation(m.n)
        edges = [(int(perm[i]), int(perm[j])) for i, j in m.edges]
        vc = np.empty_like(m.vertex_costs)
        vc[perm] = m.vertex_costs
        relabeled = build_model(m.n, edges, m.d, vc, m.edge_costs.copy())
        assert brute_force_map(relabeled).value == pytest.approx(
            brute_force_map(m).value, abs=1e-12
        )

    def test_chunking_independence(self):
        import mapmp.oracle as oracle_mod

        rng = np.random.default_rng(2)
        m = random_model(rng, 7, 3)
        full = brute_force_map(m)
        original = oracle_mod._CHUNK
        try:
            oracle_mod._CHUNK = 17
            chunked = brute_force_map(m)
        finally:
            oracle_mod._CHUNK = original
        assert chunked.value == full.value
        assert chunked.assignment.tolist() == full.assignment.tolist()
        assert chunked.unique == full.unique

    def test_guard_refusal(self):
        m = build_model(
            30,
            [(i, i + 1) for i in range(29)],
            3,
            np.zeros((30, 3)),
            np.zeros((29, 3, 3)),
        )
        with pytest.raises(OracleGuardError):
            brute_force_map(m)


class TestTreeMap:
    def test_single_edge_matches_brute_force(self):
        rng = np.random.default_rng(3)
        m = random_model(rng, 2, 3, extra_edge_prob=0.0)
        assert tree_map(m).value == pytest.approx(brute_force_map(m).value, abs=1e-12)

    def test_path_of_eight_matches_brute_force(self):
        rng = np.random.default_rng(4)
        m = build_model(
            8,
            [(i, i + 1) for i in range(7)],
            3,
            rng.normal(size=(8, 3)),
            rng.normal(size=(7, 3, 3)),
        )
        assert tree_map(m).value == pytest.approx(brute_force_map(m).value, abs=1e-12)

    def test_star_of_six_leaves_matches_brute_force(self):
        rng = np.random.default_rng(5)
        m = build_model(
            7,
            [(0, k) for k in range(1, 7)],
            2,
            rng.normal(size=(7, 2)),
            rng.normal(size=(6, 2, 2)),
        )
        assert tree_map(m).value == pytest.approx(brute_force_map(m).value, abs=1e-12)

    def test_random_trees_match_brute_force(self):
        rng = np.random.default_rng(6)
        for _ in range(100):
            n = int(rng.integers(2, 11))
            m = random_tree_model(rng, n, int(rng.integers(2, 4)))
            res = tree_map(m)
            assert res.value == pytest.approx(brute_force_map(m).value, abs=1e-11)
            assert res.value == pytest.approx(map_value(m, res.assignment), abs=1e-11)

    def test_cycle_rejected(self):
        m = build_model(
            3, [(0, 1), (1, 2), (0, 2)], 2, np.zeros((3, 2)), np.zeros((3, 2, 2))
        )
        with pytest.raises(ValidationError, match="cycle"):
            tree_map(m)


class TestLpSolve:
    def test_zero_costs(self):
        m = build_model(3, [(0, 1), (1, 2)], 2, np.zeros((3, 2)), np.zeros((2, 2, 2)))
        assert lp_solve_l2(m).value == pytest.approx(0.0, abs=1e-9)

    def test_tight_on_trees(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            m = random_tree_model(rng, int(rng.integers(3, 9)), 3)
            res = lp_solve_l2(m)
            assert res.value == pytest.approx(tree_map(m).value, abs=1e-6)
            assert in_local_polytope(m, res.marginals, 1e-8)

    def test_relaxation_lower_bounds_brute_force(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            m = random_model(rng, 5, 3)
            assert lp_solve_l2(m).value <= brute_force_map(m).value + 1e-7

    def test_constraints_match_the_loop_builder(self, monkeypatch):
        """The array-built A_eq and b_eq are the loop builder's, byte for
        byte, and HiGHS returns the same point and value from either."""
        captured = []

        def capture(cost, A_eq, b_eq, **kwargs):
            captured.append((A_eq, b_eq))
            return linprog(cost, A_eq=A_eq, b_eq=b_eq, **kwargs)

        monkeypatch.setattr(oracle, "linprog", capture)
        rng = np.random.default_rng(14)
        models = [random_model(rng, int(rng.integers(2, 9)), d) for d in (2, 3, 5) for _ in range(4)]
        models += [random_tree_model(rng, 6, 3), mapmp.erdos_renyi_potts(30, 0.15, 2, 1)]
        for m in models:
            res = lp_solve_l2(m)
            a_eq, b_eq = captured.pop()
            want_a, want_b = loop_lp_constraints(m)
            for got, want in ((a_eq.indptr, want_a.indptr), (a_eq.indices, want_a.indices),
                              (a_eq.data, want_a.data), (b_eq, want_b)):
                assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
            assert a_eq.shape == want_a.shape
            cost = np.concatenate([m.vertex_costs.ravel(), m.edge_costs.ravel()])
            want = linprog(cost, A_eq=want_a, b_eq=want_b, bounds=(0, None), method="highs")
            assert res.value == want.fun
            assert res.marginals.vertex.tobytes() == want.x[: m.n * m.d].tobytes()
            assert res.marginals.edge.tobytes() == want.x[m.n * m.d :].tobytes()

    @pytest.mark.parametrize("spoil, message", [
        (lambda res: res.x.fill(0.0), "^LP oracle returned an infeasible point$"),
        (lambda res: res.eqlin.marginals.__iadd__(1.0), "^LP duality check failed: primal "),
    ], ids=["zeroed-point", "shifted-multipliers"])
    def test_a_failed_certificate_is_an_error(self, monkeypatch, spoil, message):
        def spoiled(*args, **kwargs):
            res = linprog(*args, **kwargs)
            spoil(res)
            return res

        monkeypatch.setattr(oracle, "linprog", spoiled)
        with pytest.raises(ValidationError, match=message):
            lp_solve_l2(two_node_gap_model())

    def test_guard_refusal(self):
        n = 200
        m = build_model(
            n,
            [(i, i + 1) for i in range(n - 1)],
            5,
            np.zeros((n, 5)),
            np.zeros((n - 1, 5, 5)),
        )
        with pytest.raises(OracleGuardError):
            lp_solve_l2(m)


class TestGapEstimate:
    def test_two_node_example(self):
        assert gap_estimate(two_node_gap_model()) == pytest.approx(0.1, abs=1e-12)

    def test_scales_with_costs(self):
        m = two_node_gap_model()
        doubled = build_model(
            m.n, m.edges, m.d, 2.0 * m.vertex_costs, 2.0 * m.edge_costs
        )
        assert gap_estimate(doubled) == pytest.approx(2.0 * gap_estimate(m), rel=1e-12)

    def test_positive_iff_unique(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            m = random_tree_potts(6, 3, int(rng.integers(2**31)))
            res = brute_force_map(m)
            if res.unique:
                assert gap_estimate(m) > 0
            else:
                with pytest.raises(ValidationError, match="unique"):
                    gap_estimate(m)

    def test_non_unique_rejected(self):
        m = build_model(2, [(0, 1)], 2, np.zeros((2, 2)), np.zeros((1, 2, 2)))
        with pytest.raises(ValidationError, match="unique"):
            gap_estimate(m)

    def test_chunking_independence(self):
        import mapmp.oracle as oracle_mod

        rng = np.random.default_rng(10)
        m = random_tree_model(rng, 6, 3)
        if not brute_force_map(m).unique:
            pytest.skip("needs a unique optimum")
        full = gap_estimate(m)
        original = oracle_mod._CHUNK
        try:
            oracle_mod._CHUNK = 13
            chunked = gap_estimate(m)
        finally:
            oracle_mod._CHUNK = original
        assert chunked == pytest.approx(full, abs=0)


def scan_answers(m):
    """``brute_force_map``'s assignment, value and uniqueness, then
    ``gap_estimate``'s gap or error message."""
    result = brute_force_map(m)
    try:
        gap = gap_estimate(m)
    except ValidationError as exc:
        gap = str(exc)
    return result.assignment.tolist(), result.value, result.unique, gap


class TestChunkedScan:
    """The exhaustive scan gives its default answer at every chunk size, with
    the minimizer, the runner-up and a tied optimum in different chunks."""

    # 3 vertices, 3 labels, zero edge costs: assignment (x0, x1, x2) has
    # index 9 x0 + 3 x1 + x2 and value x0_costs[x0] + 3 [x1 < 2] + 3 [x2 < 2]
    @pytest.mark.parametrize("x0_costs, minimizers, runner_up, gap", [
        ([0.5, 1.0, 0.0], [26], 8, 0.5),
        ([0.0, 1.0, 0.5], [8], 26, 0.5),
        ([0.0, 1.0, 0.0], [8, 26], 17,
         "suboptimality gap undefined: optimum is not unique (attained by 2 assignments)"),
    ], ids=["runner-up-first", "runner-up-last", "tied"])
    @pytest.mark.parametrize("chunk", [2, 5, 8])
    def test_every_chunk_size_gives_the_default_answer(
        self, chunk, x0_costs, minimizers, runner_up, gap, monkeypatch
    ):
        costs = [x0_costs, [3.0, 3.0, 0.0], [3.0, 3.0, 0.0]]
        m = build_model(3, [(0, 1), (1, 2)], 3, costs, np.zeros((2, 3, 3)))
        default = scan_answers(m)
        first = minimizers[0]
        assert default == ([first // 9, first // 3 % 3, first % 3], 0.0, len(minimizers) == 1, gap)
        assert len({index // chunk for index in minimizers + [runner_up]}) == len(minimizers) + 1
        monkeypatch.setattr(oracle, "_CHUNK", chunk)
        assert scan_answers(m) == default


@pytest.mark.filterwarnings("error::RuntimeWarning")
class TestOverflowingCosts:
    """Finite costs whose sums overflow a double: the exhaustive and tree
    oracles refuse them rather than crash or report an infinite optimum."""

    MESSAGE = "^assignment values are not finite: the costs overflow a double$"
    HUGE = ("mapmp v1 3 2 2\nv 0 1e308 1e308\nv 1 1e308 1e308\nv 2 1e308 1e308\n"
            "e 0 1 0 0 0 0\ne 1 2 0 0 0 0\n")

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    @pytest.mark.parametrize("solve", [brute_force_map, gap_estimate, tree_map])
    def test_every_sum_overflows(self, solve, sign):
        m = build_model(3, [(0, 1), (1, 2)], 2, np.full((3, 2), sign * 1e308), np.zeros((2, 2, 2)))
        with pytest.raises(ValidationError, match=self.MESSAGE):
            solve(m)

    @pytest.mark.parametrize("method", ["brute", "tree", "lp"])
    def test_cli_exits_2(self, method, tmp_path, capsys):
        path = tmp_path / "huge.txt"
        path.write_text(self.HUGE)
        assert main(["oracle", str(path), "--method", method]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        if method != "lp":  # the LP solver names its own failure
            assert captured.err == f"error: {self.MESSAGE[1:-1]}\n"
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1

    @pytest.mark.parametrize("method", ["brute", "tree"])
    def test_cli_process_writes_one_error_line(self, method, tmp_path):
        """In a fresh process, where NumPy prints a RuntimeWarning and its
        source line to stderr: the overflowing sums print none."""
        (tmp_path / "huge.txt").write_text(self.HUGE)
        run = subprocess.run(
            [sys.executable, "-m", "mapmp.cli", "oracle", "huge.txt", "--method", method],
            cwd=tmp_path, capture_output=True, text=True, timeout=120,
            env={**os.environ, "PYTHONPATH": os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")])},
        )
        assert run.returncode == 2
        assert run.stdout == ""
        assert run.stderr == f"error: {self.MESSAGE[1:-1]}\n"

    def test_tree_backtracking_overflow_is_refused(self):
        # 1e308 + 1e308 overflows in the belief and backtracking sums, though
        # the optimum (label 1 everywhere) is 0.0
        m = build_model(2, [(0, 1)], 2, [[1e308, 0.0], [1e308, 0.0]], [[[1e308, 0.0], [0.0, 0.0]]])
        with pytest.raises(ValidationError, match=self.MESSAGE):
            tree_map(m)

    @pytest.mark.parametrize("vertex_costs", [
        [[0.0, 1e308], [0.0, 1e308], [0.0, 0.0]],  # only (1, 1, x) overflow; the optimum 0 is finite
        [[1e308, 0.0], [-1e308, 0.0], [0.0, 0.0]],  # mixed signs: every assignment value is finite
    ], ids=["partly-overflowing", "mixed-sign"])
    @pytest.mark.parametrize("solve", [brute_force_map, gap_estimate, tree_map])
    def test_largest_costs_summing_past_a_double_are_refused(self, solve, vertex_costs):
        m = build_model(3, [(0, 1), (1, 2)], 2, vertex_costs, np.zeros((2, 2, 2)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # the precheck sums without a NumPy warning
            with pytest.raises(ValidationError, match=self.MESSAGE):
                solve(m)
