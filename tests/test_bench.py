from collections import Counter

import numpy as np
import pytest

import mapmp
from mapmp import ValidationError, bench, schedulers
from mapmp.bench import (
    ALGORITHMS,
    BenchConfig,
    METRIC_HEADER,
    metrics_csv,
    parse_metrics_csv,
    ratio_csv,
    run_bench,
    summary_csv,
)
from mapmp.cli import main
from mapmp.formats import emit_model


def small_config(**overrides):
    base = dict(
        algorithm="emp",
        eta=50.0,
        iters=40,
        trials=2,
        seed=7,
        stride=10,
        n=6,
        d=2,
        edge_prob=0.5,
    )
    base.update(overrides)
    return BenchConfig(**base)


class TestBenchConfig:
    def test_validation_failures(self):
        with pytest.raises(ValidationError):
            small_config(algorithm="nope").validate()
        with pytest.raises(ValidationError):
            small_config(trials=0).validate()
        with pytest.raises(ValidationError):
            small_config(eta=0.0).validate()
        with pytest.raises(ValidationError):
            small_config(ratio=True, algorithm="accel-emp").validate()
        with pytest.raises(ValidationError):
            BenchConfig(
                algorithm="emp", eta=1.0, iters=1, trials=1, seed=0
            ).validate()  # no instance source
        with pytest.raises(ValidationError):
            small_config(model_file="x.mapmp").validate()  # two sources

    def test_negative_seed_rejected(self):
        with pytest.raises(ValidationError, match="seed must be >= 0, got -1"):
            small_config(seed=-1).validate()
        with pytest.raises(ValidationError, match="seed must be >= 0, got -1"):
            run_bench(small_config(seed=-1))


    @pytest.mark.parametrize("opt", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_opt_value_rejected(self, opt):
        with pytest.raises(ValidationError, match=f"opt_value must be finite, got {opt}"):
            small_config(opt_value=opt).validate()
        with pytest.raises(ValidationError, match="opt_value must be finite"):
            run_bench(small_config(opt_value=opt))


class TestRunBench:
    def test_zero_iterations_single_row_per_trial(self):
        res = run_bench(small_config(iters=0, trials=1))
        assert len(res.rows) == 1
        row = res.rows[0]
        assert row.iteration == 0
        assert row.dual_value == pytest.approx(
            mapmp.dual_objective(res.model, mapmp.zero_dual(res.model), 50.0)
        )

    def test_rows_follow_schema_and_parse_back(self):
        res = run_bench(small_config())
        text = metrics_csv(res)
        assert text.splitlines()[0] == ",".join(METRIC_HEADER)
        rows = parse_metrics_csv(text)
        assert len(rows) == len(res.rows)
        assert rows[0].algorithm == "emp"
        assert {r.trial for r in rows} == {0, 1}

    def test_gap_uses_lp_when_instance_small(self):
        res = run_bench(small_config())
        assert res.opt_value is not None
        for row in res.rows:
            assert row.primal_gap == pytest.approx(
                row.projected_primal - res.opt_value, abs=1e-12
            )
            assert row.primal_gap >= -1e-7  # projection stays above the LP optimum

    def test_supplied_opt_value_short_circuits_lp(self):
        res = run_bench(small_config(opt_value=-3.25))
        assert res.opt_value == -3.25

    def test_byte_identical_reruns(self):
        a = run_bench(small_config(ratio=True, algorithm="smp"))
        b = run_bench(small_config(ratio=True, algorithm="smp"))
        assert metrics_csv(a) == metrics_csv(b)
        assert summary_csv(a) == summary_csv(b)
        assert ratio_csv(a) == ratio_csv(b)

    def test_elapsed_zero_by_default_and_measured_with_timing(self):
        res = run_bench(small_config())
        assert all(row.elapsed_ms == 0.0 for row in res.rows)
        timed = run_bench(small_config(timing=True))
        assert any(row.elapsed_ms > 0.0 for row in timed.rows)

    def test_ratio_mode_pairs_algorithms(self):
        res = run_bench(small_config(ratio=True, algorithm="emp", iters=60))
        algs = {row.algorithm for row in res.rows}
        assert algs == {"emp", "accel-emp"}
        iterations = sorted({row.iteration for row in res.rows})
        assert [r.iteration for r in res.ratio_rows] == iterations
        finite = [r for r in res.ratio_rows if r.log_ratio_mean is not None]
        assert finite, "expected at least one defined log-ratio row"

    def test_equal_gaps_give_zero_log_ratio(self):
        res = run_bench(small_config(ratio=True, algorithm="emp", iters=0, trials=3))
        # at iteration 0 both algorithms sit at lam = 0, so the ratio is log 1
        assert res.ratio_rows[0].log_ratio_mean == pytest.approx(0.0, abs=1e-12)

    def test_summary_means_and_stds(self):
        res = run_bench(small_config(trials=3))
        by_iter = {}
        for row in res.rows:
            by_iter.setdefault(row.iteration, []).append(row.projected_primal)
        for s in res.summary:
            assert s.primal_mean == pytest.approx(np.mean(by_iter[s.iteration]))
            assert s.primal_std == pytest.approx(np.std(by_iter[s.iteration]))

    def test_benchmark_protocol_at_headline_scale(self):
        # the n=100 sparse-Potts regime with eta = 1000 and 10 trials; a
        # short horizon keeps this a smoke test of the full pipeline
        res = run_bench(
            BenchConfig(
                algorithm="smp",
                eta=1000.0,
                iters=200,
                trials=10,
                seed=1,
                stride=100,
                n=100,
                d=3,
                ratio=True,
            )
        )
        assert res.model.n == 100
        assert 174 <= res.model.m <= 328
        assert res.opt_value is not None  # LP guard admits n=100, d=3
        assert len(res.rows) == 2 * 10 * 3
        assert all(row.primal_gap is not None for row in res.rows)

    def test_model_file_source(self, tmp_path):
        m = mapmp.erdos_renyi_potts(6, 0.5, 2, 3)
        path = tmp_path / "inst.mapmp"
        path.write_text(emit_model(m))
        res = run_bench(
            BenchConfig(
                algorithm="emp",
                eta=10.0,
                iters=5,
                trials=1,
                seed=0,
                model_file=str(path),
            )
        )
        assert res.model.m == m.m


class TestSolverBindings:
    """A benchmark run instruments the package by rebinding names: the block
    updates in ``mapmp.schedulers`` and the solvers in ``mapmp.bench``.  A
    solve must call exactly those bindings: one update per iteration, one
    solver per solve."""

    MARKED = {"emp": "emp_update", "smp": "smp_update", "bcd": "block_grad_step"}
    SOLVERS = {"accel-emp": "accel_emp", "accel-smp": "accel_smp", "accel-bcd": "accel_block_grad"}

    @pytest.fixture
    def calls(self, monkeypatch):
        counts = Counter()

        def counting(name, fn):
            def wrapper(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)

            return wrapper

        for module, names in (
            (schedulers, self.MARKED.values()),
            (bench, ("standard_mp", *self.SOLVERS.values())),
        ):
            for name in names:
                monkeypatch.setattr(module, name, counting(name, getattr(module, name)))
        return counts

    def expected(self, algorithm):
        marked = self.MARKED[algorithm.removeprefix("accel-")]
        return marked, self.SOLVERS.get(algorithm, "standard_mp")

    @pytest.mark.parametrize("early_stop", [False, True])
    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_solve_calls_one_update_per_iteration(self, calls, algorithm, early_stop):
        model = mapmp.erdos_renyi_potts(12, 0.4, 3, 5)
        eta, iters = 20.0, 120
        stop = None
        if early_stop:
            stop = float(np.median(bench.solve(algorithm, model, eta, iters, 3).slack_scores))
            calls.clear()
        trace = bench.solve(algorithm, model, eta, iters, 3, stop_slack_score=stop)
        done = int(trace.iterations[-1])
        assert 0 < done < iters if early_stop else done == iters
        marked, solver = self.expected(algorithm)
        assert calls == Counter({marked: done, solver: 1})

    @pytest.mark.parametrize("standard", ["emp", "smp", "bcd"])
    def test_ratio_run_bench_calls_one_update_per_iteration(self, calls, standard):
        config = small_config(algorithm=standard, ratio=True, iters=30, trials=2)
        run_bench(config)
        expected = Counter()
        for algorithm in (standard, bench.RATIO_PAIR[standard]):
            marked, solver = self.expected(algorithm)
            expected[marked] += config.trials * config.iters
            expected[solver] += config.trials
        assert calls == expected

    def test_traced_kernel_names_stay_bound(self):
        assert schedulers.block_slack is mapmp.updates.block_slack
        assert schedulers.star_slack is mapmp.updates.star_slack
        assert schedulers.dual_and_slack is mapmp.objective.dual_and_slack

    def test_unknown_algorithm_rejected(self):
        model = mapmp.erdos_renyi_potts(6, 0.5, 2, 0)
        with pytest.raises(ValidationError, match="unknown algorithm"):
            bench.solve("nope", model, 1.0, 1, 0)


class TestCli:
    def test_gen_solve_oracle_round(self, tmp_path, capsys):
        out = tmp_path / "model.mapmp"
        assert main(["gen", "--n", "6", "--d", "2", "--seed", "3", "--out", str(out)]) == 0
        assert main(["solve", str(out), "--algo", "accel-emp", "--eta", "30",
                     "--iters", "200", "--seed", "1"]) == 0
        solved = capsys.readouterr().out
        assert "dual_value" in solved and "rounded_value" in solved
        assert main(["oracle", str(out), "--method", "brute"]) == 0
        assert main(["oracle", str(out), "--method", "lp"]) == 0

    def test_solve_epsilon_flag(self, tmp_path, capsys):
        out = tmp_path / "model.mapmp"
        main(["gen", "--n", "5", "--d", "2", "--seed", "0", "--out", str(out)])
        assert main(["solve", str(out), "--epsilon", "0.5", "--iters", "10"]) == 0
        text = capsys.readouterr().out
        model = mapmp.load_model(out.read_text())
        expected = mapmp.eta_for_epsilon(model.m, model.n, model.d, 0.5)
        assert f"{expected}" in text

    def test_convert_uai(self, tmp_path):
        uai = tmp_path / "model.uai"
        uai.write_text("MARKOV\n2\n2 2\n1\n2 0 1\n4\n 1 2 3 4\n")
        out = tmp_path / "model.mapmp"
        assert main(["convert", str(uai), "--out", str(out)]) == 0
        m = mapmp.load_model(out.read_text())
        assert m.m == 1

    def test_bench_csv_determinism_and_schema(self, tmp_path):
        args = [
            "bench", "--n", "6", "--d", "2", "--algo", "smp", "--ratio",
            "--eta", "50", "--iters", "30", "--trials", "2", "--seed", "9",
            "--stride", "10",
        ]
        out1 = tmp_path / "a.csv"
        out2 = tmp_path / "b.csv"
        assert main(args + ["--out", str(out1)]) == 0
        assert main(args + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()
        assert (tmp_path / "a.csv.summary.csv").exists()
        assert (tmp_path / "a.csv.ratio.csv").exists()
        header = out1.read_text().splitlines()[0]
        assert header == "trial,iter,algorithm,dual_value,projected_primal,primal_gap,slack_score,elapsed_ms"

    def test_validation_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.mapmp"
        bad.write_text("mapmp v9 1 0 2\n")
        assert main(["oracle", str(bad), "--method", "brute"]) == 2
        assert "version" in capsys.readouterr().err

    def test_negative_seed_is_validation_error(self, tmp_path, capsys):
        model = tmp_path / "model.mapmp"
        assert main(["gen", "--n", "5", "--d", "2", "--out", str(model)]) == 0
        capsys.readouterr()
        for argv in (
            ["gen", "--n", "5", "--d", "2", "--seed", "-1"],
            ["solve", str(model), "--eta", "5", "--iters", "3", "--seed", "-1"],
            ["bench", "--n", "5", "--d", "2", "--iters", "3", "--seed", "-1",
             "--out", str(tmp_path / "m.csv")],
        ):
            assert main(argv) == 2
            captured = capsys.readouterr()
            assert captured.err == "error: seed must be >= 0, got -1\n"
            assert captured.out == ""
        assert not (tmp_path / "m.csv").exists()

    def test_solve_infinite_epsilon_is_validation_error(self, tmp_path, capsys):
        model = tmp_path / "model.mapmp"
        assert main(["gen", "--n", "5", "--d", "2", "--out", str(model)]) == 0
        capsys.readouterr()
        assert main(["solve", str(model), "--epsilon", "inf", "--iters", "3"]) == 2
        assert "epsilon must be a positive finite number, got inf" in capsys.readouterr().err

    def test_bad_native_header_is_validation_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.mapmp"
        bad.write_text("mapmp v1 2 1 0\nv 0\nv 1\ne 0 1\n")
        assert main(["solve", str(bad), "--eta", "1"]) == 2
        assert capsys.readouterr().err == "error: line 1: header needs d >= 2, got 0\n"
        bad.write_text("mapmp v1 100000000000 0 2\n")
        assert main(["solve", str(bad), "--eta", "1"]) == 2
        assert "header declares 100000000000 vertices" in capsys.readouterr().err

    @pytest.mark.parametrize("raw", ["nan", "inf", "-inf"])
    def test_non_finite_opt_file_is_validation_error(self, tmp_path, capsys, raw):
        opt = tmp_path / "opt.txt"
        opt.write_text(raw + "\n")
        out = tmp_path / "m.csv"
        argv = ["bench", "--n", "5", "--d", "2", "--iters", "3", "--opt-file", str(opt),
                "--out", str(out)]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: opt_value must be finite, got {float(raw)}\n"
        assert not out.exists()

    def test_uai_without_enough_tables_is_validation_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.uai"
        bad.write_text("MARKOV\n2\n100000 100000\n0\n")
        assert main(["convert", str(bad)]) == 2
        assert capsys.readouterr().err == (
            "error: 2 variables of cardinality 100000 need at least 200000 table entries, "
            "the file has 0 table tokens\n"
        )

    def test_bad_uai_is_validation_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.uai"
        bad.write_text("MARKOV 2 -1 -1 0\n")
        assert main(["convert", str(bad)]) == 2
        assert "cardinality of variable 0 must be >= 2, got -1" in capsys.readouterr().err

    def test_too_few_vertices_for_the_default_edge_prob(self, tmp_path, capsys):
        for argv in (
            ["gen", "--n", "0", "--d", "3"],
            ["gen", "--n", "1", "--d", "3"],
            ["bench", "--n", "0", "--d", "3", "--iters", "3", "--out", str(tmp_path / "m.csv")],
            ["bench", "--n", "0", "--d", "3", "--iters", "3", "--epsilon", "1",
             "--out", str(tmp_path / "m.csv")],
        ):
            assert main(argv) == 2
            captured = capsys.readouterr()
            assert captured.err.startswith("error: need n >= 2 vertices, got ")
            assert captured.out == ""
        assert not (tmp_path / "m.csv").exists()

    def test_missing_bench_model_file_is_validation_error(self, tmp_path, capsys):
        missing = tmp_path / "missing.txt"
        out = tmp_path / "m.csv"
        argv = ["bench", "--model", str(missing), "--iters", "3", "--out", str(out)]
        assert main(argv) == 2
        assert main(argv + ["--epsilon", "1"]) == 2
        assert capsys.readouterr().err.count(f"error: cannot read {missing}: ") == 2
        assert not out.exists()

    def test_guard_exit_code(self, tmp_path, capsys):
        big = mapmp.build_model(
            30,
            [(i, i + 1) for i in range(29)],
            3,
            np.zeros((30, 3)),
            np.zeros((29, 3, 3)),
        )
        path = tmp_path / "big.mapmp"
        path.write_text(emit_model(big))
        assert main(["oracle", str(path), "--method", "brute"]) == 3
        assert "refused" in capsys.readouterr().err

    def test_tree_oracle_on_cycle_is_validation_error(self, tmp_path):
        tri = mapmp.build_model(
            3, [(0, 1), (1, 2), (0, 2)], 2, np.zeros((3, 2)), np.zeros((3, 2, 2))
        )
        path = tmp_path / "tri.mapmp"
        path.write_text(emit_model(tri))
        assert main(["oracle", str(path), "--method", "tree"]) == 2
