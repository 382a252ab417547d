import math
from collections import Counter
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

import mapmp
from mapmp import ValidationError, bench, cli, schedulers
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
from mapmp.model import default_edge_prob

import pins
from helpers import two_phase_run_bench


BENCH_ARGV = ["bench", "--n", "30", "--d", "3", "--algo", "smp", "--ratio", "--iters", "200",
              "--trials", "3", "--seed", "4", "--stride", "20"]
EPSILON_ARGV = BENCH_ARGV + ["--epsilon", "0.5"]


def csv_parts(text):
    """The integer and text columns of a metrics, summary or ratio CSV, and
    its float columns (an empty cell as NaN)."""
    header, *rows = [line.split(",") for line in text.splitlines()]
    columns = {key: [row[i] for row in rows] for i, key in enumerate(header)}
    ints = {key: cells for key, cells in columns.items()
            if key in ("trial", "iter", "algorithm", "trials_used")}
    floats = {key: [float(x) if x else math.nan for x in cells]
              for key, cells in columns.items() if key not in ints}
    return ints, floats


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

    @pytest.mark.parametrize("field, value", [("iters", 20.0), ("trials", 1.5), ("stride", 2.5),
                                              ("seed", 0.5), ("n", 30.0), ("d", 3.5)])
    def test_non_integer_field_rejected_before_any_model(self, field, value, monkeypatch):
        calls = []
        monkeypatch.setattr(bench, "erdos_renyi_potts", lambda *a: calls.append("generate"))
        monkeypatch.setattr(bench, "lp_solve_l2", lambda *a: calls.append("lp"))
        config = small_config(algorithm="smp", ratio=True, stride=5, n=30, d=3, edge_prob=None)
        setattr(config, field, value)
        with pytest.raises(ValidationError, match=f"^{field} must be an integer, got {value}$"):
            run_bench(config)
        assert calls == []

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

    @pytest.mark.parametrize("column, bad", [(3, "x"), (1, "2.5")])
    def test_bad_cell_names_its_line_and_column(self, column, bad):
        lines = metrics_csv(run_bench(small_config(iters=0))).splitlines()
        cells = lines[2].split(",")
        cells[column] = bad
        lines[2] = ",".join(cells)
        with pytest.raises(ValidationError, match=f"^line 3: bad {METRIC_HEADER[column]} cell '{bad}'$"):
            parse_metrics_csv("\n".join(lines))

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


class TestOnePassRows:
    """``run_bench`` builds each row in one pass from the solver trace; its
    CSVs keep the bytes of the two-phase version it replaced."""

    # the standard algorithms alone and in ratio mode, the accelerated ones alone
    RUNS = [(alg, ratio) for alg in ("emp", "smp", "bcd") for ratio in (False, True)]
    RUNS += [("accel-emp", False), ("accel-smp", False), ("accel-bcd", False)]
    # 9 or more trials is where the order of a mean's sum shows in its bits
    TRIALS = (1, 2, 3, 9, 10, 17)

    def config(self, algorithm, ratio, trials, iters, **overrides):
        return small_config(
            algorithm=algorithm, ratio=ratio, trials=trials, iters=iters, stride=4, **overrides
        )

    @pytest.mark.parametrize("reference", ["lp", "supplied", "none"])
    @pytest.mark.parametrize(("algorithm", "ratio"), RUNS)
    def test_csv_bytes_match_two_phase_rows(self, algorithm, ratio, reference):
        # iters 0 records only lam = 0; iters 7 with stride 4 ends off-stride.
        # With d = 30, n d + m d^2 is past the LP guard: no reference optimum.
        overrides = {"lp": {}, "supplied": {"opt_value": -3.25}, "none": {"d": 30}}[reference]
        for trials in self.TRIALS:
            for iters in (0, 7):
                one = run_bench(self.config(algorithm, ratio, trials, iters, **overrides))
                two = two_phase_run_bench(self.config(algorithm, ratio, trials, iters, **overrides))
                assert (one.opt_value is None) == (reference == "none")
                assert metrics_csv(one) == metrics_csv(two)
                assert summary_csv(one) == summary_csv(two)
                assert ratio_csv(one) == ratio_csv(two)

    @pytest.mark.parametrize(("algorithm", "ratio"), [("smp", True), ("accel-emp", False)])
    def test_timed_rows_match_two_phase_rows_but_elapsed(self, algorithm, ratio):
        one = run_bench(self.config(algorithm, ratio, 3, 25, timing=True))
        two = two_phase_run_bench(self.config(algorithm, ratio, 3, 25, timing=True))
        assert any(row.elapsed_ms > 0.0 for row in one.rows)
        for row in one.rows + two.rows:
            row.elapsed_ms = 0.0
        assert metrics_csv(one) == metrics_csv(two)
        assert summary_csv(one) == summary_csv(two)
        assert ratio_csv(one) == ratio_csv(two)


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

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_negative_seed_rejected(self, algorithm):
        model = mapmp.erdos_renyi_potts(6, 0.5, 2, 0)
        with pytest.raises(ValidationError, match="seed must be >= 0"):
            bench.solve(algorithm, model, 1.0, 0, -1)


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

    def test_every_model_input_reads_uai(self, tmp_path, capsys):
        """solve, oracle and bench --model read a UAI file as the native
        file that convert makes of it."""
        uai, native = tmp_path / "model.uai", tmp_path / "model.mapmp"
        uai.write_text(mapmp.emit_uai(mapmp.erdos_renyi_potts(6, 0.5, 2, 3)))
        assert main(["convert", str(uai), "--out", str(native)]) == 0
        csv, outputs = tmp_path / "bench.csv", []
        for path in (uai, native):
            capsys.readouterr()
            assert main(["solve", str(path), "--eta", "30", "--iters", "50"]) == 0
            assert main(["oracle", str(path), "--method", "lp"]) == 0
            assert main(["bench", "--model", str(path), "--iters", "20", "--trials", "1",
                         "--out", str(csv)]) == 0
            outputs.append((capsys.readouterr().out, csv.read_bytes()))
        assert outputs[0] == outputs[1]

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

    @pytest.mark.parametrize("eta", ["inf", "nan"])
    def test_bench_non_finite_eta_fails_before_the_lp(self, tmp_path, capsys, monkeypatch, eta):
        calls = []
        monkeypatch.setattr(bench, "lp_solve_l2", lambda model: calls.append(model))
        out = tmp_path / "m.csv"
        argv = ["bench", "--n", "6", "--d", "2", "--eta", eta, "--iters", "3", "--out", str(out)]
        assert main(argv) == 2
        assert capsys.readouterr().err == f"error: eta must be a positive finite number, got {eta}\n"
        assert calls == [] and not out.exists()

    def test_solve_negative_eta_is_validation_error(self, tmp_path, capsys):
        model = tmp_path / "model.mapmp"
        assert main(["gen", "--n", "5", "--d", "2", "--out", str(model)]) == 0
        capsys.readouterr()
        assert main(["solve", str(model), "--eta", "-1", "--iters", "3"]) == 2
        assert capsys.readouterr().err == "error: eta must be a positive finite number, got -1.0\n"

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

    def test_too_few_labels_is_validation_error(self, tmp_path, capsys):
        out = tmp_path / "m.csv"
        for d, argv in (
            ("-1", ["gen", "--n", "10", "--d", "-1"]),
            ("-2", ["bench", "--n", "10", "--d", "-2", "--eta", "10", "--iters", "3",
                    "--out", str(out)]),
            ("1", ["bench", "--n", "10", "--d", "1", "--epsilon", "1", "--iters", "3",
                   "--out", str(out)]),
        ):
            assert main(argv) == 2
            captured = capsys.readouterr()
            assert captured.err == f"error: need at least two labels per vertex, got d={d}\n"
            assert captured.out == ""
        assert not out.exists()

    def test_missing_bench_model_file_is_validation_error(self, tmp_path, capsys):
        missing = tmp_path / "missing.txt"
        out = tmp_path / "m.csv"
        argv = ["bench", "--model", str(missing), "--iters", "3", "--out", str(out)]
        assert main(argv) == 2
        assert main(argv + ["--epsilon", "1"]) == 2
        assert capsys.readouterr().err.count(f"error: cannot read {missing}: ") == 2
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ["solve", "BAD", "--eta", "1"],
            ["convert", "BAD"],
            ["oracle", "BAD", "--method", "brute"],
            ["bench", "--model", "BAD", "--iters", "3", "--out", "OUT"],
            ["bench", "--model", "GOOD", "--iters", "3", "--opt-file", "BAD", "--out", "OUT"],
        ],
        ids=["solve", "convert", "oracle", "bench-model", "bench-opt-file"],
    )
    def test_non_utf8_input_is_validation_error(self, tmp_path, capsys, argv):
        bad, good, out = tmp_path / "bad.txt", tmp_path / "good.mapmp", tmp_path / "m.csv"
        bad.write_bytes(b"\xff\xfe\x00bad")
        assert main(["gen", "--n", "5", "--d", "2", "--out", str(good)]) == 0
        capsys.readouterr()
        paths = {"BAD": str(bad), "GOOD": str(good), "OUT": str(out)}
        assert main([paths.get(a, a) for a in argv]) == 2
        captured = capsys.readouterr()
        assert captured.err == (
            f"error: cannot read {bad}: 'utf-8' codec can't decode byte 0xff in "
            "position 0: invalid start byte\n"
        )
        assert captured.out == "" and not out.exists()

    @pytest.mark.parametrize("scale", [["--eta", "7.5"], ["--epsilon", "0.5"]], ids=["eta", "epsilon"])
    def test_bench_generates_the_instance_once(self, scale, tmp_path, monkeypatch):
        calls = []
        generate = bench.erdos_renyi_potts

        def counted(*args):
            calls.append(args)
            return generate(*args)

        monkeypatch.setattr(bench, "erdos_renyi_potts", counted)
        out = tmp_path / "m.csv"
        assert main(BENCH_ARGV + scale + ["--out", str(out)]) == 0
        assert calls == [(30, default_edge_prob(30), 3, 4)]
        model = generate(*calls[0])
        eta = float(scale[1])
        if scale[0] == "--epsilon":
            eta = mapmp.eta_for_epsilon(model.m, model.n, model.d, eta)
        config = BenchConfig(algorithm="smp", ratio=True, eta=eta, iters=200, trials=3,
                             seed=4, stride=20, n=30, d=3)
        assert out.read_text() == metrics_csv(run_bench(config))
        if scale[0] == "--epsilon":
            # the bytes the CLI wrote when it built the instance twice
            pins.assert_pinned("bdffabea9a5bb669ae8d24d0da5d8e10f1c327e3e33d1091df76e5774d089254",
                               out.read_bytes(), "bench-epsilon-csv", *csv_parts(out.read_text()))

    @pytest.mark.parametrize("scale", [[], ["--epsilon", "0.5"]], ids=["eta", "epsilon"])
    def test_bench_validates_before_generating(self, scale, tmp_path, monkeypatch, capsys):
        calls = []
        generate = bench.erdos_renyi_potts
        monkeypatch.setattr(bench, "erdos_renyi_potts", lambda *a: calls.append(a) or generate(*a))
        out = tmp_path / "m.csv"
        argv = ["bench", "--n", "2000", "--d", "3", *scale, "--trials", "0",
                "--iters", "3", "--out", str(out)]
        assert main(argv) == 2
        assert capsys.readouterr().err == "error: trials must be >= 1, got 0\n"
        assert calls == [] and not out.exists()

    @pytest.mark.parametrize("edge_prob", [[], ["--edge-prob", "0.25"]], ids=["default", "flag"])
    def test_gen_generates_through_the_bench_route(self, edge_prob, monkeypatch, capsys):
        calls = []
        generate = bench.erdos_renyi_potts
        monkeypatch.setattr(bench, "erdos_renyi_potts", lambda *a: calls.append(a) or generate(*a))
        assert main(["gen", "--n", "30", "--d", "3", "--seed", "4", *edge_prob]) == 0
        p = float(edge_prob[1]) if edge_prob else default_edge_prob(30)
        assert calls == [(30, p, 3, 4)]
        assert capsys.readouterr().out == emit_model(generate(30, p, 3, 4))

    @pytest.mark.parametrize("epsilon, shown", [("inf", "inf"), ("nan", "nan"), ("0", "0.0"),
                                                 ("-1", "-1.0")])
    def test_bad_epsilon_exits_before_any_model_is_built(
        self, epsilon, shown, tmp_path, monkeypatch, capsys
    ):
        calls = []
        monkeypatch.setattr(bench, "erdos_renyi_potts", lambda *a: calls.append(a))
        monkeypatch.setattr(cli, "read_model", lambda *a: calls.append(a))
        message = f"error: epsilon must be a positive finite number, got {shown}\n"
        out = tmp_path / "m.csv"
        assert main(["bench", "--n", "2000", "--d", "3", "--epsilon", epsilon,
                     "--iters", "3", "--out", str(out)]) == 2
        assert capsys.readouterr().err == message
        assert main(["solve", str(tmp_path / "missing.mapmp"), "--epsilon", epsilon]) == 2
        assert capsys.readouterr().err == message
        assert calls == [] and not out.exists()

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


class TestTables:
    """Each CSV's columns, the ``mapmp bench`` flags, the oracle methods and
    the algorithm list are stated once; these pin what each statement says."""

    def test_headers_are_the_documented_columns(self):
        metrics = ("trial", "iter", "algorithm", "dual_value", "projected_primal", "primal_gap",
                   "slack_score", "elapsed_ms")
        assert METRIC_HEADER == metrics
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        assert f"`{','.join(metrics)}`" in readme
        assert bench.SUMMARY_HEADER == ("algorithm", "iter", "primal_mean", "primal_std", "gap_mean",
                                        "gap_std")
        assert bench.RATIO_HEADER == ("iter", "log_ratio_mean", "log_ratio_std", "trials_used")

    def test_algorithm_registry(self):
        assert ALGORITHMS == ("emp", "smp", "bcd", "accel-emp", "accel-smp", "accel-bcd")
        assert bench.RATIO_PAIR == {"emp": "accel-emp", "smp": "accel-smp", "bcd": "accel-bcd"}

    def test_oracle_methods(self, capsys):
        with pytest.raises(SystemExit):
            main(["oracle", "--help"])
        assert "--method {brute,tree,lp}" in capsys.readouterr().out

    def test_every_config_field_but_opt_value_has_a_flag(self):
        sub = next(a for a in cli.build_parser()._actions if a.dest == "command")
        dests = {action.dest for action in sub.choices["bench"]._actions}
        names = {f.name for f in fields(BenchConfig)}
        assert names - {"opt_value"} <= dests
        assert "opt_value" not in dests

    @pytest.mark.parametrize("source", ["generate", "model"])
    def test_every_flag_reaches_its_config_field(self, source, tmp_path, monkeypatch):
        seen = []

        def capture(config, model=None):
            seen.append(config)
            raise ValidationError("captured")

        monkeypatch.setattr(bench, "run_bench", capture)
        opt = tmp_path / "opt.txt"
        opt.write_text("-1.25\n")
        path = str(tmp_path / "m.mapmp")
        Path(path).write_text(emit_model(mapmp.erdos_renyi_potts(7, 0.3, 4, 5)))
        if source == "generate":
            instance = dict(model_file=None, n=7, d=4, edge_prob=0.3)
            argv = ["--n", "7", "--d", "4", "--edge-prob", "0.3"]
        else:
            instance = dict(model_file=path, n=None, d=None, edge_prob=None)
            argv = ["--model", path]
        argv = ["bench", *argv, "--algo", "smp", "--ratio", "--eta", "7.5", "--iters", "12",
                "--trials", "3", "--seed", "5", "--stride", "4", "--opt-file", str(opt), "--timing",
                "--out", str(tmp_path / "m.csv")]
        assert main(argv) == 2
        expected = dict(algorithm="smp", eta=7.5, iters=12, trials=3, seed=5, stride=4, ratio=True,
                        opt_value=-1.25, timing=True, **instance)
        assert set(expected) == {f.name for f in fields(BenchConfig)}
        assert seen == [BenchConfig(**expected)]


class TestEdgeProbWithModelFile:
    """``edge_prob`` is a generation parameter: with a model file it is a
    second instance source, not a flag that is silently ignored."""

    def test_library_rejects_it(self, tmp_path):
        path = tmp_path / "m.mapmp"
        path.write_text(emit_model(mapmp.erdos_renyi_potts(6, 0.5, 2, 0)))
        config = BenchConfig(algorithm="emp", eta=1.0, iters=3, trials=1, seed=0,
                             model_file=str(path), edge_prob=0.5)
        message = "^provide exactly one instance source: a model file or \\(n, d, edge_prob\\)$"
        with pytest.raises(ValidationError, match=message):
            config.validate()
        with pytest.raises(ValidationError, match=message):
            run_bench(config)
        with pytest.raises(ValidationError, match="^generated instances need both n and d$"):
            BenchConfig(algorithm="emp", eta=1.0, iters=3, trials=1, seed=0, edge_prob=0.5).validate()

    @pytest.mark.parametrize("extra", [[], ["--epsilon", "1"]])
    def test_cli_exits_2(self, extra, tmp_path, monkeypatch, capsys):
        reads = []
        monkeypatch.setattr(bench, "read_model", lambda *a: reads.append(a))
        out = tmp_path / "m.csv"
        argv = ["bench", "--model", str(tmp_path / "m.mapmp"), "--edge-prob", "0.5", "--iters", "3",
                "--out", str(out), *extra]
        assert main(argv) == 2
        assert capsys.readouterr().err == (
            "error: provide exactly one instance source: a model file or (n, d, edge_prob)\n"
        )
        assert reads == [] and not out.exists()


class TestMetricsCsvLineNumbers:
    """``parse_metrics_csv`` names lines as they are numbered in its input,
    blank lines in front included, and accepts the same texts as before."""

    @pytest.fixture(scope="class")
    def text(self):
        return metrics_csv(run_bench(small_config(iters=0)))

    @pytest.mark.parametrize("front", ["", "\n", "\n\n", "\r\n\n  ", " \n\t\n"])
    def test_leading_blank_lines_shift_the_line_numbers(self, text, front):
        blank = front.count("\n")
        assert parse_metrics_csv(front + text) == parse_metrics_csv(text)
        lines = text.splitlines()
        cells = lines[2].split(",")
        cells[3] = "x"
        bad = "\n".join([*lines[:2], ",".join(cells), *lines[3:]])
        with pytest.raises(ValidationError, match=f"^line {3 + blank}: bad dual_value cell 'x'$"):
            parse_metrics_csv(front + bad)

    @pytest.mark.parametrize("front", ["", "\n\n"])
    def test_short_row_names_its_line(self, text, front):
        lines = text.splitlines()
        short = "\n".join([*lines[:2], "0,0,emp,1.0,2.0", *lines[2:]])
        with pytest.raises(ValidationError,
                           match=f"^line {3 + len(front)}: metrics CSV row has 5 cells, expected 8$"):
            parse_metrics_csv(front + short)
