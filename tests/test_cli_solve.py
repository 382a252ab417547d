"""``mapmp solve`` records only the first and the last iterate, and takes no
``--stride``: a record is an O(m) pass, so recording every iteration made
the command cost up to 50 times its solve, and every solver returns its
final iterate, whose dual value and slack score the last record holds."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from mapmp import bench, dual_and_slack, objective, schedulers, slack_score
from mapmp.bench import ALGORITHMS
from mapmp.cli import main
from mapmp.formats import read_model

ITERS = 300
SRC = Path(__file__).resolve().parents[1] / "src"


@pytest.fixture(scope="module")
def model(tmp_path_factory):
    path = tmp_path_factory.mktemp("solve") / "model.mapmp"
    assert main(["gen", "--n", "12", "--d", "3", "--seed", "2", "--out", str(path)]) == 0
    return path


def solve(capsys, model, algo, iters=ITERS):
    capsys.readouterr()
    argv = ["solve", str(model), "--algo", algo, "--eta", "50", "--iters", str(iters)]
    assert main(argv) == 0
    return capsys.readouterr().out


def test_stride_is_rejected(capsys, model):
    with pytest.raises(SystemExit) as exit_:
        main(["solve", str(model), "--eta", "50", "--iters", str(ITERS), "--stride", "1"])
    assert exit_.value.code == 2
    assert "unrecognized arguments: --stride 1" in capsys.readouterr().err


@pytest.mark.parametrize("flags, message", [
    (["--eta", "50", "--epsilon", "0.5"], "argument --epsilon: not allowed with argument --eta"),
    ([], "one of the arguments --eta --epsilon is required"),
], ids=["both", "neither"])
def test_solve_takes_exactly_one_of_eta_and_epsilon(capsys, model, flags, message):
    # --eta given with --epsilon used to be dropped silently for the derived eta
    with pytest.raises(SystemExit) as exit_:
        main(["solve", str(model), "--iters", "10", *flags])
    assert exit_.value.code == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("eta", ["10", "1000"])
def test_bench_takes_eta_or_epsilon_not_both(capsys, tmp_path, eta):
    # even the default --eta, given explicitly, conflicts with --epsilon
    out = tmp_path / "x.csv"
    with pytest.raises(SystemExit) as exit_:
        main(["bench", "--n", "20", "--d", "3", "--eta", eta, "--epsilon", "0.5", "--iters", "5",
              "--out", str(out)])
    assert exit_.value.code == 2
    assert "argument --epsilon: not allowed with argument --eta" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("algo", ALGORITHMS)
def test_prints_the_final_iterates_values(capsys, model, algo):
    # a stride-1 run records every iterate yet returns the same final one
    instance = read_model(str(model))
    trace = bench.solve(algo, instance, 50.0, ITERS, 0, stride=1)
    dual, nu = dual_and_slack(instance, trace.final_lambda, 50.0)
    lines = dict(line.split(maxsplit=1) for line in solve(capsys, model, algo).splitlines())
    assert float(lines["dual_value"]) == dual == trace.dual_values[-1]
    assert float(lines["slack_score"]) == slack_score(nu) == trace.slack_scores[-1]


def test_zero_iterations_by_default_stride(capsys, model):
    assert "iterations         0\n" in solve(capsys, model, "smp", iters=0)


@pytest.mark.parametrize("algo", ALGORITHMS)
@pytest.mark.parametrize("iters, passes", [(ITERS, 2), (1, 2), (0, 1)])
def test_one_log_marginal_pass_per_record_and_none_after(capsys, monkeypatch, model, algo, iters,
                                                         passes):
    # the candidate mu comes from the last record's pass, not from a
    # recover_primal pass over the returned iterate
    calls = []
    original = objective.record_pass

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(objective, "record_pass", counted)
    monkeypatch.setattr(schedulers, "record_pass", counted)
    solve(capsys, model, algo, iters)
    assert len(calls) == passes


def test_non_finite_record_exits_2_without_a_traceback(tmp_path):
    """The installed entry point's path, in a fresh process: exactly one
    ``error:`` line and exit code 2, with no NumPy overflow warning before it."""
    path = tmp_path / "m.mapmp"
    assert main(["gen", "--n", "6", "--d", "2", "--out", str(path)]) == 0
    run = subprocess.run(
        [sys.executable, "-m", "mapmp.cli", "solve", str(path), "--algo", "emp", "--eta", "1e308",
         "--iters", "3"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")])},
    )
    assert run.returncode == 2
    assert run.stdout == "" and "Traceback" not in run.stderr
    assert run.stderr.splitlines() == [
        "error: record at k=0 is not finite (dual inf, slack score nan) at eta=1e+308"
    ]
