"""``mapmp solve`` records only the first and the last iterate unless
``--stride`` says otherwise: a record is an O(m) pass, so recording every
iteration made the command cost up to 50 times its solve."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from mapmp.bench import ALGORITHMS
from mapmp.cli import main

ITERS = 300
SRC = Path(__file__).resolve().parents[1] / "src"


@pytest.fixture(scope="module")
def model(tmp_path_factory):
    path = tmp_path_factory.mktemp("solve") / "model.mapmp"
    assert main(["gen", "--n", "12", "--d", "3", "--seed", "2", "--out", str(path)]) == 0
    return path


def solve(capsys, model, algo, *extra, iters=ITERS):
    capsys.readouterr()
    argv = ["solve", str(model), "--algo", algo, "--eta", "50", "--iters", str(iters), *extra]
    assert main(argv) == 0
    return capsys.readouterr().out


@pytest.mark.parametrize("algo", ALGORITHMS)
def test_default_stride_is_the_iteration_count(capsys, model, algo):
    assert solve(capsys, model, algo) == solve(capsys, model, algo, "--stride", str(ITERS))


@pytest.mark.parametrize("algo", ["accel-emp", "accel-smp", "accel-bcd"])
def test_accelerated_output_does_not_depend_on_the_stride(capsys, model, algo):
    # the accelerated solvers return their final iterate, whatever is recorded
    assert solve(capsys, model, algo) == solve(capsys, model, algo, "--stride", "1")


def test_zero_iterations_by_default_stride(capsys, model):
    assert "iterations         0\n" in solve(capsys, model, "smp", iters=0)


def test_non_finite_record_exits_2_without_a_traceback(tmp_path):
    """The installed entry point's path, in a fresh process: NumPy's overflow
    warnings may come first, then one ``error:`` line and exit code 2."""
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
    assert run.stderr.splitlines()[-1] == (
        "error: record at k=0 is not finite (dual inf, slack score nan) at eta=1e+308"
    )
