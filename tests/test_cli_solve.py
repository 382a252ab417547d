"""``mapmp solve`` records only the first and the last iterate unless
``--stride`` says otherwise: a record is an O(m) pass, so recording every
iteration made the command cost up to 50 times its solve."""

import pytest

from mapmp.bench import ALGORITHMS
from mapmp.cli import main

ITERS = 300


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
