"""The whole stdout of ``mapmp solve`` and ``mapmp oracle``, byte for byte:
each line's label, its padding and the line order, with every value taken
from the library's own functions on the same instance."""

import pytest

from mapmp import brute_force_map, lp_solve_l2, map_value, primal_objective, proj, recover_primal, tree_map
from mapmp import vertex_round
from mapmp.bench import ALGORITHMS, solve
from mapmp.cli import main
from mapmp.formats import read_model

ETA, ITERS, SEED = 50.0, 60, 3
PATH = "mapmp v1 3 2 2\nv 0 0 1\nv 1 0 0\nv 2 1 0\ne 0 1 0 1 1 0\ne 1 2 0 1 1 0\n"


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    root = tmp_path_factory.mktemp("stdout")
    assert main(["gen", "--n", "12", "--d", "3", "--seed", "2", "--out", str(root / "m.txt")]) == 0
    assert main(["gen", "--n", "8", "--d", "2", "--out", str(root / "small.txt")]) == 0
    (root / "path.txt").write_text(PATH)
    return root


def stdout(capsys, argv):
    capsys.readouterr()
    assert main(argv) == 0
    return capsys.readouterr().out


@pytest.mark.parametrize("algo", ALGORITHMS)
def test_solve(capsys, files, algo):
    path = str(files / "m.txt")
    model = read_model(path)
    trace = solve(algo, model, ETA, ITERS, SEED, stride=ITERS)
    mu_hat = proj(model, recover_primal(model, trace.final_lambda, ETA))
    assignment = vertex_round(mu_hat)
    expected = (
        f"algorithm          {algo}\n"
        f"eta                {ETA}\n"
        f"iterations         {ITERS}\n"
        f"dual_value         {trace.dual_values[-1]}\n"
        f"slack_score        {trace.slack_scores[-1]}\n"
        f"projected_primal   {primal_objective(model, mu_hat)}\n"
        f"rounded_assignment {' '.join(str(x) for x in assignment)}\n"
        f"rounded_value      {map_value(model, assignment)}\n"
    )
    argv = ["solve", path, "--algo", algo, "--eta", str(ETA), "--iters", str(ITERS), "--seed", str(SEED)]
    assert stdout(capsys, argv) == expected


@pytest.mark.parametrize("name, method", [
    ("small.txt", "brute"), ("small.txt", "lp"),
    ("path.txt", "brute"), ("path.txt", "tree"), ("path.txt", "lp"),
])
def test_oracle(capsys, files, name, method):
    path = str(files / name)
    model = read_model(path)
    if method == "brute":
        res = brute_force_map(model)
        expected = (f"value      {res.value}\n"
                    f"assignment {' '.join(str(x) for x in res.assignment)}\n"
                    f"unique     {res.unique}\n")
    elif method == "tree":
        res = tree_map(model)
        expected = f"value      {res.value}\nassignment {' '.join(str(x) for x in res.assignment)}\n"
    else:
        expected = f"value      {lp_solve_l2(model).value}\n"
    assert stdout(capsys, ["oracle", path, "--method", method]) == expected
