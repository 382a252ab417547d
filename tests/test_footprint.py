"""Which calls load SciPy: a fresh interpreter imports mapmp, generates and
solves through the CLI, has an LP refused by its guard and computes an
entropy with no ``scipy`` module loaded; the LP oracle then loads SciPy and
works."""

import subprocess
import sys
import textwrap
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

SCRIPT = textwrap.dedent("""
    import sys

    sys.path.insert(0, {src!r})

    def check_no_scipy(after):
        loaded = sorted(name for name in sys.modules if name.startswith("scipy"))
        assert not loaded, f"{{after}} loaded {{loaded[:5]}}"

    import mapmp
    check_no_scipy("import mapmp")

    import numpy as np
    from mapmp import cli

    assert cli.main(["gen", "--n", "30", "--d", "3", "--seed", "1", "--out", "m.txt"]) == 0
    check_no_scipy("mapmp gen")
    assert cli.main(["solve", "m.txt", "--algo", "smp", "--eta", "100", "--iters", "200"]) == 0
    check_no_scipy("mapmp solve")

    n = 200  # primal dimension 200 * 5 + 199 * 25 = 5975
    big = mapmp.build_model(n, [(i, i + 1) for i in range(n - 1)], 5, np.zeros((n, 5)),
                            np.zeros((n - 1, 5, 5)))
    try:
        mapmp.lp_solve_l2(big)
    except mapmp.OracleGuardError:
        pass
    else:
        raise AssertionError("the LP guard let a primal dimension above 5000 through")
    check_no_scipy("an LP refused by the guard")

    small = mapmp.erdos_renyi_potts(6, 0.6, 3, 2)
    assert mapmp.entropy(mapmp.recover_primal(small, mapmp.zero_dual(small), 1.0)) > 0.0
    check_no_scipy("entropy")
    lp = mapmp.lp_solve_l2(small)
    assert abs(lp.value - mapmp.brute_force_map(small).value) < 1e-6
    assert mapmp.entropy(lp.marginals) > -1e-9
    assert "scipy.optimize" in sys.modules
""")


def test_scipy_loads_only_for_the_lp_oracle(tmp_path):
    run = subprocess.run([sys.executable, "-I", "-c", SCRIPT.format(src=str(SRC))],
                         cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
