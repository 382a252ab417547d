"""The input checks of ``mapmp.errors`` as every public entry point applies
them: a real parameter that is a str, None, NaN, infinite or out of its
range, a non-integer or out-of-range size, and an array argument that is a
str, ragged, None, of the wrong shape or, where reals are asked for, of
numeric strings or complex numbers, is a ``ValidationError`` naming the
parameter, raised before any draw."""

import itertools
import math
import re

import numpy as np
import pytest

from helpers import zeros_model

import mapmp
from mapmp import ValidationError, schedulers
from mapmp.bench import BenchConfig, run_bench
from mapmp.errors import integer, real
from mapmp.model import default_edge_prob
from mapmp.objective import Marginals, recover_primal, zero_dual


MODEL = zeros_model(3, [(0, 1), (1, 2)], 2)
LAM = zero_dual(MODEL)
MU = recover_primal(MODEL, LAM, 1.0)
ACCELERATED = (mapmp.accel_emp, mapmp.accel_smp, mapmp.accel_block_grad)


def config(**overrides):
    base = dict(algorithm="smp", eta=50.0, iters=10, trials=1, seed=0, n=6, d=2, edge_prob=0.5)
    return BenchConfig(**{**base, **overrides})


# (id, parameter name, rule, call taking the value); an id ending in "?"
# marks an optional parameter, for which None is the default, not an error.
POSITIVE, NONNEGATIVE, FINITE = "positive", "nonnegative", "finite"
PARAMETERS = [
    *[(f"standard_mp-{kind}-eta", "eta", POSITIVE,
       lambda x, kind=kind: mapmp.standard_mp(MODEL, kind, x, 5, 0)) for kind in ("emp", "smp", "bcd")],
    *[(f"{f.__name__}-eta", "eta", POSITIVE, lambda x, f=f: f(MODEL, x, 5, 0)) for f in ACCELERATED],
    *[(f"{f.__name__}-v_step_scale", "v_step_scale", POSITIVE,
       lambda x, f=f: f(MODEL, 1.0, 5, 0, v_step_scale=x)) for f in ACCELERATED],
    ("standard_mp-stop_slack_score?", "stop_slack_score", NONNEGATIVE,
     lambda x: mapmp.standard_mp(MODEL, "emp", 1.0, 5, 0, stop_slack_score=x)),
    *[(f"{f.__name__}-stop_slack_score?", "stop_slack_score", NONNEGATIVE,
       lambda x, f=f: f(MODEL, 1.0, 5, 0, stop_slack_score=x)) for f in ACCELERATED],
    ("theta_next", "theta_prev", POSITIVE, mapmp.theta_next),
    ("eta_for_epsilon", "epsilon", POSITIVE, lambda x: mapmp.eta_for_epsilon(3, 4, 2, x)),
    ("eta_for_rounding", "gap", POSITIVE, lambda x: mapmp.eta_for_rounding(3, 4, 2, x)),
    ("dual_gap_constant-eta", "eta", POSITIVE, lambda x: mapmp.dual_gap_constant(3, 4, 2, x, 1.0)),
    ("dual_gap_constant-cost_inf", "cost_inf", NONNEGATIVE,
     lambda x: mapmp.dual_gap_constant(3, 4, 2, 1.0, x)),
    ("iteration_budget-eta", "eta", POSITIVE, lambda x: mapmp.iteration_budget(3, 4, 2, x, 1.0, 1.0)),
    ("iteration_budget-cost_inf", "cost_inf", NONNEGATIVE,
     lambda x: mapmp.iteration_budget(3, 4, 2, 1.0, x, 1.0)),
    ("iteration_budget-eps_prime", "eps_prime", POSITIVE,
     lambda x: mapmp.iteration_budget(3, 4, 2, 1.0, 1.0, x)),
    ("emp_update", "eta", POSITIVE, lambda x: mapmp.emp_update(MODEL, LAM, x, 0, 0)),
    ("smp_update", "eta", POSITIVE, lambda x: mapmp.smp_update(MODEL, LAM, x, 1)),
    ("block_grad_step", "eta", POSITIVE, lambda x: mapmp.block_grad_step(MODEL, LAM, x, 0, 0)),
    ("block_slack", "eta", POSITIVE, lambda x: mapmp.block_slack(MODEL, LAM, x, 0, 0)),
    ("star_slack", "eta", POSITIVE, lambda x: mapmp.star_slack(MODEL, LAM, x, 1)),
    ("dual_objective", "eta", POSITIVE, lambda x: mapmp.dual_objective(MODEL, LAM, x)),
    ("recover_primal", "eta", POSITIVE, lambda x: mapmp.recover_primal(MODEL, LAM, x)),
    ("slack", "eta", POSITIVE, lambda x: mapmp.slack(MODEL, LAM, x)),
    ("dual_and_slack", "eta", POSITIVE, lambda x: mapmp.dual_and_slack(MODEL, LAM, x)),
    ("in_local_polytope", "tol", NONNEGATIVE, lambda x: mapmp.in_local_polytope(MODEL, MU, x)),
    ("in_slack_polytope", "tol", NONNEGATIVE,
     lambda x: mapmp.in_slack_polytope(MODEL, MU, np.zeros_like(LAM), x)),
    ("erdos_renyi_potts", "edge_prob", POSITIVE, lambda x: mapmp.erdos_renyi_potts(10, x, 3, 0)),
    ("BenchConfig-eta", "eta", POSITIVE, lambda x: config(eta=x).validate()),
    ("BenchConfig-opt_value?", "opt_value", FINITE, lambda x: config(opt_value=x).validate()),
    ("run_bench-edge_prob?", "edge_prob", POSITIVE, lambda x: run_bench(config(edge_prob=x))),
]
BAD = {
    POSITIVE: ["x", None, math.nan, math.inf, -math.inf, 0.0, -1.0, 0, -1],
    NONNEGATIVE: ["x", None, math.nan, math.inf, -math.inf, -1.0, -1],
    FINITE: ["x", None, math.nan, math.inf, -math.inf],
}
CASES = [
    pytest.param(name, rule, call, value, id=f"{case.rstrip('?')}-{value!r}")
    for case, name, rule, call in PARAMETERS
    for value in BAD[rule]
    if not (value is None and case.endswith("?"))
]


@pytest.fixture
def no_draws(monkeypatch):
    def no_stream(*args):
        raise AssertionError("sampled before checking the input")

    monkeypatch.setattr(schedulers, "_pair_stream", no_stream)
    monkeypatch.setattr(schedulers, "_vertex_stream", no_stream)
    monkeypatch.setattr(np.random, "default_rng", no_stream)


@pytest.mark.parametrize("name, rule, call, value", CASES)
def test_bad_real_parameter_names_itself_before_any_draw(no_draws, name, rule, call, value):
    shown = "finite" if rule == FINITE else f"a {rule} finite number"
    with pytest.raises(ValidationError, match=f"^{name} must be {shown}, got {re.escape(str(value))}$"):
        call(value)


# (id, name the message starts with, call taking the value, wrong shapes);
# an id ending in "?" marks a slack offset, for which None means no offset.
M, D = MODEL.m, MODEL.d
DUAL_WRONG = [(M, 2, D + 1), (M + 1, 2, D), (M * 2 * D,)]
ARRAYS = [
    ("map_value", "assignment", lambda x: mapmp.map_value(MODEL, x), [(2,), (3, 1)]),
    ("round_to_transport-matrix", "matrix",
     lambda x: mapmp.round_to_transport(x, [0.5, 0.5], [0.5, 0.5]), [(3, 2), (2,)]),
    ("round_to_transport-row_targets", "row_targets",
     lambda x: mapmp.round_to_transport(np.full((2, 2), 0.25), x, [0.5, 0.5]), [(3,), (1, 2)]),
    ("round_to_transport-col_targets", "col_targets",
     lambda x: mapmp.round_to_transport(np.full((2, 2), 0.25), [0.5, 0.5], x), [(3,), (1, 2)]),
    *[(f"{f.__name__}-lam", "lam", lambda x, f=f: f(MODEL, x, 1.0), DUAL_WRONG)
      for f in (mapmp.dual_objective, mapmp.recover_primal, mapmp.slack, mapmp.dual_and_slack)],
    *[(f"{f.__name__}-lam", "lam", lambda x, f=f: f(MODEL, x, 1.0, 0, 0), DUAL_WRONG)
      for f in (mapmp.emp_update, mapmp.block_grad_step, mapmp.block_slack)],
    *[(f"{f.__name__}-lam", "lam", lambda x, f=f: f(MODEL, x, 1.0, 1), DUAL_WRONG)
      for f in (mapmp.smp_update, mapmp.star_slack)],
    ("proj-nu?", "slack offset", lambda x: mapmp.proj(MODEL, MU, x), DUAL_WRONG),
    ("in_slack_polytope-nu?", "slack offset", lambda x: mapmp.in_slack_polytope(MODEL, MU, x), DUAL_WRONG),
    *[(f"{f.__name__}-mu.vertex", "mu.vertex", lambda x, f=f: f(MODEL, Marginals(x, MU.edge)),
       [(3, 3), (2, 2)]) for f in (mapmp.proj, mapmp.primal_objective, mapmp.in_local_polytope)],
    *[(f"{f.__name__}-mu.edge", "mu.edge", lambda x, f=f: f(MODEL, Marginals(MU.vertex, x)),
       [(2, 2, 3), (3, 2, 2)]) for f in (mapmp.proj, mapmp.primal_objective, mapmp.in_local_polytope)],
    # the model-free functions fix the number of axes, not their extents
    ("entropy-mu.vertex", "mu.vertex", lambda x: mapmp.entropy(Marginals(x, MU.edge)), [(3 * D,), (1, 3, D)]),
    # but rounding needs a label to pick (no labels was NumPy's bare ValueError from argmax)
    ("vertex_round-mu.vertex", "mu.vertex", lambda x: mapmp.vertex_round(Marginals(x, MU.edge)),
     [(3 * D,), (1, 3, D), (3, 0)]),
    ("entropy-mu.edge", "mu.edge", lambda x: mapmp.entropy(Marginals(MU.vertex, x)), [(M, D * D), (D,)]),
    ("slack_score", "nu", mapmp.slack_score, [(M * 2 * D,), (M, 2 * D), (1, M, 2, D)]),
    ("build_model-edges", "edges", lambda x: mapmp.build_model(3, x, 2, np.zeros((3, 2)), np.zeros((2, 2, 2))),
     [(2, 3), (4,)]),
    ("build_model-vertex_costs", "vertex_costs",
     lambda x: mapmp.build_model(3, [(0, 1), (1, 2)], 2, x, np.zeros((2, 2, 2))), [(3, 3), (2, 2)]),
    ("build_model-edge_costs", "edge_costs",
     lambda x: mapmp.build_model(3, [(0, 1), (1, 2)], 2, np.zeros((3, 2)), x), [(2, 2, 3), (1, 2, 2)]),
]
# A value of the right shape for each parameter that asks for reals (edges
# ask for integers); as numeric strings or complex numbers it is refused.
FITTING = {"assignment": [0, 1, 0], "matrix": np.full((2, 2), 0.25), "row_targets": [0.5, 0.5],
           "col_targets": [0.5, 0.5], "lam": LAM, "slack offset": LAM, "nu": LAM, "mu.vertex": MU.vertex,
           "mu.edge": MU.edge, "vertex_costs": np.zeros((3, 2)), "edge_costs": np.zeros((2, 2, 2))}
# round_to_transport states its shape rule once, with one structural message
ROUNDING_SHAPES = "expected nonempty square matrices with matching targets, got "
ARRAY_CASES = [
    pytest.param(name, call, value, id=f"{case.rstrip('?')}-{label}")
    for case, name, call, wrong in ARRAYS
    for label, value in [("str", "x"), ("ragged", [[0.0], [0.0, 0.0]]), ("None", None)]
    + [(f"shape{shape}", np.zeros(shape)) for shape in wrong]
    + ([("numeric-str", np.asarray(FITTING[name]).astype(str).tolist()),
        ("complex", np.asarray(FITTING[name]) + 1j)] if name in FITTING else [])
    # a kernel takes a float64 lam of the dual shape as it is, and only that
    + ([("str-array", np.full(LAM.shape, "0")), ("complex-array", np.zeros(LAM.shape, complex))]
       if name in ("lam", "slack offset", "nu") else [])
    if not (value is None and case.endswith("?"))
]


@pytest.mark.parametrize("name, call, value", ARRAY_CASES)
def test_bad_array_names_itself(name, call, value):
    # unchecked, many of these were a bare ValueError, TypeError or
    # AttributeError from NumPy, and a kernel took a wrongly shaped lam
    shape_case = value is None or isinstance(value, np.ndarray) and value.dtype.kind == "f"
    if name in ("matrix", "row_targets", "col_targets") and shape_case:
        expected = f"^{re.escape(ROUNDING_SHAPES)}"
    else:
        expected = f"^{re.escape(name)} "
    with pytest.raises(ValidationError, match=expected):
        call(value)


def test_str_labels_of_the_right_length_name_the_assignment():
    # unchecked, a bare TypeError from rint
    message = "^assignment is not a numeric array: could not convert string to float: 'a'$"
    with pytest.raises(ValidationError, match=message):
        mapmp.map_value(MODEL, ["a", "b", "c"])


@pytest.mark.parametrize("call", [
    lambda lam: mapmp.emp_update(MODEL, lam, 2.0, 1, 2, True),
    lambda lam: mapmp.block_grad_step(MODEL, lam, 2.0, 0, 1, True),
    lambda lam: mapmp.block_slack(MODEL, lam, 2.0, 1, 1),
    lambda lam: mapmp.smp_update(MODEL, lam, 2.0, 1, True),
    lambda lam: mapmp.star_slack(MODEL, lam, 2.0, 0),
    lambda lam: mapmp.dual_and_slack(MODEL, lam, 2.0),
], ids=["emp_update", "block_grad_step", "block_slack", "smp_update", "star_slack", "dual_and_slack"])
def test_nested_list_lam_gives_the_bits_of_its_array(call):
    # unconverted, a list lam was an AttributeError or a TypeError
    lam = np.random.default_rng(3).normal(size=(MODEL.m, 2, MODEL.d))
    ints = np.random.default_rng(4).integers(-3, 4, size=(MODEL.m, 2, MODEL.d))
    for given, converted in ((lam.tolist(), lam), (ints, ints.astype(np.float64)),
                             (ints > 0, (ints > 0).astype(np.float64))):
        got, want = call(given), call(converted)
        got, want = (got, want) if isinstance(got, tuple) else ((got,), (want,))
        assert [np.asarray(g).tobytes() for g in got] == [np.asarray(w).tobytes() for w in want]


def test_nested_list_marginals_give_the_bits_of_their_arrays():
    # unconverted, entropy of list blocks was a bare AttributeError
    listed = Marginals(MU.vertex.tolist(), MU.edge.tolist())
    nu = np.random.default_rng(5).normal(size=LAM.shape)
    assert mapmp.entropy(listed) == mapmp.entropy(MU)
    assert mapmp.vertex_round(listed).tobytes() == mapmp.vertex_round(MU).tobytes()
    assert mapmp.slack_score(nu.tolist()) == mapmp.slack_score(nu)


def test_empty_slack_scores_zero():
    assert mapmp.slack_score(np.zeros((0, 2, D))) == 0.0


@pytest.mark.parametrize("edge", [0.7, "0"])
@pytest.mark.parametrize("pair", [mapmp.emp_update, mapmp.block_grad_step, mapmp.block_slack])
def test_pair_edge_must_be_an_integer(pair, edge):
    # unchecked, int(0.7) gave block_slack the slack of edge 0, and
    # emp_update and block_grad_step a bare IndexError from lam[0.7, slot]
    with pytest.raises(ValidationError, match=f"^edge must be an integer, got {edge}$"):
        pair(MODEL, LAM, 1.0, edge, 0)


PAIRS = (mapmp.emp_update, mapmp.block_grad_step, mapmp.block_slack)
STARS = (mapmp.smp_update, mapmp.star_slack)


@pytest.mark.parametrize("vertex", [1.0, "1", -1, 3])
@pytest.mark.parametrize("update", PAIRS + STARS)
def test_vertex_must_be_an_integer_in_range(update, vertex):
    # unchecked, smp_update took -1 as vertex 2, 3 was a bare IndexError,
    # 1.0 and "1" bare TypeErrors
    if not isinstance(vertex, int):
        message = f"vertex must be an integer, got {vertex}"
    elif update in PAIRS:
        message = f"vertex {vertex} is not an endpoint of edge 0"
    else:
        message = f"vertex index {vertex} outside 0..2"
    args = (0, vertex) if update in PAIRS else (vertex,)
    with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
        update(MODEL, LAM, 1.0, *args)


# The kernels' checks in the order they fire: a name, the arguments that fail
# it on MODEL (edges (0, 1) and (1, 2)), and the message it raises.
BAD_ETA = ("eta", {"eta": 0.0}, "eta must be a positive finite number, got 0.0")
BAD_LAM = ("lam", {"lam": np.zeros((1, 2, 2))}, "lam has shape (1, 2, 2), expected (2, 2, 2)")
BAD_VERTEX = ("vertex-integer", {"vertex": 1.5}, "vertex must be an integer, got 1.5")
PAIR_CHECKS = [
    BAD_ETA, BAD_LAM, ("edge-integer", {"edge": 0.5}, "edge must be an integer, got 0.5"), BAD_VERTEX,
    ("edge-range", {"edge": 5}, "edge index 5 outside 0..1"),
    ("endpoint", {"vertex": 2}, "vertex 2 is not an endpoint of edge 0"),
]
STAR_CHECKS = [BAD_ETA, BAD_LAM, BAD_VERTEX, ("vertex-range", {"vertex": 3}, "vertex index 3 outside 0..2")]
FAULT_PAIRS = [  # (kernel, earlier check, later check), the two faults in different arguments
    (update, first, second)
    for update, checks in [(pair, PAIR_CHECKS) for pair in PAIRS] + [(star, STAR_CHECKS) for star in STARS]
    for first, second in itertools.combinations(checks, 2) if not first[1].keys() & second[1].keys()
]


@pytest.mark.parametrize("update, first, second", FAULT_PAIRS, ids=[
    f"{update.__name__}-{first[0]}-before-{second[0]}" for update, first, second in FAULT_PAIRS])
def test_kernel_checks_fire_in_order(update, first, second):
    # both faults at once name the earlier check; the later fault alone names its own
    args = {"lam": LAM, "eta": 1.0, "edge": 0, "vertex": 1}
    for faults, message in ((first[1] | second[1], first[2]), (second[1], second[2])):
        given = {**args, **faults}
        edge = (given["edge"],) if update in PAIRS else ()
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            update(MODEL, given["lam"], given["eta"], *edge, given["vertex"])


def test_bool_vertex_is_its_integer():
    # unchecked, True indexed vertex_costs as a mask: a bare NumPy ValueError
    for update in PAIRS:
        np.testing.assert_array_equal(update(MODEL, LAM, 1.0, 0, True), update(MODEL, LAM, 1.0, 0, 1))
    for update in STARS:
        np.testing.assert_array_equal(update(MODEL, LAM, 1.0, True), update(MODEL, LAM, 1.0, 1))


@pytest.mark.parametrize("call", [lambda x: mapmp.theta_next(x),
                                  lambda x: mapmp.erdos_renyi_potts(10, x, 3, 0)],
                         ids=["theta_next", "erdos_renyi_potts"])
def test_real_above_one_is_out_of_the_unit_interval(no_draws, call):
    with pytest.raises(ValidationError, match=r"must lie in \(0, 1\], got 1.5$"):
        call(1.5)


@pytest.mark.parametrize("stop", [0, 0.0, np.float64(1e-3), 5])
def test_nonnegative_stop_threshold_is_accepted(stop):
    model = mapmp.erdos_renyi_potts(8, 0.5, 3, 1)
    for solve in (lambda: mapmp.standard_mp(model, "emp", 1.0, 5, 0, stop_slack_score=stop),
                  lambda: mapmp.accel_emp(model, 1.0, 5, 0, stop_slack_score=stop)):
        iterations = solve().iterations.tolist()
        assert iterations == ([0] if stop == 5 else [0, 1, 2, 3, 4, 5])


class TestChecks:
    @pytest.mark.parametrize("value", [3, np.int64(3), np.uint8(3), True])
    def test_integer_returns_an_int(self, value):
        assert integer("k", value) == int(value) and type(integer("k", value)) in (int, bool)

    @pytest.mark.parametrize("value", [3.0, 2.5, math.nan, "3", None, np.float64(3.0)])
    def test_integer_rejects_non_integers(self, value):
        with pytest.raises(ValidationError, match=f"^k must be an integer, got {re.escape(str(value))}$"):
            integer("k", value)

    def test_integer_lower_bound(self):
        assert integer("k", 2, 2) == 2
        with pytest.raises(ValidationError, match="^k must be >= 2, got 1$"):
            integer("k", 1, 2)

    @pytest.mark.parametrize("value", [1, 2.5, np.float64(2.5), np.float32(0.5), np.int64(7)])
    def test_real_returns_a_float_of_the_same_value(self, value):
        assert type(real("x", value)) is float and real("x", value) == value

    def test_real_rules_at_zero(self):
        assert real("x", 0.0, NONNEGATIVE) == 0.0 and real("x", -0.0, NONNEGATIVE) == 0.0
        assert real("x", -2.5, FINITE) == -2.5
        with pytest.raises(ValidationError, match="^x must be a positive finite number, got 0.0$"):
            real("x", 0.0)

    def test_real_rejects_an_int_past_a_double(self):
        with pytest.raises(ValidationError, match="^x must be a positive finite number, got 1000"):
            real("x", 10**400)


SIZE_CASES = [
    (lambda m, n, d: mapmp.eta_for_epsilon(m, n, d, 1.0), "eta_for_epsilon"),
    (lambda m, n, d: mapmp.eta_for_rounding(m, n, d, 1.0), "eta_for_rounding"),
    (lambda m, n, d: mapmp.dual_gap_constant(m, n, d, 1.0, 1.0), "dual_gap_constant"),
    (lambda m, n, d: mapmp.iteration_budget(m, n, d, 1.0, 1.0, 1.0), "iteration_budget"),
]


@pytest.mark.parametrize("formula", [case[0] for case in SIZE_CASES], ids=[c[1] for c in SIZE_CASES])
class TestBudgetSizes:
    """m, n and d of the budget formulas are integers, m >= 0 and n >= 1;
    unchecked, a negative m gave a negative eta or a budget and a fractional
    d a gap constant."""

    @pytest.mark.parametrize("m, n, d, message", [
        (-100, 4, 3, "m must be >= 0, got -100"),
        (-5, 4, 3, "m must be >= 0, got -5"),
        (3, 0, 3, "n must be >= 1, got 0"),
        (3, -4, 3, "n must be >= 1, got -4"),
        (1.5, 4, 3, "m must be an integer, got 1.5"),
        (3, 4.0, 3, "n must be an integer, got 4.0"),
        (3, 4, 2.5, "d must be an integer, got 2.5"),
        (3, 4, "x", "d must be an integer, got x"),
        ("3", 4, 3, "m must be an integer, got 3"),
    ])
    def test_bad_size_rejected(self, formula, m, n, d, message):
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            formula(m, n, d)

    def test_numpy_integers_give_the_int_value(self, formula):
        assert formula(np.int64(3), np.int32(4), np.uint8(3)) == formula(3, 4, 3)

    def test_no_edges_is_a_size(self, formula):
        assert math.isfinite(formula(0, 1, 2))


@pytest.mark.parametrize("n", [2.7, 5.0, "5", None])
def test_default_edge_prob_takes_an_integer_n(n):
    # unchecked, int(2.7) silently used n = 2
    with pytest.raises(ValidationError, match=f"^n must be an integer, got {re.escape(str(n))}$"):
        default_edge_prob(n)


# Each bad size has one message at every entry point that takes it: an
# integer first, then its floor.
LABEL_ENTRIES = {
    **{name: (lambda d, f=f: f(3, 4, d)) for f, name in SIZE_CASES},
    "build_model": lambda d: mapmp.build_model(3, [(0, 1), (1, 2)], d, np.zeros((3, 2)), np.zeros((2, 2, 2))),
    "erdos_renyi_potts": lambda d: mapmp.erdos_renyi_potts(5, 0.5, d, 0),
}
BAD_LABELS = [  # a list, not a dict: True and 1 are one key
    *[(d, f"need at least two labels per vertex, got d={d}") for d in (1, 0, -1)],
    (True, "need at least two labels per vertex, got d=1"),
    *[(d, f"d must be an integer, got {d}") for d in (1.5, math.nan, 2.5, "x")],
]
VERTEX_ENTRIES = {"default_edge_prob": default_edge_prob,
                  "erdos_renyi_potts": lambda n: mapmp.erdos_renyi_potts(n, 0.5, 3, 0)}


@pytest.mark.parametrize("entry", LABEL_ENTRIES)
@pytest.mark.parametrize("d, message", BAD_LABELS, ids=[repr(d) for d, _ in BAD_LABELS])
def test_a_bad_label_count_has_one_message(no_draws, entry, d, message):
    with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
        LABEL_ENTRIES[entry](d)


@pytest.mark.parametrize("entry", VERTEX_ENTRIES)
@pytest.mark.parametrize("n", [1, 0, -3])
def test_too_few_vertices_have_one_message(no_draws, entry, n):
    with pytest.raises(ValidationError, match=f"^n must be >= 2, got {n}$"):
        VERTEX_ENTRIES[entry](n)
