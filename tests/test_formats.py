import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import random_model, reference_emit_model

import mapmp
from mapmp import (
    ValidationError,
    build_model,
    emit_model,
    emit_uai,
    erdos_renyi_potts,
    load_model,
    parse_uai,
)


def models_equal(a, b) -> bool:
    return (
        a.n == b.n
        and a.d == b.d
        and np.array_equal(a.edges, b.edges)
        and np.array_equal(a.vertex_costs, b.vertex_costs)
        and np.array_equal(a.edge_costs, b.edge_costs)
    )


class TestNativeFormat:
    def test_header_of_two_node_model(self):
        m = build_model(2, [(0, 1)], 2, np.zeros((2, 2)), np.zeros((1, 2, 2)))
        assert emit_model(m).splitlines()[0] == "mapmp v1 2 1 2"

    def test_round_trip_500_random_models(self):
        rng = np.random.default_rng(0)
        for _ in range(500):
            n = int(rng.integers(2, 9))
            m = random_model(rng, n, int(rng.integers(2, 5)), extra_edge_prob=0.3)
            assert models_equal(m, load_model(emit_model(m)))

    def test_round_trip_of_generated_instances(self):
        for seed in range(20):
            m = erdos_renyi_potts(15, 0.2, 3, seed)
            assert models_equal(m, load_model(emit_model(m)))

    @given(st.lists(
        st.floats(allow_nan=False, allow_infinity=False, width=64),
        min_size=8, max_size=8,
    ))
    @settings(max_examples=200, deadline=None)
    def test_round_trip_extreme_floats(self, values):
        vc = np.array(values[:4]).reshape(2, 2)
        ec = np.array(values[4:]).reshape(1, 2, 2)
        m = build_model(2, [(0, 1)], 2, vc, ec)
        assert models_equal(m, load_model(emit_model(m)))

    def test_rejects_wrong_orientation(self):
        text = "mapmp v1 2 1 2\nv 0 0 0\nv 1 0 0\ne 1 0 0 0 0 0\n"
        with pytest.raises(ValidationError, match="orientation"):
            load_model(text)

    def test_rejects_version_mismatch(self):
        with pytest.raises(ValidationError, match="version"):
            load_model("mapmp v2 2 1 2\n")

    def test_rejects_malformed_lines_with_line_numbers(self):
        text = "mapmp v1 2 1 2\nv 0 0 0\nv 1 0 nope\ne 0 1 0 0 0 0\n"
        with pytest.raises(ValidationError, match="line 3"):
            load_model(text)
        text = "mapmp v1 2 1 2\nv 0 0 0\nv 1 0 0\ne 0 1 0 0 0\n"
        with pytest.raises(ValidationError, match="line 4"):
            load_model(text)

    def test_emit_matches_the_one_value_writer(self):
        extremes = [-0.0, 0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
                    1.7976931348623157e308, -1.7976931348623157e308, 1 / 3, -0.1, 1e16]
        vc = np.array(extremes[:6]).reshape(3, 2)
        ec = np.array(extremes + extremes[:2]).reshape(3, 2, 2)
        m = build_model(3, [(0, 1), (0, 2), (1, 2)], 2, vc, ec)
        text = emit_model(m)
        assert text == reference_emit_model(m)
        assert "v 0 -0 0" in text
        assert models_equal(m, load_model(text))
        rng = np.random.default_rng(5)
        for _ in range(20):
            m = random_model(rng, int(rng.integers(2, 9)), int(rng.integers(2, 5)), 0.5)
            assert emit_model(m) == reference_emit_model(m)
        m = erdos_renyi_potts(60, 0.1, 3, 2)
        assert emit_model(m) == reference_emit_model(m)

    @pytest.mark.parametrize(
        "header, message",
        [
            ("mapmp v1 2 1 0", "line 1: header needs d >= 2, got 0"),
            ("mapmp v1 2 1 1", "line 1: header needs d >= 2, got 1"),
            ("mapmp v1 0 0 2", "line 1: header needs n >= 1, got 0"),
            ("mapmp v1 2 -1 2", "line 1: header needs m >= 0, got -1"),
            ("mapmp v1 100000000000 0 2",
             "line 1: header declares 100000000000 vertices but the file has 3 records"),
        ],
    )
    def test_header_is_checked_before_anything_is_allocated(self, header, message):
        text = header + "\nv 0 0 0\nv 1 0 0\ne 0 1 0 0 0 0\n"
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            load_model(text)

    def test_header_line_number_skips_leading_blank_lines(self):
        with pytest.raises(ValidationError, match="^line 3: header needs d >= 2"):
            load_model("\n\nmapmp v1 2 1 0\nv 0\nv 1\ne 0 1\n")

    def test_rejects_missing_vertex_and_edge_count_mismatch(self):
        with pytest.raises(ValidationError, match="missing vertex"):
            load_model("mapmp v1 2 1 2\nv 0 0 0\ne 0 1 0 0 0 0\n")
        with pytest.raises(ValidationError, match="declares"):
            load_model("mapmp v1 2 2 2\nv 0 0 0\nv 1 0 0\ne 0 1 0 0 0 0\n")


MINIMAL_UAI = """MARKOV
2
2 2
1
2 0 1
4
 1.0 1.0 1.0 1.0
"""


class TestUaiFormat:
    def test_minimal_file_gives_zero_costs(self):
        m = parse_uai(MINIMAL_UAI)
        assert m.n == 2 and m.m == 1 and m.d == 2
        np.testing.assert_allclose(m.edge_costs, 0.0, atol=0)
        np.testing.assert_allclose(m.vertex_costs, 0.0, atol=0)

    def test_pairwise_table_elementwise_log(self):
        text = MINIMAL_UAI.replace(" 1.0 1.0 1.0 1.0", " 4 1 1 4")
        m = parse_uai(text)
        log4 = np.log(4.0)
        np.testing.assert_allclose(
            m.edge_costs[0], [[-log4, 0.0], [0.0, -log4]], atol=1e-15
        )

    def test_reversed_scope_is_transposed(self):
        base = MINIMAL_UAI.replace(" 1.0 1.0 1.0 1.0", " 1 2 3 4")
        flipped = base.replace("2 0 1", "2 1 0")
        np.testing.assert_allclose(
            parse_uai(flipped).edge_costs[0], parse_uai(base).edge_costs[0].T, atol=0
        )

    def test_repeated_scopes_accumulate(self):
        text = """MARKOV
2
2 2
3
1 0
2 0 1
2 1 0
2
 0.5 2.0
4
 1 2 3 4
4
 1 1 2 2
"""
        m = parse_uai(text)
        first = -np.log(np.array([[1.0, 2.0], [3.0, 4.0]]))
        second = -np.log(np.array([[1.0, 1.0], [2.0, 2.0]])).T
        np.testing.assert_allclose(m.edge_costs[0], first + second, atol=1e-15)
        np.testing.assert_allclose(
            m.vertex_costs[0], -np.log(np.array([0.5, 2.0])), atol=1e-15
        )

    def test_arity_three_rejected_with_line(self):
        text = """MARKOV
3
2 2 2
1
3 0 1 2
8
 1 1 1 1 1 1 1 1
"""
        with pytest.raises(ValidationError, match=r"line 5: unsupported arity 3"):
            parse_uai(text)

    def test_non_markov_preamble_rejected(self):
        with pytest.raises(ValidationError, match="MARKOV"):
            parse_uai(MINIMAL_UAI.replace("MARKOV", "BAYES"))

    def test_mixed_cardinalities_rejected(self):
        with pytest.raises(ValidationError, match="mixed cardinalities"):
            parse_uai(MINIMAL_UAI.replace("2 2", "2 3"))

    def test_nonpositive_entries_rejected(self):
        with pytest.raises(ValidationError, match="positive"):
            parse_uai(MINIMAL_UAI.replace(" 1.0 1.0 1.0 1.0", " 1.0 0.0 1.0 1.0"))

    def test_count_mismatch_rejected(self):
        with pytest.raises(ValidationError, match="entries"):
            parse_uai(MINIMAL_UAI.replace("4\n 1.0 1.0 1.0 1.0", "3\n 1.0 1.0 1.0"))
        with pytest.raises(ValidationError, match="end of file"):
            parse_uai("MARKOV\n2\n2 2\n1\n2 0 1\n4\n 1.0 1.0\n")

    @pytest.mark.parametrize("card", ["-1", "0", "1"])
    def test_cardinality_below_two_rejected_at_its_line(self, card):
        text = f"MARKOV 2 2 {card} 0"
        with pytest.raises(
            ValidationError,
            match=f"^line 1: cardinality of variable 1 must be >= 2, got {card}$",
        ):
            parse_uai(text)
        with pytest.raises(ValidationError, match="^line 3: cardinality of variable 0"):
            parse_uai(f"MARKOV\n2\n{card} 2\n0\n")

    @pytest.mark.parametrize("count", ["0", "-3"])
    def test_nonpositive_variable_count_rejected_at_its_line(self, count):
        with pytest.raises(ValidationError, match="^line 4: variable count must be positive$"):
            parse_uai(f"MARKOV\n\n\n{count}\n")

    def test_negative_function_count_rejected_at_its_line(self):
        with pytest.raises(ValidationError, match="^line 3: function count must be >= 0$"):
            parse_uai("MARKOV 2\n2 2\n-1\n")
        with pytest.raises(ValidationError, match="^line 1: function count must be >= 0$"):
            parse_uai("MARKOV 2 2 2 -1")

    def test_table_larger_than_the_file_rejected_before_allocation(self):
        text = "MARKOV\n2\n100000 100000\n1\n2 0 1\n10000000000\n 1 2 3\n"
        with pytest.raises(
            ValidationError,
            match=r"^line 6: table of 10000000000 entries runs past the end of file \(3 tokens left\)$",
        ):
            parse_uai(text)

    def test_more_vertex_costs_than_table_tokens_rejected_before_allocation(self):
        # 3000 variables of cardinality 3000 and no tables: a 72 MB n x d
        # allocation unless the guard runs first
        text = "MARKOV\n3000\n" + " ".join(["3000"] * 3000) + "\n0\n"
        tracemalloc.start()
        try:
            with pytest.raises(
                ValidationError,
                match=r"^3000 variables of cardinality 3000 need at least 9000000 table "
                r"entries, the file has 0 table tokens$",
            ):
                parse_uai(text)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8_000_000

    def test_parse_after_emit_preserves_costs(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            m = random_model(rng, int(rng.integers(2, 7)), 3, extra_edge_prob=0.3)
            back = parse_uai(emit_uai(m))
            assert np.array_equal(back.edges, m.edges)
            np.testing.assert_allclose(back.vertex_costs, m.vertex_costs, atol=1e-12)
            np.testing.assert_allclose(back.edge_costs, m.edge_costs, atol=1e-12)

    def test_parse_after_emit_on_potts_instances(self):
        for seed in range(10):
            m = erdos_renyi_potts(10, 0.3, 3, seed)
            back = parse_uai(emit_uai(m))
            np.testing.assert_allclose(back.edge_costs, m.edge_costs, atol=1e-12)
