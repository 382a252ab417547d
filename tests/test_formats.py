import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    entry_loop_emit_uai,
    line_list_emit_model,
    random_model,
    reference_emit_model,
    token_list_load_model,
    token_reader_parse_uai,
)

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
from mapmp.formats import read_text
from mapmp.model import Model


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


EXTREMES = [-0.0, 0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 2.225073858507201e-308,
            1e308, -1e308, 1.7976931348623157e308, -1.7976931348623157e308, 1 / 3, 1e16]


def extreme_model(d: int, n: int = 5):
    rng = np.random.default_rng(d)
    edges = [(i, j) for i in range(n) for j in range(i + 1, n) if (i + j) % 3]
    values = rng.permutation(np.resize(EXTREMES, n * d + len(edges) * d * d))
    return build_model(n, edges, d, values[: n * d].reshape(n, d),
                       values[n * d :].reshape(len(edges), d, d))


def assert_mutations_load_like_the_token_list_reader(end):
    """600 randomly mutated copies of a small model file, with lines ending
    in ``end``: ``load_model`` gives each the model, or the message with its
    line number, of the reader that held every token."""
    base = emit_model(build_model(
        4, [(0, 1), (1, 2), (2, 3), (0, 3)], 2, np.arange(8.0).reshape(4, 2) / 4,
        -np.arange(16.0).reshape(4, 2, 2) / 8,
    )).splitlines()
    junk = ["", "   ", "v", "e", "e 1", "x 1 2", "v 9 0 0", "v -1 0 0", "v 1 0 0",
            "v a 0 0", "v 0 0", "v 0 0 0 0", "v 0 0 nan", "v 0 0 inf", "v 0 0 x",
            "e 1 0 0 0 0 0", "e 0 0 0 0 0 0", "e 0 1 0 0 0 0", "e 0 4 0 0 0 0",
            "e 0 2 1 2 3", "e 0 2 1 2 3 x", "e 0 b 1 2 3 4", "e 0 2 1e999 0 0 0",
            "mapmp v1 4 4 2", "mapmp v1 4 4", "mapmp v2 4 4 2", "mapmp v1 4 x 2",
            "mapmp v1 9 4 2", "mapmp v1 4 5 2", "mapmp v1 4 3 2", "mapmp v1 1 0 2"]
    rng = np.random.default_rng(11)
    outcomes = set()
    for _ in range(600):
        lines = list(base)
        for _ in range(int(rng.integers(1, 4))):
            k = int(rng.integers(len(lines) + 1))
            action = int(rng.integers(3))
            if action == 0 and lines:
                del lines[min(k, len(lines) - 1)]
            elif action == 1:
                lines.insert(k, junk[int(rng.integers(len(junk)))])
            elif lines:
                lines[min(k, len(lines) - 1)] = junk[int(rng.integers(len(junk)))]
        text = end.join(lines) + end
        try:
            want = token_list_load_model(text)
        except ValidationError as exc:
            with pytest.raises(ValidationError) as got:
                load_model(text)
            assert str(got.value) == str(exc)
            outcomes.add(re.sub(r"\d+", "#", str(exc)))
        else:
            assert models_equal(load_model(text), want)
            outcomes.add("ok")
    assert len(outcomes) >= 20  # many distinct checks were reached


class TestStreamingIo:
    """The chunked writer and the streaming reader give the bytes, models and
    error messages of the list-building versions they replaced, in memory
    bounded by the file rather than by its token count."""

    @pytest.mark.parametrize("d", [2, 3, 9])
    @pytest.mark.parametrize("chunk", [1, 3, 1024])
    def test_emit_bytes_match_the_line_list_writer(self, monkeypatch, d, chunk):
        monkeypatch.setattr(mapmp.formats, "_EMIT_CHUNK", chunk)
        for m in (extreme_model(d), erdos_renyi_potts(40, 0.2, d, d)):
            text = emit_model(m)
            assert text == line_list_emit_model(m)
            assert models_equal(m, load_model(text))
        tokens = set(emit_model(extreme_model(d)).split())
        assert {format(x, ".17g") for x in EXTREMES} <= tokens and "-0" in tokens

    def test_emit_of_an_edgeless_model(self):
        n, d = 3, 2
        empty = np.zeros(0, dtype=np.int64)
        model = Model(n=n, d=d, edges=np.zeros((0, 2), dtype=np.int64),
                      vertex_costs=np.array([[-0.0, 5e-324], [1e308, -1e308], [1.5, 2.0]]),
                      edge_costs=np.zeros((0, d, d)), degrees=np.zeros(n, dtype=np.int64),
                      incident_edges=(empty,) * n, incident_slots=(empty,) * n)
        assert emit_model(model) == line_list_emit_model(model)
        assert emit_model(model) == (
            "mapmp v1 3 0 2\nv 0 -0 4.9406564584124654e-324\nv 1 1e+308 -1e+308\nv 2 1.5 2\n"
        )

    def test_vertex_lines_in_any_order_and_blank_lines(self):
        m = erdos_renyi_potts(12, 0.3, 3, 4)
        header, *lines = emit_model(m).splitlines()
        rng = np.random.default_rng(0)
        shuffled = [lines[k] for k in rng.permutation(len(lines))]
        text = "\n \t\n" + header + "\n\n" + "\n   \n".join(shuffled) + "\n\n"
        assert models_equal(m, load_model(text))
        assert models_equal(m, token_list_load_model(text))

    def test_record_count_skips_blank_lines(self):
        text = "mapmp v1 3 0 2\nv 0 0 0\n\n \n\t\nv 1 0 0\n"
        message = "line 1: header declares 3 vertices but the file has 2 records"
        for load in (load_model, token_list_load_model):
            with pytest.raises(ValidationError, match=f"^{message}$"):
                load(text)

    def test_messages_match_the_token_list_reader(self):
        """Mutated files: the same model or the same message, line number
        included, as the reader that held every token."""
        assert_mutations_load_like_the_token_list_reader("\n")

    @pytest.mark.parametrize("chunk, end", [(1, "\n"), (7, "\n"), (64, "\n"),
                                            (1 << 16, "\r\n"), (7, "\r\n")])
    def test_messages_match_across_line_chunk_edges(self, monkeypatch, chunk, end):
        # the reader's lines come from pieces of about ``chunk`` characters,
        # so the mutated files' lines, blank ones included, straddle piece edges
        monkeypatch.setattr(mapmp.formats, "_LINE_CHUNK", chunk)
        assert_mutations_load_like_the_token_list_reader(end)

    @pytest.mark.parametrize("i, j", [(0, 2**63), (-(2**63) - 1, 1), (0, 10**30)])
    def test_endpoint_beyond_int64_is_a_validation_error(self, i, j):
        text = f"mapmp v1 2 1 2\nv 0 0 0\nv 1 0 0\ne {i} {j} 0 0 0 0\n"
        with pytest.raises(ValidationError, match=re.escape(f"edge ({i}, {j}) has an endpoint outside 0..1")):
            load_model(text)
        with pytest.raises(ValidationError, match=re.escape(f"edge (0, {2**62}) has an endpoint outside")):
            load_model(text.replace(f"e {i} {j}", f"e 0 {2**62}"))

    def test_non_utf8_file_is_a_validation_error(self, tmp_path):
        bad = tmp_path / "bad.mapmp"
        bad.write_bytes(b"\xff\xfe\x00bad")
        with pytest.raises(ValidationError, match=f"^cannot read {re.escape(str(bad))}: "
                           "'utf-8' codec can't decode byte 0xff in position 0"):
            read_text(str(bad))

    def test_transient_memory_is_bounded_by_the_file(self):
        # n = 5000, m = 23526: the text is 1.17 MB.  Peaks measured with
        # Python 3.11 / NumPy 2.4: emit 2.35 MB, twice the text (the
        # list-building writer 14.4 MB); load 7.44 MB including the returned
        # model (the token-list reader 33.8 MB).  The bounds leave 1.5x and
        # 1.2x headroom: keeping the 2.8 MB line list alive through
        # build_model, or 4096-line emit chunks, would cross them.
        model = erdos_renyi_potts(5000, 1.1 * np.log(5000) / 5000, 3, 0)
        peaks = []
        for step in (lambda: emit_model(model), lambda: load_model(text)):
            tracemalloc.start()
            try:
                text = step()
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[0] < 3_500_000
        assert peaks[1] < 9_000_000


MINIMAL_UAI = """MARKOV
2
2 2
1
2 0 1
4
 1.0 1.0 1.0 1.0
"""


def same_bits(a, b) -> bool:
    """Equal models, signs of zero included (``np.array_equal`` has -0.0 == 0.0)."""
    return (
        (a.n, a.m, a.d) == (b.n, b.m, b.d)
        and a.edges.tobytes() == b.edges.tobytes()
        and a.vertex_costs.tobytes() == b.vertex_costs.tobytes()
        and a.edge_costs.tobytes() == b.edge_costs.tobytes()
    )


def assert_parses_like_the_token_reader(text):
    """The model of ``parse_uai(text)`` bit for bit, or its message, equals
    the token-list reader's; returns that model or message."""
    try:
        want = token_reader_parse_uai(text)
    except ValidationError as exc:
        with pytest.raises(ValidationError) as got:
            mapmp.formats.parse_uai(text)
        assert str(got.value) == str(exc)
        return str(exc)
    got = mapmp.formats.parse_uai(text)
    assert same_bits(got, want)
    return got


def checked_parse_uai(text):
    outcome = assert_parses_like_the_token_reader(text)
    if isinstance(outcome, str):
        raise ValidationError(outcome)
    return outcome


def checked_emit_uai(model):
    text = mapmp.formats.emit_uai(model)
    assert text == entry_loop_emit_uai(model)
    return text


class TestUaiFormat:
    @pytest.fixture(autouse=True)
    def _against_the_token_reader(self, monkeypatch):
        """Every test here also checks the replaced reader and writer."""
        monkeypatch.setitem(globals(), "parse_uai", checked_parse_uai)
        monkeypatch.setitem(globals(), "emit_uai", checked_emit_uai)

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
        # also re-flowed into lines of 1-20 tokens, so tables span lines and share them
        rng = np.random.default_rng(7)
        for seed in range(10):
            for n in (10, 20 * (seed + 1)):
                m = erdos_renyi_potts(n, 0.3, 3, seed)
                text = emit_uai(m)
                tokens, k, lines = text.split(), 0, []
                while k < len(tokens):
                    step = int(rng.integers(1, 21))
                    lines.append(" ".join(tokens[k:k + step]))
                    k += step
                for uai in (text, "\n".join(lines) + "\n"):
                    back = parse_uai(uai)
                    np.testing.assert_allclose(back.edge_costs, m.edge_costs, atol=1e-12)


UAI_BASE = """MARKOV
4
2 2 2 2
7
1 0
1 2
2 0 1
2 2 1
2 1 2
2 2 3
2 0 3
2
 0.5 2
2
 1 1
4
 1 2 3 4
4
 0.25 1 1 4
4
 1 1 2 2
4
 3 1e-300 1 7
4
 1 1 1 1
"""


class TestArrayUai:
    """The array reader and chunked writer give the models (signs of zero
    included), messages and bytes of the token-list reader and the
    entry-by-entry writer they replaced."""

    def test_signed_zeros_of_unit_potentials(self):
        model = parse_uai(MINIMAL_UAI)
        assert np.signbit(model.edge_costs).all() and not np.signbit(model.vertex_costs).any()
        assert same_bits(model, token_reader_parse_uai(MINIMAL_UAI))
        assert emit_model(model).splitlines()[1:] == ["v 0 0 0", "v 1 0 0", "e 0 1 -0 -0 -0 -0"]
        assert same_bits(parse_uai(UAI_BASE), token_reader_parse_uai(UAI_BASE))

    def test_mutated_files_give_the_token_readers_model_or_message(self):
        base = [line.split() for line in UAI_BASE.splitlines()]
        junk = ["0", "-1", "nan", "inf", "-inf", "1e999", "x", "1e-320", "-0", "0.5", "7",
                "1", "2", "3", "4", "5", "9", "10000000000", "1.0", "MARKOV", "BAYES"]
        junk_lines = [["3", "0", "1", "2"], ["2", "1", "1"], ["2", "3", "0"], ["1", "4"],
                      ["2", "1", "0"], ["1", "3"], ["4"], ["2"], [], ["4", "1", "1"]]
        rng = np.random.default_rng(12)
        outcomes = set()
        for _ in range(400):
            lines = [list(tokens) for tokens in base]
            for _ in range(int(rng.integers(1, 4))):
                k = int(rng.integers(len(lines)))
                tokens = lines[k]
                t = int(rng.integers(len(tokens) + 1))
                action = int(rng.integers(6))
                if action == 0 and tokens:
                    tokens[min(t, len(tokens) - 1)] = junk[int(rng.integers(len(junk)))]
                elif action == 1:
                    tokens.insert(t, junk[int(rng.integers(len(junk)))])
                elif action == 2 and tokens:
                    del tokens[min(t, len(tokens) - 1)]
                elif action == 3:
                    lines.insert(k, list(junk_lines[int(rng.integers(len(junk_lines)))]))
                elif action == 4:
                    del lines[k]
                else:  # the line breaks before token t
                    lines.insert(k + 1, tokens[t:])
                    del tokens[t:]
            outcome = assert_parses_like_the_token_reader("\n".join(map(" ".join, lines)) + "\n")
            outcomes.add(re.sub(r"\d+", "#", outcome) if isinstance(outcome, str) else "ok")
        assert "ok" in outcomes and len(outcomes) >= 20  # many distinct checks were reached

    @pytest.mark.parametrize("text", [
        "", " \n\n", "MARKOV", "MARKOV 1 2 0", "MARKOV 2 2 2 2 1 0 1 1 2 1 1 2 1 1",
        "MARKOV 2 2 2 2 2 1 0 2 0 1 4 1 2 3 4 4 5 6 7 8", "MARKOV 2 2 2 1 2 0 1 4 1 1 1 1e-320",
        "MARKOV 2 2 2 1 2 0 1 04 1 1 1 1", "MARKOV 2 2 2 1 2 0 1 +4 1 1 1 1",
        "MARKOV 2 2 2 1 2 0 1 4_0 1 1 1 1", "MARKOV 2 2 2 1 2 0 1 4 1 1 1 1e999 x",
        "MARKOV\x0b2\x0c2 2\x1c1\u20282 0 1\x854 1 1 1 1 ",
        "MARKOV\r\n2\x0c2 2\x1c1\u20282 0 1\x854 1\r1\n1 x",
        "MARKOV 2 10000000000 10000000000 1 2 0 1 100000000000000000000 1 2 3",  # size > sys.maxsize
    ])
    def test_edge_cases_give_the_token_readers_model_or_message(self, text):
        assert_parses_like_the_token_reader(text)

    @pytest.mark.parametrize("chunk", [1, 2, 5])
    def test_lines_split_in_pieces_are_the_splitlines_lines(self, monkeypatch, chunk):
        # a piece ends after a newline, so a CR LF pair is never cut in two
        monkeypatch.setattr(mapmp.formats, "_LINE_CHUNK", chunk)
        bad_size = UAI_BASE.replace("4\n 1 2 3 4", "5\n 1 2 3 4")
        for text in (UAI_BASE, UAI_BASE.replace("\n", "\r\n"), bad_size.replace("\n", "\r\n"),
                     "MARKOV\r\n2\x0c2 2\x1c1\u20282 0 1\x854 1\r1\n1 x", "\r\n\n\r\r\n"):
            assert list(mapmp.formats._lines(text)) == text.splitlines()
            assert_parses_like_the_token_reader(text)

    def test_first_fault_in_file_order_wins(self):
        # a bad entry in one table comes before a bad size in the next
        text = MINIMAL_UAI + "4\n 1 1 1 1\n"
        two = text.replace("1\n2 0 1\n", "2\n2 0 1\n1 0\n")
        for bad_entry, message in (("1.0", "line 9: table for scope (0,) has 4 entries, expected 2"),
                                   ("0", "line 8: potential entries must be strictly positive, "
                                         "got 0.0"),
                                   ("x", "line 8: expected table entry, got 'x'")):
            broken = two.replace(" 1.0 1.0 1.0 1.0", f" 1.0 {bad_entry} 1.0 1.0", 1)
            for reader in (parse_uai, token_reader_parse_uai):
                with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
                    reader(broken)
        for reader in (parse_uai, token_reader_parse_uai):
            with pytest.raises(ValidationError, match="^line 8: unexpected trailing token '4'$"):
                reader(text)
            with pytest.raises(ValidationError, match="^line 1: unexpected end of file"):
                reader("  \n\n")

    @pytest.mark.parametrize("d", [2, 3, 9])
    @pytest.mark.parametrize("chunk", [1, 3, 1024])
    def test_emit_bytes_match_the_entry_writer(self, monkeypatch, d, chunk):
        monkeypatch.setattr(mapmp.formats, "_EMIT_CHUNK", chunk)
        special = [-0.0, 0.0, 5e-324, -5e-324, 1 / 3, -709.7, 745.1, 700.0, -1.5, 1e-300]
        rng = np.random.default_rng(d)
        for m in (extreme_model(d), erdos_renyi_potts(40, 0.2, d, d)):
            n, k = m.n * d, m.m * d * d
            values = rng.permutation(np.resize(special + list(rng.normal(0, 50, 7)), n + k))
            m = build_model(m.n, m.edges, d, values[:n].reshape(m.n, d),
                            values[n:].reshape(m.m, d, d))
            text = emit_uai(m)
            assert text == entry_loop_emit_uai(m)
            assert same_bits(parse_uai(text), token_reader_parse_uai(text))

    @pytest.mark.parametrize("where, cost, message", [
        ("vertex", 800.0, "vertex 2 label 1: cost 800.0"),
        ("vertex", -710.0, "vertex 2 label 1: cost -710.0"),
        ("edge", 745.2, "edge (1, 2) labels (0, 1): cost 745.2"),
        ("edge", -1e308, "edge (1, 2) labels (0, 1): cost -1e+308"),
    ])
    def test_emit_rejects_a_cost_without_a_potential(self, where, cost, message):
        # exp(-cost) underflows to 0 above about 745.13, and math.exp
        # overflows below about -709.78; the first such entry is named
        m = erdos_renyi_potts(5, 1.0, 3, 0)
        vc, ec = m.vertex_costs.copy(), m.edge_costs.copy()
        if where == "vertex":
            vc[2, 1] = cost
        ec[-1, 2, 2] = -cost  # later in file order than either named entry
        ec[list(map(tuple, m.edges.tolist())).index((1, 2)), 0, 1] = cost
        bad = build_model(5, m.edges, 3, vc, ec)
        with pytest.raises(ValidationError, match=f"^{re.escape(message)} has no positive finite "
                           r"potential exp\(-cost\)$"):
            emit_uai(bad)

    def test_transient_memory_of_the_n5000_file(self):
        # The 4.79 MB UAI file of the n = 5000 seed-0 instance.  Peaks
        # measured with Python 3.11 / NumPy 2.4: emit 13.2 MB (the writer
        # formatting entry by entry 19.2 MB); parse 14.7 MB including the
        # returned model (the reader holding the whole file's token list
        # 40.1 MB, one holding a (token, line) tuple per token 66.4 MB).
        # The bounds leave about 1.2x headroom; every old version crosses
        # them.
        model = erdos_renyi_potts(5000, 1.1 * np.log(5000) / 5000, 3, 0)
        peaks = []
        for step in (lambda: emit_uai(model), lambda: parse_uai(text)):
            tracemalloc.start()
            try:
                text = step()
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[0] < 16_000_000
        assert peaks[1] < 18_000_000
        np.testing.assert_allclose(text.edge_costs, model.edge_costs, atol=1e-12)
