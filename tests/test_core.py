import json
import math

import pytest

from dpe.core import (
    LABEL_XY,
    LABEL_YX,
    binary_entropy,
    build_flip_dictionary,
    build_pattern_set,
    count_occurrences,
    extract_common_subpatterns,
    infer_causal_direction,
    pattern_graph_text,
    report_text,
    response_determinism,
    score_direction,
)
from dpe.errors import InputError
from dpe.seqcore import Direction, SymbolSequence

X = SymbolSequence.from_text("011101111010011001110101101001", 2)
Y = SymbolSequence.from_text("000001000010000000000100001000", 2)

# Golden constants for the 30-bit demonstration pair, frozen from an
# independent brute-force oracle (naive scans with Fraction arithmetic).
# Cells: (change, nochange, ratio, weight, h_binary, h_weighted).
GOLDEN_XY = {
    "01": (4, 5, 0.4444444444444444, 0.3103448275862069, 0.9910760598382222, 0.30757532891531036),
    "011": (1, 4, 0.2, 0.17857142857142858, 0.7219280948873623, 0.12891573122988614),
    "0110": (0, 2, 0.0, 0.07407407407407407, 0.0, 0.0),
    "011101": (2, 0, 1.0, 0.08, 0.0, 0.0),
    "11": (1, 8, 0.1111111111111111, 0.3103448275862069, 0.5032583347756457, 0.15618362113726939),
    "110": (0, 5, 0.0, 0.17857142857142858, 0.0, 0.0),
    "1101": (4, 0, 1.0, 0.14814814814814814, 0.0, 0.0),
    "11101": (3, 0, 1.0, 0.11538461538461539, 0.0, 0.0),
}
GOLDEN_YX = {
    "00": (10, 11, 0.47619047619047616, 0.7241379310344828, 0.998363672593813, 0.7229530042920714),
    "000": (13, 3, 0.8125, 0.5714285714285714, 0.6962122601251458, 0.397835577214369),
    "10": (3, 1, 0.75, 0.13793103448275862, 0.8112781244591328, 0.11190043095988039),
}
GOLDEN_HBAR_XY = 0.07408433516030824
GOLDEN_HBAR_YX = 0.4108963374887736


def seq(text):
    return SymbolSequence.from_text(text, 2)


def flip_cuts(target):
    """1-based positions where the dictionary cuts a ramp source (every symbol distinct)."""
    ramp = SymbolSequence(tuple(range(len(target))), len(target))
    return tuple(seg.symbols[-1] + 1 for seg in build_flip_dictionary(ramp, target).segments)


class TestFlipScan:
    def test_demo_target(self):
        # Y flips at 6, 7, 11, 12, 22, 23, 27, 28; the second flip of each
        # pair would end a length-1 segment and is skipped
        assert flip_cuts(Y) == (6, 11, 22, 27)

    def test_constant_sequence(self):
        assert flip_cuts(seq("00000")) == ()

    def test_single_flip(self):
        assert flip_cuts(seq("01")) == (2,)

    def test_too_short(self):
        with pytest.raises(ValueError):
            build_flip_dictionary(SymbolSequence((0,), 2), SymbolSequence((0,), 2))


class TestBuildFlipDictionary:
    def test_demo_x_to_y(self):
        d = build_flip_dictionary(X, Y)
        assert [s.text() for s in d.segments] == ["011101", "11101", "00110011101", "01101"]

    def test_demo_y_to_x(self):
        d = build_flip_dictionary(Y, X)
        assert set(s.text() for s in d.segments) == {"00", "10", "000", "10000"}

    def test_constant_target_yields_empty(self):
        d = build_flip_dictionary(seq("0110"), seq("1111"))
        assert d.segments == ()

    def test_segments_cover_disjoint_ranges(self):
        # scan order segments never overlap because the start index advances
        # past every extracted segment
        d = build_flip_dictionary(X, Y)
        assert sum(len(s) for s in d.segments) <= len(X)


class TestExtractCommonSubpatterns:
    def test_demo_pair(self):
        got = extract_common_subpatterns(seq("01101"), seq("00110011101"))
        assert set(p.text() for p in got) == {"0110", "01", "011", "1101"}

    def test_both_offsets(self):
        got = extract_common_subpatterns(seq("11101"), seq("011101"))
        assert set(p.text() for p in got) == {"11", "11101"}

    def test_no_run_of_two(self):
        assert extract_common_subpatterns(seq("00"), seq("10")) == ()

    def test_argument_order_is_irrelevant(self):
        a, b = seq("01101"), seq("00110011101")
        assert set(extract_common_subpatterns(a, b)) == set(extract_common_subpatterns(b, a))


class TestBuildPatternSet:
    def test_demo_x_to_y(self):
        ps = build_pattern_set(build_flip_dictionary(X, Y))
        assert set(p.text() for p in ps.patterns) == {
            "01", "011", "0110", "011101", "11", "110", "1101", "11101",
        }

    def test_demo_y_to_x(self):
        ps = build_pattern_set(build_flip_dictionary(Y, X))
        assert set(p.text() for p in ps.patterns) == {"00", "000", "10"}

    def test_single_segment_yields_empty(self):
        d = build_flip_dictionary(seq("0011"), seq("0100"))
        assert len(d.segments) == 1
        assert build_pattern_set(d).patterns == ()


class TestCountOccurrences:
    def test_demo_counts(self):
        assert count_occurrences(seq("01"), X) == 9
        assert count_occurrences(seq("11"), X) == 9

    def test_overlapping(self):
        assert count_occurrences(seq("111"), seq("1111")) == 2

    def test_bad_lengths(self):
        with pytest.raises(ValueError):
            count_occurrences(seq("111"), seq("11"))


class TestResponseDeterminism:
    @pytest.mark.parametrize(
        "pattern,expected",
        [("01", (4, 5)), ("1101", (4, 0)), ("11", (1, 8))],
    )
    def test_demo_rows(self, pattern, expected):
        n_change, n_nochange, r = response_determinism(seq(pattern), X, Y)
        assert (n_change, n_nochange) == expected
        assert r == pytest.approx(n_change / (n_change + n_nochange))

    def test_unseen_pattern_rejected(self):
        with pytest.raises(ValueError, match="does not occur"):
            response_determinism(seq("0101010101"), seq("0011001100"), seq("0000000000"))


class TestBinaryEntropy:
    def test_maximum_at_half(self):
        assert binary_entropy(0.5) == 1.0

    def test_deterministic_limits(self):
        assert binary_entropy(0.0) == 0.0
        assert binary_entropy(1.0) == 0.0

    def test_demo_value(self):
        assert binary_entropy(4 / 9) == pytest.approx(0.991076, abs=5e-4)

    def test_domain_error(self):
        with pytest.raises(ValueError):
            binary_entropy(1.5)
        with pytest.raises(ValueError):
            binary_entropy(-0.1)


class TestScoreDirection:
    def test_golden_x_to_y(self):
        score = score_direction(X, Y, LABEL_XY)
        table = {s.pattern.text(): s for s in score.pattern_scores}
        assert set(table) == set(GOLDEN_XY)
        for name, (ch, nc, r, w, hb, hw) in GOLDEN_XY.items():
            s = table[name]
            assert (s.n_change, s.n_nochange) == (ch, nc)
            assert s.r_flip == pytest.approx(r, abs=1e-12)
            assert s.weight == pytest.approx(w, abs=1e-12)
            assert s.h_binary == pytest.approx(hb, abs=1e-12)
            assert s.h_weighted == pytest.approx(hw, abs=1e-12)
        assert score.h_bar == pytest.approx(GOLDEN_HBAR_XY, abs=1e-12)

    def test_golden_y_to_x(self):
        score = score_direction(Y, X, LABEL_YX)
        table = {s.pattern.text(): s for s in score.pattern_scores}
        for name, (ch, nc, r, w, hb, hw) in GOLDEN_YX.items():
            s = table[name]
            assert (s.n_change, s.n_nochange) == (ch, nc)
            assert s.h_weighted == pytest.approx(hw, abs=1e-12)
        assert score.h_bar == pytest.approx(GOLDEN_HBAR_YX, abs=1e-12)

    def test_constant_effect_has_no_evidence(self):
        score = score_direction(seq("0110"), seq("0000"))
        assert score.h_bar is None
        assert not score.has_evidence
        assert score.effective_h_bar == math.inf


class TestInferCausalDirection:
    def test_demo_verdict_and_strength(self):
        report = infer_causal_direction(X, Y)
        assert report.verdict == Direction.X_CAUSES_Y
        assert report.strength == pytest.approx(GOLDEN_HBAR_YX - GOLDEN_HBAR_XY, abs=1e-12)
        assert report.strength == pytest.approx(0.337, abs=5e-4)

    def test_identical_sequences_independent(self):
        report = infer_causal_direction(X, X)
        assert report.verdict == Direction.INDEPENDENT
        assert report.deterministic_patterns == ()

    def test_strength_is_absolute_hbar_difference(self):
        report = infer_causal_direction(X, Y)
        assert report.strength == abs(report.score_yx.h_bar - report.score_xy.h_bar)

    def test_length_mismatch(self):
        with pytest.raises(InputError):
            infer_causal_direction(seq("0101"), seq("01"))

    def test_one_sided_evidence_wins(self):
        const = SymbolSequence((0,) * len(X), 2)
        report = infer_causal_direction(X, const)
        # X -> const has no flips to learn from; const -> X still extracts
        # several distinct all-zero segments from X's irregular flip spacing
        assert report.score_xy.h_bar is None
        assert report.score_yx.h_bar is not None
        assert report.verdict == Direction.Y_CAUSES_X
        assert report.strength == math.inf

    def test_two_constant_sequences_independent(self):
        report = infer_causal_direction(seq("0000"), seq("1111"))
        assert report.verdict == Direction.INDEPENDENT
        assert report.strength == 0.0


class TestAttributePatterns:
    def test_demo_triggers_and_preservers(self):
        report = infer_causal_direction(X, Y)
        ranked = report.deterministic_patterns
        roles = {s.pattern.text(): s.role for s in ranked}
        assert {p for p, r in roles.items() if r == "trigger"} == {"011101", "1101", "11101"}
        assert {p for p, r in roles.items() if r == "preserver"} == {"0110", "110"}

    def test_ranked_by_weighted_entropy_then_weight(self):
        ranked = infer_causal_direction(X, Y).deterministic_patterns
        hws = [s.h_weighted for s in ranked]
        assert hws == sorted(hws)
        zero_weights = [s.weight for s in ranked if s.h_weighted == 0.0]
        assert zero_weights == sorted(zero_weights, reverse=True)

    def test_independent_verdict_empty(self):
        assert infer_causal_direction(X, X).deterministic_patterns == ()


class TestPatternGraph:
    def test_node_counts_and_format(self):
        text = pattern_graph_text(infer_causal_direction(X, Y))
        assert text.endswith("}\n")
        lines = text.splitlines()
        assert len(lines) == 8 + 3
        nodes = [json.loads(line) for line in lines]
        directions = {n["direction"] for n in nodes}
        assert directions == {"X->Y", "Y->X"}
        node_01 = next(n for n in nodes if n["pattern"] == "01" and n["direction"] == "X->Y")
        assert node_01["r_flip"] == pytest.approx(0.444444, abs=1e-6)
        assert node_01["weight"] == pytest.approx(0.310345, abs=1e-6)
        assert node_01["h_weighted"] == pytest.approx(0.307575, abs=1e-6)
        # fixed six-decimal rendering
        raw = next(line for line in lines if '"pattern": "01",' in line and "X->Y" in line)
        assert '"r_flip": 0.444444' in raw

    def test_deterministic_nodes_have_zero_entropy(self):
        report = infer_causal_direction(X, Y)
        nodes = [json.loads(line) for line in pattern_graph_text(report).splitlines()]
        trigger = next(n for n in nodes if n["pattern"] == "1101")
        assert trigger["h_weighted"] == 0.0

    def test_no_evidence_direction_emits_nothing(self):
        report = infer_causal_direction(X, SymbolSequence((0,) * len(X), 2))
        lines = pattern_graph_text(report).splitlines()
        assert all(json.loads(line)["direction"] == "Y->X" for line in lines)
        assert lines  # the informative direction still exports
        constant = SymbolSequence((1,) * len(X), 2)
        assert pattern_graph_text(infer_causal_direction(constant, constant)) == ""


class TestReportText:
    def test_contains_tables_and_verdict(self):
        text = report_text(infer_causal_direction(X, Y))
        assert "verdict: x_causes_y" in text
        assert "Pattern" in text and "NoChange" in text and "H_w" in text
        assert "0.307575" in text
        assert "no-evidence" not in text

    def test_no_evidence_direction_reported(self):
        text = report_text(infer_causal_direction(X, SymbolSequence((0,) * len(X), 2)))
        assert "no-evidence" in text
        assert "no patterns" in text
