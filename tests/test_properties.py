"""Property suites: oracle equivalences and structural invariants."""

from unittest import mock

import hypothesis.strategies as st
import pytest
from hypothesis import example, given, settings

from conftest import symbol_tuples
from oracles import (
    naive_count,
    naive_dictionary,
    naive_extract,
    naive_pattern_set,
    naive_response,
)
from dpe import core
from dpe.core import (
    build_flip_dictionary,
    build_pattern_set,
    binary_entropy,
    count_occurrences,
    extract_common_subpatterns,
    infer_causal_direction,
    response_determinism,
    score_direction,
)
from dpe.rng import RngStream
from dpe.seqcore import Direction, SymbolSequence


def seqs(min_size=2, max_size=60, alphabet=2):
    return symbol_tuples(min_size, max_size, alphabet).map(
        lambda t: SymbolSequence(t, alphabet)
    )


def seq_pairs(max_size=60, alphabet=2):
    """Equal-length pairs over a shared alphabet."""
    return st.tuples(
        symbol_tuples(2, max_size, alphabet), symbol_tuples(2, max_size, alphabet)
    ).map(
        lambda ab: (
            SymbolSequence(ab[0][: min(len(ab[0]), len(ab[1]))], alphabet),
            SymbolSequence(ab[1][: min(len(ab[0]), len(ab[1]))], alphabet),
        )
    )


class TestBinaryEntropy:
    @given(st.floats(min_value=0.0, max_value=1.0))
    def test_symmetry_and_bounds(self, r):
        h = binary_entropy(r)
        assert 0.0 <= h <= 1.0
        assert h == pytest.approx(binary_entropy(1.0 - r), abs=1e-12)

    @given(st.floats(min_value=0.0, max_value=0.5, exclude_max=True))
    def test_monotone_towards_half(self, r):
        assert binary_entropy(r) <= binary_entropy(min(r + 0.01, 0.5)) + 1e-12


class TestFlipScan:
    @given(seq_pairs(alphabet=3))
    def test_matches_naive_scan(self, pair):
        # both flip scans of the pipeline on a non-binary target: the
        # dictionary's cuts (a ramp source makes every segment show its
        # span) and the flip test of each counted effect window
        cause, effect = pair
        ramp = SymbolSequence(tuple(range(len(effect))), len(effect))
        got = [s.symbols for s in build_flip_dictionary(ramp, effect).segments]
        assert got == naive_dictionary(ramp.symbols, effect.symbols)
        for s in score_direction(cause, effect).pattern_scores:
            response = naive_response(s.pattern.symbols, cause.symbols, effect.symbols)
            assert (s.n_change, s.n_nochange) == response


class TestCountOccurrences:
    @given(seq_pairs(max_size=80))
    def test_matches_oracle_on_random_pairs(self, pair):
        s, other = pair
        # use fragments of s itself so patterns always occur at least once
        for start in range(0, max(1, len(s) - 2), 3):
            frag = s.fragment(start, min(start + 3, len(s)))
            if len(frag) == 0:
                continue
            assert count_occurrences(frag, s) == naive_count(frag.symbols, s.symbols)

    @given(seqs(min_size=4, max_size=100, alphabet=4), st.integers(0, 3), st.integers(1, 4))
    def test_matches_oracle_arbitrary_patterns(self, s, start_symbol, length):
        pattern = SymbolSequence(
            tuple((start_symbol + i) % 4 for i in range(length)), 4
        )
        assert count_occurrences(pattern, s) == naive_count(pattern.symbols, s.symbols)


class TestDictionaryInvariants:
    @given(seq_pairs(max_size=80, alphabet=2))
    def test_matches_naive_construction(self, pair):
        source, target = pair
        got = [s.symbols for s in build_flip_dictionary(source, target).segments]
        assert got == naive_dictionary(source.symbols, target.symbols)

    @given(seq_pairs(max_size=80, alphabet=3))
    def test_min_length_and_substring(self, pair):
        source, target = pair
        src_bytes = source.data
        for seg in build_flip_dictionary(source, target).segments:
            assert len(seg) >= 2
            assert seg.data in src_bytes


class TestExtraction:
    @given(symbol_tuples(1, 20, 2), symbol_tuples(1, 20, 2))
    def test_matches_naive_extraction(self, a, b):
        pa = SymbolSequence(a, 2)
        pb = SymbolSequence(b, 2)
        got = set(p.symbols for p in extract_common_subpatterns(pa, pb))
        assert got == set(naive_extract(a, b))

    @given(symbol_tuples(1, 14, 4), symbol_tuples(1, 14, 4))
    def test_matches_naive_extraction_quaternary(self, a, b):
        pa = SymbolSequence(a, 4)
        pb = SymbolSequence(b, 4)
        got = set(p.symbols for p in extract_common_subpatterns(pa, pb))
        assert got == set(naive_extract(a, b))

    @given(seq_pairs(max_size=50))
    def test_pattern_set_matches_naive_union(self, pair):
        source, target = pair
        d = build_flip_dictionary(source, target)
        got = set(p.symbols for p in build_pattern_set(d).patterns)
        assert got == set(naive_pattern_set([s.symbols for s in d.segments]))

    @given(seq_pairs(max_size=60))
    def test_patterns_occur_in_source(self, pair):
        source, target = pair
        d = build_flip_dictionary(source, target)
        for p in build_pattern_set(d).patterns:
            assert len(p) >= 2
            assert p.data in source.data


class TestResponseBookkeeping:
    @given(seq_pairs(max_size=60))
    def test_change_counts_add_up(self, pair):
        cause, effect = pair
        d = build_flip_dictionary(cause, effect)
        for p in build_pattern_set(d).patterns:
            n_change, n_nochange, r_flip = response_determinism(p, cause, effect)
            assert n_change + n_nochange == count_occurrences(p, cause)
            assert (n_change, n_nochange) == naive_response(p.symbols, cause.symbols, effect.symbols)
            assert r_flip == pytest.approx(n_change / (n_change + n_nochange))


class TestScoreInvariants:
    @given(seq_pairs(max_size=60))
    def test_pattern_score_ranges(self, pair):
        cause, effect = pair
        score = score_direction(cause, effect)
        for s in score.pattern_scores:
            assert 0.0 <= s.r_flip <= 1.0
            assert 0.0 < s.weight <= 1.0
            assert 0.0 <= s.h_binary <= 1.0
            assert 0.0 <= s.h_weighted <= s.weight + 1e-15

    @given(seq_pairs(max_size=60, alphabet=3))
    def test_swap_antisymmetry(self, pair):
        x, y = pair
        fwd = infer_causal_direction(x, y)
        rev = infer_causal_direction(y, x)
        # direction labels are positional by definition; everything else mirrors
        assert fwd.score_xy.pattern_scores == rev.score_yx.pattern_scores
        assert fwd.score_xy.h_bar == rev.score_yx.h_bar
        assert fwd.score_yx.pattern_scores == rev.score_xy.pattern_scores
        assert fwd.score_yx.h_bar == rev.score_xy.h_bar
        assert fwd.strength == rev.strength
        mirrored = {
            Direction.X_CAUSES_Y: Direction.Y_CAUSES_X,
            Direction.Y_CAUSES_X: Direction.X_CAUSES_Y,
            Direction.INDEPENDENT: Direction.INDEPENDENT,
        }
        assert rev.verdict == mirrored[fwd.verdict]

    @given(seq_pairs(max_size=60, alphabet=3))
    # the winning direction holds a pattern with one steady occurrence and one
    # flipped: neither a trigger nor a preserver
    @example((SymbolSequence((0, 1, 0, 0, 1, 0), 3), SymbolSequence((1, 1, 1, 1, 2, 2), 3)))
    def test_roles_match_naive_flip_ratios(self, pair):
        x, y = pair
        report = infer_causal_direction(x, y)
        cause, effect = (x, y) if report.verdict == Direction.X_CAUSES_Y else (y, x)
        for s in report.deterministic_patterns:
            n_change, n_nochange = naive_response(s.pattern.symbols, cause.symbols, effect.symbols)
            assert (s.role == "trigger") == (n_nochange == 0)
            assert (s.role == "preserver") == (n_change == 0)
            assert s.role in ("trigger", "preserver", None)

    @given(seqs(min_size=2, max_size=80, alphabet=2))
    def test_self_independence(self, s):
        assert infer_causal_direction(s, s).verdict == Direction.INDEPENDENT

    @settings(max_examples=25)
    @given(seq_pairs(max_size=40, alphabet=4))
    def test_self_independence_quaternary(self, pair):
        s, _ = pair
        assert infer_causal_direction(s, s).verdict == Direction.INDEPENDENT


class TestLazyScores:
    """Scores hold counts and build their pattern objects on first read."""

    @given(seq_pairs(max_size=60, alphabet=3))
    def test_h_bar_is_the_left_to_right_mean_of_the_pattern_scores(self, pair):
        score = score_direction(*pair)
        total = 0.0
        for s in score.pattern_scores:
            total += s.h_weighted
        assert score.h_bar == (total / len(score.pattern_scores) if score.pattern_scores else None)

    @given(seq_pairs(max_size=60, alphabet=3))
    def test_equal_hash_and_repr_build_no_pattern_score(self, pair):
        x, y = pair
        with mock.patch.object(core, "PatternScore", wraps=core.PatternScore) as built:
            report, again = infer_causal_direction(x, y), infer_causal_direction(x, y)
            assert report == again and hash(report) == hash(again) and repr(report) == repr(again)
            score = score_direction(y, x, "Y->X")
            assert score == report.score_yx and hash(score) == hash(report.score_yx)
            assert repr(report).startswith("CausalReport(score_xy=DirectionalScore(direction='X->Y', h_bar=")
            assert not built.called
        _ = report.deterministic_patterns, again.score_yx.pattern_scores  # cached, never compared
        assert report == again and hash(report) == hash(again) and repr(report) == repr(again)


class TestGeneratorDeterminism:
    @given(st.integers(0, 2**32), st.integers(0, 1000))
    @settings(max_examples=20)
    def test_streams_replay_across_instances(self, seed, stream):
        a = RngStream(seed, stream)
        b = RngStream(seed, stream)
        assert a.uniforms(8).tolist() == b.uniforms(8).tolist()
        assert a.normals(1).tolist() == b.normals(1).tolist()
