"""The flip dictionary, extraction and counting kernels against ordered oracles.

Every property also runs with tiny chunk budgets, so row groups, run merges
and window lookups each span many chunks, and duplicate fragments are found
in different chunks. Palettes of one to three symbols drawn from alphabets of
2, 4 and 256 make long agreement runs and repeated fragments likely, and
reach pattern lengths on both sides of the limit where block ids stop being
packed integers and become ranks (32 symbols for 2, 16 for 4, 4 for 256).
"""

import tracemalloc
from unittest import mock

import hypothesis.strategies as st
from hypothesis import given

from oracles import (
    find_response,
    naive_count,
    naive_dictionary,
    naive_pattern_order,
    naive_response,
)
from dpe import core
from dpe.core import (
    build_flip_dictionary,
    extract_common_subpatterns,
    response_determinism,
    score_direction,
)
from dpe.seqcore import SymbolSequence

CHUNKS = st.sampled_from((8, 24, 100, 600, 3000, core._CHUNK))


@st.composite
def palettes(draw):
    alphabet = draw(st.sampled_from((2, 4, 256)))
    palette = draw(st.lists(st.integers(0, alphabet - 1), min_size=1, max_size=3, unique=True))
    return alphabet, palette


def words(palette, min_size=0, max_size=40):
    return st.lists(st.sampled_from(palette), min_size=min_size, max_size=max_size).map(bytes)


@st.composite
def segment_lists(draw):
    _, palette = draw(palettes())
    return draw(st.lists(words(palette), max_size=7))


@st.composite
def sequence_pairs(draw, max_size=90):
    alphabet, palette = draw(palettes())
    n = draw(st.integers(2, max_size))
    cause = draw(words(palette, n, n))
    effect = draw(words(draw(palettes())[1], n, n).map(lambda b: bytes(s % alphabet for s in b)))
    return SymbolSequence(tuple(cause), alphabet), SymbolSequence(tuple(effect), alphabet)


class TestExtractionOrder:
    @given(segment_lists(), CHUNKS)
    def test_matches_ordered_oracle(self, segments, chunk):
        with mock.patch.object(core, "_CHUNK", chunk):
            assert core._pattern_bytes(segments) == naive_pattern_order(segments)

    @given(palettes().flatmap(lambda ap: st.tuples(words(ap[1], 1), words(ap[1], 1))), CHUNKS)
    def test_pair_extraction_keeps_order(self, pair, chunk):
        a, b = (SymbolSequence(tuple(w), 256) for w in pair)
        with mock.patch.object(core, "_CHUNK", chunk):
            got = [p.data for p in extract_common_subpatterns(a, b)]
        assert got == naive_pattern_order(list(pair))

    @given(
        palettes().flatmap(lambda ap: st.tuples(words(ap[1], 4, 12), words(ap[1], 100, 300))),
        CHUNKS,
    )
    def test_one_pair_over_many_chunks(self, pair, chunk):
        # the offsets of one pair are split over many chunks and batches
        with mock.patch.object(core, "_CHUNK", chunk):
            assert core._pattern_bytes(list(pair)) == naive_pattern_order(list(pair))

    def test_zero_or_one_segment(self):
        assert core._pattern_bytes([]) == []
        assert core._pattern_bytes([b"\x00\x01\x00"]) == []

    def test_equal_length_and_length_two_segments(self):
        segments = [b"\x01\x01", b"\x00\x00", b"\x01\x01\x00", b"\x00\x01\x01", b"\x00\x00"]
        assert core._pattern_bytes(segments) == naive_pattern_order(segments)

    def test_duplicates_straddle_chunks(self):
        # the same fragments recur in every pair, so each one is met in many chunks
        segments = [bytes([0, 1] * k + [1]) for k in range(1, 9)]
        want = naive_pattern_order(segments)
        for chunk in (8, 17, 40, core._CHUNK):
            with mock.patch.object(core, "_CHUNK", chunk):
                assert core._pattern_bytes(segments) == want

    def test_long_runs_cross_the_packed_limit(self):
        for symbol, alphabet in ((0, 2), (3, 4), (255, 256)):
            run = bytes([symbol]) * 70
            segments = [run[:33] + b"\x01", run[:50], b"\x01" + run[:64], run[:5] + b"\x01" + run[:40]]
            segments = [bytes(s % alphabet for s in seg) for seg in segments]
            assert core._pattern_bytes(segments) == naive_pattern_order(segments)


class TestDictionaryOrder:
    @given(sequence_pairs())
    def test_matches_naive_dictionary(self, pair):
        source, target = pair
        got = [s.symbols for s in build_flip_dictionary(source, target).segments]
        assert got == naive_dictionary(source.symbols, target.symbols)

    def test_runs_of_consecutive_flips(self):
        # the run of flips at 1..5 cuts at 1, 3 and 5; the run at 8..9 cuts at 8 only
        target = SymbolSequence((0, 1, 0, 1, 0, 1, 1, 1, 0, 1, 1), 2)
        source = SymbolSequence(tuple(range(11)), 11)
        got = [s.symbols for s in build_flip_dictionary(source, target).segments]
        assert got == [(0, 1), (2, 3), (4, 5), (6, 7, 8)]
        assert got == naive_dictionary(source.symbols, target.symbols)


class TestCountingKernel:
    @given(sequence_pairs(max_size=120), st.data(), CHUNKS)
    def test_matches_single_pattern_oracles(self, pair, data, chunk):
        cause, effect = pair
        n = len(cause)
        spans = data.draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(1, n)), max_size=8))
        extra = data.draw(st.lists(words(sorted(set(cause.data)), 1, n + 3), max_size=4))
        patterns = [cause.data[:1]] + [cause.data[a : a + k] for a, k in spans] + extra
        patterns = list(dict.fromkeys(patterns))
        with mock.patch.object(core, "_CHUNK", chunk):
            n_occ, n_change = core._occurrences(cause.data, effect.data, patterns)
        for p, occ, change in zip(patterns, n_occ.tolist(), n_change.tolist()):
            assert (occ, change) == find_response(p, cause.data, effect.data)
            assert occ == naive_count(tuple(p), cause.symbols)
            assert (change, occ - change) == naive_response(tuple(p), cause.symbols, effect.symbols)

    def test_response_of_long_pattern(self):
        cause = SymbolSequence((0,) * 80 + (1,) + (0,) * 40, 2)
        effect = SymbolSequence((0,) * 60 + (1,) * 61, 2)
        pattern = SymbolSequence((0,) * 40, 2)
        n_change, n_nochange, _ = response_determinism(pattern, cause, effect)
        assert (n_change, n_nochange) == naive_response(pattern.symbols, cause.symbols, effect.symbols)


class TestScoreDirection:
    @given(sequence_pairs(max_size=70), CHUNKS)
    def test_patterns_and_counts_match_oracles(self, pair, chunk):
        cause, effect = pair
        with mock.patch.object(core, "_CHUNK", chunk):
            score = score_direction(cause, effect)
        segments = naive_dictionary(cause.symbols, effect.symbols)
        assert [s.pattern.symbols for s in score.pattern_scores] == naive_pattern_order(segments)
        for s in score.pattern_scores:
            want = naive_response(s.pattern.symbols, cause.symbols, effect.symbols)
            assert (s.n_change, s.n_nochange) == want


def test_long_few_flip_input_stays_within_a_memory_cap():
    # segments of 2002, 5000 and 4998 symbols: 12 million compared symbols;
    # the agreement matrix of the longest pair alone would take 6 MB, and
    # each of its padded and differenced copies as much again
    n = 12_000
    cause = [0] * n
    for k in range(0, n, 251):
        cause[k] = 1
    effect = [0] * 2001 + [1] * 5000 + [0] * 4998 + [1]
    x, y = SymbolSequence(tuple(cause), 2), SymbolSequence(tuple(effect), 2)
    tracemalloc.start()
    try:
        score = score_direction(x, y)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(score.pattern_scores) == 249
    assert peak < 4 * 1024 * 1024
