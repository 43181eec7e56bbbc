"""The flip dictionary, extraction and counting kernels against ordered oracles.

Every property also runs with tiny chunk budgets, so row groups, run merges
and window lookups each span many chunks, and duplicate fragments are found
in different chunks. Palettes of one to three symbols drawn from alphabets of
2, 4 and 256 make long agreement runs and repeated fragments likely, and
reach pattern lengths on both sides of the limit where block ids stop being
packed integers and become ranks (32 symbols for 2, 16 for 4, 4 for 256).
Counting reads the candidates its cause's changes of symbol place, and runs
of one symbol in closed form, when the patterns times the changes are fewer
than the windows a scan reads, and scans otherwise. The scan looks windows
up in a dense table when a length's key space fits
the chunk budget and by binary search otherwise, and reads a level's windows
only where its patterns' left blocks start once the level fills more than
one chunk and its id bound fits the budget, unless half the positions are
starts; the content dedupe packs
its sort keys into one int64 up to 63 bits and lexsorts beyond, and
extraction skips the windows that repeat their left neighbour only when a
direction has more windows than symbols. Both sides of each are checked.
"""

import bisect
import dataclasses
import hashlib
import itertools
import random
import tracemalloc
from unittest import mock

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import example, given
from numpy.lib.stride_tricks import sliding_window_view

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
    build_pattern_set,
    extract_common_subpatterns,
    response_determinism,
    score_direction,
)
from dpe.rng import RngStream
from dpe.seqcore import SymbolSequence
from dpe.synth import gen_ar1, gen_sparse

BUDGETS = (8, 24, 100, 600, 3000, core._CHUNK)
CHUNKS = st.sampled_from(BUDGETS)


@st.composite
def palettes(draw, most=3):
    alphabet = draw(st.sampled_from((2, 4, 256)))
    palette = draw(st.lists(st.integers(0, alphabet - 1), min_size=1, max_size=most, unique=True))
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


def extracted(segments, index=None):
    """``_pattern_bytes`` as bytes, cut from the data it read: that of a dictionary
    given ``segments``, which packs them, or, given ``index``, of one that holds
    them as rows of ``index.data``, as a built dictionary holds them in its cause."""
    if index is None:
        dictionary = core.FlipDictionary(core.LABEL_XY, tuple(SymbolSequence._of_valid(s, 256) for s in segments))
    else:
        lengths = np.array([len(s) for s in segments], dtype=np.int64)
        source = SymbolSequence._of_valid(index.data, 256)
        dictionary = core.FlipDictionary._of_rows(core.LABEL_XY, source, lengths, index)
    return [dictionary.index.data[s : s + n] for n, s in core._pattern_bytes(dictionary).tolist()]


def scattered(segments, gaps):
    """The index of a cause that holds ``gaps[i]`` and then segment i for each i, and
    a last symbol; the flip dictionary builds such an index over the cause it cuts."""
    cause, starts = b"", []
    for gap, segment in zip(gaps, segments):
        starts.append(len(cause + gap))
        cause += gap + segment
    cause += b"\x07"
    ids, bound = core._block_ids(np.frombuffer(cause, dtype=np.uint8), max([1, *map(len, segments)]))
    return core._DirectionIndex(ids, bound, None, cause, np.array(starts, dtype=np.int64))


@st.composite
def scattered_segments(draw):
    """Segments and gaps from one palette, so contents recur in the gaps; the first
    gap may open with the segments in reverse, so a content's first place in the
    cause is a gap or a later, longer segment rather than its first holder."""
    _, palette = draw(palettes())
    segments = draw(st.lists(words(palette), max_size=7))
    gaps = draw(st.lists(words(palette, max_size=6), min_size=len(segments), max_size=len(segments)))
    if gaps and draw(st.booleans()):
        gaps[0] = b"".join(reversed(segments)) + gaps[0]
    return segments, gaps


class TestExtractionOrder:
    @given(segment_lists(), CHUNKS)
    def test_matches_ordered_oracle(self, segments, chunk):
        with mock.patch.object(core, "_CHUNK", chunk):
            assert extracted(segments) == naive_pattern_order(segments)

    @given(scattered_segments(), CHUNKS)
    def test_packed_and_scattered_sources_match_ordered_oracle(self, drawn, chunk):
        segments, gaps = drawn
        want = naive_pattern_order(segments)
        with mock.patch.object(core, "_CHUNK", chunk):
            assert extracted(segments) == want
            assert extracted(segments, scattered(segments, gaps)) == want

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
            assert extracted(list(pair)) == naive_pattern_order(list(pair))

    def test_zero_or_one_segment(self):
        one = core.FlipDictionary(core.LABEL_XY, (SymbolSequence(b"\x00\x01\x00", 2),))
        none = build_flip_dictionary(*[SymbolSequence(b"\x01\x01\x01", 2)] * 2)
        assert none.index is None and one.index is not None
        assert core._pattern_bytes(none).shape == core._pattern_bytes(one).shape == (0, 2)

    def test_equal_length_and_length_two_segments(self):
        segments = [b"\x01\x01", b"\x00\x00", b"\x01\x01\x00", b"\x00\x01\x01", b"\x00\x00"]
        assert extracted(segments) == naive_pattern_order(segments)

    def test_duplicates_straddle_chunks(self):
        # the same fragments recur in every pair, so each one is met in many chunks
        segments = [bytes([0, 1] * k + [1]) for k in range(1, 9)]
        want = naive_pattern_order(segments)
        for chunk in (8, 17, 40, core._CHUNK):
            with mock.patch.object(core, "_CHUNK", chunk):
                assert extracted(segments) == want

    def test_long_runs_cross_the_packed_limit(self):
        for symbol, alphabet in ((0, 2), (3, 4), (255, 256)):
            run = bytes([symbol]) * 70
            segments = [run[:33] + b"\x01", run[:50], b"\x01" + run[:64], run[:5] + b"\x01" + run[:40]]
            segments = [bytes(s % alphabet for s in seg) for seg in segments]
            assert extracted(segments) == naive_pattern_order(segments)


def ordered_firsts(lengths, keys, rank):
    """The first entry of each (length, key), by rank and then position, in that order."""
    first = {}
    for i in sorted(range(len(lengths)), key=lambda i: (rank[i], i)):
        first.setdefault((lengths[i], keys[i]), i)
    return sorted(first.values(), key=lambda i: (rank[i], i))


def packed_width(lengths, keys, rank):
    """Bits of (length, key, rank, position) at their maxima."""
    widths = [int(a.max(initial=0)).bit_length() for a in (lengths, keys, rank)]
    return sum(widths) + max(len(lengths) - 1, 0).bit_length()


@st.composite
def content_tables(draw, key_top, rank_top):
    """(lengths, keys, rank) from small pools, so contents repeat and ranks tie;
    one entry holds ``key_top`` and one ``rank_top``."""
    n = draw(st.integers(1, 60))

    def column(top):
        pool = draw(st.lists(st.integers(0, top), min_size=1, max_size=4))
        values = [draw(st.sampled_from(pool)) for _ in range(n)]
        values[draw(st.integers(0, n - 1))] = top
        return np.array(values, dtype=np.int64)

    return column(40), column(key_top), column(rank_top)


def first_by_content(lengths, keys, rank):
    """core._first_by_content, and whether it took the lexsort side."""
    with mock.patch("numpy.lexsort", wraps=np.lexsort) as lexsort:
        got = core._first_by_content(lengths, keys, rank)
    return got.tolist(), lexsort.called


class TestFirstByContent:
    """Packed into one int64 up to 63 bits, lexsorted beyond; both give the reference."""

    @pytest.mark.parametrize("key_top, rank_top", ((2**12, 2**12), (2**61, 3), (7, 2**61)))
    @given(data=st.data())
    def test_matches_ordered_reference(self, key_top, rank_top, data):
        table = data.draw(content_tables(key_top, rank_top))
        got, wide = first_by_content(*table)
        assert got == ordered_firsts(*(a.tolist() for a in table))
        assert wide == (packed_width(*table) > 63) == (max(key_top, rank_top) > 2**12)

    @pytest.mark.parametrize("key_top, wide", ((2**59, False), (2**60, True)))
    def test_either_side_of_63_bits(self, key_top, wide):
        # 1 bit of length, 60 or 61 of key, 1 of rank and 1 of position
        lengths, keys, rank = (np.array(v, dtype=np.int64) for v in ([1, 1], [key_top, 0], [1, 0]))
        assert packed_width(lengths, keys, rank) == 63 + wide
        assert first_by_content(lengths, keys, rank) == ([1, 0], wide)

    def test_empty(self):
        assert first_by_content(*np.zeros((3, 0), dtype=np.int64)) == ([], False)


def naive_first_windows(segments, pairs):
    """(start, width, segment) of the first window in data of each (width, content), pairs taken in order."""
    data, offsets = b"".join(segments), [0]
    for segment in segments:
        offsets.append(offsets[-1] + len(segment))
    seen, out = set(), []
    for w, s in pairs:
        for start in range(offsets[s], offsets[s + 1] - w + 1):
            if (w, data[start : start + w]) not in seen:
                seen.add((w, data[start : start + w]))
                out.append((start, w, s))
    return out


def change_prefix(data):
    """``changes[i]``, for i in [0, len(data)]: the q in [1, i) with ``data[q] != data[q - 1]``."""
    changes = [0, 0]
    for q in range(1, len(data)):
        changes.append(changes[-1] + (data[q] != data[q - 1]))
    return np.array(changes[: len(data) + 1], dtype=np.int32)


def first_windows(segments, pairs, prefix):
    """core._first_windows over the packed segments, with the change prefix or without,
    as (firsts, windows keyed, whether the dedupe took the lexsort side)."""
    data = b"".join(segments)
    ids, bound = core._block_ids(np.frombuffer(data, dtype=np.uint8), max(w for w, _ in pairs))
    lengths = np.array([len(s) for s in segments], dtype=np.int64)
    width, seg = (np.array(column, dtype=np.int64) for column in zip(*pairs))
    changes = change_prefix(data) if prefix else None
    with mock.patch("numpy.lexsort", wraps=np.lexsort) as lexsort, keyed_windows() as content_keys:
        firsts = core._first_windows(ids, bound, np.cumsum(lengths) - lengths, lengths, width, seg, changes)
    keyed = sum(len(call.args[2]) for call in content_keys.call_args_list)
    return list(zip(*(column.tolist() for column in firsts))), keyed, lexsort.called


def keyed_windows():
    """Wrap ``core._content_keys``; argument 2 of each call holds the starts of the windows it keys."""
    return mock.patch.object(core, "_content_keys", wraps=core._content_keys)


@st.composite
def window_pairs(draw, alphabet, widths, min_length, min_pairs, runs=True):
    """Segments of at least ``min_length`` symbols, each led by the top symbol, and at least
    ``min_pairs`` (width, segment) pairs in (width, segment) order. With ``runs`` the bodies
    come from a palette of one to three symbols, so long runs of one symbol are likely;
    without, each body symbol differs from the one before it, so no window of two or more
    symbols repeats its left neighbour and the change prefix skips none."""
    if runs:
        palette = draw(st.lists(st.integers(0, alphabet - 1), min_size=1, max_size=3, unique=True))
        body = st.lists(st.sampled_from(palette), min_size=min_length - 1, max_size=min_length + 40)
    else:
        steps = st.lists(st.integers(1, alphabet - 1), min_size=min_length - 1, max_size=min_length + 40)
        body = steps.map(lambda s: [total % alphabet for total in itertools.accumulate(s)])
    segments = [bytes([alphabet - 1] + b) for b in draw(st.lists(body, min_size=3, max_size=5))]
    cells = st.tuples(st.sampled_from(widths), st.integers(0, len(segments) - 1))
    return segments, sorted(draw(st.sets(cells, min_size=min_pairs, max_size=12)))


class TestFirstWindows:
    """Each width's windows are deduplicated by ``_first_by_content`` on both of its sides,
    with the change prefix, which skips every window that repeats its left neighbour, and
    without it."""

    @pytest.mark.parametrize("alphabet, widths, min_length, min_pairs, wide", (
        (2, range(2, 13), 12, 1, False),
        # ternary windows of 16-31 symbols led by a 2 have level-4 keys of 51 bits: with
        # 5 bits of width and 8 of position (6 pairs of at least 34 windows) they lexsort;
        # their bodies hold no run, so the change prefix keys every window and they still do
        (3, range(16, 32), 64, 6, True),
    ))
    @given(data=st.data())
    def test_matches_first_window_reference(self, alphabet, widths, min_length, min_pairs, wide, data):
        segments, pairs = data.draw(window_pairs(alphabet, widths, min_length, min_pairs, runs=not wide))
        want = naive_first_windows(segments, pairs)
        for prefix in (False, True):
            firsts, _, lexsorted = first_windows(segments, pairs, prefix)
            assert firsts == want and lexsorted == wide

    @pytest.mark.parametrize("segments, pairs, keyed", (
        # one symbol: each segment keys only its first window of each width
        ([b"\1" * 10, b"\1" * 7, b"\1" * 12], [(w, s) for w in range(2, 7) for s in range(3)], 15),
        # segment 1 opens by continuing segment 0's run of 1s: its first window "11" is
        # that content's only first occurrence, and its left neighbour in data is no window
        ([b"\0\1\1", b"\1\1\1\2"], [(2, 1), (3, 1)], 4),
        # "0001" differs from its left neighbour only in its last symbol
        ([b"\0\0\0\0\1"], [(4, 0)], 2),
    ), ids=("one-symbol", "run-across-segments", "last-symbol-change"))
    def test_runs_of_one_symbol(self, segments, pairs, keyed):
        want = naive_first_windows(segments, pairs)
        enumerated = sum(len(segments[s]) - w + 1 for w, s in pairs)
        assert first_windows(segments, pairs, False) == (want, enumerated, False)
        assert first_windows(segments, pairs, True) == (want, keyed, False)


@st.composite
def crowded_segment_lists(draw):
    # one or two symbols and short segments: widths have many members and windows repeat
    _, palette = draw(palettes(most=2))
    return draw(st.lists(words(palette, max_size=12), max_size=25))


def naive_row_plan(index, lengths):
    """Each (pair, offset) row that can yield a run not met before, in extraction order,
    as (member, member start, partner start, partner, width): by width and then member,
    each member facing its later equal-width segments and then every window of the
    strictly longer segments whose content no earlier window of theirs holds."""
    data, starts, rows = index.data, index.starts.tolist(), []
    for w, u in sorted((n, i) for i, n in enumerate(lengths) if n >= core.MIN_PATTERN_LEN):
        partners = [(starts[v], v) for v in range(u + 1, len(lengths)) if lengths[v] == w]
        seen = set()
        for v in (v for v in range(len(lengths)) if lengths[v] > w):
            for at in range(starts[v], starts[v] + lengths[v] - w + 1):
                if data[at : at + w] not in seen:
                    seen.add(data[at : at + w])
                    partners.append((at, v))
        rows += [(u, starts[u], at, v, w) for at, v in partners]
    return rows


def planned_rows(index, lengths):
    """The rows of ``core._row_plan``, each chunk checked against its budget of
    ``_CHUNK // (w + 16)`` rows, w its widest row's width."""
    rows = []
    for chunk in core._row_plan(index.starts, np.array(lengths, dtype=np.int64), index.ids, index.bound):
        assert len(chunk[-1]) <= max(1, core._CHUNK // (int(chunk[-1][-1]) + 16))
        rows += zip(*(column.tolist() for column in chunk))
    return rows


def check_every_budget(segments, want=None):
    """Both sources at every budget: packed, and scattered in a cause that opens with
    the segments in reverse and parts them with 0-2 copies of a filler symbol. The
    row plan of each source matches the per-(pair, offset) reference too."""
    want = naive_pattern_order(segments) if want is None else want
    assert want == naive_pattern_order(segments)
    gaps = [b"".join(reversed(segments))] + [b"\x07" * (i % 3) for i in range(1, len(segments))]
    lengths = [len(s) for s in segments]
    sources = [scattered(segments, [b""] * len(segments)), scattered(segments, gaps)]
    plans = [naive_row_plan(index, lengths) for index in sources]
    for chunk in BUDGETS:
        with mock.patch.object(core, "_CHUNK", chunk):
            assert extracted(segments) == want
            assert extracted(segments, sources[1]) == want
            assert [planned_rows(index, lengths) for index in sources] == plans


class TestExtractionRows:
    """A segment meets each distinct window of the longer segments once, at its first place;
    the row plan carries each row's partner segment, checked at every budget."""

    def test_first_holder_in_data_is_the_longer_one(self):
        # "abqr" is a window of both longer segments: the first in data is the
        # longest, so "ab" comes from the pair (0, 2) and before its "cd"
        check_every_budget([b"abqrstcd", b"abqrmn", b"abcd"], [b"abqr", b"ab", b"cd"])

    def test_equal_length_segments_are_windows_of_longer_ones(self):
        # the members "abcx" and "abcd" recur as windows before and after them in data
        check_every_budget([b"abcd", b"pqabcx", b"abcx", b"zabcd", b"abzz", b"qabczz"])

    def test_content_only_in_an_equal_length_partner(self):
        check_every_budget([b"abcd", b"mnopqrst", b"abce", b"mnop"], [b"abc", b"mnop"])

    @given(crowded_segment_lists())
    @example([b"a", b"", b"b", b"a"])  # no segment of length 2
    @example([b"a", b"abca", b"", b"abcb", b"c"])  # one width among shorter segments
    @example([b"abca", b"abcb", b"cabc", b"aabc", b"cbca"])  # every segment of one width
    def test_crowded_widths_match_ordered_oracle(self, segments):
        check_every_budget(segments)


def rank_level(bound):
    """The first level whose ids are ranks, not packed half-block ids, or None."""
    return next((k for k in range(1, len(bound)) if bound[k] != bound[k - 1] ** 2), None)


class TestContentKeys:
    """Keys of windows of one length are equal exactly when their contents are."""

    @pytest.mark.parametrize("alphabet, ranked_from", ((2, 5), (4, 4), (256, 2)))
    @pytest.mark.parametrize("seed", range(3))
    def test_equal_exactly_when_contents_are(self, alphabet, ranked_from, seed):
        # motifs repeat, so long windows have equal contents; 2**k - 1, 2**k and
        # 2**k + 1 symbols at every level up to one past the first rank-keyed one
        lengths = sorted({n for k in range(ranked_from + 2) for n in (2**k - 1, 2**k, 2**k + 1) if n})
        cause = motif_cause(alphabet, lengths[-1], 400, seed)
        ids, bound = core._block_ids(np.frombuffer(cause, dtype=np.uint8), lengths[-1])
        assert rank_level(bound) == ranked_from
        # every window of every length in one call, so one call mixes levels
        width = np.repeat(lengths, [len(cause) - n + 1 for n in lengths])
        start = np.concatenate([np.arange(len(cause) - n + 1) for n in lengths])
        keys = core._content_keys(ids, bound, start, width).tolist()
        for n in lengths:
            content_of = {}
            key_of = {}
            for s, w, key in zip(start.tolist(), width.tolist(), keys):
                if w == n:
                    assert content_of.setdefault(key, cause[s : s + n]) == cause[s : s + n]
                    assert key_of.setdefault(cause[s : s + n], key) == key
            assert 1 < len(key_of) < len(cause) - n + 1  # some contents repeat, some differ


def runs_by_row(windows, short, long, w):
    """(row, begin, size) of each maximal agreement run of length >= 2, row by row."""
    out = []
    for r, (a, b, width) in enumerate(zip(short.tolist(), long.tolist(), w.tolist())):
        run = 0
        for t in range(width + 1):
            if t < width and windows[a, t] == windows[b, t]:
                run += 1
                continue
            if run >= core.MIN_PATTERN_LEN:
                out.append((r, t - run, run))
            run = 0
    return out


def runs(windows, short, long, w):
    return [tuple(map(int, row)) for row in zip(*core._runs(windows, short, long, w))]


@st.composite
def run_chunks(draw):
    """Data from a small palette and rows of mixed widths from 2 up, in ascending order,
    each comparing two windows of the data; the window view has a column past the widest."""
    _, palette = draw(palettes(most=2))
    w = np.array(sorted(draw(st.lists(st.integers(2, 12), min_size=1, max_size=10))), dtype=np.int64)
    data = draw(words(palette, int(w[-1]) + 2, 60))
    windows = sliding_window_view(np.frombuffer(data, dtype=np.uint8), int(w[-1]) + 1)
    place = st.integers(0, len(windows) - 1)
    short, long = (np.array(draw(st.lists(place, min_size=len(w), max_size=len(w)))) for _ in "ab")
    return windows, short, long, w


def agreeing(cells):
    """(windows, short, long) whose row r agrees exactly at the columns where ``cells[r]``
    holds a 1: the short window reads zeros, the long one zeros there and ones elsewhere."""
    span = len(cells[0])
    data = b"".join(bytes(span) + bytes(int(c == "0") for c in row) for row in cells)
    short = np.arange(0, 2 * span * len(cells), 2 * span)
    return sliding_window_view(np.frombuffer(data, dtype=np.uint8), span), short, short + span


class TestRuns:
    """One scan of the rows laid end to end, each cleared at and past its own width,
    against a per-row scan."""

    @given(run_chunks())
    def test_matches_per_row_scan(self, chunk):
        assert runs(*chunk) == runs_by_row(*chunk)

    @pytest.mark.parametrize("cells, w, want", (
        # agreement goes on past the narrower row's width, and into the separator column
        (["1111111", "0111111"], [3, 6], [(0, 0, 3), (1, 1, 5)]),
        # a run of exactly 2 ends at its row's width, the agreement going on past it
        (["0011111", "1101100"], [4, 6], [(0, 2, 2), (1, 0, 2), (1, 3, 2)]),
        # every row is 2 wide and agrees into the separator; the last agrees in one cell
        (["111", "111", "011"], [2, 2, 2], [(0, 0, 2), (1, 0, 2)]),
        # one agreeing cell at a row's end, then agreement at the next row's start
        (["0111", "1100"], [2, 3], [(1, 0, 2)]),
        (["0011", "1000", "1101"], [3, 3, 3], [(2, 0, 2)]),
    ))
    def test_cells_at_and_past_each_width_are_cleared(self, cells, w, want):
        windows, short, long = agreeing(cells)
        w = np.array(w, dtype=np.int64)
        assert runs(windows, short, long, w) == want
        assert runs_by_row(windows, short, long, w) == want

    def test_runs_at_row_ends(self):
        # rows of width 2, 2, 4 and 6: rows 0-2 compare two windows that agree in
        # every column, the separator's too, so each run reaches its row's own
        # width and goes on; row 3 agrees from column 4 to the widest row's
        # last column and on into the separator
        data = np.frombuffer(bytes([0, 1] * 4 + [0] + [1] * 4 + [0] * 10), dtype=np.uint8)
        windows = sliding_window_view(data, 7)
        short, long, w = np.array([0, 0, 0, 16]), np.array([2, 2, 2, 9]), np.array([2, 2, 4, 6])
        agree = (windows[short] == windows[long]).tolist()
        assert agree == [[True] * 7] * 3 + [[False] * 4 + [True] * 3]
        assert runs(windows, short, long, w) == [(0, 0, 2), (1, 0, 2), (2, 0, 4), (3, 4, 2)]
        assert runs_by_row(windows, short, long, w) == runs(windows, short, long, w)

    @given(crowded_segment_lists())
    def test_every_chunk_of_extraction_matches_per_row_scan(self, segments):
        # the chunks extraction compares at every budget: they mix widths when it allows
        want = naive_pattern_order(segments)
        for chunk in BUDGETS:
            with mock.patch.object(core, "_CHUNK", chunk), \
                    mock.patch.object(core, "_runs", wraps=core._runs) as compared:
                assert extracted(segments) == want
            for call in compared.call_args_list:
                assert runs(*call.args) == runs_by_row(*call.args)


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


def flips_at(n, positions):
    """A binary target of n symbols that flips exactly at ``positions`` (indices >= 1)."""
    symbols, bit = [0], 0
    for i in range(1, n):
        bit ^= i in positions
        symbols.append(bit)
    return SymbolSequence(tuple(symbols), 2)


CUT_TARGETS = {
    **{
        f"{r} flips at the {where}": flips_at(24, set(range(first, first + r)))
        for r in range(1, 7)
        for where, first in (("start", 1), ("middle", 9), ("end", 24 - r))
    },
    "a flip at every position": flips_at(24, set(range(1, 24))),
    "one flip at index 1": flips_at(24, {1}),
    "a cut at the first possible symbol, then one more": flips_at(24, {1, 12}),
    "a single cut, the whole of two symbols": flips_at(2, {1}),
    "no flips": flips_at(24, set()),
}


@st.composite
def flip_run_targets(draw):
    """A binary target whose flips come in runs of 1 to 8, odd and even, the
    first possibly at index 1 and the last possibly at the last symbol; or one
    that flips at every position, or never."""
    kind = draw(st.sampled_from(("runs", "every", "none")))
    if kind != "runs":
        n = draw(st.integers(2, 60))
        return flips_at(n, set(range(1, n)) if kind == "every" else set())
    pieces = draw(st.lists(st.tuples(st.integers(1, 8), st.integers(1, 4)), min_size=1, max_size=6))
    flags = [False] * draw(st.integers(0, 3))  # none: the first run opens at index 1
    for run, gap in pieces:
        flags += [True] * run + [False] * gap
    if draw(st.booleans()):  # the last run flips the last symbol
        del flags[len(flags) - pieces[-1][1] :]
    return flips_at(len(flags) + 1, {i + 1 for i, flag in enumerate(flags) if flag})


class TestFlipCut:
    """Each flip's place in its run decides whether it cuts; only even places do."""

    @given(flip_run_targets(), st.data())
    def test_runs_anywhere_match_naive_dictionary(self, target, data):
        ramp = SymbolSequence(tuple(range(len(target))), len(target))  # every segment distinct
        alphabet, palette = data.draw(palettes(most=2))
        drawn = SymbolSequence(data.draw(words(palette, len(target), len(target))), alphabet)
        for source in (ramp, drawn):
            got = [s.symbols for s in build_flip_dictionary(source, target).segments]
            assert got == naive_dictionary(source.symbols, target.symbols)

    def test_genome_scale_cut_matches_naive_dictionary(self):
        # a uniform 4-ary target flips at about 3/4 of its positions: here in
        # runs of every length from 1 to 23, and a few up to 36
        rng = random.Random(11)
        x, y = (SymbolSequence(bytes(rng.randrange(4) for _ in range(30_000)), 4) for _ in range(2))
        got = build_flip_dictionary(x, y)
        assert [s.symbols for s in got.segments] == naive_dictionary(x.symbols, y.symbols)
        assert all(x.data[a : a + len(s)] == s.data for s, a in zip(got.segments, got.index.starts.tolist()))

    @pytest.mark.parametrize("target", CUT_TARGETS.values(), ids=CUT_TARGETS.keys())
    def test_cut_matches_naive_dictionary(self, target):
        ramp = SymbolSequence(tuple(range(len(target))), len(target))  # every segment distinct
        got = [s.symbols for s in build_flip_dictionary(ramp, target).segments]
        assert got == naive_dictionary(ramp.symbols, target.symbols)

    @pytest.mark.parametrize("target", CUT_TARGETS.values(), ids=CUT_TARGETS.keys())
    def test_scores_match_oracles(self, target):
        cause = SymbolSequence.from_text("011010011101001011001101"[: len(target)], 2)
        score = score_direction(cause, target)
        segments = naive_dictionary(cause.symbols, target.symbols)
        assert [s.pattern.symbols for s in score.pattern_scores] == naive_pattern_order(segments)
        for s in score.pattern_scores:
            want = naive_response(s.pattern.symbols, cause.symbols, target.symbols)
            assert (s.n_change, s.n_nochange) == want


class TestOneIndexPerDirection:
    """A direction indexes the cause once; extraction and counting read the
    dictionary's index, and counting keys the patterns at their starts in it."""

    X = SymbolSequence.from_text("011101111010011001110101101001", 2)
    Y = SymbolSequence.from_text("000001000010000000000100001000", 2)

    def test_block_ids_built_once_per_direction(self):
        with mock.patch.object(core, "_block_ids", wraps=core._block_ids) as block_ids:
            score = score_direction(self.X, self.Y)
        assert score.pattern_scores and block_ids.call_count == 1
        assert block_ids.call_args.args[0].tobytes() == self.X.data

    def test_layers_are_called_through_the_module(self):
        # a tracer wraps these two module attributes to time the dictionary and extraction
        with mock.patch.object(core, "build_flip_dictionary", wraps=build_flip_dictionary) as cut, \
                mock.patch.object(core, "_pattern_bytes", wraps=core._pattern_bytes) as extract:
            score_direction(self.X, self.Y, core.LABEL_YX)
        cut.assert_called_once_with(self.X, self.Y, core.LABEL_YX)
        want = build_flip_dictionary(self.X, self.Y, core.LABEL_YX)
        (given,), = (c.args for c in extract.call_args_list)
        assert given == want and given.index.data == self.X.data
        assert given.index.starts.tolist() == want.index.starts.tolist()

    def test_tracer_reads_the_pattern_count_and_calls_with_one_argument(self):
        # the tracer counts patterns as len() of the result, reads len() of each
        # item of the one argument, and samples memory with that argument alone
        dictionary = build_flip_dictionary(self.X, self.Y)
        want = [s.pattern.data for s in score_direction(self.X, self.Y).pattern_scores]
        rows = core._pattern_bytes(dictionary).tolist()
        assert len(rows) == len(want) > 0
        assert [self.X.data[s : s + n] for n, s in rows] == want
        assert [len(s) for s in dictionary] == dictionary._lengths.tolist()

    def test_index_is_left_out_of_equality_and_repr(self):
        built = build_flip_dictionary(self.X, self.Y)
        assert built.index is not None
        bare = core.FlipDictionary(built.direction, built.segments)
        assert built == bare and repr(built) == repr(bare)
        assert repr(built).startswith("FlipDictionary(direction='X->Y', segments=(")


# the dictionary's face as a frozen dataclass of its direction and segments
# gave it, with the index left out: built and bare dictionaries must match it
FrozenDictionary = dataclasses.make_dataclass(
    "FlipDictionary",
    [("direction", str), ("segments", tuple),
     ("index", object, dataclasses.field(default=None, repr=False, compare=False))],
    frozen=True,
)


class TestDictionaryFace:
    """A built dictionary keeps its segments as rows of the source and builds
    ``segments`` on first read; a bare one, given its segments, packs them end
    to end into its index. Their value, ``repr``, ``==`` and ``hash`` are those
    of the frozen dataclass the dictionary was. The "no flips" target has no
    flip that cuts, and so no segment data and no index."""

    @pytest.mark.parametrize("target", CUT_TARGETS.values(), ids=CUT_TARGETS.keys())
    def test_built_matches_the_oracle_and_the_dataclass(self, target):
        source = SymbolSequence.from_text("011010011101001011001101"[: len(target)], 2)
        built = build_flip_dictionary(source, target, core.LABEL_YX)
        want = naive_dictionary(source.symbols, target.symbols)
        assert (built.index is None) == (want == [])
        frozen = FrozenDictionary(core.LABEL_YX, tuple(SymbolSequence(s, 2) for s in want))
        assert repr(built) == repr(frozen)  # read before segments
        assert [s.symbols for s in built.segments] == want and built.segments is built.segments
        assert hash(built) == hash(frozen)
        bare = core.FlipDictionary(core.LABEL_YX, frozen.segments)
        assert bare.segments is frozen.segments and (bare.index is None) == (want == [])
        if want:  # the bare index holds the segments packed end to end
            lengths = [len(s) for s in want]
            assert bare.index.data == b"".join(map(bytes, want)) and bare.index.changed is None
            assert bare.index.starts.tolist() == [sum(lengths[:i]) for i in range(len(lengths))]
            longest_pattern = sorted(lengths)[-2] if len(lengths) > 1 else 1
            assert len(bare.index.ids) == longest_pattern.bit_length()  # no level past it
        assert built == bare and hash(built) == hash(bare) and repr(built) == repr(bare)
        assert built != core.FlipDictionary(core.LABEL_XY, frozen.segments)
        assert built != frozen and frozen != built  # other classes compare unequal, as dataclasses do

    def test_segments_cut_from_the_source_carry_its_alphabet(self):
        source = SymbolSequence.from_text("0120120210", 5)
        built = build_flip_dictionary(source, SymbolSequence.from_text("0101010101", 2))
        assert {s.alphabet_size for s in built.segments} == {5}
        rows = zip(built.index.starts.tolist(), built._lengths.tolist())
        assert [s.data for s in built.segments] == [source.data[a : a + n] for a, n in rows]

    def test_extracting_two_sequences_keeps_its_output(self):
        a, b = SymbolSequence.from_text("01101"), SymbolSequence.from_text("00110211101", 3)
        got = extract_common_subpatterns(a, b)
        assert [(p.text(), p.alphabet_size) for p in got] == [("0110", 3), ("11", 3), ("1101", 3)]

    @pytest.mark.parametrize("target", CUT_TARGETS.values(), ids=CUT_TARGETS.keys())
    def test_iterating_yields_the_segments(self, target):
        # the benchmark's tracer reads len() of each item of extraction's one argument
        source = SymbolSequence.from_text("011010011101001011001101"[: len(target)], 2)
        built = build_flip_dictionary(source, target)
        bare, empty = core.FlipDictionary(built.direction, built.segments), core.FlipDictionary(core.LABEL_XY, ())
        for dictionary in (built, bare, empty):
            assert list(dictionary) == list(dictionary.segments)
        assert empty and not list(empty)  # no __len__, so an empty dictionary stays truthy

    @given(sequence_pairs(), CHUNKS)
    def test_built_and_bare_dictionaries_extract_alike(self, pair, chunk):
        # rows in the cause and the same segments packed end to end give one pattern order
        with mock.patch.object(core, "_CHUNK", chunk):
            built = build_flip_dictionary(*pair)
            bare = core.FlipDictionary(built.direction, built.segments)
            got = [[(p.data, p.alphabet_size) for p in build_pattern_set(d).patterns] for d in (built, bare)]
        assert got[0] == got[1]

    def test_pattern_set_builds_no_segment(self):
        # a built dictionary hands extraction its rows, so only the patterns become sequences
        x, y = TestOneIndexPerDirection.X, TestOneIndexPerDirection.Y
        built = build_flip_dictionary(x, y)
        with mock.patch.object(SymbolSequence, "_of_valid", wraps=SymbolSequence._of_valid) as of_valid:
            patterns = build_pattern_set(built).patterns
        assert of_valid.call_count == len(patterns) > 0 and len(built._lengths) > 0
        assert [p.data for p in patterns] == [s.pattern.data for s in score_direction(x, y).pattern_scores]


@pytest.mark.parametrize("anchor", (True, False), ids=("anchored", "scan"))
def test_counts_past_the_effects_2_to_the_15th_flip(anchor):
    # the flip prefix holds every flip of the effect: an int16 prefix wraps at
    # the 2**15-th and reads a window that spans it as steady
    rng = np.random.default_rng(15)
    cause, effect = (rng.integers(0, 4, 50_000, dtype=np.uint8).tobytes() for _ in range(2))
    flips = core._changes(effect).nonzero()[0]
    assert len(flips) > 1 << 15
    wrap = int(flips[(1 << 15) - 1])  # effect[wrap + 1] != effect[wrap]
    patterns = list(dict.fromkeys(cause[wrap - back : wrap + 2] for back in (0, 1, 3, 6)))
    with side(anchor), anchored() as taken:
        n_occ, n_change = occurrences(cause, effect, patterns)
    assert taken.called == anchor
    for p, occ, change in zip(patterns, n_occ.tolist(), n_change.tolist()):
        assert (change, occ - change) == naive_response(tuple(p), cause, effect)


def occurrences(cause: bytes, effect: bytes, patterns: list[bytes]):
    """Counting from an index of the cause that reaches the longest pattern, each
    pattern placed at its first place in the cause; one that is not there counts 0.
    The patterns must be distinct, as counting requires."""
    assert len(set(patterns)) == len(patterns)
    first = np.array([cause.find(p) for p in patterns], dtype=np.int64)
    found = np.flatnonzero(first >= 0)
    lengths = np.array([len(p) for p in patterns], dtype=np.int64)[found]
    ids, bound = core._block_ids(np.frombuffer(cause, dtype=np.uint8), int(lengths.max()))
    index = core._DirectionIndex(ids, bound, core._changes(effect), cause, first[found])
    counts = np.zeros((2, len(patterns)), dtype=np.int64)
    counts[:, found] = core._occurrences(lengths, first[found], index)
    return counts


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
            n_occ, n_change = occurrences(cause.data, effect.data, patterns)
        for p, occ, change in zip(patterns, n_occ.tolist(), n_change.tolist()):
            assert (occ, change) == find_response(p, cause.data, effect.data)
            assert occ == naive_count(tuple(p), cause.symbols)
            assert (change, occ - change) == naive_response(tuple(p), cause.symbols, effect.symbols)

    @pytest.mark.parametrize(
        "patterns",
        [["011", "110", "101", "000", "111"], ["1", "01", "110", "0110", "10110", "011011"]],
        ids=["a single length", "every pattern of a different length"],
    )
    def test_length_groups_at_the_edges(self, patterns):
        cause = SymbolSequence.from_text("0110110100011101101100101101", 2)
        effect = SymbolSequence.from_text("0011101001011100100111010110", 2)
        patterns = [SymbolSequence.from_text(p, 2).data for p in patterns]
        for chunk in BUDGETS:
            with mock.patch.object(core, "_CHUNK", chunk):
                n_occ, n_change = occurrences(cause.data, effect.data, patterns)
            for p, occ, change in zip(patterns, n_occ.tolist(), n_change.tolist()):
                assert (change, occ - change) == naive_response(tuple(p), cause.symbols, effect.symbols)

    def test_response_of_long_pattern(self):
        cause = SymbolSequence((0,) * 80 + (1,) + (0,) * 40, 2)
        effect = SymbolSequence((0,) * 60 + (1,) * 61, 2)
        pattern = SymbolSequence((0,) * 40, 2)
        n_change, n_nochange, _ = response_determinism(pattern, cause, effect)
        assert (n_change, n_nochange) == naive_response(pattern.symbols, cause.symbols, effect.symbols)


def anchored():
    """Wrap the anchored counting side, to see whether a count took it."""
    return mock.patch.object(core, "_anchored_occurrences", wraps=core._anchored_occurrences)


def side(anchor):
    """Make the rule pick the anchored side (True) or the scan (False)."""
    return mock.patch.object(core, "_anchors_pay", lambda *_: anchor)


@st.composite
def run_pairs(draw):
    """A cause of runs over an alphabet of 2 to 256 symbols, at times a single
    run, and an effect that flips at a drawn set of places."""
    alphabet = draw(st.integers(2, 256))
    runs = draw(st.lists(st.tuples(st.integers(0, alphabet - 1), st.integers(1, 12)), min_size=1, max_size=12))
    cause = b"".join(bytes([a]) * r for a, r in runs)
    flips = draw(st.sets(st.integers(1, len(cause) - 1))) if len(cause) > 1 else set()
    symbol, effect = 0, bytearray()
    for i in range(len(cause)):
        symbol ^= i in flips
        effect.append(symbol)
    return cause, bytes(effect)


def run_patterns(cause, data):
    """Distinct windows of the cause, runs aᴸ and windows whose only change is
    at their last pair."""
    n = len(cause)
    spans = data.draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(1, n)), max_size=6))
    patterns = [cause[:1]] + [cause[a : a + k] for a, k in spans]
    patterns += [bytes([cause[a]]) * k for a, k in spans]
    changes = [p for p in range(n - 1) if cause[p] != cause[p + 1]]
    for p in data.draw(st.lists(st.sampled_from(changes), max_size=3)) if changes else []:
        q = p
        while q and cause[q - 1] == cause[p]:
            q -= 1
        patterns.append(cause[q : p + 2])  # one run of cause[p], then the next symbol
    return list(dict.fromkeys(patterns))


def sweep_sparse_direction():
    """The x -> y direction of a sweep-sparse trial: a mask of 25 ones in 2,000 symbols."""
    pair = gen_sparse(25, RngStream(2, 0), 2000)
    return pair.x, pair.y


class TestAnchoredCounting:
    """Counting from the cause's changes against the naive oracle, with the
    rule forced to each side at every chunk budget: changing patterns, runs
    aᴸ (closed form), patterns whose only change is their last pair, causes
    with no change and alphabets of 2 to 256. The patterns are distinct, as
    extraction hands them to counting."""

    @staticmethod
    def check(cause, effect, patterns, chunk, anchor):
        with mock.patch.object(core, "_CHUNK", chunk), side(anchor), anchored() as taken:
            n_occ, n_change = occurrences(cause, effect, patterns)
        assert taken.called == anchor
        assert list(zip(n_occ.tolist(), n_change.tolist())) == responses(patterns, cause, effect)
        for p, occ, change in zip(patterns, n_occ.tolist(), n_change.tolist()):
            if occ:
                assert (change, occ - change) == naive_response(tuple(p), cause, effect)

    @pytest.mark.parametrize("anchor", (True, False), ids=("anchored", "scan"))
    @given(run_pairs(), st.data(), CHUNKS)
    def test_each_side_matches_the_oracle(self, anchor, pair, data, chunk):
        cause, effect = pair
        self.check(cause, effect, run_patterns(cause, data), chunk, anchor)

    @pytest.mark.parametrize("chunk", BUDGETS)
    @given(sequence_pairs())
    def test_extracted_patterns_are_distinct_and_count_alike_on_both_sides(self, chunk, pair):
        # counting credits every pattern it is given, so it relies on extraction
        # handing over each content once, on the cause index and packed alike
        cause, effect = (s.data for s in pair)
        with mock.patch.object(core, "_CHUNK", chunk):
            dictionary = build_flip_dictionary(*pair)
            segments = [s.data for s in dictionary.segments]
            patterns = extracted(segments, dictionary.index)
            packed = extracted(segments)
            assert len(set(patterns)) == len(patterns) and len(set(packed)) == len(packed)
            if not patterns:
                return
            lengths, starts = core._pattern_bytes(dictionary).T
            counts = []
            for anchor in (True, False):
                with side(anchor), anchored() as taken:
                    counts.append(np.array(core._occurrences(lengths, starts, dictionary.index)).T.tolist())
                assert taken.called == anchor
        assert counts[0] == counts[1] == [list(c) for c in responses(patterns, cause, effect)]

    @pytest.mark.parametrize("anchor", (True, False), ids=("anchored", "scan"))
    def test_cause_with_no_change(self, anchor):
        cause, effect = b"\x05" * 9, b"\x00\x00\x01\x01\x01\x00\x00\x00\x01"
        patterns = [b"\x05" * k for k in range(1, 10)]
        for chunk in BUDGETS:
            self.check(cause, effect, patterns, chunk, anchor)

    def test_runs_with_flipped_and_steady_windows(self):
        # runs of 0 that the effect flips inside, and one it does not
        cause = bytes([0] * 6 + [1] + [0] * 5 + [2, 2] + [0] * 3)
        effect = bytes([0, 0, 0, 1, 1, 1, 1, 1, 1, 0, 0, 0, 0, 0, 0, 0, 0])
        patterns = [bytes(k) for k in range(1, 7)] + [b"\x02\x02", b"\x00\x01", b"\x00\x00\x00\x01"]
        want = [find_response(p, cause, effect) for p in patterns]
        assert want[:3] == [(14, 0), (11, 2), (8, 4)]
        for chunk in BUDGETS:
            with mock.patch.object(core, "_CHUNK", chunk), side(True):
                n_occ, n_change = occurrences(cause, effect, patterns)
            assert list(zip(n_occ.tolist(), n_change.tolist())) == want

    def test_rule_anchors_few_changes_and_scans_many(self):
        # a sparse binary mask changes at about 50 of 2,000 places; a genome-length
        # 4-ary cause at about three quarters of its 30,000
        for (cause, effect), anchor in ((sweep_sparse_direction(), True), (genome_pair(30_000, 0.001, 1), False)):
            with anchored() as taken:
                score = score_direction(cause, effect)
            assert score.has_evidence and taken.called == anchor


def motif_cause(alphabet, length, n, seed):
    """n symbols of three repeated motifs longer than ``length``, each holding the top symbol."""
    rng = random.Random(seed)
    motifs = [
        bytes([alphabet - 1] + [rng.randrange(alphabet) for _ in range(length + 1)]) for _ in range(3)
    ]
    cause = b""
    while len(cause) < n:
        cause += rng.choice(motifs) + bytes([rng.randrange(alphabet)])
    return cause[:n]


def flip_effect(n, rate, seed):
    rng = random.Random(seed)
    out, symbol = bytearray(), 0
    for _ in range(n):
        symbol ^= rng.random() < rate
        out.append(symbol)
    return bytes(out)


def rank_space(cause, k):
    """Key space of a rank-keyed level k: the distinct 2**k-blocks of the cause, squared."""
    return len({cause[s : s + (1 << k)] for s in range(len(cause) - (1 << k) + 1)}) ** 2


def responses(patterns, cause, effect):
    """find_response of each pattern."""
    return [find_response(p, cause, effect) for p in patterns]


def lookups():
    """Wrap both lookup builders, to see which path each pattern length took."""
    return (
        mock.patch.object(core, "_table_lookup", wraps=core._table_lookup),
        mock.patch.object(core, "_sorted_lookup", wraps=core._sorted_lookup),
    )


# (alphabet, pattern length, key space): the space of a length with
# 2**k <= L < 2**(k+1) is bound[k] ** 2, the packed bound alphabet ** 2**k,
# so the default budget of 2**16 takes the first length of each pair in a
# table and the second by binary search
CAP_SIDES = (
    (4, 7, 4**8),
    (4, 8, 4**16),
    (2, 15, 2**16),
    (2, 16, 2**32),
    (256, 1, 256**2),
    (256, 2, 256**4),
)


class TestLookupSides:
    """The scan's dense table and binary search, each on its side of the key-space
    cap. A single pattern, or a few on a cause of three motifs, can be fewer
    candidates than windows, so the counts are held on the scan; every check
    sees its lookups run. ``score_direction`` takes the scan by the rule."""

    def check_counts(self, alphabet, length, space):
        cause = motif_cause(alphabet, length, 300, seed=length)
        effect = flip_effect(len(cause), 0.1, seed=alphabet)
        present = list(dict.fromkeys(cause[a : a + length] for a in range(0, len(cause) - length, 23)))
        absent = next(bytes([a]) * length for a in range(alphabet) if bytes([a]) * length not in cause)
        patterns = present + [absent]
        want = responses(patterns, cause, effect)
        seq_cause, seq_effect = SymbolSequence(cause, alphabet), SymbolSequence(effect, alphabet)
        for chunk in BUDGETS:
            table, search = lookups()
            with mock.patch.object(core, "_CHUNK", chunk), table as table, search as search, side(False):
                n_occ, n_change = occurrences(cause, effect, patterns)
                n_change_one, n_nochange_one, _ = response_determinism(
                    SymbolSequence(present[0], alphabet), seq_cause, seq_effect
                )
            assert list(zip(n_occ.tolist(), n_change.tolist())) == want
            assert (n_change_one, n_nochange_one) == naive_response(
                tuple(present[0]), cause, effect
            )
            took, skipped = (table, search) if space <= chunk else (search, table)
            assert took.call_count == 2 and skipped.call_count == 0
        assert want[0][0] > 1

    @pytest.mark.parametrize("alphabet, length, space", CAP_SIDES)
    def test_counts_on_each_side_of_the_cap(self, alphabet, length, space):
        self.check_counts(alphabet, length, space)

    @pytest.mark.parametrize("alphabet, short, space", ((4, 4, 4**8), (4, 8, 4**16)))
    def test_lengths_of_one_level_see_no_stale_keys(self, alphabet, short, space):
        # the all-zero patterns of lengths short and short + 1 share a key, so
        # a table left as the shorter length wrote it would credit every zero
        # window of the longer length to the longer length's first pattern
        rng = random.Random(short)
        cause = bytes(rng.randrange(1, alphabet) for _ in range(150))
        cause = cause[:60] + bytes(3 * short) + cause[60:]
        effect = flip_effect(len(cause), 0.2, seed=short)
        patterns = [bytes(short), cause[: short + 1], cause[100 : 101 + short]]
        assert len(set(patterns)) == 3
        want = [find_response(p, cause, effect) for p in patterns]
        for chunk in BUDGETS:
            table, search = lookups()
            with mock.patch.object(core, "_CHUNK", chunk), table as table, search as search, side(False):
                n_occ, n_change = occurrences(cause, effect, patterns)
            assert list(zip(n_occ.tolist(), n_change.tolist())) == want
            took, skipped = (table, search) if space <= chunk else (search, table)
            assert took.call_count == 2 and skipped.call_count == 0

    def test_short_cause_takes_the_table_at_a_rank_keyed_level(self):
        # 256-ary ids rank from level 2 (2**32 >= 2**31 packed), so a short
        # cause's key space for lengths 4..7 is its distinct 4-blocks squared
        cause = motif_cause(256, 5, 300, seed=5)
        assert rank_space(cause, 2) <= core._CHUNK
        self.check_counts(256, 5, rank_space(cause, 2))

    @pytest.mark.parametrize("alphabet, length, n", ((4, 8, 160), (2, 16, 200), (256, 4, 160)))
    def test_score_direction_takes_both_paths(self, alphabet, length, n):
        cause = motif_cause(alphabet, length, n, seed=1)
        effect = flip_effect(n, 1 / (1.5 * length), seed=2)
        segments = naive_dictionary(tuple(cause), tuple(effect))
        want = naive_pattern_order(segments)
        for chunk in BUDGETS:
            table, search = lookups()
            with mock.patch.object(core, "_CHUNK", chunk), table as table, search as search, anchored() as taken:
                score = score_direction(SymbolSequence(cause, alphabet), SymbolSequence(effect, alphabet))
            assert not taken.called
            assert [s.pattern.symbols for s in score.pattern_scores] == want
            for s in score.pattern_scores:
                assert (s.n_change, s.n_nochange) == naive_response(s.pattern.symbols, cause, effect)
            assert search.called and (table.called or chunk < core._CHUNK)
            assert all(len(c.args[1]) <= chunk for c in table.call_args_list)


def start_filter():
    """Wrap the start filter; each call is recorded as (blocks scanned, bound, starts or None)."""
    calls = []
    original = core._level_starts

    def record(level, left, bound):
        starts = original(level, left, bound)
        calls.append((len(level), bound, starts))
        return starts

    return mock.patch.object(core, "_level_starts", record), calls


def level_starts(cause, patterns, m):
    """The positions s < m of the cause at which some pattern's left block
    starts, the blocks being of 2**k symbols, m = len(cause) - 2**k + 1."""
    size = len(cause) - m + 1
    left = {p[:size] for p in patterns if size <= len(p) < 2 * size}
    return [s for s in range(m) if cause[s : s + size] in left]


def rare_cause(n, rare, seed, tail=True):
    """n binary symbols, 1 at about every ``rare``-th place and never twice in
    a row, but at the end when ``tail``: the blocks that open with 1 start
    rarely, and with ``tail`` every tail of two or more symbols occurs only
    there."""
    rng = random.Random(seed)
    body = bytes(rng.random() < 1 / rare for _ in range(n - 3)).replace(b"\x01\x01", b"\x01\x00")
    return body + (b"\x00\x01\x01" if tail else b"\x00\x01\x00")


def opening_patterns(cause):
    """Patterns of lengths 2..7 that open with the cause's rare symbol 1, each
    at one of its first places in the cause."""
    opens = [s for s in range(len(cause) - 7) if cause[s] == 1][:6]
    return [cause[s : s + length] for s, length in zip(opens, (2, 3, 4, 5, 6, 7))]


def rare_patterns(cause):
    """The opening patterns and tails of the cause, whose only occurrences end
    at its last symbol."""
    n = len(cause)
    patterns = opening_patterns(cause)
    tails = [cause[n - length :] for length in (2, 3, 4, 5)]
    assert all(cause.find(t) == n - len(t) for t in tails)
    return patterns + tails


class TestStartFilter:
    """Each side of the start filter's rules, at every chunk budget: the gate
    that takes a cause of one chunk (of ``_CHUNK // 8`` blocks) through the
    full scan, the filtered count, whose starts are found in a mark table of
    the level's id bound, the half rule that falls back to the full scan,
    and the full scan of a level whose id bound exceeds the budget. Binary
    causes keep the bound of levels 1 and 2 (4 and 16) within small budgets.
    Most of these causes change symbol rarely, which the rule would count from
    their changes, so the rule is held on the scan, and each check sees the
    scan's lookups run."""

    def check(self, cause, effect, patterns, chunk):
        """Counts of the distinct patterns against the oracles; the start filter's
        calls, each checked against the positions where a pattern's left block starts."""
        patterns = list(dict.fromkeys(patterns))
        recorder, calls = start_filter()
        table, search = lookups()
        with mock.patch.object(core, "_CHUNK", chunk), recorder, side(False), table as table, search as search:
            n_occ, n_change = occurrences(cause, effect, patterns)
        assert table.called or search.called
        got = list(zip(n_occ.tolist(), n_change.tolist()))
        assert got == responses(patterns, cause, effect)
        for p, (occ, change) in zip(patterns, got):
            if occ:
                assert (change, occ - change) == naive_response(tuple(p), cause, effect)
        for m, bound, starts in calls:
            assert m > chunk // 8 and bound <= chunk
            if starts is not None:
                assert starts.tolist() == level_starts(cause, patterns, m)
        return calls

    @pytest.mark.parametrize("chunk", BUDGETS)
    def test_cause_of_one_chunk_takes_the_full_scan(self, chunk):
        # lengths 2 and 3 read blocks of 2 symbols: n - 1 of them, one chunk at n = chunk // 8 + 1
        for extra, filtered in ((0, False), (1, True)):
            n = chunk // 8 + 1 + extra
            cause = rare_cause(n + 3, rare=4, seed=n)[3:]
            effect = flip_effect(n, 0.3, seed=chunk)
            patterns = [cause[s : s + length] for length in range(2, min(n, 3) + 1) for s in (0, n - length)]
            calls = self.check(cause, effect, patterns, chunk)
            assert [m for m, _, _ in calls] == ([n - 1] if filtered else [])

    @pytest.mark.parametrize("chunk", BUDGETS)
    def test_filtered_levels_match_the_oracles(self, chunk):
        # three chunks of blocks; the blocks that open with 1 are rare
        cause = rare_cause(3 * (chunk // 8) + 40, rare=6, seed=chunk)
        effect = flip_effect(len(cause), 0.2, seed=chunk)
        calls = self.check(cause, effect, rare_patterns(cause), chunk)
        # the level's packed bound is 2 ** 2 ** k: marked once the budget holds it
        want = [(len(cause) - (1 << k) + 1, 2 ** 2**k) for k in (1, 2) if 2 ** 2**k <= chunk]
        assert [(m, bound) for m, bound, _ in calls] == want
        assert all(starts is not None and 0 < len(starts) < m / 2 for m, _, starts in calls)

    @pytest.mark.parametrize("chunk", BUDGETS)
    def test_half_of_the_starts_fall_back_to_the_full_scan(self, chunk):
        n = 3 * (chunk // 8) + 40
        rng = random.Random(chunk)
        cause = bytes(rng.randrange(2) for _ in range(n - 3)) + b"\x00\x01\x01"
        effect = flip_effect(n, 0.3, seed=n)
        # lengths 2 and 3 open with 0 0, 0 1 and 1 0, at about 3/4 of the
        # positions, and never with 1 1; length 4 only with 0 0 1 1
        patterns = [bytes(p) for p in ((0, 0), (0, 1, 0), (1, 0))]
        patterns = [p for p in patterns if p in cause] + [cause[-3:], b"\x00\x00\x01\x01", cause[-4:]]
        blocks = [cause[s : s + 2] for s in range(n - 1)]
        left = {p[:2] for p in patterns if len(p) < 4}
        assert set(blocks) - left  # a block no pattern opens with: not every id is marked
        assert 2 * sum(block in left for block in blocks) >= n - 1  # at least half are starts
        calls = self.check(cause, effect, patterns, chunk)
        assert [(m, starts is None) for m, _, starts in calls][:1] == [(n - 1, True)]

    @pytest.mark.parametrize("chunk", BUDGETS)
    def test_half_rule_boundary(self, chunk):
        # of m blocks, exactly half qualifying gives None, one fewer the starts
        # that a per-position scan finds, none an empty array
        m = 2 * (chunk // 8) + 10
        rng = random.Random(chunk)
        for hits in (m // 2, m // 2 - 1, 0):
            qualify = set(rng.sample(range(m), hits))
            level = np.array([rng.choice((1, 3) if s in qualify else (0, 2)) for s in range(m)], dtype=np.int32)
            starts = core._level_starts(level, np.array([1, 3]), 4)
            if hits == m // 2:
                assert starts is None
            else:
                assert starts is not None and starts.tolist() == sorted(qualify)
        # the patterns' left 2-blocks, 0 1 and 1 1, start wherever the next
        # symbol is 1: at the ones of cause[1:], m of them
        patterns = [b"\x00\x01", b"\x01\x01", b"\x00\x01\x01", b"\x01\x01\x00"]
        for ones in (m // 2, m // 2 - 1):
            body = [1] * (ones - 2) + [0] * (m - 2 - ones)
            rng.shuffle(body)
            cause = bytes([0, 0, 1, 1, 0] + body)
            effect = flip_effect(len(cause), 0.3, seed=ones)
            calls = self.check(cause, effect, patterns, chunk)
            assert [(m_, bound, starts is None) for m_, bound, starts in calls] == [(m, 4, ones == m // 2)]

    @pytest.mark.parametrize("chunk", BUDGETS)
    def test_every_id_a_left_block_skips_the_gather(self, chunk):
        # of a level's four ids, all of them left gives None before any mark
        # is read; with the most common one missing, fewer than half qualify
        m = 2 * (chunk // 8) + 12
        level = np.zeros(m, dtype=np.int32)
        level[::4] = np.arange(len(level[::4])) % 3 + 1  # ids 1, 2, 3 at a quarter of the positions
        assert core._level_starts(level, np.arange(4), 4) is None
        starts = core._level_starts(level, np.array([1, 2, 3]), 4)
        assert starts is not None and starts.tolist() == list(range(0, m, 4))
        # a cause whose 2-blocks are mostly 0 0 and end with 1 1
        cause = rare_cause(3 * (chunk // 8) + 40, rare=6, seed=chunk)
        effect = flip_effect(len(cause), 0.2, seed=chunk)
        every = [b"\x00\x00", b"\x00\x01", b"\x01\x00", b"\x01\x01", cause[:3]]
        calls = self.check(cause, effect, every, chunk)
        assert [(m_, bound, starts is None) for m_, bound, starts in calls] == [(len(cause) - 1, 4, True)]
        ((_, _, starts),) = self.check(cause, effect, every[1:4] + [cause[-3:]], chunk)
        assert starts is not None and 0 < len(starts) < (len(cause) - 1) / 2

    @pytest.mark.parametrize("chunk", BUDGETS)
    def test_rank_keyed_level_beyond_the_budget_takes_the_full_scan(self, chunk):
        # 256-ary ids rank from level 2 on, and n random symbols hold about n
        # distinct 4-blocks, more than the budget's entries
        rng = random.Random(chunk)
        n = chunk + 100
        cause = bytes([255]) + bytes(rng.randrange(256) for _ in range(n - 1))
        effect = flip_effect(n, 0.2, seed=chunk)
        patterns = [cause[s : s + length] for s, length in ((n // 3, 4), (n // 2, 6), (2 * n // 3, 7))]
        patterns += [cause[-5:], cause[-4:]]
        ids, bound = core._block_ids(np.frombuffer(cause, dtype=np.uint8), 7)
        assert n - 3 > chunk // 8 and bound[2] > chunk
        assert self.check(cause, effect, patterns, chunk) == []

    @pytest.mark.parametrize("chunk", BUDGETS)
    def test_level_where_no_start_qualifies(self, chunk):
        # no 2-block of the cause is 1 1 (packed id 3), so that left block marks
        # no position; counting never asks for it, as a pattern's own start
        # qualifies, and counts the patterns that open with 1 at their starts
        cause = rare_cause(3 * (chunk // 8) + 40, rare=6, seed=chunk + 1, tail=False)
        assert b"\x01\x01" not in cause
        ids, bound = core._block_ids(np.frombuffer(cause, dtype=np.uint8), 2)
        starts = core._level_starts(ids[1, : len(cause) - 1], np.array([3]), int(bound[1]))
        assert bound[1] == 4 and starts is not None and len(starts) == 0
        effect = flip_effect(len(cause), 0.2, seed=chunk)
        calls = self.check(cause, effect, opening_patterns(cause), chunk)
        assert all(starts is not None and len(starts) for *_, starts in calls)


def check_score(score, cause, effect):
    """The score's patterns, in order, and their counts against the naive oracles."""
    segments = naive_dictionary(cause.symbols, effect.symbols)
    assert [s.pattern.symbols for s in score.pattern_scores] == naive_pattern_order(segments)
    for s in score.pattern_scores:
        assert (s.n_change, s.n_nochange) == naive_response(s.pattern.symbols, cause.symbols, effect.symbols)


class TestScoreDirection:
    @given(sequence_pairs(max_size=70), CHUNKS)
    def test_patterns_and_counts_match_oracles(self, pair, chunk):
        cause, effect = pair
        with mock.patch.object(core, "_CHUNK", chunk):
            score = score_direction(cause, effect)
        check_score(score, cause, effect)

    @pytest.mark.parametrize("shape, prefix", (
        # sparse binary series, zero almost everywhere: the windows outnumber the 200 symbols
        ("sparse", True),
        # a 4-ary pair that flips at most places: segments of a few symbols, fewer windows
        ("uniform", False),
    ))
    def test_change_prefix_on_each_side_of_the_rule(self, shape, prefix):
        if shape == "sparse":
            pair = gen_sparse(10, RngStream(1, 0), 200)
            x, y = pair.x, pair.y
        else:
            x, y = genome_pair(200, 0.5, 1)
        wrapped = mock.patch.object(core, "_first_windows", wraps=core._first_windows)
        for cause, effect in ((x, y), (y, x)):
            scores = []
            for chunk in BUDGETS:
                with mock.patch.object(core, "_CHUNK", chunk), wrapped as first_windows:
                    scores.append(score_direction(cause, effect))
                # the last argument is the change prefix, or None
                assert {call.args[-1] is not None for call in first_windows.call_args_list} == {prefix}
            check_score(scores[0], cause, effect)
            assert len(set(scores)) == 1 and scores[0].has_evidence


def test_long_few_flip_input_stays_within_a_memory_cap():
    # segments of 2002, 5000 and 4998 symbols; the 251-periodic cause leaves
    # at most 251 distinct 2002-windows in the longer two, so about half a
    # million symbols are compared (12 million with every window)
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


@pytest.mark.parametrize(
    "gaps, n_patterns, digest",
    (
        # 1,498 segments of 20 symbols after one of 21: nearly every row pairs equal widths
        ((20,), 4103, "9f020fc520d76f0c708b5df24fa123da2e0b7364ecfa81a653ba383d6abde634"),
        # 731 segments of 20 symbols face the 1,464 20-windows of 732 segments of 21
        ((20, 21), 4929, "a67657e77757d24ee6fa7c2a1d595c71afaf46ae13524ab0a0be839d4c1ebaf3"),
    ),
)
def test_many_short_segments_stay_within_a_memory_cap(gaps, n_patterns, digest):
    # about a million rows of 20 symbols: compared at once, they would take tens of MB
    rng = random.Random(5)
    n = 30_000
    cause = bytes(rng.randrange(2) for _ in range(n))
    effect = b"".join(bytes([k % 2]) * gaps[k % len(gaps)] for k in range(n // 20))[:n]
    dictionary = build_flip_dictionary(SymbolSequence(cause, 2), SymbolSequence(effect, 2))
    tracemalloc.start()
    try:
        patterns = build_pattern_set(dictionary).patterns
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(patterns) == n_patterns
    assert hashlib.sha256(b"|".join(p.data for p in patterns)).hexdigest() == digest
    assert peak < 4 * 1024 * 1024


def adversarial_pair(n, seed=3):
    """A uniform binary cause of n symbols and an effect that flips every 30-60 symbols:
    its segments are nearly all distinct, so each faces nearly every window of the
    longer ones: the adversarial shape, the worst known for extraction."""
    rng = random.Random(seed)
    cause = bytes(rng.randrange(2) for _ in range(n))
    effect, symbol = b"", 0
    while len(effect) < n:
        effect += bytes([symbol]) * rng.randint(30, 60)
        symbol ^= 1
    return SymbolSequence(cause, 2), SymbolSequence(effect[:n], 2)


def work_bound(segments):
    """The rows README bounds extraction by: per segment of width w >= 2, its later
    segments of width w plus the distinct w-windows of the strictly longer segments."""
    distinct = {
        w: len({v[a : a + w] for v in segments if len(v) > w for a in range(len(v) - w + 1)})
        for w in {len(u) for u in segments}
    }
    widths = [len(u) for u in segments]
    return sum(widths[i + 1 :].count(w) + distinct[w] for i, w in enumerate(widths) if w >= core.MIN_PATTERN_LEN)


@pytest.mark.parametrize("shape, rows, every_offset", (
    # 43 segments of 30-60 symbols from a uniform cause: every window is distinct
    ("adversarial", 11_229, 11_229),
    # 112 segments: most windows repeat an earlier one
    ("ar1", 19_359, 88_425),
))
def test_rows_compared_meet_the_work_bound(shape, rows, every_offset):
    # 2,000 symbols; every_offset counts the rows of every (pair, offset), which a
    # plan that kept the repeated windows would compare
    if shape == "ar1":
        pair = gen_ar1(0.4, 2500, 500, RngStream(1, 0))
        cause, effect = pair.y, pair.x
    else:
        cause, effect = adversarial_pair(2000)
    dictionary = build_flip_dictionary(cause, effect)
    segments = [s.data for s in dictionary.segments]
    lengths = np.array([len(s) for s in segments], dtype=np.int64)
    index = dictionary.index
    planned = sum(len(chunk[0]) for chunk in core._row_plan(index.starts, lengths, index.ids, index.bound))
    assert planned == work_bound(segments) == rows
    widths = lengths.tolist()
    pairs = ((a, b) for i, a in enumerate(widths) for b in widths[i + 1 :] if min(a, b) >= core.MIN_PATTERN_LEN)
    assert sum(abs(a - b) + 1 for a, b in pairs) == every_offset


def window_bound(data, starts, lengths):
    """The windows README bounds the row plan's keying by: for each width w of a segment
    and each strictly longer segment, its first window plus every later window at p that
    holds a change of symbol, a q in [p, p + w) with ``data[q] != data[q - 1]``."""
    changes = [q for q in range(1, len(data)) if data[q] != data[q - 1]]

    def holds_change(p, w):
        return bisect.bisect_left(changes, p) < bisect.bisect_left(changes, p + w)

    total = 0
    for w in set(lengths):
        for a, n in zip(starts, lengths):
            if n > w:
                total += 1 + sum(holds_change(p, w) for p in range(a + 1, a + n - w + 1))
    return total


def test_windows_keyed_meet_the_work_bound():
    # 2,000 sparse binary symbols, zero almost everywhere: the segments are mostly runs
    # of 0, so of the 24,739 windows of the longer segments only 827 open a segment or
    # differ from their left neighbour
    pair = gen_sparse(25, RngStream(2, 0), 2000)
    dictionary = build_flip_dictionary(pair.x, pair.y)
    index, lengths = dictionary.index, [len(s) for s in dictionary.segments]
    with keyed_windows() as content_keys:
        for _ in core._row_plan(index.starts, np.array(lengths, dtype=np.int64), index.ids, index.bound):
            pass
    keyed = sum(len(call.args[2]) for call in content_keys.call_args_list)
    assert keyed == window_bound(index.data, index.starts.tolist(), lengths) == 827
    enumerated = sum(n - w + 1 for w in set(lengths) for n in lengths if n > w)
    assert enumerated == 24_739 and 10 * keyed < enumerated


def candidate_bound(cause, patterns):
    """The candidates README bounds anchored counting by, and the changing patterns:
    for each distinct pattern whose first change of symbol is at offset d, the cause's
    changes p (``cause[p] != cause[p + 1]``) with d <= p <= n - L + d."""
    n = len(cause)
    changes = [p for p in range(n - 1) if cause[p] != cause[p + 1]]
    total = changing = 0
    for pattern in dict.fromkeys(patterns):
        d = next((j for j in range(len(pattern) - 1) if pattern[j] != pattern[j + 1]), None)
        if d is not None:
            changing += 1
            total += sum(d <= p <= n - len(pattern) + d for p in changes)
    return total, changing, len(changes)


def test_anchored_candidates_meet_the_work_bound():
    # a sweep-sparse direction: 46 patterns, 23 of them changing, and 50 changes
    # in 2,000 symbols; a scan would key 77,434 windows, one per position for each
    # of 40 lengths
    cause, effect = sweep_sparse_direction()
    dictionary = build_flip_dictionary(cause, effect)
    lengths, starts = core._pattern_bytes(dictionary).T
    with keyed_windows() as content_keys, anchored() as taken:
        core._occurrences(lengths, starts, dictionary.index)
    assert taken.called
    # the first call keys the changing patterns, the rest their candidates
    patterns_keyed, *candidates = (len(call.args[2]) for call in content_keys.call_args_list)
    checked = sum(candidates)
    patterns = [cause.data[s : s + n] for n, s in zip(lengths.tolist(), starts.tolist())]
    bound, changing, changes = candidate_bound(cause.data, patterns)
    assert (checked, changing, changes) == (bound, patterns_keyed, 50) == (1_124, 23, 50)
    assert checked <= changing * changes
    assert sum(len(cause) - n + 1 for n in set(lengths.tolist())) == 77_434


def genome_pair(n, rate, seed):
    """A uniform 4-ary reference of n symbols and a candidate with a share
    ``rate`` of its symbols changed, as the genomic benchmark builds them."""
    rng = random.Random(seed)
    reference = bytes(rng.randrange(4) for _ in range(n))
    candidate = bytearray(reference)
    for pos in rng.sample(range(n), round(n * rate)):
        candidate[pos] = rng.choice([s for s in range(4) if s != candidate[pos]])
    return SymbolSequence(reference, 4), SymbolSequence(bytes(candidate), 4)


@pytest.mark.parametrize("seed", (1, 2))
def test_genome_scale_scores_equal_with_and_without_the_start_filter(seed):
    # a budget of 8 * n symbols reads the whole cause in one chunk, so no level is filtered
    x, y = genome_pair(30_000, 0.001, seed)
    for cause, effect in ((x, y), (y, x)):
        recorder, calls = start_filter()
        with recorder:
            filtered = score_direction(cause, effect)
        assert any(starts is not None for *_, starts in calls)
        recorder, calls = start_filter()
        with mock.patch.object(core, "_CHUNK", 8 * len(cause)), recorder:
            full = score_direction(cause, effect)
        assert calls == []
        fields = ("lengths", "starts", "n_occurrences", "n_changes", "h_bar")
        assert [getattr(filtered, f) for f in fields] == [getattr(full, f) for f in fields]
        assert filtered.has_evidence


def test_genome_scale_counting_stays_within_a_memory_cap():
    # 4-ary lengths 2..7 take one table, grown to 2**16 intp entries (512 KB)
    # and lengths 8 and 12 binary search. Lengths 2 and 3 open with nearly
    # every 2-block, so they take the full scan (half the positions are
    # starts); lengths 5..12 are counted at their starts, fewer than half the
    # positions. With the id table (4 levels of 30k int32) and the chunk
    # scratch that peaks near 1.45 MB
    rng = random.Random(3)
    n = 30_000
    cause = bytes(rng.randrange(4) for _ in range(n))
    effect = bytes(rng.randrange(4) for _ in range(n))
    patterns = [cause[a : a + length] for length in (2, 3, 5, 7, 8, 12) for a in range(0, n, 1500)]
    patterns = list(dict.fromkeys(patterns))  # the 2- and 3-windows repeat
    table, search = lookups()
    tracemalloc.start()
    try:
        with table as table, search as search, anchored() as taken:
            n_occ, n_change = occurrences(cause, effect, patterns)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert not taken.called
    assert [len(c.args[1]) for c in table.call_args_list] == [4**4, 4**4, 4**8, 4**8]
    assert search.call_count == 2
    assert list(zip(n_occ.tolist(), n_change.tolist())) == responses(patterns, cause, effect)
    assert peak < 2 * 1024 * 1024
    # the flip dictionary of the same pair: 22,439 flips cut 12,858 segments of
    # at most 9 symbols into 503 distinct ones, peaking near 1.1 MiB
    x, y = SymbolSequence(cause, 4), SymbolSequence(effect, 4)
    tracemalloc.start()
    try:
        segments = build_flip_dictionary(x, y).segments
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert [s.symbols for s in segments] == naive_dictionary(x.symbols, y.symbols)
    assert peak < 1.2 * 1024 * 1024
