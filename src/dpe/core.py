"""Causal direction scoring from flip dictionaries and pattern entropy.

The pipeline for one direction (cause -> effect):

1. scan the effect for flips (positions whose symbol differs from the
   previous one) and cut the cause into the segments ending at each flip;
2. slide every pair of distinct segments over each other and harvest the
   maximal runs of positionwise agreement (length >= 2) as candidate
   patterns;
3. for each pattern, count all (overlapping) occurrences in the cause and
   check whether the aligned effect window contains a flip;
4. score each pattern with frequency-weighted binary entropy of its flip
   ratio and average over the pattern set.

The direction with the lower average weighted entropy is declared causal;
flip ratios of exactly 0 or 1 mark deterministic patterns.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .errors import InputError
from .seqcore import Direction, SymbolSequence

#: Dictionary segments and extracted patterns are never shorter than this.
MIN_PATTERN_LEN = 2

#: Scratch budget of one vectorised step, in compared symbols: extraction
#: keys about ``_CHUNK // 8`` windows of the longer segments at a time and
#: compares ``_CHUNK // (w + 16)`` rows, w being the widest row's width; runs
#: are merged ``_CHUNK // 32`` at a time and counting looks up ``_CHUNK // 8``
#: windows, in a dense table of at most ``_CHUNK`` entries when the key space fits,
#: or checks ``_CHUNK // 8`` candidates placed by the cause's changes of symbol.
#: The budget also gates counting's start filter: it runs only on a level with
#: more than ``_CHUNK // 8`` blocks, so a cause of one chunk keeps the full
#: scan, and an id bound of at most ``_CHUNK``, the entries of its mark table.
_CHUNK = 1 << 16

LABEL_XY = "X->Y"
LABEL_YX = "Y->X"


class _DirectionIndex(NamedTuple):
    """The block ids (``_block_ids``) of ``data``, the cause, in which segment i
    starts at ``starts[i]``, and the effect's flips, ``changed[i]`` being
    ``effect[i + 1] != effect[i]`` (None for segments packed without a cause)."""

    ids: np.ndarray
    bound: np.ndarray
    changed: np.ndarray | None
    data: bytes
    starts: np.ndarray


class FlipDictionary:
    """Segments of the source sequence ending at flips of the target.

    ``segments`` holds them deduplicated, in first-insertion order; ``repr``,
    ``==`` and ``hash`` read it and ``direction`` alone, as a frozen dataclass
    of the two would. ``index`` covers every block of the source up to the
    longest segment, so it keys every pattern extracted from the segments, and
    it places them in the source: a built dictionary keeps segment i as the
    row (``index.starts[i]``, its length), and builds ``segments`` on first
    read, as scoring reads only the rows. ``index`` is None when the target
    has no flip that cuts and when the dictionary is given its segments.
    """

    def __init__(self, direction: str, segments: tuple[SymbolSequence, ...]):
        self.direction, self.index, self._segments = direction, None, segments

    @classmethod
    def _of_rows(cls, direction: str, source: SymbolSequence, lengths: np.ndarray, index: _DirectionIndex):
        built = cls(direction, None)
        built.index, built._lengths, built._alphabet_size = index, lengths, source.alphabet_size
        return built

    @property
    def segments(self) -> tuple[SymbolSequence, ...]:
        if self._segments is None:
            self._segments = tuple(SymbolSequence._of_valid(d, self._alphabet_size) for d in self._segment_data())
        return self._segments

    def _segment_data(self) -> list[bytes]:
        """Each segment's symbols, cut from the source by its row when there is an index."""
        if self.index is None:
            return [seg.data for seg in self.segments]
        data = self.index.data
        return [data[a : a + n] for a, n in zip(self.index.starts.tolist(), self._lengths.tolist())]

    def __repr__(self) -> str:
        return f"{type(self).__qualname__}(direction={self.direction!r}, segments={self.segments!r})"

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.direction, self.segments) == (other.direction, other.segments)

    def __hash__(self) -> int:
        return hash((self.direction, self.segments))


@dataclass(frozen=True)
class PatternSet:
    """Common subpatterns shared by at least two dictionary segments."""

    direction: str
    patterns: tuple[SymbolSequence, ...]  # deduplicated, first-extraction order


@dataclass(frozen=True)
class PatternScore:
    pattern: SymbolSequence
    n_change: int
    n_nochange: int
    r_flip: float
    weight: float
    h_binary: float
    h_weighted: float

    @property
    def n_occurrences(self) -> int:
        return self.n_change + self.n_nochange

    @property
    def role(self) -> str | None:
        """"trigger" at a flip ratio of exactly 1, "preserver" at exactly 0, else None."""
        if self.n_change == 0:
            return "preserver"
        return "trigger" if self.n_nochange == 0 else None


@dataclass(frozen=True)
class DirectionalScore:
    """All pattern scores for one direction plus their average weighted entropy.

    Pattern i is the ``lengths[i]`` symbols at ``starts[i]`` in ``cause``; it
    occurs ``n_occurrences[i]`` times, ``n_changes[i]`` of them with a flip in
    the effect window. ``pattern_scores`` is built from these counts on first
    read. ``h_bar`` is None when the pattern set is empty (no evidence); such a
    direction compares as +infinity against any finite value.
    """

    direction: str
    h_bar: float | None
    cause: SymbolSequence = field(repr=False)
    lengths: tuple[int, ...] = ()
    starts: tuple[int, ...] = ()
    n_occurrences: tuple[int, ...] = ()
    n_changes: tuple[int, ...] = ()

    @cached_property
    def pattern_scores(self) -> tuple[PatternScore, ...]:
        counts = (self.lengths, self.n_occurrences, self.n_changes)
        rows = zip(self.lengths, self.starts, *counts[1:], _entropies(len(self.cause), *counts))
        return tuple(PatternScore(self.cause.fragment(s, s + n), c, o - c, *row) for n, s, o, c, row in rows)

    @property
    def has_evidence(self) -> bool:
        return self.h_bar is not None

    @property
    def effective_h_bar(self) -> float:
        return math.inf if self.h_bar is None else self.h_bar


@dataclass(frozen=True)
class CausalReport:
    """Both directional scores and the verdict."""

    score_xy: DirectionalScore
    score_yx: DirectionalScore
    verdict: Direction
    strength: float

    @cached_property
    def deterministic_patterns(self) -> tuple[PatternScore, ...]:
        """Winning-direction patterns by weighted entropy, then weight; none when independent."""
        if self.verdict == Direction.INDEPENDENT:
            return ()
        winning = self.score_xy if self.verdict == Direction.X_CAUSES_Y else self.score_yx
        return tuple(sorted(winning.pattern_scores, key=lambda s: (s.h_weighted, -s.weight, s.pattern.data)))


def _block_ids(arr: np.ndarray, top: int) -> tuple[np.ndarray, np.ndarray]:
    """Exact ids of the blocks ``arr[s : s + 2**k]`` for every ``2**k <= top``.

    ``ids[k, s]`` is below ``bound[k] < 2**31``: the two half-block ids packed
    into one integer while that fits, their dense rank beyond.
    """
    n = len(arr)
    ids = np.zeros((top.bit_length(), n), dtype=np.int32)
    ids[0] = arr
    bound = [int(np.maximum.reduce(arr)) + 1]
    for k in range(1, len(ids)):
        half = 1 << (k - 1)
        m = n - 2 * half + 1  # blocks of this level
        if bound[-1] ** 2 < 1 << 31:  # packed in place, no int64 scratch
            np.multiply(ids[k - 1, :m], bound[-1], out=ids[k, :m])
            ids[k, :m] += ids[k - 1, half : half + m]
            bound.append(bound[-1] ** 2)
            continue
        pair = np.multiply(ids[k - 1, :m], bound[-1], dtype=np.int64)
        pair += ids[k - 1, half : half + m]
        order = pair.argsort(kind="stable")
        ranked = pair[order]
        (ranked[1:] != ranked[:-1]).cumsum(out=ranked[1:])
        ranked[0] = 0
        pair[order] = ranked
        bound.append(int(ranked[-1]) + 1)
        ids[k, :m] = pair
    return ids, np.array(bound, dtype=np.int64)


def _changes(seq: bytes) -> np.ndarray:
    """Whether each symbol of ``seq`` after the first differs from the one before."""
    arr = np.frombuffer(seq, dtype=np.uint8)
    return arr[1:] != arr[:-1]


def _content_keys(ids: np.ndarray, bound: np.ndarray, starts, lengths) -> np.ndarray:
    """Exact key of each block ``arr[s : s + L]`` among blocks of length L.

    It pairs the ids of the two ``2**k``-blocks, ``2**k <= L < 2**(k+1)``, at its ends:
    k is L's binary exponent less one, and both ids are read in the flat table."""
    k = np.subtract(np.frexp(lengths)[1], 1, dtype=np.int64)
    at = k * ids.shape[1] + starts
    key = bound[k]
    key *= ids.take(at)
    at += lengths
    at -= np.left_shift(1, k, out=k)
    key += ids.take(at)
    return key


def _first_by_content(lengths: np.ndarray, keys: np.ndarray, rank: np.ndarray | None = None) -> np.ndarray:
    """Index of the first entry, by rank and then position, of each content, in that order.

    The kernels' one content dedupe: it keeps the flip dictionary's first
    segments (``build_flip_dictionary``), each width's first windows in
    extraction (``_first_windows``), both by position alone, and the first
    runs of each merge (``_pattern_bytes``), ranked by pair. (length, key,
    rank, position) are packed into one int64 when their bit widths, taken
    from the maxima, add up to at most 63: one plain sort then orders the
    entries and one more orders the firsts. Wider inputs lexsort.
    """
    n = len(lengths)
    index_bits = max(n - 1, 0).bit_length()
    low = index_bits + (0 if rank is None else int(np.maximum.reduce(rank, initial=0)).bit_length())
    key_bits = int(np.maximum.reduce(keys, initial=0)).bit_length()  # low holds rank and position
    if int(np.maximum.reduce(lengths, initial=0)).bit_length() + key_bits + low > 63:
        idx = np.lexsort((keys, lengths) if rank is None else (rank, keys, lengths))
        lengths, keys = lengths[idx], keys[idx]
        head = np.empty(len(idx), dtype=bool)
        head[:1] = True
        head[1:] = (lengths[1:] != lengths[:-1]) | (keys[1:] != keys[:-1])
        first = idx[head]
        first.sort()
        return first if rank is None else first[rank[first].argsort(kind="stable")]
    packed = np.left_shift(lengths, key_bits + low, dtype=np.int64)
    packed |= keys << low
    if rank is not None:
        packed |= rank << index_bits
    packed |= np.arange(n)
    packed.sort()
    content = packed >> low
    head = np.empty(n, dtype=bool)
    head[:1] = True
    np.not_equal(content[1:], content[:-1], out=head[1:])
    first = packed[head] & ((1 << low) - 1)
    first.sort()
    return first & ((1 << index_bits) - 1)


def build_flip_dictionary(
    source: SymbolSequence, target: SymbolSequence, direction: str = LABEL_XY
) -> FlipDictionary:
    """Collect deduplicated source segments ending at each flip of the target.

    A flip whose segment would have length 1 is skipped without advancing the
    segment start, so segments have length >= 2 and cover disjoint ranges:
    within each run of consecutive flips, those at even offsets cut.
    """
    if len(source) != len(target):
        raise ValueError("source and target must have equal length")
    if len(source) < 2:
        raise ValueError("dictionary construction needs length >= 2")
    changed = _changes(target.data)
    # replacing left to right without overlap clears the flips at odd places of each run
    stops = np.frombuffer(changed.tobytes().replace(b"\1\1", b"\1\0"), dtype=bool).nonzero()[0]
    stops += 2  # flag i marks symbol i + 1, which ends its segment
    if len(stops) == 0:
        return FlipDictionary(direction, ())
    starts = np.concatenate(([0], stops[:-1]))  # each segment starts where the one before stops
    lengths = np.subtract(stops, starts, out=stops)  # the stops are not read again
    ids, bound = _block_ids(np.frombuffer(source.data, dtype=np.uint8), int(np.maximum.reduce(lengths)))
    keep = _first_by_content(lengths, _content_keys(ids, bound, starts, lengths))
    index = _DirectionIndex(ids, bound, changed, source.data, starts[keep])  # the starts still ascend
    return FlipDictionary._of_rows(direction, source, lengths[keep], index)


def _ranges(firsts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """The ranges ``[first, first + count)``, concatenated."""
    return (firsts - (counts.cumsum() - counts)).repeat(counts) + np.arange(np.add.reduce(counts))


def _first_windows(ids, bound, starts, lengths, width, seg, changes):
    """(start, width, segment) of the first window in data of each distinct content of each width.

    The windows are those of width ``width[i]`` in segment ``seg[i]``, which
    starts at ``starts[seg[i]]`` in data; the pairs are ordered by width and
    then segment, and segments by start, so the windows come in (width,
    position) order, and so do the firsts. Given ``changes`` (not None), the data's
    change prefix (``changes[i]`` counts the q in [1, i) with ``data[q] != data[q - 1]``),
    a window at p past its segment's start with no such q in [p, p + w) is not
    keyed: it lies in one run with ``data[p - 1]``, so it repeats its left neighbour.
    """
    spread = lengths[seg] - width + 1
    start, width, seg = _ranges(starts[seg], spread), width.repeat(spread), seg.repeat(spread)
    if changes is not None:
        fresh = changes.take(start + width) != changes.take(start)
        fresh[spread.cumsum() - spread] = True  # a segment's first window has no left neighbour
        fresh = fresh.nonzero()[0]  # then gathers: three boolean masks took 15% longer on sweep-ar1
        start, width, seg = start.take(fresh), width.take(fresh), seg.take(fresh)
    kept = _first_by_content(width, _content_keys(ids, bound, start, width))
    return start[kept], width[kept], seg[kept]


def _runs(windows: np.ndarray, short: np.ndarray, long: np.ndarray, w: np.ndarray):
    """(row, begin, size) of each maximal run of length >= 2 where the first
    ``w[r]`` symbols of ``windows[short[r]]`` and ``windows[long[r]]`` agree.

    ``w`` is ascending: the last row is the widest, and ``windows`` has a
    column more than it. The rows lie end to end in one buffer with every
    cell at or past the row's own width cleared, so a run of cells that agree
    with their right neighbour is exactly an agreement run of length >= 2
    less its last cell, and one 1-D scan finds each one whole.
    """
    width = int(w[-1]) + 1  # a cleared column past the widest row
    flat = np.empty(1 + len(w) * width, dtype=bool)
    flat[0] = False  # every run starts and ends
    agree = flat[1:].reshape(len(w), width)
    np.equal(windows[short, :width], windows[long, :width], out=agree)
    cut = ((w[1:] != w[:-1]).nonzero()[0] + 1).tolist()  # w ascends, so its equal widths come together
    for lo, hi in zip([0, *cut], [*cut, len(w)]):
        agree[lo:hi, w[lo] :] = False  # a slice per width: a broadcast mask took twice as long
    both = flat[1:] & flat[:-1]  # both[i]: cells i - 1 and i of the rows agree
    edges = (both[1:] != both[:-1]).nonzero()[0]  # run starts and ends alternate
    hits, begin = np.divmod(edges[::2], width)
    return hits, begin, edges[1::2] - edges[::2] + 1


def _row_plan(starts: np.ndarray, lengths: np.ndarray, ids, bound):
    """Yield, a chunk at a time, (member, member start, partner start, partner,
    width) of each row that extraction compares, in extraction order.

    For each segment pair i < j the shorter segment, the earlier on a tie, is
    the row's member; it slides over the longer, its partner, at every
    full-overlap offset. Segment i starts at ``starts[i]`` in the data. A
    member u of width w is compared with each later segment of width w, and
    with each distinct w-window of the strictly longer segments only at its
    first position in the data: the starts ascend with the index, so for u
    the data orders the windows by (pair, offset), and a window that repeats
    an earlier one adds no run whose content was not met before. So a member
    has as many rows as it has later members of its width plus distinct
    windows of that width in the longer segments. Widths go in ascending
    order and their windows are keyed about ``_CHUNK // 8`` at a time; a
    chunk holds at most ``_CHUNK // (w + 16)`` rows, w its widest row's width.
    """
    count = len(lengths)
    by_length = lengths.argsort(kind="stable")
    sorted_lengths = lengths[by_length]
    low = int(sorted_lengths.searchsorted(MIN_PATTERN_LEN))
    previous = np.concatenate(([0], sorted_lengths))  # each length's predecessor, 0 before the first
    group_starts = (sorted_lengths[low:] != previous[low:-1]).nonzero()[0] + low  # each width's first
    widths = sorted_lengths[group_starts]
    group_ends = np.concatenate((group_starts[1:], [count]))
    longer = count - group_ends  # segments strictly longer than each width
    tails = np.concatenate((sorted_lengths[::-1].cumsum()[::-1], [0]))
    window_ends = (tails[group_ends] - longer * (widths - 1)).cumsum()
    changes = None  # the prefix costs a pass over the data, so it pays only with more windows than symbols
    if len(widths) and window_ends[-1] > ids.shape[1]:
        changes = np.zeros(ids.shape[1] + 1, dtype=np.int32)
        (ids[0, 1:] != ids[0, :-1]).cumsum(out=changes[2:])
    ga = 0
    while ga < len(widths):
        before = int(window_ends[ga - 1]) if ga else 0
        gb = max(ga + 1, int(window_ends.searchsorted(before + _CHUNK // 8, side="right")))
        # each width in [ga, gb) with each longer segment, by width and then index
        group = np.arange(ga, gb).repeat(longer[ga:gb])
        pairs = group * count + by_length[_ranges(group_ends[ga:gb], longer[ga:gb])]
        pairs.sort()
        width, seg = widths[pairs // count], pairs % count
        start, width, seg = _first_windows(ids, bound, starts, lengths, width, seg, changes)
        group = widths.searchsorted(width) - ga
        # each width's partners are its members, then its distinct windows;
        # a member faces the partners after its own place
        n_members = group_ends[ga:gb] - group_starts[ga:gb]
        n_windows = np.bincount(group, minlength=gb - ga)
        members = by_length[group_starts[ga] : group_ends[gb - 1]]
        member_group = np.arange(gb - ga).repeat(n_members)
        own = np.arange(len(members)) + (n_windows.cumsum() - n_windows)[member_group]
        place = np.arange(len(start)) + n_members.cumsum()[group]
        partner_start, partner = np.empty((2, len(own) + len(place)), dtype=np.int64)
        partner_start[own], partner_start[place] = starts[members], start
        partner[own], partner[place] = members, seg
        row_ends = np.concatenate(([0], ((n_members + n_windows).cumsum()[member_group] - own - 1).cumsum()))
        member_width = lengths[members]
        room = np.maximum(1, _CHUNK // (member_width + 16))  # rows of each member's width per chunk
        first, total = 0, int(row_ends[-1])
        while first < total:
            # rows come by width: size the chunk by its first row, then by its last and widest
            last = min(total, first + int(room[row_ends.searchsorted(first, side="right") - 1]))
            last = min(last, first + int(room[row_ends.searchsorted(last - 1, side="right") - 1]))
            row = np.arange(first, last)
            t = row_ends.searchsorted(row, side="right") - 1
            at = own[t] + 1 + row - row_ends[t]
            yield members[t], partner_start[own[t]], partner_start[at], partner[at], member_width[t]
            first = last
        ga = gb


def _agreement_runs(data: bytes, starts: np.ndarray, lengths: np.ndarray, ids, bound):
    """Yield batches of (length, pair, start) rows, one per agreement run.

    Each chunk of ``_row_plan`` is compared by ``_runs``; a run's pair is
    ``min * count + max`` of its row's member and partner, and ``start``
    places it in the partner, in ``data``, where segment i starts at
    ``starts[i]``. Batches hold about ``_CHUNK // 32`` runs, and a pair's
    runs come out in extraction order.
    """
    count = len(lengths)
    longest = int(np.maximum.reduce(lengths))  # a column past the widest row, for _runs
    buf = np.frombuffer(data + bytes(longest), dtype=np.uint8)
    windows = np.lib.stride_tricks.as_strided(buf, (len(data), longest + 1), (1, 1), writeable=False)
    pending, found = [], 0
    for member, member_start, partner_start, partner, w in _row_plan(starts, lengths, ids, bound):
        hits, begin, size = _runs(windows, member_start, partner_start, w)
        member, partner = member[hits], partner[hits]
        pair = np.minimum(member, partner) * count + np.maximum(member, partner)
        pending.append(np.array((size, pair, partner_start[hits] + begin)))
        found += len(hits)
        if found >= _CHUNK // 32:
            yield np.concatenate(pending, axis=1)
            pending, found = [], 0
    if pending:
        yield np.concatenate(pending, axis=1)


def _pattern_bytes(segment_data: list[bytes], index: _DirectionIndex | None = None) -> np.ndarray:
    """(length, start) of each distinct common run of the segment pairs, one
    row per content in first-extraction order.

    The runs are read in ``index.data``, the cause, at the segments'
    ``index.starts``, and only the lengths of ``segment_data`` are read; with
    no index, in the packed ``b"".join(segment_data)``, as for
    ``extract_common_subpatterns``, a dictionary given its segments and a
    one-argument call. ``start`` places a run in that data. Each batch of runs is merged, by its
    contents' keys among the data's blocks of their length (``_content_keys``),
    into a table of first occurrences; a stable sort by pair keeps the table
    in extraction order.
    """
    lengths = np.array([len(s) for s in segment_data], dtype=np.int64)
    ordered = lengths.copy()
    ordered.sort()
    longest = int(ordered[-2]) if len(ordered) > 1 else 0  # of any run
    table = np.zeros((4, 0), dtype=np.int64)  # rows: length, key, pair, start
    if longest >= MIN_PATTERN_LEN:
        if index is None:
            data = b"".join(segment_data)
            ids, bound = _block_ids(np.frombuffer(data, dtype=np.uint8), longest)
            index = _DirectionIndex(ids, bound, None, data, lengths.cumsum() - lengths)
        ids, bound, _, data, starts = index
        for size, pair, start in _agreement_runs(data, starts, lengths, ids, bound):
            keyed = np.array((size, _content_keys(ids, bound, start, size), pair, start))
            table = np.concatenate((table, keyed), axis=1)
            table = table[:, _first_by_content(*table[:3])]
    return table[[0, 3]].T


def extract_common_subpatterns(p1: SymbolSequence, p2: SymbolSequence) -> tuple[SymbolSequence, ...]:
    """Slide the shorter sequence over the longer one and harvest match runs.

    Positionwise symbol equality plays the role of XNOR for general alphabets;
    every maximal run of at least two consecutive matches contributes the
    covered subsequence. Returns deduplicated fragments in extraction order.
    """
    if len(p1) == 0 or len(p2) == 0:
        raise ValueError("cannot extract patterns from an empty sequence")
    return build_pattern_set(FlipDictionary(LABEL_XY, (p1, p2))).patterns


def build_pattern_set(dictionary: FlipDictionary) -> PatternSet:
    """Union of common subpatterns over all pairs of distinct dictionary segments."""
    data = dictionary._segment_data()
    source = b"".join(data) if dictionary.index is None else dictionary.index.data
    size = max((seg.alphabet_size for seg in dictionary.segments), default=1)
    rows = _pattern_bytes(data, dictionary.index).tolist()
    patterns = tuple(SymbolSequence._of_valid(source[s : s + n], size) for n, s in rows)
    return PatternSet(dictionary.direction, patterns)


def _table_lookup(keys: np.ndarray, table: np.ndarray) -> None:
    """Write the bin of each window key into ``table``, a zeroed dense intp
    table with an entry for every window key.

    A window equal to ``keys[i]`` takes bin ``2 * i + 2``, any other window
    the miss bin 0. The caller adds 1 to the bin of a window whose effect
    window flips, and zeroes ``keys`` in the table again once the lookup is done.
    """
    table[keys] = np.arange(2, 2 * len(keys) + 2, 2)


def _sorted_lookup(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(ranked, bins): the keys sorted, and the bin ``2 * i + 2`` of each, i its index in ``keys``.

    A window found at ``ranked[j]`` by a binary search takes bin ``bins[j]``,
    plus 1 when its effect window flips.
    """
    order = keys.argsort(kind="stable")
    return keys[order], 2 * order + 2


def _level_starts(level: np.ndarray, left: np.ndarray, bound: int) -> np.ndarray | None:
    """The positions s, ascending, whose block ``level[s]`` is one of the ids
    ``left``, all of them below ``bound``; None when half of the positions or
    more qualify.

    The ids are marked in a bool table of ``bound`` entries, and one gather,
    skipped when every id is marked, reads the mark of every block.
    """
    mark = np.zeros(bound, dtype=bool)
    mark[left] = True
    if np.logical_and.reduce(mark):  # every position qualifies
        return None
    starts = mark.take(level).nonzero()[0]
    # bounds a level whose left blocks cover most positions: at start shares of
    # 0.74 / 0.86 / 0.98 of a 30k 4-ary cause's level 2, counting took 1.00 / 1.29 /
    # 1.05 ms with it against 1.09 / 1.73 / 1.44 ms without; at 0.50 the starts won,
    # 0.81 against 1.00 ms, crossing near 0.6-0.7 (2-core VM, numpy 2.4.6)
    return None if 2 * len(starts) >= len(level) else starts


def _run_windows(cuts: np.ndarray, arr: np.ndarray, symbols: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """For each (a, L) of ``symbols`` and ``lengths``, the sum of max(0, r - L + 1)
    over the pieces r of ``arr`` whose symbol is a, ``arr`` being cut before
    ``i + 1`` at each of the ascending positions ``cuts``.

    The pieces are sorted once by (symbol, size); a query sums the sizes of the
    pieces of a that are at least L long, by suffix sums, and takes L - 1 off
    each of them.
    """
    n = len(arr)
    ends = np.concatenate((cuts + 1, [n]))
    begins = np.concatenate(([0], ends[:-1]))
    word = np.multiply(arr.take(begins), n + 1, dtype=np.int64)
    word += ends - begins
    word.sort()
    tails = np.concatenate(((word % (n + 1))[::-1].cumsum()[::-1], [0]))  # sizes from each piece on
    symbols = np.multiply(symbols, n + 1, dtype=np.int64)
    lo, hi = word.searchsorted(symbols + lengths), word.searchsorted(symbols + (n + 1))
    return tails[lo] - tails[hi] - (lengths - 1) * (hi - lo)


def _anchors_pay(patterns: int, changes: int, windows: int) -> bool:
    """Whether counting from the cause's changes beats the scan: its candidates,
    at most ``patterns * changes``, are fewer than the ``windows`` a scan reads."""
    # a factor of 1 on the candidates, against 2 and 4, from 120 sweep-size ar1
    # directions, where the ratio straddles it: counting took 0.332 ms per
    # direction at 1, 0.342 at 2, 0.377 at 4 (scan only), and the anchored side
    # wins below a ratio of about 0.7; sweep-sparse directions lie below 0.07 and
    # genome-length 4-ary ones, changing at 3/4 of their symbols, far above 1
    # (2-core VM, Python 3.11.7, numpy 2.4.6)
    return patterns * changes < windows


def _anchored_occurrences(lengths, at, flags, prefix, index: _DirectionIndex):
    """``_occurrences`` read from the cause's changes of symbol, ``flags[q]``
    being ``cause[q + 1] != cause[q]`` and ``prefix[i]`` the effect's flips
    before i.

    A pattern whose first change is at offset d (``cause[s + d] != cause[s + d + 1]``,
    s = ``at[i]``) has exactly one change at s' + d in each occurrence s', so
    its candidates are the changes less d that leave room for it; they are
    checked ``_CHUNK // 8`` at a time against its key, and each one found is
    binned by whether its effect window flips. A pattern with no change is a
    run aᴸ, counted in closed form (``_run_windows``): its occurrences over the
    runs of the cause, its steady ones over those runs cut at every effect
    flip as well (compressed matching on the run-length form, Apostolico,
    Landau & Skiena 1999).
    """
    ids, bound = index.ids, index.bound
    n = ids.shape[1]
    n_occ, n_change = np.zeros((2, len(lengths)), dtype=np.int64)
    changes = flags.nonzero()[0]
    anchor = np.concatenate((changes, [n])).take(changes.searchsorted(at))  # first change from s on
    moves = anchor < at + (lengths - 1)
    still = ~moves
    # the changes p with d <= p <= n - L + d place a whole pattern at p - d
    offset, width = anchor[moves] - at[moves], lengths[moves]
    key = _content_keys(ids, bound, at[moves], width)
    lo = changes.searchsorted(offset)
    counts = changes.searchsorted(offset + (n - width), side="right") - lo
    ends = counts.cumsum()
    lo -= ends - counts  # candidate t of pattern j reads changes[t + lo[j]]
    total = int(ends[-1]) if len(ends) else 0
    bins = np.zeros(2 * len(width), dtype=np.intp)  # (steady, flipped) per changing pattern
    for begin in range(0, total, _CHUNK // 8):
        t = np.arange(begin, min(begin + _CHUNK // 8, total))
        j = ends.searchsorted(t, side="right")
        s, size = changes.take(t + lo.take(j)) - offset.take(j), width.take(j)
        hit = (_content_keys(ids, bound, s, size) == key.take(j)).nonzero()[0]
        s, size = s.take(hit), size.take(hit)
        bins += np.bincount(2 * j.take(hit) + (prefix.take(s + size - 1) > prefix.take(s)), minlength=len(bins))
    steady, flips = bins.reshape(-1, 2).T
    n_occ[moves], n_change[moves] = steady + flips, flips
    if np.logical_or.reduce(still):
        symbols, width = ids[0].take(at[still]), lengths[still]
        n_occ[still] = _run_windows(changes, ids[0], symbols, width)
        n_change[still] = n_occ[still] - _run_windows((flags | index.changed).nonzero()[0], ids[0], symbols, width)
    return n_occ, n_change


def _occurrences(lengths, at, index: _DirectionIndex) -> tuple[np.ndarray, np.ndarray]:
    """(occurrences, occurrences whose effect window flips) of each pattern.

    Pattern i is the ``lengths[i]`` symbols at ``at[i]`` in the cause. There is
    at least one pattern, no two share a content, as both callers guarantee
    (extraction's rows, ``_response``'s one pattern), and ``index`` reaches the
    longest. A cause with few changes of symbol is counted from its changes
    (``_anchored_occurrences``) when the patterns times the changes, a bound
    on its candidates, are fewer than the windows a scan reads, one per
    position for each distinct length (``_anchors_pay``). Otherwise the
    cause is scanned.
    The patterns are grouped by length with one stable sort, so the lengths of
    a level k (``2**k <= L < 2**(k+1)``) come together. A window can match
    only where its left ``2**k``-block is the left block of a pattern of its
    level, so when the level's blocks fill more than one chunk and its id
    bound fits ``_CHUNK``, its lengths are counted only at those starts
    (``_level_starts``), unless half of the positions are starts; otherwise
    at every cause position. One read serves both, a chunk of positions or
    of starts at a time. Each window key is looked up in a dense table when
    the length's key space has at most ``_CHUNK`` entries, and among the
    sorted pattern keys otherwise. The table maps every window to the bin of
    its pattern and of whether its effect window flips; the search keeps
    only the windows it finds and tests just those for a flip. Either way
    one bincount per chunk counts every overlapping occurrence, in one
    (steady, flipped) pair of bins per pattern, and the counts of every
    length are written back at once. The lengths share one table, replaced
    by a larger one only when a level's key space needs more entries, and
    each resets only the keys it wrote.
    """
    ids, bound, changed = index.ids, index.bound, index.changed
    n = ids.shape[1]
    # flips before each index, compared only with itself: int32 gives the bins
    # of intp for fewer than 2**31 flips, and its cumsum of 30k flags took 90
    # against 210 us (2-core VM, numpy 2.4.6)
    prefix = np.zeros(n, dtype=np.int32)
    changed.cumsum(out=prefix[1:])
    by_length = lengths.argsort(kind="stable")
    sorted_lengths = lengths[by_length]
    cut = ((sorted_lengths[1:] != sorted_lengths[:-1]).nonzero()[0] + 1).tolist()
    flags = _changes(index.data)
    windows = (n + 1) * (len(cut) + 1) - sum(sorted_lengths[[0, *cut]].tolist())  # n - L + 1 per distinct L
    # int32 counts: the cast to numpy's default int64 took twice as long, 12 against 6 us at 30k
    if _anchors_pay(len(lengths), int(np.add.reduce(flags, dtype=np.int32)), windows):
        return _anchored_occurrences(lengths, at, flags, prefix, index)
    keys = _content_keys(ids, bound, at, lengths)  # each pattern's among the blocks of its length
    # shared because zeroing a fresh table of up to _CHUNK entries for every
    # length costs more than the lookups: it took a sweep-size ar1 pair from
    # 7.6 to 10.2 ms (2-core VM, Python 3.11.7, numpy 2.4.6)
    table = np.zeros(0, dtype=np.intp)  # bincount's own bin type
    counted = []  # each length's bins past the miss, in by_length order
    k_starts = -1  # the level whose starts are kept, freed before the next
    for begin, end in zip([0, *cut], [*cut, len(lengths)]):
        members = by_length[begin:end]
        length = int(lengths[members[0]])
        k = length.bit_length() - 1
        level, lag = ids[k], length - (1 << k)  # window key from the blocks at s and s + lag
        if k != k_starts:
            k_starts, starts = k, None
            m = n - (1 << k) + 1  # blocks of this level
            if m > _CHUNK // 8 and bound[k] <= _CHUNK:
                lo, hi = sorted_lengths.searchsorted((1 << k, 2 << k))
                starts = _level_starts(level[:m], keys[by_length[lo:hi]] // bound[k], int(bound[k]))
        member_keys = keys[members]
        space = int(bound[k]) ** 2  # every window key of this length is below it
        dense = space <= _CHUNK
        if dense:
            if len(table) < space:
                table = np.zeros(space, dtype=np.intp)
            _table_lookup(member_keys, table)
        else:
            ranked, found = _sorted_lookup(member_keys)
        counts = np.zeros(2 * len(members) + 2, dtype=np.intp)  # a miss, then (steady, flipped) bins
        total = n - length + 1 if starts is None else int(starts.searchsorted(n - length, side="right"))
        right, ends = level[lag:], prefix[length - 1 :]  # by window start: its right block, flips before its end
        for first in range(0, total, _CHUNK // 8):
            last = min(first + _CHUNK // 8, total)
            # a slice reads views; the starts gather from the offset views, with no s + lag temporaries
            pos = slice(first, last) if starts is None else starts[first:last]
            window = np.multiply(level[pos], bound[k], dtype=np.int64)
            window += right[pos]
            head, tail = prefix[pos], ends[pos]
            if dense:
                bins = table[window]
                bins += tail > head
            else:
                near = np.minimum(ranked.searchsorted(window), len(ranked) - 1)
                hit = (ranked[near] == window).nonzero()[0]
                bins = found[near[hit]]
                bins += tail[hit] > head[hit]
            counts += np.bincount(bins, minlength=len(counts))
        if dense:
            table[member_keys] = 0
        counted.append(counts[2:])
    steady, flips = np.concatenate(counted).reshape(-1, 2).T
    n_occ, n_change = np.zeros((2, len(lengths)), dtype=np.int64)
    n_occ[by_length], n_change[by_length] = steady + flips, flips
    return n_occ, n_change


def _response(pattern: bytes, cause: bytes, effect: bytes) -> tuple[int, ...]:
    """(occurrences, occurrences whose effect window flips) of ``pattern`` in ``cause``."""
    at, length = np.array([cause.find(pattern)]), np.array([len(pattern)])
    if at[0] < 0:
        return 0, 0
    ids, bound = _block_ids(np.frombuffer(cause, dtype=np.uint8), len(pattern))
    index = _DirectionIndex(ids, bound, _changes(effect), cause, at)
    return tuple(int(c[0]) for c in _occurrences(length, at, index))


def count_occurrences(pattern: SymbolSequence, s: SymbolSequence) -> int:
    """Number of occurrences of ``pattern`` in ``s``, overlapping included."""
    if not 1 <= len(pattern) <= len(s):
        raise ValueError("need 1 <= len(pattern) <= len(s)")
    return _response(pattern.data, s.data, s.data)[0]


def response_determinism(
    pattern: SymbolSequence, cause: SymbolSequence, effect: SymbolSequence
) -> tuple[int, int, float]:
    """Count pattern occurrences whose aligned effect window contains a flip.

    A window of length L starting at i changes iff two adjacent effect symbols
    inside [i, i+L-1] differ; the boundary pair just before the window is not
    consulted. Returns (n_change, n_nochange, r_flip).
    """
    if len(cause) != len(effect):
        raise ValueError("cause and effect must have equal length")
    n_occ = n_change = 0
    if 1 <= len(pattern) <= len(cause):
        n_occ, n_change = _response(pattern.data, cause.data, effect.data)
    if not n_occ:
        raise ValueError(f"pattern {pattern.text()!r} does not occur in the cause sequence")
    return n_change, n_occ - n_change, n_change / n_occ


def binary_entropy(r: float) -> float:
    """Binary Shannon entropy in bits; exactly 0 at the deterministic limits."""
    if not 0.0 <= r <= 1.0:
        raise ValueError(f"entropy ratio must lie in [0, 1], got {r}")
    if r == 0.0 or r == 1.0:
        return 0.0
    return -(r * math.log2(r) + (1.0 - r) * math.log2(1.0 - r))


def _entropies(n: int, lengths, n_occs, n_changes):
    """(r_flip, weight, h_binary, h_weighted) of each pattern of a cause of ``n`` symbols."""
    for length, n_occ, n_change in zip(lengths, n_occs, n_changes):
        r_flip = n_change / n_occ
        weight = n_occ / (n - length + 1)
        h_b = binary_entropy(r_flip)
        yield r_flip, weight, h_b, weight * h_b


def score_direction(
    cause: SymbolSequence, effect: SymbolSequence, direction: str = LABEL_XY
) -> DirectionalScore:
    """Score every extracted pattern for one direction and average the result."""
    if len(cause) != len(effect):
        raise InputError("cause and effect must have equal length")
    if len(cause) < 2:
        raise InputError("causal scoring needs sequences of length >= 2")
    dictionary = build_flip_dictionary(cause, effect, direction)
    rows = _pattern_bytes(dictionary._segment_data(), dictionary.index)
    if not len(rows):
        return DirectionalScore(direction, None, cause)
    lengths, starts = rows.T
    # (lengths, starts, n_occurrences, n_changes), as tuples so that the score hashes
    counts = [tuple(a.tolist()) for a in (lengths, starts, *_occurrences(lengths, starts, dictionary.index))]
    total = 0.0  # summed left to right, as the pattern scores come
    for *_, h_w in _entropies(len(cause), counts[0], *counts[2:]):
        total += h_w
    return DirectionalScore(direction, total / len(rows), cause, *counts)


def infer_causal_direction(x: SymbolSequence, y: SymbolSequence) -> CausalReport:
    """Score both directions and declare the lower average entropy causal.

    Ties within `seqcore.VERDICT_TOLERANCE` (and two no-evidence directions) are
    declared independent. When exactly one direction has evidence it wins and
    the strength is infinite.
    """
    if len(x) != len(y):
        raise InputError("sequences must have equal length")
    if x.alphabet_size != y.alphabet_size:
        raise InputError("sequences must share one alphabet")
    score_xy = score_direction(x, y, LABEL_XY)
    score_yx = score_direction(y, x, LABEL_YX)
    if not score_xy.has_evidence and not score_yx.has_evidence:
        return CausalReport(score_xy, score_yx, Direction.INDEPENDENT, 0.0)
    hxy, hyx = score_xy.effective_h_bar, score_yx.effective_h_bar
    return CausalReport(score_xy, score_yx, Direction.lower_wins(hxy, hyx), abs(hxy - hyx))


def _fmt(value: float) -> str:
    return f"{value:.6f}"


def _direction_table(score: DirectionalScore) -> list[str]:
    lines = []
    if not score.has_evidence:
        lines.append(f"direction {score.direction}: no patterns (no evidence)")
        return lines
    lines.append(f"direction {score.direction} ({len(score.pattern_scores)} patterns)")
    header = f"{'Pattern':<16}{'Change':>8}{'NoChange':>10}{'Ratio':>10}{'Weight':>10}{'H_b':>10}{'H_w':>10}"
    lines.append(header)
    for s in score.pattern_scores:
        lines.append(
            f"{s.pattern.text():<16}{s.n_change:>8}{s.n_nochange:>10}"
            f"{s.r_flip:>10.6f}{s.weight:>10.6f}{s.h_binary:>10.6f}{s.h_weighted:>10.6f}"
        )
    lines.append(f"average weighted entropy: {_fmt(score.h_bar)} bits")
    return lines


def report_text(report: CausalReport) -> str:
    """Human-readable report: verdict, strength, both directional tables."""
    hxy = "no-evidence" if not report.score_xy.has_evidence else _fmt(report.score_xy.h_bar)
    hyx = "no-evidence" if not report.score_yx.has_evidence else _fmt(report.score_yx.h_bar)
    lines = [
        f"verdict: {report.verdict.value}",
        f"strength_bits: {_fmt(report.strength)}",
        f"h_bar_x_to_y: {hxy}",
        f"h_bar_y_to_x: {hyx}",
        "",
    ]
    lines.extend(_direction_table(report.score_xy))
    lines.append("")
    lines.extend(_direction_table(report.score_yx))
    if report.deterministic_patterns:
        lines.append("")
        lines.append("ranked patterns (winning direction):")
        for s in report.deterministic_patterns:
            flag = f"  [{s.role}]" if s.role else ""
            lines.append(
                f"  {s.pattern.text():<16} h_w={_fmt(s.h_weighted)}"
                f" weight={_fmt(s.weight)} r_flip={_fmt(s.r_flip)}{flag}"
            )
    return "\n".join(lines) + "\n"


def pattern_graph_text(report: CausalReport) -> str:
    """The pattern network as JSON Lines: one object per pattern node, both
    directions, 6-decimal numbers; a no-evidence direction emits no nodes."""
    lines = []
    for score in (report.score_xy, report.score_yx):
        for s in score.pattern_scores:
            lines.append(
                "{"
                + f'"pattern": {json.dumps(s.pattern.text())}, '
                + f'"direction": {json.dumps(score.direction)}, '
                + f'"r_flip": {s.r_flip:.6f}, '
                + f'"weight": {s.weight:.6f}, '
                + f'"h_weighted": {s.h_weighted:.6f}'
                + "}\n"
            )
    return "".join(lines)
