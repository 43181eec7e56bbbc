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
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import InputError
from .seqcore import VERDICT_TOLERANCE, Direction, SymbolSequence

#: Dictionary segments and extracted patterns are never shorter than this.
MIN_PATTERN_LEN = 2

#: Scratch budget of one vectorised step, in compared symbols: an extraction
#: step compares ``_CHUNK // (w + 16)`` rows of w symbols, runs are merged
#: ``_CHUNK // 32`` at a time and counting looks up ``_CHUNK // 8`` windows,
#: in a dense table of at most ``_CHUNK`` entries when the key space fits.
_CHUNK = 1 << 16

LABEL_XY = "X->Y"
LABEL_YX = "Y->X"


@dataclass(frozen=True)
class FlipDictionary:
    """Segments of the source sequence ending at flips of the target."""

    direction: str
    segments: tuple[SymbolSequence, ...]  # deduplicated, first-insertion order


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
    def deterministic(self) -> bool:
        return self.n_change == 0 or self.n_nochange == 0


@dataclass(frozen=True)
class DirectionalScore:
    """All pattern scores for one direction plus their average weighted entropy.

    ``h_bar`` is None when the pattern set is empty (no evidence); such a
    direction compares as +infinity against any finite value.
    """

    direction: str
    pattern_scores: tuple[PatternScore, ...]
    h_bar: float | None

    @property
    def has_evidence(self) -> bool:
        return self.h_bar is not None

    @property
    def effective_h_bar(self) -> float:
        return math.inf if self.h_bar is None else self.h_bar


@dataclass(frozen=True)
class AttributedPattern:
    score: PatternScore
    role: str | None  # "trigger" (r=1), "preserver" (r=0), or None


@dataclass(frozen=True)
class CausalReport:
    score_xy: DirectionalScore
    score_yx: DirectionalScore
    verdict: Direction
    strength: float
    deterministic_patterns: tuple[AttributedPattern, ...]


def find_flip_positions(s: SymbolSequence) -> tuple[int, ...]:
    """1-based positions k >= 2 where the symbol differs from its predecessor."""
    if len(s) < 2:
        raise ValueError("flip scan needs length >= 2")
    arr = np.frombuffer(s.data, dtype=np.uint8)
    return tuple(int(k) for k in np.nonzero(arr[1:] != arr[:-1])[0] + 2)


def _block_ids(arr: np.ndarray, top: int) -> tuple[np.ndarray, np.ndarray]:
    """Exact ids of the blocks ``arr[s : s + 2**k]`` for every ``2**k <= top``.

    ``ids[k, s]`` is below ``bound[k] < 2**31``: the two half-block ids packed
    into one integer while that fits, their dense rank beyond.
    """
    n = len(arr)
    ids = np.zeros((top.bit_length(), n), dtype=np.int32)
    ids[0] = arr
    bound = [int(arr.max()) + 1]
    for k in range(1, len(ids)):
        half = 1 << (k - 1)
        pair = np.multiply(ids[k - 1, : n - 2 * half + 1], bound[-1], dtype=np.int64)
        pair += ids[k - 1, half : n - half + 1]
        if bound[-1] ** 2 < 1 << 31:
            bound.append(bound[-1] ** 2)
        else:
            order = np.argsort(pair, kind="stable")
            ranked = pair[order]
            np.cumsum(ranked[1:] != ranked[:-1], out=ranked[1:])
            ranked[0] = 0
            pair[order] = ranked
            bound.append(int(ranked[-1]) + 1)
        ids[k, : len(pair)] = pair
    return ids, np.array(bound, dtype=np.int64)


def _content_keys(ids: np.ndarray, bound: np.ndarray, starts, lengths) -> np.ndarray:
    """Exact key of each block ``arr[s : s + L]`` among blocks of length L.

    It pairs the ids of the two ``2**k``-blocks, ``2**k <= L < 2**(k+1)``, at its ends."""
    k = np.searchsorted(1 << np.arange(len(ids)), lengths, side="right") - 1
    return ids[k, starts] * bound[k] + ids[k, starts + lengths - (1 << k)]


def _first_by_content(lengths: np.ndarray, keys: np.ndarray, rank: np.ndarray) -> np.ndarray:
    """Index of the first entry, by rank and then position, of each content, in that order."""
    idx = np.lexsort((rank, keys, lengths))
    lengths, keys = lengths[idx], keys[idx]
    head = np.ones(len(idx), dtype=bool)
    head[1:] = (lengths[1:] != lengths[:-1]) | (keys[1:] != keys[:-1])
    first = np.sort(idx[head])
    return first[np.argsort(rank[first], kind="stable")]


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
    tgt = np.frombuffer(target.data, dtype=np.uint8)
    flips = np.flatnonzero(tgt[1:] != tgt[:-1]) + 1  # 0-based index of the changed symbol
    index = np.arange(len(flips))
    run_first = np.maximum.accumulate(np.where(np.diff(flips, prepend=-1) != 1, index, 0))
    stops = flips[(index - run_first) % 2 == 0] + 1
    if len(stops) == 0:
        return FlipDictionary(direction, ())
    lengths = np.diff(stops, prepend=0)
    starts = stops - lengths
    ids, bound = _block_ids(np.frombuffer(source.data, dtype=np.uint8), int(lengths.max()))
    keys = _content_keys(ids, bound, starts, lengths)
    keep = _first_by_content(lengths, keys, np.zeros_like(lengths))
    spans = zip(starts[keep].tolist(), stops[keep].tolist())
    return FlipDictionary(direction, tuple(source.fragment(a, b) for a, b in spans))


def _agreement_runs(data: bytes, lengths: np.ndarray, longest: int):
    """Yield batches of (length, pair, start) rows, one per agreement run.

    For each segment pair i < j (``pair`` = i * count + j) the shorter segment,
    the earlier on a tie, slides over the longer at every full-overlap offset;
    every maximal agreement run of length >= 2 is located by ``start`` in
    ``data``. Rows (pair, offset) are grouped by the shorter length w and
    compared a chunk at a time. A pair's runs come out in extraction order.
    """
    count = len(lengths)
    offsets = np.concatenate(([0], np.cumsum(lengths)))
    by_length = np.argsort(lengths, kind="stable")
    sorted_lengths = lengths[by_length]
    windows = sliding_window_view(np.frombuffer(data + bytes(longest), dtype=np.uint8), longest)
    pending: list[np.ndarray] = []
    found = 0
    group = int(np.searchsorted(sorted_lengths, MIN_PATTERN_LEN))
    while group < count - 1:
        w = int(sorted_lengths[group])
        end = int(np.searchsorted(sorted_lengths, w, side="right"))
        # the rows of each short u in [group, end) are the w-windows of every later v > u
        window_ends = np.concatenate(([0], np.cumsum(sorted_lengths[group + 1 :] - w + 1)))
        row_ends = np.concatenate(([0], np.cumsum(window_ends[-1] - window_ends[: end - group])))
        step = max(1, _CHUNK // (w + 16))
        for first in range(0, int(row_ends[-1]), step):
            row = np.arange(first, min(first + step, int(row_ends[-1])))
            u = np.searchsorted(row_ends, row, side="right") - 1
            win = window_ends[u] + row - row_ends[u]
            v = np.searchsorted(window_ends, win, side="right") - 1
            short, long = by_length[group + u], by_length[group + 1 + v]
            at = offsets[long] + win - window_ends[v]
            agree = np.zeros((len(row), w + 2), dtype=bool)  # padded: every run starts and ends
            agree[:, 1:-1] = windows[offsets[short], :w] == windows[at, :w]
            edges = np.flatnonzero(agree[:, 1:] != agree[:, :-1])  # run starts and ends alternate
            size = edges[1::2] - edges[::2]
            run = size >= MIN_PATTERN_LEN
            hits, begin = np.divmod(edges[::2][run], w + 1)
            pair = np.minimum(short, long)[hits] * count + np.maximum(short, long)[hits]
            pending.append(np.stack((size[run], pair, at[hits] + begin)))
            found += len(hits)
            if found >= _CHUNK // 32:
                yield np.concatenate(pending, axis=1)
                pending, found = [], 0
        group = end
    if pending:
        yield np.concatenate(pending, axis=1)


def _pattern_bytes(segment_data: list[bytes]) -> list[bytes]:
    """Common runs of every segment pair, deduplicated in first-extraction order.

    Each batch of runs is merged into a table of first occurrences by content;
    a stable sort by pair keeps the table in extraction order.
    """
    data = b"".join(segment_data)
    lengths = np.array([len(s) for s in segment_data], dtype=np.int64)
    longest = int(np.sort(lengths)[-2]) if len(lengths) > 1 else 0  # of any run
    if longest < MIN_PATTERN_LEN:
        return []
    ids, bound = _block_ids(np.frombuffer(data, dtype=np.uint8), longest)
    table = np.zeros((4, 0), dtype=np.int64)  # rows: length, key, pair, start
    for size, pair, start in _agreement_runs(data, lengths, longest):
        keyed = np.stack((size, _content_keys(ids, bound, start, size), pair, start))
        table = np.concatenate((table, keyed), axis=1)
        table = table[:, _first_by_content(*table[:3])]
    return [data[s : s + n] for n, s in zip(table[0].tolist(), table[3].tolist())]


def extract_common_subpatterns(p1: SymbolSequence, p2: SymbolSequence) -> tuple[SymbolSequence, ...]:
    """Slide the shorter sequence over the longer one and harvest match runs.

    Positionwise symbol equality plays the role of XNOR for general alphabets;
    every maximal run of at least two consecutive matches contributes the
    covered subsequence. Returns deduplicated fragments in extraction order.
    """
    if len(p1) == 0 or len(p2) == 0:
        raise ValueError("cannot extract patterns from an empty sequence")
    size = max(p1.alphabet_size, p2.alphabet_size)
    return tuple(SymbolSequence.from_bytes(f, size) for f in _pattern_bytes([p1.data, p2.data]))


def build_pattern_set(dictionary: FlipDictionary) -> PatternSet:
    """Union of common subpatterns over all pairs of distinct dictionary segments."""
    data = [seg.data for seg in dictionary.segments]
    size = max((seg.alphabet_size for seg in dictionary.segments), default=1)
    patterns = tuple(
        SymbolSequence.from_bytes(frag, size) for frag in _pattern_bytes(data)
    )
    return PatternSet(dictionary.direction, patterns)


def _table_lookup(keys: np.ndarray, owners: np.ndarray, space: int):
    """Window -> (owner of each hit, hit mask), by one gather from a dense table.

    Of equal keys the first owner wins: it is written last.
    """
    table = np.full(space, -1, dtype=np.int32)
    table[keys[::-1]] = owners[::-1]

    def look(window: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        which = table[window]
        hit = which >= 0
        return which[hit], hit

    return look


def _sorted_lookup(keys: np.ndarray, owners: np.ndarray):
    """Window -> (owner of each hit, hit mask), by binary search of the sorted keys.

    Of equal keys the first owner wins: the sort is stable and the search leftmost.
    """
    order = np.argsort(keys, kind="stable")
    ranked, owners = keys[order], owners[order]

    def look(window: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        at = np.minimum(np.searchsorted(ranked, window), len(ranked) - 1)
        hit = ranked[at] == window
        return owners[at[hit]], hit

    return look


def _occurrences(cause: bytes, effect: bytes, patterns: list[bytes]) -> tuple[np.ndarray, np.ndarray]:
    """(occurrences, occurrences whose effect window flips) of each distinct pattern.

    A pattern is keyed at its first occurrence in the cause, so the cause's
    block ids give exact keys; of equal patterns only the first is credited.
    For each pattern length, the window key of every cause position, a chunk
    at a time, is looked up in a dense table when the length's key space has
    at most ``_CHUNK`` entries, and among the sorted pattern keys otherwise;
    overlapping occurrences all count.
    """
    n = len(cause)
    lengths = np.array([len(p) for p in patterns], dtype=np.int64)
    first_at = np.array([cause.find(p) if p else -1 for p in patterns], dtype=np.int64)
    found = np.flatnonzero(first_at >= 0)
    n_occ, n_change, keys = np.zeros((3, len(patterns)), dtype=np.int64)
    top = int(lengths[found].max(initial=1))
    ids, bound = _block_ids(np.frombuffer(cause, dtype=np.uint8), top)
    keys[found] = _content_keys(ids, bound, first_at[found], lengths[found])
    eff = np.frombuffer(effect, dtype=np.uint8)
    prefix = np.concatenate(([0], np.cumsum(eff[1:] != eff[:-1])))  # flips before each index
    for length in sorted(set(lengths[found].tolist())):
        members = found[lengths[found] == length]
        k = length.bit_length() - 1
        space = int(bound[k]) ** 2  # every window key of this length is below it
        if space <= _CHUNK:
            look = _table_lookup(keys[members], members, space)
        else:
            look = _sorted_lookup(keys[members], members)
        lag = length - (1 << k)  # window key from the blocks at s and s + lag, as in _content_keys
        for first in range(0, n - length + 1, _CHUNK // 8):
            last = min(first + _CHUNK // 8, n - length + 1)
            window = np.multiply(ids[k, first:last], bound[k], dtype=np.int64)
            window += ids[k, first + lag : last + lag]
            which, hit = look(window)
            flips = (prefix[first + length - 1 : last + length - 1] > prefix[first:last])[hit]
            n_occ += np.bincount(which, minlength=len(patterns))
            n_change += np.bincount(which[flips], minlength=len(patterns))
    return n_occ, n_change


def count_occurrences(pattern: SymbolSequence, s: SymbolSequence) -> int:
    """Number of occurrences of ``pattern`` in ``s``, overlapping included."""
    if not 1 <= len(pattern) <= len(s):
        raise ValueError("need 1 <= len(pattern) <= len(s)")
    return int(_occurrences(s.data, s.data, [pattern.data])[0][0])


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
    n_occ, n_change = (int(c[0]) for c in _occurrences(cause.data, effect.data, [pattern.data]))
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


def score_direction(
    cause: SymbolSequence, effect: SymbolSequence, direction: str = LABEL_XY
) -> DirectionalScore:
    """Score every extracted pattern for one direction and average the result."""
    if len(cause) != len(effect):
        raise InputError("cause and effect must have equal length")
    if len(cause) < 2:
        raise InputError("causal scoring needs sequences of length >= 2")
    patterns = build_pattern_set(build_flip_dictionary(cause, effect, direction)).patterns
    if not patterns:
        return DirectionalScore(direction, (), None)

    n = len(cause)
    n_occs, n_changes = _occurrences(cause.data, effect.data, [p.data for p in patterns])
    scores: list[PatternScore] = []
    total = 0.0
    for pattern, n_occ, n_change in zip(patterns, n_occs.tolist(), n_changes.tolist()):
        r_flip = n_change / n_occ
        weight = n_occ / (n - len(pattern) + 1)
        h_b = binary_entropy(r_flip)
        h_w = weight * h_b
        total += h_w
        scores.append(
            PatternScore(
                pattern=pattern,
                n_change=n_change,
                n_nochange=n_occ - n_change,
                r_flip=r_flip,
                weight=weight,
                h_binary=h_b,
                h_weighted=h_w,
            )
        )
    return DirectionalScore(direction, tuple(scores), total / len(scores))


def _rank_patterns(winning: DirectionalScore) -> tuple[AttributedPattern, ...]:
    ranked = sorted(
        winning.pattern_scores,
        key=lambda s: (s.h_weighted, -s.weight, s.pattern.symbols),
    )
    out = []
    for s in ranked:
        role = None
        if s.n_change == 0:
            role = "preserver"
        elif s.n_nochange == 0:
            role = "trigger"
        out.append(AttributedPattern(s, role))
    return tuple(out)


def attribute_patterns(report: CausalReport) -> tuple[AttributedPattern, ...]:
    """Winning-direction patterns ranked by weighted entropy, then weight.

    Patterns with flip ratio exactly 1 are flagged as triggers, ratio exactly
    0 as preservers. An independent verdict yields an empty list.
    """
    if report.verdict == Direction.X_CAUSES_Y:
        return _rank_patterns(report.score_xy)
    if report.verdict == Direction.Y_CAUSES_X:
        return _rank_patterns(report.score_yx)
    return ()


def infer_causal_direction(x: SymbolSequence, y: SymbolSequence) -> CausalReport:
    """Score both directions and declare the lower average entropy causal.

    Ties within VERDICT_TOLERANCE (and two no-evidence directions) are
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
        return CausalReport(score_xy, score_yx, Direction.INDEPENDENT, 0.0, ())
    hxy, hyx = score_xy.effective_h_bar, score_yx.effective_h_bar
    verdict = Direction.lower_wins(hxy, hyx)
    ranked = ()
    if verdict != Direction.INDEPENDENT:
        ranked = _rank_patterns(score_xy if verdict == Direction.X_CAUSES_Y else score_yx)
    return CausalReport(score_xy, score_yx, verdict, abs(hxy - hyx), ranked)


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
        for ap in report.deterministic_patterns:
            flag = f"  [{ap.role}]" if ap.role else ""
            lines.append(
                f"  {ap.score.pattern.text():<16} h_w={_fmt(ap.score.h_weighted)}"
                f" weight={_fmt(ap.score.weight)} r_flip={_fmt(ap.score.r_flip)}{flag}"
            )
    return "\n".join(lines) + "\n"


def pattern_graph_lines(report: CausalReport) -> list[str]:
    """One JSON object per pattern node, both directions, 6-decimal numbers."""
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
                + "}"
            )
    return lines


def export_pattern_graph(report: CausalReport, path: str | Path) -> None:
    """Write the pattern network as JSON Lines; a no-evidence direction emits no nodes."""
    text = "\n".join(pattern_graph_lines(report))
    Path(path).write_text(text + ("\n" if text else ""), encoding="utf-8")
