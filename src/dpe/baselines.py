"""Compression-complexity primitives and directional baseline measures.

The directional measures are documented variants (marked "variant" in all
outputs): the joint complexity of the paired sequence is compared against the
single-sequence complexities, with

    penalty(cause -> effect)  = C(joint) - C(cause)        (lower wins)
    efficacy(cause -> effect) = (C(effect) - penalty) / C(effect)  (higher wins)

LZP uses LZ76 phrase counts, ETCP and ETCE use pair-substitution counts. Raw
integer counts enter the formulas; normalized values are reported alongside.
"""

from __future__ import annotations

import heapq
import math
import operator
import sys
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .errors import InputError
from .seqcore import MAX_ALPHABET, Direction, SymbolSequence

BASELINE_METHODS = ("lzp", "etcp", "etce")

_TIE_EPS = 1e-12


@dataclass(frozen=True)
class ComplexityValue:
    """Raw integer complexity plus its length-normalized form."""

    raw: int
    normalized: float


@dataclass(frozen=True)
class BaselineVerdict:
    method: str
    verdict: Direction
    score_xy: float
    score_yx: float
    degenerate: bool = False


def lz76_complexity(s: SymbolSequence) -> ComplexityValue:
    """Phrase count of the exhaustive-history LZ76 parsing.

    Each phrase is the shortest prefix of the remainder that is not a
    substring of everything before its end; a final still-reproducible
    fragment counts as one phrase. Normalized as raw * log2(n) / n.

    The search keeps its pointer between extensions (Kaspar and Schuster
    1987): ``k`` is the leftmost start of ``data[i:j]`` in ``data[:j-1]``, so
    a match of the phrase grown by one symbol starts at ``k`` or later. It is
    extended in O(1) while the next symbols agree and searched for again only
    from ``k + 1`` when they do not.
    """
    if len(s) < 1:
        raise ValueError("LZ76 needs a non-empty sequence")
    data = s.data
    n = len(data)
    phrases = 0
    i = 0
    while i < n:
        j = i + 1
        k = data.find(data[i:j], 0, i)
        while k != -1 and j < n:
            j += 1
            if data[k + j - 1 - i] != data[j - 1]:
                k = data.find(data[i:j], k + 1, j - 1)
        phrases += 1
        if k != -1:  # the rest of the sequence is reproducible: one last phrase
            break
        i = j
    normalized = phrases * math.log2(n) / n if n > 1 else float(phrases)
    return ComplexityValue(phrases, normalized)


# An ETC step that replaces at least 1/_RECOUNT_SHARE of the text recounts
# every pair in one C-level pass; a smaller one patches the counts around each
# replaced occurrence. Both give exact counts. Patching one occurrence costs
# about as much as recounting 8-15 symbols (binary and 4-ary text, 1k-30k
# symbols), which puts the split near 1/12.
_RECOUNT_SHARE = 12

# ETC holds symbol v as code point v and the fresh symbol of step t as
# max + t. A length-n input takes at most n - 1 steps, so it needs
# max + n - 1 <= _LAST_CODE_POINT.
_LAST_CODE_POINT = sys.maxunicode


def _pair_counts(text: str) -> tuple[Counter, list[tuple[int, str]]]:
    """Overlapping counts of adjacent pairs, and a heap of (-count, pair).

    The heap's top is the most frequent pair, ties going to the smallest.
    """
    counts = Counter(map(operator.add, text, text[1:]))
    heap = [(-count, pair) for pair, count in counts.items()]
    heapq.heapify(heap)
    return counts, heap


def _patch_pair_counts(
    counts: Counter, heap: list[tuple[int, str]], text: str, pair: str, fresh: str
) -> None:
    """Update the pair counts of ``text`` to those of ``text.replace(pair, fresh)``.

    Each replaced occurrence ``a b`` with neighbours ``L`` and ``R`` loses the
    pairs ``L a``, ``a b`` and ``b R`` and gains ``L X`` and ``X R``. Where
    two occurrences touch, the pair between them (``b a``) is lost once and
    ``X X`` is gained once. Gained pairs are new, so each is pushed onto the
    heap once with its final count; lost counts leave stale entries that the
    caller skips.
    """
    a, b = pair
    gained = []
    touching = False  # does this occurrence start where the previous one ended?
    i = text.find(pair)
    while i != -1:
        nxt = text.find(pair, i + 2)
        if touching:
            gained.append(fresh + fresh)
        elif i:
            left = text[i - 1]
            counts[left + a] -= 1
            gained.append(left + fresh)
        if i + 2 < len(text):
            right = text[i + 2]
            counts[b + right] -= 1
            touching = nxt == i + 2
            if not touching:
                gained.append(fresh + right)
        i = nxt
    counts[pair] = 0
    counts.update(gained)
    for new_pair in set(gained):
        heapq.heappush(heap, (-counts[new_pair], new_pair))


def etc_complexity(s: SymbolSequence) -> ComplexityValue:
    """Number of pair-substitution iterations until constant or length 1.

    Each iteration counts adjacent ordered pairs at every position, then
    replaces all non-overlapping occurrences (left to right) of the most
    frequent pair with a fresh symbol; frequency ties go to the
    lexicographically smallest pair. Normalized by (len - 1).

    The sequence is held as a string with one code point per symbol, so
    ``str.replace`` performs the substitution. Pair counts are kept up to
    date from step to step (as in Re-Pair, Larsson and Moffat 2000) and the
    most frequent pair comes from a lazy heap; code-point order is symbol
    order, so the tie-break is unchanged.
    """
    if len(s) < 1:
        raise ValueError("ETC needs a non-empty sequence")
    data = s.data
    fresh = max(data) + 1
    if fresh + len(data) - 2 > _LAST_CODE_POINT:
        raise InputError(
            f"ETC supports at most {_LAST_CODE_POINT + 2 - fresh} symbols over "
            f"this alphabet, got {len(data)}"
        )
    text = data.decode("latin-1")  # byte v -> code point v
    counts, heap = _pair_counts(text)
    steps = 0
    while len(text) > 1:
        while True:
            neg_count, pair = heap[0]
            count = counts[pair]
            if count == -neg_count:
                break
            if count:  # the count fell since this entry was pushed
                heapq.heapreplace(heap, (-count, pair))
            else:
                heapq.heappop(heap)
        if count == len(text) - 1 and pair[0] == pair[1]:
            break  # one pair fills every position: the text is constant
        symbol = chr(fresh)
        fresh += 1
        steps += 1
        replaced = text.replace(pair, symbol)
        if (len(text) - len(replaced)) * _RECOUNT_SHARE >= len(text):
            counts, heap = _pair_counts(replaced)
        else:
            _patch_pair_counts(counts, heap, text, pair, symbol)
        text = replaced
    normalized = steps / (len(s) - 1) if len(s) > 1 else 0.0
    return ComplexityValue(steps, normalized)


def joint_sequence(x: SymbolSequence, y: SymbolSequence) -> SymbolSequence:
    """Joint sequence over first-appearance canonical labels.

    Each distinct (x_t, y_t) state gets a fresh symbol in order of first
    appearance, so joint(x, y) and joint(y, x) are the identical sequence and
    directional scores swap exactly under argument exchange. More than 256
    distinct states do not fit one alphabet and are an input error.
    """
    if len(x) != len(y):
        raise InputError("joint sequence needs equal lengths")
    states = np.frombuffer(x.data, np.uint8).astype(np.uint16) * 256
    states += np.frombuffer(y.data, np.uint8)
    _, first, inverse = np.unique(states, return_index=True, return_inverse=True)
    if len(first) > MAX_ALPHABET:
        raise InputError(f"joint sequence has {len(first)} distinct states, at most {MAX_ALPHABET}")
    label = np.empty(len(first), dtype=np.uint8)
    label[np.argsort(first)] = np.arange(len(first))
    return SymbolSequence(label[inverse].tobytes(), max(len(first), 1))


def baseline_direction(method: str, x: SymbolSequence, y: SymbolSequence) -> BaselineVerdict:
    """Directional verdict of one baseline method (documented variant)."""
    if method not in BASELINE_METHODS:
        raise InputError(f"unknown baseline method {method!r}")
    if len(x) != len(y) or len(x) < 2:
        raise InputError("baselines need equal lengths >= 2")
    measure = lz76_complexity if method == "lzp" else etc_complexity
    c_joint = measure(joint_sequence(x, y)).raw
    c_x = measure(x).raw
    c_y = measure(y).raw
    penalty_xy = float(c_joint - c_x)
    penalty_yx = float(c_joint - c_y)
    if method in ("lzp", "etcp"):
        score_xy, score_yx = penalty_xy, penalty_yx
        if abs(score_xy - score_yx) <= _TIE_EPS:
            verdict = Direction.INDEPENDENT
        elif score_xy < score_yx:
            verdict = Direction.X_CAUSES_Y
        else:
            verdict = Direction.Y_CAUSES_X
        return BaselineVerdict(method, verdict, score_xy, score_yx)
    # etce: normalized gain, undefined when an effect complexity is zero
    if c_y == 0 or c_x == 0:
        return BaselineVerdict(method, Direction.INDEPENDENT, 0.0, 0.0, degenerate=True)
    score_xy = (c_y - penalty_xy) / c_y
    score_yx = (c_x - penalty_yx) / c_x
    if abs(score_xy - score_yx) <= _TIE_EPS:
        verdict = Direction.INDEPENDENT
    elif score_xy > score_yx:
        verdict = Direction.X_CAUSES_Y
    else:
        verdict = Direction.Y_CAUSES_X
    return BaselineVerdict(method, verdict, score_xy, score_yx)
