"""Compression-complexity primitives and directional baseline measures.

The directional measures are documented variants (marked "variant" in all
outputs): the joint complexity of the paired sequence is compared against the
single-sequence complexities, with

    penalty(cause -> effect)  = C(joint) - C(cause)        (lower wins)
    efficacy(cause -> effect) = (C(effect) - penalty) / C(effect)  (higher wins)

LZP uses LZ76 phrase counts, ETCP and ETCE use pair-substitution counts. Raw
integer counts enter the formulas; normalized values are returned in
``ComplexityValue.normalized``.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import InputError
from .seqcore import MAX_ALPHABET, Direction, SymbolSequence

BASELINE_METHODS = ("lzp", "etcp", "etce")


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


# ETC holds symbol v as code point v and the fresh symbol of step t as
# max + t. A length-n input takes at most n - 1 steps, so it needs
# max + n - 1 <= _LAST_CODE_POINT.
_LAST_CODE_POINT = sys.maxunicode


def _top_pair(text: str, fresh: int) -> tuple[int, str]:
    """The most frequent overlapping pair of adjacent code points, all below
    ``fresh``, with its count.

    Each pair becomes the integer ``left * fresh + right``, below 2**41, whose
    order is code-point order; ``argmax`` takes the first maximum, so ties go
    to the smallest pair. While ``fresh <= 256`` the text is latin-1 bytes and
    one ``np.bincount`` counts the pairs, with no sort; after, it is UTF-32,
    with ``surrogatepass`` as fresh symbols pass U+D800-U+DFFF on long inputs,
    and one sort counts them.
    """
    if fresh <= 256:  # latin-1 encoded 1,500 symbols in 2.6 us, UTF-32 in 3.6
        codes = np.frombuffer(text.encode("latin-1"), dtype=np.uint8).astype(np.intp)
        pairs, counts = None, np.bincount(codes[:-1] * fresh + codes[1:])  # the bin is the pair
    else:
        codes = np.frombuffer(text.encode("utf-32-le", "surrogatepass"), dtype="<u4").astype(np.int64)
        pairs, counts = np.unique(codes[:-1] * fresh + codes[1:], return_counts=True)
    top = int(counts.argmax())
    pair = top if pairs is None else int(pairs[top])
    return int(counts[top]), chr(pair // fresh) + chr(pair % fresh)


def etc_complexity(s: SymbolSequence) -> ComplexityValue:
    """Number of pair-substitution iterations until constant or length 1.

    Each iteration counts adjacent ordered pairs at every position, then
    replaces all non-overlapping occurrences (left to right) of the most
    frequent pair with a fresh symbol; frequency ties go to the
    lexicographically smallest pair. Normalized by (len - 1).

    The sequence is held as a string with one code point per symbol, so
    ``str.replace`` performs the substitution, and every step recounts the
    pairs with ``_top_pair``, which counts latin-1 bytes while every code
    point fits one and UTF-32 after. Code-point order is symbol order, so
    ties go to the smallest pair of symbols.

    Once the most frequent pair occurs only once and the text is not
    constant, the remaining step count is known: ``len(text) - 1``. Every
    pair then occurs once, so a step replaces one occurrence with a fresh
    symbol that occurs once. The only pairs it creates hold that symbol, so
    they also occur once and the top count stays 1. Each step thus shortens
    the text by exactly one symbol, and a text holding a symbol that occurs
    once is never constant again, so the loop stops at length 1.
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
    steps = 0
    while len(text) > 1:
        count, pair = _top_pair(text, fresh)
        if count == len(text) - 1 and pair[0] == pair[1]:
            break  # one pair fills every position: the text is constant
        if count == 1:  # every pair is unique from here on (see above)
            steps += len(text) - 1
            break
        text = text.replace(pair, chr(fresh))
        fresh += 1
        steps += 1
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


def _verdict(method: str, c_joint: int, c_x: int, c_y: int) -> BaselineVerdict:
    """The lzp/etcp/etce rule applied to C(joint), C(x) and C(y)."""
    penalty_xy = float(c_joint - c_x)
    penalty_yx = float(c_joint - c_y)
    if method in ("lzp", "etcp"):
        verdict = Direction.lower_wins(penalty_xy, penalty_yx)
        return BaselineVerdict(method, verdict, penalty_xy, penalty_yx)
    # etce: normalized gain, undefined when an effect complexity is zero
    if c_y == 0 or c_x == 0:
        return BaselineVerdict(method, Direction.INDEPENDENT, 0.0, 0.0, degenerate=True)
    score_xy = (c_y - penalty_xy) / c_y
    score_yx = (c_x - penalty_yx) / c_x
    verdict = Direction.lower_wins(-score_xy, -score_yx)  # the higher efficacy wins
    return BaselineVerdict(method, verdict, score_xy, score_yx)


def baseline_verdicts(
    methods: tuple[str, ...], x: SymbolSequence, y: SymbolSequence
) -> dict[str, BaselineVerdict]:
    """Verdicts of several baseline methods on one pair, keyed in the given order.

    The pair is validated and its joint sequence built once, and each
    measure's C(joint), C(x) and C(y) are computed once, however many of the
    methods use them (etcp and etce share the ETC counts).
    """
    for method in methods:
        if method not in BASELINE_METHODS:
            raise InputError(f"unknown baseline method {method!r}")
    if len(x) != len(y) or len(x) < 2:
        raise InputError("baselines need equal lengths >= 2")
    joint = joint_sequence(x, y)
    counts = {}  # measure -> (C(joint), C(x), C(y))
    verdicts = {}
    for method in methods:
        measure = lz76_complexity if method == "lzp" else etc_complexity
        if measure not in counts:
            counts[measure] = tuple(measure(s).raw for s in (joint, x, y))
        verdicts[method] = _verdict(method, *counts[measure])
    return verdicts
