"""Naive reference implementations used as independent oracles in tests.

Everything operates on plain tuples of ints via position-by-position scans
and nested loops; deliberately slow and obviously correct. The two
compression baselines and the baseline verdict take ``SymbolSequence`` values
like the functions they check.
The ingest oracles read FASTA one character at a time and align through an
index list, giving plain tuples back. The random-stream oracle draws one
number per call with Python integers, as the derivation in ``dpe.rng`` reads.
The sparse oracle runs the family's latent recursion in full and binarizes it.
"""

import heapq
import math
import operator
from collections import Counter
from pathlib import Path

from dpe.baselines import BaselineVerdict, ComplexityValue
from dpe.errors import FastaParseError, InputError, UnusablePairError
from dpe.seqcore import (
    NUCLEOTIDE_TO_SYMBOL,
    Direction,
    MaskedSequence,
    RealSeries,
    SequencePair,
    SymbolSequence,
    binarize_nonzero,
)


def naive_flips(symbols):
    """1-based positions whose symbol differs from the previous one."""
    return tuple(k for k in range(2, len(symbols) + 1) if symbols[k - 1] != symbols[k - 2])


def naive_count(pattern, symbols):
    n, m = len(symbols), len(pattern)
    return sum(1 for i in range(n - m + 1) if tuple(symbols[i : i + m]) == tuple(pattern))


def naive_cuts(target):
    """1-based, inclusive (start, stop) of each segment cut at the flips of the target, before any dedupe."""
    out = []
    start = 1  # 1-based
    for k in naive_flips(target):
        if k - start + 1 >= 2:
            out.append((start, k))
            start = k + 1
    return out


def naive_dictionary(source, target):
    """Ordered unique segments of the source ending at flips of the target."""
    out = []
    for start, stop in naive_cuts(target):
        seg = tuple(source[start - 1 : stop])
        if seg not in out:
            out.append(seg)
    return out


def naive_extract(p1, p2):
    """Maximal agreement runs of length >= 2 over all full-overlap offsets."""
    if len(p1) > len(p2):
        p1, p2 = p2, p1
    found = []
    for d in range(len(p2) - len(p1) + 1):
        run = 0
        for t in range(len(p1)):
            if p1[t] == p2[d + t]:
                run += 1
            else:
                if run >= 2:
                    frag = tuple(p2[d + t - run : d + t])
                    if frag not in found:
                        found.append(frag)
                run = 0
        if run >= 2:
            frag = tuple(p2[d + len(p1) - run : d + len(p1)])
            if frag not in found:
                found.append(frag)
    return found


def naive_pattern_set(segments):
    out = []
    for i, a in enumerate(segments):
        for j, b in enumerate(segments):
            if i == j:
                continue
            for frag in naive_extract(a, b):
                if frag not in out:
                    out.append(frag)
    return out


def naive_response(pattern, cause, effect):
    """(n_change, n_nochange): flips strictly inside each aligned window."""
    m = len(pattern)
    n_change = n_nochange = 0
    for i in range(len(cause) - m + 1):
        if tuple(cause[i : i + m]) != tuple(pattern):
            continue
        window = effect[i : i + m]
        if any(window[j] != window[j + 1] for j in range(m - 1)):
            n_change += 1
        else:
            n_nochange += 1
    return n_change, n_nochange


def naive_pattern_order(segments):
    """Fragments of every segment pair i < j, each kept at its first extraction.

    The shorter segment of a pair (the earlier one on a tie) slides over the
    longer at every full-overlap offset; the maximal agreement runs of length
    >= 2 come out by pair, then offset, then position. Works on bytes and on
    tuples alike.
    """
    out, seen = [], set()
    for i, a in enumerate(segments):
        for b in segments[i + 1 :]:
            short, long = (b, a) if len(a) > len(b) else (a, b)
            for d in range(len(long) - len(short) + 1):
                run = 0
                for t in range(len(short) + 1):
                    if t < len(short) and short[t] == long[d + t]:
                        run += 1
                        continue
                    frag = long[d + t - run : d + t]
                    if run >= 2 and frag not in seen:
                        seen.add(frag)
                        out.append(frag)
                    run = 0
    return out


def find_response(pattern, cause, effect):
    """(occurrences, occurrences whose effect window flips) of one pattern, by bytes.find."""
    n_occ = n_change = 0
    i = cause.find(pattern)
    while i != -1:
        window = effect[i : i + len(pattern)]
        n_occ += 1
        n_change += any(window[k] != window[k + 1] for k in range(len(window) - 1))
        i = cause.find(pattern, i + 1)
    return n_occ, n_change


def naive_lz76(s):
    """LZ76 phrase count, testing each extension against the whole history."""
    if len(s) < 1:
        raise ValueError("LZ76 needs a non-empty sequence")
    data = s.data
    n = len(data)
    phrases = 0
    i = 0
    while i < n:
        j = i + 1
        while j <= n and data[i:j] in data[: j - 1]:
            j += 1
        phrases += 1
        if j > n:
            break
        i = j
    normalized = phrases * math.log2(n) / n if n > 1 else float(phrases)
    return ComplexityValue(phrases, normalized)


def _most_frequent_pair(seq):
    counts = {}
    for a, b in zip(seq, seq[1:]):
        pair = (a, b)
        counts[pair] = counts.get(pair, 0) + 1
    return min(counts, key=lambda p: (-counts[p], p))


def _substitute(seq, pair, fresh):
    out = []
    i = 0
    n = len(seq)
    while i < n:
        if i + 1 < n and seq[i] == pair[0] and seq[i + 1] == pair[1]:
            out.append(fresh)
            i += 2
        else:
            out.append(seq[i])
            i += 1
    return out


def naive_etc(s):
    """ETC step count, recounting and rebuilding the whole list every step."""
    if len(s) < 1:
        raise ValueError("ETC needs a non-empty sequence")
    seq = list(s.symbols)
    fresh = max(seq) + 1
    steps = 0
    while len(seq) > 1 and any(v != seq[0] for v in seq):
        seq = _substitute(seq, _most_frequent_pair(seq), fresh)
        fresh += 1
        steps += 1
    normalized = steps / (len(s) - 1) if len(s) > 1 else 0.0
    return ComplexityValue(steps, normalized)


def naive_pair_counts(text):
    """(Counter of overlapping adjacent pairs, heap of (-count, pair)), one 2-character string per pair."""
    counts = Counter(map(operator.add, text, text[1:]))
    heap = [(-count, pair) for pair, count in counts.items()]
    heapq.heapify(heap)
    return counts, heap


def naive_etc_tail(s):
    """ETC's text when its top pair count first falls to 1, or None if it never does."""
    seq = list(s.symbols)
    fresh = max(seq) + 1
    while len(seq) > 1:
        if max(Counter(zip(seq, seq[1:])).values()) == 1:
            return tuple(seq)
        if all(v == seq[0] for v in seq):
            return None  # constant with a repeated pair: ETC stops here
        seq = _substitute(seq, _most_frequent_pair(seq), fresh)
        fresh += 1
    return None


def naive_joint(xs, ys):
    """(labels, distinct states): each (x_t, y_t) state labelled in order of first appearance."""
    labels = {}
    symbols = []
    for pair in zip(xs, ys):
        code = labels.get(pair)
        if code is None:
            code = len(labels)
            labels[pair] = code
        symbols.append(code)
    return tuple(symbols), len(labels)


def naive_baseline(method, x, y):
    """BaselineVerdict of lzp, etcp or etce from the naive joint, LZ76 and ETC counts."""
    labels, states = naive_joint(x.symbols, y.symbols)
    joint = SymbolSequence(labels, max(states, 1))
    measure = naive_lz76 if method == "lzp" else naive_etc
    c_joint, c_x, c_y = (measure(s).raw for s in (joint, x, y))
    score_xy, score_yx = float(c_joint - c_x), float(c_joint - c_y)  # penalties
    gap = score_xy - score_yx  # lzp, etcp: the lower penalty wins
    if method == "etce":
        if c_x == 0 or c_y == 0:
            return BaselineVerdict(method, Direction.INDEPENDENT, 0.0, 0.0, degenerate=True)
        score_xy, score_yx = (c_y - score_xy) / c_y, (c_x - score_yx) / c_x  # efficacies
        gap = score_yx - score_xy  # the higher efficacy wins
    if abs(gap) <= 1e-12:
        verdict = Direction.INDEPENDENT
    else:
        verdict = Direction.X_CAUSES_Y if gap < 0 else Direction.Y_CAUSES_X
    return BaselineVerdict(method, verdict, score_xy, score_yx)


def naive_load_fasta(path):
    """[(identifier, symbols, mask)] of a FASTA file, mapping one character at a time.

    A character is a base when its ``.upper()`` is A, C, G or T; any other
    keeps its position as symbol 0 and is masked. Raises the errors
    ``load_fasta`` raises.
    """
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise InputError(f"cannot open {path}: {exc}") from exc
    records = []
    identifier = None
    symbols, mask = [], []

    def flush():
        if identifier is None:
            return
        if not symbols:
            raise FastaParseError(f"{path}: record {identifier!r} has no sequence data")
        records.append((identifier, tuple(symbols), tuple(mask)))

    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        if line.startswith(">"):
            flush()
            identifier = line[1:].split()[0] if line[1:].split() else line[1:]
            symbols, mask = [], []
            continue
        if identifier is None:
            raise FastaParseError(f"{path}: line {lineno}: sequence data before any '>' header")
        for ch in line:
            code = NUCLEOTIDE_TO_SYMBOL.get(ch.upper())
            if code is None:
                symbols.append(0)
                mask.append(True)
            else:
                symbols.append(code)
                mask.append(False)
    flush()
    if not records:
        raise FastaParseError(f"{path}: no FASTA records found")
    return records


def naive_align(a, b):
    """(x symbols, y symbols) of ``align_pair`` through a list of kept indices."""
    ma = a if isinstance(a, MaskedSequence) else MaskedSequence(a, (False,) * len(a))
    mb = b if isinstance(b, MaskedSequence) else MaskedSequence(b, (False,) * len(b))
    if len(ma) == 0 or len(mb) == 0:
        raise UnusablePairError("cannot align an empty sequence")
    if ma.seq.alphabet_size != mb.seq.alphabet_size:
        sizes = f"{ma.seq.alphabet_size} and {mb.seq.alphabet_size} symbols"
        raise InputError(f"cannot align sequences over different alphabets ({sizes})")
    n = min(len(ma), len(mb))
    amb_a, amb_b = ma.ambiguous, mb.ambiguous
    sym_a, sym_b = ma.seq.symbols, mb.seq.symbols
    keep = [i for i in range(n) if not (amb_a[i] or amb_b[i])]
    if len(keep) < 2:
        raise UnusablePairError(f"aligned pair has {len(keep)} usable positions, need >= 2")
    return tuple(sym_a[i] for i in keep), tuple(sym_b[i] for i in keep)


_MASK64 = (1 << 64) - 1


def _naive_mix64(z):
    z ^= z >> 30
    z = (z * 0xBF58476D1CE4E5B9) & _MASK64
    z ^= z >> 27
    z = (z * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


class NaiveStream:
    """xorshift64* one word per call: ``state`` and ``spare`` are the stream's whole state."""

    def __init__(self, state):
        self.state = state
        self.spare = None

    def next_u64(self):
        x = self.state
        x ^= x >> 12
        x = (x ^ (x << 25)) & _MASK64
        x ^= x >> 27
        self.state = x
        return (x * 0x2545F4914F6CDD1D) & _MASK64

    def uniform(self):
        return (self.next_u64() >> 11) * 2.0**-53

    def bit(self):
        return self.next_u64() >> 63

    def normal(self):
        if self.spare is not None:
            value, self.spare = self.spare, None
            return value
        u1 = 1.0 - self.uniform()
        u2 = self.uniform()
        radius = math.sqrt(-2.0 * math.log(u1))
        theta = 2.0 * math.pi * u2
        self.spare = radius * math.sin(theta)
        return radius * math.cos(theta)

    def sample_without_replacement(self, n, k):
        pool = list(range(n))
        for i in range(k):
            j = i + int(self.uniform() * (n - i))
            pool[i], pool[j] = pool[j], pool[i]
        return pool[:k]


def naive_stream(seed, stream_index=0):
    """The stream ``RngStream(seed, stream_index)`` should give, from the documented derivation."""
    state = _naive_mix64(_naive_mix64((seed + (stream_index + 1) * 0x9E3779B97F4A7C15) & _MASK64))
    return NaiveStream(state or 0x9E3779B97F4A7C15)


SPARSE_ALPHA = 0.8
SPARSE_BETA = 0.08
SPARSE_GAMMA = 0.75
SPARSE_NOISE_SD = 0.1  # scale of the N(0, 0.1) noise, read as a standard deviation


def naive_sparse(k, rng, n):
    """The sparse family's latent model, run in full and binarized by the nonzero indicator.

    Latent AR recursions run over all t; the first process is observed only on
    a random k-subset of instants, the second only on their immediate
    successors (within range). ``rng`` is an ``RngStream``, left where the
    recursion's draws leave it.
    """
    t1 = set(rng.sample_without_replacement(n, k))  # 0-based instants
    t2 = {t + 1 for t in t1 if t + 1 < n}
    z1_latent = 0.0
    z2_latent = 0.0
    z1_prev_obs = 0.0
    noise = iter((SPARSE_NOISE_SD * rng.normals(2 * n)).tolist())
    z1 = [0.0] * n
    z2 = [0.0] * n
    for t, eps1, eps2 in zip(range(n), noise, noise):
        z1_latent = SPARSE_ALPHA * z1_latent + eps1
        z2_latent = SPARSE_BETA * z2_latent + SPARSE_GAMMA * z1_prev_obs + eps2
        z1[t] = z1_latent if t in t1 else 0.0
        z2[t] = z2_latent if t in t2 else 0.0
        z1_prev_obs = z1[t]
    bx = binarize_nonzero(RealSeries(tuple(z1)))
    by = binarize_nonzero(RealSeries(tuple(z2)))
    return SequencePair(bx, by, Direction.X_CAUSES_Y)
