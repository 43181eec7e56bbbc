"""Naive reference implementations used as independent oracles in tests.

Everything operates on plain tuples of ints via position-by-position scans
and nested loops; deliberately slow and obviously correct. The two
compression baselines take a ``SymbolSequence`` like the functions they check.
The ingest oracles read FASTA one character at a time and align through an
index list, giving plain tuples back.
"""

import math
from pathlib import Path

from dpe.baselines import ComplexityValue
from dpe.errors import FastaParseError, InputError, UnusablePairError
from dpe.seqcore import NUCLEOTIDE_TO_SYMBOL, MaskedSequence


def naive_flips(symbols):
    """1-based positions whose symbol differs from the previous one."""
    return tuple(k for k in range(2, len(symbols) + 1) if symbols[k - 1] != symbols[k - 2])


def naive_count(pattern, symbols):
    n, m = len(symbols), len(pattern)
    return sum(1 for i in range(n - m + 1) if tuple(symbols[i : i + m]) == tuple(pattern))


def naive_dictionary(source, target):
    """Ordered unique segments of the source ending at flips of the target."""
    out = []
    start = 1  # 1-based
    for k in naive_flips(target):
        if k - start + 1 >= 2:
            seg = tuple(source[start - 1 : k])
            if seg not in out:
                out.append(seg)
            start = k + 1
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
