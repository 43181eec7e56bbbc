"""Naive reference implementations used as independent oracles in tests.

Everything operates on plain tuples of ints via position-by-position scans
and nested loops; deliberately slow and obviously correct.
"""


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
