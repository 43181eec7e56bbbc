"""Spans around the calls each layer receives, and per-layer metrics from them.

The tracer replaces module attributes of the program (``dpe.bench``,
``dpe.core``, ``dpe.baselines``, ``dpe.seqcore``) with wrappers that record a
span (name, start, end, parent, round) and restores them afterwards. Spans are
kept in memory and written out when the run ends. Each span is named after
the layer whose *self time* it carries: ``core.counting`` wraps
``score_direction``, whose time minus its dictionary and extraction children
is the occurrence counting, and ``core.verdict`` wraps
``infer_causal_direction``, whose time minus both ``score_direction`` spans is
the verdict.

Counts that need work of their own (segments cut, pair-ops, fragments
harvested, peak allocation) are computed after the round's clock stops, from
the arguments and results the wrappers kept, so they cost no span time.
"""

from __future__ import annotations

import math
import statistics
import time
import tracemalloc
import warnings
from collections import defaultdict

#: Pair-ops n1*(n2-n1+1) at or below this are the plain-Python extraction side.
SMALL_PAIR_OPS = 192

#: Extraction calls re-run under tracemalloc per run; tracemalloc is slow.
ALLOC_SAMPLE_CALLS = 8

_MB = 1024 * 1024

# metric name -> (span name, what, count key, unit), each the median over
# rounds: "self" is self ms per item, "count" a sum per item, "max" the largest
# value in the round, "ratio" divides two of the round's sums and "share" is
# self ms over the round's dpe inference (core.verdict span) ms
PER_LAYER = {
    "synth.self_ms": ("synth", "self", None, "ms"),
    "synth.degenerate_series": ("synth", "count", "degenerate_series", "count"),
    "seqcore.load_fasta.self_ms": ("seqcore.load_fasta", "self", None, "ms"),
    "seqcore.load_fasta.symbols": ("seqcore.load_fasta", "count", "symbols", "count"),
    "seqcore.align_pair.self_ms": ("seqcore.align_pair", "self", None, "ms"),
    "seqcore.align_pair.masked_dropped": ("seqcore.align_pair", "count", "masked_dropped", "count"),
    "seqcore.align_pair.unusable": ("seqcore.align_pair", "count", "unusable", "count"),
    "core.flip_dictionary.self_ms": ("core.flip_dictionary", "self", None, "ms"),
    "core.flip_dictionary.segments_cut": ("core.flip_dictionary", "count", "segments_cut", "count"),
    "core.flip_dictionary.segments_distinct": (
        "core.flip_dictionary", "count", "segments_distinct", "count"),
    "core.flip_dictionary.distinct_ratio": (
        "core.flip_dictionary", "ratio", ("segments_distinct", "segments_cut"), "ratio"),
    "core.extraction.self_ms": ("core.extraction", "self", None, "ms"),
    "core.extraction.dpe_share": ("core.extraction", "share", None, "ratio"),
    "core.extraction.segment_pairs": ("core.extraction", "count", "segment_pairs", "count"),
    "core.extraction.pair_ops_small": ("core.extraction", "count", "pair_ops_small", "count"),
    "core.extraction.pair_ops_vector": ("core.extraction", "count", "pair_ops_vector", "count"),
    "core.extraction.patterns": ("core.extraction", "count", "patterns", "count"),
    "core.extraction.fragments_harvested": (
        "core.extraction", "count", "fragments_harvested", "count"),
    "core.extraction.distinct_ratio": (
        "core.extraction", "ratio", ("patterns", "fragments_harvested"), "ratio"),
    "core.extraction.peak_alloc_mb": ("core.extraction", "max", "peak_alloc_mb", "MB"),
    "core.counting.self_ms": ("core.counting", "self", None, "ms"),
    "core.counting.occurrences": ("core.counting", "count", "occurrences", "count"),
    "core.counting.bytes_scanned": ("core.counting", "count", "bytes_scanned", "bytes"),
    "core.verdict.self_ms": ("core.verdict", "self", None, "ms"),
    "core.verdict.deterministic_patterns": (
        "core.verdict", "count", "deterministic_patterns", "count"),
    "baselines.joint.self_ms": ("baselines.joint", "self", None, "ms"),
    "baselines.joint.alphabet": ("baselines.joint", "max", "alphabet", "count"),
    "baselines.lz76.self_ms": ("baselines.lz76", "self", None, "ms"),
    "baselines.lz76.calls": ("baselines.lz76", "count", "calls", "count"),
    "baselines.lz76.phrases": ("baselines.lz76", "count", "phrases", "count"),
    "baselines.etc.self_ms": ("baselines.etc", "self", None, "ms"),
    "baselines.etc.calls": ("baselines.etc", "count", "calls", "count"),
    "baselines.etc.steps": ("baselines.etc", "count", "steps", "count"),
    "baselines.etce.degenerate": ("baselines.direction", "count", "etce_degenerate", "count"),
    "bench.overhead_ms": ("bench", "self", None, "ms"),
    "trace.overhead_ms": (None, "overhead", None, "ms"),
}

#: Layers whose self time makes up dpe inference (the core.verdict span).
DPE_LAYERS = ("core.flip_dictionary", "core.extraction", "core.counting", "core.verdict")


class Span:
    __slots__ = ("name", "start", "end", "parent", "round", "counts")

    def __init__(self, name, start, parent, round_id):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.round = round_id
        self.counts = {}

    def as_json(self):
        return {
            "name": self.name, "start": self.start, "end": self.end,
            "parent": self.parent, "round": self.round, "counts": self.counts,
        }


class _SpanContext:
    __slots__ = ("tracer", "name", "index")

    def __init__(self, tracer, name):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        self.index = self.tracer._open(self.name)
        return self.index

    def __exit__(self, *exc):
        self.tracer._close(self.index)
        return False


def segments_cut(target: bytes) -> int:
    """Segments the flip dictionary cuts before deduplication.

    A flip closes a segment only when the segment would reach length 2; the
    pending start does not move otherwise.
    """
    cut, start, prev = 0, 0, target[0]
    for k in range(1, len(target)):
        cur = target[k]
        if cur != prev and k + 1 - start >= 2:
            cut += 1
            start = k + 1
        prev = cur
    return cut


def pair_ops(lengths: list[int]) -> tuple[int, int, int]:
    """(segment pairs, small-side pair-ops, vector-side pair-ops) from lengths."""
    hist = defaultdict(int)
    for n in lengths:
        hist[n] += 1
    sizes = sorted(hist)
    pairs = small = vector = 0
    for i, a in enumerate(sizes):
        for b in sizes[i:]:
            count = hist[a] * (hist[a] - 1) // 2 if a == b else hist[a] * hist[b]
            ops = a * (b - a + 1)
            pairs += count
            if ops <= SMALL_PAIR_OPS:
                small += count * ops
            else:
                vector += count * ops
    return pairs, small, vector


class Tracer:
    """In-memory span recorder that hooks the program's layer entry points."""

    def __init__(self, mods):
        self.mods = mods
        self.spans: list[Span] = []
        self.round = None
        self.round_items: dict = {}
        self.overhead_ms: list[float] = []
        self.unhooked: list[str] = []
        self.count_s = 0.0
        self._stack: list[int] = []
        self._deferred: list = []
        self._saved: list = []
        self._alloc_calls = 0
        self._originals = {}

    # -- spans ---------------------------------------------------------------

    def span(self, name):
        return _SpanContext(self, name)

    def _open(self, name):
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, time.perf_counter(), parent, self.round))
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def _close(self, index):
        self.spans[index].end = time.perf_counter()
        self._stack.pop()

    def begin_round(self, round_id, items):
        self.round = round_id
        self.round_items[round_id] = items

    # -- hooks ---------------------------------------------------------------

    def _wrap(self, original, name, count):
        tracer = self
        unusable = self.mods.errors.UnusablePairError

        def traced(*args, **kwargs):
            index = tracer._open(name)
            try:
                result = original(*args, **kwargs)
            except unusable:
                tracer.spans[index].counts["unusable"] = 1
                raise
            finally:
                tracer._close(index)
            if count is not None:
                tracer._deferred.append((index, count, args, result))
            return result

        return traced

    def _degenerate_counting(self, generate):
        tracer = self
        degenerate = self.mods.errors.DegenerateSeriesWarning

        def counted(*args, **kwargs):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always", degenerate)
                pair = generate(*args, **kwargs)
            n = 0
            for w in caught:
                if issubclass(w.category, degenerate):
                    n += 1
                else:
                    warnings.warn_explicit(w.message, w.category, w.filename, w.lineno)
            tracer.spans[tracer._stack[-1]].counts["degenerate_series"] = n
            return pair

        return counted

    def _hooks(self):
        m = self.mods
        return [
            ((m.bench,), "generate_trial", "synth", None),
            ((m.bench,), "align_pair", "seqcore.align_pair", _count_align),
            ((m.seqcore,), "load_fasta", "seqcore.load_fasta", _count_fasta),
            ((m.bench, m.core), "infer_causal_direction", "core.verdict", _count_verdict),
            ((m.core,), "score_direction", "core.counting", _count_scores),
            ((m.core,), "build_flip_dictionary", "core.flip_dictionary", _count_dictionary),
            # score_direction extracts through this private helper, not build_pattern_set
            ((m.core,), "_pattern_bytes", "core.extraction", self._count_extraction),
            ((m.bench,), "baseline_direction", "baselines.direction", _count_baseline),
            ((m.baselines,), "joint_sequence", "baselines.joint", _count_joint),
            ((m.baselines,), "lz76_complexity", "baselines.lz76", _count_lz76),
            ((m.baselines,), "etc_complexity", "baselines.etc", _count_etc),
        ]

    def install(self):
        self.unhooked = []
        for modules, attr, name, count in self._hooks():
            original = getattr(modules[0], attr, None)
            if original is None:
                self.unhooked.append(f"{modules[0].__name__}.{attr}")
                continue
            self._originals[name] = original
            target = original
            if name == "synth":
                target = self._degenerate_counting(original)
            wrapper = self._wrap(target, name, count)
            for module in modules:
                self._saved.append((module, attr, getattr(module, attr)))
                setattr(module, attr, wrapper)

    def uninstall(self):
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def end_round(self, plain_s=None, traced_s=None):
        """Record tracing overhead, if timed both ways, and run the deferred counts."""
        if plain_s is not None:
            items = max(1, self.round_items[self.round])
            self.overhead_ms.append((traced_s - plain_s) * 1e3 / items)
        t0 = time.perf_counter()
        for index, count, args, result in self._deferred:
            self.spans[index].counts.update(count(args, result))
        self._deferred.clear()
        self.count_s += time.perf_counter() - t0
        self.round = None

    def _count_extraction(self, args, result):
        segment_data = args[0]
        pairs, small, vector = pair_ops([len(s) for s in segment_data])
        counts = {
            "segment_pairs": pairs,
            "pair_ops_small": small,
            "pair_ops_vector": vector,
            "patterns": len(result),
        }
        fragments = getattr(self.mods.core, "_common_run_fragments", None)
        if fragments is not None:
            counts["fragments_harvested"] = sum(
                len(fragments(segment_data[i], segment_data[j]))
                for i in range(len(segment_data))
                for j in range(i + 1, len(segment_data))
            )
        if self._alloc_calls < ALLOC_SAMPLE_CALLS:
            self._alloc_calls += 1
            tracemalloc.start()
            try:
                self._originals["core.extraction"](segment_data)
                counts["peak_alloc_mb"] = tracemalloc.get_traced_memory()[1] / _MB
            finally:
                tracemalloc.stop()
        return counts

    # -- aggregation ---------------------------------------------------------

    def round_tables(self, rounds):
        """Per round: self ms, total ms and summed counts for every span name."""
        child = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent is not None:
                child[span.parent] += span.end - span.start
        tables = {r: {"self": defaultdict(float), "total": defaultdict(float),
                      "counts": defaultdict(lambda: defaultdict(float)),
                      "max": defaultdict(lambda: defaultdict(float))} for r in rounds}
        for i, span in enumerate(self.spans):
            table = tables.get(span.round)
            if table is None:
                continue
            duration = span.end - span.start
            table["self"][span.name] += (duration - child[i]) * 1e3
            table["total"][span.name] += duration * 1e3
            for key, value in span.counts.items():
                table["counts"][span.name][key] += value
                slot = table["max"][span.name]
                slot[key] = max(slot[key], value)
        return tables

    def layer_metrics(self):
        """(metrics, absent names): every PER_LAYER metric, median per item."""
        rounds = [r for r in self.round_items if isinstance(r, int)]
        tables = self.round_tables(rounds)
        seen = {s.name for s in self.spans if s.round in tables}
        metrics, absent = {}, []
        for metric, (span, what, key, unit) in PER_LAYER.items():
            values = []
            for r in rounds:
                t, items = tables[r], max(1, self.round_items[r])
                if what == "self":
                    values.append(t["self"][span] / items)
                elif what == "count":
                    values.append(t["counts"][span].get(key, 0.0) / items)
                elif what == "max" and key in t["max"][span]:
                    values.append(t["max"][span][key])
                elif what == "ratio" and t["counts"][span][key[1]]:
                    values.append(t["counts"][span][key[0]] / t["counts"][span][key[1]])
                elif what == "share" and t["total"]["core.verdict"]:
                    values.append(t["self"][span] / t["total"]["core.verdict"])
            if what == "overhead":
                values = self.overhead_ms
            elif span not in seen:
                absent.append(metric)
                values = []
            metrics[metric] = {"value": statistics.median(values) if values else 0, "unit": unit}
        return metrics, absent

    def layer_table(self, rounds):
        """Median per item of every span name's self ms, and its share of dpe time."""
        tables = self.round_tables(rounds)
        names = sorted({s.name for s in self.spans if s.round in tables})
        out = {}
        for name in names:
            per_item = [tables[r]["self"][name] / max(1, self.round_items[r]) for r in rounds]
            share = [tables[r]["self"][name] / tables[r]["total"]["core.verdict"]
                     for r in rounds if tables[r]["total"]["core.verdict"]]
            out[name] = {
                "self_ms_median": statistics.median(per_item),
                "dpe_share_median": statistics.median(share) if name in DPE_LAYERS and share else None,
            }
        return out


def loglog_slope(xs, ys):
    """Least-squares slope of log(y) on log(x); None with fewer than two points."""
    pts = [(math.log(x), math.log(y)) for x, y in zip(xs, ys) if x > 0 and y > 0]
    if len(pts) < 2:
        return None
    mx = sum(p[0] for p in pts) / len(pts)
    my = sum(p[1] for p in pts) / len(pts)
    sxx = sum((p[0] - mx) ** 2 for p in pts)
    return sum((p[0] - mx) * (p[1] - my) for p in pts) / sxx if sxx else None


def _count_align(args, result):
    return {"masked_dropped": min(len(args[0]), len(args[1])) - len(result.x)}


def _count_fasta(args, result):
    return {"symbols": sum(len(r.masked) for r in result)}


def _count_verdict(args, result):
    return {"deterministic_patterns": sum(ap.role is not None for ap in result.deterministic_patterns)}


def _count_scores(args, result):
    return {
        "occurrences": sum(s.n_occurrences for s in result.pattern_scores),
        "bytes_scanned": len(result.pattern_scores) * len(args[0]),
    }


def _count_dictionary(args, result):
    return {"segments_cut": segments_cut(args[1].data), "segments_distinct": len(result.segments)}


def _count_baseline(args, result):
    return {"etce_degenerate": int(result.degenerate)} if args[0] == "etce" else {}


def _count_joint(args, result):
    return {"alphabet": result.alphabet_size}


def _count_lz76(args, result):
    return {"calls": 1, "phrases": result.raw}


def _count_etc(args, result):
    return {"calls": 1, "steps": result.raw}
