"""Length-scaling curves, per-family inference times and machine details.

The traced run of each workload appends one of these to its trace file:
``sweep-ar1`` the binary ar1 curve, ``sweep-sparse`` the seed-42 per-family
inference times, ``genomic`` the 4-ary genome-like curve with LZ76 and ETC.
Run as a script it records all of them plus LZ76 and ETC at 30k symbols:

    python3 perfbench/curves.py            # writes .perfbench/recorded.json
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import sys
import time

from tracing import loglog_slope
from workloads import DEFAULT_SEED, genome_records

BINARY_LENGTHS = (1000, 2000, 4000, 8000)  # 16k-32k wait for chunked extraction
GENOME_LENGTHS = (2000, 4000, 8000, 16000, 30000)
#: ETC costs ~n^2/5: about 1.6 s at 8k and 5.6 s at 16k symbols on a 2-core Xeon.
ETC_MAX_LENGTH = 16000
SMOKE_BINARY = (500, 1000)
SMOKE_GENOME = (1000, 2000)
FAMILY_TRIALS = 20


def machine():
    import numpy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu = next((line.split(":", 1)[1].strip() for line in handle
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpu": cpu,
    }


def _masked(mods, bases):
    codes = {"A": 0, "C": 1, "G": 2, "T": 3}
    symbols = tuple(codes.get(b, 0) for b in bases)
    mask = tuple(b not in codes for b in bases)
    return mods.seqcore.MaskedSequence(mods.seqcore.SymbolSequence(symbols, 4), mask)


def _curve(tracer, kind, points, run_point, layers):
    """Trace run_point(length) for each length; per-layer self ms, counts and slopes."""
    rows = []
    for length in points:
        round_id = f"{kind}-{length}"
        tracer.begin_round(round_id, 1)
        tracer.install()
        try:
            run_point(length)
        finally:
            tracer.uninstall()
        tracer.end_round()
        table = tracer.round_tables([round_id])[round_id]
        rows.append({
            "length": length,
            "self_ms": {k: table["self"][k] for k in layers if k in table["self"]},
            "counts": {k: dict(v) for k, v in table["counts"].items()},
        })
    slopes = {}
    for layer in layers:
        xs = [r["length"] for r in rows if layer in r["self_ms"]]
        ys = [r["self_ms"][layer] for r in rows if layer in r["self_ms"]]
        slopes[layer] = loglog_slope(xs, ys)
    return {"points": rows, "loglog_slope": slopes}


DPE = ("core.flip_dictionary", "core.extraction", "core.counting", "core.verdict")


def binary_curve(mods, tracer, seed, smoke=False):
    """ar1 (phi=0.4) pairs of growing length through dpe inference."""
    def run_point(length):
        rng = mods.rng.RngStream(seed, stream_index=length)
        pair = mods.synth.gen_ar1(0.4, length + 500, 500, rng)
        mods.core.infer_causal_direction(pair.x, pair.y)

    lengths = SMOKE_BINARY if smoke else BINARY_LENGTHS
    kind = "binary ar1 phi=0.4"
    return {"kind": kind, **_curve(tracer, kind, lengths, run_point, DPE)}


def genome_curve(mods, tracer, seed, smoke=False):
    """Genome-like 4-ary pairs of growing length: dpe, plus LZ76 and ETC on the reference."""
    reference, candidate = [bases for _, bases in genome_records(seed, 0, 1)[::2]]

    def run_point(length):
        pair = mods.bench.align_pair(_masked(mods, reference[:length]),
                                     _masked(mods, candidate[:length]))
        mods.core.infer_causal_direction(pair.x, pair.y)
        mods.baselines.lz76_complexity(pair.x)
        if length <= ETC_MAX_LENGTH:
            mods.baselines.etc_complexity(pair.x)

    lengths = SMOKE_GENOME if smoke else GENOME_LENGTHS
    layers = DPE + ("seqcore.align_pair", "baselines.lz76", "baselines.etc")
    kind = "4-ary genome-like"
    curve = _curve(tracer, kind, lengths, run_point, layers)
    return {"kind": kind, "etc_longest_length": min(max(lengths), ETC_MAX_LENGTH),
            **curve}


def family_times(mods, trials=FAMILY_TRIALS, seed=DEFAULT_SEED):
    """Seed-42 dpe inference ms per family, cycling each family's default grid."""
    out = {}
    for family, (values, _, _, _, length, drop) in mods.cli.FAMILY_DEFAULTS.items():
        grids = {family: values}
        if family == "skew_tent":
            grids["skew_tent eta=0.4"] = (0.4,)
        for label, grid in grids.items():
            times = []
            for t in range(trials):
                rng = mods.rng.RngStream(seed, stream_index=t)
                pair = mods.synth.generate_trial(family, grid[t % len(grid)], length, drop, rng)
                t0 = time.perf_counter()
                mods.core.infer_causal_direction(pair.x, pair.y)
                times.append((time.perf_counter() - t0) * 1e3)
            out[label] = {"trials": trials, "length": length - drop,
                          "mean_ms": statistics.fmean(times), "median_ms": statistics.median(times)}
    return out


def baselines_at(mods, length, seed=DEFAULT_SEED):
    """LZ76 and ETC seconds on one genome-like 4-ary reference of ``length`` symbols."""
    reference = genome_records(seed, 0, 0)[0][1][:length]
    seq = _masked(mods, reference).seq
    out = {"length": length}
    for name, fn in (("lz76_s", mods.baselines.lz76_complexity),
                     ("etc_s", mods.baselines.etc_complexity)):
        t0 = time.perf_counter()
        fn(seq)
        out[name] = time.perf_counter() - t0
    return out


def main():
    from run import ROOT, load_program
    from tracing import Tracer

    mods, _ = load_program()
    tracer = Tracer(mods)
    record = {
        "machine": machine(),
        "families_seed42": family_times(mods),
        "binary_curve": binary_curve(mods, tracer, DEFAULT_SEED),
        "genome_curve": genome_curve(mods, tracer, DEFAULT_SEED),
        "baselines_30k": baselines_at(mods, 30000),
    }
    out = ROOT / ".perfbench" / "recorded.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    json.dump(record, sys.stdout, indent=1)
    print()


if __name__ == "__main__":
    main()
