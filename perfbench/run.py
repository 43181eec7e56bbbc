"""dpe benchmark: time the sweep and genomic uses end to end, or trace their layers.

    python3 perfbench/run.py --workload sweep-ar1 --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the program is imported from
``src/`` of that checkout and the naive oracles from ``tests/oracles.py``.
All program work runs in this one process with ``workers=1``; only the
set-up time is measured in fresh interpreters.

``--trace 0`` measures the end-to-end metrics with tracing off: set-up time
(a fresh interpreter importing dpe, median of several), items per second over
the timed rounds, per-item latency p50/p90 and peak RSS. Times are scaled to
a reference machine speed, followed by reference work run next to them (see
speed.py); the raw wall figures are printed on the line before the result.

``--trace 1`` runs every round twice, untraced then traced on the same
inputs, reports the per-layer metrics and the tracing overhead, checks that
both runs gave the same CSV, adds the workload's curve (see curves.py) and
writes all spans to ``.perfbench/trace-<workload>-seed<seed>.json``.

Both modes apply the correctness gate (gate.py) and print, as the last line,
one JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
``attempted`` counts the timed items plus the golden battery; ``failed``
counts items that raised, failed an oracle check or differed between the
traced and untraced round, and a golden digest mismatch. ``--smoke`` shrinks
the oracle sample and the curves, for the benchmark's own tests.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from types import SimpleNamespace

import curves
import gate
import speed
from tracing import Tracer
from workloads import NO_SPANS, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench"
SETUP_REPEATS = 7
IMPORT_DPE = "import sys; sys.path.insert(0, 'src'); import dpe"


def load_program():
    """(modules namespace, oracles module) from this checkout's source tree."""
    src = ROOT / "src"
    oracle_path = ROOT / "tests" / "oracles.py"
    if not (src / "dpe" / "__init__.py").is_file() or not oracle_path.is_file():
        raise SystemExit(f"perfbench: {ROOT} has no src/dpe or tests/oracles.py to benchmark")
    sys.path.insert(0, str(src))
    import dpe
    from dpe import baselines, bench, cli, core, errors, rng, seqcore, synth

    if Path(dpe.__file__).resolve().parent != (src / "dpe").resolve():
        raise SystemExit(f"perfbench: imported dpe from {dpe.__file__}, not from {src}")
    spec = importlib.util.spec_from_file_location("perfbench_oracles", oracle_path)
    oracles = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(oracles)
    mods = SimpleNamespace(baselines=baselines, bench=bench, cli=cli, core=core,
                           errors=errors, rng=rng, seqcore=seqcore, synth=synth)
    return mods, oracles


def measure_setup(repeats=SETUP_REPEATS) -> tuple[float, float]:
    """(scaled, raw) median seconds for a fresh interpreter to import dpe, bytecode warm."""
    return speed.scaled_import_s([sys.executable, "-c", IMPORT_DPE],
                                 [sys.executable, "-c", "import numpy"], ROOT, repeats)


def percentile(values, q):
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def timed_run(workload, mods, oracles, digests, args, workdir):
    setup_s, setup_raw = measure_setup()
    failures = gate.check_golden(workload, mods, workdir / "golden", digests)  # also warms up
    probe = speed.SpeedProbe()
    item_ms, raw_ms, items, wall, scaled, index = [], [], [], 0.0, 0.0, 0
    while wall < args.seconds:
        inputs = workload.make_round(args.seed, index)
        first = len(probe.samples) - 1
        t0 = time.perf_counter()
        result = workload.run_round(mods, inputs, NO_SPANS, workdir / "round", probe.sample)
        round_s = time.perf_counter() - t0
        wall += round_s
        # the samples taken after each item are not part of the round's work
        work_s = round_s - sum(probe.samples[first + 1 :])
        scaled += work_s * probe.scale(first, len(probe.samples) - 1)
        for k, t in enumerate(result.item_s):
            item_ms.append(t * 1e3 * probe.scale(first + k, first + k + 1))
            raw_ms.append(t * 1e3)
        items += result.items[: gate.sample_size(workload) - len(items)]
        failures += result.failures
        index += 1
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    failures += gate.check_sample(workload, mods, oracles, items, args.smoke)
    print(f"{workload.name}: {len(item_ms)} items in {index} rounds, {wall:.2f} s wall; "
          f"p50/p90 from {len(item_ms)} samples")
    print(f"raw wall: {len(raw_ms) / wall:.4f} items/s, p50 {statistics.median(raw_ms):.3f} ms, "
          f"p90 {percentile(raw_ms, 90):.3f} ms, setup {setup_raw:.4f} s; calibration median "
          f"{statistics.median(probe.samples) * 1e3:.3f} ms against {speed.REFERENCE_S * 1e3} ms")
    metrics = {
        "setup_s": {"value": setup_s, "unit": "s"},
        "items_per_s": {"value": len(item_ms) / scaled, "unit": "1/s"},
        "item_ms_p50": {"value": statistics.median(item_ms), "unit": "ms"},
        "item_ms_p90": {"value": percentile(item_ms, 90), "unit": "ms"},
        "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
    }
    return len(item_ms), failures, metrics


def traced_run(workload, mods, oracles, digests, args, workdir):
    failures = gate.check_golden(workload, mods, workdir / "golden", digests)
    tracer = Tracer(mods)
    items, n_items, index = [], 0, 0
    deadline = time.perf_counter() + args.seconds
    while time.perf_counter() < deadline:
        inputs = workload.make_round(args.seed, index)
        t0 = time.perf_counter()
        plain = workload.run_round(mods, inputs, NO_SPANS, workdir / "round")
        plain_s = time.perf_counter() - t0
        tracer.begin_round(index, len(plain.item_s))
        tracer.install()
        t0 = time.perf_counter()
        try:
            with tracer.span("bench"):
                traced = workload.run_round(mods, inputs, tracer, workdir / "round")
        finally:
            tracer.uninstall()
        traced_s = time.perf_counter() - t0
        tracer.end_round(plain_s, traced_s)
        if traced.text != plain.text:
            failures.append(f"round {index}: traced CSV differs from untraced CSV")
        n_items += len(plain.item_s)
        items += plain.items[: gate.sample_size(workload) - len(items)]
        failures += plain.failures + traced.failures
        index += 1

    extras = {"machine": curves.machine()}
    if workload.name == "sweep-ar1":
        extras["binary_curve"] = curves.binary_curve(mods, tracer, args.seed, args.smoke)
    elif workload.name == "sweep-sparse":
        extras["families_seed42"] = curves.family_times(mods, 2 if args.smoke else curves.FAMILY_TRIALS)
    else:
        extras["genome_curve"] = curves.genome_curve(mods, tracer, args.seed, args.smoke)
    failures += gate.check_sample(workload, mods, oracles, items, args.smoke)

    metrics, absent = tracer.layer_metrics()
    rounds = [r for r in tracer.round_items if isinstance(r, int)]
    layers = tracer.layer_table(rounds)
    trace_path = OUT_DIR / f"trace-{workload.name}-seed{args.seed}.json"
    trace_path.write_text(json.dumps({
        "workload": workload.name,
        "seed": args.seed,
        "rounds": len(rounds),
        "items": n_items,
        "metrics": metrics,
        "absent": absent,
        "unhooked": tracer.unhooked,
        "layers": layers,
        "deferred_count_s": tracer.count_s,
        **extras,
        "spans": [s.as_json() for s in tracer.spans],
    }, indent=1) + "\n", encoding="utf-8")
    print(f"{workload.name}: traced {n_items} items in {len(rounds)} rounds; "
          f"{len(tracer.spans)} spans written to {trace_path.relative_to(ROOT)}")
    for name, row in sorted(layers.items(), key=lambda kv: -kv[1]["self_ms_median"]):
        share = row["dpe_share_median"]
        print(f"  {name:<22} {row['self_ms_median']:10.3f} ms/item"
              + ("" if share is None else f"  {share:6.1%} of dpe"))
    if absent:
        print("absent (layer does no work here): " + ", ".join(absent))
    return n_items, failures, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="small oracle sample and curves")
    args = parser.parse_args(argv)

    mods, oracles = load_program()
    digests = json.loads((HERE / "digests.json").read_text(encoding="utf-8"))
    OUT_DIR.mkdir(exist_ok=True)
    run = traced_run if args.trace else timed_run
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as tmp:
        n_items, failures, metrics = run(
            WORKLOADS[args.workload], mods, oracles, digests, args, Path(tmp))
    for f in failures:
        print(f"FAILED: {f}", file=sys.stderr)
    attempted = n_items + 1  # the golden battery counts as one more item
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": min(len(failures), attempted),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
