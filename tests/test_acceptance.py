"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they complete. The heavier batteries (criteria 3 and 5) take a few
minutes at their stated trial counts.
"""

import itertools
import subprocess
import sys
import time
from pathlib import Path

import pytest

from oracles import naive_count
from dpe.baselines import BASELINE_METHODS, baseline_verdicts, etc_complexity, lz76_complexity
from dpe.bench import run_sweep
from dpe.cli import main as cli_main
from dpe.core import (
    binary_entropy,
    build_flip_dictionary,
    build_pattern_set,
    count_occurrences,
    infer_causal_direction,
    response_determinism,
    score_direction,
)
from dpe.rng import RngStream
from dpe.seqcore import Direction, SymbolSequence
from dpe.synth import TrialSpec

SEED = 42
X = SymbolSequence.from_text("011101111010011001110101101001", 2)
Y = SymbolSequence.from_text("000001000010000000000100001000", 2)

# frozen from the independent brute-force oracle (full-precision arithmetic
# on the ratio and weight columns); every cell asserted to +-5e-4
TABLE_XY = {
    "01": (4, 5, 0.444444, 0.310345, 0.991076, 0.307575),
    "011": (1, 4, 0.200000, 0.178571, 0.721928, 0.128916),
    "0110": (0, 2, 0.0, 0.074074, 0.0, 0.0),
    "011101": (2, 0, 1.0, 0.080000, 0.0, 0.0),
    "11": (1, 8, 0.111111, 0.310345, 0.503258, 0.156184),
    "110": (0, 5, 0.0, 0.178571, 0.0, 0.0),
    "1101": (4, 0, 1.0, 0.148148, 0.0, 0.0),
    "11101": (3, 0, 1.0, 0.115385, 0.0, 0.0),
}
TABLE_YX = {
    "00": (10, 11, 0.476190, 0.724138, 0.998364, 0.722953),
    "000": (13, 3, 0.812500, 0.571429, 0.696212, 0.397836),
    "10": (3, 1, 0.750000, 0.137931, 0.811278, 0.111900),
}
TOL = 5e-4


def report(number: int, ok: bool, detail: str) -> None:
    print(f"[criterion {number}] {'PASS' if ok else 'FAIL'}: {detail}", flush=True)


def check(number: int, ok: bool, detail: str) -> None:
    report(number, ok, detail)
    assert ok, f"criterion {number} failed: {detail}"


@pytest.fixture(scope="module")
def ar1_results():
    spec = TrialSpec("ar1", "phi", (0.2, 0.4, 0.6, 0.8), 1500, 500, 200, SEED)
    t0 = time.perf_counter()
    results = run_sweep(spec, methods=("dpe",))
    return results, time.perf_counter() - t0


def test_criterion_1_worked_example_golden():
    t0 = time.perf_counter()
    gxy = build_flip_dictionary(X, Y)
    gyx = build_flip_dictionary(Y, X)
    pxy = build_pattern_set(gxy)
    pyx = build_pattern_set(gyx)
    sxy = score_direction(X, Y)
    syx = score_direction(Y, X)
    verdict = infer_causal_direction(X, Y).verdict
    elapsed = time.perf_counter() - t0

    ok = set(s.text() for s in gxy.segments) == {"011101", "11101", "00110011101", "01101"}
    ok &= set(s.text() for s in gyx.segments) == {"00", "10", "000", "10000"}
    ok &= set(p.text() for p in pxy.patterns) == set(TABLE_XY)
    ok &= set(p.text() for p in pyx.patterns) == set(TABLE_YX)
    for score, table in ((sxy, TABLE_XY), (syx, TABLE_YX)):
        rows = {s.pattern.text(): s for s in score.pattern_scores}
        for name, (ch, nc, r, w, hb, hw) in table.items():
            s = rows[name]
            ok &= (s.n_change, s.n_nochange) == (ch, nc)
            ok &= abs(s.r_flip - r) <= TOL
            ok &= abs(s.weight - w) <= TOL
            ok &= abs(s.h_binary - hb) <= TOL
            ok &= abs(s.h_weighted - hw) <= TOL
    ok &= abs(sxy.h_bar - 0.074) <= TOL
    ok &= abs(syx.h_bar - 0.411) <= TOL
    ok &= verdict == Direction.X_CAUSES_Y
    ok &= elapsed < 1.0
    check(
        1,
        ok,
        f"worked example: dictionaries, pattern sets, all table rows, "
        f"h_bar=({sxy.h_bar:.4f}, {syx.h_bar:.4f}), verdict {verdict.value}, "
        f"{elapsed * 1000:.0f} ms",
    )


def test_criterion_2_delayed_bitflip_accuracy():
    spec = TrialSpec(
        "delay_bitflip", "delay", tuple(float(k) for k in range(7)), 100, 0, 200, SEED
    )
    t0 = time.perf_counter()
    results = run_sweep(spec, methods=("dpe",))
    elapsed = time.perf_counter() - t0
    accs = {int(r.param_value): r.accuracy for r in results}
    ok = all(accs[k] >= 0.95 for k in range(7)) and elapsed < 120
    detail = ", ".join(f"k={k}: {accs[k]:.3f}" for k in range(7))
    check(2, ok, f"delayed bit-flip accuracy {detail} ({elapsed:.0f} s)")


def test_criterion_3_ar1_accuracy(ar1_results):
    results, elapsed = ar1_results
    accs = {r.param_value: r.accuracy for r in results}
    ok = accs[0.2] >= 0.85
    ok &= all(accs[phi] >= 0.95 for phi in (0.4, 0.6, 0.8))
    ok &= elapsed < 600
    detail = ", ".join(f"phi={phi:g}: {accs[phi]:.3f}" for phi in (0.2, 0.4, 0.6, 0.8))
    check(3, ok, f"AR(1) accuracy {detail} ({elapsed:.0f} s)")


def test_criterion_4_sparse_accuracy():
    spec = TrialSpec("sparse", "k", (5.0, 25.0, 50.0), 2000, 0, 100, SEED)
    t0 = time.perf_counter()
    results = run_sweep(spec, methods=("dpe",))
    elapsed = time.perf_counter() - t0
    accs = {int(r.param_value): r.accuracy for r in results}
    ok = all(accs[k] >= 0.95 for k in (5, 25, 50)) and elapsed < 300
    detail = ", ".join(f"k={k}: {accs[k]:.3f}" for k in (5, 25, 50))
    check(4, ok, f"sparse-process accuracy {detail} ({elapsed:.0f} s)")


def test_criterion_5_skew_tent_accuracy():
    spec = TrialSpec("skew_tent", "eta", (0.3, 0.6, 0.9), 1500, 500, 200, SEED)
    t0 = time.perf_counter()
    results = run_sweep(spec, methods=("dpe",))
    elapsed = time.perf_counter() - t0
    accs = {r.param_value: r.accuracy for r in results}
    ok = accs[0.3] >= 0.80 and accs[0.6] >= 0.80 and accs[0.9] >= 0.95
    ok &= elapsed < 600
    detail = ", ".join(f"eta={eta:g}: {accs[eta]:.3f}" for eta in (0.3, 0.6, 0.9))
    check(5, ok, f"skew-tent accuracy {detail} ({elapsed:.0f} s)")


def test_criterion_6_entropy_separation(ar1_results):
    results, _ = ar1_results
    # ground truth is y_causes_x, so the true direction's mean is mean_hbar_yx
    rows = {r.param_value: r for r in results}
    gaps = {}
    ok = True
    for phi in (0.4, 0.6, 0.8):
        r = rows[phi]
        ok &= r.mean_hbar_yx is not None and r.mean_hbar_xy is not None
        ok &= r.mean_hbar_yx < r.mean_hbar_xy
        gaps[phi] = r.mean_hbar_xy - r.mean_hbar_yx
    detail = ", ".join(f"phi={phi:g}: gap {gaps[phi]:+.4f}" for phi in gaps)
    check(6, ok, f"true-direction mean entropy strictly lower {detail}")


def test_criterion_7_property_suites():
    ok = True
    # binary entropy symmetry and bounds
    for i in range(0, 1001):
        r = i / 1000
        h = binary_entropy(r)
        ok &= 0.0 <= h <= 1.0
        ok &= abs(h - binary_entropy(1.0 - r)) <= 1e-12

    # flip-ratio bookkeeping and dictionary invariants on random pairs
    rng = RngStream(SEED, 1)
    for _ in range(80):
        n = 10 + int(rng.uniforms(1)[0] * 50)
        cause = SymbolSequence(rng.bits(n).tolist(), 2)
        effect = SymbolSequence(rng.bits(n).tolist(), 2)
        dictionary = build_flip_dictionary(cause, effect)
        spans_total = 0
        for seg in dictionary.segments:
            ok &= len(seg) >= 2
            ok &= seg.data in cause.data
            spans_total += len(seg)
        ok &= spans_total <= n
        for p in build_pattern_set(dictionary).patterns:
            n_change, n_nochange, _ = response_determinism(p, cause, effect)
            ok &= n_change + n_nochange == count_occurrences(p, cause)

    # swap antisymmetry
    for _ in range(100):
        n = 4 + int(rng.uniforms(1)[0] * 40)
        x = SymbolSequence(rng.bits(n).tolist(), 2)
        y = SymbolSequence(rng.bits(n).tolist(), 2)
        fwd = infer_causal_direction(x, y)
        rev = infer_causal_direction(y, x)
        ok &= fwd.score_xy.h_bar == rev.score_yx.h_bar
        ok &= fwd.score_yx.h_bar == rev.score_xy.h_bar
        ok &= fwd.strength == rev.strength
        mirrored = {
            Direction.X_CAUSES_Y: Direction.Y_CAUSES_X,
            Direction.Y_CAUSES_X: Direction.X_CAUSES_Y,
            Direction.INDEPENDENT: Direction.INDEPENDENT,
        }
        ok &= rev.verdict == mirrored[fwd.verdict]

    # self-independence for 500 random sequences
    for i in range(500):
        alphabet = 2 + i % 3
        n = 2 + int(rng.uniforms(1)[0] * 80)
        s = SymbolSequence([int(u * alphabet) for u in rng.uniforms(n).tolist()], alphabet)
        ok &= infer_causal_direction(s, s).verdict == Direction.INDEPENDENT

    # exhaustive occurrence-count oracle: binary sequences len <= 12,
    # patterns len <= 4
    mismatch = 0
    for n in range(1, 13):
        for sym in itertools.product((0, 1), repeat=n):
            s = SymbolSequence(sym, 2)
            for m in range(1, min(4, n) + 1):
                for pat in itertools.product((0, 1), repeat=m):
                    got = count_occurrences(SymbolSequence(pat, 2), s)
                    if got != naive_count(pat, sym):
                        mismatch += 1
    ok &= mismatch == 0
    check(7, ok, "entropy symmetry, bookkeeping, dictionary invariants, swap "
                 "antisymmetry, 500x self-independence, exhaustive count oracle")


def test_criterion_8_baseline_primitives():
    ok = lz76_complexity(SymbolSequence.from_text("0001101001000101")).raw == 6
    for n in (2, 5, 31):
        ok &= lz76_complexity(SymbolSequence((1,) * n, 2)).raw == 2
        ok &= etc_complexity(SymbolSequence((0,) * n, 2)).raw == 0
    rng = RngStream(SEED, 2)
    for _ in range(1000):
        n = 1 + int(rng.uniforms(1)[0] * 40)
        s = SymbolSequence(rng.bits(n).tolist(), 2)
        ok &= etc_complexity(s).raw <= max(n - 1, 0)
    for _ in range(60):
        n = 4 + int(rng.uniforms(1)[0] * 30)
        x = SymbolSequence(rng.bits(n).tolist(), 2)
        y = SymbolSequence(rng.bits(n).tolist(), 2)
        fwd = baseline_verdicts(BASELINE_METHODS, x, y)
        rev = baseline_verdicts(BASELINE_METHODS, y, x)
        for f, r in zip(fwd.values(), rev.values()):
            ok &= (f.score_xy, f.score_yx) == (r.score_yx, r.score_xy)
    check(8, ok, "LZ76 hand parse, constant-sequence values, ETC bound on 1000 "
                 "random sequences, baseline swap symmetry")


def test_criterion_9_cli_determinism(tmp_path):
    def bench(out, workers):
        proc = subprocess.run(
            [
                sys.executable, "-m", "dpe.cli", "bench",
                "--family", "delay", "--methods", "dpe,lzp,etcp,etce",
                "--trials", "4", "--seed", "42",
                "--workers", str(workers), "--out", str(out),
            ],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        return Path(out).read_bytes()

    first = bench(tmp_path / "a.csv", 2)
    second = bench(tmp_path / "b.csv", 2)
    serial = bench(tmp_path / "c.csv", 1)
    ok = first == second == serial
    check(9, ok, "bench --seed 42 byte-identical across reruns and worker counts")


PREDATOR_PREY_CSV = Path(__file__).resolve().parent.parent / "data" / "predator_prey.csv"


@pytest.mark.skipif(not PREDATOR_PREY_CSV.exists(), reason="optional ecology fixture not bundled")
def test_optional_predator_prey_fixture(tmp_path):
    out = tmp_path / "report.txt"
    assert cli_main(["infer", "--input", str(PREDATOR_PREY_CSV), "--drop", "9", "--out", str(out)]) == 0
    head = dict(line.split(": ") for line in out.read_text().splitlines()[:4])
    assert head["verdict"] == Direction.X_CAUSES_Y.value
    assert float(head["h_bar_x_to_y"]) == pytest.approx(0.1700, abs=5e-4)
    assert float(head["h_bar_y_to_x"]) == pytest.approx(0.2825, abs=5e-4)
    assert float(head["strength_bits"]) == pytest.approx(0.1125, abs=5e-4)
