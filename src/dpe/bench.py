"""Monte-Carlo sweep harness, genomic hypothesis counting, and the ecology case.

Trials are independently seeded through per-trial streams (global trial
ordinal = value_index * trials + trial_index), so any execution order,
including process pools, reproduces identical results; aggregation always
reduces in trial order.
"""

from __future__ import annotations

import os
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from pathlib import Path

from .baselines import BASELINE_METHODS, baseline_verdicts
from .core import CausalReport, infer_causal_direction
from .errors import DegenerateSeriesWarning, InputError, UnusablePairError
from .rng import RngStream
from .seqcore import (
    Direction,
    FastaRecord,
    RealSeries,
    align_pair,
    binarize_equiwidth,
)
from .synth import TrialSpec, generate_trial

ALL_METHODS = ("dpe",) + BASELINE_METHODS


@dataclass(frozen=True)
class SweepResult:
    """Aggregated outcome of one (family, parameter value, method) cell."""

    family: str
    param_name: str
    param_value: float
    method: str
    trials: int
    n_correct: int
    n_independent: int
    accuracy: float
    mean_hbar_xy: float | None  # populated for dpe rows only
    mean_hbar_yx: float | None


@dataclass(frozen=True)
class TrialOutcome:
    truth: Direction  # the generated pair's ground truth
    verdicts: dict[str, Direction]
    hbar_xy: float | None
    hbar_yx: float | None


def _run_single_trial(
    spec: TrialSpec, value: float, global_ordinal: int, methods: tuple[str, ...]
) -> TrialOutcome:
    rng = RngStream(spec.seed, stream_index=global_ordinal)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DegenerateSeriesWarning)
        pair = generate_trial(spec.family, value, spec.length, spec.drop, rng)
    verdicts: dict[str, Direction] = {}
    hbar_xy = hbar_yx = None
    if "dpe" in methods:
        report = infer_causal_direction(pair.x, pair.y)
        verdicts["dpe"] = report.verdict
        hbar_xy = report.score_xy.h_bar
        hbar_yx = report.score_yx.h_bar
    baselines = tuple(m for m in methods if m != "dpe")
    if baselines:
        for method, v in baseline_verdicts(baselines, pair.x, pair.y).items():
            verdicts[method] = v.verdict
    return TrialOutcome(pair.ground_truth, verdicts, hbar_xy, hbar_yx)


def _run_trial_block(args) -> list[TrialOutcome]:
    spec, value_index, start, stop, methods = args
    value = spec.values[value_index]
    return [
        _run_single_trial(spec, value, value_index * spec.trials + t, methods)
        for t in range(start, stop)
    ]


def run_sweep(
    spec: TrialSpec, methods: tuple[str, ...] = ("dpe",), workers: int = 1
) -> list[SweepResult]:
    """Run the full battery and aggregate accuracies against ground truth.

    Each verdict is scored against the ground truth of its generated pair;
    independent verdicts on coupled ground truth count as incorrect. Results
    are deterministic for a fixed spec regardless of ``workers``.
    """
    for m in methods:
        if m not in ALL_METHODS:
            raise InputError(f"unknown method {m!r}")
    if workers < 1:
        raise InputError(f"workers must be >= 1, got {workers}")
    # with the fork start method the pool starts all its workers at once, so
    # ask for no more than there are cores, or (below) blocks to run
    workers = min(workers, os.cpu_count() or 1)
    blocks: list[tuple] = []
    block_size = -(-spec.trials // (workers * 4))  # trials >= 1
    for vi in range(len(spec.values)):
        for start in range(0, spec.trials, block_size):
            stop = min(start + block_size, spec.trials)
            blocks.append((spec, vi, start, stop, tuple(methods)))
    workers = min(workers, len(blocks))
    if workers <= 1:
        produced = [_run_trial_block(b) for b in blocks]
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            produced = list(pool.map(_run_trial_block, blocks))
    ordered = [outcome for block in produced for outcome in block]  # by trial ordinal

    results: list[SweepResult] = []
    for vi, value in enumerate(spec.values):
        outcomes = ordered[vi * spec.trials : (vi + 1) * spec.trials]
        for method in methods:
            n_correct = sum(1 for o in outcomes if o.verdicts[method] == o.truth)
            n_independent = sum(
                1 for o in outcomes if o.verdicts[method] == Direction.INDEPENDENT
            )
            mean_xy = mean_yx = None
            if method == "dpe":
                finite_xy = [o.hbar_xy for o in outcomes if o.hbar_xy is not None]
                finite_yx = [o.hbar_yx for o in outcomes if o.hbar_yx is not None]
                if finite_xy:
                    mean_xy = sum(finite_xy) / len(finite_xy)
                if finite_yx:
                    mean_yx = sum(finite_yx) / len(finite_yx)
            results.append(
                SweepResult(
                    family=spec.family,
                    param_name=spec.param_name,
                    param_value=float(value),
                    method=method,
                    trials=spec.trials,
                    n_correct=n_correct,
                    n_independent=n_independent,
                    accuracy=n_correct / spec.trials,
                    mean_hbar_xy=mean_xy,
                    mean_hbar_yx=mean_yx,
                )
            )
    return results


CSV_HEADER = (
    "family,parameter,value,method,trials,correct,independent,"
    "accuracy,mean_hbar_xy,mean_hbar_yx,variant"
)


def results_csv_text(results: list[SweepResult]) -> str:
    """Render sweep results as CSV, sorted by (family, value, method)."""
    if not results:
        raise InputError("no results to emit")
    lines = [CSV_HEADER]
    for r in sorted(results, key=lambda r: (r.family, r.param_value, r.method)):
        xy = "" if r.mean_hbar_xy is None else f"{r.mean_hbar_xy:.6f}"
        yx = "" if r.mean_hbar_yx is None else f"{r.mean_hbar_yx:.6f}"
        variant = "variant" if r.method in BASELINE_METHODS else ""
        lines.append(
            f"{r.family},{r.param_name},{r.param_value:.6f},{r.method},{r.trials},"
            f"{r.n_correct},{r.n_independent},{r.accuracy:.6f},{xy},{yx},{variant}"
        )
    return "\n".join(lines) + "\n"


def emit_results(results: list[SweepResult], path: str | Path) -> None:
    Path(path).write_text(results_csv_text(results), encoding="utf-8", newline="\n")


@dataclass(frozen=True)
class GenomicHypothesisResult:
    """Per-country proportions of candidates attributed to each reference."""

    country: str
    n_sequences: int
    proportion_h0: float | None  # global reference causes the candidate
    proportion_h1: float | None  # first in-country sequence causes the candidate
    n_skipped_h0: int = 0
    n_skipped_h1: int = 0


def _reference_proportion(
    reference: FastaRecord, candidates: list[FastaRecord]
) -> tuple[float | None, int]:
    hits = 0
    analyzed = 0
    skipped = 0
    for candidate in candidates:
        try:
            pair = align_pair(reference.masked, candidate.masked)
        except UnusablePairError:
            skipped += 1
            continue
        report = infer_causal_direction(pair.x, pair.y)
        analyzed += 1
        if report.verdict == Direction.X_CAUSES_Y:
            hits += 1
    return (hits / analyzed if analyzed else None), skipped


def run_genomic(
    rs_record: FastaRecord,
    cw_record: FastaRecord,
    candidates: list[FastaRecord],
    country: str,
) -> GenomicHypothesisResult:
    """Test each candidate against both references and count causal verdicts."""
    prop_h0, skipped_h0 = _reference_proportion(rs_record, candidates)
    prop_h1, skipped_h1 = _reference_proportion(cw_record, candidates)
    return GenomicHypothesisResult(
        country=country,
        n_sequences=len(candidates),
        proportion_h0=prop_h0,
        proportion_h1=prop_h1,
        n_skipped_h0=skipped_h0,
        n_skipped_h1=skipped_h1,
    )


def genomic_csv_text(results: list[GenomicHypothesisResult]) -> str:
    lines = ["country,n_sequences,prop_h0_rs,prop_h1_cw,skipped_rs,skipped_cw"]
    for r in results:
        h0 = "" if r.proportion_h0 is None else f"{r.proportion_h0:.6f}"
        h1 = "" if r.proportion_h1 is None else f"{r.proportion_h1:.6f}"
        lines.append(
            f"{r.country},{r.n_sequences},{h0},{h1},{r.n_skipped_h0},{r.n_skipped_h1}"
        )
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class PredatorPreyResult:
    report: CausalReport
    n_used: int
    degenerate_x: bool
    degenerate_y: bool


def run_predator_prey(
    series_pred: RealSeries, series_prey: RealSeries, drop: int = 9
) -> PredatorPreyResult:
    """Drop leading transients, binarize equi-width, and infer the direction.

    x is the predator, y the prey; the interesting outcome is the verdict and
    the strength (absolute difference of the two average entropies).
    """
    if len(series_pred) != len(series_prey):
        raise InputError("predator and prey series must have equal length")
    if len(series_pred) <= drop:
        raise InputError(f"need more than {drop} points, got {len(series_pred)}")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", DegenerateSeriesWarning)
        bx = binarize_equiwidth(series_pred.drop_first(drop))
        n_before = len(caught)
        by = binarize_equiwidth(series_prey.drop_first(drop))
        degenerate_x, degenerate_y = n_before > 0, len(caught) > n_before
    report = infer_causal_direction(bx, by)
    return PredatorPreyResult(report, len(bx), degenerate_x, degenerate_y)
