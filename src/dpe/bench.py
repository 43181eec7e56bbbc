"""Monte-Carlo sweep harness and genomic hypothesis counting.

Trials are independently seeded through per-trial streams (global trial
ordinal = value_index * trials + trial_index), so any execution order,
including process pools, reproduces identical results; aggregation always
reduces in trial order.
"""

from __future__ import annotations

import csv
import io
import os
import warnings
from dataclasses import dataclass
from functools import partial

from .baselines import BASELINE_METHODS, baseline_verdicts
from .core import infer_causal_direction
from .errors import DegenerateSeriesWarning, InputError, UnusablePairError
from .rng import RngStream
from .seqcore import Direction, FastaRecord, align_pair
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


def _run_single_trial(spec: TrialSpec, methods: tuple[str, ...], ordinal: int) -> TrialOutcome:
    rng = RngStream(spec.seed, stream_index=ordinal)
    value = spec.values[ordinal // spec.trials]
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


def _mean(values: list[float | None]) -> float | None:
    """Mean of the non-None values, summed left to right on every Python (3.12's
    ``sum`` compensates float rounding, so it can differ in the last bits)."""
    total, count = 0.0, 0
    for v in values:
        if v is not None:
            total += v
            count += 1
    return total / count if count else None


def run_sweep(
    spec: TrialSpec, methods: tuple[str, ...] = ("dpe",), workers: int = 1
) -> list[SweepResult]:
    """Run the full battery and aggregate accuracies against ground truth.

    Each verdict is scored against the ground truth of its generated pair;
    independent verdicts on coupled ground truth count as incorrect. Results
    are deterministic for a fixed spec regardless of ``workers``.
    """
    if not methods:
        raise InputError("no methods to run")
    for m in methods:
        if m not in ALL_METHODS:
            raise InputError(f"unknown method {m!r}")
        if methods.count(m) > 1:
            raise InputError(f"method {m!r} is listed more than once")
    if workers < 1:
        raise InputError(f"workers must be >= 1, got {workers}")
    n_trials = len(spec.values) * spec.trials
    # with the fork start method the pool starts all its workers at once, so
    # ask for no more than there are cores or trials to run
    workers = min(workers, os.cpu_count() or 1, n_trials)
    trial = partial(_run_single_trial, spec, methods)
    if workers <= 1:
        ordered = list(map(trial, range(n_trials)))
    else:
        from concurrent.futures import ProcessPoolExecutor  # only pooled sweeps pay its import

        chunksize = -(-spec.trials // (4 * workers))  # trials >= 1
        with ProcessPoolExecutor(max_workers=workers) as pool:
            ordered = list(pool.map(trial, range(n_trials), chunksize=chunksize))

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
                mean_xy = _mean([o.hbar_xy for o in outcomes])
                mean_yx = _mean([o.hbar_yx for o in outcomes])
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
    """Render genomic results as CSV; a country name holding a comma or quote is quoted."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(("country", "n_sequences", "prop_h0_rs", "prop_h1_cw", "skipped_rs", "skipped_cw"))
    for r in results:
        h0 = "" if r.proportion_h0 is None else f"{r.proportion_h0:.6f}"
        h1 = "" if r.proportion_h1 is None else f"{r.proportion_h1:.6f}"
        writer.writerow((r.country, r.n_sequences, h0, h1, r.n_skipped_h0, r.n_skipped_h1))
    return out.getvalue()
