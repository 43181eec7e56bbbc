"""Correctness gate: golden CSV digests, and naive oracles on a sample of items.

The golden battery runs at the default seed on every run and its CSV must hash
to the digest recorded in digests.json. The oracle check regenerates a
deterministic sample of the run's own items and compares the program's flip
dictionary, pattern set and per-pattern responses with ``tests/oracles.py``.
For sweep items the dpe h_bar of the timed output must also equal the value
rebuilt from the oracle counts.
"""

from __future__ import annotations

import hashlib
import math
from pathlib import Path

#: Sweep items checked per run (indices into the run's items, one per value).
SWEEP_SAMPLE = (0, 2, 4)

#: Patterns per direction whose response is checked on genome-scale pairs.
GENOMIC_RESPONSES = 8


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def check_golden(workload, mods, workdir: Path, digests: dict) -> list[str]:
    got = digest(workload.golden_text(mods, workdir))
    want = digests.get(workload.name)
    if got != want:
        return [f"{workload.name}: golden CSV digest {got} != recorded {want}"]
    return []


def _entropy(r: float) -> float:
    if r in (0.0, 1.0):
        return 0.0
    return -(r * math.log2(r) + (1.0 - r) * math.log2(1.0 - r))


def _spread(items, k):
    """k items spread evenly over the sequence (all of them when k is None)."""
    if k is None or len(items) <= k:
        return list(items)
    return [items[i * len(items) // k] for i in range(k)]


def check_direction(mods, oracles, cause, effect, responses=None):
    """(failures, h_bar from oracle counts or None) for one direction.

    With ``responses`` set, only that many patterns get the naive response
    check and no h_bar is rebuilt.
    """
    failures = []
    c, e = cause.symbols, effect.symbols
    dictionary = mods.core.build_flip_dictionary(cause, effect)
    naive_dict = oracles.naive_dictionary(c, e)
    if [s.symbols for s in dictionary.segments] != naive_dict:
        failures.append("flip dictionary differs from naive_dictionary")
    patterns = [p.symbols for p in mods.core.build_pattern_set(dictionary).patterns]
    if set(patterns) != set(oracles.naive_pattern_set(naive_dict)):
        failures.append("pattern set differs from naive_pattern_set")
    score = mods.core.score_direction(cause, effect)
    if [s.pattern.symbols for s in score.pattern_scores] != patterns:
        failures.append("scored patterns differ from build_pattern_set")
    total = 0.0
    for s in _spread(score.pattern_scores, responses):
        want = oracles.naive_response(s.pattern.symbols, c, e)
        if (s.n_change, s.n_nochange) != want:
            failures.append(f"response of {s.pattern.text()} != naive_response {want}")
        n_occ = want[0] + want[1]
        if n_occ:
            total += n_occ / (len(c) - len(s.pattern) + 1) * _entropy(want[0] / n_occ)
    if responses is not None or not score.pattern_scores:
        return failures, None
    return failures, total / len(score.pattern_scores)


def _close(a, b):
    if a is None or b is None:
        return a is None and b is None
    return math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-12)


def check_sweep_item(workload, mods, oracles, item) -> list[str]:
    value, item_seed, hbar_xy, hbar_yx = item
    pair = workload.trial_pair(mods, value, item_seed)
    failures = []
    for cause, effect, label, timed in ((pair.x, pair.y, "xy", hbar_xy), (pair.y, pair.x, "yx", hbar_yx)):
        found, h_bar = check_direction(mods, oracles, cause, effect)
        failures += [f"{label}: {f}" for f in found]
        if not _close(h_bar, timed):
            failures.append(f"{label}: timed h_bar {timed} != oracle h_bar {h_bar}")
    return [f"item seed {item_seed}: {f}" for f in failures]


def _naive_align(a, b):
    n = min(len(a), len(b))
    keep = [i for i in range(n) if not a.ambiguous[i] and not b.ambiguous[i]]
    return tuple(a.seq.symbols[i] for i in keep), tuple(b.seq.symbols[i] for i in keep)


def check_genomic_item(mods, oracles, round_items) -> list[str]:
    """Check the first candidate of a round against both references."""
    rs, cw, candidates, results = round_items
    cand = candidates[0]
    failures = []
    for ref, label in ((rs, "h0"), (cw, "h1")):
        pair = mods.seqcore.align_pair(ref.masked, cand.masked)
        if (pair.x.symbols, pair.y.symbols) != _naive_align(ref.masked, cand.masked):
            failures.append(f"{label}: align_pair differs from the naive alignment")
        for cause, effect in ((pair.x, pair.y), (pair.y, pair.x)):
            found, _ = check_direction(mods, oracles, cause, effect, GENOMIC_RESPONSES)
            failures += [f"{label}: {f}" for f in found]
        verdict = mods.core.infer_causal_direction(pair.x, pair.y).verdict
        want = 1.0 if verdict == mods.seqcore.Direction.X_CAUSES_Y else 0.0
        got = results[0].proportion_h0 if label == "h0" else results[0].proportion_h1
        if got != want:
            failures.append(f"{label}: timed proportion {got} != verdict-derived {want}")
    return [f"candidate {cand.identifier}: {f}" for f in failures]


def sample_size(workload) -> int:
    """Leading items the harness keeps for check_sample; the rest are dropped."""
    return 1 if workload.name == "genomic" else max(SWEEP_SAMPLE) + 1


def check_sample(workload, mods, oracles, round_items, smoke=False) -> list[str]:
    """Oracle-check a deterministic sample of the run's items; one message per failed item."""
    if not round_items:
        return []
    if workload.name == "genomic":
        found = check_genomic_item(mods, oracles, round_items[0])
        return ["; ".join(found)] if found else []
    sample = SWEEP_SAMPLE[:1] if smoke else SWEEP_SAMPLE
    checked = [check_sweep_item(workload, mods, oracles, round_items[i])
               for i in sample if i < len(round_items)]
    return ["; ".join(found) for found in checked if found]
