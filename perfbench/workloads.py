"""The benchmark's three workloads: inputs made from a seed, one timed round each.

A round is the unit the timed loop repeats. For the sweeps a round is one
trial: one ``bench.run_sweep`` call over a one-trial spec (generate the pair,
dpe inference, then lzp, etcp and etce) plus its CSV text. For ``genomic`` a
round writes a synthetic record set as FASTA, parses it with
``seqcore.load_fasta`` and runs ``bench.run_genomic`` once per candidate (the
item), then renders ``genomic_csv_text``.

Every call into the program goes through module attributes looked up at call
time (``mods.bench.run_sweep``, ``mods.seqcore.load_fasta``), so the traced
run can interpose spans without touching the program.
"""

from __future__ import annotations

import contextlib
import random
import time
from dataclasses import dataclass, field
from pathlib import Path

#: The seed whose golden-battery CSV digests are recorded in digests.json.
DEFAULT_SEED = 42

#: The sweep item's RngStream seed is seed * ITEM_STRIDE + item index.
ITEM_STRIDE = 1 << 32

GENOME_LENGTH = 30_000
GENOME_CANDIDATES = 20
FASTA_COLUMNS = 60
MUTATION_RATE = 0.001


@dataclass
class RoundResult:
    """What one round produced: per-item latencies, outputs and failures."""

    item_s: list[float]
    text: str  # the round's CSV text, compared across traced/untraced runs
    items: list = field(default_factory=list)  # per-item data for the oracle gate
    failures: list[str] = field(default_factory=list)


class _NoSpans:
    """Stand-in recorder for untraced rounds: every span is a no-op."""

    def span(self, name):
        return contextlib.nullcontext()


NO_SPANS = _NoSpans()


def _nothing():
    pass


@dataclass(frozen=True)
class SweepWorkload:
    """A sweep battery run one trial per ``run_sweep`` call.

    Parameter values cycle in a fixed order, so every run of a given length
    holds the same mix of values whatever the seed.
    """

    name: str
    family: str
    param: str
    values: tuple[float, ...]
    length: int
    drop: int

    def make_round(self, seed: int, index: int):
        value = self.values[index % len(self.values)]
        return value, seed * ITEM_STRIDE + index

    def run_round(self, mods, inputs, rec=NO_SPANS, workdir=None, after_item=_nothing):
        value, item_seed = inputs
        spec = mods.synth.TrialSpec(
            self.family, self.param, (value,), self.length, self.drop, 1, item_seed
        )
        t0 = time.perf_counter()
        try:
            with rec.span("bench"):
                results = mods.bench.run_sweep(spec, mods.bench.ALL_METHODS)
                text = mods.bench.results_csv_text(results)
        except Exception as exc:  # noqa: BLE001 - a failed item is counted, not fatal
            out = RoundResult([time.perf_counter() - t0], "", [], [f"item {item_seed}: {exc!r}"])
        else:
            dpe_row = next(r for r in results if r.method == "dpe")
            out = RoundResult([time.perf_counter() - t0], text,
                              [(value, item_seed, dpe_row.mean_hbar_xy, dpe_row.mean_hbar_yx)])
        after_item()
        return out

    def golden_text(self, mods, workdir: Path) -> str:
        """CSV of a one-trial battery over every value at the default seed."""
        spec = mods.synth.TrialSpec(
            self.family, self.param, self.values, self.length, self.drop, 1, DEFAULT_SEED
        )
        return mods.bench.results_csv_text(mods.bench.run_sweep(spec, mods.bench.ALL_METHODS))

    def trial_pair(self, mods, value: float, item_seed: int):
        """Regenerate an item's pair the way run_sweep does (trial ordinal 0)."""
        rng = mods.rng.RngStream(item_seed, stream_index=0)
        return mods.synth.generate_trial(self.family, value, self.length, self.drop, rng)


def _mutate(bases: list[str], rng: random.Random, ambiguous: bool) -> list[str]:
    out = list(bases)
    for pos in rng.sample(range(len(out)), max(1, round(len(out) * MUTATION_RATE))):
        out[pos] = rng.choice([b for b in "ACGT" if b != out[pos]])
    if ambiguous:
        for _ in range(rng.randint(1, 3)):  # sequencing gaps
            start = rng.randrange(len(out))
            for pos in range(start, min(len(out), start + rng.randint(1, 40))):
                out[pos] = "N"
        for pos in rng.sample(range(len(out)), rng.randint(2, 8)):  # scattered codes
            out[pos] = rng.choice("NRYKM")
    return out


def genome_records(seed: int, index: int, n_candidates: int = GENOME_CANDIDATES):
    """(identifier, bases) for a reference, a first-in-country record and candidates.

    The reference is uniform 4-ary, so flips fall at about 3/4 of positions.
    The first-in-country record mutates the reference, each candidate mutates
    that record, and both carry N/IUPAC ambiguity codes; candidates lose up to
    30 trailing bases so alignment truncates.
    """
    rng = random.Random(seed * 1_000_003 + index)
    reference = rng.choices("ACGT", k=GENOME_LENGTH)
    first = _mutate(reference, rng, ambiguous=True)
    records = [("REF", reference), ("CW", first)]
    for c in range(n_candidates):
        cand = _mutate(first, rng, ambiguous=True)
        records.append((f"C{c:02d}", cand[: len(cand) - rng.randint(0, 30)]))
    return records


def fasta_text(identifier: str, bases: list[str]) -> str:
    seq = "".join(bases)
    lines = [f">{identifier} synthetic"]
    lines += [seq[i : i + FASTA_COLUMNS] for i in range(0, len(seq), FASTA_COLUMNS)]
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class GenomicWorkload:
    """Synthetic genome-like FASTA through load_fasta, run_genomic and its CSV."""

    name: str = "genomic"
    candidates: int = GENOME_CANDIDATES

    def make_round(self, seed: int, index: int):
        return genome_records(seed, index, self.candidates)

    def _load(self, mods, records, workdir: Path):
        workdir.mkdir(parents=True, exist_ok=True)
        paths = []
        for identifier, bases in records:
            path = workdir / f"{identifier}.fa"
            path.write_text(fasta_text(identifier, bases), encoding="utf-8")
            paths.append(path)
        loaded = []
        for path in paths:
            loaded.extend(mods.seqcore.load_fasta(path))
        return loaded

    def run_round(self, mods, records, rec=NO_SPANS, workdir=None, after_item=_nothing):
        item_s: list[float] = []
        failures: list[str] = []
        results = []
        with rec.span("bench"):
            loaded = self._load(mods, records, workdir)
            rs, cw, candidates = loaded[0], loaded[1], loaded[2:]
            for cand in candidates:
                t0 = time.perf_counter()
                try:
                    with rec.span("bench"):
                        results.append(
                            mods.bench.run_genomic(rs, cw, [cand], country=cand.identifier)
                        )
                except Exception as exc:  # noqa: BLE001 - a failed item is counted
                    failures.append(f"{cand.identifier}: {exc!r}")
                item_s.append(time.perf_counter() - t0)
                after_item()
            text = mods.bench.genomic_csv_text(results) if results else ""
        return RoundResult(item_s, text, [(rs, cw, candidates, results)], failures)

    def golden_text(self, mods, workdir: Path) -> str:
        """Aggregated and per-candidate CSV for three candidates at the default seed."""
        records = genome_records(DEFAULT_SEED, 0, 3)
        rs, cw, *candidates = self._load(mods, records, workdir)
        whole = mods.bench.run_genomic(rs, cw, candidates, country="golden")
        each = [mods.bench.run_genomic(rs, cw, [c], country=c.identifier) for c in candidates]
        return mods.bench.genomic_csv_text([whole] + each)


WORKLOADS = {
    w.name: w
    for w in (
        # paper-size ar1 battery: ~20-symbol segments, so extraction takes the
        # plain-Python side of the pair-size threshold and ETC is ~40% of a trial
        SweepWorkload("sweep-ar1", "ar1", "phi", (0.0, 0.2, 0.4, 0.6, 0.8), 1500, 500),
        # sparse battery: long segments take the vectorised extraction side,
        # counting is ~1/3 of inference and LZ76 outweighs ETC
        SweepWorkload("sweep-sparse", "sparse", "k", (5.0, 15.0, 25.0, 35.0, 45.0), 2000, 0),
        # genome-scale counting: parsing, alignment, dictionary and counting
        GenomicWorkload(),
    )
}
