"""Mutation kill list: each mutant breaks one rule the tests must guard.

A mutant is one exact text replacement in one file of ``src/dpe``, with the
reason the rule matters and the tests expected to fail on it. Every mutant is
applied to a fresh copy of ``src`` and ``tests`` in a temporary directory and
its tests are run there with pytest; the repository itself is never edited.
The unmutated copy must pass the same tests first.

    python tests/mutation.py            # every mutant
    python tests/mutation.py NAME ...   # the named mutants only

Exit status 0 when every mutant was killed, 1 when one survived, 2 when the
unmutated copy fails. Standard library only; pytest does not collect this
file, as its name does not start with ``test_``.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent


class Mutant(NamedTuple):
    name: str
    path: str  # relative to the repository root
    old: str  # must occur exactly once in the file
    new: str
    reason: str
    tests: tuple[str, ...]  # pytest node ids, relative to the repository root


MUTANTS = (
    Mutant(
        "rank-weight-sign", "src/dpe/core.py",
        "key=lambda s: (s.h_weighted, -s.weight, s.pattern.data)",
        "key=lambda s: (s.h_weighted, s.weight, s.pattern.data)",
        "ranked patterns of equal weighted entropy come heaviest first",
        ("tests/test_core.py::TestAttributePatterns", "tests/test_golden.py::test_outputs_match_recorded_digests"),
    ),
    Mutant(
        "independent-ranks-patterns", "src/dpe/core.py",
        "if self.verdict == Direction.INDEPENDENT:\n            return ()",
        "if self.verdict == Direction.INDEPENDENT:\n            pass",
        "an independent verdict has no winning direction, so it ranks no pattern",
        ("tests/test_core.py::TestAttributePatterns",),
    ),
    Mutant(
        "trigger-one-miss", "src/dpe/core.py",
        'return "trigger" if self.n_nochange == 0 else None',
        'return "trigger" if self.n_nochange <= 1 else None',
        "a trigger has a flip ratio of exactly 1: every occurrence flips the effect",
        ("tests/test_properties.py::TestScoreInvariants", "tests/test_core.py::TestAttributePatterns"),
    ),
    Mutant(
        "single-symbol-runs", "src/dpe/core.py",
        "both = flat[1:] & flat[:-1]",
        "both = flat[1:] & flat[1:]",
        "a pattern is an agreement run of at least two symbols, so the scan reads pairs of neighbouring cells",
        ("tests/test_kernels.py::TestRuns", "tests/test_kernels.py::TestExtractionOrder"),
    ),
    Mutant(
        "unhashable-counts", "src/dpe/core.py",
        "counts = [tuple(a.tolist()) for a in",
        "counts = [a.tolist() for a in",
        "scores of identical inputs compare and hash equal, so their counts are tuples",
        ("tests/test_properties.py::TestLazyScores",),
    ),
    Mutant(
        "flip-cut-parity", "src/dpe/core.py",
        'replace(b"\\1\\1", b"\\1\\0")',
        'replace(b"\\1\\1", b"\\0\\1")',
        "within a run of consecutive flips those at even offsets cut, so every segment has length >= 2",
        ("tests/test_kernels.py::TestFlipCut", "tests/test_kernels.py::TestDictionaryOrder"),
    ),
    Mutant(
        "flip-cut-offset", "src/dpe/core.py",
        "stops += 2",
        "stops += 1",
        "a flip's flag sits one before its changed symbol, and the segment stops after that symbol",
        ("tests/test_kernels.py::TestFlipCut", "tests/test_kernels.py::TestDictionaryOrder"),
    ),
    Mutant(
        "counting-table-kept", "src/dpe/core.py",
        "table[member_keys] = 0",
        "pass",
        "every length of a call shares one table, so each must clear the keys it wrote",
        ("tests/test_kernels.py::TestCountingKernel", "tests/test_kernels.py::TestLookupSides"),
    ),
    Mutant(
        "sorted-flip-window", "src/dpe/core.py",
        "bins += tail[hit] > head[hit]",
        "bins += tail[hit] >= head[hit]",
        "a window the search finds counts as flipped only when the effect changes inside it",
        ("tests/test_kernels.py::TestLookupSides",),
    ),
    Mutant(
        "flip-prefix-int16", "src/dpe/core.py",
        "prefix = np.zeros(n, dtype=np.int32)",
        "prefix = np.zeros(n, dtype=np.int16)",
        "the flip prefix holds every flip of the effect, and a genome-length effect has more than 2**15",
        ("tests/test_kernels.py::test_counts_past_the_effects_2_to_the_15th_flip",),
    ),
    Mutant(
        "start-half-boundary", "src/dpe/core.py",
        "return None if 2 * len(starts) >= len(level) else starts",
        "return None if 2 * len(starts) > len(level) else starts",
        "a level where half of the positions or more are starts takes the full scan",
        ("tests/test_kernels.py::TestStartFilter",),
    ),
    Mutant(
        "start-all-marked", "src/dpe/core.py",
        "if np.logical_and.reduce(mark):",
        "if np.logical_or.reduce(mark):",
        "only a level whose every id is a left block has every position a start; otherwise the marks are read",
        ("tests/test_kernels.py::TestStartFilter",),
    ),
    Mutant(
        "table-not-grown", "src/dpe/core.py",
        "if len(table) < space:",
        "if not len(table):",
        "a longer level's key space may need more entries than the table a shorter level left",
        (
            "tests/test_kernels.py::TestLookupSides",
            "tests/test_kernels.py::test_genome_scale_counting_stays_within_a_memory_cap",
        ),
    ),
    Mutant(
        "start-cut-side", "src/dpe/core.py",
        'starts.searchsorted(n - length, side="right")',
        'starts.searchsorted(n - length, side="left")',
        "a window of length L may start at n - L, so a pattern ending at the cause's last symbol counts there",
        ("tests/test_kernels.py::TestStartFilter",),
    ),
    Mutant(
        "start-left-id-remainder", "src/dpe/core.py",
        "keys[by_length[lo:hi]] // bound[k]",
        "keys[by_length[lo:hi]] % bound[k]",
        "a key's quotient by the level's bound is its left block's id; the remainder is the right block's",
        ("tests/test_kernels.py::TestStartFilter",),
    ),
    Mutant(
        "anchor-offset-off-by-one", "src/dpe/core.py",
        "offset, width = anchor[moves] - at[moves], lengths[moves]",
        "offset, width = anchor[moves] - at[moves] + 1, lengths[moves]",
        "an occurrence at s holds the pattern's first change at s + d, so its candidate is the change less d",
        ("tests/test_kernels.py::TestAnchoredCounting",),
    ),
    Mutant(
        "steady-runs-uncut", "src/dpe/core.py",
        "_run_windows((flags | index.changed).nonzero()[0], ids[0], symbols, width)",
        "_run_windows(changes, ids[0], symbols, width)",
        "a steady occurrence of a run pattern lies in one run of the cause with no effect flip inside",
        ("tests/test_kernels.py::TestAnchoredCounting",),
    ),
    Mutant(
        "anchor-rule-reversed", "src/dpe/core.py",
        "return patterns * changes < windows",
        "return patterns * changes > windows",
        "a cause with few changes is counted from them, one that changes often is scanned",
        ("tests/test_kernels.py::TestAnchoredCounting",),
    ),
    Mutant(
        "level-exponent-off-by-one", "src/dpe/core.py",
        "k = np.subtract(np.frexp(lengths)[1], 1, dtype=np.int64)",
        "k = np.subtract(np.frexp(lengths)[1], 2, dtype=np.int64)",
        "a window of 2**k to 2**(k+1) - 1 symbols is keyed by the two 2**k-blocks that cover it",
        ("tests/test_kernels.py::TestContentKeys",),
    ),
    Mutant(
        "width-mask-inclusive", "src/dpe/core.py",
        "agree[lo:hi, w[lo] :] = False",
        "agree[lo:hi, w[lo] + 1 :] = False",
        "a row compares only its own width and ends in a cleared cell, so no run passes it or crosses rows",
        ("tests/test_kernels.py::TestRuns",),
    ),
    Mutant(
        "run-size-short", "src/dpe/core.py",
        "edges[1::2] - edges[::2] + 1",
        "edges[1::2] - edges[::2]",
        "a run of agreeing neighbours one cell shorter than its agreement run ends at that run's last cell",
        ("tests/test_kernels.py::TestRuns", "tests/test_kernels.py::TestExtractionOrder"),
    ),
    Mutant(
        "partner-read-as-member", "src/dpe/core.py",
        "member, partner = member[hits], partner[hits]",
        "member, partner = member[hits], member[hits]",
        "a run's pair is its row's member and the partner segment the plan carries",
        ("tests/test_kernels.py::TestExtractionOrder", "tests/test_kernels.py::TestExtractionRows"),
    ),
    Mutant(
        "first-window-unexempt", "src/dpe/core.py",
        "fresh[spread.cumsum() - spread] = True",
        "pass",
        "a segment's first window has no left neighbour among the windows, so the change prefix must keep it",
        ("tests/test_kernels.py::TestFirstWindows",),
    ),
    Mutant(
        "change-prefix-short", "src/dpe/core.py",
        "fresh = changes.take(start + width) != changes.take(start)",
        "fresh = changes.take(start + width - 1) != changes.take(start)",
        "a window repeats its left neighbour only when none of its symbols, the last included, is a change",
        (
            "tests/test_kernels.py::TestFirstWindows",
            "tests/test_kernels.py::test_windows_keyed_meet_the_work_bound",
        ),
    ),
    Mutant(
        "weight-window-count", "src/dpe/core.py",
        "weight = n_occ / (n - length + 1)",
        "weight = n_occ / (n - length)",
        "a pattern's weight is its share of the cause's n - L + 1 windows of its length",
        ("tests/test_core.py::TestScoreDirection",),
    ),
    Mutant(
        "spec-not-exclusive", "src/dpe/cli.py",
        "source = p.add_mutually_exclusive_group(required=True)",
        "source = p",
        "a battery comes from --family or from --spec, never both and never neither",
        ("tests/test_bench.py::TestBenchSpecValues",),
    ),
    Mutant(
        "spec-takes-seed", "src/dpe/cli.py",
        "if args.seed is not None:",
        "if False:",
        "the --spec file sets the seed, so a --seed next to it would be silently ignored",
        ("tests/test_bench.py::TestBenchSpecValues",),
    ),
    Mutant(
        "seed-ignored", "src/dpe/cli.py",
        "seed=42 if args.seed is None else args.seed,",
        "seed=42,",
        "--seed sets the battery's random streams",
        ("tests/test_bench.py::TestCli",),
    ),
    Mutant(
        "platform-line-ends", "src/dpe/cli.py",
        'newline="\\n"',
        'newline="\\r\\n"',
        "every output file is byte-identical on every platform",
        ("tests/test_golden.py::test_outputs_match_recorded_digests",),
    ),
    Mutant(
        "etc-tie-to-largest", "src/dpe/baselines.py",
        "top = int(counts.argmax())",
        "top = int(counts.argmax()) if fresh <= 256 else len(counts) - 1 - int(counts[::-1].argmax())",
        "the sorted side breaks a frequency tie towards the smallest pair, the first maximum in code-point order",
        ("tests/test_baselines.py::TestTopPair", "tests/test_baselines.py::TestOracles"),
    ),
    Mutant(
        "pair-halves-swapped", "src/dpe/baselines.py",
        "chr(pair // fresh) + chr(pair % fresh)",
        "chr(pair % fresh) + chr(pair // fresh)",
        "a counted pair keeps its order when decoded: (a, b) and (b, a) are different pairs",
        ("tests/test_baselines.py::TestTopPair",),
    ),
    Mutant(
        "etc-byte-boundary", "src/dpe/baselines.py",
        "if fresh <= 256:",
        "if fresh < 256:",
        "ETC counts on the dense side while every code point of its text fits a byte, up to fresh 256",
        ("tests/test_baselines.py::TestEtcSides",),
    ),
    Mutant(
        "byte-pair-halves-swapped", "src/dpe/baselines.py",
        "np.bincount(codes[:-1] * fresh + codes[1:])",
        "np.bincount(codes[1:] * fresh + codes[:-1])",
        "the dense side's bin of (a, b) is a * fresh + b, so decoding it gives back a then b",
        ("tests/test_baselines.py::TestTopPair", "tests/test_baselines.py::TestTopBytePair",
         "tests/test_baselines.py::TestEtcSides"),
    ),
    Mutant(
        "byte-tie-to-largest", "src/dpe/baselines.py",
        "top = int(counts.argmax())",
        "top = len(counts) - 1 - int(counts[::-1].argmax()) if fresh <= 256 else int(counts.argmax())",
        "the dense side breaks a frequency tie towards the smallest pair, the first maximum in bin order",
        ("tests/test_baselines.py::TestTopBytePair", "tests/test_baselines.py::TestEtcSides"),
    ),
    Mutant(
        "etc-constant-any-pair", "src/dpe/baselines.py",
        "if count == len(text) - 1 and pair[0] == pair[1]:",
        "if count == len(text) - 1:",
        "a pair at every position makes the text constant only when its halves agree: 01 takes one step",
        ("tests/test_baselines.py::TestEtc",),
    ),
    Mutant(
        "lz76-resume-point", "src/dpe/baselines.py",
        "k = data.find(data[i:j], k + 1, j - 1)",
        "k = data.find(data[i:j], k + 2, j - 1)",
        "a match of the grown phrase may start right after the last one that failed",
        ("tests/test_baselines.py::TestOracles", "tests/test_baselines.py::TestLz76"),
    ),
    Mutant(
        "align-one-position", "src/dpe/seqcore.py",
        "if usable < 2:",
        "if usable < 1:",
        "a pair with fewer than 2 shared positions has no flip to score and is skipped",
        ("tests/test_seqcore.py::TestAlignPair", "tests/test_bench.py::TestRunGenomic"),
    ),
    Mutant(
        "sweep-builds-patterns", "src/dpe/bench.py",
        "hbar_xy = report.score_xy.h_bar",
        "hbar_xy = report.score_xy.h_bar + 0 * len(report.deterministic_patterns)",
        "a sweep reads verdicts and h_bar only, so it must build no pattern object",
        ("tests/test_bench.py::TestRunSweep",),
    ),
    Mutant(
        "scoring-reads-segments", "src/dpe/core.py",
        "rows = _pattern_bytes(dictionary._segment_data(), dictionary.index)",
        "rows = _pattern_bytes([seg.data for seg in dictionary.segments], dictionary.index)",
        "scoring reads the flip dictionary's rows, so a sweep builds no segment object",
        ("tests/test_bench.py::TestRunSweep::test_one_trial_builds_no_segment",),
    ),
    Mutant(
        "independent-count", "src/dpe/bench.py",
        "1 for o in outcomes if o.verdicts[method] == Direction.INDEPENDENT",
        "1 for o in outcomes if o.verdicts[method] != Direction.INDEPENDENT",
        "the independent column counts independent verdicts",
        ("tests/test_golden.py::test_outputs_match_recorded_digests",),
    ),
    Mutant(
        "series-of-one-symbol", "src/dpe/synth.py",
        'and length - drop < 2:  # sparse drops nothing',
        'and length - drop < 1:  # sparse drops nothing',
        "a battery whose series hold one symbol fails before its first trial, not inside it",
        ("tests/test_bench.py::TestBenchSpecValues",),
    ),
    Mutant(
        "sparse-advance-short", "src/dpe/synth.py",
        "rng.advance(2 * n - 2)",
        "rng.advance(2 * n - 4)",
        "a sparse trial leaves the stream where the latent recursion's 2n normals leave it",
        ("tests/test_synth.py::TestSparse", "tests/test_golden.py::test_generated_trials_match_recorded_digests"),
    ),
    Mutant(
        "sparse-spare-dropped", "src/dpe/synth.py",
        "rng.normals(2)",
        "rng.uniforms(2)",
        "the last pair of the sparse advance replaces a cached Box-Muller spare, as the normals did",
        ("tests/test_synth.py::TestSparse",),
    ),
    Mutant(
        "sparse-shift", "src/dpe/synth.py",
        'b"\\0" + x[:-1]',
        'b"\\0\\0" + x[:-2]',
        "the second process is observed one instant after the first",
        ("tests/test_synth.py::TestSparse",),
    ),
    Mutant(
        "rng-lane-order", "src/dpe/rng.py",
        "out[first : first + count] = block.T.ravel()[:count]",
        "out[first : first + count] = block.ravel()[:count]",
        "lane k holds the k-th block of the stream, so the draws come lane by lane",
        ("tests/test_synth.py::TestBlockDraws",),
    ),
    Mutant(
        "rng-kept-state", "src/dpe/rng.py",
        "self._state = int(out[first + count - 1])",
        "self._state = int(out[first])",
        "the next draw resumes after the last state handed out",
        ("tests/test_synth.py::TestBlockDraws",),
    ),
    Mutant(
        "rng-jump-spacing", "src/dpe/rng.py",
        "for _ in range(_BLOCK):",
        "for _ in range(_BLOCK - 1):",
        "jump row k starts lane k, so consecutive rows lie _BLOCK states apart",
        ("tests/test_synth.py::TestBlockDraws",),
    ),
    Mutant(
        "rng-advance-remainder", "src/dpe/rng.py",
        "for _ in range(rest):",
        "for _ in range(rest + 1):",
        "an advance of n states takes n % _BLOCK single steps after its whole lanes",
        ("tests/test_synth.py::TestBlockDraws", "tests/test_synth.py::TestSparse"),
    ),
    Mutant(
        "rng-odd-spare", "src/dpe/rng.py",
        "if (n - head) % 2:",
        "if (n - head) % 2 == 0:",
        "an odd count of normals keeps the pair's second value for the next draw",
        ("tests/test_synth.py::TestBlockDraws",),
    ),
)


def _pytest(copy: Path, tests: tuple[str, ...]) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(copy / "src"), PYTHONDONTWRITEBYTECODE="1")
    argv = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *tests]
    return subprocess.run(argv, cwd=copy, env=env, capture_output=True, text=True)


def _fresh_copy(scratch: Path) -> Path:
    copy = scratch / "repo"
    shutil.rmtree(copy, ignore_errors=True)
    ignore = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
    for part in ("src", "tests", "pyproject.toml"):
        source = ROOT / part
        if source.is_dir():
            shutil.copytree(source, copy / part, ignore=ignore)
        else:
            shutil.copy2(source, copy / part)
    return copy


def _apply(copy: Path, mutant: Mutant) -> None:
    path = copy / mutant.path
    text = path.read_text(encoding="utf-8")
    found = text.count(mutant.old)
    if found != 1:
        raise SystemExit(f"{mutant.name}: expected one {mutant.old!r} in {mutant.path}, found {found}")
    path.write_text(text.replace(mutant.old, mutant.new), encoding="utf-8")


def main(names: list[str]) -> int:
    unknown = set(names) - {m.name for m in MUTANTS}
    if unknown:
        print(f"unknown mutants: {', '.join(sorted(unknown))}", file=sys.stderr)
        return 2
    chosen = [m for m in MUTANTS if not names or m.name in names]
    with tempfile.TemporaryDirectory(prefix="dpe-mutation-") as scratch:
        tests = tuple(dict.fromkeys(t for m in chosen for t in m.tests))
        baseline = _pytest(_fresh_copy(Path(scratch)), tests)
        if baseline.returncode != 0:
            print(baseline.stdout + baseline.stderr, file=sys.stderr)
            print("the unmutated copy fails its tests", file=sys.stderr)
            return 2
        survivors = []
        for mutant in chosen:
            copy = _fresh_copy(Path(scratch))
            _apply(copy, mutant)
            killed = _pytest(copy, mutant.tests).returncode != 0
            print(f"{'killed  ' if killed else 'SURVIVED'} {mutant.name}: {mutant.reason}")
            if not killed:
                survivors.append(mutant.name)
    print(f"{len(chosen) - len(survivors)}/{len(chosen)} mutants killed")
    return 1 if survivors else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
