"""Traffic on each side of every fork in ``src/dpe``: the counts behind README's fork table.

The benchmark's workloads run in process at seed 42 (30 ``run_sweep`` items of
each sweep, 60 directions each, and one genomic round of 8 candidates, 32
directions), with a spy on the function at each fork. A spy reads the
function's arguments and result, or recomputes the fork's own rule from
them, and calls the function unchanged, so the outputs are those of an
untraced run.

    PYTHONPATH=src python tests/fork_traffic.py             # every workload
    PYTHONPATH=src python tests/fork_traffic.py genomic     # the named ones only

Prints one block of counts per workload. pytest does not collect this file,
as its name does not start with ``test_``.
"""

from __future__ import annotations

import sys
import tempfile
from collections import Counter
from contextlib import ExitStack
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

from workloads import DEFAULT_SEED, WORKLOADS  # noqa: E402

from dpe import baselines, bench, cli, core, errors, rng, seqcore, synth  # noqa: E402

SWEEP_ITEMS = 30
GENOMIC_CANDIDATES = 8


def spies(tally: Counter, shares: list):
    """Patches that count each fork's sides into ``tally``, and each filtered
    level's share of starts into ``shares``, and call through."""
    originals = {name: getattr(core, name) for name in (
        "score_direction", "_anchors_pay", "_occurrences", "_anchored_occurrences", "_level_starts",
        "_table_lookup", "_sorted_lookup", "_first_by_content", "_block_ids", "_first_windows",
        "_pattern_bytes",
    )}
    top_pair, states, advance, lexsort = baselines._top_pair, rng.RngStream._states, rng.RngStream.advance, np.lexsort
    picked = []  # the rule's last pick: True for the anchored side

    def score_direction(*args, **kwargs):
        tally["directions"] += 1
        return originals["score_direction"](*args, **kwargs)

    def anchors_pay(*args):
        picked.append(originals["_anchors_pay"](*args))
        tally["counting: anchored" if picked[-1] else "counting: scan"] += 1
        return picked[-1]

    def occurrences(lengths, at, index):
        out = originals["_occurrences"](lengths, at, index)
        if not picked.pop():  # scanned: classify each level as the scan's gates do
            n = index.ids.shape[1]
            for k in sorted({int(length).bit_length() - 1 for length in lengths.tolist()}):
                if n - (1 << k) + 1 <= core._CHUNK // 8:
                    tally["scan level: every position by the one-chunk gate"] += 1
                elif index.bound[k] > core._CHUNK:
                    tally["scan level: every position by the id-bound gate"] += 1
                else:
                    tally["scan level: start filter"] += 1
        return out

    def anchored_occurrences(lengths, at, flags, prefix, index):
        before = np.concatenate(([0], flags.cumsum()))  # changes before each flag
        changing = int(np.count_nonzero(before[at + lengths - 1] > before[at]))
        tally["anchored: changing patterns"] += changing
        tally["anchored: run patterns"] += len(lengths) - changing
        return originals["_anchored_occurrences"](lengths, at, flags, prefix, index)

    def level_starts(level, left, bound):
        starts = originals["_level_starts"](level, left, bound)
        if len(np.unique(left)) == bound:
            tally["start filter: every-id exit"] += 1
        elif starts is None:
            tally["start filter: half rule"] += 1
        else:
            tally["start filter: filtered"] += 1
            shares.append(len(starts) / len(level))
        return starts

    def table_lookup(keys, table):
        tally["scan lookup: dense table (lengths)"] += 1
        return originals["_table_lookup"](keys, table)

    def sorted_lookup(keys):
        tally["scan lookup: sorted search (lengths)"] += 1
        return originals["_sorted_lookup"](keys)

    def first_by_content(*args):
        calls = tally["lexsort calls"]
        out = originals["_first_by_content"](*args)
        wide = tally["lexsort calls"] > calls
        tally["content dedupe: lexsort" if wide else "content dedupe: packed sort"] += 1
        return out

    def counted_lexsort(*args, **kwargs):
        tally["lexsort calls"] += 1
        return lexsort(*args, **kwargs)

    def block_ids(arr, top):
        ids, bound = originals["_block_ids"](arr, top)
        ranked = any(int(b) ** 2 >= 1 << 31 for b in bound[:-1].tolist())
        tally["block ids: a ranked level" if ranked else "block ids: packed only"] += 1
        return ids, bound

    def first_windows(*args):
        skip = args[-1] is not None  # the change prefix
        tally["extraction windows: change-prefix skip" if skip else "extraction windows: every window"] += 1
        return originals["_first_windows"](*args)

    def pattern_bytes(segment_data, index=None):
        tally["extraction data: packed copy" if index is None else "extraction data: cause index"] += 1
        return originals["_pattern_bytes"](segment_data, index)

    def counted_top_pair(text, fresh):
        tally["ETC counter: byte" if fresh <= 256 else "ETC counter: sorted"] += 1
        return top_pair(text, fresh)

    def counted_states(self, n):
        if n > rng._LANES * rng._BLOCK:
            tally["RngStream._states: several passes"] += 1
        else:
            tally["RngStream._states: one lane" if n <= rng._BLOCK else "RngStream._states: jump rows"] += 1
        return states(self, n)

    def counted_advance(self, n):
        rows = -(-(n // rng._BLOCK) // (rng._LANES - 1))
        tally["RngStream.advance: several rows" if rows > 1 else "RngStream.advance: one row"] += 1
        return advance(self, n)

    wrapped = {
        "score_direction": score_direction, "_anchors_pay": anchors_pay, "_occurrences": occurrences,
        "_anchored_occurrences": anchored_occurrences, "_level_starts": level_starts,
        "_table_lookup": table_lookup, "_sorted_lookup": sorted_lookup, "_first_by_content": first_by_content,
        "_block_ids": block_ids, "_first_windows": first_windows, "_pattern_bytes": pattern_bytes,
    }
    patches = [mock.patch.object(core, name, spy) for name, spy in wrapped.items()]
    patches += [
        mock.patch.object(np, "lexsort", counted_lexsort),
        mock.patch.object(baselines, "_top_pair", counted_top_pair),
        mock.patch.object(rng.RngStream, "_states", counted_states),
        mock.patch.object(rng.RngStream, "advance", counted_advance),
    ]
    return patches


def traffic(name: str) -> tuple[Counter, list]:
    """The fork counts of one workload's seed-42 items, and the filtered levels' shares of starts."""
    mods = SimpleNamespace(baselines=baselines, bench=bench, cli=cli, core=core,
                           errors=errors, rng=rng, seqcore=seqcore, synth=synth)
    workload = WORKLOADS[name]
    tally, shares = Counter(), []
    with ExitStack() as stack, tempfile.TemporaryDirectory() as tmp:
        for patch in spies(tally, shares):
            stack.enter_context(patch)
        if name == "genomic":
            records = workload.make_round(DEFAULT_SEED, 0)[: 2 + GENOMIC_CANDIDATES]
            rounds = [workload.run_round(mods, records, workdir=Path(tmp))]
        else:
            rounds = [workload.run_round(mods, workload.make_round(DEFAULT_SEED, i)) for i in range(SWEEP_ITEMS)]
    failures = [f for r in rounds for f in r.failures]
    if failures:
        raise SystemExit(f"{name}: {failures}")
    del tally["lexsort calls"]
    return tally, shares


def main(argv: list[str]) -> int:
    for name in argv or list(WORKLOADS):
        tally, shares = traffic(name)
        print(f"{name}:")
        for key, count in sorted(tally.items()):
            print(f"  {key}: {count}")
        if shares:
            print(f"  start filter: shares of starts {min(shares):.3f}-{max(shares):.3f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
