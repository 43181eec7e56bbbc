"""Self-tests of the benchmark, on its seconds-long smoke mode.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracing  # noqa: E402
from workloads import NO_SPANS, WORKLOADS, GenomicWorkload  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd, capture_output=True, text=True,
        timeout=170,
    )


def smoke(workload, trace, cwd=ROOT):
    proc = bench("--workload", workload, "--seed", "3", "--seconds", "1", "--trace", str(trace),
                 "--smoke", cwd=cwd)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_is_printed_with_its_unit(workload, trace):
    result = smoke(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == {
        name: m["unit"] for name, m in result["metrics"].items()
    }
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())


def _copy_checkout(dest: Path, with_program: bool):
    shutil.copy(ROOT / "BENCHMARK.json", dest)
    shutil.copytree(HERE, dest / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    if with_program:
        shutil.copytree(ROOT / "src", dest / "src", ignore=shutil.ignore_patterns("__pycache__"))
        (dest / "tests").mkdir()
        shutil.copy(ROOT / "tests" / "oracles.py", dest / "tests")


def test_gate_fails_when_a_recorded_digest_is_altered(tmp_path):
    _copy_checkout(tmp_path, with_program=True)
    digests = json.loads((tmp_path / "perfbench" / "digests.json").read_text())
    digests["sweep-sparse"] = digests["sweep-sparse"][::-1]
    (tmp_path / "perfbench" / "digests.json").write_text(json.dumps(digests))
    result = smoke("sweep-sparse", 0, cwd=tmp_path)
    assert result["correct"] is False and result["failed"] == 1


def test_benchmark_without_the_program_exits_nonzero_and_prints_no_result(tmp_path):
    _copy_checkout(tmp_path, with_program=False)
    proc = bench("--workload", "sweep-ar1", "--seed", "1", "--seconds", "1", "--trace", "0",
                 cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_and_untraced_rounds_give_identical_outputs(name, tmp_path):
    mods, _ = run.load_program()
    workload = GenomicWorkload(candidates=2) if name == "genomic" else WORKLOADS[name]
    inputs = workload.make_round(7, 1)
    plain = workload.run_round(mods, inputs, NO_SPANS, tmp_path)
    tracer = tracing.Tracer(mods)
    tracer.begin_round(0, len(plain.item_s))
    tracer.install()
    try:
        traced = workload.run_round(mods, inputs, tracer, tmp_path)
    finally:
        tracer.uninstall()
    tracer.end_round()
    assert plain.failures == traced.failures == []
    assert traced.text == plain.text
    assert mods.core.score_direction.__name__ == "score_direction"  # hooks are gone again
    assert any(s.name == "core.extraction" for s in tracer.spans)


def test_pair_ops_match_a_pairwise_count():
    lengths = [2, 2, 3, 7, 40, 40, 41, 200]
    pairs = small = vector = 0
    for i in range(len(lengths)):
        for j in range(i + 1, len(lengths)):
            a, b = sorted((lengths[i], lengths[j]))
            ops = a * (b - a + 1)
            pairs += 1
            small += ops if ops <= tracing.SMALL_PAIR_OPS else 0
            vector += ops if ops > tracing.SMALL_PAIR_OPS else 0
    assert tracing.pair_ops(lengths) == (pairs, small, vector)


def test_segments_cut_counts_the_dictionary_before_deduplication():
    mods, _ = run.load_program()
    target = mods.seqcore.SymbolSequence.from_text("0110100110010110001110100101101")
    # a source of all-distinct symbols makes every cut segment distinct
    source = mods.seqcore.SymbolSequence(tuple(range(len(target))), len(target))
    dictionary = mods.core.build_flip_dictionary(source, target)
    assert tracing.segments_cut(target.data) == len(dictionary.segments) > 0
