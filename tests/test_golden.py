"""Byte-identity of the program's outputs: sha256 of every user-visible file.

The demo text, two ``dpe infer`` reports with their pattern graphs, one
``dpe bench`` CSV per family at seed 42 and an ar1 CSV run on two workers are
produced in-process through ``cli.main`` and compared with digests recorded
from the program. Pattern order sets the report rows and the summation order
of ``h_bar``, so a refactor that reorders anything shows up here.
"""

import hashlib
import random

from dpe import cli

DIGESTS = {
    "demo": "9dfc298ce9da4c1af1a7aacb0feaa1975435d3b38c8f743ccebffd1e70921262",
    "infer-equiwidth": "9d8942abf40883c6163325749f233bc0497fdee4aefa8b2c9b2f610b27023f47",
    "graph-equiwidth": "e029bb9f23c7805c224ac3050ce5c38e756fd794aae0dd588b63f33eba34b4fc",
    "infer-nonzero": "371d6d3e0efc11eed87b84d9b945579c8d6646438c271d408f9568546ba8ebe9",
    "graph-nonzero": "c683c854baaeed58e1c2675fba309f7b5be11229589b8c48906d55d7e18093c0",
    "bench-delay-w1": "dd6c1f738a10a8e032e5b99adf5751abe9709a4c889cbfc8100654eca8f026c1",
    "bench-ar1-w1": "47938f1531e72dd65f61954e567097548e66ecf787facd96e42796f5a05c0f6f",
    "bench-tent-w1": "a9012a5655182a2d135eb02c3669a62adff8c37673a3d947b1fa5a04040d7c96",
    "bench-sparse-w1": "dde8f46330bc6aaaec2e1a1e0444ce8841e6a2c5330eb90fc4295d6bede9ff13",
    "bench-ar1-w2": "47938f1531e72dd65f61954e567097548e66ecf787facd96e42796f5a05c0f6f",
}

BENCH_FAMILIES = ("delay", "ar1", "tent", "sparse")


def _pair_csv(path):
    """Two coupled columns, zero-heavy so that both binarizers see structure."""
    rng = random.Random(2024)
    x_prev = 0.0
    rows = ["x,y"]
    for _ in range(240):
        x = rng.gauss(0.0, 1.0) if rng.random() < 0.6 else 0.0
        y = 0.8 * x_prev + rng.gauss(0.0, 0.3) if rng.random() < 0.7 else 0.0
        rows.append(f"{x:.6f},{y:.6f}")
        x_prev = x
    path.write_text("\n".join(rows) + "\n", encoding="utf-8")


def _run(argv):
    assert cli.main(argv) == 0, argv


def _capture(tmp_path, capsys):
    """Name -> bytes of every output the digests cover."""
    out = {}
    capsys.readouterr()
    _run(["demo-worked-example"])
    out["demo"] = capsys.readouterr().out.encode("utf-8")
    pair = tmp_path / "pair.csv"
    _pair_csv(pair)
    for mode in ("equiwidth", "nonzero"):
        report, graph = tmp_path / f"{mode}.txt", tmp_path / f"{mode}.jsonl"
        _run(["infer", "--input", str(pair), "--binarize", mode,
              "--out", str(report), "--graph", str(graph)])
        out[f"infer-{mode}"] = report.read_bytes()
        out[f"graph-{mode}"] = graph.read_bytes()
    runs = [(family, "1") for family in BENCH_FAMILIES] + [("ar1", "2")]
    for family, workers in runs:
        csv = tmp_path / f"{family}-w{workers}.csv"
        _run(["bench", "--family", family, "--seed", "42", "--trials", "2",
              "--methods", "dpe,lzp,etcp,etce", "--workers", workers, "--out", str(csv)])
        out[f"bench-{family}-w{workers}"] = csv.read_bytes()
    capsys.readouterr()
    return out


def test_outputs_match_recorded_digests(tmp_path, capsys):
    got = {name: hashlib.sha256(data).hexdigest() for name, data in _capture(tmp_path, capsys).items()}
    assert got == DIGESTS
