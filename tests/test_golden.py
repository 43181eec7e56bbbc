"""Byte-identity of the program's outputs: sha256 of every user-visible file.

The demo text, two ``dpe infer`` reports with their pattern graphs, one
``dpe bench`` CSV per family at seed 42, an ar1 CSV run on two workers and a
``dpe genomic`` CSV over a small FASTA set are produced in-process through ``cli.main`` and compared with digests recorded
from the program. Pattern order sets the report rows and the summation order
of ``h_bar``, so a refactor that reorders anything shows up here.

The generator digests cover ``generate_trial`` for every family at several
values, seeds, stream indices and lengths (none a multiple of the random
stream's block size), with the stream's next word after the trial.
"""

import hashlib
import random

import pytest

from dpe import cli
from dpe.rng import RngStream
from dpe.synth import generate_trial

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
    "genomic": "671317221ee6ffaedeee71e69c9149d697eeddb0a07a421f2d022b7cbce42e56",
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


def _fasta_set(root):
    """A reference, a first in-country sequence and a candidate directory: point
    mutants of one random genome, with N runs to mask and one all-N candidate
    that no reference can be aligned with."""
    rng = random.Random(2025)
    genome = [rng.choice("ACGT") for _ in range(900)]

    def mutant(rate, masked=0):
        bases = [rng.choice("ACGT") if rng.random() < rate else b for b in genome]
        at = rng.randrange(len(bases) - masked)
        bases[at : at + masked] = "N" * masked
        return "".join(bases)

    (root / "ref.fa").write_text(f">ref\n{''.join(genome)}\n", encoding="utf-8")
    (root / "cw.fa").write_text(f">cw\n{mutant(0.05)}\n", encoding="utf-8")
    candidates = root / "testland"
    candidates.mkdir()
    first = "".join(f">c{i}\n{mutant(0.02 * i, masked=5 * i)}\n" for i in range(1, 6))
    (candidates / "a.fa").write_text(first, encoding="utf-8")
    (candidates / "b.fasta").write_text(f">c6\n{mutant(0.3)}\n>gap\n{'N' * 50}\n", encoding="utf-8")
    return root / "ref.fa", root / "cw.fa", candidates


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
    fasta = tmp_path / "fasta"
    fasta.mkdir()
    reference, cw, candidates = _fasta_set(fasta)
    csv = tmp_path / "genomic.csv"
    _run(["genomic", "--reference", str(reference), "--cw", str(cw),
          "--candidates", str(candidates), "--out", str(csv)])
    out["genomic"] = csv.read_bytes()
    capsys.readouterr()
    return out


def test_outputs_match_recorded_digests(tmp_path, capsys):
    got = {name: hashlib.sha256(data).hexdigest() for name, data in _capture(tmp_path, capsys).items()}
    assert got == DIGESTS


# (family, value, length, drop, seed, stream index) -> sha256
GENERATOR_DIGESTS = {
    ("delay_bitflip", 0.0, 8, 0, 0, 0): "657b7b5a10d09398ecf77a8faba84efd44b91954b006443c0f39e1079c329216",
    ("delay_bitflip", 3.0, 101, 0, 42, 5): "70b4635efd1ec6553d09e0f0274dd9853ce46d02d33d5879d77a852329485c85",
    ("delay_bitflip", 6.0, 1023, 0, 2**64 - 1, 7): "adf1fa0abdfbe464b8cb00393743b5fb9c29338bcf687b1ecb982b3db88cb769",
    ("delay_bitflip", 2.0, 4097, 0, 12345, 0): "e9ba55b6a7f4d2af50b0c763a4b259fcd5ea62900941c8edf5a2faaf10bc8c10",
    ("delay_bitflip", 5.0, 9001, 0, -3, 299): "3a03f497d372592caeb2555841e49ee97d08641ae732128c7372b0c25af5319e",
    ("ar1", 0.0, 10, 0, 0, 0): "9ba0a7059ab088b0aa5b3c80b76dce6e46e05111a2f81feb7a1d4759fddf76a7",
    ("ar1", 0.35, 1500, 500, 42, 1): "0ff43d1901f9461bb71df02ee33ab11f832e5fbcab1c0bd0b5ac9dea5989e094",
    ("ar1", 0.95, 777, 33, 2**63 + 11, 299): "6c061f04c76c441bdb00f38a200964aaa7f8eec96e116bea6c02572a0568c499",
    ("ar1", 0.5, 4099, 99, 7, 10**6): "f843832ac45d111a51e08e7aec7506ebeb41769b5e9c50675f8c2d15469ae086",
    ("skew_tent", 0.0, 10, 3, 0, 0): "5ae570b8b6701eef266a438e481fde74658a605ad084fabe38977b4e7aa3f289",
    ("skew_tent", 0.3, 1500, 500, 42, 2): "66980e9ac1b35fe416377310420b9f3f1413367400a96862257cb38f911ee5ca",
    ("skew_tent", 0.9, 333, 1, -3, 17): "137ab2d0359153fa87e4d9a375c3c0f0308b42ad348af2d1fcd6a4d7c685618d",
    ("sparse", 1.0, 50, 0, 0, 0): "978aad8abce19130d2942a3076099fffcee0d5565c9594787a3acb18e2e292de",
    ("sparse", 25.0, 2000, 0, 42, 3): "604567bfd6bbe496418c55fb33c881497c7dda46d5e53e8f058f6d762b5d72fc",
    ("sparse", 50.0, 1237, 0, 2**64 - 1, 299): "90653e67c9188bca052e6873cf7b21ddf83c230aebe579d024b16baa4827c5b6",
    ("sparse", 17.0, 4500, 0, 9, 10**6): "9e9494889057627fdded5e010b1bc00e51b4e757335f087a2d33efba8f68b0f5",
}


@pytest.mark.parametrize("case", GENERATOR_DIGESTS)
def test_generated_trials_match_recorded_digests(case):
    family, value, length, drop, seed, stream_index = case
    rng = RngStream(seed, stream_index)
    pair = generate_trial(family, value, length, drop, rng)
    digest = hashlib.sha256(bytes(pair.x.symbols) + b"|" + bytes(pair.y.symbols) + b"|")
    digest.update(f"{pair.ground_truth.value}|{int(rng._words(1)[0])}".encode())
    assert digest.hexdigest() == GENERATOR_DIGESTS[case]
