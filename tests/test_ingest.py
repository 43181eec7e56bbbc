"""Bytes-canonical ingest against the per-character oracles.

``load_fasta`` maps whole records through byte tables and ``align_pair``
masks with numpy; ``naive_load_fasta`` and ``naive_align`` in
``tests/oracles.py`` are the old character-by-character and index-list
versions. Both must give the same identifiers, symbols and masks, or the
same error.
"""

import os
import subprocess
import sys
import tempfile
from pathlib import Path

import hypothesis.strategies as st
import pytest
from hypothesis import given

from dpe.errors import InputError
from dpe.seqcore import MaskedSequence, SymbolSequence, align_pair, load_fasta
from oracles import naive_align, naive_load_fasta

# lower case, IUPAC codes, gaps, characters whose upper case is not one
# ASCII letter (ß -> SS) or is an ASCII letter other than ACGT (ı -> I,
# ſ -> S), fullwidth Ａ, and interior whitespace that str.strip() removes
# only at the ends of a line
SEQUENCE_CHARS = tuple("ACGTacgt") + tuple("NnRYKMSWBDHV-*.") + (
    "ß", "ı", "ſ", "Ａ", "ａ", "é", " ", "\t", "\xa0", "　",
)
LINE_ENDS = ("\n", "\r\n", "\r", "\x0b", "\x85", " ")


@st.composite
def fasta_texts(draw):
    """FASTA-like text: headers, folded sequence lines with runs of N, blank lines."""
    lines = []
    if draw(st.integers(min_value=1, max_value=8)) == 1:
        lines.append("ACGT")  # data before any header
    for _ in range(draw(st.integers(min_value=0, max_value=4))):
        ident = draw(st.sampled_from(("r1", "rec two", "", " spaced", "r\tt", "ß")))
        lines.append(">" + ident)
        for _ in range(draw(st.integers(min_value=0, max_value=4))):
            kind = draw(st.integers(min_value=1, max_value=6))
            if kind == 1:
                lines.append("")
            elif kind == 2:
                lines.append("N" * draw(st.integers(min_value=1, max_value=30)))
            else:
                chars = st.sampled_from(SEQUENCE_CHARS)
                lines.append("".join(draw(st.lists(chars, min_size=1, max_size=40))))
    ends = st.sampled_from(LINE_ENDS)
    return "".join(line + draw(ends) for line in lines)


def outcome(fn, *args):
    try:
        return fn(*args)
    except InputError as exc:
        return type(exc), str(exc)


def as_tuples(records):
    if isinstance(records, tuple):  # an error
        return records
    return [(r.identifier, r.seq.symbols, r.masked.ambiguous) for r in records]


class TestLoadFastaOracle:
    @given(fasta_texts())
    def test_matches_oracle(self, text):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "in.fa"
            path.write_bytes(text.encode("utf-8"))
            assert as_tuples(outcome(load_fasta, path)) == outcome(naive_load_fasta, path)

    def test_non_ascii_look_alikes_are_masked(self, tmp_path):
        path = tmp_path / "a.fa"
        path.write_text(">r\nAßıſＡ a\tc\n", encoding="utf-8")
        (rec,) = load_fasta(path)
        assert rec.seq.symbols == (0, 0, 0, 0, 0, 0, 0, 0, 1)
        assert rec.masked.ambiguous == (False, True, True, True, True, True, False, True, False)
        assert as_tuples([rec]) == naive_load_fasta(path)

    def test_crlf_and_blank_lines(self, tmp_path):
        path = tmp_path / "a.fa"
        path.write_bytes(b">r desc\r\nAC\r\n\r\n  gt \r\n>s\r\nNNA\r\n")
        got = as_tuples(load_fasta(path))
        assert got == naive_load_fasta(path)
        assert got == [
            ("r", (0, 1, 2, 3), (False,) * 4),
            ("s", (0, 0, 0), (True, True, False)),
        ]

    def test_missing_file_is_an_input_error(self, tmp_path):
        path = tmp_path / "absent.fa"
        assert outcome(load_fasta, path) == outcome(naive_load_fasta, path)


@st.composite
def masked_pairs(draw):
    """Two sequences of unequal lengths with masks dense enough to reach 0-3 usable positions."""
    alphabet = draw(st.sampled_from((1, 2, 4, 256)))
    sides = []
    for _ in range(2):
        n = draw(st.integers(min_value=0, max_value=12))
        symbols = draw(st.lists(st.integers(0, alphabet - 1), min_size=n, max_size=n))
        seq = SymbolSequence(tuple(symbols), alphabet)
        kind = draw(st.integers(min_value=1, max_value=4))
        if kind == 1:
            sides.append(seq)  # unmasked
            continue
        density = draw(st.sampled_from((0.0, 0.5, 0.8, 1.0)))
        mask = [draw(st.floats(0, 1)) < density for _ in range(n)]
        if kind == 2:
            sides.append(MaskedSequence(seq, bytes(mask)))
        else:
            sides.append(MaskedSequence(seq, tuple(mask)))
    return sides


def aligned(a, b):
    got = outcome(align_pair, a, b)
    return got if isinstance(got, tuple) else (got.x.symbols, got.y.symbols)


class TestAlignPairOracle:
    @given(masked_pairs())
    def test_matches_oracle(self, pair):
        a, b = pair
        assert aligned(a, b) == outcome(naive_align, a, b)

    @pytest.mark.parametrize("usable", [0, 1, 2, 3])
    def test_usable_position_boundary(self, usable):
        n = 8
        mask = (True,) * (n - usable) + (False,) * usable
        a = MaskedSequence(SymbolSequence((0, 1, 2, 3) * 2, 4), mask)
        b = SymbolSequence((3, 2, 1, 0) * 2 + (1,), 4)
        got = aligned(a, b)
        assert got == outcome(naive_align, a, b)
        if usable < 2:
            assert got[1] == f"aligned pair has {usable} usable positions, need >= 2"
        else:
            assert len(got[0]) == len(got[1]) == usable

    def test_mask_of_bytes_and_of_bools_agree(self):
        seq = SymbolSequence((0, 1, 2), 4)
        from_bytes = MaskedSequence(seq, b"\x00\x07\x01")
        from_bools = MaskedSequence(seq, (False, True, True))
        assert from_bytes == from_bools
        assert from_bytes.ambiguous == (False, True, True)
        assert type(from_bytes.ambiguous) is tuple

    def test_mask_length_must_match(self):
        with pytest.raises(ValueError, match="mask length"):
            MaskedSequence(SymbolSequence((0, 1), 2), b"\x00")


TINY_FASTA = {
    "ref.fa": ">REF reference\nACGTACGTTGCANNACGTAC\nGGTACCATGCATGCAA\n",
    "cw.fa": ">CW first\r\nACGTACGaTGCAACACGTAC\r\nGGTTCCATGCRTGCAA\r\n",
    "cands/a.fa": ">A\nACGTTCGTTGCANNACGTACGG\nTACCATGCATG\n",
    "cands/b.fasta": ">B one\nACGAACGTTGCAGTACGTAC\n\nGGTACCATGTATGCAA\n>C\nTTTTACGTACGAACGTAGGCATGCAA\n",
}

PAIR_CSV = "".join(f"{(i * 37) % 11 - 5},{(i * 53 + 7) % 13 - 6}\n" for i in range(120))


def run_cli(args, hash_seed, cwd):
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONHASHSEED=str(hash_seed))
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-m", "dpe.cli", *args], cwd=cwd, env=env, capture_output=True
    )
    assert proc.returncode == 0, proc.stderr.decode()
    return proc.stdout


def test_outputs_do_not_depend_on_the_hash_seed(tmp_path):
    """Bytes hashes are salted per process; no output may depend on them."""
    for name, text in TINY_FASTA.items():
        (tmp_path / name).parent.mkdir(exist_ok=True)
        (tmp_path / name).write_bytes(text.encode("utf-8"))
    (tmp_path / "pair.csv").write_text(PAIR_CSV)
    outputs = []
    for seed in (0, 1):
        out = tmp_path / f"seed{seed}"
        out.mkdir()
        run_cli(["infer", "--input", "pair.csv", "--graph", f"{out}/graph.jsonl",
                 "--out", f"{out}/report.txt"], seed, tmp_path)
        (out / "demo.txt").write_bytes(run_cli(["demo-worked-example"], seed, tmp_path))
        run_cli(["genomic", "--reference", "ref.fa", "--cw", "cw.fa", "--candidates", "cands",
                 "--out", f"{out}/genomic.csv"], seed, tmp_path)
        outputs.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
    assert sorted(outputs[0]) == ["demo.txt", "genomic.csv", "graph.jsonl", "report.txt"]
    assert outputs[0] == outputs[1]
