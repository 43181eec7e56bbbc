import concurrent.futures
import contextlib
import csv
import io
import random
import subprocess
import sys
from unittest import mock

import pytest

from dpe import bench, cli, core
from dpe.bench import (
    ALL_METHODS,
    genomic_csv_text,
    results_csv_text,
    run_genomic,
    run_sweep,
)
from dpe.errors import DegenerateSeriesWarning, InputError
from dpe.seqcore import Direction, SymbolSequence, align_pair, load_fasta
from dpe.synth import TrialSpec


def small_spec(**overrides):
    base = dict(
        family="delay_bitflip",
        param_name="delay",
        values=(0.0, 2.0),
        length=100,
        drop=0,
        trials=6,
        seed=42,
    )
    base.update(overrides)
    return TrialSpec(**base)


@contextlib.contextmanager
def segment_spies():
    """Spies on the two ways a sequence is cut from another, ``fragment`` and ``_of_valid``."""
    fragment = mock.patch.object(SymbolSequence, "fragment", autospec=True, side_effect=SymbolSequence.fragment)
    of_valid = mock.patch.object(SymbolSequence, "_of_valid", wraps=SymbolSequence._of_valid)
    with fragment as fragment, of_valid as of_valid:
        yield fragment, of_valid


class TestRunSweep:
    def test_counting_identity(self):
        results = run_sweep(small_spec(), methods=("dpe", "lzp"))
        assert len(results) == 4  # 2 values x 2 methods
        for r in results:
            assert 0 <= r.n_correct <= r.trials
            assert 0 <= r.n_independent <= r.trials
            assert r.accuracy == pytest.approx(r.n_correct / r.trials)

    def test_hbar_columns_only_for_dpe(self):
        results = run_sweep(small_spec(), methods=("dpe", "etcp"))
        for r in results:
            if r.method == "dpe":
                assert r.mean_hbar_xy is not None
            else:
                assert r.mean_hbar_xy is None and r.mean_hbar_yx is None

    def test_deterministic_given_seed(self):
        a = run_sweep(small_spec(), methods=("dpe",))
        b = run_sweep(small_spec(), methods=("dpe",))
        assert a == b

    def test_workers_do_not_change_results(self):
        a = run_sweep(small_spec(), methods=("dpe", "lzp"), workers=1)
        b = run_sweep(small_spec(), methods=("dpe", "lzp"), workers=2)
        assert a == b

    def test_one_trial_builds_no_pattern_score(self):
        # the sweep reads verdicts and h_bar only; a report builds its pattern scores when read
        spec = small_spec(family="ar1", param_name="phi", values=(0.5,), length=300, drop=50, trials=1)
        with mock.patch.object(core, "PatternScore", wraps=core.PatternScore) as built:
            dpe_row = run_sweep(spec, ALL_METHODS)[0]
            assert dpe_row.method == "dpe" and dpe_row.mean_hbar_xy is not None
            assert not built.called
            cause, effect = (core.SymbolSequence.from_text(t) for t in ("0110100110", "0011010011"))
            assert core.score_direction(cause, effect).pattern_scores and built.called

    def test_one_trial_builds_no_segment(self):
        # scoring reads the flip dictionary's rows; a dictionary builds its segments when read
        spec = small_spec(family="ar1", param_name="phi", values=(0.5,), length=300, drop=50, trials=1)
        trials = []

        def infer(x, y):
            with segment_spies() as spies:
                report = core.infer_causal_direction(x, y)
            trials.append((x, y, [spy.call_count for spy in spies]))
            return report

        with mock.patch.object(bench, "infer_causal_direction", infer):
            assert run_sweep(spec, ("dpe",))[0].mean_hbar_xy is not None
        (x, y, built), = trials
        assert built == [0, 0]
        with segment_spies() as spies:
            assert core.build_flip_dictionary(x, y).segments
        assert any(spy.called for spy in spies)

    def test_unknown_method(self):
        with pytest.raises(InputError):
            run_sweep(small_spec(), methods=("granger",))

    def test_repeated_method_rejected_before_any_trial(self, monkeypatch):
        trials = []
        monkeypatch.setattr(bench, "generate_trial", lambda *args: trials.append(args))
        with pytest.raises(InputError, match="method 'dpe' is listed more than once"):
            run_sweep(small_spec(), methods=("dpe", "lzp", "dpe"))
        assert trials == []

    @pytest.mark.parametrize("workers", (0, -2))
    def test_workers_below_one(self, workers):
        with pytest.raises(InputError, match=f"workers must be >= 1, got {workers}"):
            run_sweep(small_spec(), workers=workers)

    @pytest.mark.parametrize("methods", (("lzp",), ("etce",), ("etce", "etcp"), ("dpe", "etcp")))
    def test_method_subset_rows_match_an_all_methods_run(self, methods):
        spec = small_spec(family="ar1", param_name="phi", values=(0.0, 0.6),
                          length=400, drop=100, trials=3)
        header, *every_row = results_csv_text(run_sweep(spec, bench.ALL_METHODS)).splitlines()
        rows = results_csv_text(run_sweep(spec, methods)).splitlines()
        assert rows == [header] + [row for row in every_row if row.split(",")[3] in methods]


class SerialPool:
    """Stand-in for ProcessPoolExecutor: records max_workers and chunksize, maps in-process."""

    sizes = []
    chunksizes = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items, chunksize=1):
        self.chunksizes.append(chunksize)
        return map(fn, items)


class TestWorkerCap:
    @pytest.fixture(autouse=True)
    def fake_pool(self, monkeypatch):
        SerialPool.sizes = []
        SerialPool.chunksizes = []
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
        monkeypatch.setattr(bench.os, "cpu_count", lambda: 4)

    def test_pool_capped_at_cpu_count(self):
        serial = run_sweep(small_spec(), methods=("dpe", "lzp"))
        assert run_sweep(small_spec(), methods=("dpe", "lzp"), workers=5000) == serial
        assert SerialPool.sizes == [4]

    def test_pool_capped_at_block_count(self):
        spec = small_spec(values=(1.0, 2.0), trials=1)  # two trials
        assert run_sweep(spec, workers=5000) == run_sweep(spec)
        assert SerialPool.sizes == [2]

    @pytest.mark.parametrize(
        "trials, workers, pool, chunksize",
        ((6, 5000, 4, 1), (9, 2, 2, 2), (20, 3, 3, 2), (40, 5000, 4, 3)),
    )
    def test_chunksize_is_a_quarter_of_a_workers_share(self, trials, workers, pool, chunksize):
        spec = small_spec(trials=trials)  # two values
        assert run_sweep(spec, workers=workers) == run_sweep(spec)
        assert SerialPool.sizes == [pool]
        assert SerialPool.chunksizes == [-(-trials // (4 * pool))] == [chunksize]

    def test_one_block_runs_without_a_pool(self, monkeypatch):
        spec = small_spec(values=(1.0,), trials=1)
        run_sweep(spec, workers=5000)
        monkeypatch.setattr(bench.os, "cpu_count", lambda: None)  # unknown: one core
        run_sweep(small_spec(), workers=3)
        assert SerialPool.sizes == []


def test_import_leaves_the_process_pool_out():
    # only run_sweep with workers > 1 imports it; a fresh interpreter shows what import dpe loads
    code = "import sys, dpe; print(*sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    loaded = proc.stdout.split()
    assert "dpe.bench" in loaded
    assert "concurrent.futures.process" not in loaded and "multiprocessing" not in loaded


def test_mean_sums_left_to_right():
    # a compensated sum (Python 3.12's sum) gives 1.0 / 3
    assert bench._mean([1e16, 1.0, -1e16]) == 0.0
    assert bench._mean([None, 0.5, None, 1.5]) == 1.0
    assert bench._mean([None, None]) is None


class TestEmitResults:
    def test_csv_schema_and_sorting(self, tmp_path):
        results = run_sweep(small_spec(), methods=("dpe", "lzp"))
        text = results_csv_text(results)
        lines = text.splitlines()
        assert lines[0] == (
            "family,parameter,value,method,trials,correct,independent,"
            "accuracy,mean_hbar_xy,mean_hbar_yx,variant"
        )
        assert len(lines) == 1 + 4
        # sorted by (family, value, method): dpe before lzp at each value
        methods = [line.split(",")[3] for line in lines[1:]]
        assert methods == ["dpe", "lzp", "dpe", "lzp"]
        values = [line.split(",")[2] for line in lines[1:]]
        assert values == ["0.000000", "0.000000", "2.000000", "2.000000"]

    def test_baseline_rows_marked_variant_with_blank_hbars(self):
        results = run_sweep(small_spec(), methods=("dpe", "etce"))
        for line in results_csv_text(results).splitlines()[1:]:
            cells = line.split(",")
            if cells[3] == "dpe":
                assert cells[8] and cells[9] and cells[10] == ""
            else:
                assert cells[8] == "" and cells[9] == "" and cells[10] == "variant"

    def test_byte_identical_reruns(self):
        texts = [results_csv_text(run_sweep(small_spec(), methods=("dpe",))) for _ in range(2)]
        assert texts[0] == texts[1]

    def test_empty_results_rejected(self):
        with pytest.raises(InputError):
            results_csv_text([])


REF_FASTA = ">ref\nACGTACGTACGTACGTACGT\n"
CW_FASTA = ">cw\nACGTTCGTACGAACGTACGT\n"
CANDIDATES_FASTA = """>cand1
ACGTACGAACGTTCGTACGT
>cand2
ACGTACGTACGTACGTACGT
>cand3
TTTT
"""


class TestRunGenomic:
    @pytest.fixture()
    def records(self, tmp_path):
        (tmp_path / "ref.fasta").write_text(REF_FASTA)
        (tmp_path / "cw.fasta").write_text(CW_FASTA)
        (tmp_path / "cand.fasta").write_text(CANDIDATES_FASTA)
        rs = load_fasta(tmp_path / "ref.fasta")[0]
        cw = load_fasta(tmp_path / "cw.fasta")[0]
        cands = load_fasta(tmp_path / "cand.fasta")
        return rs, cw, cands

    def test_counting_contract(self, records):
        rs, cw, cands = records
        result = run_genomic(rs, cw, cands, country="testland")
        assert result.country == "testland"
        assert result.n_sequences == 3
        assert result.proportion_h0 is not None and 0.0 <= result.proportion_h0 <= 1.0
        assert result.proportion_h1 is not None and 0.0 <= result.proportion_h1 <= 1.0

    def test_builds_no_pattern_score(self, tmp_path):
        # the genomic path reads verdicts only; a report builds its pattern scores when read
        rng = random.Random(11)
        ref = "".join(rng.choice("ACGT") for _ in range(400))
        mutated = ["".join(rng.choice("ACGT") if rng.random() < 0.1 else c for c in ref) for _ in range(3)]
        (tmp_path / "g.fasta").write_text("".join(f">s{i}\n{t}\n" for i, t in enumerate([ref] + mutated)))
        rs, cw, *cands = load_fasta(tmp_path / "g.fasta")
        with mock.patch.object(core, "PatternScore", wraps=core.PatternScore) as built:
            assert run_genomic(rs, cw, cands, country="t").proportion_h0 is not None
            assert not built.called
            pair = align_pair(rs.masked, cands[0].masked)
            assert core.infer_causal_direction(pair.x, pair.y).score_xy.pattern_scores and built.called

    def test_identical_candidate_counts_in_neither(self, records):
        rs, cw, _ = records
        result = run_genomic(rs, cw, [rs], country="self")
        assert result.proportion_h0 == 0.0  # independent verdict, not a causal hit

    def test_empty_candidates_no_data(self, records):
        rs, cw, _ = records
        result = run_genomic(rs, cw, [], country="none")
        assert result.proportion_h0 is None and result.proportion_h1 is None
        assert "none,0,,," in genomic_csv_text([result])

    def test_proportion_is_hit_fraction(self, records):
        rs, cw, cands = records
        result = run_genomic(rs, cw, cands, country="t")
        # recompute by hand from individual verdicts
        from dpe.core import infer_causal_direction
        from dpe.seqcore import align_pair

        hits = 0
        for cand in cands:
            pair = align_pair(rs.masked, cand.masked)
            if infer_causal_direction(pair.x, pair.y).verdict == Direction.X_CAUSES_Y:
                hits += 1
        assert result.proportion_h0 == pytest.approx(hits / 3)


def write_rows(path, rows):
    path.write_text("".join(f"{a},{b}\n" for a, b in rows))
    return str(path)


class TestPredatorPrey:
    """The ecology case: ``dpe infer --drop 9`` drops the leading transients."""

    def test_drops_transients_and_reports(self, tmp_path):
        rows = [(float(i % 7), float((i + 3) % 5)) for i in range(71)]
        full = write_rows(tmp_path / "full.csv", rows)
        trimmed = write_rows(tmp_path / "trimmed.csv", rows[9:])
        assert cli.main(["infer", "--input", full, "--drop", "9", "--out", str(tmp_path / "a")]) == 0
        assert cli.main(["infer", "--input", trimmed, "--out", str(tmp_path / "b")]) == 0
        report = (tmp_path / "a").read_text()
        assert report == (tmp_path / "b").read_text()
        assert report.splitlines()[0] in (
            f"verdict: {d.value}"
            for d in (Direction.X_CAUSES_Y, Direction.Y_CAUSES_X, Direction.INDEPENDENT)
        )

    def test_too_short_rejected(self, tmp_path, capsys):
        short = write_rows(tmp_path / "short.csv", [(float(i), float(i)) for i in range(9)])
        assert cli.main(["infer", "--input", short, "--drop", "9"]) == 1
        assert "error: --drop 9 leaves no data (have 9 rows)" in capsys.readouterr().err

    def test_constant_series_degenerate_independent(self, tmp_path, capsys):
        flat = write_rows(tmp_path / "flat.csv", [(3.0, 5.0)] * 20)
        with pytest.warns(DegenerateSeriesWarning) as caught:
            assert cli.main(["infer", "--input", flat, "--drop", "9"]) == 0
        assert [w.category for w in caught] == [DegenerateSeriesWarning] * 2
        assert capsys.readouterr().out.startswith("verdict: independent\n")


def run_cli(*args, cwd=None):
    return subprocess.run(
        [sys.executable, "-m", "dpe.cli", *args],
        capture_output=True,
        text=True,
        cwd=cwd,
    )


class TestCli:
    def test_demo_worked_example(self):
        proc = run_cli("demo-worked-example")
        assert proc.returncode == 0
        assert "011101, 11101, 00110011101, 01101" in proc.stdout
        assert "verdict: x_causes_y" in proc.stdout

    def test_infer_on_csv(self, tmp_path):
        rows = ["1.0,0.0"] * 3 + ["0.0,1.0"] * 3
        csv = tmp_path / "pair.csv"
        csv.write_text("\n".join(rows * 4) + "\n")
        out = tmp_path / "report.txt"
        graph = tmp_path / "graph.jsonl"
        proc = run_cli(
            "infer", "--input", str(csv), "--out", str(out), "--graph", str(graph)
        )
        assert proc.returncode == 0, proc.stderr
        assert "verdict:" in out.read_text()
        assert graph.exists()

    def test_infer_binarize_none_requires_integers(self, tmp_path):
        csv = tmp_path / "pair.csv"
        csv.write_text("0.5,1\n1,0\n")
        proc = run_cli("infer", "--input", str(csv), "--binarize", "none")
        assert proc.returncode == 1
        assert "error" in proc.stderr

    def test_infer_binarize_none_rejects_symbols_beyond_255(self, tmp_path):
        csv = tmp_path / "pair.csv"
        csv.write_text("0,1\n300,2\n")
        proc = run_cli("infer", "--input", str(csv), "--binarize", "none")
        assert proc.returncode == 1
        assert "error: --binarize none supports symbols 0..255, got 300" in proc.stderr

    def test_infer_negative_drop_is_input_error(self, tmp_path):
        csv = tmp_path / "pair.csv"
        csv.write_text("0,1\n1,0\n0,1\n")
        proc = run_cli("infer", "--input", str(csv), "--drop", "-1")
        assert proc.returncode == 1
        assert "error: --drop must be >= 0, got -1" in proc.stderr

    def test_infer_missing_file_is_input_error(self, tmp_path):
        proc = run_cli("infer", "--input", str(tmp_path / "nope.csv"))
        assert proc.returncode == 1

    def test_infer_bad_cell_names_row(self, tmp_path):
        csv = tmp_path / "pair.csv"
        csv.write_text("1,2\nx,4\n")
        proc = run_cli("infer", "--input", str(csv))
        assert proc.returncode == 1
        assert "line 2" in proc.stderr

    def test_bench_writes_csv(self, tmp_path):
        out = tmp_path / "results.csv"
        proc = run_cli(
            "bench", "--family", "delay", "--methods", "dpe",
            "--trials", "3", "--seed", "7", "--out", str(out),
        )
        assert proc.returncode == 0, proc.stderr
        lines = out.read_text().splitlines()
        assert lines[0].startswith("family,parameter,value,method")
        assert len(lines) == 1 + 7  # delays 0..6

    def test_seed_defaults_to_42_and_sets_the_battery(self, tmp_path):
        def csv(*seed):
            out = tmp_path / f"r{''.join(seed)}.csv"
            argv = ["bench", "--family", "delay", "--trials", "2", *seed, "--out", str(out)]
            assert cli.main(argv) == 0
            return out.read_bytes()

        assert csv() == csv("--seed", "42") != csv("--seed", "7")

    def test_bench_spec_config(self, tmp_path):
        spec = tmp_path / "spec.cfg"
        spec.write_text(
            "family=delay_bitflip\nparam=delay\nvalues=1.0\n"
            "length=64\ndrop=0\ntrials=2\nseed=5\n"
        )
        out = tmp_path / "r.csv"
        proc = run_cli("bench", "--spec", str(spec), "--out", str(out))
        assert proc.returncode == 0, proc.stderr
        assert len(out.read_text().splitlines()) == 2

    def test_bench_usage_error_exit_code(self, tmp_path):
        proc = run_cli("bench", "--family", "warp", "--out", str(tmp_path / "x.csv"))
        assert proc.returncode == 1

    @pytest.mark.parametrize("command, run", (
        (["bench", "--family", "delay", "--trials", "2"], "run_sweep"),
        (["genomic", "--reference", "r.fa", "--cw", "c.fa", "--candidates", "."], "run_genomic"),
    ))
    def test_missing_out_directory_exits_before_the_run(self, tmp_path, monkeypatch, capsys, command, run):
        started = mock.Mock(side_effect=AssertionError("the run started"))
        monkeypatch.setattr(bench, run, started)
        out = tmp_path / "missing" / "r.csv"
        assert cli.main([*command, "--out", str(out)]) == 1
        assert f"directory {tmp_path / 'missing'} does not exist" in capsys.readouterr().err
        assert not started.called and not out.parent.exists()

    @pytest.mark.parametrize("command, run", (
        (["bench", "--family", "delay", "--trials", "2"], "run_sweep"),
        (["genomic", "--reference", "r.fa", "--cw", "c.fa", "--candidates", "."], "run_genomic"),
    ))
    def test_out_directory_exits_before_the_run(self, tmp_path, monkeypatch, capsys, command, run):
        started = mock.Mock(side_effect=AssertionError("the run started"))
        monkeypatch.setattr(bench, run, started)
        monkeypatch.chdir(tmp_path)
        for out in (str(tmp_path), ""):  # an empty path names the working directory
            assert cli.main([*command, "--out", out]) == 1
            assert f"--out {out} is a directory" in capsys.readouterr().err
        assert not started.called and list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("flag", ("--out", "--graph"))
    @pytest.mark.parametrize("problem", ("is a directory", "does not exist"))
    def test_infer_checks_both_outputs_before_writing_either(self, tmp_path, monkeypatch, capsys, flag, problem):
        csv = tmp_path / "pair.csv"
        csv.write_text("1.0,0.0\n0.0,1.0\n" * 12)
        started = mock.Mock(side_effect=AssertionError("inference started"))
        monkeypatch.setattr(cli, "infer_causal_direction", started)
        paths = {"--out": tmp_path / "report.txt", "--graph": tmp_path / "graph.jsonl"}
        if problem == "is a directory":
            paths[flag].mkdir()
        else:
            paths[flag] = tmp_path / "missing" / paths[flag].name
        argv = ["infer", "--input", str(csv), "--out", str(paths["--out"]), "--graph", str(paths["--graph"])]
        assert cli.main(argv) == 1
        assert f"error: {flag} {paths[flag]}" in capsys.readouterr().err
        assert not started.called
        assert not any(path.is_file() for path in paths.values()) and not (tmp_path / "missing").exists()

    def test_genomic_command(self, tmp_path):
        (tmp_path / "ref.fasta").write_text(REF_FASTA)
        (tmp_path / "cw.fasta").write_text(CW_FASTA)
        cand_dir = tmp_path / "country"
        cand_dir.mkdir()
        (cand_dir / "c.fasta").write_text(CANDIDATES_FASTA)
        out = tmp_path / "genomic.csv"
        proc = run_cli(
            "genomic",
            "--reference", str(tmp_path / "ref.fasta"),
            "--cw", str(tmp_path / "cw.fasta"),
            "--candidates", str(cand_dir),
            "--out", str(out),
        )
        assert proc.returncode == 0, proc.stderr
        lines = out.read_text().splitlines()
        assert lines[0] == "country,n_sequences,prop_h0_rs,prop_h1_cw,skipped_rs,skipped_cw"
        assert lines[1].split(",")[0] == "country"  # the candidates dir name
        assert lines[1].split(",")[1] == "3"
        assert "5%" in proc.stdout

    def test_genomic_csv_quotes_the_country(self, tmp_path):
        (tmp_path / "ref.fasta").write_text(REF_FASTA)
        (tmp_path / "cw.fasta").write_text(CW_FASTA)
        cand_dir = tmp_path / 'Land, "North"'
        cand_dir.mkdir()
        (cand_dir / "c.fasta").write_text(CANDIDATES_FASTA)
        out = tmp_path / "genomic.csv"
        proc = run_cli(
            "genomic",
            "--reference", str(tmp_path / "ref.fasta"),
            "--cw", str(tmp_path / "cw.fasta"),
            "--candidates", str(cand_dir),
            "--out", str(out),
        )
        assert proc.returncode == 0, proc.stderr
        header, row = csv.reader(io.StringIO(out.read_text()))
        assert len(header) == len(row) == 6
        assert row[:2] == ['Land, "North"', "3"]

    @pytest.mark.parametrize("option", ["--reference", "--cw"])
    def test_genomic_rejects_multi_record_reference(self, tmp_path, option):
        (tmp_path / "ref.fasta").write_text(REF_FASTA)
        (tmp_path / "cw.fasta").write_text(CW_FASTA)
        (tmp_path / "two.fasta").write_text(REF_FASTA + CW_FASTA)
        cand_dir = tmp_path / "country"
        cand_dir.mkdir()
        (cand_dir / "c.fasta").write_text(CANDIDATES_FASTA)
        paths = {"--reference": tmp_path / "ref.fasta", "--cw": tmp_path / "cw.fasta"}
        paths[option] = tmp_path / "two.fasta"
        proc = run_cli(
            "genomic",
            "--reference", str(paths["--reference"]),
            "--cw", str(paths["--cw"]),
            "--candidates", str(cand_dir),
            "--out", str(tmp_path / "genomic.csv"),
        )
        assert proc.returncode == 1
        assert f"{tmp_path / 'two.fasta'}: expected one FASTA record, found 2" in proc.stderr
        assert not (tmp_path / "genomic.csv").exists()


class TestUserFileBytes:
    """User files are UTF-8 with or without a byte-order mark; other bytes exit 1."""

    def test_infer_csv_not_utf8_exits_1(self, tmp_path, capsys):
        csv = tmp_path / "pair.csv"
        csv.write_bytes(b"1,0\n0,1\n1,0\xe9\n")
        assert cli.main(["infer", "--input", str(csv)]) == 1
        assert f"error: cannot open {csv}: " in capsys.readouterr().err

    @pytest.mark.parametrize("bad", ("ref.fasta", "cw.fasta", "country/c.fasta"))
    def test_genomic_fasta_not_utf8_exits_1(self, tmp_path, capsys, bad):
        (tmp_path / "country").mkdir()
        for name, text in (("ref.fasta", REF_FASTA), ("cw.fasta", CW_FASTA),
                           ("country/c.fasta", CANDIDATES_FASTA)):
            tail = b">x\xe9\nACGT\n" if name == bad else b""
            (tmp_path / name).write_bytes(text.encode() + tail)
        argv = ["genomic", "--reference", str(tmp_path / "ref.fasta"),
                "--cw", str(tmp_path / "cw.fasta"), "--candidates", str(tmp_path / "country"),
                "--out", str(tmp_path / "genomic.csv")]
        assert cli.main(argv) == 1
        assert f"error: cannot open {tmp_path / bad}: " in capsys.readouterr().err
        assert not (tmp_path / "genomic.csv").exists()

    def test_bench_spec_not_utf8_exits_1(self, tmp_path, capsys):
        spec = tmp_path / "spec.cfg"
        spec.write_bytes(
            b"# caf\xe9\nfamily=delay_bitflip\nparam=delay\nvalues=1.0\n"
            b"length=64\ndrop=0\ntrials=1\nseed=5\n"
        )
        assert cli.main(["bench", "--spec", str(spec), "--out", str(tmp_path / "r.csv")]) == 1
        assert f"error: cannot open {spec}: " in capsys.readouterr().err

    def test_infer_report_ignores_a_byte_order_mark(self, tmp_path):
        rows = "".join(["1.0,0.0\n"] * 3 + ["0.0,1.0\n"] * 3) * 4
        (tmp_path / "plain.csv").write_bytes(rows.encode())
        (tmp_path / "marked.csv").write_bytes(b"\xef\xbb\xbf" + rows.encode())
        for name in ("plain", "marked"):
            argv = ["infer", "--input", str(tmp_path / f"{name}.csv"),
                    "--out", str(tmp_path / f"{name}.txt")]
            assert cli.main(argv) == 0
        assert (tmp_path / "marked.txt").read_bytes() == (tmp_path / "plain.txt").read_bytes()


class TestBenchSpecValues:
    def _bench(self, tmp_path, family, param, values, length, drop=0):
        spec = tmp_path / "spec.cfg"
        spec.write_text(
            f"family={family}\nparam={param}\nvalues={values}\n"
            f"length={length}\ndrop={drop}\ntrials=1\nseed=3\n"
        )
        return cli.main(["bench", "--spec", str(spec), "--out", str(tmp_path / "r.csv")])

    @pytest.mark.parametrize("family, param, value", (("ar1", "phi", "0.5"), ("skew_tent", "eta", "0.5")))
    @pytest.mark.parametrize("length, drop", ((10, -5), (-1, -2)))
    def test_negative_drop_exits_1(self, tmp_path, capsys, family, param, value, length, drop):
        assert self._bench(tmp_path, family, param, value, length, drop) == 1
        assert f"error: drop must be >= 0, got {drop}" in capsys.readouterr().err
        assert not (tmp_path / "r.csv").exists()

    @pytest.mark.parametrize("family, param, value, length", (
        ("sparse", "k", "5", 2000), ("delay_bitflip", "delay", "2", 100)))
    def test_drop_of_a_family_without_transients_exits_1(
        self, tmp_path, capsys, monkeypatch, family, param, value, length
    ):
        trials = []
        monkeypatch.setattr(bench, "generate_trial", lambda *args: trials.append(args))
        assert self._bench(tmp_path, family, param, value, length, length - 1) == 1
        assert f"error: {family} drops no transients, got drop={length - 1}" in capsys.readouterr().err
        assert trials == [] and not (tmp_path / "r.csv").exists()

    @pytest.mark.parametrize("extra, message", (
        ("trials=2\n", "config line 8: key 'trials' is given more than once"),
        ("method=lzp\n", "config line 8: unknown key 'method'"),
    ))
    def test_unknown_or_repeated_spec_key_exits_1(self, tmp_path, capsys, extra, message):
        spec = tmp_path / "spec.cfg"
        spec.write_text(
            "family=delay_bitflip\nparam=delay\nvalues=1.0\n"
            "length=64\ndrop=0\ntrials=1\nseed=5\n" + extra
        )
        assert cli.main(["bench", "--spec", str(spec), "--out", str(tmp_path / "r.csv")]) == 1
        assert f"error: {message}" in capsys.readouterr().err
        assert not (tmp_path / "r.csv").exists()

    @pytest.mark.parametrize("family, param, value, length, drop", (
        ("ar1", "phi", "0.5", 501, 500), ("ar1", "phi", "0.5", 500, 500),
        ("skew_tent", "eta", "0.5", 11, 10), ("sparse", "k", "1", 1, 0)))
    def test_series_under_two_symbols_exits_1_before_any_trial(
        self, tmp_path, capsys, monkeypatch, family, param, value, length, drop
    ):
        trials = []
        monkeypatch.setattr(bench, "generate_trial", lambda *args: trials.append(args))
        assert self._bench(tmp_path, family, param, value, length, drop) == 1
        message = f"error: {family} series would hold fewer than 2 symbols: length={length}, drop={drop}"
        assert message in capsys.readouterr().err
        assert trials == [] and not (tmp_path / "r.csv").exists()

    @pytest.mark.parametrize("flags, message", (
        (["--family", "ar1"], "argument --family: not allowed with argument --spec"),
        (["--seed", "7"], "--seed cannot be combined with --spec: the config file sets the seed"),
        (["--full"], "--full cannot be combined with --spec: the config file sets the trials"),
    ))
    def test_option_the_spec_sets_exits_1_before_any_trial(
        self, tmp_path, capsys, monkeypatch, flags, message
    ):
        trials = []
        monkeypatch.setattr(bench, "generate_trial", lambda *args: trials.append(args))
        spec = tmp_path / "spec.cfg"
        spec.write_text("family=ar1\nparam=phi\nvalues=0.5\nlength=600\ndrop=500\ntrials=1\nseed=3\n")
        out = tmp_path / "r.csv"
        try:
            code = cli.main(["bench", "--spec", str(spec), *flags, "--out", str(out)])
        except SystemExit as exc:  # a usage error, from argparse
            code = exc.code
        assert code == 1
        assert f"error: {message}" in capsys.readouterr().err
        assert trials == [] and not out.exists()

    def test_family_or_spec_is_required(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["bench", "--out", str(tmp_path / "r.csv")])
        assert exc.value.code == 1
        assert "error: one of the arguments --family --spec is required" in capsys.readouterr().err

    def test_trials_override_the_spec(self, tmp_path):
        spec = tmp_path / "spec.cfg"
        spec.write_text("family=delay_bitflip\nparam=delay\nvalues=1\nlength=64\ndrop=0\ntrials=1\nseed=3\n")
        out = tmp_path / "r.csv"
        assert cli.main(["bench", "--spec", str(spec), "--trials", "3", "--out", str(out)]) == 0
        assert out.read_text().splitlines()[1].split(",")[4] == "3"

    def test_sparse_k_above_length_exits_1(self, tmp_path, capsys):
        assert self._bench(tmp_path, "sparse", "k", "20", 10) == 1
        assert "error: sparsity k=20 exceeds the series length 10" in capsys.readouterr().err

    @pytest.mark.parametrize("family, param", (("delay_bitflip", "delay"), ("sparse", "k")))
    def test_fractional_value_exits_1(self, tmp_path, capsys, family, param):
        assert self._bench(tmp_path, family, param, "2.5", 100) == 1
        assert f"error: {family} needs a whole-number parameter value, got 2.5" in capsys.readouterr().err
        assert not (tmp_path / "r.csv").exists()

    def test_negative_workers_exit_1_before_any_trial(self, tmp_path, capsys, monkeypatch):
        trials = []
        monkeypatch.setattr(bench, "generate_trial", lambda *args: trials.append(args))
        out = tmp_path / "r.csv"
        argv = ["bench", "--family", "delay", "--trials", "1", "--workers", "-2", "--out", str(out)]
        assert cli.main(argv) == 1
        assert "error: workers must be >= 1, got -2" in capsys.readouterr().err
        assert trials == [] and not out.exists()

    def test_repeated_method_exits_1_before_any_trial(self, tmp_path, capsys, monkeypatch):
        trials = []
        monkeypatch.setattr(bench, "generate_trial", lambda *args: trials.append(args))
        out = tmp_path / "r.csv"
        argv = ["bench", "--family", "delay", "--methods", "dpe,dpe", "--trials", "1",
                "--out", str(out)]
        assert cli.main(argv) == 1
        assert "error: method 'dpe' is listed more than once" in capsys.readouterr().err
        assert trials == [] and not out.exists()

    def test_bad_value_exits_1_before_any_trial(self, tmp_path, capsys, monkeypatch):
        trials = []
        monkeypatch.setattr(bench, "generate_trial", lambda *args: trials.append(args))
        assert self._bench(tmp_path, "delay_bitflip", "delay", "1,2,2.5", 100) == 1
        assert trials == []
        assert "needs a whole-number parameter value, got 2.5" in capsys.readouterr().err

    def test_empty_method_list_exits_1_before_any_trial(self, tmp_path, capsys, monkeypatch):
        def no_trial(*args):
            raise AssertionError("a trial ran")

        monkeypatch.setattr(bench, "generate_trial", no_trial)
        out = tmp_path / "r.csv"
        argv = ["bench", "--family", "ar1", "--methods", ",", "--out", str(out)]
        assert cli.main(argv) == 1
        assert "error: no methods to run" in capsys.readouterr().err
        assert not out.exists()

    def test_param_other_than_the_familys_exits_1(self, tmp_path, capsys):
        assert self._bench(tmp_path, "ar1", "banana", "0.5", 1500, 500) == 1
        assert "error: ar1 sweeps 'phi', got param='banana'" in capsys.readouterr().err
        assert not (tmp_path / "r.csv").exists()

    def test_empty_values_exit_1(self, tmp_path, capsys):
        assert self._bench(tmp_path, "ar1", "phi", "", 1500, 500) == 1
        assert "error: values must not be empty" in capsys.readouterr().err
        assert not (tmp_path / "r.csv").exists()
