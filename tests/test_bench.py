import subprocess
import sys

import pytest

from dpe import bench, cli
from dpe.bench import (
    PredatorPreyResult,
    emit_results,
    genomic_csv_text,
    results_csv_text,
    run_genomic,
    run_predator_prey,
    run_sweep,
)
from dpe.errors import InputError
from dpe.seqcore import Direction, RealSeries, load_fasta
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

    def test_unknown_method(self):
        with pytest.raises(InputError):
            run_sweep(small_spec(), methods=("granger",))

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
    """Stand-in for ProcessPoolExecutor: records max_workers, maps in-process."""

    sizes = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items):
        return map(fn, items)


class TestWorkerCap:
    @pytest.fixture(autouse=True)
    def fake_pool(self, monkeypatch):
        SerialPool.sizes = []
        monkeypatch.setattr(bench, "ProcessPoolExecutor", SerialPool)
        monkeypatch.setattr(bench.os, "cpu_count", lambda: 4)

    def test_pool_capped_at_cpu_count(self):
        serial = run_sweep(small_spec(), methods=("dpe", "lzp"))
        assert run_sweep(small_spec(), methods=("dpe", "lzp"), workers=5000) == serial
        assert SerialPool.sizes == [4]

    def test_pool_capped_at_block_count(self):
        spec = small_spec(values=(1.0, 2.0), trials=1)  # two one-trial blocks
        assert run_sweep(spec, workers=5000) == run_sweep(spec)
        assert SerialPool.sizes == [2]

    def test_one_block_runs_without_a_pool(self, monkeypatch):
        spec = small_spec(values=(1.0,), trials=1)
        run_sweep(spec, workers=5000)
        monkeypatch.setattr(bench.os, "cpu_count", lambda: None)  # unknown: one core
        run_sweep(small_spec(), workers=3)
        assert SerialPool.sizes == []


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

    def test_byte_identical_reruns(self, tmp_path):
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        emit_results(run_sweep(small_spec(), methods=("dpe",)), p1)
        emit_results(run_sweep(small_spec(), methods=("dpe",)), p2)
        assert p1.read_bytes() == p2.read_bytes()

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


class TestPredatorPrey:
    def test_drops_transients_and_reports(self):
        pred = RealSeries(tuple(float(i % 7) for i in range(71)))
        prey = RealSeries(tuple(float((i + 3) % 5) for i in range(71)))
        result = run_predator_prey(pred, prey)
        assert isinstance(result, PredatorPreyResult)
        assert result.n_used == 62
        assert result.report.verdict in (
            Direction.X_CAUSES_Y,
            Direction.Y_CAUSES_X,
            Direction.INDEPENDENT,
        )

    def test_too_short_rejected(self):
        s = RealSeries(tuple(float(i) for i in range(9)))
        with pytest.raises(InputError):
            run_predator_prey(s, s)

    def test_constant_series_degenerate_independent(self):
        pred = RealSeries((3.0,) * 20)
        prey = RealSeries((5.0,) * 20)
        result = run_predator_prey(pred, prey)
        assert result.degenerate_x and result.degenerate_y
        assert result.report.verdict == Direction.INDEPENDENT


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


class TestBenchSpecValues:
    def _bench(self, tmp_path, family, param, values, length):
        spec = tmp_path / "spec.cfg"
        spec.write_text(
            f"family={family}\nparam={param}\nvalues={values}\n"
            f"length={length}\ndrop=0\ntrials=1\nseed=3\n"
        )
        return cli.main(["bench", "--spec", str(spec), "--out", str(tmp_path / "r.csv")])

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

    def test_bad_value_exits_1_before_any_trial(self, tmp_path, capsys, monkeypatch):
        trials = []
        monkeypatch.setattr(bench, "generate_trial", lambda *args: trials.append(args))
        assert self._bench(tmp_path, "delay_bitflip", "delay", "1,2,2.5", 100) == 1
        assert trials == []
        assert "needs a whole-number parameter value, got 2.5" in capsys.readouterr().err
