"""Command-line interface: infer, bench, genomic, demo-worked-example.

Exit codes: 0 success, 1 input error, 2 internal invariant violation.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

from . import bench as bench_mod
from .core import infer_causal_direction, pattern_graph_text, report_text
from .demo import demo_text
from .errors import InputError
from .seqcore import (
    MAX_ALPHABET,
    RealSeries,
    SymbolSequence,
    binarize_equiwidth,
    binarize_nonzero,
    load_fasta,
    load_pair_csv,
    read_text,
)
from .synth import FAMILY_DEFAULTS, TrialSpec

FAMILY_ALIASES = {
    "delay": "delay_bitflip",
    "ar1": "ar1",
    "tent": "skew_tent",
    "sparse": "sparse",
}


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage problems are input errors, not internal ones
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _parse_cols(text: str) -> tuple[int, int]:
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != 2:
        raise InputError("--cols expects two comma-separated 1-based indices, e.g. 1,3")
    try:
        return int(parts[0]), int(parts[1])
    except ValueError as exc:
        raise InputError(f"--cols expects integers: {exc}") from exc


def _to_symbols(series: RealSeries, mode: str, other: RealSeries) -> SymbolSequence:
    if mode == "equiwidth":
        return binarize_equiwidth(series)
    if mode == "nonzero":
        return binarize_nonzero(series)
    # pre-discretized input: small non-negative integers, shared alphabet
    symbols = []
    for v in series.values:
        if v < 0 or v != int(v):
            raise InputError(f"--binarize none expects non-negative integers, got {v}")
        symbols.append(int(v))
    top = max(max(series.values), max(other.values))
    if top != int(top) or top < 0:
        raise InputError("--binarize none expects non-negative integers in both columns")
    if top >= MAX_ALPHABET:
        raise InputError(f"--binarize none supports symbols 0..{MAX_ALPHABET - 1}, got {int(top)}")
    return SymbolSequence(tuple(symbols), int(top) + 1)


def _write(path: str | Path, text: str) -> None:
    """Write one output file, UTF-8 with "\\n" line ends on every platform."""
    Path(path).write_text(text, encoding="utf-8", newline="\n")


def _check_out_dir(flag: str, path: str | None) -> None:
    """Refuse an output path that is a directory or whose directory is missing, before any work."""
    if path is not None and Path(path).is_dir():  # "" names the working directory
        raise InputError(f"{flag} {path} is a directory")
    if path is not None and not Path(path).parent.is_dir():
        raise InputError(f"{flag} {path}: directory {Path(path).parent} does not exist")


def cmd_infer(args) -> int:
    _check_out_dir("--out", args.out)
    _check_out_dir("--graph", args.graph)
    if args.drop < 0:
        raise InputError(f"--drop must be >= 0, got {args.drop}")
    sx, sy = load_pair_csv(args.input, cols=_parse_cols(args.cols))
    if args.drop:
        if args.drop >= len(sx):
            raise InputError(f"--drop {args.drop} leaves no data (have {len(sx)} rows)")
        sx, sy = RealSeries(sx.values[args.drop :]), RealSeries(sy.values[args.drop :])
    x = _to_symbols(sx, args.binarize, sy)
    y = _to_symbols(sy, args.binarize, sx)
    report = infer_causal_direction(x, y)
    text = report_text(report)
    if args.out:
        _write(args.out, text)
    else:
        sys.stdout.write(text)
    if args.graph:
        _write(args.graph, pattern_graph_text(report))
    return 0


def _build_spec(args) -> TrialSpec:
    if args.spec is not None:
        if args.seed is not None:
            raise InputError("--seed cannot be combined with --spec: the config file sets the seed")
        if args.full:
            raise InputError("--full cannot be combined with --spec: the config file sets the trials")
        spec = TrialSpec.from_config(read_text(args.spec))
        if args.trials is not None:
            spec = replace(spec, trials=args.trials)
        return spec
    family = FAMILY_ALIASES[args.family]
    values, desk_trials, full_trials, param, length, drop = FAMILY_DEFAULTS[family]
    trials = args.trials if args.trials is not None else (full_trials if args.full else desk_trials)
    return TrialSpec(
        family=family,
        param_name=param,
        values=values,
        length=length,
        drop=drop,
        trials=trials,
        seed=42 if args.seed is None else args.seed,
    )


def cmd_bench(args) -> int:
    _check_out_dir("--out", args.out)
    methods = tuple(m.strip() for m in args.methods.split(",") if m.strip())
    spec = _build_spec(args)
    results = bench_mod.run_sweep(spec, methods=methods, workers=args.workers)
    _write(args.out, bench_mod.results_csv_text(results))
    for r in results:
        print(
            f"{r.family} {r.param_name}={r.param_value:g} {r.method}: "
            f"accuracy {r.accuracy:.3f} ({r.n_correct}/{r.trials})"
        )
    print(f"wrote {args.out}")
    return 0


def _single_record(path: str):
    records = load_fasta(path)
    if len(records) != 1:
        raise InputError(f"{path}: expected one FASTA record, found {len(records)}")
    return records[0]


def cmd_genomic(args) -> int:
    _check_out_dir("--out", args.out)
    rs = _single_record(args.reference)
    cw = _single_record(args.cw)
    cand_dir = Path(args.candidates)
    if not cand_dir.is_dir():
        raise InputError(f"{cand_dir} is not a directory")
    candidates = []
    for path in sorted(cand_dir.glob("*.fa")) + sorted(cand_dir.glob("*.fasta")):
        candidates.extend(load_fasta(path))
    result = bench_mod.run_genomic(rs, cw, candidates, country=cand_dir.name)
    _write(args.out, bench_mod.genomic_csv_text([result]))
    h0 = "no-data" if result.proportion_h0 is None else f"{result.proportion_h0:.4f}"
    h1 = "no-data" if result.proportion_h1 is None else f"{result.proportion_h1:.4f}"
    print(f"{result.country}: {result.n_sequences} candidates")
    print(f"  global reference causes candidate: {h0}")
    print(f"  first in-country sequence causes candidate: {h1}")
    if result.proportion_h0 is not None:
        print(f"  at least 5% support global-reference hypothesis: "
              f"{'yes' if result.proportion_h0 >= 0.05 else 'no'}")
    print(f"wrote {args.out}")
    return 0


def cmd_demo(args) -> int:
    sys.stdout.write(demo_text())
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="dpe", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("infer", help="infer direction for one CSV pair")
    p.add_argument("--input", required=True, help="CSV with two numeric columns")
    p.add_argument("--binarize", choices=("equiwidth", "nonzero", "none"), default="equiwidth")
    p.add_argument("--drop", type=int, default=0, help="drop the first N rows")
    p.add_argument("--cols", default="1,2", help="1-based column pair, e.g. 1,3")
    p.add_argument("--graph", help="write the pattern network (JSON lines) here")
    p.add_argument("--out", help="write the report here instead of stdout")
    p.set_defaults(func=cmd_infer)

    p = sub.add_parser("bench", help="run a synthetic sweep battery")
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--family", choices=tuple(FAMILY_ALIASES), help="experiment family")
    source.add_argument("--spec", help="key=value config file giving the whole battery")
    p.add_argument("--methods", default="dpe", help=f"comma list from {','.join(bench_mod.ALL_METHODS)}")
    p.add_argument("--trials", type=int, default=None, help="trials per parameter value")
    p.add_argument("--seed", type=int, help="random seed (default 42)")
    p.add_argument("--full", action="store_true", help="full-scale trial counts")
    p.add_argument("--out", required=True, help="results CSV path")
    p.add_argument("--workers", type=int, default=1, help="parallel worker processes")
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("genomic", help="reference-vs-candidates hypothesis counting")
    p.add_argument("--reference", required=True, help="global reference FASTA")
    p.add_argument("--cw", required=True, help="first in-country sequence FASTA")
    p.add_argument("--candidates", required=True, help="directory of candidate FASTA files")
    p.add_argument("--out", required=True, help="results CSV path")
    p.set_defaults(func=cmd_genomic)

    p = sub.add_parser("demo-worked-example", help="print the bundled worked example")
    p.set_defaults(func=cmd_demo)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (InputError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # noqa: BLE001 - invariant violation surface
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
