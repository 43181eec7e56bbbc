"""Symbolic sequences, discretization of real-valued series, and paired-data ingestion.

Sequences are immutable tuples of small non-negative integers over an explicit
alphabet. Real series are validated once on ingestion (finite values only) and
then discretized into symbols by one of two schemes: equi-width binning with two
bins, or a nonzero indicator for sparse data.
"""

from __future__ import annotations

import csv
import math
import warnings
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path

from .errors import (
    CsvParseError,
    DegenerateSeriesWarning,
    FastaParseError,
    InputError,
    UnusablePairError,
)

MAX_ALPHABET = 256


class Direction(str, Enum):
    """Causal direction label, used both for ground truth and verdicts."""

    X_CAUSES_Y = "x_causes_y"
    Y_CAUSES_X = "y_causes_x"
    INDEPENDENT = "independent"
    BIDIRECTIONAL = "bidirectional"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


@dataclass(frozen=True)
class SymbolSequence:
    """Finite-alphabet sequence; the universal input of all analyses.

    ``symbols`` are 0-based and every symbol must be < ``alphabet_size``.
    A bytes mirror of the symbols is cached for fast substring work.
    """

    symbols: tuple[int, ...]
    alphabet_size: int
    _data: bytes = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not isinstance(self.symbols, tuple):
            object.__setattr__(self, "symbols", tuple(self.symbols))
        if not 1 <= self.alphabet_size <= MAX_ALPHABET:
            raise ValueError(f"alphabet_size must be in [1, {MAX_ALPHABET}]")
        if any(not 0 <= s < self.alphabet_size for s in self.symbols):
            raise ValueError("every symbol must satisfy 0 <= symbol < alphabet_size")
        object.__setattr__(self, "_data", bytes(self.symbols))

    def __len__(self) -> int:
        return len(self.symbols)

    @property
    def data(self) -> bytes:
        """Symbols as raw bytes (one byte per symbol)."""
        return self._data

    def text(self) -> str:
        """Compact display form: digit string for alphabets up to 10."""
        if self.alphabet_size <= 10:
            return "".join(str(s) for s in self.symbols)
        return ",".join(str(s) for s in self.symbols)

    def fragment(self, start: int, stop: int) -> "SymbolSequence":
        """Contiguous sub-sequence over the same alphabet."""
        return SymbolSequence(self.symbols[start:stop], self.alphabet_size)

    @classmethod
    def from_text(cls, text: str, alphabet_size: int | None = None) -> "SymbolSequence":
        """Parse a digit string such as ``"0110"`` (alphabet inferred if omitted)."""
        symbols = tuple(int(c) for c in text)
        if alphabet_size is None:
            alphabet_size = max(symbols, default=0) + 1
        return cls(symbols, alphabet_size)

    @classmethod
    def from_bytes(cls, data: bytes, alphabet_size: int) -> "SymbolSequence":
        return cls(tuple(data), alphabet_size)


@dataclass(frozen=True)
class RealSeries:
    """Ordered real-valued series; rejects NaN and infinities on construction."""

    values: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "values", tuple(float(v) for v in self.values))
        if any(not math.isfinite(v) for v in self.values):
            raise ValueError("real series must contain finite values only")

    def __len__(self) -> int:
        return len(self.values)

    def drop_first(self, n: int) -> "RealSeries":
        return RealSeries(self.values[n:])


@dataclass(frozen=True)
class SequencePair:
    """Two equal-length sequences over the same alphabet, plus optional ground truth."""

    x: SymbolSequence
    y: SymbolSequence
    ground_truth: Direction | None = None

    def __post_init__(self):
        if len(self.x) != len(self.y):
            raise ValueError("paired sequences must have equal length")
        if self.x.alphabet_size != self.y.alphabet_size:
            raise ValueError("paired sequences must share one alphabet")


def binarize_equiwidth(series: RealSeries) -> SymbolSequence:
    """Two equal-width bins over [min, max]; values >= the midpoint map to 1.

    A constant series binarizes to all zeros and emits DegenerateSeriesWarning
    instead of raising, so batch experiments do not abort.
    """
    if len(series) == 0:
        raise ValueError("cannot binarize an empty series")
    lo = min(series.values)
    hi = max(series.values)
    if lo == hi:
        warnings.warn(
            "constant series binarized to all zeros", DegenerateSeriesWarning, stacklevel=2
        )
        return SymbolSequence((0,) * len(series), 2)
    threshold = (lo + hi) / 2.0
    if not math.isfinite(threshold):  # lo + hi overflowed
        threshold = lo / 2.0 + hi / 2.0
    return SymbolSequence(tuple(1 if v >= threshold else 0 for v in series.values), 2)


def binarize_nonzero(series: RealSeries) -> SymbolSequence:
    """Indicator binarization: 1 wherever the value is nonzero."""
    if len(series) == 0:
        raise ValueError("cannot binarize an empty series")
    return SymbolSequence(tuple(1 if v != 0 else 0 for v in series.values), 2)


def _parse_cell(cell: str) -> float | None:
    try:
        return float(cell)
    except ValueError:
        return None


def load_pair_csv(path: str | Path, cols: tuple[int, int] = (1, 2)) -> tuple[RealSeries, RealSeries]:
    """Load two numeric columns from a CSV file, preserving row order.

    ``cols`` selects 1-based column indices (default: first two). A single
    leading header row is allowed and detected by both selected cells failing
    numeric parsing. Ragged rows, non-numeric cells, and non-finite values are
    rejected with the offending line number.
    """
    ca, cb = cols
    if ca < 1 or cb < 1:
        raise InputError("column indices are 1-based and must be positive")
    xs: list[float] = []
    ys: list[float] = []
    width: int | None = None
    try:
        handle = open(path, newline="", encoding="utf-8")
    except OSError as exc:
        raise InputError(f"cannot open {path}: {exc}") from exc
    with handle:
        for lineno, row in enumerate(csv.reader(handle), start=1):
            if not row or all(cell.strip() == "" for cell in row):
                continue
            if len(row) < max(ca, cb):
                raise CsvParseError(
                    lineno, f"expected at least {max(ca, cb)} columns, found {len(row)}"
                )
            if width is None:
                width = len(row)
            elif len(row) != width:
                raise CsvParseError(lineno, f"ragged row: {len(row)} columns, expected {width}")
            a = _parse_cell(row[ca - 1].strip())
            b = _parse_cell(row[cb - 1].strip())
            if a is None or b is None:
                if not xs and a is None and b is None:
                    continue  # single optional header row
                bad = row[ca - 1] if a is None else row[cb - 1]
                raise CsvParseError(lineno, f"non-numeric cell {bad!r}")
            if not (math.isfinite(a) and math.isfinite(b)):
                raise CsvParseError(lineno, "non-finite value")
            xs.append(a)
            ys.append(b)
    if not xs:
        raise InputError(f"{path}: no data rows")
    return RealSeries(tuple(xs)), RealSeries(tuple(ys))


NUCLEOTIDE_TO_SYMBOL = {"A": 0, "C": 1, "G": 2, "T": 3}
SYMBOL_TO_NUCLEOTIDE = "ACGT"


@dataclass(frozen=True)
class MaskedSequence:
    """A sequence plus a per-position ambiguity mask (True = drop pairwise)."""

    seq: SymbolSequence
    ambiguous: tuple[bool, ...]

    def __post_init__(self):
        if len(self.seq) != len(self.ambiguous):
            raise ValueError("mask length must match sequence length")

    def __len__(self) -> int:
        return len(self.seq)


@dataclass(frozen=True)
class FastaRecord:
    identifier: str
    masked: MaskedSequence

    @property
    def seq(self) -> SymbolSequence:
        return self.masked.seq


def nucleotide_display(seq: SymbolSequence) -> str:
    """1-based digit labels for a 4-symbol nucleotide sequence (A=1 .. T=4)."""
    return "".join(str(s + 1) for s in seq.symbols)


def load_fasta(path: str | Path) -> list[FastaRecord]:
    """Parse a FASTA file into nucleotide records mapped A,C,G,T -> 0..3.

    Mapping is case-insensitive. Any other character keeps its position but is
    flagged in the record's ambiguity mask; alignment removes flagged
    positions pairwise later. Files without a header and records without
    sequence data are rejected.
    """
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise InputError(f"cannot open {path}: {exc}") from exc
    records: list[FastaRecord] = []
    identifier: str | None = None
    symbols: list[int] = []
    mask: list[bool] = []

    def flush():
        if identifier is None:
            return
        if not symbols:
            raise FastaParseError(f"{path}: record {identifier!r} has no sequence data")
        records.append(
            FastaRecord(identifier, MaskedSequence(SymbolSequence(tuple(symbols), 4), tuple(mask)))
        )

    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        if line.startswith(">"):
            flush()
            identifier = line[1:].split()[0] if line[1:].split() else line[1:]
            symbols, mask = [], []
            continue
        if identifier is None:
            raise FastaParseError(f"{path}: line {lineno}: sequence data before any '>' header")
        for ch in line:
            code = NUCLEOTIDE_TO_SYMBOL.get(ch.upper())
            if code is None:
                symbols.append(0)
                mask.append(True)
            else:
                symbols.append(code)
                mask.append(False)
    flush()
    if not records:
        raise FastaParseError(f"{path}: no FASTA records found")
    return records


def _as_masked(seq: MaskedSequence | SymbolSequence) -> MaskedSequence:
    if isinstance(seq, MaskedSequence):
        return seq
    return MaskedSequence(seq, (False,) * len(seq))


def align_pair(
    a: MaskedSequence | SymbolSequence, b: MaskedSequence | SymbolSequence
) -> SequencePair:
    """Truncate to the shorter length, then drop positions ambiguous in either.

    Raises UnusablePairError when fewer than 2 positions survive.
    """
    ma, mb = _as_masked(a), _as_masked(b)
    if len(ma) == 0 or len(mb) == 0:
        raise UnusablePairError("cannot align an empty sequence")
    if ma.seq.alphabet_size != mb.seq.alphabet_size:
        sizes = f"{ma.seq.alphabet_size} and {mb.seq.alphabet_size} symbols"
        raise InputError(f"cannot align sequences over different alphabets ({sizes})")
    n = min(len(ma), len(mb))
    keep = [i for i in range(n) if not (ma.ambiguous[i] or mb.ambiguous[i])]
    if len(keep) < 2:
        raise UnusablePairError(f"aligned pair has {len(keep)} usable positions, need >= 2")
    size = ma.seq.alphabet_size
    xa = SymbolSequence(tuple(ma.seq.symbols[i] for i in keep), size)
    xb = SymbolSequence(tuple(mb.seq.symbols[i] for i in keep), size)
    return SequencePair(xa, xb)
