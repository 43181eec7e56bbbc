"""Symbolic sequences, discretization of real-valued series, and paired-data ingestion.

A sequence is stored as bytes, one byte per symbol, over an explicit
alphabet of at most 256 symbols; ingest, alignment and the kernels all work
on those bytes. Real series are validated once on ingestion (finite values
only) and then discretized into symbols by one of two schemes: equi-width
binning with two bins, or a nonzero indicator for sparse data.
"""

from __future__ import annotations

import csv
import io
import math
import warnings
from collections.abc import Iterable
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from pathlib import Path

import numpy as np

from .errors import (
    CsvParseError,
    DegenerateSeriesWarning,
    FastaParseError,
    InputError,
    UnusablePairError,
)

MAX_ALPHABET = 256

_ALL_SYMBOLS = bytes(range(MAX_ALPHABET))
_DIGITS = bytes.maketrans(_ALL_SYMBOLS[:10], b"0123456789")
_SYMBOL_RANGE = "every symbol must satisfy 0 <= symbol < alphabet_size"

#: Directional scores closer than this are treated as equal.
VERDICT_TOLERANCE = 1e-12


class Direction(str, Enum):
    """Causal direction label, used both for ground truth and verdicts."""

    X_CAUSES_Y = "x_causes_y"
    Y_CAUSES_X = "y_causes_x"
    INDEPENDENT = "independent"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value

    @staticmethod
    def lower_wins(score_xy: float, score_yx: float) -> "Direction":
        """The minimum criterion: the direction with the lower score is causal.

        Scores within VERDICT_TOLERANCE of each other tie, and a tie is
        independent; +inf (no evidence) loses to any finite score.
        """
        if abs(score_xy - score_yx) <= VERDICT_TOLERANCE:
            return Direction.INDEPENDENT
        return Direction.X_CAUSES_Y if score_xy < score_yx else Direction.Y_CAUSES_X


@dataclass(frozen=True, init=False)
class SymbolSequence:
    """Finite-alphabet sequence; the universal input of all analyses.

    ``symbols`` may be bytes or any iterable of ints; they are 0-based and
    every symbol must be < ``alphabet_size``. ``data`` holds them as bytes,
    one byte per symbol, and ``symbols`` gives them back as a tuple of ints.
    """

    data: bytes
    alphabet_size: int

    def __init__(self, symbols: bytes | Iterable[int], alphabet_size: int):
        if not isinstance(symbols, (bytes, bytearray, tuple, list)):
            symbols = tuple(symbols)  # a bare int raises here instead of becoming bytes(n)
        try:
            data = bytes(symbols)
        except (TypeError, ValueError):
            data = None
        if not 1 <= alphabet_size <= MAX_ALPHABET:
            raise ValueError(f"alphabet_size must be in [1, {MAX_ALPHABET}]")
        if data is None:  # keep the element-wise check's errors for ints, floats and str
            if any(not 0 <= s < alphabet_size for s in symbols):
                raise ValueError(_SYMBOL_RANGE)
            bytes(symbols)  # an in-range float: TypeError
        if data.translate(None, _ALL_SYMBOLS[:alphabet_size]):
            raise ValueError(_SYMBOL_RANGE)
        object.__setattr__(self, "data", data)
        object.__setattr__(self, "alphabet_size", alphabet_size)

    @cached_property
    def symbols(self) -> tuple[int, ...]:
        return tuple(self.data)

    def __len__(self) -> int:
        return len(self.data)

    def text(self) -> str:
        """Compact display form: digit string for alphabets up to 10."""
        if self.alphabet_size <= 10:
            return self.data.translate(_DIGITS).decode("ascii")
        return ",".join(map(str, self.data))

    @classmethod
    def _of_valid(cls, data: bytes, alphabet_size: int) -> "SymbolSequence":
        """Wrap bytes cut from a validated sequence, without checking them again."""
        seq = object.__new__(cls)
        object.__setattr__(seq, "data", data)
        object.__setattr__(seq, "alphabet_size", alphabet_size)
        return seq

    def fragment(self, start: int, stop: int) -> "SymbolSequence":
        """Contiguous sub-sequence over the same alphabet."""
        return SymbolSequence._of_valid(self.data[start:stop], self.alphabet_size)

    @classmethod
    def from_text(cls, text: str, alphabet_size: int | None = None) -> "SymbolSequence":
        """Parse a digit string such as ``"0110"`` (alphabet inferred if omitted)."""
        symbols = tuple(map(int, text))
        if alphabet_size is None:
            alphabet_size = max(symbols, default=0) + 1
        return cls(symbols, alphabet_size)


@dataclass(frozen=True)
class RealSeries:
    """Ordered real-valued series; rejects NaN and infinities on construction."""

    values: tuple[float, ...]

    def __post_init__(self):
        values = tuple(map(float, self.values))
        object.__setattr__(self, "values", values)
        if not all(map(math.isfinite, values)):
            raise ValueError("real series must contain finite values only")

    def __len__(self) -> int:
        return len(self.values)


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
        return SymbolSequence(bytes(len(series)), 2)
    threshold = (lo + hi) / 2.0
    if not math.isfinite(threshold):  # lo + hi overflowed
        threshold = lo / 2.0 + hi / 2.0
    return SymbolSequence((np.array(series.values) >= threshold).tobytes(), 2)


def binarize_nonzero(series: RealSeries) -> SymbolSequence:
    """Indicator binarization: 1 wherever the value is nonzero."""
    if len(series) == 0:
        raise ValueError("cannot binarize an empty series")
    return SymbolSequence((np.array(series.values) != 0).tobytes(), 2)


def _parse_cell(cell: str) -> float | None:
    try:
        return float(cell)
    except ValueError:
        return None


def read_text(path: str | Path) -> str:
    """A user file's text: UTF-8 with or without a byte-order mark, line ends kept."""
    try:
        return Path(path).read_bytes().decode("utf-8-sig")
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"cannot open {path}: {exc}") from exc


def _csv_rows(text: str):
    """(line number, cells) of each CSV record; a record whose quoted cell spans
    lines has the number of its last line, and a record the reader rejects (a
    cell over the field size limit, say) raises ``CsvParseError``."""
    rows = csv.reader(io.StringIO(text, newline=""))
    try:
        for row in rows:
            yield rows.line_num, row
    except csv.Error as exc:
        raise CsvParseError(rows.line_num, str(exc)) from None


def load_pair_csv(path: str | Path, cols: tuple[int, int] = (1, 2)) -> tuple[RealSeries, RealSeries]:
    """Load two numeric columns from a CSV file, preserving row order.

    ``cols`` selects 1-based column indices (default: first two). A single
    leading header row is allowed and detected by both selected cells failing
    numeric parsing. Ragged rows, non-numeric cells, non-finite values and
    cells the csv module rejects are reported with the offending line number.
    """
    ca, cb = cols
    if ca < 1 or cb < 1:
        raise InputError("column indices are 1-based and must be positive")
    xs: list[float] = []
    ys: list[float] = []
    width: int | None = None
    for lineno, row in _csv_rows(read_text(path)):
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


# FASTA sequence text is encoded as ASCII with "?" for every other code
# point, one byte per character, then mapped through these bytes.translate
# tables. Only ASCII ACGT in either case is a base: no other code point
# upper-cases to A, C, G or T.
_BASES = {**NUCLEOTIDE_TO_SYMBOL, **{b.lower(): s for b, s in NUCLEOTIDE_TO_SYMBOL.items()}}
_BASE_SYMBOL = bytes(_BASES.get(chr(c), 0) for c in range(256))
_BASE_AMBIGUOUS = bytes(chr(c) not in _BASES for c in range(256))
_FLAG = b"\0" + b"\1" * 255  # nonzero mask bytes -> 1


@dataclass(frozen=True, init=False)
class MaskedSequence:
    """A sequence plus a per-position ambiguity mask (True = drop pairwise).

    ``ambiguous`` may be bytes (nonzero = ambiguous) or any iterable of
    bools. ``mask`` holds it as one 0/1 byte per position and ``ambiguous``
    gives it back as a tuple of bools.
    """

    seq: SymbolSequence
    mask: bytes

    def __init__(self, seq: SymbolSequence, ambiguous: bytes | Iterable[bool]):
        if isinstance(ambiguous, bytes):
            mask = ambiguous.translate(_FLAG)
        else:
            mask = bytes(map(bool, ambiguous))
        if len(seq) != len(mask):
            raise ValueError("mask length must match sequence length")
        object.__setattr__(self, "seq", seq)
        object.__setattr__(self, "mask", mask)

    @cached_property
    def ambiguous(self) -> tuple[bool, ...]:
        return tuple(map(bool, self.mask))

    def __len__(self) -> int:
        return len(self.seq)


@dataclass(frozen=True)
class FastaRecord:
    identifier: str
    masked: MaskedSequence

    @property
    def seq(self) -> SymbolSequence:
        return self.masked.seq


def load_fasta(path: str | Path) -> list[FastaRecord]:
    """Parse a FASTA file into nucleotide records mapped A,C,G,T -> 0..3.

    Mapping is case-insensitive. Any other character keeps its position but is
    flagged in the record's ambiguity mask; alignment removes flagged
    positions pairwise later. Files without a header and records without
    sequence data are rejected.
    """
    text = read_text(path)
    records: list[FastaRecord] = []
    identifier: str | None = None
    lines: list[str] = []

    def flush():
        if identifier is None:
            return
        if not lines:
            raise FastaParseError(f"{path}: record {identifier!r} has no sequence data")
        raw = "".join(lines).encode("ascii", "replace")
        masked = MaskedSequence(
            SymbolSequence(raw.translate(_BASE_SYMBOL), 4), raw.translate(_BASE_AMBIGUOUS)
        )
        records.append(FastaRecord(identifier, masked))

    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        if line.startswith(">"):
            flush()
            identifier = line[1:].split()[0] if line[1:].split() else line[1:]
            lines = []
            continue
        if identifier is None:
            raise FastaParseError(f"{path}: line {lineno}: sequence data before any '>' header")
        lines.append(line)
    flush()
    if not records:
        raise FastaParseError(f"{path}: no FASTA records found")
    return records


def _as_masked(seq: MaskedSequence | SymbolSequence) -> MaskedSequence:
    if isinstance(seq, MaskedSequence):
        return seq
    return MaskedSequence(seq, bytes(len(seq)))


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
    keep = (np.frombuffer(ma.mask, np.uint8, n) | np.frombuffer(mb.mask, np.uint8, n)) == 0
    usable = int(np.count_nonzero(keep))
    if usable < 2:
        raise UnusablePairError(f"aligned pair has {usable} usable positions, need >= 2")
    size = ma.seq.alphabet_size
    xa = SymbolSequence(np.frombuffer(ma.seq.data, np.uint8, n)[keep].tobytes(), size)
    xb = SymbolSequence(np.frombuffer(mb.seq.data, np.uint8, n)[keep].tobytes(), size)
    return SequencePair(xa, xb)
