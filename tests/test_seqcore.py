import csv
import math
import re
import sys
import warnings

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given

from dpe.errors import (
    CsvParseError,
    DegenerateSeriesWarning,
    FastaParseError,
    InputError,
    UnusablePairError,
)
from dpe.seqcore import (
    Direction,
    MaskedSequence,
    RealSeries,
    SymbolSequence,
    align_pair,
    binarize_equiwidth,
    binarize_nonzero,
    load_fasta,
    load_pair_csv,
)


class TestSymbolSequence:
    def test_rejects_out_of_alphabet_symbols(self):
        with pytest.raises(ValueError):
            SymbolSequence((0, 2), 2)

    def test_bytes_mirror_and_text(self):
        s = SymbolSequence((0, 1, 1, 0), 2)
        assert s.data == b"\x00\x01\x01\x00"
        assert s.text() == "0110"
        assert SymbolSequence.from_text("0110") == s

    def test_fragment_keeps_alphabet(self):
        s = SymbolSequence((0, 1, 2, 3), 4)
        assert s.fragment(1, 3) == SymbolSequence((1, 2), 4)


SYMBOL_RANGE = "every symbol must satisfy 0 <= symbol < alphabet_size"


class TestSymbolSequenceContract:
    @pytest.mark.parametrize(
        "symbols, alphabet, error, message",
        [
            ((0, -1), 2, ValueError, SYMBOL_RANGE),
            ((0, 256), 256, ValueError, SYMBOL_RANGE),
            ((0, 300), 4, ValueError, SYMBOL_RANGE),
            ((0, 2), 2, ValueError, SYMBOL_RANGE),
            (b"\x00\x04", 4, ValueError, SYMBOL_RANGE),
            ((0.0, 1.0), 2, TypeError, "'float' object cannot be interpreted as an integer"),
            ((3.0,), 2, ValueError, SYMBOL_RANGE),
            ("01", 2, TypeError, "'<=' not supported between instances of 'int' and 'str'"),
            ((5, "a"), 2, ValueError, SYMBOL_RANGE),
            ((0, 1), 0, ValueError, "alphabet_size must be in [1, 256]"),
            ((0, -1), 257, ValueError, "alphabet_size must be in [1, 256]"),
        ],
    )
    def test_invalid_input_keeps_its_error(self, symbols, alphabet, error, message):
        with pytest.raises(error) as info:
            SymbolSequence(symbols, alphabet)
        assert type(info.value) is error
        assert str(info.value) == message

    @pytest.mark.parametrize("bare", [5, 0, True])
    def test_bare_int_is_not_a_length(self, bare):
        # bytes(5) would be five zero symbols
        with pytest.raises(TypeError, match="object is not iterable"):
            SymbolSequence(bare, 2)

    @given(st.lists(st.integers(0, 255), max_size=40))
    def test_tuple_and_bytes_construct_the_same_sequence(self, symbols):
        from_tuple = SymbolSequence(tuple(symbols), 256)
        from_bytes = SymbolSequence(bytes(symbols), 256)
        assert from_tuple == from_bytes == SymbolSequence(symbols, 256)
        assert hash(from_tuple) == hash(from_bytes)
        assert from_tuple.data == from_bytes.data == bytes(symbols)
        assert len(from_tuple) == len(symbols)

    @pytest.mark.parametrize("symbols", [(0, 1, 1), [0, 1, 1], b"\x00\x01\x01", iter((0, 1, 1))])
    def test_symbols_is_a_tuple_of_ints(self, symbols):
        s = SymbolSequence(symbols, 2)
        assert type(s.symbols) is tuple
        assert s.symbols == (0, 1, 1)
        assert all(type(v) is int for v in s.symbols)

    def test_alphabet_is_compared(self):
        assert SymbolSequence((0, 1), 2) != SymbolSequence((0, 1), 3)

    def test_text_of_wide_alphabet(self):
        assert SymbolSequence((0, 11, 255), 256).text() == "0,11,255"
        assert SymbolSequence((0, 9, 3), 10).text() == "093"


def converted_series(values):
    """The series' values, converted and checked one by one: the exception a bad value raises."""
    values = tuple(float(v) for v in values)
    if any(not math.isfinite(v) for v in values):
        raise ValueError("real series must contain finite values only")
    return values


BAD_VALUES = {
    "nan": (1.0, float("nan")),
    "inf": (float("inf"),),
    "-inf after finite": (0.5, 2, -math.inf),
    "text": (1.0, "one"),
    "None": (1.0, None),
    "complex": (1j,),
    "nested": ((1.0,),),
    "not iterable": 3.0,
}


class TestRealSeries:
    def test_rejects_nan_and_inf(self):
        with pytest.raises(ValueError):
            RealSeries((1.0, float("nan")))
        with pytest.raises(ValueError):
            RealSeries((float("inf"),))

    @pytest.mark.parametrize("values", BAD_VALUES.values(), ids=BAD_VALUES.keys())
    def test_bad_values_raise_as_a_one_by_one_check(self, values):
        with pytest.raises(Exception) as want:
            converted_series(values)
        with pytest.raises(type(want.value)) as got:
            RealSeries(values)
        assert type(got.value) is type(want.value) and str(got.value) == str(want.value)

    def test_values_become_floats(self):
        values = RealSeries((1, True, "2.5", np.float32(0.25), np.int64(7))).values
        assert values == (1.0, 1.0, 2.5, 0.25, 7.0)
        assert all(type(v) is float for v in values)


class TestBinarizeEquiwidth:
    def test_midpoint_threshold(self):
        assert binarize_equiwidth(RealSeries((1.0, 2.0, 3.0, 4.0))).symbols == (0, 0, 1, 1)

    def test_value_equal_to_threshold_maps_to_one(self):
        assert binarize_equiwidth(RealSeries((0.1, 0.9, 0.5))).symbols == (0, 1, 1)

    def test_constant_series_warns_and_zeroes(self):
        with pytest.warns(DegenerateSeriesWarning):
            out = binarize_equiwidth(RealSeries((5.0, 5.0, 5.0)))
        assert out.symbols == (0, 0, 0)

    @given(
        st.lists(st.integers(min_value=-1000, max_value=1000).map(float), min_size=2, max_size=30),
        st.sampled_from((0.5, 1.0, 2.0, 3.5, 16.0)),
        st.integers(min_value=-100, max_value=100).map(float),
    )
    def test_invariant_under_increasing_affine_maps(self, values, alpha, beta):
        # integer grids and dyadic slopes keep the float arithmetic exact, so
        # the midpoint comparison transfers exactly through the affine map
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DegenerateSeriesWarning)
            base = binarize_equiwidth(RealSeries(tuple(values)))
            mapped = binarize_equiwidth(RealSeries(tuple(alpha * v + beta for v in values)))
        assert mapped.symbols == base.symbols

    def test_midpoint_of_huge_values_does_not_overflow(self):
        # lo + hi overflows to inf here, yet the midpoint must still split the series
        assert binarize_equiwidth(RealSeries((1e308, 1.7e308, 1.2e308))).symbols == (0, 1, 0)

    @given(
        st.lists(
            st.one_of(
                st.floats(min_value=1.0, max_value=sys.float_info.max),
                st.floats(min_value=-sys.float_info.max, max_value=-1.0),
                st.sampled_from((sys.float_info.max, -sys.float_info.max)),
            ),
            min_size=2,
            max_size=20,
        )
    )
    def test_halving_near_the_float_range_keeps_symbols(self, values):
        # halving is exact for these magnitudes and the halved midpoint never
        # overflows, so both series must split at the same place
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DegenerateSeriesWarning)
            whole = binarize_equiwidth(RealSeries(tuple(values)))
            halved = binarize_equiwidth(RealSeries(tuple(v / 2 for v in values)))
        assert whole.symbols == halved.symbols


class TestBinarizeNonzero:
    def test_indicator(self):
        assert binarize_nonzero(RealSeries((0.0, 0.3, 0.0, -1.2))).symbols == (0, 1, 0, 1)

    def test_all_zero_and_all_nonzero(self):
        assert binarize_nonzero(RealSeries((0.0, 0.0, 0.0))).symbols == (0, 0, 0)
        assert binarize_nonzero(RealSeries((7.0, 7.0))).symbols == (1, 1)

    @given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=50))
    def test_one_count_matches_nonzero_count(self, values):
        out = binarize_nonzero(RealSeries(tuple(values)))
        assert sum(out.symbols) == sum(1 for v in values if v != 0)


class TestLoadPairCsv:
    def test_plain_two_columns(self, tmp_path):
        p = tmp_path / "pair.csv"
        p.write_text("x,y\n0,1\n1,0\n")
        sx, sy = load_pair_csv(p)
        assert sx.values == (0.0, 1.0)
        assert sy.values == (1.0, 0.0)

    def test_column_selection(self, tmp_path):
        p = tmp_path / "triple.csv"
        p.write_text("1,9,2\n3,9,4\n")
        sx, sy = load_pair_csv(p, cols=(1, 3))
        assert sx.values == (1.0, 3.0)
        assert sy.values == (2.0, 4.0)

    def test_non_numeric_cell_names_the_row(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("1,2\nabc,3\n")
        with pytest.raises(CsvParseError, match="line 2"):
            load_pair_csv(p)

    def test_ragged_row_rejected(self, tmp_path):
        p = tmp_path / "ragged.csv"
        p.write_text("1,2,5\n3,4\n")
        with pytest.raises(CsvParseError, match="line 2"):
            load_pair_csv(p)

    def test_too_few_columns(self, tmp_path):
        p = tmp_path / "one.csv"
        p.write_text("1\n2\n")
        with pytest.raises(CsvParseError, match="columns"):
            load_pair_csv(p)

    def test_non_finite_rejected(self, tmp_path):
        p = tmp_path / "inf.csv"
        p.write_text("1,inf\n")
        with pytest.raises(CsvParseError, match="line 1"):
            load_pair_csv(p)

    def test_line_numbers_count_physical_lines(self, tmp_path):
        # the header's quoted cell spans lines 1 and 2
        p = tmp_path / "multiline.csv"
        p.write_text('a,"b\nc"\n1,2\nx,4\n')
        with pytest.raises(CsvParseError) as info:
            load_pair_csv(p)
        assert str(info.value) == "line 4: non-numeric cell 'x'"
        assert info.value.line_number == 4

    def test_oversized_cell_names_the_line(self, tmp_path):
        limit = csv.field_size_limit()
        p = tmp_path / "wide.csv"
        p.write_text("1,2\n3," + "9" * (limit + 1) + "\n5,6\n")
        with pytest.raises(CsvParseError) as info:
            load_pair_csv(p)
        assert str(info.value) == f"line 2: field larger than field limit ({limit})"
        assert info.value.line_number == 2

    def test_missing_file(self, tmp_path):
        with pytest.raises(InputError):
            load_pair_csv(tmp_path / "absent.csv")

    def test_byte_order_mark_is_skipped(self, tmp_path):
        plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
        plain.write_bytes(b"1.0,2\r\n3,4\r\n")
        marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
        assert load_pair_csv(marked) == load_pair_csv(plain) == (
            RealSeries((1.0, 3.0)), RealSeries((2.0, 4.0))
        )

    def test_not_utf8_names_the_file(self, tmp_path):
        p = tmp_path / "latin1.csv"
        p.write_bytes(b"1,2\n3,4\xe9\n")
        with pytest.raises(InputError, match=re.escape(f"cannot open {p}: 'utf-8' codec")):
            load_pair_csv(p)

    def test_header_only_is_empty(self, tmp_path):
        p = tmp_path / "empty.csv"
        p.write_text("x,y\n")
        with pytest.raises(InputError, match="no data"):
            load_pair_csv(p)


FASTA = """>rec1 some description
ACGT
acgt
>rec2
ACNGT
"""


class TestLoadFasta:
    def test_mapping_and_case(self, tmp_path):
        p = tmp_path / "a.fasta"
        p.write_text(FASTA)
        records = load_fasta(p)
        assert [r.identifier for r in records] == ["rec1", "rec2"]
        rec1 = records[0]
        assert rec1.seq.symbols == (0, 1, 2, 3, 0, 1, 2, 3)
        assert not any(rec1.masked.ambiguous)

    def test_ambiguous_position_masked_not_dropped(self, tmp_path):
        p = tmp_path / "a.fasta"
        p.write_text(FASTA)
        rec2 = load_fasta(p)[1]
        assert len(rec2.seq) == 5
        assert rec2.masked.ambiguous == (False, False, True, False, False)
        kept = [s for s, m in zip(rec2.seq.symbols, rec2.masked.ambiguous) if not m]
        assert kept == [0, 1, 2, 3]

    def test_byte_order_mark_is_skipped(self, tmp_path):
        plain, marked = tmp_path / "plain.fasta", tmp_path / "marked.fasta"
        plain.write_text(FASTA)
        marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
        assert load_fasta(marked) == load_fasta(plain)

    def test_not_utf8_names_the_file(self, tmp_path):
        p = tmp_path / "latin1.fasta"
        p.write_bytes(b">r\xe9\nACGT\n")
        with pytest.raises(InputError, match=re.escape(f"cannot open {p}: 'utf-8' codec")):
            load_fasta(p)

    def test_roundtrip_acgt_only(self, tmp_path):
        p = tmp_path / "a.fasta"
        p.write_text(">r\nGATTACA\n")
        rec = load_fasta(p)[0]
        assert "".join("ACGT"[s] for s in rec.seq.symbols) == "GATTACA"

    def test_headerless_file_rejected(self, tmp_path):
        p = tmp_path / "b.fasta"
        p.write_text("ACGT\n")
        with pytest.raises(FastaParseError):
            load_fasta(p)

    def test_empty_record_rejected(self, tmp_path):
        p = tmp_path / "c.fasta"
        p.write_text(">only-header\n")
        with pytest.raises(FastaParseError):
            load_fasta(p)


class TestAlignPair:
    def test_truncates_to_shorter(self):
        a = SymbolSequence((0, 1) * 5, 2)
        b = SymbolSequence((1, 0) * 4, 2)
        pair = align_pair(a, b)
        assert len(pair.x) == len(pair.y) == 8

    def test_drops_positions_ambiguous_in_either(self):
        a = MaskedSequence(SymbolSequence((0, 1, 2, 3), 4), (False, True, False, False))
        b = MaskedSequence(SymbolSequence((3, 2, 1, 0), 4), (False, False, False, False))
        pair = align_pair(a, b)
        assert pair.x.symbols == (0, 2, 3)
        assert pair.y.symbols == (3, 1, 0)

    def test_fully_ambiguous_is_unusable(self):
        a = MaskedSequence(SymbolSequence((0, 0, 0), 4), (True, True, True))
        b = MaskedSequence(SymbolSequence((1, 1, 1), 4), (False, False, False))
        with pytest.raises(UnusablePairError):
            align_pair(a, b)

    def test_one_usable_position_is_unusable(self):
        a = MaskedSequence(SymbolSequence((0, 0, 0), 4), (True, False, True))
        b = MaskedSequence(SymbolSequence((1, 1, 1), 4), (False, False, False))
        with pytest.raises(UnusablePairError, match="1 usable positions, need >= 2"):
            align_pair(a, b)

    def test_different_alphabets_are_an_input_error(self):
        with pytest.raises(InputError, match="2 and 4 symbols"):
            align_pair(SymbolSequence((0, 1), 2), SymbolSequence((0, 3), 4))

    @given(
        st.lists(st.integers(0, 3), min_size=2, max_size=30),
        st.lists(st.integers(0, 3), min_size=2, max_size=30),
    )
    def test_outputs_equal_length(self, xs, ys):
        pair = align_pair(SymbolSequence(tuple(xs), 4), SymbolSequence(tuple(ys), 4))
        assert len(pair.x) == len(pair.y) == min(len(xs), len(ys))


class TestLowerWins:
    def test_within_tolerance_ties(self):
        assert Direction.lower_wins(0.0, 1e-12) == Direction.INDEPENDENT
        assert Direction.lower_wins(1e-12, 0.0) == Direction.INDEPENDENT

    def test_beyond_tolerance_decides(self):
        assert Direction.lower_wins(0.0, 2e-12) == Direction.X_CAUSES_Y
        assert Direction.lower_wins(2e-12, 0.0) == Direction.Y_CAUSES_X

    def test_infinite_score_loses(self):
        assert Direction.lower_wins(float("inf"), 5.0) == Direction.Y_CAUSES_X
        assert Direction.lower_wins(5.0, float("inf")) == Direction.X_CAUSES_Y

    def test_negated_scores_let_the_higher_win(self):
        assert Direction.lower_wins(-0.75, -0.5) == Direction.X_CAUSES_Y
        assert Direction.lower_wins(-0.5, -0.75) == Direction.Y_CAUSES_X
