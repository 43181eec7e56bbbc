"""Generated CSV and FASTA files through ``cli.main``: the exit code is 0 or 1, never 2.

Exit 2 is reserved for internal invariant violations, so no user input may
reach it. The commands run in-process on files in a temporary directory. The
files are bytes: UTF-8 text, sometimes after a byte-order mark, sometimes with
one byte spliced in that is never valid UTF-8.
"""

import contextlib
import io
import tempfile
from pathlib import Path

import hypothesis.strategies as st
import pytest
from hypothesis import given

from dpe import cli


def mostly(good, bad, odds=10):
    """``good`` except for about one draw in ``odds``, which comes from ``bad``."""
    return st.integers(min_value=1, max_value=odds).flatmap(lambda k: bad if k == 1 else good)


GOOD_CELLS = mostly(
    st.integers(min_value=0, max_value=3).map(str),
    st.floats(min_value=-1e3, max_value=1e3).map(repr),
    odds=3,
)
BAD_CELLS = st.one_of(
    st.integers(min_value=-3, max_value=300).map(str),
    st.floats().map(repr),
    st.sampled_from(("", " ", "x", '"1,2"', "0x1", "1e308", "-1e308", "1e999", "nan", "-inf")),
    # a quoted cell over two lines, and one over the csv module's field size limit
    st.sampled_from(('"1\n2"', '"x\ny"', "9" * 131_073)),
)

BOM = b"\xef\xbb\xbf"
NOT_UTF8 = st.sampled_from((b"\x80", b"\xc3", b"\xe9", b"\xff"))


def encode(draw, text):
    """``text`` as UTF-8, one time in four after a BOM, one in eight with a bad byte."""
    data = text.encode("utf-8")
    if draw(st.integers(min_value=1, max_value=4)) == 1:
        data = BOM + data
    if draw(st.integers(min_value=1, max_value=8)) == 1:
        at = draw(st.integers(min_value=0, max_value=len(data)))
        data = data[:at] + draw(NOT_UTF8) + data[at:]
    return data


@st.composite
def csv_texts(draw):
    """(bytes, data rows) of a numeric table, sometimes with a header, one bad cell
    or one ragged row."""
    width = draw(st.integers(min_value=2, max_value=4))
    n_rows = draw(st.integers(min_value=0, max_value=40))
    rows = [[draw(GOOD_CELLS) for _ in range(width)] for _ in range(n_rows)]
    if rows and draw(st.integers(min_value=1, max_value=4)) == 1:
        row = draw(st.sampled_from(rows))
        row[draw(st.integers(min_value=0, max_value=width - 1))] = draw(BAD_CELLS)
    if rows and draw(st.integers(min_value=1, max_value=8)) == 1:
        row = draw(st.sampled_from(rows))
        del row[draw(st.integers(min_value=1, max_value=width)):]
        row += ["0"] * draw(st.integers(min_value=0, max_value=2))
    text = "".join(",".join(row) + "\n" for row in rows)
    if draw(st.booleans()):
        header = ["h%d" % k for k in range(width)]
        if draw(st.booleans()):
            header[-1] = '"h\n%d"' % (width - 1)  # the header spans two lines
        text = ",".join(header) + "\n" + text
    return encode(draw, text), n_rows


INFER_OPTIONS = st.tuples(
    st.sampled_from(("equiwidth", "nonzero", "none")),
    mostly(st.sampled_from(("1,2", "2,1", "1,3")),
           st.sampled_from(("1,1", "3,4", "0,1", "-1,2", "1", "a,b", "1,2,3")), odds=5),
    # --drop counted from the first row, or from the last row (keep a few or none)
    mostly(st.one_of(st.tuples(st.just(0), st.integers(min_value=0, max_value=3)),
                     st.tuples(st.just(1), st.integers(min_value=-2, max_value=2))),
           st.tuples(st.just(0), st.integers(min_value=-2, max_value=-1))),
)


def run_main(argv):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return cli.main(argv)
        except SystemExit as exc:  # argparse usage errors
            return exc.code


@pytest.mark.filterwarnings("ignore::dpe.errors.DegenerateSeriesWarning")
@given(csv_texts(), INFER_OPTIONS, st.booleans())
def test_infer_exit_code_is_0_or_1(table, options, graph):
    data, n_rows = table
    binarize, cols, (from_end, drop) = options
    drop += from_end * n_rows
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "pair.csv"
        path.write_bytes(data)
        argv = ["infer", "--input", str(path), "--binarize", binarize, "--cols", cols,
                "--drop", str(drop), "--out", str(Path(tmp) / "report.txt")]
        if graph:
            argv += ["--graph", str(Path(tmp) / "graph.jsonl")]
        assert run_main(argv) in (0, 1)


# lower case is mapped; IUPAC codes, gaps and stops are masked
NUCLEOTIDES = mostly(st.sampled_from("ACGT"), st.sampled_from("acgtNRYKMSWBDHV-*"), odds=8)
SEQUENCE_LINES = st.lists(NUCLEOTIDES, min_size=1, max_size=40).map("".join)
HEADERS = mostly(st.sampled_from((">rec", ">rec some description")), st.sampled_from((">", "> ")))


@st.composite
def fasta_texts(draw, records=mostly(st.integers(1, 3), st.just(0))):
    """FASTA bytes, sometimes without records, sometimes after a line of headerless data."""
    lines = []
    if draw(st.integers(min_value=1, max_value=40)) == 1:  # data before any header
        lines.append(draw(SEQUENCE_LINES))
    for _ in range(draw(records)):
        lines.append(draw(HEADERS))
        empty = draw(st.integers(min_value=1, max_value=30)) == 1
        lines += [] if empty else draw(st.lists(SEQUENCE_LINES, min_size=1, max_size=3))
    return encode(draw, "\n".join(lines) + "\n")


ONE_RECORD = mostly(st.just(1), st.integers(min_value=0, max_value=2))


@given(fasta_texts(ONE_RECORD), fasta_texts(ONE_RECORD), st.lists(fasta_texts(), max_size=3))
def test_genomic_exit_code_is_0_or_1(reference, cw, candidates):
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        (root / "ref.fa").write_bytes(reference)
        (root / "cw.fa").write_bytes(cw)
        country = root / "country"
        country.mkdir()
        for k, data in enumerate(candidates):
            (country / ("c%d.%s" % (k, ("fa", "fasta")[k % 2]))).write_bytes(data)
        argv = ["genomic", "--reference", str(root / "ref.fa"), "--cw", str(root / "cw.fa"),
                "--candidates", str(country), "--out", str(root / "out.csv")]
        assert run_main(argv) in (0, 1)
