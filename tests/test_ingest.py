import csv
import hashlib
import io
import math
import random
import tracemalloc
from itertools import chain, islice

import pytest
from hypothesis import given
from hypothesis import strategies as st

from citerhythm import (
    AlignmentError,
    Collective,
    DomainError,
    LayoutError,
    ManifestError,
    MatrixParseError,
    PCMatrix,
    RhythmError,
    SubsetError,
    add,
    build_collective,
    fixture_path,
    load_manifest,
    parse_manifest,
    parse_matrix,
    read_matrix_file,
    validate_collective,
    write_matrix,
)
from citerhythm import ingest
from citerhythm.ingest import _format_count, _lines
from helpers import CELL_TOKENS, parse_outcome, quote_header, random_matrix, zero

FIXTURES = [
    "china.csv",
    "scim_minus_china.csv",
    "brazil.csv",
    "netherlands.csv",
    "scim_minus_brazil_netherlands.csv",
    "scim_total.csv",
]


# Both readers of a matrix CSV: "split" parses the document as written,
# which has no quotes; "csv" quotes the first field of its header, so
# csv.reader reads it, and requires the same matrix or error as "split".
READERS = ["split", "csv"]


def _parse(reader: str, text: str) -> PCMatrix:
    if reader == "csv":
        quoted = quote_header(text)
        assert quoted != text
        assert parse_outcome(quoted) == parse_outcome(text)
        text = quoted
    return parse_matrix(text)


def _with_readers(names: str, cases: list[tuple], ids: list[str]):
    """Parameters ``names`` plus ``reader``: the cases as given, under their
    ids, read by splitting lines, then each again through csv.reader."""
    return pytest.mark.parametrize(f"{names},reader", [
        *(pytest.param(*case, "split", id=i) for case, i in zip(cases, ids)),
        *(pytest.param(*case, "csv", id=f"{i}-csv") for case, i in zip(cases, ids)),
    ])


class TestParse:
    def test_china_fixture(self, china):
        assert china.first_year == 2015
        assert china.n == 10
        assert china.pubs[0] == 74
        assert china.cites[0][1] == 104  # cited in 2016
        assert sum(china.cites[0]) == 2149

    def test_minimal_one_year_document(self):
        m = parse_matrix("year,pubs,2020\n2020,10,5\n")
        assert m.n == 1
        assert m.pubs == (10.0,)
        assert m.cites == ((5.0,),)

    def test_explicit_zero_is_parsed_as_zero(self, netherlands):
        assert netherlands.cites[2022 - 2015][0] == 0.0

    def test_non_numeric_cell_position_reported(self):
        text = "year,pubs,2020,2021\n2020,1,2,x\n2021,1,,3\n"
        with pytest.raises(MatrixParseError) as err:
            parse_matrix(text)
        assert err.value.line == 2
        assert err.value.column == 4

    def test_negative_value_rejected(self):
        text = "year,pubs,2020,2021\n2020,1,2,-3\n2021,1,,3\n"
        with pytest.raises(DomainError):
            parse_matrix(text)

    def test_below_diagonal_must_be_blank(self):
        text = "year,pubs,2020,2021\n2020,1,2,3\n2021,1,0,3\n"
        with pytest.raises(LayoutError) as err:
            parse_matrix(text)
        assert err.value.line == 3

    def test_missing_cell_above_diagonal_rejected(self):
        text = "year,pubs,2020,2021\n2020,1,,3\n2021,1,,3\n"
        with pytest.raises(MatrixParseError):
            parse_matrix(text)

    def test_ragged_row_rejected(self):
        text = "year,pubs,2020,2021\n2020,1,2\n2021,1,,3\n"
        with pytest.raises(LayoutError):
            parse_matrix(text)

    @_with_readers(
        "body,line,message",
        [
            ("2020,1," + "1" * 131_073 + "\n", 2, "field larger than field limit (131072)"),
            ("2020,1\r,2\n", 2, "carriage return without line feed"),
            # A count that converts, but is longer than csv's field limit.
            ("2020,1," + "0" * 131_073 + "\n", 2, "field larger than field limit (131072)"),
        ],
        ids=["field-limit", "bare-cr", "field-limit-number"],
    )
    def test_csv_reader_errors_positioned(self, body, line, message, reader):
        with pytest.raises(LayoutError) as err:
            _parse(reader, "year,pubs,2020\n" + body)
        assert err.value.line == line
        assert str(err.value).startswith(f"line {line}: {message}")

    @_with_readers(
        "rows,message",
        [
            # A blank line is a row of its own, reported before the row count.
            (["2020,3,1,2", "", "2021,4,,5"], "line 3: expected 4 cells, found 0"),
            (["2020,3,1,2"], "line 2: expected 2 data rows, found 1"),
            (["2020,3,1,2", "2021,4,,5", "2022,1,,"], "line 4: expected 2 data rows, found 3"),
            # A count in place of the blank, with the row one cell short.
            (["2020,3,1,2", "2021,4,1.5"], "line 3: expected 4 cells, found 3"),
        ],
        ids=["blank", "missing", "extra", "short"],
    )
    def test_row_shape_reported_at_its_line(self, rows, message, reader):
        with pytest.raises(LayoutError) as err:
            _parse(reader, "year,pubs,2020,2021\n" + "\n".join(rows) + "\n")
        assert str(err.value) == message

    def test_line_endings(self):
        text = "year,pubs,2020,2021\n2020,1,2,3\n2021,4,,5\n"
        for reader in READERS:
            assert _parse(reader, text.replace("\n", "\r\n")) == parse_matrix(text)
            with pytest.raises(LayoutError) as err:
                _parse(reader, "year,pubs,2020\r2020,1,1\r")
            assert err.value.line == 1
            assert str(err.value) == (
                "line 1: carriage return without line feed; lines must end in LF or CRLF"
            )

    @pytest.mark.parametrize("token", ["nan", "inf", "1e999", "NaN", "Infinity"])
    def test_non_finite_cell_position_reported(self, token):
        text = f"year,pubs,2020,2021\n2020,1,2,{token}\n2021,1,,3\n"
        with pytest.raises(DomainError) as err:
            parse_matrix(text)
        assert str(err.value) == (
            f"line 2, column 4: count must be finite, got {token!r}"
        )

    @pytest.mark.parametrize(
        "rows,message",
        [
            # The first bad cell in reading order wins, whatever its kind.
            (["2020,1,nan,x", "2021,1,,-3"], "line 2, column 3: count must be finite"),
            (["2020,1,2,-3", "2021,1,,nan"], "line 2, column 4: negative count"),
            (["2020,inf,2,x", "2021,1,,3"], "line 2, column 2: count must be finite"),
            (["2020,1,2,3", "2021,1,5,inf"], "line 3, column 3: cell below the diagonal"),
            (["2020,1,2,3", "2021,-1,5,3"], "line 3, column 2: negative count"),
            (["2020,1,2,3", "2021,nan,,3"], "line 3, column 2: count must be finite"),
            (["2020,1,2,-inf", "2021,1,,3"], "line 2, column 4: negative count '-inf'"),
            (["2020.0,1,2,x", "2021,1,,3"], "line 2, column 1: not a year: '2020.0'"),
        ],
    )
    def test_first_bad_cell_in_reading_order(self, rows, message):
        text = "year,pubs,2020,2021\n" + "\n".join(rows) + "\n"
        with pytest.raises(RhythmError) as err:
            parse_matrix(text)
        assert str(err.value).startswith(message)

    @_with_readers(
        "text,error,line,column",
        [
            # A bad year comes before a short row further down.
            (
                "year,pubs,2020,2021,2022\nx,1,1,2,3\n2021,1,,2,3\n2022,1,,\n",
                MatrixParseError, 2, 1,
            ),
            # A bad header comes before a field past the csv limit.
            (
                "year,pubs,2020,abc\n2020,1," + "1" * 131_073 + ",1\n",
                LayoutError, 1, None,
            ),
            # A bad cell comes before the row count.
            ("year,pubs,2020,2021\n2020,1,2,3\n2021,1,,x\n2022,1,,3\n", MatrixParseError, 3, 4),
        ],
        ids=["year-before-short-row", "header-before-field-limit", "cell-before-row-count"],
    )
    def test_first_fault_in_reading_order(self, text, error, line, column, reader):
        with pytest.raises(RhythmError) as err:
            _parse(reader, text)
        assert type(err.value) is error
        assert (err.value.line, err.value.column) == (line, column)

    @given(st.text(alphabet="1,\"\n\r\x0c\x85\u2028"))
    def test_lines_split_as_stringio_does(self, text):
        assert list(_lines(text)) == list(io.StringIO(text))

    def test_holds_one_row_of_text_at_a_time(self):
        # Beyond the matrix it returns, parsing allocates less than the
        # document's own size: no copy of the text, no text of every cell.
        text = write_matrix(random_matrix(random.Random(300), n=300, min_pubs=0, max_cites=99))
        tracemalloc.start()
        try:
            m = parse_matrix(text)
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert m.n == 300
        assert peak - kept < len(text)

    def test_row_whose_sum_overflows_still_parses(self):
        # Every cell is finite; only their sum is not.
        m = parse_matrix("year,pubs,2020,2021\n2020,1,1e308,1e308\n2021,1,,3\n")
        assert m == PCMatrix(2020, (1.0, 1.0), ((1e308, 1e308), (3.0,)))

    def test_nul_cell_is_not_a_number(self):
        # A document without quotes never meets csv's NUL rule, which
        # differs between Python versions.
        with pytest.raises(MatrixParseError) as err:
            parse_matrix("year,pubs,2020\n2020,1\x00,1\n")
        assert type(err.value) is MatrixParseError
        assert (err.value.line, err.value.column) == (2, 2)
        assert str(err.value) == "line 2, column 2: not a number: '1\\x00'"

    def test_documents_without_quotes_skip_the_csv_reader(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("csv.reader called")

        monkeypatch.setattr(csv, "reader", refuse)
        for name in FIXTURES:
            assert parse_matrix(fixture_path(name).read_text(encoding="utf-8")).n == 10
        m = random_matrix(random.Random(300), n=300, min_pubs=0, max_cites=99)
        assert parse_matrix(write_matrix(m)) == m
        with pytest.raises(AssertionError, match="csv.reader called"):
            parse_matrix(quote_header(write_matrix(m)))

    @pytest.mark.parametrize(
        "text",
        [
            "",
            "pubs,year,2020\n",
            "year,pubs,2020,abc\n",
            "year,pubs,2020,2022\n",  # gap in citing years
            "year,pubs,2020\n",  # no data rows
            "year,pubs,2020\n2021,1,2\n",  # wrong publication year
        ],
    )
    def test_layout_errors(self, text):
        with pytest.raises(LayoutError):
            parse_matrix(text)


def _expected_parse(first_year: int, grid: list[list[str]]):
    """What parsing the data rows ``grid`` must give, worked out cell by cell
    in reading order: a matrix from the validating constructor, or the error
    type and the ``line L, column C`` of the first bad cell."""
    pubs, cites = [], []
    for t, row in enumerate(grid):
        line = t + 2
        values = []
        for column, cell in enumerate(row[1:], 2):
            if 3 <= column < 3 + t:
                if cell != "":
                    return LayoutError, line, column
                continue
            try:
                value = float(cell)
            except ValueError:
                return MatrixParseError, line, column
            if value < 0 or not math.isfinite(value):
                return DomainError, line, column
            values.append(value)
        pubs.append(values[0])
        cites.append(values[1:])
    return PCMatrix(first_year, pubs, cites)


@st.composite
def damaged_documents(draw):
    """A valid matrix CSV with one or two cells replaced by tricky tokens."""
    n = draw(st.integers(1, 6))
    pubs = draw(st.lists(st.integers(0, 40), min_size=n, max_size=n))
    cites = [draw(st.lists(st.integers(0, 25), min_size=n - t, max_size=n - t))
             for t in range(n)]
    m = PCMatrix(2000, pubs, cites)
    lines = write_matrix(m).splitlines()
    grid = [line.split(",") for line in lines[1:]]
    for _ in range(draw(st.integers(1, 2))):
        t = draw(st.integers(0, n - 1))
        column = draw(st.integers(2, n + 2))
        grid[t][column - 1] = draw(st.sampled_from(CELL_TOKENS))
    text = "\n".join([lines[0], *(",".join(row) for row in grid)]) + "\n"
    return text, grid


_MATRIX_HEAD = b"year,pubs,2020,2021\n"
_MANIFEST_HEAD = b"[collective]\nlabel = X\n"


@pytest.mark.parametrize(
    "name,raw,error,line,column",
    [
        ("m.csv", _MATRIX_HEAD + b"2020,1,2,x\n2021,1,,3\n", MatrixParseError, 2, 4),
        ("m.csv", _MATRIX_HEAD + b"2020,1,2,3\n2021,-1,,3\n", DomainError, 3, 2),
        ("m.csv", _MATRIX_HEAD + b"2020,1,2,nan\n2021,1,,3\n", DomainError, 2, 4),
        ("m.csv", _MATRIX_HEAD + b"2020,1,2,3\n2021,1,0,3\n", LayoutError, 3, 3),
        ("m.csv", _MATRIX_HEAD + b"2020,1,2,3\n2021,\xff,,3\n", MatrixParseError, 3, None),
        ("m.csv", _MATRIX_HEAD + b"2020,1,2,3\r2021,1,,3\n", LayoutError, 2, None),
        ("m.manifest", _MANIFEST_HEAD + b"[actor]\nid = \xff\n", ManifestError, 4, None),
        ("m.manifest", _MANIFEST_HEAD + b"[actor]\rid = a\n", ManifestError, 3, None),
        ("m.manifest", _MANIFEST_HEAD + b"[collective]\n", ManifestError, 3, None),
        ("m.manifest", _MANIFEST_HEAD + b"\n[banana]\n", ManifestError, 4, None),
        ("m.manifest", b"# comment\nlabel = X\n", ManifestError, 2, None),
        ("m.manifest", _MANIFEST_HEAD + b"total t.csv\n", ManifestError, 3, None),
        ("m.manifest", _MANIFEST_HEAD + b"weight = 1\n", ManifestError, 3, None),
        ("m.manifest", _MANIFEST_HEAD + b"label = Y\n", ManifestError, 3, None),
        ("m.manifest", _MANIFEST_HEAD + b"[actor]\nid =\n", ManifestError, 4, None),
    ],
    ids=[
        "not-a-number", "negative", "non-finite", "below-diagonal", "matrix-bad-byte",
        "matrix-lone-cr", "manifest-bad-byte", "manifest-lone-cr", "duplicate-collective",
        "unknown-section", "key-outside-section", "no-equals", "unknown-key",
        "duplicate-key", "empty-value",
    ],
)
def test_error_position_matches_its_message(tmp_path, name, raw, error, line, column):
    """An error found in a file carries the line (and column) that its
    message names, whatever its type."""
    path = tmp_path / name
    path.write_bytes(raw)
    read = parse_manifest if name.endswith(".manifest") else read_matrix_file
    with pytest.raises(error) as err:
        read(path)
    assert type(err.value) is error
    assert (err.value.line, err.value.column) == (line, column)
    where = f"line {line}" + (f", column {column}" if column is not None else "")
    assert str(err.value).startswith(where + ": ")
    assert not str(err.value).startswith(where + ", column")


def _assert_parses_as_expected(text: str, grid: list[list[str]]) -> None:
    expected = _expected_parse(2000, grid)
    for reader in READERS:
        if isinstance(expected, PCMatrix):
            # repr tells -0.0 from 0.0, which == does not.
            assert repr(_parse(reader, text)) == repr(expected)
            continue
        kind, line, column = expected
        with pytest.raises(RhythmError) as err:
            _parse(reader, text)
        assert type(err.value) is kind
        assert str(err.value).startswith(f"line {line}, column {column}: ")


class TestParseEqualsCellByCellCheck:
    # Each document is read by both readers.
    @given(damaged_documents())
    def test_parse_or_first_bad_cell(self, document):
        _assert_parses_as_expected(*document)

    # With no shared texts, or with three, bad cells fall both before and
    # after the switch to plain float.
    @pytest.mark.parametrize("cap", [0, 3])
    @given(document=damaged_documents())
    def test_parse_or_first_bad_cell_either_side_of_the_cap(self, cap, document):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(ingest, "_SHARED_COUNTS", cap)
            _assert_parses_as_expected(*document)


class TestSharedCounts:
    def test_equal_texts_share_one_float(self):
        m = parse_matrix("year,pubs,2020,2021\n2020,7,2.5,7\n2021,7,,2.5\n")
        assert m.cites[0][0] is m.cites[1][0]
        assert m.pubs[0] is m.pubs[1] is m.cites[0][1]

    def test_signed_zeros_keep_their_signs(self):
        head = "year,pubs,2020,2021,2022\n"
        m = parse_matrix(head + "2020,0,-0,0.0,0\n2021,-0,,0,-0\n2022,0.0,,,-0\n")
        cells = [*m.pubs, *m.cites[0], *m.cites[1], *m.cites[2]]
        assert cells == [0.0] * 9
        assert [math.copysign(1, v) for v in cells] == [1, -1, 1, -1, 1, 1, 1, -1, -1]
        assert write_matrix(m) == head + "2020,0,0,0,0\n2021,0,,0,0\n2022,0,,,0\n"

    def test_each_document_has_its_own_counts(self):
        text = "year,pubs,2020\n2020,3.5,3.5\n"
        first, second = parse_matrix(text), parse_matrix(text)
        assert first.pubs[0] is first.cites[0][0]
        assert first.pubs[0] is not second.pubs[0]

    def test_past_the_cap_cells_convert_as_float_does(self):
        # 101 rows of all-distinct texts: 5,252 counts, more than the cap;
        # the last rows hold negative zeros as well.
        n = 101
        rng = random.Random(22)
        grid = [[repr(rng.uniform(0, 1e4)) for _ in range(n - t + 1)] for t in range(n)]
        assert len({cell for row in grid for cell in row}) > ingest._SHARED_COUNTS
        for row in grid[-2:]:
            row[1:] = ["-0"] * (len(row) - 1)
        lines = ["year,pubs," + ",".join(str(2000 + t) for t in range(n))]
        lines += [f"{2000 + t},{row[0]},{',' * t}{','.join(row[1:])}" for t, row in enumerate(grid)]
        m = parse_matrix("\n".join(lines) + "\n")
        parsed = [[m.pubs[t], *m.cites[t]] for t in range(n)]
        assert [list(map(repr, row)) for row in parsed] == [
            [repr(float(cell)) for cell in row] for row in grid
        ]

    @pytest.mark.parametrize("text", ["-1", "nan", "inf", "1e400"])
    def test_bad_texts_are_never_stored(self, text, monkeypatch):
        counts = ingest._Counts()
        with pytest.raises(ValueError):
            counts[text]
        assert text not in counts
        memos = []

        class Recorded(ingest._Counts):
            def __init__(self):
                super().__init__()
                memos.append(self)

        monkeypatch.setattr(ingest, "_Counts", Recorded)
        with pytest.raises(DomainError):
            parse_matrix(f"year,pubs,2020,2021\n2020,1,2,{text}\n2021,1,,3\n")
        assert [list(memo) for memo in memos] == [["1", "2"]]

    @pytest.mark.parametrize("cap", [ingest._SHARED_COUNTS, 0, 3])
    @pytest.mark.parametrize("text", ["-1", "nan", "inf", "1e400"])
    def test_repeated_bad_text_raises_at_its_first_position(self, cap, text, monkeypatch):
        monkeypatch.setattr(ingest, "_SHARED_COUNTS", cap)
        rows = ["2020,1,2,3,4", f"2021,5,,6,{text}", f"2022,{text},,,{text}"]
        with pytest.raises(DomainError) as err:
            parse_matrix("year,pubs,2020,2021,2022\n" + "\n".join(rows) + "\n")
        assert (err.value.line, err.value.column) == (3, 5)
        assert repr(text) in str(err.value)


_EXACT_INTEGERS = [0.0, -0.0, 2.0**53 + 2, 1e22, 1.7e308]
_INTEGER_COUNTS = st.one_of(st.sampled_from(_EXACT_INTEGERS), st.integers(0, 10**6).map(float))
_FRACTIONAL_COUNTS = st.floats(0, 1e300, exclude_min=True).filter(lambda v: not v.is_integer())


@st.composite
def written_matrices(draw):
    """Matrices whose rows hold only integer counts, only fractional counts,
    or a mix of both."""
    n = draw(st.integers(1, 6))
    kinds = {
        "integer": _INTEGER_COUNTS,
        "fractional": _FRACTIONAL_COUNTS,
        "mixed": st.one_of(_INTEGER_COUNTS, _FRACTIONAL_COUNTS),
    }
    rows = []  # each row: its publication count, then its citation counts
    for t in range(n):
        counts = kinds[draw(st.sampled_from(sorted(kinds)))]
        rows.append(draw(st.lists(counts, min_size=n - t + 1, max_size=n - t + 1)))
    return PCMatrix(1990, [row[0] for row in rows], [row[1:] for row in rows])


def _written_cell_by_cell(m: PCMatrix) -> str:
    lines = [",".join(["year", "pubs", *map(str, m.years)])]
    for t, (year, pub, row) in enumerate(zip(m.years, m.pubs, m.cites)):
        cells = [_format_count(pub), *[""] * t, *map(_format_count, row)]
        lines.append(",".join([str(year), *cells]))
    return "\n".join(lines) + "\n"


class TestWrite:
    @pytest.mark.parametrize("name", FIXTURES)
    def test_fixtures_roundtrip_byte_identical(self, name):
        raw = fixture_path(name).read_bytes()
        m = parse_matrix(raw.decode("utf-8"))
        assert write_matrix(m).encode("utf-8") == raw

    def test_zero_matrix_layout(self):
        text = write_matrix(zero(2000, 2))
        assert text == "year,pubs,2000,2001\n2000,0,0,0\n2001,0,,0\n"

    def test_fractional_counts_roundtrip(self):
        m = PCMatrix(first_year=2000, pubs=(2.5,), cites=((0.1,),))
        text = write_matrix(m)
        assert "2.5" in text and "0.1" in text
        assert parse_matrix(text) == m

    @given(st.integers(0, 60))
    def test_integers_written_without_decimal_point(self, v):
        m = PCMatrix(first_year=2000, pubs=(float(v),), cites=((0.0,),))
        assert f"\n2000,{v}," in write_matrix(m)

    @given(written_matrices())
    def test_equals_cell_by_cell_formatting(self, m):
        _assert_written_cell_by_cell(m)

    def test_roundtrip_random(self):
        _assert_roundtrip_random()

    # With no shared texts, or with three, rows fall both before and after
    # the switch to formatting row by row.
    @pytest.mark.parametrize("cap", [0, 3])
    @given(m=written_matrices())
    def test_equals_cell_by_cell_formatting_either_side_of_the_cap(self, cap, m):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(ingest, "_SHARED_COUNTS", cap)
            _assert_written_cell_by_cell(m)

    @pytest.mark.parametrize("cap", [0, 3])
    def test_roundtrip_random_either_side_of_the_cap(self, cap, monkeypatch):
        monkeypatch.setattr(ingest, "_SHARED_COUNTS", cap)
        _assert_roundtrip_random()

    @pytest.mark.parametrize("cap", [ingest._SHARED_COUNTS, 0, 3])
    def test_signed_zeros_large_integers_and_fractions(self, cap, monkeypatch):
        monkeypatch.setattr(ingest, "_SHARED_COUNTS", cap)
        m = PCMatrix(
            2000,
            (-0.0, 0.0, 2.0**53, 1 / 3),
            (
                (0.0, -0.0, 2.0**53 + 2, 1e22),
                (1.7e308, 0.1, 2.5),
                (2.0**51 + 0.5, 5e-324),
                (1e-05,),
            ),
        )
        text = write_matrix(m)
        assert text == _written_cell_by_cell(m)
        lines = text.splitlines()
        assert lines[1] == "2000,0,0,0,9007199254740994,10000000000000000000000"
        assert lines[2].startswith("2001,0,,1699999999999999")
        assert lines[3] == "2002,9007199254740992,,,2251799813685248.5,5e-324"
        assert lines[4] == "2003,0.3333333333333333,,,,1e-05"
        assert parse_matrix(text) == m

    def test_each_distinct_count_formatted_once(self, monkeypatch):
        calls = []

        def counted(value):
            calls.append(value)
            return _format_count(value)

        monkeypatch.setattr(ingest, "_format_count", counted)
        m = random_matrix(random.Random(5), n=60, max_cites=9)
        text = write_matrix(m)
        distinct = set(chain(m.pubs, *m.cites))
        assert sorted(calls) == sorted(distinct)
        assert text == _written_cell_by_cell(m)

    @pytest.mark.parametrize("fractional", [False, True])
    def test_past_the_cap_equals_cell_by_cell(self, fractional):
        # n = 500 with all-distinct counts: more than the cap, so the later
        # rows are formatted without the shared texts.
        rng = random.Random(23)
        if fractional:
            counts = iter(lambda: rng.uniform(0, 1e4), None)
        else:
            counts = map(float, rng.sample(range(10**9), 126_000))
        n = 500
        pubs = tuple(islice(counts, n))
        cites = tuple(tuple(islice(counts, n - t)) for t in range(n))
        m = PCMatrix(1500, pubs, cites)
        assert len(set(chain(pubs, *cites))) > ingest._SHARED_COUNTS
        assert write_matrix(m) == _written_cell_by_cell(m)


def _assert_written_cell_by_cell(m: PCMatrix) -> None:
    text = write_matrix(m)
    assert text == _written_cell_by_cell(m)
    assert parse_matrix(text) == m


def _assert_roundtrip_random() -> None:
    rng = random.Random(99)
    for _ in range(200):
        m = random_matrix(
            rng,
            n=rng.randint(1, 15),
            min_pubs=0,
            fractional=rng.random() < 0.5,
        )
        assert parse_matrix(write_matrix(m)) == m


class TestMatrixFile:
    def test_checksum_and_default_label(self):
        path = fixture_path("china.csv")
        mf = read_matrix_file(path)
        assert mf.matrix.label == "china"
        assert mf.sha256 == hashlib.sha256(path.read_bytes()).hexdigest()

    def test_explicit_label(self):
        mf = read_matrix_file(fixture_path("china.csv"), label="People's Republic")
        assert mf.matrix.label == "People's Republic"

    def test_utf8_bom_accepted(self, tmp_path, china):
        raw = b"\xef\xbb\xbf" + fixture_path("china.csv").read_bytes()
        path = tmp_path / "china.csv"
        path.write_bytes(raw)
        mf = read_matrix_file(path)
        assert mf.matrix == china
        assert mf.matrix.label == "china"
        assert mf.sha256 == hashlib.sha256(raw).hexdigest()

    def test_non_utf8_byte_names_its_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_bytes(b"\xef\xbb\xbfyear,pubs,2020\n2020,1,\xff\n")
        with pytest.raises(MatrixParseError) as err:
            read_matrix_file(path)
        assert err.value.line == 2
        assert str(err.value) == "line 2: cannot decode byte 0xff as UTF-8: invalid start byte"


class TestFixtureCorpus:
    @pytest.mark.parametrize(
        "name,key",
        [
            ("china.csv", "china"),
            ("scim_minus_china.csv", "scim_minus_china"),
            ("brazil.csv", "brazil"),
            ("netherlands.csv", "netherlands"),
            ("scim_minus_brazil_netherlands.csv", "scim_minus_brazil_netherlands"),
        ],
    )
    def test_observed_columns_match_published(self, name, key, golden):
        m = read_matrix_file(fixture_path(name)).matrix
        assert list(m.sums.rows) == golden["actors"][key]["observed"]
        assert list(m.pubs) == golden["actors"][key]["pubs"]

    def test_partition_cross_check(
        self, china, scim_minus_china, brazil, netherlands, scim_minus_brazil_netherlands
    ):
        assert add(china, scim_minus_china) == add(
            add(brazil, netherlands), scim_minus_brazil_netherlands
        )

    def test_missing_fixture(self):
        with pytest.raises(FileNotFoundError):
            fixture_path("atlantis.csv")


class TestManifest:
    def test_parse_shipped_manifest(self):
        man = parse_manifest(fixture_path("scim.manifest"))
        assert man.label == "SCIM"
        assert man.total_path.name == "scim_total.csv"
        assert [a.actor_id for a in man.actors] == ["china", "brazil", "netherlands"]
        assert man.assert_partition is False

    def test_load_shipped_manifest(self, scim):
        assert isinstance(scim, Collective)
        assert scim.actor_ids == ("china", "brazil", "netherlands")
        assert scim.total.label == "SCIM"
        assert scim.actor("netherlands").label == "Netherlands"

    def test_utf8_bom_accepted(self, tmp_path):
        shipped = fixture_path("scim.manifest")
        path = tmp_path / "scim.manifest"
        path.write_bytes(b"\xef\xbb\xbf" + shipped.read_bytes())
        man = parse_manifest(path)
        assert man.label == "SCIM"
        assert [a.actor_id for a in man.actors] == ["china", "brazil", "netherlands"]

    def _write(self, tmp_path, body, name="test.manifest"):
        p = tmp_path / name
        p.write_text(body, encoding="utf-8")
        return p

    def test_non_utf8_byte_names_its_line(self, tmp_path):
        p = tmp_path / "bad.manifest"
        p.write_bytes(b"[collective]\nlabel = \xff\n")
        with pytest.raises(ManifestError) as err:
            parse_manifest(p)
        assert str(err.value) == "line 2: cannot decode byte 0xff as UTF-8: invalid start byte"

    def test_only_lf_ends_a_line(self, tmp_path):
        # U+2028, U+0085 and form feeds stay inside values, and line numbers
        # count LF as the decode error does.
        body = (
            "[collective]\r\nlabel = S\u2028CIM\n\n"
            "[actor]\nid = a\x85b\nlabel = A\x0cB\npath = a.csv\n"
        )
        man = parse_manifest(self._write(tmp_path, body))
        assert man.label == "S\u2028CIM"
        assert (man.actors[0].actor_id, man.actors[0].label) == ("a\x85b", "A\x0cB")
        with pytest.raises(ManifestError) as err:
            parse_manifest(self._write(tmp_path, body + "bogus\n"))
        assert str(err.value) == "line 8: expected key = value, got 'bogus'"

    def test_cr_without_lf_rejected(self, tmp_path):
        p = self._write(tmp_path, "[collective]\r\nlabel = X\r[actor]\r\n")
        with pytest.raises(ManifestError) as err:
            parse_manifest(p)
        assert str(err.value) == (
            "line 2: carriage return without line feed; lines must end in LF or CRLF"
        )

    def test_missing_manifest(self, tmp_path):
        p = tmp_path / "gone.manifest"
        with pytest.raises(ManifestError) as err:
            parse_manifest(p)
        assert str(err.value).startswith(f"cannot read manifest {p}: ")
        assert isinstance(err.value.__cause__, FileNotFoundError)

    def test_error_in_referenced_matrix_names_the_file(self, tmp_path):
        (tmp_path / "a.csv").write_text("year,pubs,2020\n2020,1\x00,1\n")
        p = self._write(
            tmp_path, "[collective]\nlabel = X\n\n[actor]\nid = a\nlabel = A\npath = a.csv\n"
        )
        with pytest.raises(ManifestError) as err:
            load_manifest(p)
        assert str(err.value) == f"{tmp_path / 'a.csv'}: line 2, column 2: not a number: '1\\x00'"
        assert isinstance(err.value.__cause__, MatrixParseError)

    @pytest.mark.parametrize("bad", ["a.csv", "t.csv"], ids=["actor", "total"])
    def test_error_in_referenced_matrix_keeps_its_position(self, tmp_path, bad):
        for name in ("a.csv", "t.csv"):
            (tmp_path / name).write_text(f"year,pubs,2020\n2020,{'x' if name == bad else 1},1\n")
        p = self._write(
            tmp_path,
            "[collective]\nlabel = X\ntotal = t.csv\n\n[actor]\nid = a\nlabel = A\npath = a.csv\n",
        )
        with pytest.raises(ManifestError) as err:
            load_manifest(p)
        assert str(err.value) == f"{tmp_path / bad}: line 2, column 2: not a number: 'x'"
        assert (err.value.line, err.value.column) == (2, 2)
        assert isinstance(err.value.__cause__, MatrixParseError)

    def test_missing_matrix_file_names_path(self, tmp_path):
        p = self._write(
            tmp_path,
            "[collective]\nlabel = X\n\n[actor]\nid = a\nlabel = A\npath = gone.csv\n",
        )
        with pytest.raises(ManifestError) as err:
            load_manifest(p)
        assert "gone.csv" in str(err.value)

    def test_window_mismatch_rejected(self, tmp_path, china, brazil):
        (tmp_path / "a.csv").write_text(write_matrix(china))
        shifted = PCMatrix(first_year=2016, pubs=brazil.pubs, cites=brazil.cites)
        (tmp_path / "b.csv").write_text(write_matrix(shifted))
        p = self._write(
            tmp_path,
            "[collective]\nlabel = X\n\n[actor]\nid = a\nlabel = A\npath = a.csv\n"
            "\n[actor]\nid = b\nlabel = B\npath = b.csv\n",
        )
        with pytest.raises(ManifestError) as err:
            load_manifest(p)
        assert str(err.value) == f"{p}: constituent 'b' covers 2016-2025, X covers 2015-2024"
        assert isinstance(err.value.__cause__, AlignmentError)

    def test_subset_violation_fails_load(self, tmp_path, china, brazil):
        # Assembling the collective already rejects it, validated or not.
        (tmp_path / "total.csv").write_text(write_matrix(brazil))
        (tmp_path / "big.csv").write_text(write_matrix(china))
        p = self._write(
            tmp_path,
            "[collective]\nlabel = X\ntotal = total.csv\n\n"
            "[actor]\nid = big\nlabel = Big\npath = big.csv\n",
        )
        message = (
            f"{p}: X: constituents sum past the total at publications of year 2015: "
            f"{china.pubs[0]} > {brazil.pubs[0]}"
        )
        for load in (load_manifest, lambda p: build_collective(parse_manifest(p))):
            with pytest.raises(ManifestError) as err:
                load(p)
            assert str(err.value) == message
            assert isinstance(err.value.__cause__, SubsetError)

    def test_assert_partition_residual_fails(self, tmp_path, china, scim_minus_china):
        (tmp_path / "total.csv").write_text(write_matrix(add(china, scim_minus_china)))
        (tmp_path / "china.csv").write_text(write_matrix(china))
        p = self._write(
            tmp_path,
            "[collective]\nlabel = X\ntotal = total.csv\nassert_partition = true\n\n"
            "[actor]\nid = china\nlabel = China\npath = china.csv\n",
        )
        with pytest.raises(ManifestError) as err:
            load_manifest(p)
        assert "partition residual" in str(err.value)

    def test_no_total_reconstructs_sum(self, tmp_path, china, brazil):
        (tmp_path / "a.csv").write_text(write_matrix(china))
        (tmp_path / "b.csv").write_text(write_matrix(brazil))
        p = self._write(
            tmp_path,
            "[collective]\nlabel = Sum\nassert_partition = true\n\n"
            "[actor]\nid = a\nlabel = A\npath = a.csv\n"
            "\n[actor]\nid = b\nlabel = B\npath = b.csv\n",
        )
        c = load_manifest(p)
        assert c.total == add(china, brazil)

    @pytest.mark.parametrize(
        "body,needle",
        [
            ("[actor]\nid = a\nlabel = A\npath = x.csv\n", "no [collective]"),
            ("[collective]\ntotal = t.csv\n", "needs a label"),
            ("[collective]\nlabel = X\n", "no actors"),
            (
                "[collective]\nlabel = X\n[actor]\nid = a\nlabel = A\n",
                "missing path",
            ),
            (
                "[collective]\nlabel = X\n"
                "[actor]\nid = a\nlabel = A\npath = x.csv\n"
                "[actor]\nid = a\nlabel = B\npath = y.csv\n",
                "duplicate actor id",
            ),
            ("[collective]\nlabel = X\nassert_partition = maybe\n", "true or false"),
            ("label = X\n", "outside any section"),
            ("[banana]\n", "unknown section"),
            ("[collective]\nlabel X\n", "expected key = value"),
            ("[collective]\nlabel = X\n[collective]\nlabel = Y\n", "duplicate [collective]"),
        ],
    )
    def test_malformed_manifests(self, tmp_path, body, needle):
        p = self._write(tmp_path, body)
        with pytest.raises(ManifestError) as err:
            parse_manifest(p)
        assert needle in str(err.value)

    @pytest.mark.parametrize(
        "after,inserted,message",
        [
            # A misspelt assert_partition would skip the partition check.
            ("total = scim_total.csv\n", "asert_partition = true\n",
             "line 6: unknown key 'asert_partition'"),
            ("path = brazil.csv\n", "weight = 0.5\n", "line 16: unknown key 'weight'"),
        ],
    )
    def test_unknown_key_rejected(self, tmp_path, after, inserted, message):
        text = fixture_path("scim.manifest").read_text(encoding="utf-8")
        p = self._write(tmp_path, text.replace(after, after + inserted))
        with pytest.raises(ManifestError) as err:
            parse_manifest(p)
        assert str(err.value) == message

    @pytest.mark.parametrize("line", [2, 3, 4, 7, 8, 9])
    def test_empty_value_rejected_at_its_line(self, tmp_path, line):
        lines = [
            "[collective]", "label = X", "total = t.csv", "assert_partition = true", "",
            "[actor]", "id = a", "label = A", "path = a.csv",
        ]
        key = lines[line - 1].partition(" =")[0]
        lines[line - 1] = f"{key} = "
        p = self._write(tmp_path, "\n".join(lines) + "\n")
        with pytest.raises(ManifestError) as err:
            parse_manifest(p)
        assert str(err.value) == f"line {line}: empty value for {key!r}"

    def test_repeated_key_rejected(self, tmp_path):
        # A second id in China's section would rename China.
        text = fixture_path("scim.manifest").read_text(encoding="utf-8")
        text = text.replace("path = china.csv\n", "path = china.csv\nid = brazil\n")
        p = self._write(tmp_path, text)
        with pytest.raises(ManifestError) as err:
            parse_manifest(p)
        assert str(err.value) == "line 11: duplicate key 'id'"

    def test_build_without_validation(self, tmp_path, china, scim_minus_china):
        # build_collective skips validation so callers can inspect reports
        (tmp_path / "total.csv").write_text(write_matrix(add(china, scim_minus_china)))
        (tmp_path / "china.csv").write_text(write_matrix(china))
        p = self._write(
            tmp_path,
            "[collective]\nlabel = X\ntotal = total.csv\nassert_partition = true\n\n"
            "[actor]\nid = china\nlabel = China\npath = china.csv\n",
        )
        c = build_collective(parse_manifest(p))
        assert c.actor_ids == ("china",)
        report = validate_collective(c, assert_partition=True)
        assert [f.code for f in report.errors] == ["partition"]
