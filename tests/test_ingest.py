import hashlib
import math
import random

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
from helpers import random_matrix, zero

FIXTURES = [
    "china.csv",
    "scim_minus_china.csv",
    "brazil.csv",
    "netherlands.csv",
    "scim_minus_brazil_netherlands.csv",
    "scim_total.csv",
]


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

    @pytest.mark.parametrize(
        "body,line,message",
        [
            ("2020,1," + "1" * 131_073 + "\n", 2, "field larger than field limit (131072)"),
            ("2020,1\r,2\n", 2, "carriage return without line feed"),
        ],
        ids=["field-limit", "bare-cr"],
    )
    def test_csv_reader_errors_positioned(self, body, line, message):
        with pytest.raises(LayoutError) as err:
            parse_matrix("year,pubs,2020\n" + body)
        assert err.value.line == line
        assert str(err.value).startswith(f"line {line}: {message}")

    @pytest.mark.parametrize(
        "rows,message",
        [
            # A blank line is a row of its own, reported before the row count.
            (["2020,3,1,2", "", "2021,4,,5"], "line 3: expected 4 cells, found 0"),
            (["2020,3,1,2"], "line 2: expected 2 data rows, found 1"),
            (["2020,3,1,2", "2021,4,,5", "2022,1,,"], "line 4: expected 2 data rows, found 3"),
        ],
        ids=["blank", "missing", "extra"],
    )
    def test_row_shape_reported_at_its_line(self, rows, message):
        with pytest.raises(LayoutError) as err:
            parse_matrix("year,pubs,2020,2021\n" + "\n".join(rows) + "\n")
        assert str(err.value) == message

    def test_line_endings(self):
        text = "year,pubs,2020,2021\n2020,1,2,3\n2021,4,,5\n"
        assert parse_matrix(text.replace("\n", "\r\n")) == parse_matrix(text)
        with pytest.raises(LayoutError) as err:
            parse_matrix("year,pubs,2020\r2020,1,1\r")
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

    def test_row_whose_sum_overflows_still_parses(self):
        # Every cell is finite; only their sum is not.
        m = parse_matrix("year,pubs,2020,2021\n2020,1,1e308,1e308\n2021,1,,3\n")
        assert m == PCMatrix(2020, (1.0, 1.0), ((1e308, 1e308), (3.0,)))

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


_TOKENS = ["-1", "x", "nan", "inf", "-inf", "1e999", "1e308", "", "0", "-0", " 3 ", "1.5"]


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
        grid[t][column - 1] = draw(st.sampled_from(_TOKENS))
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


class TestParseEqualsCellByCellCheck:
    @given(damaged_documents())
    def test_parse_or_first_bad_cell(self, document):
        text, grid = document
        expected = _expected_parse(2000, grid)
        if isinstance(expected, PCMatrix):
            assert parse_matrix(text) == expected
            return
        kind, line, column = expected
        with pytest.raises(RhythmError) as err:
            parse_matrix(text)
        assert type(err.value) is kind
        assert str(err.value).startswith(f"line {line}, column {column}: ")


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

    def test_roundtrip_random(self):
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
