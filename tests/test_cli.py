import csv
import io
import math
import os
import shutil
import subprocess
import sys
import xml.etree.ElementTree as ET
from decimal import ROUND_HALF_UP, Decimal
from pathlib import Path

import pytest

import citerhythm
from citerhythm import PCMatrix, fixture_path, write_matrix
from citerhythm import cli
from citerhythm.cli import format_number, main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def svg_elements(text, local_name):
    root = ET.fromstring(text)
    return [el for el in root.iter() if el.tag.split("}")[-1] == local_name]


def manifest() -> str:
    return str(fixture_path("scim.manifest"))


class TestFormatNumber:
    @pytest.mark.parametrize(
        "value,decimals,expected",
        [
            (0.8905, 3, "0.891"),     # ties go away from zero
            (0.0005, 3, "0.001"),
            (1.0004999, 3, "1.000"),
            (2149.0, 3, "2149.000"),
            (2.5, 0, "3"),
            (1.152, 3, "1.152"),
            (1e30, 3, "1000000000000000000000000000000.000"),  # past 28 digits
            (0.0, 7, "0.0000000"),  # fixed point below 1e-6 too
            (1e-10, 12, "0.000000000100"),
            (-0.0, 3, "0.000"),
        ],
    )
    def test_half_away_from_zero(self, value, decimals, expected):
        assert format_number(value, decimals) == expected

    @pytest.mark.parametrize("decimals", [1_000_027, 2_000_055])
    def test_decimals_past_the_decimal_exponent_limits(self, decimals):
        text = format_number(1.5, decimals)
        assert text.startswith("1.5") and len(text.partition(".")[2]) == decimals


class TestValidate:
    def test_ok_run(self, capsys):
        code, out, _ = run(capsys, "validate", manifest())
        assert code == 0
        assert "3 constituents, window 2015-2024" in out
        assert "ok" in out
        assert "\x1b[" not in out  # no styling

    def test_missing_matrix_file(self, capsys, tmp_path):
        p = tmp_path / "bad.manifest"
        p.write_text(
            "[collective]\nlabel = X\n\n[actor]\nid = a\nlabel = A\npath = missing.csv\n"
        )
        code, _, err = run(capsys, "validate", str(p))
        assert code == 1
        assert "missing.csv" in err

    def test_subset_violation_named(self, capsys, tmp_path, brazil):
        bumped = PCMatrix(
            first_year=brazil.first_year,
            pubs=brazil.pubs,
            cites=tuple(
                tuple(c + (1.0 if (t, o) == (0, 1) else 0.0) for o, c in enumerate(row))
                for t, row in enumerate(brazil.cites)
            ),
        )
        (tmp_path / "total.csv").write_text(write_matrix(brazil))
        (tmp_path / "big.csv").write_text(write_matrix(bumped))
        p = tmp_path / "bad.manifest"
        p.write_text(
            "[collective]\nlabel = X\ntotal = total.csv\n\n"
            "[actor]\nid = big\nlabel = Big\npath = big.csv\n"
        )
        x = brazil.cites[0][1]
        assert run(capsys, "validate", str(p)) == (
            1,
            "",
            f"error: {p}: X: constituents sum past the total at citations (2015, 2016): "
            f"{x + 1} > {x}\n",
        )

    def test_partition_residual_fails(self, capsys, tmp_path, china, scim_total):
        (tmp_path / "total.csv").write_text(write_matrix(scim_total))
        (tmp_path / "china.csv").write_text(write_matrix(china))
        p = tmp_path / "p.manifest"
        p.write_text(
            "[collective]\nlabel = X\ntotal = total.csv\nassert_partition = true\n\n"
            "[actor]\nid = china\nlabel = China\npath = china.csv\n"
        )
        code, out, err = run(capsys, "validate", str(p))
        assert (code, err) == (1, "")
        assert "[error] partition:" in out
        assert out.endswith("FAILED: 1 error(s)\n")

    def test_overlapping_constituents_rejected(self, capsys, tmp_path):
        # u and w share 2 of their 4 papers each: together with v they pass
        # the total's 10 publications.
        cells = {"total": (10, 20), "u": (4, 10), "w": (4, 10), "v": (4, 6)}
        for name, (pubs, cites) in cells.items():
            (tmp_path / f"{name}.csv").write_text(f"year,pubs,2000\n2000,{pubs},{cites}\n")
        p = tmp_path / "o.manifest"
        p.write_text(
            "[collective]\nlabel = T\ntotal = total.csv\n"
            + "".join(f"\n[actor]\nid = {a}\nlabel = {a}\npath = {a}.csv\n" for a in "uwv")
        )
        err = f"error: {p}: T: constituents sum past the total at publications of year 2000: "
        err += "12.0 > 10.0\n"
        for argv in (
            ["validate", str(p)],
            ["external", str(p), "--actor", "u"],
            ["compare", str(p), "--a", "u", "--b", "w"],
        ):
            assert run(capsys, *argv) == (1, "", err)


class TestInternal:
    def test_cr_line_endings_rejected(self, capsys, tmp_path):
        p = tmp_path / "cr.csv"
        p.write_bytes(b"year,pubs,2020\r2020,1,1\r")
        assert run(capsys, "internal", str(p)) == (
            1,
            "",
            "error: line 1: carriage return without line feed; lines must end in LF or CRLF\n",
        )

    def test_china_text_table(self, capsys):
        code, out, _ = run(capsys, "internal", str(fixture_path("china.csv")))
        assert code == 0
        assert "0.890" in out and "1.152" in out
        assert "I1 = 1.000" in out
        assert "I2 = 1.036" in out

    def test_brazil_footer(self, capsys):
        code, out, _ = run(capsys, "internal", str(fixture_path("brazil.csv")))
        assert code == 0
        assert "I2 = 1.092" in out

    def test_zero_citation_matrix(self, capsys, tmp_path):
        m = PCMatrix(first_year=2000, pubs=(4.0, 2.0), cites=((0.0, 0.0), (0.0,)))
        p = tmp_path / "zero.csv"
        p.write_text(write_matrix(m))
        code, out, _ = run(capsys, "internal", str(p))
        assert code == 0
        assert "I2 = -" in out  # no defined ratios, reported as absent
        assert "undefined ratio" in out

    def test_zeros_print_in_fixed_point_at_seven_decimals(self, capsys, tmp_path):
        p = tmp_path / "m.csv"
        p.write_text("year,pubs,2020,2021\n2020,1,0,5\n2021,2,,0\n")
        code, out, _ = run(capsys, "internal", str(p), "--decimals", "7")
        assert code == 0
        assert out.splitlines()[2:4] == [
            "2020  5.0000000  0.0000000  5.0000000  1.0000000",
            "2021  0.0000000  5.0000000  0.0000000          -",
        ]

    @pytest.mark.parametrize(
        "fmt,row",
        [("text", "2020     0.000  2.000     0.000      -"), ("csv", "2020,0.000,2.000,0.000,")],
    )
    def test_negative_zero_count_prints_as_zero(self, capsys, tmp_path, fmt, row):
        p = tmp_path / "m.csv"
        p.write_text("year,pubs,2020,2021\n2020,-0,0,0\n2021,2,,4\n")
        code, out, _ = run(capsys, "internal", str(p), "--format", fmt)
        assert code == 0
        assert row in out.splitlines()

    def test_csv_cells_reparse_to_computed_values(self, capsys):
        from citerhythm import ck_profile, internal_rhythm, read_matrix

        m = read_matrix(fixture_path("china.csv"))
        code, out, _ = run(
            capsys, "internal", str(fixture_path("china.csv")), "--format", "csv"
        )
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["year", "observed", "ck", "expected", "ratio"]
        seq = internal_rhythm(m)
        profile = ck_profile(m)
        quantum = Decimal(1).scaleb(-3)
        for row, point, ck in zip(rows[1:11], seq.points, profile.values):
            for cell, value in zip(row[1:], (point.observed, ck, point.expected, point.ratio)):
                rounded = Decimal(repr(value)).quantize(quantum, rounding=ROUND_HALF_UP)
                assert Decimal(cell) == rounded
        assert rows[11][0] == "I1" and rows[12][0] == "I2"

    def test_decimals_flag(self, capsys):
        code, out, _ = run(
            capsys, "internal", str(fixture_path("china.csv")), "--decimals", "1"
        )
        assert code == 0
        assert "2415.9" in out

    def test_decimals_past_default_decimal_precision(self, capsys):
        code, out, err = run(
            capsys, "internal", str(fixture_path("china.csv")), "--decimals", "25"
        )
        assert (code, err) == (0, "")
        assert out.splitlines()[2].split()[:2] == ["2015", "2149." + "0" * 25]

    def test_values_past_default_decimal_precision(self, capsys, tmp_path):
        p = tmp_path / "big.csv"
        p.write_text("year,pubs,2020,2021\n2020,1,1e30,5\n2021,2,,3\n")
        code, out, err = run(capsys, "internal", str(p), "--format", "csv")
        assert (code, err) == (0, "")
        assert out.splitlines()[1] == (
            "2020,1000000000000000000000000000000.000,333333333333333300000000000000.000,"
            "333333333333333300000000000000.000,3.000"
        )

    def test_svg_structure(self, capsys):
        code, out, _ = run(
            capsys, "internal", str(fixture_path("china.csv")), "--format", "svg"
        )
        assert code == 0
        series = [
            el for el in svg_elements(out, "polyline") if el.get("class") == "series"
        ]
        assert len(series) == 1
        assert len(series[0].get("points").split()) == 10
        reflines = [
            el for el in svg_elements(out, "line") if el.get("class") == "refline"
        ]
        assert len(reflines) == 1
        assert reflines[0].get("data-level") == "1"

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "china.csv.out"
        code, out, _ = run(
            capsys,
            "internal",
            str(fixture_path("china.csv")),
            "--format",
            "csv",
            "--out",
            str(target),
        )
        assert code == 0
        assert out == ""
        assert target.read_text().startswith("year,observed")


class TestBadInput:
    def test_non_finite_cell_positioned(self, capsys, tmp_path):
        p = tmp_path / "nan.csv"
        p.write_text("year,pubs,2020,2021\n2020,1,2,nan\n2021,1,,3\n")
        code, out, err = run(capsys, "internal", str(p))
        assert code == 1
        assert out == ""
        assert err == "error: line 2, column 4: count must be finite, got 'nan'\n"

    def test_directory_argument_reports_error(self, capsys, tmp_path):
        code, out, err = run(capsys, "internal", str(tmp_path))
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and str(tmp_path) in err


class TestExternal:
    def test_china_csv_matches_published_table(self, capsys, golden):
        code, out, _ = run(
            capsys, "external", manifest(), "--actor", "china", "--format", "csv"
        )
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["year", "pubs", "observed", "ck", "expected", "ratio"]
        printed = golden["external"]["china"]
        actors = golden["actors"]["china"]
        for idx, row in enumerate(rows[1:11]):
            assert int(row[0]) == golden["years"][idx]
            assert float(row[1]) == actors["pubs"][idx]
            assert float(row[2]) == actors["observed"][idx]
            assert float(row[3]) == printed["ck"][idx]
            assert float(row[4]) == printed["expected"][idx]
            assert float(row[5]) == printed["ratio"][idx]
        assert rows[11] == ["I1", "0.954"]
        assert rows[12] == ["I2", "1.000"]

    def test_unknown_actor_lists_known_ids(self, capsys):
        code, _, err = run(capsys, "external", manifest(), "--actor", "mars")
        assert code == 1
        assert err == "error: unknown actor 'mars'; known actors: china, brazil, netherlands\n"

    def test_svg_contract(self, capsys):
        code, out, _ = run(
            capsys, "external", manifest(), "--actor", "china", "--format", "svg"
        )
        assert code == 0
        series = [
            el for el in svg_elements(out, "polyline") if el.get("class") == "series"
        ]
        assert len(series) == 1
        points = series[0].get("points").split()
        assert len(points) == 10
        reflines = [
            el for el in svg_elements(out, "line") if el.get("class") == "refline"
        ]
        assert len(reflines) == 1
        # the reference line sits strictly inside the plotted value range
        ys = [float(p.split(",")[1]) for p in points]
        ref_y = float(reflines[0].get("y1"))
        assert min(ys) < ref_y < max(ys)

    def test_svg_escapes_actor_label(self, capsys, tmp_path):
        label = 'Smith "Lab" & <Co>'
        copy = shutil.copytree(Path(manifest()).parent, tmp_path / "scim") / "scim.manifest"
        copy.write_text(copy.read_text().replace("label = China", f"label = {label}"))
        code, out, _ = run(capsys, "external", str(copy), "--actor", "china", "--format", "svg")
        assert code == 0
        (title,) = [el for el in svg_elements(out, "text") if el.get("class") == "title"]
        assert title.text.startswith(f"External rhythm: {label} vs ")
        series = [
            el for el in svg_elements(out, "polyline") if el.get("class") == "series"
        ]
        assert [el.get("data-label") for el in series] == [label]


class TestCompare:
    def test_text_output(self, capsys):
        code, out, _ = run(capsys, "compare", manifest(), "--a", "brazil", "--b", "netherlands")
        assert code == 0
        assert "brazil: I1 = 0.856, I2 = 0.888" in out
        assert "netherlands: I1 = 2.307, I2 = 1.857" in out
        row_2017 = next(line for line in out.splitlines() if line.strip().startswith("2017"))
        assert "netherlands" in row_2017
        assert "6.311" in row_2017

    def test_csv_output(self, capsys):
        code, out, _ = run(
            capsys,
            "compare",
            manifest(),
            "--a",
            "brazil",
            "--b",
            "netherlands",
            "--format",
            "csv",
        )
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["year", "brazil", "netherlands", "winner"]
        assert rows[3][3] == "netherlands"  # 2017
        assert rows[11] == ["I1", "0.856", "2.307"]

    def test_self_comparison_fails(self, capsys):
        code, _, err = run(capsys, "compare", manifest(), "--a", "brazil", "--b", "brazil")
        assert code == 1
        assert "itself" in err

    def test_svg_two_series(self, capsys):
        code, out, _ = run(
            capsys,
            "compare",
            manifest(),
            "--a",
            "brazil",
            "--b",
            "netherlands",
            "--format",
            "svg",
        )
        assert code == 0
        series = [
            el for el in svg_elements(out, "polyline") if el.get("class") == "series"
        ]
        assert len(series) == 2
        assert all(len(s.get("points").split()) == 10 for s in series)
        dashed = [s for s in series if s.get("stroke-dasharray")]
        assert len(dashed) == 1
        reflines = [
            el for el in svg_elements(out, "line") if el.get("class") == "refline"
        ]
        assert len(reflines) == 1
        labels = {s.get("data-label") for s in series}
        assert labels == {"brazil", "netherlands"}


class TestWindows:
    def test_full_width_single_row(self, capsys):
        code, out, _ = run(
            capsys, "windows", str(fixture_path("china.csv")), "--width", "10",
            "--format", "csv",
        )
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert len(rows) == 2
        assert rows[1][0] == "2015" and rows[1][1] == "2024"
        assert rows[1][2] == "1.000"
        assert rows[1][3] == "1.036"
        assert rows[1][4:] == ["0.890", "0.838", "0.861", "1.107", "0.925",
                               "1.478", "0.850", "1.133", "1.125", "1.152"]

    def test_width_five_has_six_windows(self, capsys):
        code, out, _ = run(
            capsys, "windows", str(fixture_path("china.csv")), "--width", "5",
            "--format", "csv",
        )
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert len(rows) == 7
        assert all(row[2] == "1.000" for row in rows[1:])

    def test_zero_width_fails(self, capsys):
        code, _, err = run(capsys, "windows", str(fixture_path("china.csv")), "--width", "0")
        assert code == 1
        assert "width" in err

    def test_svg_not_offered(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["windows", str(fixture_path("china.csv")), "--width", "5",
                  "--format", "svg"])
        assert exc.value.code == 2


class TestOracleCheck:
    def test_negative_trials_rejected(self, capsys):
        code, out, err = run(capsys, "oracle-check", manifest(), "--trials", "-1")
        assert (code, out, err) == (1, "", "error: trials must be >= 0\n")

    def test_matrix_input(self, capsys):
        code, out, _ = run(
            capsys, "oracle-check", str(fixture_path("china.csv")), "--trials", "5"
        )
        assert code == 0
        assert "all within" in out

    def test_manifest_input(self, capsys):
        code, out, _ = run(capsys, "oracle-check", manifest(), "--trials", "3")
        assert code == 0
        assert "all within" in out

    def test_verbose_prints_every_comparison(self, capsys):
        code, out, _ = run(
            capsys, "oracle-check", str(fixture_path("china.csv")), "--trials", "2", "--verbose"
        )
        assert code == 0
        lines = out.splitlines()
        assert [line.split(":")[0] for line in lines[:5]] == [
            "  china internal",
            "  trial 0 internal",
            "  trial 0 cross",
            "  trial 1 internal",
            "  trial 1 cross",
        ]
        assert all("max relative difference" in line for line in lines[:5])
        assert lines[5].startswith("oracle-check: 5 comparisons")

    def test_difference_past_the_tolerance_fails(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "ORACLE_TOLERANCE", -1.0)
        code, out, _ = run(capsys, "oracle-check", manifest(), "--trials", "0")
        assert code == 1
        assert "  FAIL total internal: 0.000e+00 > -1" in out.splitlines()
        assert "all within" not in out

    def test_manifest_with_utf8_bom_detected(self, capsys, tmp_path):
        for name in ("scim_total.csv", "china.csv", "brazil.csv", "netherlands.csv"):
            (tmp_path / name).write_bytes(fixture_path(name).read_bytes())
        p = tmp_path / "scim.manifest"
        p.write_bytes(b"\xef\xbb\xbf" + fixture_path("scim.manifest").read_bytes())
        code, out, _ = run(capsys, "oracle-check", str(p), "--trials", "3")
        assert code == 0
        assert "all within" in out

    def test_rounding_excess_of_fractional_shares(self, capsys, tmp_path):
        # Actor c's cells, 0.1 + 0.2, round past the total's 0.3.
        for name, x in (("total", 0.3), ("c", 0.1 + 0.2)):
            (tmp_path / f"{name}.csv").write_text(
                f"year,pubs,2020,2021\n2020,{x!r},{x!r},{x!r}\n2021,{x!r},,{x!r}\n"
            )
        p = tmp_path / "f.manifest"
        p.write_text(
            "[collective]\nlabel = F\ntotal = total.csv\n\n"
            "[actor]\nid = c\nlabel = C\npath = c.csv\n"
        )
        assert run(capsys, "validate", str(p))[0] == 0
        assert run(capsys, "external", str(p), "--actor", "c")[0] == 0
        code, out, _ = run(capsys, "oracle-check", str(p), "--trials", "3")
        assert code == 0
        assert out.endswith("all within 1e-09\n")

    def test_pair_holding_the_whole_collective(self, capsys, tmp_path):
        # a + b = 0.30000000000000004 falls one unit in the last place short
        # of the total's citations: a rounding rest, not a citation.
        cells = {
            "total": (0.1 + 0.2, math.nextafter(0.1 + 0.2, 1)),
            "a": (0.1, 0.1),
            "b": (0.2, 0.2),
        }
        for name, (pubs, cites) in cells.items():
            (tmp_path / f"{name}.csv").write_text(f"year,pubs,2000\n2000,{pubs!r},{cites!r}\n")
        p = tmp_path / "f.manifest"
        p.write_text(
            "[collective]\nlabel = F\ntotal = total.csv\nassert_partition = true\n\n"
            "[actor]\nid = a\nlabel = A\npath = a.csv\n\n"
            "[actor]\nid = b\nlabel = B\npath = b.csv\n"
        )
        assert run(capsys, "validate", str(p))[0] == 0
        assert run(capsys, "compare", str(p), "--a", "a", "--b", "b") == (
            0,
            "Comparison: a vs b (baseline F \\ {a, b})\n"
            "year  a  b  winner\n"
            "2000  -  -       -\n"
            "a: I1 = -, I2 = -\n"
            "b: I1 = -, I2 = -\n",
            "",
        )
        code, out, _ = run(capsys, "oracle-check", str(p), "--trials", "3")
        assert code == 0
        assert out.endswith("all within 1e-09\n")

    def test_only_the_manifest_suffix_selects_a_manifest(self, capsys, tmp_path):
        p = tmp_path / "scim.txt"
        p.write_bytes(fixture_path("scim.manifest").read_bytes())
        code, _, err = run(capsys, "oracle-check", str(p), "--trials", "1")
        assert code == 1
        assert err == 'error: line 1: header must be "year,pubs,<first citing year>,..."\n'


def test_closed_stdout_ends_quietly():
    # The verbose listing is far larger than a pipe's buffer, so the
    # process is still writing when the reader goes away.
    src = str(Path(citerhythm.__file__).resolve().parents[1])
    argv = ["oracle-check", manifest(), "--trials", "3000", "--verbose"]
    proc = subprocess.Popen(
        [sys.executable, "-m", "citerhythm.cli", *argv],
        env=dict(os.environ, PYTHONPATH=src),
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    try:
        assert proc.stdout.readline().startswith(b"  total internal:")
        proc.stdout.close()
        _, err = proc.communicate(timeout=60)
    finally:
        proc.kill()
    assert err == b""
    assert proc.returncode == 1


def test_import_does_not_load_numpy():
    # Neither start-up nor the synthetic corpus generator may load numpy.
    src = str(Path(citerhythm.__file__).resolve().parents[1])
    probes = [
        "import sys, citerhythm, citerhythm.cli; print('numpy' in sys.modules)",
        "import sys\n"
        "from citerhythm import cli\n"
        f"cli.main(['oracle-check', {manifest()!r}, '--trials', '3'])\n"
        "print('numpy' in sys.modules)",
    ]
    for probe in probes:
        out = subprocess.run(
            [sys.executable, "-c", probe],
            env=dict(os.environ, PYTHONPATH=src),
            capture_output=True,
            text=True,
            check=True,
        ).stdout
        assert out.splitlines()[-1] == "False"


def test_import_does_not_load_network_or_xml_stack():
    # `-S` keeps `site` from preloading modules, so the probe sees only what
    # the package itself imports. pathlib needs `urllib.parse`, which is
    # small; `urllib.request` is what brings in http, email, ssl and socket.
    src = str(Path(citerhythm.__file__).resolve().parents[1])
    probe = (
        f"import sys; sys.path.insert(0, {src!r}); import citerhythm.cli\n"
        "print(*sys.modules)"
    )
    loaded = subprocess.run(
        [sys.executable, "-S", "-c", probe], capture_output=True, text=True, check=True
    ).stdout.split()
    forbidden = ("xml", "urllib.request", "http", "email", "ssl", "socket",
                 "importlib.resources")
    assert [
        m for m in loaded if any(m == f or m.startswith(f + ".") for f in forbidden)
    ] == []
