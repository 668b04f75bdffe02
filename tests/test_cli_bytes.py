"""Byte-for-byte pins of the CLI's output on the SCIM fixture.

Each case runs ``rhythm`` in process and compares its exact stdout, stderr
and exit code with ``cli_expected.json``. Arguments name files through two
placeholders: ``{fixtures}`` (the bundled fixtures) and ``{tmp}`` (a
directory holding ``zero_pubs.csv``, a matrix with a year of no
publications).
"""

import json
from pathlib import Path

import pytest

from citerhythm import fixture_path
from citerhythm.cli import main

EXPECTED = Path(__file__).with_name("cli_expected.json")

ZERO_PUBS_CSV = "year,pubs,2020,2021,2022\n2020,3,2,4,1\n2021,0,,0,0\n2022,2,,,1\n"

_MATRIX = "{fixtures}/china.csv"
_MANIFEST = "{fixtures}/scim.manifest"


def _cases() -> dict[str, list[str]]:
    commands = {
        "internal": ["internal", _MATRIX],
        "external": ["external", _MANIFEST, "--actor", "china"],
        "compare": ["compare", _MANIFEST, "--a", "brazil", "--b", "netherlands"],
        "windows": ["windows", _MATRIX, "--width", "5"],
    }
    cases = {}
    for name, argv in commands.items():
        for fmt in ("text", "csv"):
            for decimals in ("0", "3", "5"):
                cases[f"{name}-{fmt}-{decimals}"] = argv + ["--format", fmt, "--decimals", decimals]
        if name != "windows":
            cases[f"{name}-svg"] = argv + ["--format", "svg"]
    cases["internal-default"] = ["internal", _MATRIX]
    cases["validate"] = ["validate", _MANIFEST]
    cases["oracle-check"] = ["oracle-check", _MANIFEST, "--trials", "3", "--seed", "1"]
    cases["internal-zero-pubs-text"] = ["internal", "{tmp}/zero_pubs.csv"]
    cases["internal-zero-pubs-csv"] = ["internal", "{tmp}/zero_pubs.csv", "--format", "csv"]
    for fmt in ("text", "csv", "svg"):
        cases[f"negative-decimals-{fmt}"] = ["internal", _MATRIX, "--format", fmt, "--decimals", "-1"]
    cases["negative-decimals-svg-missing-input"] = [
        "compare", "{tmp}/missing.manifest", "--a", "x", "--b", "y",
        "--format", "svg", "--decimals", "-1",
    ]
    cases["unknown-actor"] = ["external", _MANIFEST, "--actor", "mars"]
    return cases


CASES = _cases()


def run_case(argv: list[str], tmp: Path, capsys) -> dict:
    fixtures = str(fixture_path("china.csv").parent)
    (tmp / "zero_pubs.csv").write_text(ZERO_PUBS_CSV, encoding="utf-8")
    args = [a.format(fixtures=fixtures, tmp=tmp) for a in argv]
    code = main(args)
    captured = capsys.readouterr()
    return {"exit": code, "stdout": captured.out, "stderr": captured.err}


@pytest.fixture(scope="module")
def expected():
    return json.loads(EXPECTED.read_text(encoding="utf-8"))


def test_every_case_is_pinned(expected):
    assert sorted(expected) == sorted(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_output_is_byte_identical(name, expected, tmp_path, capsys):
    assert run_case(CASES[name], tmp_path, capsys) == expected[name]
