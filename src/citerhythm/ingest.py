"""Matrix CSV and collective-manifest parsing, plus the bundled fixture corpus.
:func:`citerhythm.collective.load_manifest` builds collectives on top of it.

Matrix CSV layout mirrors the way p-c tables are usually printed: one data
row per publication year (ascending), citing years as columns, and blank
cells below the diagonal. A blank below the diagonal means "structurally
impossible"; a zero on or above it must be written out. The bundled
fixtures cover the journal Scientometrics (SCIM) 2015-2024, split by
corresponding-author country.
"""

from __future__ import annotations

import csv
import math
import re
from collections.abc import Callable, Iterator
from functools import cached_property
from pathlib import Path

from .errors import DomainError, LayoutError, ManifestError, MatrixParseError, RhythmError
from .pcmatrix import PCMatrix, _are_counts, _Record

__all__ = [
    "MatrixFile",
    "ManifestActor",
    "CollectiveManifest",
    "parse_matrix",
    "write_matrix",
    "read_matrix",
    "read_matrix_file",
    "parse_manifest",
    "fixture_path",
]


class MatrixFile(_Record):
    """A parsed matrix together with where it came from and the exact bytes
    that were read (``data``, a byte order mark included)."""

    def __init__(self, path: Path, matrix: PCMatrix, data: bytes) -> None:
        object.__setattr__(self, "path", path)
        object.__setattr__(self, "matrix", matrix)
        object.__setattr__(self, "data", data)

    @cached_property
    def sha256(self) -> str:
        """Hex SHA-256 of ``data``. Computed on first access, so a process
        that reads no checksum does not load OpenSSL."""
        import hashlib

        return hashlib.sha256(self.data).hexdigest()


class ManifestActor(_Record):
    """One ``[actor]`` section of a manifest: its id, label and matrix file."""

    def __init__(self, actor_id: str, label: str, path: Path) -> None:
        object.__setattr__(self, "actor_id", actor_id)
        object.__setattr__(self, "label", label)
        object.__setattr__(self, "path", path)


class CollectiveManifest(_Record):
    """A parsed manifest: its own path, the collective's label, the total's
    matrix file (None for the constituents' sum), the actors and whether
    they must partition the total."""

    def __init__(self, path: Path, label: str, total_path: Path | None,
                 actors: tuple[ManifestActor, ...], assert_partition: bool = False) -> None:
        object.__setattr__(self, "path", path)
        object.__setattr__(self, "label", label)
        object.__setattr__(self, "total_path", total_path)
        object.__setattr__(self, "actors", actors)
        object.__setattr__(self, "assert_partition", assert_partition)


def _cell_value(cell: str, line: int, column: int) -> float:
    try:
        value = float(cell)
    except ValueError:
        raise MatrixParseError(f"not a number: {cell!r}", line, column) from None
    if value < 0:
        raise DomainError(f"negative count {cell!r}", line, column)
    if not math.isfinite(value):
        raise DomainError(f"count must be finite, got {cell!r}", line, column)
    return value


# Counts repeat heavily: a generated n=500 matrix has 125,750 cells but
# 4,869 distinct cell texts. Within one document, parsing converts and
# checks each distinct text once and lets its cells share that float, and
# writing formats each distinct value once. Once this many are stored, the
# document's later rows go cell by cell (parsing with plain ``float``,
# writing as ``write_matrix`` says), which bounds what either holds for a
# document whose counts are all distinct.
_SHARED_COUNTS = 4096


class _Counts(dict):
    """Cell text to count for one document: a text not yet seen is
    converted with ``float``, checked to be finite and non-negative, and
    stored, so equal texts give one object. A bad text raises
    ``ValueError`` and is not stored."""

    def __missing__(self, text: str) -> float:
        value = float(text)
        if not 0 <= value < math.inf:
            raise ValueError(text)
        self[text] = value
        return value


# A data row's counts are read in bulk when the row passes every check, and
# cell by cell (``_row_counts``) otherwise. In bulk, the publications and
# the cells on or above the diagonal are converted with ``convert``: a
# document's ``_Counts`` lookup, which rejects a bad count itself
# (``checked``), or plain ``float``, whose row is then scanned for a
# negative or non-finite count. Each reader returns None where the row
# fails a check, and the row then goes cell by cell.
_Convert = Callable[[str], float]
_RowCounts = tuple[float, tuple[float, ...]]


def _row_counts(row: list[str], t: int, line: int) -> _RowCounts:
    """Publication count and on-or-above-diagonal cells of data row ``t``,
    checked cell by cell in reading order: raises at the first bad cell, or
    returns the values the bulk reading would (when only the bulk sum of an
    unchecked row overflowed)."""
    pub = _cell_value(row[1], line, 2)
    for column, cell in enumerate(row[2 : 2 + t], 3):
        if cell != "":
            raise LayoutError("cell below the diagonal must be blank", line, column)
    cells = tuple(
        _cell_value(cell, line, column) for column, cell in enumerate(row[2 + t :], 3 + t)
    )
    return pub, cells


def _bulk_counts(
    pub: str, texts: list[str], convert: _Convert, checked: bool
) -> _RowCounts | None:
    try:
        value = convert(pub)
        cells = tuple(map(convert, texts))
    except ValueError:
        return None
    if checked or (0 <= value < math.inf and _are_counts(cells)):
        return value, cells
    return None


def _split_counts(
    line: str, t: int, n: int, year: str, convert: _Convert, checked: bool
) -> _RowCounts | None:
    """Row ``t`` from its ``line`` of a document without ``"``. Only the
    row's year, its publications and its ``n - t`` cells are split off; its
    ``t`` blanks are checked as one run of commas. A line past csv's field
    size limit is left to ``_fields``."""
    if len(line) > csv.field_size_limit():
        return None
    parts = line.rstrip("\r\n").split(",", 2)
    if len(parts) != 3 or parts[0] != year or not parts[2].startswith("," * t):
        return None
    texts = parts[2][t:].split(",")
    if len(texts) != n - t:
        return None
    return _bulk_counts(parts[1], texts, convert, checked)


def _csv_counts(
    row: list[str], t: int, n: int, year: str, convert: _Convert, checked: bool
) -> _RowCounts | None:
    """Row ``t`` from the fields ``csv.reader`` gave for it."""
    if len(row) != n + 2 or row[0] != year or any(row[2 : 2 + t]):
        return None
    return _bulk_counts(row[1], row[2 + t :], convert, checked)


def _fields(line: str, number: int) -> list[str]:
    """The fields ``csv.reader`` gives for line ``number`` of a document
    without ``"``, whose only CR is one before an LF: the line split at every
    comma, no field for an empty line, and csv's own reading, or its error,
    for a line longer than the field size limit."""
    if len(line) > csv.field_size_limit():
        try:
            return next(csv.reader([line]))
        except csv.Error as exc:
            raise LayoutError(str(exc), number) from None
    line = line.rstrip("\r\n")
    return line.split(",") if line else []


def _csv_rows(text: str) -> Iterator[list[str]]:
    """The rows ``csv.reader`` gives for ``text``; a csv error is a
    ``LayoutError`` at the line the reader stopped on."""
    reader = csv.reader(_lines(text))
    try:
        yield from reader
    except csv.Error as exc:
        raise LayoutError(str(exc), reader.line_num) from None


def _check_line_ends(text: str, error: type[RhythmError]) -> None:
    """``error`` at the line of the first CR that no LF follows: in matrix
    files and manifests alike, a line ends in LF or CRLF."""
    match = re.search(r"\r(?!\n)", text) if "\r" in text else None
    if match is not None:
        line = text.count("\n", 0, match.start()) + 1
        raise error("carriage return without line feed; lines must end in LF or CRLF", line)


def _lines(text: str) -> Iterator[str]:
    """The lines of ``text``, each with its LF, as ``io.StringIO`` would give
    them, but without its copy of the whole text at four bytes a character."""
    start = 0
    while end := text.find("\n", start) + 1:
        yield text[start:end]
        start = end
    if start < len(text):
        yield text[start:]


def parse_matrix(text: str, label: str = "") -> PCMatrix:
    """Parse a matrix CSV document into a :class:`PCMatrix`.

    A document without ``"`` is read line by line: a data row that passes
    every check is split only at its year, its publications and its cells
    on or above the diagonal, and any other row is split into the fields
    ``csv.reader`` would give and checked cell by cell. Only a document
    that quotes a field is read by ``csv.reader``. Parsing holds one
    row's text, plus at most ``_SHARED_COUNTS`` distinct cell texts (and
    those of the row that reaches that number), whose cells share one float
    each. The first fault in reading order is the one reported; the row
    count is checked after the last row.
    """
    _check_line_ends(text, LayoutError)
    quoted = '"' in text
    rows = _csv_rows(text) if quoted else _lines(text)
    header = next(rows, None)
    if header is None:
        raise LayoutError("empty document", 1)
    if not quoted:
        header = _fields(header, 1)
    if len(header) < 3 or header[0] != "year" or header[1] != "pubs":
        raise LayoutError('header must be "year,pubs,<first citing year>,..."', 1)
    try:
        citing_years = [int(y) for y in header[2:]]
    except ValueError:
        raise LayoutError("citing-year columns must be integers", 1) from None
    n = len(citing_years)
    if citing_years != list(range(citing_years[0], citing_years[0] + n)):
        raise LayoutError("citing years must be consecutive and ascending", 1)

    pubs: list[float] = []
    cites: list[tuple[float, ...]] = []
    counts = _Counts()
    bulk_counts = _csv_counts if quoted else _split_counts
    line = 1
    for line, row in enumerate(rows, 2):
        t = line - 2
        if t < n:
            shared = len(counts) < _SHARED_COUNTS
            convert = counts.__getitem__ if shared else float
            found = bulk_counts(row, t, n, str(citing_years[t]), convert, shared)
            if found is not None:
                pubs.append(found[0])
                cites.append(found[1])
                continue
        if not quoted:
            row = _fields(row, line)
        if t >= n:
            continue  # counted only; the row count is checked below
        if len(row) != n + 2:
            raise LayoutError(f"expected {n + 2} cells, found {len(row)}", line)
        try:
            year = int(row[0])
        except ValueError:
            raise MatrixParseError(f"not a year: {row[0]!r}", line, 1) from None
        if year != citing_years[t]:
            raise LayoutError(
                f"publication year {year} out of order, expected {citing_years[t]}",
                line,
                1,
            )
        pub, cells = _row_counts(row, t, line)
        pubs.append(pub)
        cites.append(cells)
    if line - 1 != n:
        raise LayoutError(f"expected {n} data rows, found {line - 1}", line)

    # Every count passed _cell_value's checks, in bulk or cell by cell, so
    # the matrix skips the constructor's second pass over the same cells.
    return PCMatrix._of(citing_years[0], tuple(pubs), tuple(cites), label)


def _format_count(value: float) -> str:
    # Integers without a decimal point; everything else as the shortest
    # decimal that round-trips.
    return str(int(value)) if value.is_integer() else repr(value)


class _Texts(dict):
    """Count to its CSV text for one document: a count not yet seen is
    formatted with ``_format_count`` and stored. Counts that compare equal
    share one text: 0.0 and -0.0 both write as 0."""

    def __missing__(self, value: float) -> str:
        text = self[value] = _format_count(value)
        return text


def write_matrix(m: PCMatrix) -> str:
    """Render a matrix as canonical CSV (LF endings, blank cells below the
    diagonal); parsing the result reproduces the matrix exactly.

    Each distinct count is formatted once, while the document has stored
    fewer than ``_SHARED_COUNTS`` of them. Later rows are formatted in one
    call when all their counts are integers, and count by count otherwise.
    """
    lines = ["year,pubs," + ",".join(map(str, m.years))]
    texts = _Texts()
    for t, (year, pub, row) in enumerate(zip(m.years, m.pubs, m.cites)):
        shared = len(texts) < _SHARED_COUNTS
        text = texts.__getitem__ if shared else _format_count
        if not shared and all(map(float.is_integer, row)):
            # %d gives str(int(x)) for every finite integer-valued float.
            cells = ("%d," * len(row))[:-1] % row
        else:
            cells = ",".join(map(text, row))
        lines.append(f"{year},{text(pub)},{',' * t}{cells}")
    return "\n".join(lines) + "\n"


def _decode(raw: bytes, error: type[RhythmError]) -> str:
    """``raw`` as UTF-8 text without a leading byte order mark. Bytes that
    are not UTF-8 raise ``error`` naming their line."""
    try:
        return raw.decode("utf-8-sig")
    except UnicodeDecodeError as exc:
        line = exc.object.count(b"\n", 0, exc.start) + 1
        byte = exc.object[exc.start]
        raise error(f"cannot decode byte {byte:#04x} as UTF-8: {exc.reason}", line) from None


def read_matrix_file(path: str | Path, label: str | None = None) -> MatrixFile:
    """Read and parse a matrix CSV file; the label defaults to the file stem."""
    path = Path(path)
    raw = path.read_bytes()
    matrix = parse_matrix(_decode(raw, MatrixParseError), label=label or path.stem)
    return MatrixFile(path=path, matrix=matrix, data=raw)


_COLLECTIVE_KEYS = ("label", "total", "assert_partition")
_ACTOR_KEYS = ("id", "label", "path")


def parse_manifest(path: str | Path) -> CollectiveManifest:
    """Parse a collective manifest.

    The format is line-based: a single ``[collective]`` section (keys
    ``label``, optional ``total``, optional ``assert_partition``) followed
    by one ``[actor]`` section per constituent (keys ``id``, ``label``,
    ``path``). Any other key, a key given twice in one section, or a key
    given no value is an error. Lines end in LF or CRLF. ``#`` and ``;``
    start comments; matrix paths are resolved relative to the manifest file.
    """
    path = Path(path)
    try:
        text = _decode(path.read_bytes(), ManifestError)
    except OSError as exc:
        raise ManifestError(f"cannot read manifest {path}: {exc}") from exc
    _check_line_ends(text, ManifestError)
    base = path.parent

    collective: dict[str, str] | None = None
    actors: list[dict[str, str]] = []
    current: dict[str, str] | None = None
    keys: tuple[str, ...] = ()
    # Only LF ends a line, so U+2028, U+0085 and form feeds stay in values.
    for lineno, raw in enumerate(text.split("\n"), start=1):
        line = raw.strip()
        if not line or line.startswith("#") or line.startswith(";"):
            continue
        if line == "[collective]":
            if collective is not None:
                raise ManifestError("duplicate [collective] section", lineno)
            collective = {}
            current, keys = collective, _COLLECTIVE_KEYS
        elif line == "[actor]":
            actors.append({})
            current, keys = actors[-1], _ACTOR_KEYS
        elif line.startswith("["):
            raise ManifestError(f"unknown section {line}", lineno)
        else:
            if current is None:
                raise ManifestError("key outside any section", lineno)
            key, sep, value = line.partition("=")
            if not sep:
                raise ManifestError(f"expected key = value, got {line!r}", lineno)
            key, value = key.strip(), value.strip()
            if key not in keys:
                raise ManifestError(f"unknown key {key!r}", lineno)
            if key in current:
                raise ManifestError(f"duplicate key {key!r}", lineno)
            if not value:
                raise ManifestError(f"empty value for {key!r}", lineno)
            current[key] = value

    if collective is None:
        raise ManifestError("manifest has no [collective] section")
    if "label" not in collective:
        raise ManifestError("[collective] section needs a label")
    flag = collective.get("assert_partition", "false").lower()
    if flag not in ("true", "false"):
        raise ManifestError(f"assert_partition must be true or false, got {flag!r}")
    total_path = base / collective["total"] if "total" in collective else None

    parsed_actors: list[ManifestActor] = []
    seen: set[str] = set()
    for idx, actor in enumerate(actors, start=1):
        missing = [k for k in _ACTOR_KEYS if k not in actor]
        if missing:
            raise ManifestError(f"actor #{idx} is missing {', '.join(missing)}")
        if actor["id"] in seen:
            raise ManifestError(f"duplicate actor id {actor['id']!r}")
        seen.add(actor["id"])
        parsed_actors.append(
            ManifestActor(actor_id=actor["id"], label=actor["label"], path=base / actor["path"])
        )
    if not parsed_actors:
        raise ManifestError("manifest names no actors")

    return CollectiveManifest(
        path=path,
        label=collective["label"],
        total_path=total_path,
        actors=tuple(parsed_actors),
        assert_partition=flag == "true",
    )


def read_matrix(path: str | Path, label: str | None = None) -> PCMatrix:
    """Like :func:`read_matrix_file`, for callers that only need the matrix."""
    return read_matrix_file(path, label=label).matrix


def fixture_path(name: str) -> Path:
    """Path of a bundled data file (matrix CSVs, scim.manifest, golden
    values for the SCIM corpus)."""
    p = Path(__file__).parent / "fixtures" / name
    if not p.is_file():
        raise FileNotFoundError(f"no bundled fixture named {name!r}")
    return p
