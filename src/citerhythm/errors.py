"""Exception types raised by this package."""

__all__ = [
    "RhythmError",
    "AlignmentError",
    "YearOutOfRangeError",
    "WindowError",
    "SubsetError",
    "DataConsistencyError",
    "DomainError",
    "MatrixParseError",
    "LayoutError",
    "ManifestError",
    "UnknownActorError",
]


class RhythmError(Exception):
    """Base class for all citerhythm errors. An error found in a file
    carries its 1-based ``line`` (and ``column``) and names them first in
    its message; both are None when unknown."""

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        if line is not None:
            where = f"line {line}" if column is None else f"line {line}, column {column}"
            message = f"{where}: {message}"
        super().__init__(message)
        self.line = line
        self.column = column


class AlignmentError(RhythmError, ValueError):
    """Two matrices do not share the same year window (first year and length)."""


class YearOutOfRangeError(RhythmError, IndexError):
    """A year falls outside the matrix window."""


class WindowError(RhythmError, ValueError):
    """Sliding-window width is outside 1..n."""


class SubsetError(RhythmError, ValueError):
    """Elementwise subtraction went negative: the subtrahend is not contained
    in the minuend under the chosen counting scheme."""


class DataConsistencyError(RhythmError, ValueError):
    """Citations recorded for a span with zero publications."""


class DomainError(RhythmError, ValueError):
    """A count is negative or not a finite number."""


class MatrixParseError(RhythmError, ValueError):
    """Malformed matrix CSV."""


class LayoutError(MatrixParseError):
    """Matrix CSV has the wrong shape (ragged rows, bad header, data below
    the diagonal)."""


class ManifestError(RhythmError, ValueError):
    """Collective manifest is malformed or references unusable data."""


class UnknownActorError(RhythmError, KeyError):
    """Actor id not present in the collective."""

    def __str__(self) -> str:
        # KeyError would print the message as a quoted repr.
        return Exception.__str__(self)
