"""Publication-citation matrices and their elementary derived quantities.

A p-c matrix covers n consecutive years. Row i holds the publication count
of year i and, for every citing year j >= i inside the window, the citations
those publications received in year j. Counts are non-negative reals so
fractional counting and additive scores (e.g. altmetrics) work unchanged;
integer data is the common special case.
"""

from __future__ import annotations

import math
import operator
from collections.abc import Iterable
from functools import cached_property
from itertools import accumulate, chain, islice, zip_longest

from .errors import (
    AlignmentError,
    DataConsistencyError,
    DomainError,
    SubsetError,
    WindowError,
    YearOutOfRangeError,
)

__all__ = [
    "PCMatrix",
    "Sums",
    "CkProfile",
    "ck_profile",
    "add",
    "subtract",
]


class _Record:
    """Base of the package's immutable records. A record's fields are the
    parameters of its ``__init__``, in order, which sets each one with
    ``object.__setattr__``; ``==`` and ``hash`` use the fields named in
    ``_compared``, all of them when a record names none."""

    def __init_subclass__(cls) -> None:
        super().__init_subclass__()
        code = cls.__init__.__code__
        cls._fields = code.co_varnames[1 : code.co_argcount]
        # The compared values as a tuple, or the value itself for one field.
        cls._key = operator.attrgetter(*getattr(cls, "_compared", cls._fields))

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key(self) == self._key(other)

    def __hash__(self) -> int:
        return hash(self._key(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"


def _pairwise(op, a: tuple[float, ...], b: tuple[float, ...]) -> tuple[float, ...]:
    return tuple(map(op, a, b))


class Sums(_Record):
    """The additive statistics a rhythm needs from a p-c matrix.

    ``pubs[t]`` is year t's publication count, ``rows[t]`` that year's
    row sum (its observed citations) and ``diagonals[a]`` the citations
    received ``a`` years after publication, summed over all publication
    years. All three are additive, so the sums of ``total - actors`` are
    the total's sums minus the actors' sums, in O(n). Operands must cover
    the same window.
    """

    def __init__(self, pubs: tuple[float, ...], rows: tuple[float, ...],
                 diagonals: tuple[float, ...]) -> None:
        object.__setattr__(self, "pubs", pubs)
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "diagonals", diagonals)

    def __add__(self, other: "Sums") -> "Sums":
        return Sums(
            _pairwise(operator.add, self.pubs, other.pubs),
            _pairwise(operator.add, self.rows, other.rows),
            _pairwise(operator.add, self.diagonals, other.diagonals),
        )

    def __sub__(self, other: "Sums") -> "Sums":
        return Sums(
            _pairwise(operator.sub, self.pubs, other.pubs),
            _pairwise(operator.sub, self.rows, other.rows),
            _pairwise(operator.sub, self.diagonals, other.diagonals),
        )

    def profile(self, label: str = "") -> "CkProfile":
        """:func:`ck_profile` of the matrix with these sums and this label."""
        # Age k's denominator is the publication total of the first n-k+1 years.
        denominators = reversed(tuple(accumulate(self.pubs)))
        values = []
        pairs = zip(self.diagonals, denominators)
        for k, (numerator, denominator) in enumerate(pairs, 1):
            if denominator == 0:
                if numerator > 0:
                    raise DataConsistencyError(
                        f"{label or 'matrix'}: age {k} has {numerator} citations "
                        "but no publications in the contributing years"
                    )
                values.append(0.0)
            else:
                values.append(numerator / denominator)
        return CkProfile(values=tuple(values), source_label=label)


def _counts(values: Iterable[float], what: str) -> tuple[float, ...]:
    counts = tuple(map(float, values))
    # A finite sum and a minimum >= 0 make every count finite and
    # non-negative; otherwise walk the counts for the first bad one.
    if not (math.isfinite(sum(counts)) and min(counts, default=0.0) >= 0):
        for count in counts:
            if not math.isfinite(count):
                raise DomainError(f"{what} must be finite, got {count!r}")
            if count < 0:
                raise DomainError(f"{what} must be non-negative, got {count!r}")
    return counts


class PCMatrix(_Record):
    """Upper-triangular publication-citation table for one actor.

    ``pubs[t]`` is the publication count of year ``first_year + t``;
    ``cites[t][a]`` holds the citations received ``a`` years after
    publication by that row's publications (so row ``t`` stores ``n - t``
    cells, citing years ``first_year + t .. first_year + n - 1``).
    Instances are immutable and safe to share between threads.
    """

    _compared = ("first_year", "pubs", "cites")

    def __init__(self, first_year: int, pubs: tuple[float, ...],
                 cites: tuple[tuple[float, ...], ...], label: str = "") -> None:
        object.__setattr__(self, "first_year", first_year)
        object.__setattr__(self, "pubs", pubs)
        object.__setattr__(self, "cites", cites)
        object.__setattr__(self, "label", label)
        self.__post_init__()

    def __post_init__(self) -> None:
        pubs = _counts(self.pubs, "publication count")
        if not pubs:
            raise ValueError("matrix must cover at least one year")
        n = len(pubs)
        if len(self.cites) != n:
            raise ValueError(f"expected {n} citation rows, got {len(self.cites)}")
        rows = []
        for t, row in enumerate(self.cites):
            if len(row) != n - t:
                raise ValueError(
                    f"citation row {t} must have {n - t} cells, got {len(row)}"
                )
            rows.append(_counts(row, "citation count"))
        object.__setattr__(self, "pubs", pubs)
        object.__setattr__(self, "cites", tuple(rows))

    @classmethod
    def _of(
        cls,
        first_year: int,
        pubs: tuple[float, ...],
        cites: tuple[tuple[float, ...], ...],
        label: str,
    ) -> "PCMatrix":
        """A matrix of cells that are already finite, non-negative floats in
        the shape ``__post_init__`` enforces, without checking them again.
        Only for cells taken from validated matrices or parsed by
        ``ingest.parse_matrix``; outside data goes through the constructor."""
        m = object.__new__(cls)
        object.__setattr__(m, "first_year", first_year)
        object.__setattr__(m, "pubs", pubs)
        object.__setattr__(m, "cites", cites)
        object.__setattr__(m, "label", label)
        return m

    @property
    def n(self) -> int:
        return len(self.pubs)

    @property
    def last_year(self) -> int:
        return self.first_year + self.n - 1

    @property
    def years(self) -> tuple[int, ...]:
        return tuple(range(self.first_year, self.first_year + self.n))

    def _offset(self, year: int) -> int:
        if not self.first_year <= year <= self.last_year:
            raise YearOutOfRangeError(
                f"year {year} outside window {self.first_year}-{self.last_year}"
            )
        return year - self.first_year

    @property
    def total_pubs(self) -> float:
        return sum(self.pubs)

    def window(self, start_year: int, length: int) -> "PCMatrix":
        """Square sub-matrix covering publication and citing years
        ``start_year .. start_year + length - 1``."""
        if length < 1 or length > self.n:
            raise WindowError(f"window length {length} outside 1..{self.n}")
        s = self._offset(start_year)
        if s + length > self.n:
            raise WindowError(
                f"window {start_year}+{length} overruns year {self.last_year}"
            )
        return self._of(
            start_year,
            self.pubs[s : s + length],
            tuple(self.cites[s + t][: length - t] for t in range(length)),
            self.label,
        )

    def relabeled(self, label: str) -> "PCMatrix":
        return self._of(self.first_year, self.pubs, self.cites, label)

    @cached_property
    def sums(self) -> Sums:
        """Per-year publications, row sums and diagonal sums, computed once.

        Each sum adds its cells oldest publication year first, exactly as
        summing the row or diagonal directly would. Finite cells can still
        sum past the largest float, so the totals are checked here, once:
        every result of this matrix is computed from these sums.
        """
        rows = tuple(map(sum, self.cites))
        diagonals = tuple(map(sum, zip_longest(*self.cites, fillvalue=0.0)))
        # Every count is >= 0, so finite totals bound every row, every
        # diagonal and every prefix sum of pubs.
        totals = (sum(self.pubs), sum(rows), sum(diagonals))
        if not all(map(math.isfinite, totals)):
            raise DomainError(
                f"{self.label or 'matrix'}: counts sum past the largest float"
            )
        return Sums(pubs=self.pubs, rows=rows, diagonals=diagonals)


class CkProfile(_Record):
    """Average citations per paper in the k-th year after publication
    (k = 1 is the publication year itself), one value per year of the
    source matrix's window."""

    _compared = ("values",)

    def __init__(self, values: tuple[float, ...], source_label: str = "") -> None:
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "source_label", source_label)
        self.__post_init__()

    def __post_init__(self) -> None:
        object.__setattr__(self, "values", _counts(self.values, "profile value"))

    @property
    def n(self) -> int:
        return len(self.values)


def ck_profile(m: PCMatrix) -> CkProfile:
    """Per-age citation averages of a matrix.

    For age k (1-based), only the first n-k+1 publication years have a k-th
    year inside the window, so the average runs over exactly those years:
    the k-th diagonal's sum divided by those years' publication total.
    A span with no publications and no citations yields 0; citations without
    publications are rejected as inconsistent data.
    """
    return m.sums.profile(m.label)


def _check_aligned(a: PCMatrix, b: PCMatrix) -> None:
    if a.first_year != b.first_year or a.n != b.n:
        raise AlignmentError(
            f"windows differ: {a.label or 'a'} covers {a.first_year}-{a.last_year}, "
            f"{b.label or 'b'} covers {b.first_year}-{b.last_year}"
        )


def add(a: PCMatrix, b: PCMatrix) -> PCMatrix:
    """Elementwise sum of two matrices over the same window."""
    _check_aligned(a, b)
    s = _sum_of((a, b))
    # The constructor checks the cells: two finite counts can add up to inf.
    return PCMatrix(s.first_year, s.pubs, s.cites, s.label)


def _sum_of(matrices: Iterable[PCMatrix]) -> PCMatrix:
    """Cellwise sum of one or more matrices, added left to right in the
    given order, labelled ``A+B+...``. It checks nothing: the caller makes
    sure the windows agree and that no cell came out infinite."""
    first, *rest = matrices
    # Flat lists: row tuples dropped per matrix would fill tuple free lists.
    cells = list(chain(first.pubs, *first.cites))
    for m in rest:
        cells = list(map(operator.add, cells, chain(m.pubs, *m.cites)))
    n, flat = first.n, iter(cells)
    pubs = tuple(islice(flat, n))
    cites = tuple(tuple(islice(flat, n - t)) for t in range(n))
    label = "+".join(m.label for m in (first, *rest) if m.label)
    return PCMatrix._of(first.first_year, pubs, cites, label)


# One count exceeds another only by more than this share of the larger.
# Adding thousands of fractional shares rounds by far less, and any whole
# count below 2**40 exceeds 2**-40 of it, so integer data compare exactly.
_REL_TOL = 2.0**-40


def _same(x: float, y: float) -> bool:
    """Whether two counts are equal within the relative tolerance."""
    return abs(x - y) <= _REL_TOL * max(x, y)


def _first_excess(a: PCMatrix, b: PCMatrix) -> str | None:
    """The first cell where ``b`` exceeds ``a`` beyond the tolerance,
    publications first, as ``publications of year <year>: y > x`` or
    ``citations (i, j): y > x``; None when ``b`` is contained in ``a``.
    Builds no matrix."""
    for t, (x, y) in enumerate(zip(a.pubs, b.pubs)):
        if y > x and not _same(x, y):
            return f"publications of year {a.first_year + t}: {y} > {x}"
    for t, (ra, rb) in enumerate(zip(a.cites, b.cites)):
        for o, (x, y) in enumerate(zip(ra, rb)):
            if y > x and not _same(x, y):
                i = a.first_year + t
                return f"citations ({i}, {i + o}): {y} > {x}"
    return None


def _difference(a: tuple[float, ...], b: tuple[float, ...]) -> tuple[float, ...]:
    # Two counts the rule calls the same leave 0.0, whichever is larger.
    return tuple(0.0 if _same(x, y) else x - y for x, y in zip(a, b))


def subtract(a: PCMatrix, b: PCMatrix) -> PCMatrix:
    """Elementwise difference ``a - b``; ``b`` must be contained in ``a``."""
    _check_aligned(a, b)
    excess = _first_excess(a, b)
    if excess is not None:
        raise SubsetError(
            f"{excess}; {b.label or 'subtrahend'} is not contained in "
            f"{a.label or 'minuend'}"
        )
    # Every cell is x - y with finite 0 <= y <= x, or 0.0, so finite and >= 0.
    return PCMatrix._of(
        a.first_year,
        _difference(a.pubs, b.pubs),
        tuple(_difference(ra, rb) for ra, rb in zip(a.cites, b.cites)),
        f"{a.label}-{b.label}" if a.label and b.label else a.label,
    )
