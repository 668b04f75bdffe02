"""R-sequences: yearly observed/expected citation ratios and their summaries.

A rhythm is internal when observed and expected values come from one matrix
(the expectation step merely redistributes the actor's own citations over
its publication years, so the totals balance) and cross when the per-age
averages come from a second matrix, which turns the ratio into a comparison
against that other matrix's citation level.

A sequence stores its years, observed and expected values and ratios as
columns; per-year :class:`RhythmPoint` records are built only when its
``points`` are read.
"""

from __future__ import annotations

import math
import operator
from itertools import accumulate

from .errors import AlignmentError, DomainError, WindowError
from .pcmatrix import (
    _EXACT_WHOLE,
    CkProfile,
    PCMatrix,
    _check_aligned,
    _Record,
    ck_profile,
)

__all__ = [
    "RhythmPoint",
    "RhythmSequence",
    "WindowSeries",
    "internal_rhythm",
    "cross_rhythm",
    "summary_i2_lenient",
    "sliding_windows",
]


class RhythmPoint(_Record):
    """One publication year: observed citations, expected citations, and
    their ratio. The ratio is None exactly when expected is 0 (it is never
    coerced to 0 or infinity)."""

    def __init__(self, year: int, observed: float, expected: float, ratio: float | None) -> None:
        object.__setattr__(self, "year", year)
        object.__setattr__(self, "observed", observed)
        object.__setattr__(self, "expected", expected)
        object.__setattr__(self, "ratio", ratio)


class RhythmSequence(_Record):
    """A full R-sequence, stored as per-year columns, with its two summary
    indicators and the per-age profile its expected values were computed
    from.

    ``years``, ``observed``, ``expected`` and ``ratios`` run in parallel,
    oldest publication year first; a ratio is None exactly where expected
    is 0. ``points`` zips them into :class:`RhythmPoint` records on each
    read. ``i1`` is the ratio of sums (total observed over total expected),
    None when nothing is expected. ``i2`` is the plain average of the
    yearly ratios, None as soon as any ratio is undefined; see
    :func:`summary_i2_lenient` for the average over defined years only.
    """

    def __init__(self, years: tuple[int, ...], observed: tuple[float, ...],
                 expected: tuple[float, ...], ratios: tuple[float | None, ...],
                 observed_label: str, profile: CkProfile, i1: float | None, i2: float | None,
                 undefined_years: tuple[int, ...]) -> None:
        object.__setattr__(self, "years", years)
        object.__setattr__(self, "observed", observed)
        object.__setattr__(self, "expected", expected)
        object.__setattr__(self, "ratios", ratios)
        object.__setattr__(self, "observed_label", observed_label)
        object.__setattr__(self, "profile", profile)
        object.__setattr__(self, "i1", i1)
        object.__setattr__(self, "i2", i2)
        object.__setattr__(self, "undefined_years", undefined_years)

    @property
    def expectation_label(self) -> str:
        return self.profile.source_label

    @property
    def points(self) -> tuple[RhythmPoint, ...]:
        return tuple(map(RhythmPoint, self.years, self.observed, self.expected, self.ratios))

    @property
    def observed_total(self) -> float:
        return sum(self.observed)

    @property
    def expected_total(self) -> float:
        return sum(self.expected)


class WindowSeries(_Record):
    """Rhythms of consecutive equal-width sub-windows, oldest start first."""

    def __init__(self, entries: tuple[tuple[int, RhythmSequence], ...]) -> None:
        object.__setattr__(self, "entries", entries)


def _expected(m: PCMatrix, profile: CkProfile) -> tuple[float, ...]:
    """Expected citations of every publication year, oldest first."""
    if profile.n != m.n:
        raise AlignmentError(
            f"profile covers {profile.n} ages but matrix covers {m.n} years"
        )
    # Year t's publications span n - t ages, so each is expected to earn
    # the sum of the first n - t profile values: the running sums, read
    # backwards.
    cumulative = reversed(tuple(accumulate(profile.values)))
    return tuple(map(operator.mul, m.pubs, cumulative))


def _sequence(years: tuple[int, ...], observed: tuple[float, ...], expected: tuple[float, ...],
              ratios: tuple[float | None, ...], label: str, profile: CkProfile) -> RhythmSequence:
    """The rhythm of the given columns, whose ratios are None exactly where
    expected is not > 0. Raises ``DomainError`` where the expected values,
    a ratio, I1 or I2 pass the largest float."""
    total = sum(expected)
    # Every value is >= 0 (or NaN, from 0 * inf), so a finite total makes
    # every value finite.
    if not math.isfinite(total):
        raise DomainError(f"{label or 'matrix'}: expected citations sum past the largest float")
    i1 = sum(observed) / total if total > 0 else None
    if min(expected) > 0:
        undefined, i2, top = (), sum(ratios) / len(ratios), max(ratios)
    else:
        undefined = tuple(year for year, ratio in zip(years, ratios) if ratio is None)
        i2, top = None, max(filter(None, ratios), default=0.0)  # ratios are >= 0
    # A tiny expected value can still put a ratio, or the sum of the
    # ratios, past the largest float.
    if not all(map(math.isfinite, (top, i1 or 0.0, i2 or 0.0))):
        raise DomainError(
            f"{label or 'matrix'}: observed-to-expected ratios pass the largest float"
        )
    return RhythmSequence(years, observed, expected, ratios, label, profile, i1, i2, undefined)


def _assemble(m: PCMatrix, profile: CkProfile) -> RhythmSequence:
    expected = _expected(m, profile)
    observed = m.sums.rows
    ratios = tuple([obs / exp if exp > 0 else None for obs, exp in zip(observed, expected)])
    return _sequence(m.years, observed, expected, ratios, m.label, profile)


def internal_rhythm(m: PCMatrix) -> RhythmSequence:
    """R-sequence of a matrix against its own per-age averages."""
    return _assemble(m, ck_profile(m))


def cross_rhythm(
    observed_source: PCMatrix,
    expectation_source: PCMatrix | CkProfile,
) -> RhythmSequence:
    """R-sequence with observed values from one matrix and the expectation
    profile from another covering the same window. A profile computed
    beforehand may stand in for that matrix; its ``source_label`` then
    names the expectation."""
    if isinstance(expectation_source, PCMatrix):
        _check_aligned(observed_source, expectation_source)
        expectation_source = ck_profile(expectation_source)
    return _assemble(observed_source, expectation_source)


def summary_i2_lenient(seq: RhythmSequence) -> tuple[float, int] | None:
    """Average over the defined ratios only, with the count of years that
    entered the average; None when no ratio is defined."""
    defined = [ratio for ratio in seq.ratios if ratio is not None]
    if not defined:
        return None
    return sum(defined) / len(defined), len(defined)


def sliding_windows(m: PCMatrix, window: int) -> WindowSeries:
    """Internal rhythms of every width-``window`` sub-matrix, shifted one
    year at a time. Per-age profiles are recomputed inside each window,
    since each sub-window is a self-contained p-c matrix: each entry equals
    ``internal_rhythm(m.window(start, window))``, or the same error is
    raised."""
    if window < 1 or window > m.n:
        raise WindowError(f"window width {window} outside 1..{m.n}")
    entries = _all_windows(m, window)
    if entries is None:
        entries = [(start, internal_rhythm(m.window(start, window)))
                   for start in range(m.first_year, m.last_year - window + 2)]
    return WindowSeries(tuple(entries))


def _all_windows(m: PCMatrix, w: int) -> list[tuple[int, RhythmSequence]] | None:
    """The entries of ``sliding_windows(m, w)``, computed one column (one
    row or age of every window) at a time from running sums, with no window
    matrix. None only at its gate, where the windows must be computed one
    by one: a matrix that is not whole (``PCMatrix._whole``), a window
    whose first year has no publications, or publications or cells of the
    first ``w`` diagonals that sum to ``_EXACT_WHOLE`` or more.

    The windows add exactly the publications and the first ``w`` diagonals
    of ``m.cites``. Whole counts whose float sum stays below
    ``_EXACT_WHOLE`` add exactly at every step, so any sum of them, in any
    order, equals the window's own ``sum``; the per-age averages, running
    averages, expected values and ratios then repeat the float operations
    of ``_profile``, ``_expected`` and ``_assemble`` exactly. Each average
    divides a whole sum by the publications of years that include the
    window's first, a positive sum, so every profile is finite and >= 0
    unchecked. ``_sequence`` checks and builds each window's rhythm, and no
    window fails there (a positive expected value is at least 2**-53);
    were one to, the first to fail raises what it raises window by window,
    since every earlier window has passed every check."""
    n, pubs, label = m.n, m.pubs, m.label
    count = n - w + 1
    # Each window's first-year publications divide every one of its ages.
    if not (m._whole and min(pubs[:count]) > 0):
        return None
    cumulative = list(accumulate(pubs, initial=0.0))
    running = [list(accumulate(map(operator.itemgetter(a), m.cites[: n - a]), initial=0.0))
               for a in range(w)]
    # Every partial sum is at most the final one, so the final sums bound them all.
    if not (cumulative[-1] < _EXACT_WHOLE and sum(r[-1] for r in running) < _EXACT_WHOLE):
        return None
    rows = [list(accumulate(row[:w], initial=0.0)) for row in m.cites]
    # Per age, every window's Ck; per row of a window, every window's values.
    ages, observed, expected, ratios = [], [None] * w, [None] * w, [None] * w
    for a, sums in enumerate(running):
        # Age a of window s: diagonal a over its first w - a years.
        ck = list(map(operator.truediv, map(operator.sub, sums[w - a :], sums),
                      map(operator.sub, cumulative[w - a :], cumulative)))
        running[a] = None
        mean = ck if a == 0 else list(map(operator.add, mean, ck))
        ages.append(ck)
        # Row t = w - 1 - a of each window expects its publications times
        # the running average up to age a.
        t = w - 1 - a
        e = list(map(operator.mul, pubs[t : t + count], mean))
        o = list(map(operator.itemgetter(w - t), rows[t : t + count]))
        observed[t], expected[t] = o, e
        if min(e) > 0:
            ratios[t] = list(map(operator.truediv, o, e))
        else:  # no ratio where nothing is expected, as in _assemble
            ratios[t] = [x / y if y > 0 else None for x, y in zip(o, e)]
    del rows, cumulative
    entries = []
    for start, o, e, r, ck in zip(range(m.first_year, m.first_year + count), zip(*observed),
                                  zip(*expected), zip(*ratios), zip(*ages)):
        years = tuple(range(start, start + w))
        entries.append((start, _sequence(years, o, e, r, label, CkProfile._of(ck, label))))
    return entries
