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
from .pcmatrix import CkProfile, PCMatrix, _check_aligned, _Record, ck_profile

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
    expected = tuple(map(operator.mul, m.pubs, cumulative))
    # Every value is >= 0 (or NaN, from 0 * inf), so a finite total makes
    # every value finite.
    if not math.isfinite(sum(expected)):
        raise DomainError(
            f"{m.label or 'matrix'}: expected citations sum past the largest float"
        )
    return expected


def _assemble(observed_source: PCMatrix, profile: CkProfile) -> RhythmSequence:
    m = observed_source
    expected = _expected(m, profile)
    observed = m.sums.rows
    ratios = [obs / exp if exp > 0 else None for obs, exp in zip(observed, expected)]
    years = m.years
    undefined = tuple(year for year, ratio in zip(years, ratios) if ratio is None)
    total_expected = sum(expected)
    i1 = sum(observed) / total_expected if total_expected > 0 else None
    i2 = None if undefined else sum(ratios) / len(ratios)
    # A tiny expected value can still put a ratio, or the sum of the
    # ratios, past the largest float. Ratios are >= 0; filter drops None.
    summaries = (max(filter(None, ratios), default=0.0), i1 or 0.0, i2 or 0.0)
    if not all(map(math.isfinite, summaries)):
        raise DomainError(
            f"{m.label or 'matrix'}: observed-to-expected ratios pass the largest float"
        )
    return RhythmSequence(
        years=years,
        observed=observed,
        expected=expected,
        ratios=tuple(ratios),
        observed_label=m.label,
        profile=profile,
        i1=i1,
        i2=i2,
        undefined_years=undefined,
    )


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
    since each sub-window is a self-contained p-c matrix."""
    if window < 1 or window > m.n:
        raise WindowError(f"window width {window} outside 1..{m.n}")
    entries = []
    for start in range(m.first_year, m.last_year - window + 2):
        entries.append((start, internal_rhythm(m.window(start, window))))
    return WindowSeries(tuple(entries))
