"""R-sequences: yearly observed/expected citation ratios and their summaries.

A rhythm is internal when observed and expected values come from one matrix
(the expectation step merely redistributes the actor's own citations over
its publication years, so the totals balance) and cross when the per-age
averages come from a second matrix, which turns the ratio into a comparison
against that other matrix's citation level.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import accumulate

from .errors import AlignmentError, DomainError, WindowError
from .pcmatrix import CkProfile, PCMatrix, _check_aligned, ck_profile

__all__ = [
    "RhythmPoint",
    "RhythmSequence",
    "WindowSeries",
    "internal_rhythm",
    "cross_rhythm",
    "summary_i2_lenient",
    "sliding_windows",
]


@dataclass(frozen=True)
class RhythmPoint:
    """One publication year: observed citations, expected citations, and
    their ratio. The ratio is None exactly when expected is 0 (it is never
    coerced to 0 or infinity)."""

    year: int
    observed: float
    expected: float
    ratio: float | None


@dataclass(frozen=True)
class RhythmSequence:
    """A full R-sequence with its two summary indicators and the per-age
    profile its expected values were computed from.

    ``i1`` is the ratio of sums (total observed over total expected), None
    when nothing is expected. ``i2`` is the plain average of the yearly
    ratios, None as soon as any ratio is undefined; see
    :func:`summary_i2_lenient` for the average over defined years only.
    """

    points: tuple[RhythmPoint, ...]
    observed_label: str
    profile: CkProfile
    i1: float | None
    i2: float | None
    undefined_years: tuple[int, ...]

    @property
    def expectation_label(self) -> str:
        return self.profile.source_label

    @property
    def years(self) -> tuple[int, ...]:
        return tuple(p.year for p in self.points)

    @property
    def ratios(self) -> tuple[float | None, ...]:
        return tuple(p.ratio for p in self.points)

    @property
    def observed_total(self) -> float:
        return sum(p.observed for p in self.points)

    @property
    def expected_total(self) -> float:
        return sum(p.expected for p in self.points)


@dataclass(frozen=True)
class WindowSeries:
    """Rhythms of consecutive equal-width sub-windows, oldest start first."""

    entries: tuple[tuple[int, RhythmSequence], ...]


def _expected(m: PCMatrix, profile: CkProfile) -> list[float]:
    """Expected citations of every publication year, oldest first."""
    if profile.n != m.n:
        raise AlignmentError(
            f"profile covers {profile.n} ages but matrix covers {m.n} years"
        )
    # Year t's publications span n - t ages, so each is expected to earn
    # the sum of the first n - t profile values: the running sums, read
    # backwards.
    cumulative = reversed(tuple(accumulate(profile.values)))
    expected = [pubs * ck_sum for pubs, ck_sum in zip(m.pubs, cumulative)]
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
        points=tuple(map(RhythmPoint, years, observed, expected, ratios)),
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
    defined = [p.ratio for p in seq.points if p.ratio is not None]
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
