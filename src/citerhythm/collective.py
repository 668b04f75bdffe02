"""Collectives, complements, and actor comparisons.

A collective is a total p-c matrix plus named, disjoint constituent
matrices. Comparisons never judge an actor against data that includes the
actor itself: the expectation source is always the complement (total minus
the compared actors), so a one-vs-rest and a pairwise comparison use
different baselines by construction.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping
from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from types import MappingProxyType

from .errors import AlignmentError, DomainError, UnknownActorError
from .pcmatrix import CkProfile, PCMatrix, _REL_TOL, _first_excess, _sum_of, ck_profile, subtract
from .rhythm import RhythmSequence, cross_rhythm

__all__ = [
    "Collective",
    "ComparisonResult",
    "Finding",
    "ValidationReport",
    "complement",
    "actor_vs_collective",
    "actor_vs_actor",
    "validate_collective",
    "DEFAULT_TIE_TOLERANCE",
    "DEFAULT_DOMINANCE_SHARE",
    "DEFAULT_MIN_COMPLEMENT_PUBS",
]

DEFAULT_TIE_TOLERANCE = 1e-9
DEFAULT_DOMINANCE_SHARE = 0.80
DEFAULT_MIN_COMPLEMENT_PUBS = 20.0


def _cells(m: PCMatrix) -> Iterable[float]:
    return chain(m.pubs, *m.cites)


def _sums_subtract_exactly(c: "Collective") -> bool:
    """Whether the total's sums minus any one or two constituents' sums
    equal the sums of their complement exactly. That holds when every cell
    holds an integer, the total's cells add up to less than 2**40 (so no
    sum involved is rounded, and two counts ``subtract`` calls the same
    are equal) and every constituent and every pair of constituents fits
    inside the total cell by cell (so no complement fails); the largest
    and second-largest value of each cell stand for all pairs."""
    parts = [_cells(m) for m in c.constituents.values()]
    for x, *column in zip(_cells(c.total), *parts):
        second, first = sorted((0.0, *column))[-2:]
        if first + second > x or not all(v.is_integer() for v in (x, *column)):
            return False
    return sum(_cells(c.total)) < 1 / _REL_TOL


@dataclass(frozen=True)
class Collective:
    """A named total matrix with named constituent actors.

    Constituents need not cover the whole total: actors without a named
    matrix simply stay inside every complement. Use :func:`validate_collective`
    for subset/partition/dominance diagnostics. Immutable once built: the
    constituents are a read-only copy of the mapping passed in.
    Building one makes a single pass over every cell to decide whether
    comparisons can take the rest of the collective from per-matrix sums,
    in O(n), instead of building a complement matrix.
    """

    label: str
    total: PCMatrix
    constituents: Mapping[str, PCMatrix]

    def __post_init__(self) -> None:
        if not self.constituents:
            raise ValueError("a collective needs at least one constituent")
        object.__setattr__(self, "constituents", MappingProxyType(dict(self.constituents)))
        for actor_id, m in self.constituents.items():
            if m.first_year != self.total.first_year or m.n != self.total.n:
                raise AlignmentError(
                    f"constituent {actor_id!r} covers {m.first_year}-{m.last_year}, "
                    f"total covers {self.total.first_year}-{self.total.last_year}"
                )
        self._sums_exact  # the pass runs at build, outside any comparison

    @cached_property
    def _sums_exact(self) -> bool:
        return _sums_subtract_exactly(self)

    @classmethod
    def build(
        cls,
        label: str,
        constituents: Mapping[str, PCMatrix],
        total: PCMatrix | None = None,
    ) -> "Collective":
        """Build a collective, reconstructing the total as the sum of the
        constituents when no explicit total is given."""
        if not constituents:
            raise ValueError("a collective needs at least one constituent")
        if total is None:
            total = _sum_of(constituents.values()).relabeled(label)
        return cls(label=label, total=total, constituents=constituents)

    @property
    def actor_ids(self) -> tuple[str, ...]:
        return tuple(self.constituents)

    def actor(self, actor_id: str) -> PCMatrix:
        try:
            return self.constituents[actor_id]
        except KeyError:
            known = ", ".join(self.constituents) or "none"
            raise UnknownActorError(
                f"unknown actor {actor_id!r}; known actors: {known}"
            ) from None


@dataclass(frozen=True)
class ComparisonResult:
    """Two external rhythms computed against one shared complement, plus the
    per-year winner (None marks a tie or an undefined year)."""

    baseline_label: str
    sequences: dict[str, RhythmSequence]
    per_year_winner: tuple[str | None, ...]

    @property
    def years(self) -> tuple[int, ...]:
        return next(iter(self.sequences.values())).years


@dataclass(frozen=True)
class Finding:
    severity: str  # "error" | "warning" | "info"
    code: str  # "alignment" | "subset" | "partition" | "dominance" | "smallness"
    message: str


@dataclass(frozen=True)
class ValidationReport:
    findings: tuple[Finding, ...]

    @property
    def errors(self) -> tuple[Finding, ...]:
        return tuple(f for f in self.findings if f.severity == "error")

    @property
    def warnings(self) -> tuple[Finding, ...]:
        return tuple(f for f in self.findings if f.severity == "warning")

    @property
    def ok(self) -> bool:
        return not self.errors


def _rest_label(c: Collective, ids: list[str]) -> str:
    return f"{c.label} \\ {{{', '.join(ids)}}}"


def complement(c: Collective, actor_ids: Iterable[str]) -> PCMatrix:
    """Total minus the named constituents: the rest of the collective."""
    ids = sorted(set(actor_ids))
    if not ids:
        raise ValueError("actor_ids must name at least one actor")
    rest = subtract(c.total, _sum_of(c.actor(actor_id) for actor_id in ids))
    return rest.relabeled(_rest_label(c, ids))


def _rest_profile(c: Collective, actor_ids: set[str]) -> CkProfile:
    """``ck_profile(complement(c, actor_ids))`` for one actor or a pair.
    When that is exact, it is computed from the total's sums minus the
    actors' sums and builds no matrix."""
    ids = sorted(actor_ids)
    if not c._sums_exact:
        return ck_profile(complement(c, ids))
    removed = [c.actor(actor_id).sums for actor_id in ids]
    rest = c.total.sums - sum(removed[1:], removed[0])
    return rest.profile(_rest_label(c, ids))


def actor_vs_collective(c: Collective, actor_id: str) -> RhythmSequence:
    """External rhythm of one actor against the rest of its collective.

    A yearly ratio above 1 means the actor outperformed the collective's
    average citation level that year; below 1, it lagged it.
    """
    return cross_rhythm(c.actor(actor_id), _rest_profile(c, {actor_id}))


def actor_vs_actor(c: Collective, u: str, v: str) -> ComparisonResult:
    """External rhythms of two actors against the shared complement with
    both actors removed, so neither is compared partly to itself and both
    are judged against the same baseline. Ratios within
    ``DEFAULT_TIE_TOLERANCE`` of each other tie."""
    if u == v:
        raise ValueError(f"cannot compare actor {u!r} with itself")
    baseline = _rest_profile(c, {u, v})
    seq_u = cross_rhythm(c.actor(u), baseline)
    seq_v = cross_rhythm(c.actor(v), baseline)
    winners: list[str | None] = []
    for pu, pv in zip(seq_u.points, seq_v.points):
        if pu.ratio is None or pv.ratio is None:
            winners.append(None)
        elif abs(pu.ratio - pv.ratio) <= DEFAULT_TIE_TOLERANCE:
            winners.append(None)
        else:
            winners.append(u if pu.ratio > pv.ratio else v)
    return ComparisonResult(
        baseline_label=baseline.source_label,
        sequences={u: seq_u, v: seq_v},
        per_year_winner=tuple(winners),
    )


def _partition_residual(c: Collective) -> str | None:
    """The first cell where the constituents' sum and the total differ
    beyond the tolerance of ``_first_excess``; None when they agree."""
    try:
        parts = _sum_of(c.constituents.values())
    except DomainError:  # finite counts can add up past the largest float
        return "constituents sum past the largest float"
    excess = _first_excess(c.total, parts)
    if excess is not None:
        return f"constituents sum past the total at {excess}"
    excess = _first_excess(parts, c.total)
    if excess is not None:
        return f"total exceeds the constituents' sum at {excess}"
    return None


def validate_collective(c: Collective, assert_partition: bool = False) -> ValidationReport:
    """Diagnostic report for a collective.

    Errors: a constituent exceeding the total somewhere, and (with
    ``assert_partition``) any residual between the total and the constituent
    sum. Warnings: a constituent holding more than
    ``DEFAULT_DOMINANCE_SHARE`` of all publications, or a complement with
    fewer than ``DEFAULT_MIN_COMPLEMENT_PUBS``, so that comparing against
    the rest is meaningless. Warnings never fail a load.
    """
    findings: list[Finding] = []
    total_pubs = c.total.total_pubs

    findings.append(
        Finding(
            "info",
            "alignment",
            f"{len(c.constituents)} constituents aligned on window "
            f"{c.total.first_year}-{c.total.last_year}",
        )
    )

    for actor_id, m in c.constituents.items():
        violation = _first_excess(c.total, m)
        if violation is not None:
            findings.append(
                Finding(
                    "error",
                    "subset",
                    f"constituent {actor_id!r} exceeds the total: {violation}",
                )
            )

    residual = _partition_residual(c) if assert_partition else None
    if residual is not None:
        findings.append(Finding("error", "partition", f"partition residual: {residual}"))

    for actor_id, m in c.constituents.items():
        actor_pubs = m.total_pubs
        share = actor_pubs / total_pubs if total_pubs > 0 else 1.0
        if share > DEFAULT_DOMINANCE_SHARE:
            findings.append(
                Finding(
                    "warning",
                    "dominance",
                    f"constituent {actor_id!r} holds {share:.0%} of all publications; "
                    "comparisons against the rest are not meaningful",
                )
            )
        # Publications at or past the total leave no rest, not a negative one.
        rest_pubs = max(total_pubs - actor_pubs, 0.0)
        if rest_pubs < DEFAULT_MIN_COMPLEMENT_PUBS:
            findings.append(
                Finding(
                    "warning",
                    "smallness",
                    f"complement of {actor_id!r} has only {rest_pubs:g} publications; "
                    "comparisons against the rest are not meaningful",
                )
            )

    return ValidationReport(tuple(findings))
