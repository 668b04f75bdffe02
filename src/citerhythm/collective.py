"""Collectives, complements, and actor comparisons.

A collective is a total p-c matrix plus named, disjoint constituent
matrices. Comparisons never judge an actor against data that includes the
actor itself: the expectation source is always the complement (total minus
the compared actors), so a one-vs-rest and a pairwise comparison use
different baselines by construction. The complement is the true rest only
if no paper counts in two constituents. Construction checks what the
matrices show of this, that the constituents fit inside the total
together; overlap that still fits goes unseen.

:func:`load_manifest` builds a collective from a manifest that ``ingest``
parses; ``ingest`` never imports this module. Other modules' functions are
called through their module (``rhythm.cross_rhythm``), so a wrapper set on
a module attribute, as ``perfbench``'s tracer sets, is reached and not kept.
"""

from __future__ import annotations

import math
import operator
import sys
from collections.abc import Iterable, Mapping
from itertools import accumulate, chain, islice, zip_longest
from pathlib import Path
from types import MappingProxyType

from . import ingest, pcmatrix, rhythm
from .errors import (
    AlignmentError,
    DomainError,
    ManifestError,
    RhythmError,
    SubsetError,
    UnknownActorError,
)
from .pcmatrix import CkProfile, PCMatrix, _REL_TOL, _first_excess, _Record, _same, _sum_of
from .rhythm import RhythmSequence

__all__ = [
    "Collective",
    "ComparisonResult",
    "Finding",
    "ValidationReport",
    "complement",
    "actor_vs_collective",
    "actor_vs_actor",
    "validate_collective",
    "build_collective",
    "load_manifest",
    "DEFAULT_TIE_TOLERANCE",
    "DEFAULT_DOMINANCE_SHARE",
    "DEFAULT_MIN_COMPLEMENT_PUBS",
]

DEFAULT_TIE_TOLERANCE = 1e-9
DEFAULT_DOMINANCE_SHARE = 0.80
DEFAULT_MIN_COMPLEMENT_PUBS = 20.0


_LARGEST_FLOAT = int(sys.float_info.max)


def _cells(m: PCMatrix) -> Iterable[float]:
    return chain(m.pubs, *m.cites)


def _scale(matrices: list[PCMatrix]) -> int:
    """The largest denominator of the matrices' cells, a power of two, so
    every cell times it is an int. 1 when every matrix is whole
    (``PCMatrix._whole``, scanned once per matrix); otherwise every cell's
    denominator is read."""
    if all(m._whole for m in matrices):
        return 1
    ratios = map(float.as_integer_ratio, chain.from_iterable(map(_cells, matrices)))
    return max(q for _, q in ratios)


def _scaled(m: PCMatrix, scale: int) -> list[int]:
    """Every cell of ``m`` times ``scale``, exactly, in ``_cells`` order."""
    return [p * (scale // q) for p, q in map(float.as_integer_ratio, _cells(m))]


def _sums_of_cells(cells: list[int], n: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Cumulative publications (of the years up to each year) and diagonal
    sums of an n-year matrix whose cells ``cells`` lists in ``_cells`` order."""
    flat = iter(cells)
    pubs = tuple(islice(flat, n))
    rows = [tuple(islice(flat, n - t)) for t in range(n)]
    return tuple(accumulate(pubs)), tuple(map(sum, zip_longest(*rows, fillvalue=0)))


def _sums_of_floats(m: PCMatrix) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """``_sums_of_cells(_scaled(m, 1), m.n)`` read from ``m.sums``, where
    every cell of ``m`` is an integer and they add up to less than 2**53:
    then no float sum of them is rounded."""
    return tuple(map(int, accumulate(m.sums.pubs))), tuple(map(int, m.sums.diagonals))


def _exact_sums(total: PCMatrix, parts: PCMatrix, constituents: Mapping[str, PCMatrix]):
    """The scale of the matrices' cells, then the cumulative publications
    and diagonal sums of the total and of each constituent, as ints: sums
    of the cells times that scale. Whole counts (every matrix's ``_whole``)
    whose float sums stay below 2**53 take their exact ``m.sums``, before
    any cell is compared.
    Otherwise a total cell that ``_same`` calls equal to the constituents'
    float sum ``parts`` takes their exact sum, so a rest never keeps that
    sum's rounding. Any other total cell exceeds the float sum by a whole
    count, where both are whole counts below 2**53 (the float sum is then
    at least any two constituents' exact sum less half a unit), or else by
    more than 2**-40 of itself, more than a float sum of fewer than 2**13
    counts is off by. So no rest cell is negative."""
    scale = _scale([total, *constituents.values()])
    # Cells whose float sums stay below 2**53 / scale add up exactly: then
    # a total cell that equals the float sum already equals the exact one.
    bound = 2**53 / scale
    rounded = sum(_cells(parts)) >= bound
    if scale == 1 and not rounded and sum(_cells(total)) < bound:
        sums = {actor_id: _sums_of_floats(m) for actor_id, m in constituents.items()}
        return scale, _sums_of_floats(total), sums
    snapped = [
        i for i, (x, y) in enumerate(zip(_cells(total), _cells(parts)))
        if (rounded or x != y) and _same(x, y)
    ]
    cells = _scaled(total, scale)
    for i in snapped:
        cells[i] = 0
    sums = {}
    for actor_id, m in constituents.items():
        scaled = _scaled(m, scale)
        for i in snapped:
            cells[i] += scaled[i]
        sums[actor_id] = _sums_of_cells(scaled, m.n)
    return scale, _sums_of_cells(cells, total.n), sums


class Collective(_Record):
    """A named total matrix with named, disjoint constituent actors.

    Constituents need not cover the whole total: actors without a named
    matrix simply stay inside every complement. Building one adds them up
    cell by cell, once, and raises :class:`SubsetError` at the first cell
    where that sum passes the total (beyond the tolerance of fractional
    counts) or the largest float; a total of None stands for the sum. It
    keeps that sum for the partition check of :func:`validate_collective`,
    and every matrix's per-year publications and per-age citations as
    exact ints (see ``_exact_sums``), so a comparison takes the rest from
    them in O(n). Immutable: the constituents are a read-only copy of
    the mapping passed in. Copies and unpickled collectives are built again
    from ``(label, dict(constituents), total)``, so they re-run the
    containment check and the exact sums; their matrices keep ``sums`` and
    ``_whole``, so no cell is scanned for those (for 100 integer
    constituents of 30 years on a 2-core x86-64 host, about 2.5 ms for a
    copy and 4.6 ms for an unpickled one).
    """

    def __init__(self, label: str, constituents: Mapping[str, PCMatrix],
                 total: PCMatrix | None = None) -> None:
        object.__setattr__(self, "label", label)
        object.__setattr__(self, "constituents", constituents)
        object.__setattr__(self, "total", total)
        self.__post_init__()

    def __post_init__(self) -> None:
        if not self.constituents:
            raise ValueError("a collective needs at least one constituent")
        object.__setattr__(self, "constituents", MappingProxyType(dict(self.constituents)))
        window = next(iter(self.constituents.values())) if self.total is None else self.total
        for actor_id, m in self.constituents.items():
            if m.first_year != window.first_year or m.n != window.n:
                raise AlignmentError(
                    f"constituent {actor_id!r} covers {m.first_year}-{m.last_year}, "
                    f"{self.label} covers {window.first_year}-{window.last_year}"
                )
        parts = _sum_of(self.constituents.values())
        if not math.isfinite(max(_cells(parts))):
            raise SubsetError(f"{self.label}: constituents sum past the largest float")
        if self.total is None:
            object.__setattr__(self, "total", parts.relabeled(self.label))
        excess = _first_excess(self.total, parts)
        if excess is not None:
            raise SubsetError(f"{self.label}: constituents sum past the total at {excess}")
        scale, (pubs, diagonals), sums = _exact_sums(self.total, parts, self.constituents)
        # A rest of fractional cells whose publications are at most the
        # tolerance's share of the total's over the same years is a rounding
        # rest: it has none. At scale 1 every sum is exact, so no rule.
        num, den = _REL_TOL.as_integer_ratio() if scale > 1 else (0, 1)
        limits = tuple(p * num // den for p in pubs)
        object.__setattr__(self, "_scale", scale)
        object.__setattr__(self, "_exact_total", (limits, pubs, diagonals))
        object.__setattr__(self, "_exact", sums)
        object.__setattr__(self, "_parts", parts)

    def __reduce__(self) -> tuple:
        return Collective, (self.label, dict(self.constituents), self.total)

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


class ComparisonResult(_Record):
    """Two external rhythms computed against one shared complement, plus the
    per-year winner (None marks a tie or an undefined year)."""

    def __init__(self, baseline_label: str, sequences: dict[str, RhythmSequence],
                 per_year_winner: tuple[str | None, ...]) -> None:
        object.__setattr__(self, "baseline_label", baseline_label)
        object.__setattr__(self, "sequences", sequences)
        object.__setattr__(self, "per_year_winner", per_year_winner)

    @property
    def years(self) -> tuple[int, ...]:
        return next(iter(self.sequences.values())).years


class Finding(_Record):
    """One result of :func:`validate_collective`: a severity (``error``,
    ``warning`` or ``info``), a code (``alignment``, ``partition``,
    ``dominance`` or ``smallness``) and a message."""

    def __init__(self, severity: str, code: str, message: str) -> None:
        object.__setattr__(self, "severity", severity)
        object.__setattr__(self, "code", code)
        object.__setattr__(self, "message", message)


class ValidationReport(_Record):
    """The findings of :func:`validate_collective`, in the order found."""

    def __init__(self, findings: tuple[Finding, ...]) -> None:
        object.__setattr__(self, "findings", findings)

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
    rest = pcmatrix.subtract(c.total, _sum_of(c.actor(actor_id) for actor_id in ids))
    return rest.relabeled(_rest_label(c, ids))


def _rest_profile(c: Collective, actor_ids: set[str]) -> CkProfile:
    """The per-age profile of the rest of ``c`` without one actor or a
    pair: the total's exact sums minus the actors', so each value is
    rounded once. Builds no matrix."""
    ids = sorted(actor_ids)
    limits, pubs, diagonals = c._exact_total
    for actor_id in ids:
        c.actor(actor_id)  # an unknown id raises UnknownActorError
        removed_pubs, removed_diagonals = c._exact[actor_id]
        pubs = map(operator.sub, pubs, removed_pubs)
        diagonals = map(operator.sub, diagonals, removed_diagonals)
    pubs, diagonals = list(pubs), list(diagonals)
    label = _rest_label(c, ids)
    if max(pubs[-1], sum(diagonals)) > _LARGEST_FLOAT * c._scale:
        raise DomainError(f"{label}: counts sum past the largest float")
    # Publications within the rest rule's limit count as none.
    pubs = [p if p > limit else 0 for p, limit in zip(pubs, limits)]
    return pcmatrix._profile(diagonals, pubs, label, c._scale)


def actor_vs_collective(c: Collective, actor_id: str) -> RhythmSequence:
    """External rhythm of one actor against the rest of its collective.

    A yearly ratio above 1 means the actor outperformed the collective's
    average citation level that year; below 1, it lagged it.
    """
    return rhythm.cross_rhythm(c.actor(actor_id), _rest_profile(c, {actor_id}))


def actor_vs_actor(c: Collective, u: str, v: str) -> ComparisonResult:
    """External rhythms of two actors against the shared complement with
    both actors removed, so neither is compared partly to itself and both
    are judged against the same baseline. Ratios within
    ``DEFAULT_TIE_TOLERANCE`` of each other tie."""
    if u == v:
        raise ValueError(f"cannot compare actor {u!r} with itself")
    baseline = _rest_profile(c, {u, v})
    seq_u = rhythm.cross_rhythm(c.actor(u), baseline)
    seq_v = rhythm.cross_rhythm(c.actor(v), baseline)
    winners: list[str | None] = []
    # Reading ``ratios`` here would build no points and about double the
    # comparisons per second. It waits until the benchmark's league peak
    # memory stops growing with the op count, which would read as a loss.
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


def validate_collective(c: Collective, assert_partition: bool = False) -> ValidationReport:
    """Diagnostic report for a collective.

    Errors: with ``assert_partition``, a cell where the total exceeds the
    constituents' sum beyond the tolerance of ``_first_excess`` (the other
    way round, construction raises). Warnings: a constituent holding more
    than ``DEFAULT_DOMINANCE_SHARE`` of all publications, or a complement
    with fewer than ``DEFAULT_MIN_COMPLEMENT_PUBS``, so that comparing
    against the rest is meaningless. Warnings never fail a load.
    """
    findings: list[Finding] = []
    # The exact sums that comparisons subtract, so a warning names the
    # rest publications that a comparison divides by.
    scale, pubs = c._scale, c._exact_total[1][-1]

    findings.append(
        Finding(
            "info",
            "alignment",
            f"{len(c.constituents)} constituents aligned on window "
            f"{c.total.first_year}-{c.total.last_year}",
        )
    )

    if assert_partition:
        residual = _first_excess(c._parts, c.total)
        if residual is not None:
            message = f"partition residual: total exceeds the constituents' sum at {residual}"
            findings.append(Finding("error", "partition", message))

    for actor_id, (cumulative, _) in c._exact.items():
        actor_pubs = cumulative[-1]
        share = actor_pubs / pubs if pubs else 1.0
        if share > DEFAULT_DOMINANCE_SHARE:
            findings.append(
                Finding(
                    "warning",
                    "dominance",
                    f"constituent {actor_id!r} holds {share:.0%} of all publications; "
                    "comparisons against the rest are not meaningful",
                )
            )
        # A rest past the largest float is far from small.
        rest_pubs = min(pubs - actor_pubs, _LARGEST_FLOAT * scale) / scale
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


def _read_referenced(path: Path, label: str) -> PCMatrix:
    """The matrix at ``path``; any error reading or parsing it becomes a
    :class:`ManifestError` that names the file and keeps the position in it."""
    try:
        return ingest.read_matrix_file(path, label=label).matrix
    except OSError as exc:
        raise ManifestError(f"{path}: {exc}") from exc
    except RhythmError as exc:
        error = ManifestError(f"{path}: {exc}")
        error.line, error.column = exc.line, exc.column
        raise error from exc


def build_collective(manifest: ingest.CollectiveManifest) -> Collective:
    """Load every referenced matrix and assemble the collective without
    :func:`validate_collective`. The constituents must still share the total's
    window and fit inside it; where they do not, the :class:`AlignmentError`
    or :class:`SubsetError` becomes a :class:`ManifestError` that names the
    manifest."""
    constituents = {
        a.actor_id: _read_referenced(a.path, a.label) for a in manifest.actors
    }
    total = None
    if manifest.total_path is not None:
        total = _read_referenced(manifest.total_path, manifest.label)
    try:
        return Collective(manifest.label, constituents, total)
    except RhythmError as exc:
        raise ManifestError(f"{manifest.path}: {exc}") from exc


def load_manifest(path: str | Path) -> Collective:
    """Parse a manifest, load its matrices, validate, and return the
    collective. Error-severity findings raise; warnings do not."""
    manifest = ingest.parse_manifest(path)
    c = build_collective(manifest)
    report = validate_collective(c, assert_partition=manifest.assert_partition)
    if not report.ok:
        problems = "; ".join(f.message for f in report.errors)
        raise ManifestError(f"manifest {path} failed validation: {problems}")
    return c
