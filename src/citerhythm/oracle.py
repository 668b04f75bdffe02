"""Event-level brute-force oracle and seeded synthetic corpus generator.

Everything here recomputes observed/expected values by direct summation
over individual citation events, sharing no arithmetic with the matrix
path, so agreement between the two is evidence rather than tautology.
"""

from __future__ import annotations

import math
import random

from .errors import AlignmentError, DataConsistencyError, DomainError
from .pcmatrix import CkProfile, PCMatrix, _Record
from .rhythm import RhythmSequence

__all__ = [
    "CitationEvent",
    "EventCorpus",
    "CorpusSpec",
    "default_age_curve",
    "aggregate",
    "corpus_from_matrix",
    "rest_corpus",
    "brute_force_rhythm",
    "generate",
    "max_relative_difference",
]


class CitationEvent(_Record):
    """One citation (or a weighted bundle of identical ones): something
    published in ``published_year`` was cited in ``citing_year``."""

    def __init__(self, published_year: int, citing_year: int, weight: float = 1.0) -> None:
        object.__setattr__(self, "published_year", published_year)
        object.__setattr__(self, "citing_year", citing_year)
        object.__setattr__(self, "weight", weight)
        self.__post_init__()

    def __post_init__(self) -> None:
        if self.citing_year < self.published_year:
            raise DomainError(
                f"citing year {self.citing_year} precedes publication year "
                f"{self.published_year}"
            )
        if not math.isfinite(self.weight) or self.weight <= 0:
            raise DomainError(f"event weight must be positive, got {self.weight!r}")


class EventCorpus(_Record):
    """Per-year publication weights plus a flat list of citation events."""

    _compared = ("first_year", "pub_weights", "events")

    def __init__(self, first_year: int, pub_weights: tuple[float, ...],
                 events: tuple[CitationEvent, ...], label: str = "") -> None:
        object.__setattr__(self, "first_year", first_year)
        object.__setattr__(self, "pub_weights", pub_weights)
        object.__setattr__(self, "events", events)
        object.__setattr__(self, "label", label)
        self.__post_init__()

    def __post_init__(self) -> None:
        for w in self.pub_weights:
            if not math.isfinite(w) or w < 0:
                raise DomainError(f"publication weight must be non-negative, got {w!r}")
        last = self.first_year + len(self.pub_weights) - 1
        for ev in self.events:
            if not self.first_year <= ev.published_year <= last:
                raise DomainError(
                    f"event published in {ev.published_year}, outside window "
                    f"{self.first_year}-{last}"
                )
            if ev.citing_year > last:
                raise DomainError(
                    f"event cited in {ev.citing_year}, outside window "
                    f"{self.first_year}-{last}"
                )

    @property
    def n(self) -> int:
        return len(self.pub_weights)


def aggregate(corpus: EventCorpus) -> PCMatrix:
    """Tally events into a p-c matrix: cell (i, j) is the weight of all
    events published in year i and cited in year j."""
    n = corpus.n
    rows = [[0.0] * (n - t) for t in range(n)]
    for ev in corpus.events:
        t = ev.published_year - corpus.first_year
        rows[t][ev.citing_year - ev.published_year] += ev.weight
    return PCMatrix(
        first_year=corpus.first_year,
        pubs=corpus.pub_weights,
        cites=tuple(tuple(r) for r in rows),
        label=corpus.label,
    )


def corpus_from_matrix(m: PCMatrix) -> EventCorpus:
    """Re-express a matrix as one weighted event per non-zero cell."""
    corpus = rest_corpus(m, [])
    return EventCorpus(corpus.first_year, corpus.pub_weights, corpus.events, m.label)


def _remainder(count: float, parts: list[float]) -> float:
    """``count`` minus each of ``parts`` in turn; 0.0 when the parts add up
    to ``count`` within 2**-40 of the larger of the two, the rounding that
    fractional shares of a count leave, whichever side it falls on. Where
    both are whole counts below 2**53, only when they are equal."""
    weight, removed = count, 0.0
    for part in parts:
        weight -= part
        removed += part
    larger = max(removed, count)
    if larger < 2.0**53 and count.is_integer() and removed.is_integer():
        same = removed == count
    else:
        same = abs(removed - count) <= 2.0**-40 * larger
    return 0.0 if same else weight


def rest_corpus(total: PCMatrix, removed: list[PCMatrix]) -> EventCorpus:
    """The total minus the removed matrices, as one weighted event per
    non-zero cell. The differences are taken cell by cell with plain loops,
    so the rest of a collective shares no arithmetic with the matrix path's
    sums. A removed matrix that does not fit inside the total, beyond that
    rounding, leaves a negative weight, which the corpus rejects with
    ``DomainError``."""
    for m in removed:
        if m.first_year != total.first_year or m.n != total.n:
            raise AlignmentError(
                f"{m.label or 'matrix'} covers {m.first_year}+{m.n}, "
                f"total covers {total.first_year}+{total.n}"
            )
    pub_weights = []
    events = []
    for t in range(total.n):
        pub_weights.append(_remainder(total.pubs[t], [m.pubs[t] for m in removed]))
        year = total.first_year + t
        for o in range(total.n - t):
            weight = _remainder(total.cites[t][o], [m.cites[t][o] for m in removed])
            if weight != 0:
                events.append(CitationEvent(year, year + o, weight=weight))
    return EventCorpus(
        first_year=total.first_year, pub_weights=tuple(pub_weights), events=tuple(events)
    )


def brute_force_rhythm(
    corpus_b: EventCorpus, corpus_a: EventCorpus | None = None
) -> RhythmSequence:
    """R-sequence computed by literal nested loops over events.

    Internal mode when ``corpus_a`` is omitted; otherwise the per-age
    averages come from ``corpus_a``. Deliberately naive and independent of
    the matrix-based implementation: it fills the sequence's year,
    observed, expected and ratio columns with loops of its own.
    """
    n = corpus_b.n
    first = corpus_b.first_year
    expectation = corpus_b if corpus_a is None else corpus_a
    if corpus_a is not None and (
        corpus_a.first_year != first or corpus_a.n != n
    ):
        raise AlignmentError(
            f"corpora cover different windows: {first}+{n} vs "
            f"{corpus_a.first_year}+{corpus_a.n}"
        )

    observed = [0.0] * n
    for ev in corpus_b.events:
        observed[ev.published_year - first] += ev.weight

    per_age_average = []
    for k in range(1, n + 1):
        cited_weight = 0.0
        for ev in expectation.events:
            if ev.citing_year - ev.published_year == k - 1:
                cited_weight += ev.weight
        paper_weight = 0.0
        for t in range(n - k + 1):
            paper_weight += expectation.pub_weights[t]
        if paper_weight == 0:
            if cited_weight > 0:
                raise DataConsistencyError(
                    f"age {k}: {cited_weight} citations but no publications"
                )
            per_age_average.append(0.0)
        else:
            per_age_average.append(cited_weight / paper_weight)

    years = []
    expected = []
    ratios = []
    undefined = []
    for t in range(n):
        cumulative = 0.0
        for k in range(n - t):
            cumulative += per_age_average[k]
        expected.append(corpus_b.pub_weights[t] * cumulative)
        ratio = observed[t] / expected[t] if expected[t] > 0 else None
        year = first + t
        if ratio is None:
            undefined.append(year)
        years.append(year)
        ratios.append(ratio)

    total_observed = 0.0
    total_expected = 0.0
    for t in range(n):
        total_observed += observed[t]
        total_expected += expected[t]
    i1 = total_observed / total_expected if total_expected > 0 else None
    i2 = None
    if not undefined:
        acc = 0.0
        for ratio in ratios:
            acc += ratio
        i2 = acc / n

    return RhythmSequence(
        years=tuple(years),
        observed=tuple(observed),
        expected=tuple(expected),
        ratios=tuple(ratios),
        observed_label=corpus_b.label,
        profile=CkProfile(tuple(per_age_average), expectation.label),
        i1=i1,
        i2=i2,
        undefined_years=tuple(undefined),
    )


def default_age_curve(n: int) -> tuple[float, ...]:
    """Rise-and-decay expected citations per paper by age (age 0 is the
    publication year), normalized to sum to 5."""
    if n < 1:
        raise ValueError("n must be >= 1")
    raw = [
        math.exp(-((math.log((a + 1) / 2.0)) ** 2) / (2 * 0.8**2)) / (a + 1)
        for a in range(n)
    ]
    scale = 5.0 / sum(raw)
    return tuple(r * scale for r in raw)


class CorpusSpec(_Record):
    """Shape of a synthetic corpus: window length, publications per year
    (inclusive integer range), expected citations per paper by age, and an
    optional share of "citation magnet" papers whose rates are inflated by
    a heavy-tailed factor."""

    def __init__(self, n: int, pubs_range: tuple[int, int], age_curve: tuple[float, ...],
                 first_year: int = 2000, magnet_share: float = 0.0) -> None:
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "pubs_range", pubs_range)
        object.__setattr__(self, "age_curve", age_curve)
        object.__setattr__(self, "first_year", first_year)
        object.__setattr__(self, "magnet_share", magnet_share)
        self.__post_init__()

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("n must be >= 1")
        lo, hi = self.pubs_range
        if lo < 0 or hi < lo:
            raise ValueError(f"degenerate publications range {self.pubs_range}")
        if len(self.age_curve) < self.n:
            raise ValueError(
                f"age curve has {len(self.age_curve)} entries, needs >= {self.n}"
            )
        if any(v < 0 for v in self.age_curve):
            raise ValueError("age curve must be non-negative")
        if not 0.0 <= self.magnet_share <= 1.0:
            raise ValueError("magnet_share must be within [0, 1]")


_POISSON_CHUNK = 500.0


def _poisson(rng: random.Random, lam: float) -> int:
    """Exact Poisson draw with mean ``lam`` by the multiplication method.

    A sum of independent Poisson draws is Poisson with the summed mean, so
    the mean is split into equal chunks of at most ``_POISSON_CHUNK``:
    ``exp(-lam)`` underflows past ~745, and magnet rates reach thousands.
    """
    count = 0
    chunks = math.ceil(lam / _POISSON_CHUNK)
    if chunks:
        limit = math.exp(-lam / chunks)
        for _ in range(chunks):
            product = rng.random()
            while product > limit:
                count += 1
                product *= rng.random()
    return count


def generate(seed: int, spec: CorpusSpec) -> EventCorpus:
    """Deterministic synthetic corpus: same seed, same corpus.

    Each paper draws a Poisson citation count per remaining age from the
    curve; magnet papers multiply their rates by 10x a Pareto factor, which
    reproduces how a single extremely highly cited paper can bend a whole
    R-sequence.
    """
    rng = random.Random(seed)
    lo, hi = spec.pubs_range
    pub_counts = [rng.randint(lo, hi) for _ in range(spec.n)]
    events = []
    for t, papers in enumerate(pub_counts):
        year = spec.first_year + t
        rates = spec.age_curve[: spec.n - t]
        for _ in range(papers):
            factor = 1.0
            if spec.magnet_share > 0 and rng.random() < spec.magnet_share:
                factor = 10.0 * rng.paretovariate(1.5)
            for age, rate in enumerate(rates):
                count = _poisson(rng, rate * factor)
                if count > 0:
                    events.append(
                        CitationEvent(year, year + age, weight=float(count))
                    )
    return EventCorpus(
        first_year=spec.first_year,
        pub_weights=tuple(float(c) for c in pub_counts),
        events=tuple(events),
        label=f"synthetic(seed={seed})",
    )


def _rel_diff(a: float | None, b: float | None) -> float:
    if a is None and b is None:
        return 0.0
    if a is None or b is None:
        return math.inf
    return abs(a - b) / max(abs(a), abs(b), 1e-300)


def max_relative_difference(a: RhythmSequence, b: RhythmSequence) -> float:
    """Worst relative disagreement between two sequences over every defined
    ratio plus both summary indicators; infinite when one side defines a
    value the other does not."""
    if a.years != b.years:
        return math.inf
    worst = max(_rel_diff(a.i1, b.i1), _rel_diff(a.i2, b.i2))
    for ra, rb in zip(a.ratios, b.ratios):
        worst = max(worst, _rel_diff(ra, rb))
    return worst
