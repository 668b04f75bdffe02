import itertools
import math
import random
import statistics
from collections import defaultdict

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from citerhythm import (
    AlignmentError,
    CitationEvent,
    Collective,
    CorpusSpec,
    DataConsistencyError,
    DomainError,
    EventCorpus,
    PCMatrix,
    actor_vs_actor,
    actor_vs_collective,
    aggregate,
    brute_force_rhythm,
    corpus_from_matrix,
    cross_rhythm,
    default_age_curve,
    generate,
    internal_rhythm,
    max_relative_difference,
    validate_collective,
)
from citerhythm.oracle import _poisson, rest_corpus
from helpers import zero


def spec_for(n, magnet_share=0.0, lo=1, hi=8):
    return CorpusSpec(
        n=n, pubs_range=(lo, hi), age_curve=default_age_curve(n), magnet_share=magnet_share
    )


class TestEvents:
    def test_citing_before_publication_rejected(self):
        with pytest.raises(DomainError):
            CitationEvent(2020, 2019)

    @pytest.mark.parametrize("w", [0.0, -1.0, float("nan")])
    def test_bad_weights_rejected(self, w):
        with pytest.raises(DomainError):
            CitationEvent(2020, 2020, weight=w)

    def test_corpus_window_enforced(self):
        with pytest.raises(DomainError):
            EventCorpus(2020, (1.0, 1.0), (CitationEvent(2019, 2020),))
        with pytest.raises(DomainError):
            EventCorpus(2020, (1.0, 1.0), (CitationEvent(2021, 2022),))


class TestAggregate:
    def test_counts_repeated_events(self):
        corpus = EventCorpus(
            2015, (3.0,), tuple(CitationEvent(2015, 2015) for _ in range(3))
        )
        m = aggregate(corpus)
        assert m.cites == ((3.0,),)
        assert m.pubs == (3.0,)

    def test_empty_event_list(self):
        corpus = EventCorpus(2000, (2.0, 5.0), ())
        assert aggregate(corpus) == PCMatrix(
            first_year=2000, pubs=(2.0, 5.0), cites=((0.0, 0.0), (0.0,))
        )

    def test_column_sums_match_independent_tally(self):
        corpus = generate(7, spec_for(6))
        m = aggregate(corpus)
        by_citing_year = defaultdict(float)
        for ev in corpus.events:
            by_citing_year[ev.citing_year] += ev.weight
        for j, year in enumerate(m.years):
            column = sum(m.cites[t][j - t] for t in range(j + 1))
            assert column == pytest.approx(by_citing_year[year], rel=1e-12, abs=1e-12)

    def test_total_weight_conserved_integer(self):
        corpus = generate(8, spec_for(5))
        assert sum(aggregate(corpus).sums.rows) == sum(ev.weight for ev in corpus.events)

    def test_total_weight_conserved_fractional(self):
        events = tuple(
            CitationEvent(2000, 2000 + i % 2, weight=0.1 + 0.01 * i) for i in range(20)
        )
        corpus = EventCorpus(2000, (1.5, 2.5), events)
        total = sum(aggregate(corpus).sums.rows)
        assert total == pytest.approx(sum(ev.weight for ev in events), rel=1e-9)

    def test_matrix_corpus_roundtrip(self, china):
        assert aggregate(corpus_from_matrix(china)) == china


class TestBruteForce:
    def test_china_internal_matches_published(self, china, golden):
        seq = brute_force_rhythm(corpus_from_matrix(china))
        printed = golden["internal"]["china"]
        assert list(seq.ratios) == pytest.approx(printed["ratio"], abs=0.002)
        assert seq.i2 == pytest.approx(printed["i2"], abs=0.002)

    def test_internal_sum_ratio_is_one(self):
        for seed in range(10):
            corpus = generate(seed, spec_for(1 + seed % 7))
            seq = brute_force_rhythm(corpus)
            if seq.i1 is not None:
                assert seq.i1 == pytest.approx(1.0, rel=1e-9)

    def test_agrees_with_main_path(self):
        for seed in range(15):
            n = 1 + seed % 9
            b = generate(100 + 2 * seed, spec_for(n, magnet_share=0.1))
            a = generate(101 + 2 * seed, spec_for(n))
            assert (
                max_relative_difference(
                    internal_rhythm(aggregate(b)), brute_force_rhythm(b)
                )
                <= 1e-9
            )
            assert (
                max_relative_difference(
                    cross_rhythm(aggregate(b), aggregate(a)), brute_force_rhythm(b, a)
                )
                <= 1e-9
            )

    def test_citations_at_an_age_without_publications_rejected(self):
        corpus = EventCorpus(2000, (0.0, 1.0), (CitationEvent(2000, 2001),))
        with pytest.raises(DataConsistencyError, match="age 2: 1.0 citations"):
            brute_force_rhythm(corpus)

    def test_window_mismatch_rejected(self):
        from citerhythm import AlignmentError

        b = EventCorpus(2000, (1.0,), ())
        a = EventCorpus(2001, (1.0,), ())
        with pytest.raises(AlignmentError):
            brute_force_rhythm(b, a)


def seeded_collective(seed: int, k: int = 5, n: int = 8) -> Collective:
    """``k`` generated actors plus one unnamed generated remainder; the
    total is tallied from all of their events."""
    corpora = [
        generate(seed * 1000 + i, spec_for(n, magnet_share=0.1, lo=0 if i % 2 else 1))
        for i in range(k + 1)
    ]
    pubs = tuple(sum(weights) for weights in zip(*(c.pub_weights for c in corpora)))
    events = tuple(ev for c in corpora for ev in c.events)
    total = aggregate(EventCorpus(2000, pubs, events, label="total"))
    actors = {f"a{i}": aggregate(c) for i, c in enumerate(corpora[:k])}
    return Collective("synthetic", actors, total=total)


@st.composite
def fractional_splits(draw, max_n=8):
    """An integer total split among K = 3..5 actors by per-year integer
    weights 1..100: each actor gets its weight's share of a publication
    year's publications and of that year's citations. Years without
    publications have no citations."""
    n = draw(st.integers(1, max_n))
    k = draw(st.integers(3, 5))
    pubs = draw(st.lists(st.integers(0, 40), min_size=n, max_size=n))
    cites = [
        draw(st.lists(st.integers(0, 25 if pubs[t] else 0), min_size=n - t, max_size=n - t))
        for t in range(n)
    ]
    weights = draw(
        st.lists(st.lists(st.integers(1, 100), min_size=n, max_size=n), min_size=k, max_size=k)
    )
    whole = [sum(column) for column in zip(*weights)]

    def share(w):
        return PCMatrix(
            2000,
            tuple(p * w[t] / whole[t] for t, p in enumerate(pubs)),
            tuple(tuple(c * w[t] / whole[t] for c in row) for t, row in enumerate(cites)),
        )

    total = PCMatrix(2000, tuple(pubs), tuple(map(tuple, cites)), "T")
    actors = {f"a{i}": share(w) for i, w in enumerate(weights)}
    return Collective(label="Z", total=total, constituents=actors)


class TestComparisonsMatchBruteForce:
    """The comparisons of the matrix path against the event-level oracle,
    with the rest of the collective subtracted by the oracle itself."""

    def assert_match(self, c: Collective) -> None:
        for u in c.actor_ids:
            brute = brute_force_rhythm(
                corpus_from_matrix(c.actor(u)), rest_corpus(c.total, [c.actor(u)])
            )
            assert max_relative_difference(actor_vs_collective(c, u), brute) <= 1e-9
        for u, v in itertools.combinations(c.actor_ids, 2):
            result = actor_vs_actor(c, u, v)
            rest = rest_corpus(c.total, [c.actor(u), c.actor(v)])
            for actor in (u, v):
                brute = brute_force_rhythm(corpus_from_matrix(c.actor(actor)), rest)
                assert max_relative_difference(result.sequences[actor], brute) <= 1e-9

    def test_every_scim_pair(self, scim):
        self.assert_match(scim)

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_every_pair_of_a_generated_collective(self, seed):
        self.assert_match(seeded_collective(seed))

    @settings(deadline=None)
    @given(fractional_splits())
    def test_every_pair_of_a_fractional_split(self, c):
        assert validate_collective(c, assert_partition=True).ok
        self.assert_match(c)

    def test_rest_corpus_subtracts_cell_by_cell(self):
        total = PCMatrix(2000, (3.0, 2.0), ((4.0, 1.0), (5.0,)))
        part = PCMatrix(2000, (1.0, 2.0), ((4.0, 0.5), (1.0,)))
        rest = rest_corpus(total, [part])
        assert rest.pub_weights == (2.0, 0.0)
        assert rest.events == (CitationEvent(2000, 2001, 0.5), CitationEvent(2001, 2001, 4.0))

    def test_pair_holding_the_whole_collective(self):
        # Removing 0.1 and then 0.2 from 0.1 + 0.2, or from the next float
        # up, leaves a rounding rest on either side of 0: no weight at all.
        total = PCMatrix(2000, (0.1 + 0.2,), ((math.nextafter(0.1 + 0.2, 1),),), "T")
        a = PCMatrix(2000, (0.1,), ((0.1,),), "A")
        b = PCMatrix(2000, (0.2,), ((0.2,),), "B")
        rest = rest_corpus(total, [a, b])
        assert (rest.pub_weights, rest.events) == ((0.0,), ())
        self.assert_match(Collective(label="C", total=total, constituents={"a": a, "b": b}))

    @pytest.mark.parametrize("e", [41, 52])
    def test_whole_rest_beside_a_large_actor(self, e):
        # Whole counts below 2**53 subtract exactly, as in the matrix path.
        total = PCMatrix(2000, (2.0**e + 3,), ((6.0,),), "T")
        a = PCMatrix(2000, (2.0**e,), ((0.0,),), "A")
        b = PCMatrix(2000, (1.0,), ((0.0,),), "B")
        rest = rest_corpus(total, [a, b])
        assert (rest.pub_weights, rest.events) == ((2.0,), (CitationEvent(2000, 2000, 6.0),))
        self.assert_match(Collective(label="C", total=total, constituents={"a": a, "b": b}))

    def test_rest_corpus_rejects_a_part_outside_the_total(self, china, scim_total):
        with pytest.raises(DomainError):
            rest_corpus(china, [scim_total])
        with pytest.raises(AlignmentError):
            rest_corpus(china, [zero(2015, 9)])


class TestGenerate:
    def test_same_seed_same_corpus(self):
        spec = spec_for(8, magnet_share=0.2)
        assert generate(1, spec) == generate(1, spec)

    def test_different_seeds_differ(self):
        spec = spec_for(8)
        assert generate(1, spec) != generate(2, spec)

    def test_zero_curve_means_zero_citations(self):
        spec = CorpusSpec(n=4, pubs_range=(1, 5), age_curve=(0.0,) * 4)
        m = aggregate(generate(3, spec))
        assert sum(m.sums.rows) == 0.0

    @pytest.mark.parametrize("lam,seed", [(0.3, 1), (4.0, 2), (50.0, 3), (2000.0, 4)])
    def test_poisson_mean_and_variance(self, lam, seed):
        # 2000 spans four chunks of the multiplication method.
        rng = random.Random(seed)
        size = 1000
        draws = [_poisson(rng, lam) for _ in range(size)]
        # Poisson: mean = variance = lam; the sample variance's variance is
        # about (lam + 2 lam^2) / size.
        assert abs(statistics.fmean(draws) - lam) <= 5 * math.sqrt(lam / size)
        assert abs(statistics.variance(draws) - lam) <= 5 * math.sqrt(
            (lam + 2 * lam**2) / size
        )

    def test_generated_matrix_is_valid(self):
        spec = CorpusSpec(n=10, pubs_range=(5, 50), age_curve=default_age_curve(10))
        corpus = generate(42, spec)
        m = aggregate(corpus)  # PCMatrix invariants checked on construction
        assert m.n == 10
        assert all(5 <= p <= 50 for p in m.pubs)
        assert sum(len(r) for r in m.cites) == 55

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(n=0, pubs_range=(1, 2), age_curve=(1.0,)),
            dict(n=2, pubs_range=(3, 2), age_curve=(1.0, 1.0)),
            dict(n=2, pubs_range=(-1, 2), age_curve=(1.0, 1.0)),
            dict(n=3, pubs_range=(1, 2), age_curve=(1.0, 1.0)),
            dict(n=2, pubs_range=(1, 2), age_curve=(1.0, -1.0)),
            dict(n=2, pubs_range=(1, 2), age_curve=(1.0, 1.0), magnet_share=1.5),
        ],
    )
    def test_invalid_specs_rejected(self, kwargs):
        with pytest.raises(ValueError):
            CorpusSpec(**kwargs)

    def test_default_curve_needs_a_year(self):
        with pytest.raises(ValueError):
            default_age_curve(0)

    def test_default_curve_shape(self):
        curve = default_age_curve(12)
        assert len(curve) == 12
        assert sum(curve) == pytest.approx(5.0, rel=1e-12)
        assert all(v >= 0 for v in curve)
        assert curve[1] > curve[11]  # early peak, long decay


class TestComparator:
    def test_identical_sequences_have_zero_diff(self, china):
        seq = internal_rhythm(china)
        assert max_relative_difference(seq, seq) == 0.0

    def test_presence_mismatch_is_infinite(self, china):
        a = internal_rhythm(china)
        b = internal_rhythm(zero(china.first_year, china.n))
        assert math.isinf(max_relative_difference(a, b))

    def test_different_years_are_infinitely_apart(self, china):
        a = internal_rhythm(china)
        b = internal_rhythm(PCMatrix(china.first_year + 1, china.pubs, china.cites))
        assert max_relative_difference(a, b) == math.inf
