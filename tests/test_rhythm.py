import random
from fractions import Fraction

import pytest

from citerhythm import (
    AlignmentError,
    CkProfile,
    DomainError,
    PCMatrix,
    RhythmPoint,
    WindowError,
    actor_vs_actor,
    actor_vs_collective,
    brute_force_rhythm,
    ck_profile,
    corpus_from_matrix,
    cross_rhythm,
    fixture_path,
    internal_rhythm,
    parse_matrix,
    sliding_windows,
    summary_i2_lenient,
)
from citerhythm.cli import main
from helpers import random_matrix, rel_err, scale_cites, scale_pubs


def toy3() -> PCMatrix:
    return PCMatrix(
        first_year=2000,
        pubs=(2.0, 1.0, 4.0),
        cites=((1.0, 2.0, 3.0), (0.0, 5.0), (2.0,)),
        label="toy",
    )


class TestExpectedCitations:
    def test_china_against_own_profile(self, china):
        e = cross_rhythm(china, ck_profile(china)).points[0].expected
        assert e == pytest.approx(2415.864, abs=0.05)

    def test_china_against_world_profile(self, china, scim_minus_china):
        e = cross_rhythm(china, ck_profile(scim_minus_china)).points[0].expected
        assert e == pytest.approx(2730.114, abs=0.05)

    def test_zero_publications_mean_zero_expected(self):
        m = PCMatrix(first_year=2000, pubs=(0.0, 5.0), cites=((0.0, 0.0), (7.0,)))
        assert cross_rhythm(m, ck_profile(m)).points[0].expected == 0.0

    def test_profile_length_must_match(self, china):
        short = ck_profile(PCMatrix(first_year=2015, pubs=(1.0,), cites=((1.0,),)))
        with pytest.raises(AlignmentError):
            cross_rhythm(china, short)


class TestInternalRhythm:
    def test_china_matches_published_sequence(self, china, golden):
        seq = internal_rhythm(china)
        printed = golden["internal"]["china"]
        assert list(seq.ratios) == pytest.approx(printed["ratio"], abs=0.002)
        assert [p.expected for p in seq.points] == pytest.approx(
            printed["expected"], abs=0.001
        )
        assert seq.i2 == pytest.approx(printed["i2"], abs=0.002)
        assert seq.i1 == pytest.approx(1.0, rel=1e-9)

    def test_netherlands_peak_year(self, netherlands, golden):
        seq = internal_rhythm(netherlands)
        ratios = dict(zip(seq.years, seq.ratios))
        assert ratios[2017] == pytest.approx(2.406, abs=0.002)
        assert ratios[2022] == pytest.approx(0.163, abs=0.002)
        assert seq.i2 == pytest.approx(golden["internal"]["netherlands"]["i2"], abs=0.002)

    def test_single_year_ratio_is_one(self):
        m = PCMatrix(first_year=2020, pubs=(4.0,), cites=((6.0,),))
        seq = internal_rhythm(m)
        assert seq.points[0].ratio == 1.0
        assert seq.i1 == 1.0
        assert seq.i2 == 1.0

    def test_overflowing_row_sum_rejected(self):
        # Every cell is finite, but the first row sums past the largest float.
        m = parse_matrix("year,pubs,2020,2021\n2020,1,1e308,1e308\n2021,1,,3\n", "big")
        with pytest.raises(DomainError, match="^big: counts sum past the largest float"):
            internal_rhythm(m)

    def test_labels(self, china):
        seq = internal_rhythm(china)
        assert seq.observed_label == seq.expectation_label == china.label

    def test_holds_its_own_profile(self, china):
        assert internal_rhythm(china).profile == ck_profile(china)

    def test_point_fields_consistent(self, brazil):
        for p in internal_rhythm(brazil).points:
            assert (p.ratio is not None) == (p.expected > 0)
            if p.ratio is not None:
                assert rel_err(p.ratio, p.observed / p.expected) <= 1e-12


class TestCrossRhythm:
    def test_china_vs_rest_matches_published(self, china, scim_minus_china, golden):
        seq = cross_rhythm(china, scim_minus_china)
        printed = golden["external"]["china"]
        assert list(seq.ratios) == pytest.approx(printed["ratio"], abs=0.002)
        assert [p.expected for p in seq.points] == pytest.approx(
            printed["expected"], abs=0.001
        )
        assert seq.i1 == pytest.approx(printed["i1"], abs=0.0005)
        assert seq.i2 == pytest.approx(printed["i2"], abs=0.0005)
        assert seq.expected_total == pytest.approx(printed["expected_sum"], abs=0.05)

    def test_netherlands_vs_rest_minus_pair(
        self, netherlands, scim_minus_brazil_netherlands, golden
    ):
        seq = cross_rhythm(netherlands, scim_minus_brazil_netherlands)
        printed = golden["external"]["netherlands"]
        ratios = dict(zip(seq.years, seq.ratios))
        assert ratios[2017] == pytest.approx(6.311, abs=0.002)
        assert seq.i1 == pytest.approx(printed["i1"], abs=0.002)
        assert seq.i2 == pytest.approx(printed["i2"], abs=0.002)

    def test_same_matrix_reduces_to_internal(self, china, brazil):
        rng = random.Random(21)
        cases = [china, brazil] + [random_matrix(rng) for _ in range(20)]
        for m in cases:
            internal = internal_rhythm(m)
            cross = cross_rhythm(m, m)
            for pi, pc in zip(internal.points, cross.points):
                assert pc.observed == pi.observed
                assert rel_err(pc.expected, pi.expected) <= 1e-12
                assert rel_err(pc.ratio, pi.ratio) <= 1e-12

    def test_window_mismatch_rejected(self, china, brazil):
        shifted = PCMatrix(first_year=1990, pubs=brazil.pubs, cites=brazil.cites)
        with pytest.raises(AlignmentError):
            cross_rhythm(china, shifted)


class TestOverflowingResults:
    """Finite sums can still give expected values, ratios or summaries past
    the largest float; every rhythm rejects them instead of returning inf."""

    def test_expected_sum_rejected(self):
        # Sums are finite, but the per-age averages are (1e308, 1e308), so
        # their running sum, and the first year's expected value, is inf.
        m = PCMatrix(2000, (0.5, 0.5), ((1e308, 5e307), (0.0,)), "big")
        with pytest.raises(DomainError, match="^big: expected citations sum past"):
            internal_rhythm(m)

    def test_cross_expected_sum_rejected(self):
        # Another matrix's averages times this matrix's publications.
        m = PCMatrix(2000, (1e300, 1e300), ((0.0, 0.0), (0.0,)), "obs")
        profile = CkProfile((1e10, 0.0), "p")
        with pytest.raises(DomainError, match="^obs: expected citations sum past"):
            cross_rhythm(m, profile)

    def test_ratio_rejected(self):
        # A subnormal publication count gives a tiny expected value under
        # a large observed one; the last year has no expected value, so I2
        # is undefined and I1 is 1.0, and only the ratio itself overflows.
        m = PCMatrix(2000, (1.0, 5e-324, 0.0), ((0.0,) * 3, (1e300, 0.0), (0.0,)), "tiny")
        with pytest.raises(DomainError, match="^tiny: observed-to-expected ratios pass"):
            internal_rhythm(m)

    def test_ratio_sum_rejected(self):
        # Both ratios are 1.6e308; only their sum, behind I2, overflows.
        m = PCMatrix(2000, (1.0, 2.0), ((8e307, 0.0), (8e307,)), "obs")
        with pytest.raises(DomainError, match="^obs: observed-to-expected ratios pass"):
            cross_rhythm(m, CkProfile((0.25, 0.25), "p"))


class TestSummaries:
    def test_internal_i1_is_one(self, china, brazil, netherlands):
        for m in (china, brazil, netherlands):
            assert internal_rhythm(m).i1 == pytest.approx(1.0, rel=1e-9)

    def test_brazil_external_i1(self, brazil, scim_minus_brazil_netherlands):
        seq = cross_rhythm(brazil, scim_minus_brazil_netherlands)
        assert seq.i1 == pytest.approx(0.856, abs=0.002)

    def test_i1_absent_without_expectations(self):
        m = PCMatrix(first_year=2000, pubs=(3.0, 2.0), cites=((0.0, 0.0), (0.0,)))
        seq = internal_rhythm(m)
        assert seq.i1 is None
        assert seq.undefined_years == (2000, 2001)

    def test_brazil_internal_i2(self, brazil):
        assert internal_rhythm(brazil).i2 == pytest.approx(1.092, abs=0.002)

    def test_scim_minus_pair_internal_i2(self, scim_minus_brazil_netherlands):
        seq = internal_rhythm(scim_minus_brazil_netherlands)
        assert seq.i2 == pytest.approx(1.058, abs=0.002)

    def test_all_ones_average_exactly_one(self):
        m = PCMatrix(first_year=2020, pubs=(4.0,), cites=((6.0,),))
        assert internal_rhythm(m).i2 == 1.0

    def test_strict_i2_absent_with_undefined_year(self):
        m = PCMatrix(
            first_year=2000,
            pubs=(5.0, 0.0, 3.0),
            cites=((2.0, 1.0, 1.0), (0.0, 0.0), (4.0,)),
        )
        seq = internal_rhythm(m)
        assert seq.i2 is None
        assert seq.undefined_years == (2001,)
        mean, count = summary_i2_lenient(seq)
        assert count == 2
        defined = [r for r in seq.ratios if r is not None]
        assert mean == pytest.approx(sum(defined) / 2, rel=1e-12)

    def test_lenient_i2_absent_when_nothing_defined(self):
        m = PCMatrix(first_year=2000, pubs=(3.0,), cites=((0.0,),))
        assert summary_i2_lenient(internal_rhythm(m)) is None


class TestSlidingWindows:
    def test_full_width_equals_whole_matrix(self, china):
        series = sliding_windows(china, china.n)
        assert len(series.entries) == 1
        start, seq = series.entries[0]
        full = internal_rhythm(china)
        assert start == china.first_year
        assert seq.ratios == full.ratios
        assert seq.i1 == full.i1
        assert seq.i2 == full.i2

    def test_china_width_five(self, china):
        series = sliding_windows(china, 5)
        assert [start for start, _ in series.entries] == list(range(2015, 2021))
        for _, seq in series.entries:
            assert len(seq.points) == 5
            assert seq.i1 == pytest.approx(1.0, rel=1e-9)

    def test_toy_hand_computation(self):
        # Width-2 windows of the 3-year toy matrix, worked out by hand with
        # exact fractions.
        series = sliding_windows(toy3(), 2)
        assert len(series.entries) == 2

        start1, seq1 = series.entries[0]
        assert start1 == 2000
        assert seq1.ratios[0] == pytest.approx(float(Fraction(9, 8)), rel=1e-12)
        assert seq1.ratios[1] == 0.0
        assert seq1.i1 == pytest.approx(1.0, rel=1e-12)
        assert seq1.i2 == pytest.approx(float(Fraction(9, 16)), rel=1e-12)

        start2, seq2 = series.entries[1]
        assert start2 == 2001
        assert seq2.ratios[0] == pytest.approx(float(Fraction(25, 27)), rel=1e-12)
        assert seq2.ratios[1] == pytest.approx(1.25, rel=1e-12)
        assert seq2.i1 == pytest.approx(1.0, rel=1e-12)
        assert seq2.i2 == pytest.approx(float(Fraction(25, 27) + Fraction(5, 4)) / 2, rel=1e-12)

    def test_internal_mode_matches_manual_extraction(self, brazil):
        series = sliding_windows(brazil, 4)
        for start, seq in series.entries:
            manual = internal_rhythm(brazil.window(start, 4))
            assert seq.ratios == manual.ratios

    def test_width_out_of_range(self, china):
        with pytest.raises(WindowError):
            sliding_windows(china, 0)
        with pytest.raises(WindowError):
            sliding_windows(china, china.n + 1)


class TestScaleProperties:
    @pytest.mark.parametrize("factor", [0.25, 2.0, 3.7])
    def test_internal_invariant_under_citation_scale(self, factor):
        rng = random.Random(31)
        for _ in range(20):
            m = random_matrix(rng, n=rng.randint(1, 12))
            base = internal_rhythm(m)
            scaled = internal_rhythm(scale_cites(m, factor))
            for pb, ps in zip(base.points, scaled.points):
                if pb.ratio is None:
                    assert ps.ratio is None
                else:
                    assert rel_err(ps.ratio, pb.ratio) <= 1e-9

    @pytest.mark.parametrize("factor", [0.25, 2.0, 3.7])
    def test_internal_invariant_under_publication_scale(self, factor):
        rng = random.Random(32)
        for _ in range(20):
            m = random_matrix(rng, n=rng.randint(1, 12))
            base = internal_rhythm(m)
            scaled = internal_rhythm(scale_pubs(m, factor))
            for pb, ps in zip(base.points, scaled.points):
                assert rel_err(ps.ratio, pb.ratio) <= 1e-9

    @pytest.mark.parametrize("factor", [0.5, 3.0])
    def test_external_linear_in_observed_citations(self, factor):
        rng = random.Random(33)
        for _ in range(20):
            n = rng.randint(1, 10)
            b = random_matrix(rng, n=n)
            a = random_matrix(rng, n=n)
            base = cross_rhythm(b, a)
            scaled = cross_rhythm(scale_cites(b, factor), a)
            for pb, ps in zip(base.points, scaled.points):
                if pb.ratio is None:
                    assert ps.ratio is None
                else:
                    assert rel_err(ps.ratio, pb.ratio * factor) <= 1e-9
            if base.i1 is not None:
                assert rel_err(scaled.i1, base.i1 * factor) <= 1e-9

    def test_monotone_in_observed_citations(self):
        rng = random.Random(34)
        for _ in range(20):
            n = rng.randint(1, 10)
            small = random_matrix(rng, n=n)
            a = random_matrix(rng, n=n)
            bumped = PCMatrix(
                first_year=small.first_year,
                pubs=small.pubs,
                cites=tuple(
                    tuple(c + rng.randint(0, 5) for c in row) for row in small.cites
                ),
            )
            lo = cross_rhythm(small, a)
            hi = cross_rhythm(bumped, a)
            for pl, ph in zip(lo.points, hi.points):
                if pl.ratio is not None:
                    assert ph.ratio >= pl.ratio - 1e-12


# Each source of a RhythmSequence, given the SCIM collective.
SEQUENCES = {
    "internal": lambda c: internal_rhythm(c.actor("china")),
    "window": lambda c: sliding_windows(c.actor("china"), 5).entries[2][1],
    "undefined year": lambda c: internal_rhythm(
        PCMatrix(2000, (5.0, 0.0, 3.0), ((2.0, 1.0, 1.0), (0.0, 0.0), (4.0,)))
    ),
    "cross": lambda c: cross_rhythm(c.actor("brazil"), c.total),
    "actor vs collective": lambda c: actor_vs_collective(c, "china"),
    "actor vs actor": lambda c: actor_vs_actor(c, "brazil", "netherlands").sequences["brazil"],
    "brute force": lambda c: brute_force_rhythm(
        corpus_from_matrix(c.actor("china")), corpus_from_matrix(c.total)
    ),
}


@pytest.fixture
def points_built(monkeypatch):
    """Every RhythmPoint constructed while the fixture is active."""
    built = []
    init = RhythmPoint.__init__

    def counting_init(self, *args, **kwargs):
        built.append(args or kwargs)
        init(self, *args, **kwargs)

    monkeypatch.setattr(RhythmPoint, "__init__", counting_init)
    return built


class TestColumns:
    @pytest.mark.parametrize("source", SEQUENCES)
    def test_points_zip_the_columns(self, scim, source):
        seq = SEQUENCES[source](scim)
        assert len(seq.years) == len(seq.observed) == len(seq.expected) == len(seq.ratios) > 0
        assert seq.points == tuple(map(RhythmPoint, seq.years, seq.observed, seq.expected,
                                       seq.ratios))
        assert seq.observed_total == sum(p.observed for p in seq.points)
        assert seq.expected_total == sum(p.expected for p in seq.points)

    def test_rhythms_build_no_points(self, scim, points_built):
        china = scim.actor("china")
        summary_i2_lenient(internal_rhythm(china))
        sliding_windows(china, 5)
        cross_rhythm(scim.actor("brazil"), scim.total)
        actor_vs_collective(scim, "china")
        assert points_built == []
        assert len(internal_rhythm(china).points) == len(points_built) == china.n

    @pytest.mark.parametrize(
        "argv",
        [
            ["internal", "china.csv"],
            ["windows", "china.csv", "--width", "5"],
            ["external", "scim.manifest", "--actor", "china"],
            ["external", "scim.manifest", "--actor", "china", "--format", "csv"],
            ["external", "scim.manifest", "--actor", "china", "--format", "svg"],
            ["validate", "scim.manifest"],
            ["oracle-check", "scim.manifest", "--trials", "5"],
        ],
        ids=" ".join,
    )
    def test_commands_build_no_points(self, capsys, points_built, argv):
        argv = [argv[0], str(fixture_path(argv[1])), *argv[2:]]
        assert main(argv) == 0
        assert capsys.readouterr().err == ""
        assert points_built == []
