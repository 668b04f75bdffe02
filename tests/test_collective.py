import math
import random
from fractions import Fraction
from itertools import chain, islice

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from citerhythm import (
    AlignmentError,
    CkProfile,
    Collective,
    ComparisonResult,
    DataConsistencyError,
    DomainError,
    PCMatrix,
    RhythmError,
    SubsetError,
    UnknownActorError,
    actor_vs_actor,
    actor_vs_collective,
    add,
    ck_profile,
    complement,
    cross_rhythm,
    fixture_path,
    load_manifest,
    rest_corpus,
    subtract,
    validate_collective,
)
from citerhythm import collective
from citerhythm.pcmatrix import _same, _sum_of
from helpers import random_matrix, scale_cites, scale_pubs, zero


def small(label="m", first_year=2000, pubs=(4.0, 2.0), cites=((3.0, 5.0), (2.0,))):
    return PCMatrix(first_year=first_year, pubs=pubs, cites=cites, label=label)


class TestBuild:
    def test_reconstructs_total_from_constituents(self, china, scim_minus_china):
        c = Collective("SCIM", {"china": china, "rest": scim_minus_china})
        assert c.total == add(china, scim_minus_china)
        assert c.total.label == "SCIM"

    def test_requires_constituents(self):
        with pytest.raises(ValueError):
            Collective("empty", {})
        total = PCMatrix(2000, (1.0,), ((1.0,),), "T")
        with pytest.raises(ValueError, match="^a collective needs at least one constituent$"):
            Collective(label="C", total=total, constituents={})

    def test_constituents_are_read_only(self, china):
        c = load_manifest(fixture_path("scim.manifest"))
        with pytest.raises(TypeError):
            c.constituents["china"] = scale_pubs(scale_cites(china, 1.1), 1.1)
        assert c.actor("china") == china
        assert (
            actor_vs_collective(c, "china").ratios
            == cross_rhythm(china, complement(c, {"china"})).ratios
        )

    def test_copies_the_mapping_passed_in(self, china, scim_minus_china):
        parts = {"china": china}
        c = Collective(label="C", total=add(china, scim_minus_china), constituents=parts)
        parts["china"] = scim_minus_china
        parts["rest"] = scim_minus_china
        assert c.actor_ids == ("china",)
        assert c.actor("china") is china

    def test_rejects_misaligned_constituent(self, china):
        shifted = PCMatrix(first_year=2016, pubs=china.pubs, cites=china.cites)
        with pytest.raises(AlignmentError):
            Collective("x", {"a": china, "b": shifted})

    def test_actor_lookup(self, scim):
        assert scim.actor("china").label == "China"
        with pytest.raises(UnknownActorError) as err:
            scim.actor("moon")
        assert "china" in str(err.value)


class TestComplement:
    def test_single_actor_matches_published_rest(self, scim, scim_minus_china):
        assert complement(scim, {"china"}) == scim_minus_china

    def test_pair_matches_published_rest(self, scim, scim_minus_brazil_netherlands):
        rest = complement(scim, {"brazil", "netherlands"})
        assert rest == scim_minus_brazil_netherlands
        assert rest.label == "SCIM \\ {brazil, netherlands}"

    def test_whole_collective_leaves_zero(self):
        m = small()
        c = Collective("solo", {"all": m}, total=m)
        assert complement(c, {"all"}) == zero(m.first_year, m.n)

    def test_unknown_or_empty(self, scim):
        with pytest.raises(UnknownActorError):
            complement(scim, {"mars"})
        with pytest.raises(ValueError):
            complement(scim, set())

    def test_composes(self, scim, brazil, netherlands):
        left = complement(scim, {"brazil", "netherlands"})
        right = subtract(subtract(scim.total, brazil), netherlands)
        assert left == right
        via_single = subtract(complement(scim, {"brazil"}), netherlands)
        assert left == via_single

    def test_adds_back_to_total(self, scim, china):
        assert add(complement(scim, {"china"}), china) == scim.total

    @pytest.mark.parametrize("e", [40, 41, 52])
    def test_whole_rest_beside_a_large_actor(self, e):
        # Whole counts below 2**53 subtract exactly, however large.
        c = beside_a_large_actor(e)
        rest = complement(c, {"a", "b"})
        assert rest.pubs == (2.0, 0.0)
        assert ck_profile(rest) == collective._rest_profile(c, {"a", "b"})
        assert ck_profile(rest).values == (0.0, 3.0)
        assert_matches_complements(c)

    @pytest.mark.parametrize("e", [53, 60])
    def test_whole_rest_past_2_53_is_lost_by_complement(self, e):
        # A known limit: 2**e + 3 does not fit in a float, so the total and
        # the complement's cells lose the rest's publications. Comparisons
        # subtract exact ints and keep them.
        c = beside_a_large_actor(e)
        rest = complement(c, {"a", "b"})
        assert rest.pubs == (0.0, 0.0)
        with pytest.raises(DataConsistencyError, match="age 2 has 6.0 citations"):
            ck_profile(rest)
        assert collective._rest_profile(c, {"a", "b"}).values == (0.0, 3.0)


def beside_a_large_actor(e):
    """A collective whose rest without ``a`` and ``b`` is 2 papers of 2001,
    cited 6 times in 2002, beside ``a``'s 2**e papers of 2001."""
    return Collective("C", {
        "a": PCMatrix(2001, (2.0**e, 1.0), ((0.0, 0.0), (0.0,))),
        "b": PCMatrix(2001, (1.0, 1.0), ((0.0, 0.0), (0.0,))),
        "r": PCMatrix(2001, (2.0, 0.0), ((0.0, 6.0), (0.0,))),
    })


class TestActorVsCollective:
    def test_china_matches_published_external(self, scim, golden):
        seq = actor_vs_collective(scim, "china")
        printed = golden["external"]["china"]
        assert list(seq.ratios) == pytest.approx(printed["ratio"], abs=0.002)
        assert seq.i1 == pytest.approx(printed["i1"], abs=0.0005)
        assert seq.i2 == pytest.approx(printed["i2"], abs=0.0005)

    def test_single_baseline_differs_from_pair_baseline(self, scim, golden):
        # One-vs-rest removes only the actor; the published pairwise values
        # remove Brazil as well, so 2017 must not coincide.
        seq = actor_vs_collective(scim, "netherlands")
        assert seq == cross_rhythm(
            scim.actor("netherlands"), complement(scim, {"netherlands"})
        )
        r2017 = dict(zip(seq.years, seq.ratios))[2017]
        pair_value = golden["external"]["netherlands"]["ratio"][2]
        assert abs(r2017 - pair_value) > 0.02

    def test_degenerate_complement_yields_no_ratios(self):
        m = small()
        c = Collective("solo", {"all": m}, total=m)
        seq = actor_vs_collective(c, "all")
        assert all(p.ratio is None for p in seq.points)
        assert seq.i1 is None
        assert seq.undefined_years == m.years

    def test_profile_never_sees_the_actor(self, scim, china, scim_minus_china):
        # Inflate China's citations inside the total as well: the complement,
        # and with it the expectation profile, must not move.
        bump = PCMatrix(
            first_year=china.first_year,
            pubs=(0.0,) * china.n,
            cites=tuple(
                tuple(7.0 for _ in row) for row in china.cites
            ),
        )
        perturbed = Collective(
            "SCIM'",
            {"china": add(china, bump), "brazil": scim.actor("brazil"),
             "netherlands": scim.actor("netherlands")},
            total=add(scim.total, bump),
        )
        assert complement(perturbed, {"china"}) == complement(scim, {"china"})
        assert (
            ck_profile(complement(perturbed, {"china"})).values
            == ck_profile(scim_minus_china).values
        )


class TestActorVsActor:
    def test_brazil_vs_netherlands_published_values(self, scim, golden):
        result = actor_vs_actor(scim, "brazil", "netherlands")
        br = result.sequences["brazil"]
        nl = result.sequences["netherlands"]
        assert br.i1 == pytest.approx(0.856, abs=0.002)
        assert br.i2 == pytest.approx(0.888, abs=0.002)
        assert nl.i1 == pytest.approx(2.307, abs=0.002)
        assert nl.i2 == pytest.approx(1.858, abs=0.002)
        assert list(br.ratios) == pytest.approx(
            golden["external"]["brazil"]["ratio"], abs=0.002
        )
        assert list(nl.ratios) == pytest.approx(
            golden["external"]["netherlands"]["ratio"], abs=0.002
        )
        assert br.expectation_label == nl.expectation_label == result.baseline_label

    def test_both_hold_the_baseline_profile(self, scim):
        result = actor_vs_actor(scim, "brazil", "netherlands")
        baseline = ck_profile(complement(scim, {"brazil", "netherlands"}))
        for seq in result.sequences.values():
            assert seq.profile == baseline
            assert seq.profile.source_label == result.baseline_label

    def test_winner_by_year(self, scim):
        result = actor_vs_actor(scim, "brazil", "netherlands")
        winners = dict(zip(result.years, result.per_year_winner))
        assert winners[2017] == "netherlands"
        assert winners[2015] == "brazil"
        assert winners[2022] == "brazil"
        expected = ["brazil"] + ["netherlands"] * 6 + ["brazil", "netherlands", "netherlands"]
        assert list(result.per_year_winner) == expected

    def test_order_does_not_matter(self, scim):
        ab = actor_vs_actor(scim, "brazil", "netherlands")
        ba = actor_vs_actor(scim, "netherlands", "brazil")
        assert ab.per_year_winner == ba.per_year_winner
        assert ab.sequences["brazil"] == ba.sequences["brazil"]
        assert ab.baseline_label == ba.baseline_label

    def test_identical_actors_tie_everywhere(self, brazil, china):
        c = Collective(
            "twins+bg",
            {"left": brazil, "right": brazil, "bg": china},
        )
        result = actor_vs_actor(c, "left", "right")
        assert result.sequences["left"] == result.sequences["right"]
        assert all(w is None for w in result.per_year_winner)

    def test_self_comparison_rejected(self, scim):
        with pytest.raises(ValueError):
            actor_vs_actor(scim, "brazil", "brazil")


class TestValidate:
    def test_scim_is_clean(self, scim):
        report = validate_collective(scim)
        assert report.ok
        assert not report.warnings
        # China is the largest named constituent but far below dominance.
        share = scim.actor("china").total_pubs / scim.total.total_pubs
        assert share == pytest.approx(759 / 3421)

    def test_dominant_constituent_warns(self):
        m = small()
        c = Collective("solo", {"all": m}, total=m)
        report = validate_collective(c)
        assert report.ok  # warnings only
        codes = {f.code for f in report.warnings}
        assert "dominance" in codes
        assert "smallness" in codes

    def test_small_complement_warns(self):
        big = small(pubs=(30.0, 30.0))
        tiny = small(pubs=(1.0, 1.0), cites=((0.0, 0.0), (0.0,)))
        c = Collective("pond", {"big": big, "tiny": tiny})
        report = validate_collective(c)
        smallness = [f for f in report.warnings if f.code == "smallness"]
        assert len(smallness) == 1
        assert "'big'" in smallness[0].message

    def test_subset_violation_names_cell(self, scim_minus_china, china):
        # Construction rejects a collective whose constituents do not fit.
        inflated = PCMatrix(
            first_year=china.first_year,
            pubs=china.pubs,
            cites=tuple(
                tuple(c + (1e6 if (t, o) == (0, 1) else 0.0) for o, c in enumerate(row))
                for t, row in enumerate(china.cites)
            ),
            label="China",
        )
        total = add(china, scim_minus_china)
        with pytest.raises(SubsetError) as err:
            Collective(label="broken", total=total, constituents={"china": inflated})
        x, y = total.cites[0][1], inflated.cites[0][1]
        assert str(err.value) == (
            f"broken: constituents sum past the total at citations (2015, 2016): {y} > {x}"
        )

    def test_subset_violation_names_publication_year(self):
        total = small("T", pubs=(4.0, 2.0))
        with pytest.raises(SubsetError) as err:
            Collective(label="C", total=total, constituents={"x": small(pubs=(4.0, 3.0))})
        assert str(err.value) == (
            "C: constituents sum past the total at publications of year 2001: 3.0 > 2.0"
        )

    def test_partition_residual(self, china, scim_minus_china, brazil):
        total = add(china, scim_minus_china)
        partial = Collective(label="SCIM", total=total, constituents={"china": china})
        report = validate_collective(partial, assert_partition=True)
        assert [f.code for f in report.errors] == ["partition"]
        # without the flag, a partial cover is fine
        assert validate_collective(partial).ok
        # a true partition passes the assertion
        full = Collective(
            label="SCIM",
            total=total,
            constituents={"china": china, "rest": scim_minus_china},
        )
        assert validate_collective(full, assert_partition=True).ok

    def test_partition_check_reads_the_sum_kept_at_build(self, monkeypatch, china,
                                                        scim_minus_china):
        total = add(china, scim_minus_china)
        partial = Collective(label="SCIM", total=total, constituents={"china": china})
        full = Collective("SCIM", {"china": china, "rest": scim_minus_china}, total)

        def refuse(*args):
            raise AssertionError("constituents summed again")

        monkeypatch.setattr("citerhythm.collective._sum_of", refuse)
        report = validate_collective(partial, assert_partition=True)
        assert [f.code for f in report.errors] == ["partition"]
        assert validate_collective(full, assert_partition=True).ok

    def test_partition_sum_past_the_largest_float(self):
        # Each constituent fits inside the total, but their sum is infinite.
        part = small(pubs=(1e308, 1.0), cites=((0.0, 0.0), (0.0,)))
        total = small("T", pubs=(1.5e308, 2.0))
        for build in (
            lambda: Collective(label="C", total=total, constituents={"a": part, "b": part}),
            lambda: Collective("C", {"a": part, "b": part}),
        ):
            with pytest.raises(SubsetError, match="^C: constituents sum past the largest float$"):
                build()

    def test_rounding_excess_leaves_no_negative_rest(self):
        # 0.1 + 0.2 rounds to 0.30000000000000004, past the total's 0.3:
        # the subset check forgives that, and the rest counts 0 publications.
        total = small("T", pubs=(0.3, 0.3), cites=((0.3, 0.3), (0.3,)))
        over = 0.1 + 0.2
        c = Collective(
            label="C",
            total=total,
            constituents={"c": small("c", pubs=(over, over), cites=((over, over), (over,)))},
        )
        report = validate_collective(c)
        assert report.ok
        [smallness] = [f for f in report.warnings if f.code == "smallness"]
        assert smallness.message == (
            "complement of 'c' has only 0 publications; "
            "comparisons against the rest are not meaningful"
        )

    def test_smallness_reads_the_rest_that_comparisons_divide_by(self):
        # In floats, (49/3 + 20) - 49/3 is 19.999999999999996; the exact
        # rest holds r's 20 publications, which a's Ck divides by too.
        a, r = one_year("A", 49 / 3, 0.0), one_year("R", 20.0, 10.0)
        c = Collective("C", {"a": a, "r": r})
        assert (a.pubs[0] + r.pubs[0]) - a.pubs[0] < 20.0
        assert actor_vs_collective(c, "a").profile.values == (0.5,)
        [smallness] = [f for f in validate_collective(c).warnings if f.code == "smallness"]
        assert smallness.message.startswith("complement of 'r' has only 16.3333 publications")

    def test_rest_past_the_largest_float_is_not_small(self):
        total = small("T", pubs=(1e308, 1e308), cites=((0.0, 0.0), (0.0,)))
        a = small(cites=((0.0, 0.0), (0.0,)))
        c = Collective(label="C", total=total, constituents={"a": a})
        assert validate_collective(c).findings[1:] == ()


class TestContainment:
    """Each constituent fits inside the total, but their pair does not."""

    total = small("T", pubs=(10.0, 10.0), cites=((9.0, 9.0), (9.0,)))
    parts = {
        "a": small("A", pubs=(6.0, 1.0), cites=((1.0, 1.0), (1.0,))),
        "b": small("B", pubs=(6.0, 1.0), cites=((1.0, 1.0), (1.0,))),
    }

    def test_each_constituent_validates(self):
        for actor_id, m in self.parts.items():
            c = Collective(label="C", total=self.total, constituents={actor_id: m})
            assert validate_collective(c).ok

    def test_pair_raises_the_subtraction_error(self):
        # The constituents are rejected where the collective is built, with
        # the error subtracting their sum from the total would raise.
        with pytest.raises(SubsetError) as err:
            Collective(label="C", total=self.total, constituents=self.parts)
        assert str(err.value) == (
            "C: constituents sum past the total at publications of year 2000: 12.0 > 10.0"
        )

    def test_whole_excess_beside_a_large_count_is_rejected(self):
        # 2 is within 2**-40 of 2**41, but whole counts compare exactly.
        total = small("T", pubs=(2.0**41, 1.0), cites=((0.0, 0.0), (0.0,)))
        a = small("A", pubs=(2.0**41 + 2, 1.0), cites=((0.0, 0.0), (0.0,)))
        with pytest.raises(SubsetError, match="2199023255554.0 > 2199023255552.0"):
            Collective(label="C", total=total, constituents={"a": a})


def one_year(label, pubs, cites):
    return PCMatrix(2000, (pubs,), ((cites,),), label)


class TestOverlappingConstituents:
    """Constituents that share papers: whole counting of co-authored papers."""

    def test_overlap_past_the_total_is_rejected(self):
        # u and w share 2 papers, so the 12 publications of u, v and w are
        # 10 papers. Only actor-vs-rest would be right on such data: ``u``
        # vs ``w`` would subtract the shared papers twice and compare against
        # 2 papers without citations (Ck 0) instead of v (Ck 1.5).
        parts = {
            "u": one_year("U", 4.0, 10.0),
            "w": one_year("W", 4.0, 10.0),
            "v": one_year("V", 4.0, 6.0),
        }
        total = one_year("T", 10.0, 20.0)
        message = "^T: constituents sum past the total at publications of year 2000: 12.0 > 10.0$"
        with pytest.raises(SubsetError, match=message):
            Collective(label="T", total=total, constituents=parts)
        with pytest.raises(SubsetError, match=message):
            Collective("T", parts, total=total)

    def test_overlap_that_fits_goes_unseen(self):
        # A known limit: u and v share one paper with 5 citations, but their
        # sum still fits inside the total, so nothing in the matrices shows
        # the overlap. The pair's baseline subtracts that paper twice: Ck
        # 46/21 where the true rest (22 papers, 51 citations) has 51/22.
        # Detecting such overlap must change this test deliberately.
        parts = {"u": one_year("U", 2.0, 7.0), "v": one_year("V", 2.0, 7.0)}
        c = Collective(label="T", total=one_year("T", 25.0, 60.0), constituents=parts)
        assert validate_collective(c).ok
        result = actor_vs_actor(c, "u", "v")
        assert result.sequences["u"].profile.values == (46 / 21,)


def uniform(label, value):
    return small(label, pubs=(value, value), cites=((value, value), (value,)))


class TestFractionalCounts:
    """Shares of 0.1 and 0.2 under a total of 0.3: their cellwise sum,
    0.30000000000000004, exceeds the total only by rounding."""

    def collective(self, total=0.3, a=0.1, b=0.2):
        return Collective(
            label="C",
            total=uniform("T", total),
            constituents={"a": uniform("A", a), "b": uniform("B", b)},
        )

    def test_partition_validates(self):
        assert validate_collective(self.collective(), assert_partition=True).ok

    def test_pair_leaves_an_empty_baseline(self):
        result = actor_vs_actor(self.collective(), "a", "b")
        assert result.baseline_label == "C \\ {a, b}"
        assert result.per_year_winner == (None, None)
        assert all(seq.undefined_years == (2000, 2001) for seq in result.sequences.values())

    def test_actor_vs_collective(self):
        assert actor_vs_collective(self.collective(), "a").ratios == (1.0, 1.0)

    @pytest.mark.parametrize(
        "total,a,b,residual",
        [
            (0.29, 0.1, 0.2, "constituents sum past the total at publications of "
             "year 2000: 0.30000000000000004 > 0.29"),
            (0.31, 0.1, 0.2, "total exceeds the constituents' sum at publications "
             "of year 2000: 0.31 > 0.30000000000000004"),
            (2.0**39, 2.0**38, 2.0**38 + 1, "constituents sum past the total at "
             "publications of year 2000: 549755813889.0 > 549755813888.0"),
            (2.0**39 + 1, 2.0**38, 2.0**38, "total exceeds the constituents' sum at "
             "publications of year 2000: 549755813889.0 > 549755813888.0"),
        ],
    )
    def test_residual_beyond_the_tolerance(self, total, a, b, residual):
        # Constituents past the total beyond the tolerance reject the
        # collective as it is built; a total past the constituents builds,
        # and the partition check reports the residual.
        if residual.startswith("constituents sum past the total"):
            with pytest.raises(SubsetError) as err:
                self.collective(total, a, b)
            assert str(err.value) == f"C: {residual}"
            return
        report = validate_collective(self.collective(total, a, b), assert_partition=True)
        [finding] = report.errors
        assert finding.code == "partition"
        assert finding.message == f"partition residual: {residual}"

    @pytest.mark.parametrize("total,a,b", [(0.29, 0.1, 0.2), (2.0**39, 2.0**38, 2.0**38 + 1)])
    def test_pair_beyond_the_tolerance_raises(self, total, a, b):
        # Each share fits inside the total alone; only the pair is rejected.
        t = uniform("T", total)
        Collective(label="C", total=t, constituents={"a": uniform("A", a)})
        Collective(label="C", total=t, constituents={"b": uniform("B", b)})
        with pytest.raises(SubsetError, match="^C: constituents sum past the total "):
            self.collective(total, a, b)

    def test_pair_holding_the_whole_collective(self):
        # The total's citations exceed a + b = 0.30000000000000004 by one
        # unit in the last place: a rounding rest, not citations without
        # publications.
        total = PCMatrix(2000, (0.1 + 0.2,), ((math.nextafter(0.1 + 0.2, 1),),), "T")
        c = Collective(
            label="C",
            total=total,
            constituents={
                x: PCMatrix(2000, (v,), ((v,),), x.upper()) for x, v in (("a", 0.1), ("b", 0.2))
            },
        )
        assert validate_collective(c, assert_partition=True).ok
        assert complement(c, {"a", "b"}) == PCMatrix(2000, (0.0,), ((0.0,),))
        result = actor_vs_actor(c, "a", "b")
        assert result.per_year_winner == (None,)
        assert all(seq.undefined_years == (2000,) for seq in result.sequences.values())


def _outcome(compute):
    try:
        return compute()
    except RhythmError as exc:
        return type(exc), str(exc)


# Cell values of the fractional collectives: sums of these round, and the
# tiniest one vanishes next to 1.0.
FRACTIONS = (0.0, 2.0**-53, 0.1, 1 / 3, 0.5, 1.0, 2.5)


@st.composite
def collectives(draw, fractional=False):
    """K = 2..5 actors plus an unnamed remainder over n = 1..12 years,
    zero-publication years included. The total is their cellwise sum,
    sometimes lowered so that it may no longer contain the actors' sum.
    Such a total must be rejected exactly when the oracle's rest of all
    actors is negative somewhere; the strategy then gives None."""
    k = draw(st.integers(2, 5))
    n = draw(st.integers(1, 12))
    value = st.sampled_from(FRACTIONS) if fractional else st.integers(0, 6)

    def matrix(label):
        pubs = draw(st.lists(value, min_size=n, max_size=n))
        cites = [draw(st.lists(value, min_size=n - t, max_size=n - t)) for t in range(n)]
        return PCMatrix(2000, tuple(pubs), tuple(map(tuple, cites)), label)

    actors = {f"a{i}": matrix(f"A{i}") for i in range(k)}
    total = matrix("rest")
    for m in actors.values():
        total = add(total, m)
    if draw(st.booleans()):
        deficit = matrix("")
        clipped = PCMatrix(
            2000,
            tuple(map(min, deficit.pubs, total.pubs)),
            tuple(tuple(map(min, d, t)) for d, t in zip(deficit.cites, total.cites)),
        )
        total = subtract(total, clipped)
    try:
        rest_corpus(total, list(actors.values()))
    except DomainError:
        with pytest.raises(SubsetError):
            Collective(label="Z", total=total.relabeled("Z"), constituents=actors)
        return None
    return Collective(label="Z", total=total.relabeled("Z"), constituents=actors)


def assert_matches_complements(c):
    ids = c.actor_ids
    for u in ids:
        assert _outcome(lambda: actor_vs_collective(c, u)) == _outcome(
            lambda: cross_rhythm(c.actor(u), complement(c, {u}))
        )
    for i, u in enumerate(ids):
        for v in ids[i + 1 :]:

            def rebuilt():
                rest = complement(c, {u, v})
                return rest.label, {x: cross_rhythm(c.actor(x), rest) for x in (u, v)}

            fast = _outcome(lambda: actor_vs_actor(c, v, u))
            if isinstance(fast, ComparisonResult):
                fast = fast.baseline_label, fast.sequences
            assert fast == _outcome(rebuilt)


def _exact_cells(m):
    return [Fraction(x) for x in chain(m.pubs, *m.cites)]


def exact_rest_profile(c, ids):
    """The rest's profile computed with fractions from the cells: a total
    cell within 2**-40 of the constituents' float sum takes their exact
    sum; where any cell is fractional, an age whose rest publications are
    at most 2**-40 of the total's over its contributing years has none;
    each value is rounded once."""
    ids = sorted(ids)
    parts = _sum_of(c.constituents.values())
    exact = {a: _exact_cells(m) for a, m in c.constituents.items()}
    fractional = any(x.denominator > 1 for x in chain(_exact_cells(c.total), *exact.values()))
    tolerance = Fraction(2.0**-40) if fractional else 0
    cells = zip(chain(c.total.pubs, *c.total.cites), chain(parts.pubs, *parts.cites))
    total = [
        sum(e[i] for e in exact.values()) if _same(x, y) else Fraction(x)
        for i, (x, y) in enumerate(cells)
    ]
    rest = [t - sum(exact[a][i] for a in ids) for i, t in enumerate(total)]
    assert min(rest) >= 0
    n, flat = c.total.n, iter(rest)
    pubs = list(islice(flat, n))
    rows = [list(islice(flat, n - t)) for t in range(n)]
    label = f"{c.label} \\ {{{', '.join(ids)}}}"
    values = []
    for k in range(1, n + 1):
        years = n - k + 1
        citations = sum(rows[t][k - 1] for t in range(years))
        if sum(pubs[:years]) <= tolerance * sum(total[:years]):
            if citations > 0:
                raise DataConsistencyError(
                    f"{label}: age {k} has {float(citations)} citations "
                    "but no publications in the contributing years"
                )
            values.append(0.0)
        else:
            values.append(float(citations / sum(pubs[:years])))
    return CkProfile(tuple(values), label)


def assert_matches_exact_rests(c):
    """Every comparison equals the rhythms against the exact rest's
    profile, value for value and label for label, errors included."""
    ids = c.actor_ids
    for u in ids:

        def reference():
            profile = exact_rest_profile(c, {u})
            return profile.source_label, cross_rhythm(c.actor(u), profile)

        def fast():
            seq = actor_vs_collective(c, u)
            return seq.expectation_label, seq

        assert _outcome(fast) == _outcome(reference)
    for i, u in enumerate(ids):
        for v in ids[i + 1 :]:

            def reference():
                profile = exact_rest_profile(c, {u, v})
                return profile.source_label, {x: cross_rhythm(c.actor(x), profile) for x in (u, v)}

            fast = _outcome(lambda: actor_vs_actor(c, v, u))
            if isinstance(fast, ComparisonResult):
                fast = fast.baseline_label, fast.sequences
            assert fast == _outcome(reference)


class TestSumsMatchComplements:
    """Comparisons equal the rhythms against the rest computed exactly from
    the cells, errors included; on integer data, that is the rest that
    ``complement`` rebuilds, to the last bit."""

    @settings(deadline=None)
    @given(collectives())
    def test_integer_collectives(self, c):
        if c is not None:
            assert_matches_complements(c)
            assert_matches_exact_rests(c)

    @settings(deadline=None)
    @given(collectives(fractional=True))
    def test_fractional_collectives(self, c):
        if c is not None:
            assert_matches_exact_rests(c)

    def test_integer_collective_builds_no_complement(self, monkeypatch, scim):
        def refuse(*args):
            raise AssertionError("complement built")

        fractional = Collective(
            "F", {a: scale_pubs(scale_cites(m, 0.1), 0.1) for a, m in scim.constituents.items()}
        )
        monkeypatch.setattr("citerhythm.collective.complement", refuse)
        monkeypatch.setattr("citerhythm.pcmatrix.subtract", refuse)
        monkeypatch.setattr("citerhythm.collective._sum_of", refuse)
        for c in (scim, fractional):
            assert len(actor_vs_collective(c, "china").points) == scim.total.n
            assert actor_vs_actor(c, "brazil", "netherlands").baseline_label == (
                f"{c.label} \\ {{brazil, netherlands}}"
            )
        assert fractional._scale > 1

    def test_rounding_residue_without_publications(self):
        # Age 1's cells of A and B add up to 1 + 2**-52 in the total, but
        # their diagonal sums add up to 1.0: subtracting sums would leave a
        # residue of citations where the rest has neither cells nor
        # publications.
        a = small("A", pubs=(1.0, 1.0), cites=((1.0, 0.0), (2.0**-53,)))
        b = small("B", pubs=(1.0, 1.0), cites=((0.0, 0.0), (2.0**-53,)))
        c = Collective("C", {"a": a, "b": b})
        result = actor_vs_actor(c, "a", "b")
        assert result.per_year_winner == (None, None)
        assert all(seq.undefined_years == (2000, 2001) for seq in result.sequences.values())
        assert_matches_complements(c)

    def test_counts_beyond_float_precision(self):
        # Age 1 of the total holds 2**53 and 1 citations; their sum rounds to
        # 2**53, the actor's own, so subtracting sums would lose the rest's 1.
        total = small("T", pubs=(2.0, 2.0), cites=((2.0**53, 0.0), (1.0,)))
        a = small("A", pubs=(1.0, 1.0), cites=((2.0**53, 0.0), (0.0,)))
        c = Collective(label="C", total=total, constituents={"a": a})
        assert actor_vs_collective(c, "a").ratios == (2.0**54, 0.0)
        assert_matches_complements(c)

    def test_total_cells_rounded_at_2_53_take_the_exact_sum(self):
        # The total's 2**53 citations at age 1 of 2000 are the rounded
        # float sum of a's 2**53 and b's 1. Without a and b, that float
        # would leave the rest -1 citation there; the exact sum leaves 0,
        # as the complement does, and the rest keeps r's citations alone.
        a = small("A", pubs=(1.0, 1.0), cites=((2.0**53, 0.0), (0.0,)))
        b = small("B", pubs=(1.0, 1.0), cites=((1.0, 0.0), (0.0,)))
        r = small("R", pubs=(2.0, 2.0), cites=((0.0, 0.0), (6.0,)))
        c = Collective("C", {"a": a, "b": b, "r": r})
        assert c.total.cites[0][0] == 2.0**53
        assert actor_vs_actor(c, "a", "b").sequences["a"].profile.values == (1.5, 0.0)
        assert complement(c, {"a", "b"}) == r
        assert_matches_exact_rests(c)

    @pytest.mark.parametrize("exponent", [40, 41, 52, 53, 60])
    def test_integer_rests_beside_large_actors_keep_their_publications(self, exponent):
        # r's 2 publications of 2001 are at most 2**-40 of the total's from
        # 2**41 on. Integer sums are exact, so the rest keeps them and its
        # Ck at age 2 is r's 6 citations of 2002 over them.
        a = small("A", 2001, pubs=(2.0**exponent, 1.0), cites=((0.0, 0.0), (0.0,)))
        b = small("B", 2001, pubs=(1.0, 1.0), cites=((0.0, 0.0), (0.0,)))
        r = small("R", 2001, pubs=(2.0, 0.0), cites=((0.0, 6.0), (0.0,)))
        c = Collective("C", {"a": a, "b": b, "r": r})
        assert c._scale == 1
        assert actor_vs_actor(c, "a", "b").sequences["a"].profile.values == (0.0, 3.0)
        assert_matches_exact_rests(c)

    def test_rests_past_the_largest_float_raise(self):
        # The exact sums never overflow, but a rest whose counts or Ck pass
        # the largest float raises the DomainError the complement would.
        big = small("T", pubs=(1e308, 1e308), cites=((0.0, 0.0), (0.0,)))
        c = Collective(label="C", total=big, constituents={"a": small(cites=((0.0, 0.0), (0.0,)))})
        with pytest.raises(DomainError, match=r"^C \\ \{a\}: counts sum past the largest float$"):
            actor_vs_collective(c, "a")
        total = PCMatrix(2000, (0.5,), ((1e308,),), "T")
        c = Collective(label="C", total=total, constituents={"a": one_year("A", 0.25, 0.0)})
        with pytest.raises(DomainError, match="^profile value must be finite, got inf$"):
            actor_vs_collective(c, "a")
        assert_matches_complements(c)

    def test_counts_past_the_tolerance_bound(self):
        # 2**41 - 1 is within 2**-40 of 2**41, but whole counts below 2**53
        # subtract exactly, so subtract leaves 1, as subtracting sums does.
        total = small("T", pubs=(2.0, 2.0), cites=((2.0**41, 0.0), (1.0,)))
        a = small("A", pubs=(1.0, 1.0), cites=((2.0**41 - 1, 0.0), (0.0,)))
        c = Collective(label="C", total=total, constituents={"a": a})
        assert complement(c, {"a"}).cites[0][0] == 1.0
        assert_matches_complements(c)

    def test_exact_sums_are_computed_once_at_build(self, monkeypatch):
        # Comparisons are what callers time, so none of them sums cells.
        calls = []

        def counted(total, parts, constituents):
            calls.append(total.label)
            return exact_sums(total, parts, constituents)

        exact_sums = collective._exact_sums
        monkeypatch.setattr("citerhythm.collective._exact_sums", counted)
        c = load_manifest(fixture_path("scim.manifest"))
        assert calls == ["SCIM"]
        assert validate_collective(c).ok
        actor_vs_collective(c, "china")
        actor_vs_actor(c, "brazil", "netherlands")
        assert calls == ["SCIM"]

    def test_float_sums_of_small_integer_matrices_are_the_exact_sums(self, monkeypatch, scim):
        # Integer matrices whose cells add up to less than 2**53 take their
        # exact sums from ``m.sums``; summing their cells as ints agrees.
        rng = random.Random(7)
        matrices = [scim.total, *scim.constituents.values()]
        matrices += [random_matrix(rng, max_pubs=2**40, max_cites=2**40) for _ in range(20)]
        for m in matrices:
            assert sum(chain(m.pubs, *m.cites)) < 2**53
            assert m._whole and collective._scale([m]) == 1
            assert collective._sums_of_floats(m) == collective._sums_of_cells(
                collective._scaled(m, 1), m.n
            )
        # Building a collective of them takes that route, without comparing
        # a total cell with the constituents' sum, and leaves each
        # constituent's ``m.sums`` and ``_whole`` cached, so no comparison
        # adds its cells again.
        def refuse(x, y):
            raise AssertionError("cells compared")

        with monkeypatch.context() as patch:
            patch.setattr("citerhythm.collective._same", refuse)
            c = load_manifest(fixture_path("scim.manifest"))
        cached = {a: vars(m).get("sums") for a, m in c.constituents.items()}
        assert None not in cached.values()
        # The build decided wholeness once per matrix and kept the bit.
        assert all(vars(m).get("_whole") is True for m in (c.total, *c.constituents.values()))
        for a, m in c.constituents.items():
            assert c._exact[a] == collective._sums_of_cells(collective._scaled(m, 1), m.n)
        actor_vs_collective(c, "china")
        actor_vs_actor(c, "brazil", "netherlands")
        assert all(m.sums is cached[a] for a, m in c.constituents.items())

    def test_fractional_rest_is_the_exact_rest_rounded_once(self):
        # Shares of 0.1 leave the rest 0.3 - 0.1 - 0.1 = 0.09999999999999998
        # by cells; the exact rest of the cells is 0.10000000000000000555...
        # and every value of the profile is rounded from it once.
        total = uniform("T", 0.3)
        parts = {"a": uniform("A", 0.1), "b": uniform("B", 0.1)}
        c = Collective(label="C", total=total, constituents=parts)
        profile = actor_vs_actor(c, "a", "b").sequences["a"].profile
        assert profile == exact_rest_profile(c, {"a", "b"})
        assert profile.values == (1.0, 1.0)
        assert_matches_exact_rests(c)

    def test_citations_lost_to_rounding_still_raise(self):
        # The rest holds 2**-53 citations at age 1 and no publications. Its
        # diagonal sum, 1 + 2**-53, rounds to 1.0 in the total.
        total = small("T", pubs=(1.0, 1.0), cites=((1.0, 0.0), (2.0**-53,)))
        a = small("A", pubs=(1.0, 1.0), cites=((1.0, 0.0), (0.0,)))
        c = Collective(label="C", total=total, constituents={"a": a})
        with pytest.raises(DataConsistencyError) as err:
            actor_vs_collective(c, "a")
        assert str(err.value) == (
            "C \\ {a}: age 1 has 1.1102230246251565e-16 citations "
            "but no publications in the contributing years"
        )
