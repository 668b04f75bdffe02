import math
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from citerhythm import (
    CkProfile,
    DataConsistencyError,
    DomainError,
    PCMatrix,
    SubsetError,
    YearOutOfRangeError,
    add,
    ck_profile,
    subtract,
)
from helpers import random_matrix, scale_cites, scale_pubs, whole_by_scan, zero


@st.composite
def matrices(draw, max_n=8, n=None, first_year=None):
    n = n if n is not None else draw(st.integers(1, max_n))
    first_year = first_year if first_year is not None else draw(st.integers(1950, 2020))
    pubs = draw(st.lists(st.integers(0, 40), min_size=n, max_size=n))
    cites = [
        draw(st.lists(st.integers(0, 25), min_size=n - t, max_size=n - t))
        for t in range(n)
    ]
    return PCMatrix(
        first_year=first_year,
        pubs=tuple(float(p) for p in pubs),
        cites=tuple(tuple(float(c) for c in row) for row in cites),
    )


@st.composite
def aligned_matrix_pairs(draw, max_n=8):
    n = draw(st.integers(1, max_n))
    first_year = draw(st.integers(1950, 2020))
    a = draw(matrices(n=n, first_year=first_year))
    b = draw(matrices(n=n, first_year=first_year))
    return a, b


_COUNTS = st.one_of(
    st.integers(0, 40).map(float),
    st.sampled_from([-0.0, 0.1, 2.5, 1e-300, 1e300]),
    st.floats(0, 1e6),
)


@st.composite
def contained_pairs(draw, max_n=6):
    """A matrix of mixed integer, fractional and extreme counts, and a
    matrix contained in it (each cell a fraction of the first one's)."""
    n = draw(st.integers(1, max_n))
    first_year = draw(st.integers(1950, 2020))
    pubs = draw(st.lists(_COUNTS, min_size=n, max_size=n))
    cites = [draw(st.lists(_COUNTS, min_size=n - t, max_size=n - t)) for t in range(n)]
    a = PCMatrix(first_year, pubs, cites, label=draw(st.sampled_from(["", "a"])))
    part = st.one_of(st.just(1.0), st.just(0.0), st.floats(0, 1))
    b = PCMatrix(
        first_year,
        [x * draw(part) for x in pubs],
        [[x * draw(part) for x in row] for row in cites],
        label=draw(st.sampled_from(["", "b"])),
    )
    return a, b


def _same(result: PCMatrix, expected: PCMatrix) -> None:
    assert result == expected
    assert result.label == expected.label
    assert result.sums == expected.sums
    assert result._whole is expected._whole is whole_by_scan(result)
    assert type(result.pubs) is tuple and all(type(x) is float for x in result.pubs)
    assert all(type(row) is tuple for row in result.cites)


def toy3() -> PCMatrix:
    return PCMatrix(
        first_year=2000,
        pubs=(2.0, 1.0, 4.0),
        cites=((1.0, 2.0, 3.0), (0.0, 5.0), (2.0,)),
        label="toy",
    )


class TestConstruction:
    def test_coerces_to_tuples_and_exposes_window(self):
        m = PCMatrix(first_year=2010, pubs=[1, 2], cites=[[3, 4], [5]])
        assert m.pubs == (1.0, 2.0)
        assert m.cites == ((3.0, 4.0), (5.0,))
        assert m.n == 2
        assert m.years == (2010, 2011)
        assert m.last_year == 2011

    def test_stored_cells_count_is_triangular(self):
        m = toy3()
        assert sum(len(row) for row in m.cites) == m.n * (m.n + 1) // 2

    @pytest.mark.parametrize("bad", [-1.0, float("nan"), float("inf")])
    def test_rejects_bad_pub_counts(self, bad):
        with pytest.raises(DomainError):
            PCMatrix(first_year=2000, pubs=(bad,), cites=((0.0,),))

    def test_rejects_negative_citation(self):
        with pytest.raises(DomainError):
            PCMatrix(first_year=2000, pubs=(1.0,), cites=((-2.0,),))

    def test_row_is_converted_before_it_is_checked(self):
        # The row goes through float as a whole, so a non-number wins over
        # an earlier negative count.
        with pytest.raises(ValueError, match="could not convert"):
            PCMatrix(first_year=2000, pubs=(1.0, 1.0), cites=((-1.0, "x"), (0.0,)))
        with pytest.raises(DomainError, match="^citation count must be non-negative, got -1.0$"):
            PCMatrix(first_year=2000, pubs=(1.0, 1.0), cites=((-1.0, 2.0), (0.0,)))

    def test_rejects_wrong_shapes(self):
        with pytest.raises(ValueError):
            PCMatrix(first_year=2000, pubs=(1.0, 2.0), cites=((1.0, 2.0),))
        with pytest.raises(ValueError):
            PCMatrix(first_year=2000, pubs=(1.0, 2.0), cites=((1.0,), (2.0,)))
        with pytest.raises(ValueError):
            PCMatrix(first_year=2000, pubs=(), cites=())

    def test_label_does_not_affect_equality(self):
        a = toy3()
        b = a.relabeled("other name")
        assert a == b


class TestObserved:
    def test_china_2015(self, china):
        assert china.sums.rows[0] == 2149

    def test_observed_all_matches_published_columns(self, china, brazil, golden):
        assert list(china.sums.rows) == golden["actors"]["china"]["observed"]
        assert list(brazil.sums.rows) == golden["actors"]["brazil"]["observed"]

    def test_zero_matrix(self):
        z = zero(2000, 4)
        assert z.sums.rows == (0.0, 0.0, 0.0, 0.0)
        assert z.sums.rows[2] == 0.0

    def test_hand_sum_first_row(self):
        assert toy3().sums.rows[0] == 6.0

    @given(matrices())
    def test_total_mass_conserved(self, m):
        total = sum(sum(row) for row in m.cites)
        assert sum(m.sums.rows) == pytest.approx(total, rel=1e-9, abs=1e-12)


class TestCkProfile:
    def test_china_values(self, china, golden):
        values = ck_profile(china).values
        printed = golden["internal"]["china"]["ck"]
        assert list(values) == pytest.approx(printed, abs=0.0005)

    def test_scim_minus_china_values(self, scim_minus_china, golden):
        values = ck_profile(scim_minus_china).values
        printed = golden["internal"]["scim_minus_china"]["ck"]
        assert list(values) == pytest.approx(printed, abs=0.0005)

    def test_two_year_hand_case(self):
        m = PCMatrix(first_year=2000, pubs=(1.0, 1.0), cites=((2.0, 4.0), (6.0,)))
        assert ck_profile(m).values == (4.0, 4.0)

    def test_single_year_is_plain_average(self):
        m = PCMatrix(first_year=2000, pubs=(8.0,), cites=((6.0,),))
        assert ck_profile(m).values == (6.0 / 8.0,)

    def test_all_zero_citations_gives_zero_profile(self):
        m = PCMatrix(first_year=2000, pubs=(3.0, 7.0), cites=((0.0, 0.0), (0.0,)))
        assert ck_profile(m).values == (0.0, 0.0)

    def test_zero_over_zero_is_zero(self):
        # no publications in the oldest year and no citations at that age
        m = PCMatrix(first_year=2000, pubs=(0.0, 5.0), cites=((0.0, 0.0), (7.0,)))
        assert ck_profile(m).values == (7.0 / 5.0, 0.0)

    def test_citations_without_publications_rejected(self):
        m = PCMatrix(first_year=2000, pubs=(0.0, 5.0), cites=((0.0, 3.0), (0.0,)))
        with pytest.raises(DataConsistencyError):
            ck_profile(m)

    def test_overflowing_quotient_rejected(self):
        # Finite sums, but a subnormal publication count under a large
        # diagonal sum gives an infinite average.
        m = PCMatrix(first_year=2000, pubs=(5e-324,), cites=((1e308,),))
        with pytest.raises(DomainError, match="^profile value must be finite, got inf$"):
            ck_profile(m)

    @pytest.mark.parametrize("value", [math.inf, math.nan, -1.0])
    def test_public_constructor_validates(self, value):
        with pytest.raises(DomainError, match="^profile value must be"):
            CkProfile(values=(1.0, value))

    def test_constructor_converts_and_reports_first_bad_value(self):
        p = CkProfile(values=(1, -0.0, 1e308, 1e308))  # values may sum past inf
        assert p.values == (1.0, 0.0, 1e308, 1e308)
        assert all(type(v) is float for v in p.values)
        assert math.copysign(1.0, p.values[1]) == -1.0
        with pytest.raises(DomainError, match="^profile value must be non-negative, got -1.0$"):
            CkProfile(values=(2.0, -1.0, math.inf))

    def test_source_label_carried(self, china):
        assert ck_profile(china).source_label == china.label

    @pytest.mark.parametrize("factor", [2.0, 0.25, 3.7])
    def test_homogeneous_in_citations(self, factor):
        rng = random.Random(11)
        for _ in range(25):
            m = random_matrix(rng, n=rng.randint(1, 12))
            base = ck_profile(m).values
            scaled = ck_profile(scale_cites(m, factor)).values
            for b, s in zip(base, scaled):
                assert s == pytest.approx(b * factor, rel=1e-9, abs=1e-12)

    @pytest.mark.parametrize("factor", [2.0, 0.25, 3.7])
    def test_homogeneous_inverse_in_publications(self, factor):
        rng = random.Random(12)
        for _ in range(25):
            m = random_matrix(rng, n=rng.randint(1, 12))
            base = ck_profile(m).values
            scaled = ck_profile(scale_pubs(m, factor)).values
            for b, s in zip(base, scaled):
                assert s == pytest.approx(b / factor, rel=1e-9, abs=1e-12)


class TestOverflowingSums:
    """Finite cells whose sums overflow are rejected where the sums are
    computed, whichever way the matrix was built."""

    @pytest.mark.parametrize(
        "m",
        [
            PCMatrix(2000, (1e308, 1e308), ((0.0, 0.0), (0.0,)), "pubs"),
            PCMatrix(2000, (1.0, 1.0), ((1e308, 0.0), (1e308,)), "rows"),
            PCMatrix(2000, (1.0, 1.0, 1.0), ((1e308, 1e308, 0.0), (0.0, 0.0), (0.0,)), "w")
            .window(2000, 2),
            subtract(
                PCMatrix(2000, (1.0, 1.0), ((1e308, 1e308), (0.0,)), "s"),
                zero(2000, 2),
            ),
        ],
    )
    def test_rejected_with_label(self, m):
        with pytest.raises(DomainError, match=f"^{m.label}: counts sum past the largest float"):
            ck_profile(m)


class TestAddSubtract:
    def test_total_reconstruction(self, china, scim_minus_china):
        total = add(china, scim_minus_china)
        assert total.pubs[0] == 349

    def test_additive_identity(self, china):
        z = zero(china.first_year, china.n)
        assert add(china, z) == china
        assert subtract(china, z) == china

    def test_two_partitions_agree(
        self, china, scim_minus_china, brazil, netherlands, scim_minus_brazil_netherlands
    ):
        assert add(china, scim_minus_china) == add(
            add(brazil, netherlands), scim_minus_brazil_netherlands
        )

    def test_subtract_recovers_part(self, china, scim_minus_china):
        total = add(china, scim_minus_china)
        assert subtract(total, china) == scim_minus_china

    def test_subtract_self_is_zero(self, china):
        assert subtract(china, china) == zero(china.first_year, china.n)

    def test_subtract_rejects_non_subset(self):
        a = PCMatrix(first_year=2000, pubs=(2.0, 2.0), cites=((1.0, 1.0), (1.0,)))
        bigger = PCMatrix(first_year=2000, pubs=(2.0, 2.0), cites=((5.0, 1.0), (1.0,)))
        with pytest.raises(SubsetError):
            subtract(a, bigger)
        more_pubs = PCMatrix(first_year=2000, pubs=(9.0, 2.0), cites=((1.0, 1.0), (1.0,)))
        with pytest.raises(SubsetError):
            subtract(a, more_pubs)

    def test_subtract_forgives_a_rounding_excess(self):
        # 0.1 + 0.2 rounds to 0.30000000000000004, past 0.3; the rest is 0.0.
        total = PCMatrix(2000, (0.3, 0.3), ((0.3, 0.3), (0.3,)))
        parts = PCMatrix(2000, (0.1 + 0.2, 0.3), ((0.3, 0.1 + 0.2), (0.2,)))
        rest = subtract(total, parts)
        assert rest.pubs == (0.0, 0.0)
        assert rest.cites == ((0.0, 0.0), (0.3 - 0.2,))

    @pytest.mark.parametrize("x,y", [(0.29, 0.1 + 0.2), (2.0**39, 2.0**39 + 1)])
    def test_subtract_rejects_an_excess_beyond_the_tolerance(self, x, y):
        a = PCMatrix(2000, (x,), ((x,),), "T")
        with pytest.raises(SubsetError, match=rf"^publications of year 2000: {y} > {x};"):
            subtract(a, PCMatrix(2000, (y,), ((x,),), "X"))
        with pytest.raises(SubsetError, match=rf"^citations \(2000, 2000\): {y} > {x};"):
            subtract(a, PCMatrix(2000, (x,), ((y,),), "X"))

    def test_alignment_required(self, china):
        shifted = PCMatrix(
            first_year=china.first_year + 1,
            pubs=china.pubs,
            cites=china.cites,
        )
        from citerhythm import AlignmentError

        with pytest.raises(AlignmentError):
            add(china, shifted)
        with pytest.raises(AlignmentError):
            subtract(china, shifted)

    @given(aligned_matrix_pairs())
    def test_add_subtract_inverse(self, pair):
        a, b = pair
        assert subtract(add(a, b), b) == a


class TestWindow:
    def test_full_window_is_identity(self, china):
        assert china.window(2015, 10) == china

    def test_extracts_square_submatrix(self):
        m = toy3()
        w = m.window(2001, 2)
        assert w.first_year == 2001
        assert w.pubs == (1.0, 4.0)
        assert w.cites == ((0.0, 5.0), (2.0,))

    def test_window_bounds_checked(self):
        m = toy3()
        from citerhythm import WindowError

        with pytest.raises(WindowError):
            m.window(2000, 0)
        with pytest.raises(WindowError):
            m.window(2000, 4)
        with pytest.raises(WindowError):
            m.window(2002, 2)
        with pytest.raises(YearOutOfRangeError):
            m.window(1999, 2)

    def test_totals(self):
        m = toy3()
        assert m.total_pubs == 7.0
        assert sum(m.sums.rows) == 13.0


class TestDerivedMatricesEqualValidatedOnes:
    """Windows, relabels and differences reuse already validated cells; they
    must equal what the validating constructor builds from the same cells."""

    @given(contained_pairs(), st.data())
    def test_window(self, pair, data):
        m = pair[0]
        length = data.draw(st.integers(1, m.n))
        s = data.draw(st.integers(0, m.n - length))
        expected = PCMatrix(
            m.first_year + s,
            m.pubs[s : s + length],
            [m.cites[s + t][: length - t] for t in range(length)],
            m.label,
        )
        _same(m.window(m.first_year + s, length), expected)

    @given(contained_pairs(), st.sampled_from(["", "x", "rest of SCIM"]))
    def test_relabeled(self, pair, label):
        m = pair[0]
        _same(m.relabeled(label), PCMatrix(m.first_year, m.pubs, m.cites, label))

    @given(contained_pairs())
    def test_subtract(self, pair):
        a, b = pair

        def rest(x, y):
            # The rest rule: 0.0 where the counts are within 2**-40 of the larger.
            return 0.0 if abs(x - y) <= 2.0**-40 * max(x, y) else x - y

        expected = PCMatrix(
            a.first_year,
            list(map(rest, a.pubs, b.pubs)),
            [list(map(rest, ra, rb)) for ra, rb in zip(a.cites, b.cites)],
            f"{a.label}-{b.label}" if a.label and b.label else a.label,
        )
        _same(subtract(a, b), expected)

    def test_parsed_matrix_equals_validated(self, china):
        _same(china, PCMatrix(china.first_year, china.pubs, china.cites, china.label))
