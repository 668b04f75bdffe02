"""The package's records are immutable values: construction by position or
keyword with their defaults, equality and hashing over the compared fields,
the exact repr, no assignment or deletion, and copy, deep copy and pickle
round trips."""

import copy
import hashlib
import pickle
from pathlib import Path
from types import MappingProxyType

import pytest

from citerhythm import (
    CitationEvent,
    CkProfile,
    Collective,
    CollectiveManifest,
    ComparisonResult,
    CorpusSpec,
    EventCorpus,
    Finding,
    ManifestActor,
    MatrixFile,
    PCMatrix,
    RhythmPoint,
    RhythmSequence,
    Sums,
    ValidationReport,
    WindowSeries,
    actor_vs_actor,
    actor_vs_collective,
    fixture_path,
    load_manifest,
)

M = PCMatrix(2000, (1.0, 2.0), ((3.0, 1.0), (4.0,)), "m")
M2 = PCMatrix(2000, (1.0, 2.0), ((3.0, 1.0), (5.0,)), "m")
BIG = PCMatrix(2000, (2.0, 3.0), ((6.0, 2.0), (9.0,)), "big")
PROFILE = CkProfile((2.0,), "b")
POINT = RhythmPoint(2000, 1.0, 2.0, 0.5)
SEQ = RhythmSequence((2000,), (1.0,), (2.0,), (0.5,), "a", PROFILE, 0.5, 0.5, ())
SEQ2 = RhythmSequence((2000,), (1.0,), (2.0,), (0.5,), "a2", PROFILE, 0.5, 0.5, ())
FINDING = Finding("warning", "dominance", "a holds 90%")
ACTOR = ManifestActor("a", "A", Path("a.csv"))
EVENT = CitationEvent(2000, 2001, 2.0)
P = repr(Path("a.csv"))

M_REPR = "PCMatrix(first_year=2000, pubs=(1.0, 2.0), cites=((3.0, 1.0), (4.0,)), label='m')"
POINT_REPR = "RhythmPoint(year=2000, observed=1.0, expected=2.0, ratio=0.5)"
SEQ_REPR = (
    "RhythmSequence(years=(2000,), observed=(1.0,), expected=(2.0,), ratios=(0.5,), "
    "observed_label='a', profile=CkProfile(values=(2.0,), source_label='b'), i1=0.5, i2=0.5, "
    "undefined_years=())"
)
FINDING_REPR = "Finding(severity='warning', code='dominance', message='a holds 90%')"
ACTOR_REPR = f"ManifestActor(actor_id='a', label='A', path={P})"

# Each case: the class, its fields in order, one value per field, a second
# value per field, the defaults and the expected repr of ``cls(*values)``.
CASES = {
    "Sums": (
        Sums,
        ("pubs", "rows", "diagonals"),
        ((1.0, 2.0), (3.0, 4.0), (5.0, 2.0)),
        ((1.0, 3.0), (3.0, 5.0), (5.0, 3.0)),
        {},
        "Sums(pubs=(1.0, 2.0), rows=(3.0, 4.0), diagonals=(5.0, 2.0))",
    ),
    "PCMatrix": (
        PCMatrix,
        ("first_year", "pubs", "cites", "label"),
        (2000, (1.0, 2.0), ((3.0, 1.0), (4.0,)), "m"),
        (2001, (1.0, 3.0), ((3.0, 1.0), (5.0,)), "n"),
        {"label": ""},
        M_REPR,
    ),
    "CkProfile": (
        CkProfile,
        ("values", "source_label"),
        ((0.5, 0.25), "src"),
        ((0.5, 0.5), "other"),
        {"source_label": ""},
        "CkProfile(values=(0.5, 0.25), source_label='src')",
    ),
    "RhythmPoint": (
        RhythmPoint,
        ("year", "observed", "expected", "ratio"),
        (2000, 1.0, 2.0, 0.5),
        (2001, 2.0, 4.0, None),
        {},
        POINT_REPR,
    ),
    "RhythmSequence": (
        RhythmSequence,
        ("years", "observed", "expected", "ratios", "observed_label", "profile", "i1", "i2",
         "undefined_years"),
        ((2000,), (1.0,), (2.0,), (0.5,), "a", PROFILE, 0.5, 0.5, ()),
        ((2001,), (2.0,), (4.0,), (None,), "x", CkProfile((3.0,), "b"), None, None, (2000,)),
        {},
        SEQ_REPR,
    ),
    "WindowSeries": (
        WindowSeries,
        ("entries",),
        (((2000, SEQ),),),
        (((2001, SEQ),),),
        {},
        f"WindowSeries(entries=((2000, {SEQ_REPR}),))",
    ),
    "Collective": (
        Collective,
        ("label", "constituents", "total"),
        ("C", {"a": M}, BIG),
        ("D", {"b": M}, PCMatrix(2000, (3.0, 3.0), ((6.0, 2.0), (9.0,)), "big2")),
        {"total": M.relabeled("C")},
        f"Collective(label='C', constituents=mappingproxy({{'a': {M_REPR}}}), "
        f"total={BIG!r})",
    ),
    "ComparisonResult": (
        ComparisonResult,
        ("baseline_label", "sequences", "per_year_winner"),
        ("rest", {"a": SEQ}, ("a",)),
        ("other", {"a": SEQ2}, (None,)),
        {},
        f"ComparisonResult(baseline_label='rest', sequences={{'a': {SEQ_REPR}}}, "
        "per_year_winner=('a',))",
    ),
    "Finding": (
        Finding,
        ("severity", "code", "message"),
        ("warning", "dominance", "a holds 90%"),
        ("error", "alignment", "b"),
        {},
        FINDING_REPR,
    ),
    "ValidationReport": (
        ValidationReport,
        ("findings",),
        ((FINDING,),),
        ((),),
        {},
        f"ValidationReport(findings=({FINDING_REPR},))",
    ),
    "MatrixFile": (
        MatrixFile,
        ("path", "matrix", "data"),
        (Path("a.csv"), M, b"ab12"),
        (Path("b.csv"), M2, b"cd34"),
        {},
        f"MatrixFile(path={P}, matrix={M_REPR}, data=b'ab12')",
    ),
    "ManifestActor": (
        ManifestActor,
        ("actor_id", "label", "path"),
        ("a", "A", Path("a.csv")),
        ("b", "B", Path("b.csv")),
        {},
        ACTOR_REPR,
    ),
    "CollectiveManifest": (
        CollectiveManifest,
        ("path", "label", "total_path", "actors", "assert_partition"),
        (Path("a.csv"), "C", None, (ACTOR,), True),
        (Path("b.csv"), "D", Path("t.csv"), (), False),
        {"assert_partition": False},
        f"CollectiveManifest(path={P}, label='C', total_path=None, "
        f"actors=({ACTOR_REPR},), assert_partition=True)",
    ),
    "CitationEvent": (
        CitationEvent,
        ("published_year", "citing_year", "weight"),
        (2000, 2001, 2.0),
        (2001, 2002, 3.0),
        {"weight": 1.0},
        "CitationEvent(published_year=2000, citing_year=2001, weight=2.0)",
    ),
    "EventCorpus": (
        EventCorpus,
        ("first_year", "pub_weights", "events", "label"),
        (2000, (1.0, 2.0, 0.0), (EVENT,), "c"),
        (1999, (1.0, 2.0, 3.0), (), "d"),
        {"label": ""},
        "EventCorpus(first_year=2000, pub_weights=(1.0, 2.0, 0.0), events=(CitationEvent("
        "published_year=2000, citing_year=2001, weight=2.0),), label='c')",
    ),
    "CorpusSpec": (
        CorpusSpec,
        ("n", "pubs_range", "age_curve", "first_year", "magnet_share"),
        (2, (1, 8), (1.0, 0.5, 0.25), 1990, 0.25),
        (3, (0, 8), (1.0, 0.5, 0.5), 1991, 0.5),
        {"first_year": 2000, "magnet_share": 0.0},
        "CorpusSpec(n=2, pubs_range=(1, 8), age_curve=(1.0, 0.5, 0.25), first_year=1990, "
        "magnet_share=0.25)",
    ),
}
UNCOMPARED = {"PCMatrix": {"label"}, "CkProfile": {"source_label"}, "EventCorpus": {"label"}}
UNHASHABLE = {"Collective", "ComparisonResult"}

names = pytest.mark.parametrize("name", CASES)


def make(name, **changes):
    cls, fields, values, *_ = CASES[name]
    return cls(**{**dict(zip(fields, values)), **changes})


def test_every_record_is_covered():
    assert len(CASES) == 16


@names
def test_positional_and_keyword_construction(name):
    cls, fields, values, _, _, _ = CASES[name]
    by_position = cls(*values)
    assert type(by_position) is cls
    assert by_position == make(name)
    for field, value in zip(fields, values):
        assert getattr(by_position, field) == value


@names
def test_defaults(name):
    cls, fields, values, _, defaults, _ = CASES[name]
    required = {f: v for f, v in zip(fields, values) if f not in defaults}
    record = cls(**required)
    assert list(required) == list(fields[: len(required)])
    assert cls(*required.values()) == record
    for field, default in defaults.items():
        assert repr(getattr(record, field)) == repr(default)


@names
def test_equality_ignores_exactly_the_uncompared_fields(name):
    cls, fields, values, others, _, _ = CASES[name]
    record = make(name)
    for field, other in zip(fields, others):
        changed = make(name, **{field: other})
        if field in UNCOMPARED.get(name, ()):
            assert changed == record and not changed != record
            if name not in UNHASHABLE:
                assert hash(changed) == hash(record)
        else:
            assert changed != record and not changed == record


@names
def test_comparing_with_another_type_is_not_implemented(name):
    record = make(name)
    assert record.__eq__(object()) is NotImplemented
    assert record != tuple(CASES[name][2])
    assert not record == None  # noqa: E711


@names
def test_hash(name):
    record, twin = make(name), make(name)
    if name in UNHASHABLE:
        with pytest.raises(TypeError):
            hash(record)
    else:
        assert hash(record) == hash(twin)
        assert len({record, twin}) == 1


@names
def test_repr(name):
    assert repr(make(name)) == CASES[name][5]


@names
def test_fields_cannot_be_assigned_or_deleted(name):
    record = make(name)
    for field, other in zip(CASES[name][1], CASES[name][3]):
        with pytest.raises(AttributeError):
            setattr(record, field, other)
        with pytest.raises(AttributeError):
            delattr(record, field)
    with pytest.raises(AttributeError):
        record.extra = 1
    assert repr(record) == CASES[name][5]


@names
def test_copy_and_pickle(name):
    record = make(name)
    duplicate = copy.copy(record)
    assert duplicate == record and repr(duplicate) == repr(record)
    for restored in (copy.deepcopy(record), pickle.loads(pickle.dumps(record))):
        assert type(restored) is type(record)
        assert restored == record and repr(restored) == repr(record)
        with pytest.raises(AttributeError):
            setattr(restored, CASES[name][1][0], CASES[name][3][0])


def test_collective_constituents_are_read_only():
    c = make("Collective")
    assert isinstance(c.constituents, MappingProxyType)
    with pytest.raises(TypeError):
        c.constituents["b"] = M


def test_collective_copies_are_rebuilt_read_only_and_compare_alike():
    c = load_manifest(fixture_path("scim.manifest"))
    for restored in (copy.copy(c), copy.deepcopy(c), pickle.loads(pickle.dumps(c))):
        assert restored == c
        assert actor_vs_actor(restored, "brazil", "netherlands") == actor_vs_actor(
            c, "brazil", "netherlands"
        )
        assert isinstance(restored.constituents, MappingProxyType)
        with pytest.raises(TypeError):
            restored.constituents["b"] = M
        assert actor_vs_collective(restored, "china") == actor_vs_collective(c, "china")


def test_matrix_file_checksum_is_computed_once_from_the_data():
    record = make("MatrixFile")
    assert "sha256" not in vars(record)
    assert record.sha256 == hashlib.sha256(b"ab12").hexdigest()
    assert record.sha256 is record.sha256
    assert copy.copy(record).sha256 == pickle.loads(pickle.dumps(record)).sha256 == record.sha256


def test_matrix_sums_are_cached_and_survive_copies():
    m = PCMatrix(2000, (1.0, 2.0), ((3.0, 1.0), (4.0,)), "m")
    assert m.sums is m.sums
    assert m.sums == Sums((1.0, 2.0), (4.0, 4.0), (7.0, 1.0))
    assert copy.copy(m).sums == m.sums
    assert pickle.loads(pickle.dumps(m)).sums == m.sums


def test_matrix_whole_count_bit_is_uncompared_and_survives_copies():
    # The bit is scanned on first read and kept, as ``sums`` is.
    whole = PCMatrix(2000, (1.0, 2.0), ((3.0, 1.0), (4.0,)), "m")
    fractional = PCMatrix(2000, (1.0,), ((0.5,),))
    twin = PCMatrix(2000, (1.0, 2.0), ((3.0, 1.0), (4.0,)), "m")
    assert "_whole" not in vars(whole)
    assert whole._whole is True and fractional._whole is False
    assert vars(whole)["_whole"] is True and "_whole" not in vars(twin)
    assert whole == twin and hash(whole) == hash(twin) and repr(whole) == M_REPR
    for m, bit in ((whole, True), (fractional, False)):
        for restored in (copy.copy(m), copy.deepcopy(m), pickle.loads(pickle.dumps(m))):
            assert vars(restored)["_whole"] is bit
            assert restored == m and repr(restored) == repr(m)
    assert "_whole" not in vars(copy.copy(twin))


def test_sequence_points_are_built_from_the_columns_on_each_read():
    seq = RhythmSequence((2000, 2001), (1.0, 3.0), (2.0, 0.0), (0.5, None), "a", PROFILE,
                         2.0, None, (2001,))
    assert seq.points == (POINT, RhythmPoint(2001, 3.0, 0.0, None))
    assert seq.points == tuple(map(RhythmPoint, seq.years, seq.observed, seq.expected,
                                   seq.ratios))
    assert "points" not in vars(seq)
    for restored in (copy.copy(seq), copy.deepcopy(seq), pickle.loads(pickle.dumps(seq))):
        assert restored == seq and restored.points == seq.points
        assert "points" not in vars(restored)


def test_validation_runs_on_construction():
    with pytest.raises(ValueError):
        PCMatrix(2000, (), ())
    assert PCMatrix(2000, [1], [[2]]).pubs == (1.0,)
    assert CkProfile([1]).values == (1.0,)
    with pytest.raises(ValueError):
        CorpusSpec(0, (1, 2), ())
