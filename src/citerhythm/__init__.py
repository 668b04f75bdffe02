"""Citation rhythm analysis: observed-vs-expected citation ratios from
publication-citation matrices, for comparing an actor with its collective
or two actors with each other on equal citation-window footing."""

__version__ = "0.1.0"

from .collective import (
    Collective,
    ComparisonResult,
    Finding,
    ValidationReport,
    actor_vs_actor,
    actor_vs_collective,
    complement,
    validate_collective,
)
from .errors import (
    AlignmentError,
    DataConsistencyError,
    DomainError,
    LayoutError,
    ManifestError,
    MatrixParseError,
    RhythmError,
    SubsetError,
    UnknownActorError,
    WindowError,
    YearOutOfRangeError,
)
from .ingest import (
    CollectiveManifest,
    ManifestActor,
    MatrixFile,
    build_collective,
    fixture_path,
    load_manifest,
    parse_manifest,
    parse_matrix,
    read_matrix,
    read_matrix_file,
    write_matrix,
)
from .oracle import (
    CitationEvent,
    CorpusSpec,
    EventCorpus,
    aggregate,
    brute_force_rhythm,
    corpus_from_matrix,
    default_age_curve,
    generate,
    max_relative_difference,
)
from .pcmatrix import (
    CkProfile,
    PCMatrix,
    add,
    ck_profile,
    subtract,
)
from .rhythm import (
    RhythmPoint,
    RhythmSequence,
    WindowSeries,
    cross_rhythm,
    internal_rhythm,
    sliding_windows,
    summary_i2_lenient,
)

__all__ = [
    "__version__",
    # matrices
    "PCMatrix",
    "CkProfile",
    "ck_profile",
    "add",
    "subtract",
    # rhythms
    "RhythmPoint",
    "RhythmSequence",
    "WindowSeries",
    "internal_rhythm",
    "cross_rhythm",
    "summary_i2_lenient",
    "sliding_windows",
    # collectives
    "Collective",
    "ComparisonResult",
    "Finding",
    "ValidationReport",
    "complement",
    "actor_vs_collective",
    "actor_vs_actor",
    "validate_collective",
    # ingest
    "MatrixFile",
    "ManifestActor",
    "CollectiveManifest",
    "parse_matrix",
    "write_matrix",
    "read_matrix",
    "read_matrix_file",
    "parse_manifest",
    "build_collective",
    "load_manifest",
    "fixture_path",
    # oracle
    "CitationEvent",
    "EventCorpus",
    "CorpusSpec",
    "default_age_curve",
    "aggregate",
    "corpus_from_matrix",
    "brute_force_rhythm",
    "generate",
    "max_relative_difference",
    # errors
    "RhythmError",
    "AlignmentError",
    "YearOutOfRangeError",
    "WindowError",
    "SubsetError",
    "DataConsistencyError",
    "DomainError",
    "MatrixParseError",
    "LayoutError",
    "ManifestError",
    "UnknownActorError",
]
