"""Citation rhythm analysis: observed-vs-expected citation ratios from
publication-citation matrices, for comparing an actor with its collective
or two actors with each other on equal citation-window footing.

Each module's ``__all__`` is its public API. The package re-exports the
library modules' lists; :mod:`citerhythm.chart` and :mod:`citerhythm.cli`
load only when imported."""

__version__ = "0.1.0"

from . import collective, errors, ingest, oracle, pcmatrix, rhythm
from .collective import *  # noqa: F403
from .errors import *  # noqa: F403
from .ingest import *  # noqa: F403
from .oracle import *  # noqa: F403
from .pcmatrix import *  # noqa: F403
from .rhythm import *  # noqa: F403

__all__ = [
    "__version__",
    *pcmatrix.__all__,
    *rhythm.__all__,
    *collective.__all__,
    *ingest.__all__,
    *oracle.__all__,
    *errors.__all__,
]
