"""Citation rhythm analysis: observed-vs-expected citation ratios from
publication-citation matrices, for comparing an actor with its collective
or two actors with each other on equal citation-window footing.

Each module's ``__all__`` is its public API. The package re-exports the
library modules' lists. :mod:`citerhythm.oracle` loads on first use of one
of its names (or of ``__all__``); :mod:`citerhythm.chart` and
:mod:`citerhythm.cli` load only when imported."""

__version__ = "0.1.0"

import importlib

from . import collective, errors, ingest, pcmatrix, rhythm
from .collective import *  # noqa: F403
from .errors import *  # noqa: F403
from .ingest import *  # noqa: F403
from .pcmatrix import *  # noqa: F403
from .rhythm import *  # noqa: F403


def __getattr__(name: str) -> object:
    # PEP 562: the first use of one of the oracle's names, or of __all__,
    # loads the oracle. ``from . import oracle`` would call this hook again.
    if not name.startswith("__") or name == "__all__":
        oracle = importlib.import_module(".oracle", __name__)
        globals().update({n: getattr(oracle, n) for n in oracle.__all__})
        modules = (pcmatrix, rhythm, collective, ingest, oracle, errors)
        globals()["__all__"] = ["__version__", *(n for m in modules for n in m.__all__)]
        if name in globals():
            return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    __getattr__("__all__")
    return list(globals())
