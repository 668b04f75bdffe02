"""Citation rhythm analysis: observed-vs-expected citation ratios from
publication-citation matrices, for comparing an actor with its collective
or two actors with each other on equal citation-window footing.

Each module's ``__all__`` is its public API. The package re-exports the
library modules' lists. ``import citerhythm`` loads ``pcmatrix``, ``rhythm``,
``ingest`` and ``errors``. ``collective`` loads on first use of one of its
names, ``oracle`` on first use of one of its own, and both on first use of
``__all__``; ``chart`` and ``cli`` load only when imported."""

__version__ = "0.1.0"

import importlib

from . import errors, ingest, pcmatrix, rhythm
from .errors import *  # noqa: F403
from .ingest import *  # noqa: F403
from .pcmatrix import *  # noqa: F403
from .rhythm import *  # noqa: F403


def __getattr__(name: str) -> object:
    # PEP 562, for names not yet in the package: load the lazy modules in
    # order up to the first that defines ``name`` and copy in all their names,
    # so later uses are plain reads. ``from . import oracle`` would recurse.
    if not name.startswith("__") or name == "__all__":
        for lazy in ("collective", "oracle"):
            module = importlib.import_module(f".{lazy}", __name__)
            globals().update({n: getattr(module, n) for n in module.__all__})
            if name in globals():
                return globals()[name]
        order = ("pcmatrix", "rhythm", "collective", "ingest", "oracle", "errors")
        globals()["__all__"] = ["__version__", *(n for m in order for n in globals()[m].__all__)]
        if name == "__all__":
            return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    __getattr__("__all__")
    return list(globals())
