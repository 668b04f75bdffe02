"""Span tracer for the traced benchmark run.

It times the package's public layer calls from outside: every public
function and public method of every ``citerhythm`` module (plus the
validating constructor ``__post_init__`` of its dataclasses) is replaced by
a timing wrapper, in every ``citerhythm`` module namespace that holds it, so
calls from one module into another are timed too. The program's source is
left alone; :meth:`Tracer.uninstall` restores every original.

Each call records a span (id, parent id, layer, name, start, end) in
memory. A layer is the module that defines the callee, and a span's self
time is its duration minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import itertools
import os
import sys
import types
from collections import Counter, defaultdict
from time import perf_counter

PACKAGE = "citerhythm"
LAYERS = ("cli", "chart", "ingest", "collective", "pcmatrix", "rhythm", "oracle")


def cells(m) -> int:
    """Stored values of a p-c matrix: n publication counts plus the n(n+1)/2
    cells on and above the diagonal."""
    return m.n + m.n * (m.n + 1) // 2


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.failed: Counter = Counter()
        self.counts: Counter = Counter()
        self.complement_sets: set = set()
        self._stack: list[int] = []
        self._ids = itertools.count(1)
        self._patches: list[tuple[object, str, object]] = []
        # Counts kept at layer boundaries: "layer.name" of the callee ->
        # (counter, amount computed from the call's arguments and result).
        size = lambda a, r: cells(a[0])
        size_in_out = lambda a, r: sum(cells(m) for m in (*a[:2], r))
        file_size = lambda a, r: os.path.getsize(a[0])
        one = lambda a, r: 1
        self._hooks = {
            "pcmatrix.add": ("pcmatrix.cells_touched", size_in_out),
            "pcmatrix.subtract": ("pcmatrix.cells_touched", size_in_out),
            "pcmatrix.ck_profile": ("pcmatrix.cells_touched", size),
            "pcmatrix.PCMatrix.window": ("pcmatrix.cells_touched",
                                         lambda a, r: cells(a[0]) + cells(r)),
            "ingest.parse_matrix": ("ingest.cells_parsed", lambda a, r: cells(r)),
            "ingest.read_matrix_file": ("ingest.bytes_read", file_size),
            "ingest.parse_manifest": ("ingest.bytes_read", file_size),
            "collective.complement": ("collective.complement_calls", self._complement),
            "rhythm.internal_rhythm": ("rhythm.sequences", one),
            "rhythm.cross_rhythm": ("rhythm.sequences", one),
        }

    def _complement(self, args, result) -> int:
        self.complement_sets.add(frozenset(args[1]))
        return 1

    # -- patching ---------------------------------------------------------

    def _wrap(self, fn, layer: str, name: str):
        hook = self._hooks.get(f"{layer}.{name}")
        spans, stack, ids = self.spans, self._stack, self._ids
        failed, counts = self.failed, self.counts

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = next(ids)
            parent = stack[-1] if stack else 0
            stack.append(sid)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                failed[layer] += 1
                raise
            finally:
                t1 = perf_counter()
                stack.pop()
                spans.append((sid, parent, layer, name, t0, t1))
            if hook is not None:
                counter, amount = hook
                counts[counter] += amount(args, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every public function and method of the loaded package."""
        modules = [m for n, m in sys.modules.items()
                   if (n == PACKAGE or n.startswith(PACKAGE + ".")) and m is not None]
        wrapped: dict[int, object] = {}
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                home = getattr(obj, "__module__", None) or ""
                if attr.startswith("_") or not home.startswith(PACKAGE):
                    continue
                if isinstance(obj, types.FunctionType):
                    if id(obj) not in wrapped:
                        layer = home.rpartition(".")[2]
                        wrapped[id(obj)] = self._wrap(obj, layer, obj.__name__)
                    self._patch(mod, attr, wrapped[id(obj)])
                elif isinstance(obj, type) and id(obj) not in wrapped:
                    wrapped[id(obj)] = obj
                    self._wrap_class(obj)

    def _wrap_class(self, cls: type) -> None:
        layer = cls.__module__.rpartition(".")[2]
        for attr, member in list(vars(cls).items()):
            if attr.startswith("_") and attr != "__post_init__":
                continue
            name = f"{cls.__name__}.{attr}"
            if isinstance(member, types.FunctionType):
                self._patch(cls, attr, self._wrap(member, layer, name))
            elif isinstance(member, (classmethod, staticmethod)):
                kind = type(member)
                self._patch(cls, attr, kind(self._wrap(member.__func__, layer, name)))

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- results ----------------------------------------------------------

    def take(self, inclusive: tuple[str, ...] = ()) -> dict:
        """Self seconds per layer, span calls per layer and inclusive seconds
        of the named ``layer.name`` calls, over the spans recorded since the
        last call; the spans are then dropped."""
        child = defaultdict(float)
        for sid, parent, layer, name, t0, t1 in self.spans:
            child[parent] += t1 - t0
        self_s = Counter()
        calls = Counter()
        incl = Counter()
        for sid, parent, layer, name, t0, t1 in self.spans:
            self_s[layer] += (t1 - t0) - child[sid]
            calls[layer] += 1
            key = f"{layer}.{name}"
            if key in inclusive:
                incl[key] += t1 - t0
        self.spans.clear()
        return {"self": self_s, "calls": calls, "inclusive": incl}
