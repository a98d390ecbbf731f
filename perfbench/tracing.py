"""In-memory span tracer that wraps functions from outside the package.

A span is ``[name, start, end, parent]``: ``parent`` is the index of the
enclosing open span, or -1 at the top. Counts are named running totals
kept beside the spans. Nothing is written until the caller asks.

The tracer patches attributes (module functions, class methods) and keeps
every original, so :meth:`Tracer.restore` puts the program back exactly as
it was.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict
from pathlib import Path
from typing import Callable

Span = list  # [name: str, start: float, end: float | None, parent: int]


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._open: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------------

    def begin(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, self._open[-1] if self._open else -1])
        self._open.append(idx)
        return idx

    def end(self, idx: int) -> None:
        self._open.pop()
        self.spans[idx][2] = time.perf_counter()

    def current(self) -> str | None:
        """Name of the innermost open span."""
        return self.spans[self._open[-1]][0] if self._open else None

    def clear(self) -> None:
        self.spans.clear()
        self.counts.clear()

    def wrap(
        self,
        fn: Callable,
        name: str | Callable[[tuple], str],
        after: Callable[["Tracer", tuple, object], None] | None = None,
    ) -> Callable:
        """Return ``fn`` timed as a span. ``name`` may be computed from the
        positional arguments; ``after(tracer, args, result)`` records counts
        once the span has closed."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self.begin(name(args) if callable(name) else name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.end(idx)
            if after is not None:
                after(self, args, out)
            return out

        return traced

    # -- patching ------------------------------------------------------------

    def patch(self, owner: object, attr: str, replacement: object) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def patch_function(self, fn: Callable, package: str, name, after=None) -> None:
        """Replace ``fn`` in every module of ``package`` that binds it,
        including modules that imported it by name."""
        traced = self.wrap(fn, name, after)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == package or mod_name.startswith(package + ".")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    self.patch(mod, attr, traced)

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- output --------------------------------------------------------------

    def write(self, path: Path, meta: dict) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as f:
            f.write(json.dumps({"meta": meta, "counts": dict(self.counts)}, sort_keys=True) + "\n")
            for name, start, end, parent in self.spans:
                f.write(json.dumps([name, start, end, parent]) + "\n")


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of its interval covered by the
    union of its children's intervals."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for _, start, end, parent in spans:
        if parent >= 0:
            children[parent].append((start, end))
    out = []
    for i, (_, start, end, _) in enumerate(spans):
        covered = 0.0
        reach = start
        for c_start, c_end in sorted(children.get(i, ())):
            c_start, c_end = max(c_start, reach), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        out.append((end - start) - covered)
    return out
