"""In-memory span recorder for the benchmark's traced runs.

A span has a name, a start and end time (``time.perf_counter``), the index
of the span that was open when it started (its parent) and a dictionary of
exact counts.  Spans are recorded in two ways:

* the benchmark opens spans around its own calls into the library
  (``Tracer.span``);
* ``Tracer.install`` replaces a library function, under the module attribute
  its caller looks it up by, with a wrapper that records a span per call.

A wrapped function that no longer exists (a later version may delete a
module such as ``_dd``) is listed in ``Tracer.absent`` instead of failing the
run.  ``Tracer.uninstall`` restores every original.
"""

from __future__ import annotations

import functools
import importlib
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable


@dataclass
class Span:
    name: str
    start: float
    parent: int | None
    unit: int
    end: float = 0.0
    counts: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass(frozen=True)
class Hook:
    """One library function to wrap: ``package.<module>.<attr>`` as ``name``.

    ``count(result, args, kwargs)`` returns exact counts attached to the span.
    """

    module: str
    attr: str
    name: str
    count: Callable | None = None


class Tracer:
    """Records spans while ``enabled``; units group spans by setup or round."""

    def __init__(self, package: str):
        self.package = package
        self.spans: list[Span] = []
        self.units: list[dict] = []
        self.absent: list[str] = []
        self.enabled = False
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- units ---------------------------------------------------------------

    @contextmanager
    def unit(self, kind: str, hooks=()):
        """A setup or a round; it records spans when ``hooks`` are given.

        The hooks are installed for the unit only, so an untraced unit runs
        the unmodified library.
        """
        traced = bool(hooks)
        self.install(hooks)
        record = {"kind": kind, "traced": traced, "start": time.perf_counter()}
        self.units.append(record)
        self.enabled = traced
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self.enabled = False
            self.uninstall()

    # -- spans ---------------------------------------------------------------

    @contextmanager
    def span(self, name: str, **counts):
        if not self.enabled:
            yield None
            return
        s = Span(
            name=name,
            start=time.perf_counter(),
            parent=self._stack[-1] if self._stack else None,
            unit=len(self.units) - 1,
            counts=dict(counts),
        )
        self.spans.append(s)
        self._stack.append(len(self.spans) - 1)
        try:
            yield s
        finally:
            s.end = time.perf_counter()
            self._stack.pop()

    # -- wrapping library functions -----------------------------------------

    def install(self, hooks) -> None:
        for hook in hooks:
            try:
                owner = importlib.import_module(f"{self.package}.{hook.module}")
            except ModuleNotFoundError:
                owner = None
            fn = getattr(owner, hook.attr, None)
            if fn is None:
                if hook.name not in self.absent:
                    self.absent.append(hook.name)
                continue
            setattr(owner, hook.attr, self._wrapper(fn, hook))
            self._patches.append((owner, hook.attr, fn))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, fn = self._patches.pop()
            setattr(owner, attr, fn)

    def _wrapper(self, fn, hook: Hook):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            with tracer.span(hook.name) as s:
                out = fn(*args, **kwargs)
                if hook.count is not None:
                    # a later signature or return type must not stop the run
                    try:
                        s.counts.update(hook.count(out, args, kwargs))
                    except (AttributeError, IndexError, KeyError, TypeError, OSError):
                        s.counts["uncounted"] = 1
            return out

        return wrapper

    # -- derived quantities --------------------------------------------------

    def self_time(self, index: int) -> float:
        """Duration minus the time covered by direct children (which nest)."""
        s = self.spans[index]
        children = sum(c.duration for c in self.spans if c.parent == index)
        return s.duration - children

    def to_json(self) -> dict:
        return {
            "absent": list(self.absent),
            "units": self.units,
            "spans": [
                {
                    "name": s.name,
                    "start": s.start,
                    "end": s.end,
                    "parent": s.parent,
                    "unit": s.unit,
                    "counts": s.counts,
                }
                for s in self.spans
            ],
        }
