"""Spans recorded from outside the program, by wrapping its public calls.

:class:`Tracer` replaces a chosen set of ``repro`` functions and methods
with timing wrappers, records one span per call (name, start, end, the
span that caused it, and the root span shared by everything one
campaign or training call does), and puts every original back on
:meth:`Tracer.restore`.  A function imported by name into several
modules is replaced in each of them, so a call is caught whichever
module it is made from.  Spans stay in memory until the benchmark ends.
"""

from __future__ import annotations

import functools
import sys
import time
from dataclasses import dataclass, field


@dataclass
class Span:
    sid: int
    parent: int | None
    root: int
    name: str
    start: float
    end: float = 0.0
    attrs: dict = field(default_factory=dict)
    child_s: float = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        """Duration minus the part of it that child spans cover.

        Children of one span run one after another on one thread, so
        the covered part is the sum of their durations.
        """
        return self.duration - self.child_s


def _owners_of(function) -> list[tuple[object, str]]:
    """Every ``repro`` module attribute bound to ``function``."""
    owners = []
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "repro" or name.startswith("repro.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is function:
                owners.append((module, attr))
    return owners


class Tracer:
    """Installs span-recording wrappers and restores the originals."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._patched: list[tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------
    def begin(self, name: str, attrs: dict | None = None) -> Span:
        parent = self._stack[-1] if self._stack else None
        sid = len(self.spans)
        span = Span(
            sid=sid,
            parent=parent.sid if parent else None,
            root=parent.root if parent else sid,
            name=name,
            start=time.perf_counter(),
            attrs=attrs or {},
        )
        self.spans.append(span)
        self._stack.append(span)
        return span

    def end(self, span: Span) -> None:
        span.end = time.perf_counter()
        popped = self._stack.pop()
        if popped is not span:
            raise RuntimeError(f"span {span.name!r} closed out of order")
        if self._stack:
            self._stack[-1].child_s += span.duration

    def call(self, name: str, fn, *args, **kwargs):
        """Run ``fn`` inside a span (for the benchmark's own calls)."""
        span = self.begin(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.end(span)

    # -- wrappers ------------------------------------------------------
    def _wrapper(self, name: str, original, attrs_of):
        @functools.wraps(original)
        def traced(*args, **kwargs):
            span = self.begin(name, attrs_of(args, kwargs) if attrs_of else None)
            try:
                return original(*args, **kwargs)
            finally:
                self.end(span)

        return traced

    def wrap_function(self, function, name: str, attrs_of=None) -> None:
        """Replace a module-level function in every module bound to it."""
        traced = self._wrapper(name, function, attrs_of)
        owners = _owners_of(function)
        if not owners:
            raise LookupError(f"{function.__qualname__} is bound in no repro module")
        for owner, attr in owners:
            self._patched.append((owner, attr, function))
            setattr(owner, attr, traced)

    def wrap_method(self, cls: type, attr: str, name: str, attrs_of=None) -> None:
        """Replace a method defined on ``cls`` itself."""
        original = cls.__dict__[attr]
        self._patched.append((cls, attr, original))
        setattr(cls, attr, self._wrapper(name, original, attrs_of))

    def restore(self) -> None:
        """Put back every original, newest first."""
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # -- reports -------------------------------------------------------
    def stage_table(self) -> dict[str, dict[str, float]]:
        """Per span name: call count, total time and self time."""
        table: dict[str, dict[str, float]] = {}
        for span in self.spans:
            row = table.setdefault(span.name, {"count": 0, "total_s": 0.0, "self_s": 0.0})
            row["count"] += 1
            row["total_s"] += span.duration
            row["self_s"] += span.self_s
        return table

    def to_json(self) -> list[dict]:
        return [
            {
                "id": s.sid,
                "parent": s.parent,
                "root": s.root,
                "name": s.name,
                "start": s.start,
                "end": s.end,
                "self_s": s.self_s,
                **({"attrs": s.attrs} if s.attrs else {}),
            }
            for s in self.spans
        ]
