"""Benchmark-side tracing: spans recorded around calls into the program.

The traced run replaces a few public functions and methods with timing
wrappers (see :class:`Patches`); nothing inside ``src/`` is instrumented.
Spans stay in memory and are written out once the run ends.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from collections import defaultdict
from typing import Callable, Iterable, NamedTuple, Optional

__all__ = ["Span", "SpanRecorder", "covered_length", "self_times", "Patches"]


class Span(NamedTuple):
    id: int
    name: str
    start: float
    end: float
    #: Id of the span that was open on the same thread when this one began.
    parent: Optional[int]
    #: Request id, fault id or batch size, depending on the span.
    key: object

    @property
    def duration(self) -> float:
        return self.end - self.start


class SpanRecorder:
    """Thread-safe in-memory span log with per-thread nesting."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def record(
        self,
        name: str,
        start: float,
        end: float,
        key: object = None,
        parent: Optional[int] = None,
    ) -> int:
        """Append a span timed by the caller; returns its id."""
        span_id = next(self._ids)
        self.spans.append(Span(span_id, name, start, end, parent, key))
        return span_id

    def wrap(
        self,
        name,
        fn: Callable,
        key: Optional[Callable] = None,
    ) -> Callable:
        """``fn`` timed as a span per call.

        ``name`` is a string or a callable of the call's arguments (e.g. to
        tell full detection passes from slices); ``key`` likewise derives the
        span key from the arguments.
        """

        def wrapper(*args, **kwargs):
            span_name = name(*args, **kwargs) if callable(name) else name
            span_key = key(*args, **kwargs) if key is not None else None
            span_id = next(self._ids)
            stack = self._stack()
            parent = stack[-1] if stack else None
            stack.append(span_id)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                self.spans.append(Span(span_id, span_name, start, end, parent, span_key))

        wrapper.__wrapped__ = fn
        return wrapper

    def named(self, prefix: str) -> list[Span]:
        """Spans whose name starts with ``prefix``, in completion order."""
        return [span for span in self.spans if span.name.startswith(prefix)]

    def write_jsonl(self, path) -> int:
        """Write every span as one JSON object per line; returns the count."""
        spans = list(self.spans)
        with open(path, "w", encoding="utf-8") as handle:
            for span in spans:
                record = span._asdict()
                if not isinstance(record["key"], (int, float, str, type(None))):
                    record["key"] = repr(record["key"])
                handle.write(json.dumps(record) + "\n")
        return len(spans)


def covered_length(intervals: Iterable[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of ``[lo, hi]`` covered by the union of ``intervals``."""
    clipped = sorted(
        (max(start, lo), min(end, hi)) for start, end in intervals if end > lo and start < hi
    )
    total = 0.0
    run_start = run_end = None
    for start, end in clipped:
        if run_end is None or start > run_end:
            if run_end is not None:
                total += run_end - run_start
            run_start, run_end = start, end
        else:
            run_end = max(run_end, end)
    if run_end is not None:
        total += run_end - run_start
    return total


def self_times(spans: Iterable[Span]) -> dict[int, float]:
    """Self time of every span: its duration minus what its children cover.

    Only direct children count; a grandchild is already inside its parent.
    """
    spans = list(spans)
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append((span.start, span.end))
    return {
        span.id: span.duration - covered_length(children.get(span.id, ()), span.start, span.end)
        for span in spans
    }


class Patches:
    """Attribute replacements on objects, classes or modules, undone in reverse.

    Use as a context manager so a failed run still restores the program.
    """

    _MISSING = object()

    def __init__(self) -> None:
        self._undo: list[tuple[object, str, object]] = []

    def wrap(self, recorder: SpanRecorder, target, attr: str, name, key=None) -> None:
        """Replace ``target.attr`` by ``recorder.wrap(name, target.attr)``."""
        self.set(target, attr, recorder.wrap(name, getattr(target, attr), key=key))

    def set(self, target, attr: str, value) -> None:
        own = vars(target).get(attr, self._MISSING)
        self._undo.append((target, attr, own))
        setattr(target, attr, value)

    def undo(self) -> None:
        while self._undo:
            target, attr, own = self._undo.pop()
            if own is self._MISSING:
                delattr(target, attr)
            else:
                setattr(target, attr, own)

    def __enter__(self) -> "Patches":
        return self

    def __exit__(self, *exc) -> None:
        self.undo()
