"""A small, thread-safe, in-memory span recorder.

Each span has a name, a start and an end (``time.perf_counter`` seconds),
the index of its parent span and a dict of counts. Spans stay in memory
until the caller writes them out with :meth:`SpanRecorder.write_jsonl`.

A span opened on a thread with no open span of its own (a worker of a
thread pool) takes as parent the innermost open span of the thread that
created the recorder, which is the thread that started the pool.
"""

from __future__ import annotations

import json
import threading
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from pathlib import Path


@dataclass
class Span:
    name: str
    start: float
    parent: int | None
    thread: int
    end: float = 0.0
    counts: dict[str, float] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class SpanRecorder:
    def __init__(self):
        self.spans: list[Span] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._origin_stack = self._stack()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str, **counts: float):
        """Record the enclosed block as one span; yields the Span, so the
        block can add counts once it knows them."""
        stack = self._stack()
        origin = self._origin_stack
        parent = stack[-1] if stack else (origin[-1] if origin else None)
        record = Span(name, 0.0, parent, threading.get_ident(), counts=dict(counts))
        with self._lock:
            index = len(self.spans)
            self.spans.append(record)
        stack.append(index)
        record.start = time.perf_counter()
        try:
            yield record
        finally:
            record.end = time.perf_counter()
            stack.pop()

    def children(self, index: int) -> list[Span]:
        return [span for span in self.spans if span.parent == index]

    def self_time(self, index: int) -> float:
        """The span's duration minus the part its children cover (children on
        parallel threads overlap, so covered time is their union)."""
        intervals = sorted((c.start, c.end) for c in self.children(index))
        covered, reach = 0.0, float("-inf")
        for start, end in intervals:
            start = max(start, reach)
            if end > start:
                covered += end - start
                reach = end
        return self.spans[index].duration - covered

    def write_jsonl(self, path: Path) -> None:
        with path.open("w", encoding="utf-8") as handle:
            for index, span in enumerate(self.spans):
                handle.write(json.dumps({"id": index, **asdict(span)}) + "\n")
