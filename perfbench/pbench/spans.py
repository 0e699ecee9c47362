"""The benchmark's own spans: in memory during the run, written out at the end.

A span is ``(name, start, end, parent, request)``: ``parent`` is the index
of the enclosing span in the same log (``-1`` for a root) and ``request``
groups the spans of one HTTP request or one in-process scheduler call.
Times are ``time.perf_counter()`` seconds.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from pathlib import Path


@dataclass(slots=True)
class Span:
    name: str
    start: float
    end: float
    parent: int
    request: int

    @property
    def ms(self) -> float:
        return (self.end - self.start) * 1e3


class SpanLog:
    """Append-only span store with a stack for parent links (one thread)."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self.request = -1

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent, self.request))
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index].end = time.perf_counter()
        popped = self._stack.pop()
        if popped != index:
            raise RuntimeError(f"span {index} closed while {popped} was innermost")

    def named(self, name: str) -> list[Span]:
        return [span for span in self.spans if span.name == name]

    def write(self, path: Path) -> None:
        """Dump every span as JSON lines (ms offsets from the first span)."""
        origin = self.spans[0].start if self.spans else 0.0
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as out:
            for index, span in enumerate(self.spans):
                out.write(
                    json.dumps(
                        {
                            "id": index,
                            "name": span.name,
                            "start_ms": (span.start - origin) * 1e3,
                            "end_ms": (span.end - origin) * 1e3,
                            "parent": span.parent,
                            "request": span.request,
                        }
                    )
                    + "\n"
                )
